//===- parser/Lexer.cpp - Tokenizer implementation --------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parser/Lexer.h"

#include <algorithm>
#include <array>
#include <cstdint>

using namespace am;

namespace {

constexpr std::string_view KeywordSpellings[] = {
    "",     "graph", "program", "temp", "goto",  "halt",   "br",
    "if",   "then",  "else",    "while", "out",  "skip",   "choose",
    "or",   "repeat", "until",  "synthetic"};

/// A hash of an identifier's first two letters and length that gives every
/// keyword its own slot (checked at compile time below), so recognizing
/// an identifier costs one string compare.
constexpr size_t keywordSlot(std::string_view S) {
  return (S[0] * 7 + S[1] * 17 + S.size()) & 31;
}

constexpr std::array<Keyword, 32> KeywordSlots = [] {
  std::array<Keyword, 32> T{};
  for (size_t K = 1; K < std::size(KeywordSpellings); ++K) {
    Keyword &Slot = T[keywordSlot(KeywordSpellings[K])];
    if (Slot != Keyword::None)
      throw "two keywords share a slot";
    Slot = static_cast<Keyword>(K);
  }
  return T;
}();

Keyword classify(std::string_view S) {
  if (S.size() < 2)
    return Keyword::None;
  Keyword K = KeywordSlots[keywordSlot(S)];
  return S == KeywordSpellings[static_cast<size_t>(K)] ? K : Keyword::None;
}

// ASCII character classes; the lexer never consults the locale.  `$`
// continues an identifier but cannot start one: it spells the structured
// parser's decomposition variables (`t$0`), which the structured syntax
// reserves and the CFG syntax reads back.
enum : uint8_t { Digit = 1, IdentStart = 2, IdentPart = 3 };
constexpr std::array<uint8_t, 256> CharClass = [] {
  std::array<uint8_t, 256> T{};
  for (int C = '0'; C <= '9'; ++C)
    T[C] = Digit;
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] = T[C - 'a' + 'A'] = IdentStart;
  T['_'] = IdentStart;
  T['$'] = IdentPart;
  return T;
}();

uint8_t charClass(char C) { return CharClass[static_cast<unsigned char>(C)]; }
bool isDigit(char C) { return charClass(C) == Digit; }

class LexerImpl {
public:
  explicit LexerImpl(std::string_view Src)
      : Cur(Src.data()), End(Src.data() + Src.size()), LineStart(Cur) {}

  std::vector<Token> run(std::string *Error) {
    std::vector<Token> Out;
    // Printed programs run at 3.0-3.5 source bytes per token.
    Out.reserve(static_cast<size_t>(End - Cur) / 3 + 4);
    while (true) {
      skipTrivia();
      Out.push_back(next());
      TokKind K = Out.back().K;
      if (K == TokKind::Eof || K == TokKind::Error)
        break;
    }
    if (Error)
      *Error = std::move(Message);
    return Out;
  }

private:
  char peek() const { return Cur == End ? '\0' : *Cur; }

  // Tokens never span a newline, so a column is the distance from the
  // start of its line.
  void skipTrivia() {
    while (Cur != End) {
      char C = *Cur;
      if (C == ' ' || C == '\t' || C == '\r') {
        ++Cur;
      } else if (C == '\n') {
        ++Line;
        LineStart = ++Cur;
      } else if (C == '#') {
        Cur = std::find(Cur, End, '\n');
      } else {
        break;
      }
    }
  }

  Token make(TokKind K) {
    Token T;
    T.K = K;
    T.Text = std::string_view(TokStart, static_cast<size_t>(Cur - TokStart));
    T.Line = Line;
    T.Col = static_cast<unsigned>(TokStart - LineStart + 1);
    return T;
  }

  Token error(std::string Msg) {
    Message = std::move(Msg);
    return make(TokKind::Error);
  }

  /// Consumes a second character \p C2 if present: \p Two, else \p One.
  Token pair(char C2, TokKind Two, TokKind One) {
    if (peek() != C2)
      return make(One);
    ++Cur;
    return make(Two);
  }

  Token next() {
    TokStart = Cur;
    if (Cur == End)
      return make(TokKind::Eof);
    char C = *Cur++;

    if (charClass(C) == IdentStart) {
      while (Cur != End && charClass(*Cur) != 0)
        ++Cur;
      Token T = make(TokKind::Ident);
      T.Kw = classify(T.Text);
      return T;
    }

    if (isDigit(C)) {
      while (Cur != End && isDigit(*Cur))
        ++Cur;
      std::string_view Digits(TokStart, static_cast<size_t>(Cur - TokStart));
      // Accumulate with an explicit overflow check: std::stoll throws on
      // out-of-range input, which would escape as an uncaught exception.
      int64_t Value = 0;
      for (char D : Digits) {
        int64_t Digit = D - '0';
        if (Value > (INT64_MAX - Digit) / 10)
          return error("number literal '" + std::string(Digits) +
                       "' is too large");
        Value = Value * 10 + Digit;
      }
      Token T = make(TokKind::Number);
      T.Value = Value;
      return T;
    }

    switch (C) {
    case '+':
      return make(TokKind::Plus);
    case '-':
      return make(TokKind::Minus);
    case '*':
      return make(TokKind::Star);
    case '/':
      return make(TokKind::Slash);
    case '(':
      return make(TokKind::LParen);
    case ')':
      return make(TokKind::RParen);
    case '{':
      return make(TokKind::LBrace);
    case '}':
      return make(TokKind::RBrace);
    case ',':
      return make(TokKind::Comma);
    case ';':
      return make(TokKind::Semi);
    case '=':
      return pair('=', TokKind::EqEq, TokKind::Assign);
    case ':':
      return pair('=', TokKind::Assign, TokKind::Colon);
    case '<':
      return pair('=', TokKind::Le, TokKind::Lt);
    case '>':
      return pair('=', TokKind::Ge, TokKind::Gt);
    case '!':
      if (peek() == '=') {
        ++Cur;
        return make(TokKind::Ne);
      }
      return error("stray '!'");
    default: {
      // Non-printable and non-ASCII bytes are rendered as hex escapes so
      // the diagnostic stays one clean line of printable text.
      unsigned char U = static_cast<unsigned char>(C);
      std::string Shown;
      if (U >= 0x20 && U < 0x7F) {
        Shown = std::string("'") + C + "'";
      } else {
        static const char Hex[] = "0123456789abcdef";
        Shown = "byte 0x";
        Shown += Hex[U >> 4];
        Shown += Hex[U & 0xF];
      }
      return error("unexpected character " + Shown);
    }
    }
  }

  const char *Cur;
  const char *End;
  const char *LineStart;
  const char *TokStart = nullptr;
  unsigned Line = 1;
  std::string Message;
};

} // namespace

std::vector<Token> am::tokenize(std::string_view Src, std::string *Error) {
  return LexerImpl(Src).run(Error);
}

std::string_view am::spelling(Keyword K) {
  return KeywordSpellings[static_cast<size_t>(K)];
}

const char *am::tokKindName(TokKind K) {
  static const char *const Names[] = {
      "identifier", "number", "':='", "'+'", "'-'", "'*'", "'/'", "'<'",
      "'<='",       "'>'",    "'>='", "'=='", "'!='", "'('", "')'", "'{'",
      "'}'",        "','",    "';'",  "':'",  "end of input", "lexical error"};
  return Names[static_cast<size_t>(K)];
}
