//===- parser/Lexer.h - Tokenizer for the program syntaxes -----*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer shared by the structured-language and CFG-syntax parsers.
/// `#` starts a comment running to end of line.
///
/// The source is lexed once, completely, before either parser runs: a
/// token is a `std::string_view` into the source (no copies), identifiers
/// carry their keyword tag, and a lexical error's message is returned
/// beside the token list rather than inside a token.
///
//===----------------------------------------------------------------------===//

#ifndef AM_PARSER_LEXER_H
#define AM_PARSER_LEXER_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace am {

/// Token kinds.  Keywords are lexed as Ident tokens carrying a Keyword
/// tag, so that identifiers like "out" can still be diagnosed helpfully.
enum class TokKind : uint8_t {
  Ident,
  Number,
  Assign,   // := or =
  Plus,     // +
  Minus,    // -
  Star,     // *
  Slash,    // /
  Lt,       // <
  Le,       // <=
  Gt,       // >
  Ge,       // >=
  EqEq,     // ==
  Ne,       // !=
  LParen,   // (
  RParen,   // )
  LBrace,   // {
  RBrace,   // }
  Comma,    // ,
  Semi,     // ;
  Colon,    // :
  Eof,
  Error,
};

/// The reserved words of both syntaxes; None for every other identifier.
enum class Keyword : uint8_t {
  None, Graph, Program, Temp, Goto, Halt, Br, If, Then, Else, While, Out,
  Skip, Choose, Or, Repeat, Until, Synthetic
};

/// One token with its source location (1-based line/column).
struct Token {
  std::string_view Text; // spelling, a view into the lexed source
  int64_t Value = 0;     // numeric value for Number
  unsigned Line = 0;
  unsigned Col = 0;
  TokKind K = TokKind::Eof;
  Keyword Kw = Keyword::None; // tag of an Ident token
};

/// Tokenizes \p Src completely; the tokens view \p Src, which must outlive
/// them.  On a lexical error the final token has kind Error (its Text is
/// the offending input) and \p Error, when given, receives the message;
/// otherwise the list ends in Eof.
std::vector<Token> tokenize(std::string_view Src, std::string *Error = nullptr);

/// Human-readable token-kind name for diagnostics.
const char *tokKindName(TokKind K);

/// The spelling of keyword \p K ("" for None).
std::string_view spelling(Keyword K);

} // namespace am

#endif // AM_PARSER_LEXER_H
