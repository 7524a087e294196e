//===- parser/Parser.cpp - Program parser implementation --------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"
#include "parser/Lexer.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

using namespace am;

namespace {

bool isKeyword(const Token &T) { return T.Kw != Keyword::None; }

/// Shared token-stream machinery for both parsers.
class ParserBase {
public:
  /// \p LexError is tokenize()'s message for a final Error token.
  ParserBase(std::vector<Token> Tokens, std::string LexError)
      : Toks(std::move(Tokens)) {
    if (Toks.back().K == TokKind::Error)
      fail(Toks.back(), std::move(LexError));
  }

  bool failed() const { return !Diag.empty(); }

protected:
  const Token &peek() const { return Toks[std::min(Pos, Toks.size() - 1)]; }

  const Token &peekAhead(size_t N) const {
    return Toks[std::min(Pos + N, Toks.size() - 1)];
  }

  const Token &advance() {
    const Token &T = peek();
    if (Pos + 1 < Toks.size())
      ++Pos;
    return T;
  }

  bool check(TokKind K) const { return peek().K == K; }

  bool accept(TokKind K) {
    if (!check(K))
      return false;
    advance();
    return true;
  }

  bool acceptIdent(Keyword Kw) {
    if (peek().Kw != Kw)
      return false;
    advance();
    return true;
  }

  bool expect(TokKind K, const char *What) {
    if (accept(K))
      return true;
    fail(peek(), std::string("expected ") + What + ", found " +
                     tokKindName(peek().K));
    return false;
  }

  bool expectIdent(Keyword Kw) {
    if (acceptIdent(Kw))
      return true;
    fail(peek(), "expected '" + std::string(spelling(Kw)) + "', found " +
                     describe(peek()));
    return false;
  }

  std::string describe(const Token &T) const {
    if (T.K == TokKind::Ident)
      return "'" + std::string(T.Text) + "'";
    return tokKindName(T.K);
  }

  /// Records the first failure only.
  void fail(const Token &At, std::string Msg) {
    if (!failed())
      Diag = diag::Diagnostic::error("parse", std::move(Msg), At.Line, At.Col);
  }

  /// \p R with the first failure, if any, as its error and diagnostic.
  ParseResult finish(ParseResult R) const {
    if (failed()) {
      R.Error = "line " + std::to_string(Diag.Line) + ":" +
                std::to_string(Diag.Col) + ": " + Diag.Message;
      R.Diag = Diag;
    }
    return R;
  }

  /// Parses an identifier that is a variable name (not a keyword).
  std::optional<std::string_view> parseVarName() {
    if (!check(TokKind::Ident)) {
      fail(peek(), "expected variable name, found " + describe(peek()));
      return std::nullopt;
    }
    if (isKeyword(peek())) {
      fail(peek(), "keyword '" + std::string(peek().Text) +
                       "' cannot name a variable");
      return std::nullopt;
    }
    return advance().Text;
  }

  /// operand := ident | number | '-' number
  std::optional<Operand> parseOperand(FlowGraph &G) {
    if (accept(TokKind::Minus)) {
      if (!check(TokKind::Number)) {
        fail(peek(), "expected number after unary '-'");
        return std::nullopt;
      }
      return Operand::imm(-advance().Value);
    }
    if (check(TokKind::Number))
      return Operand::imm(advance().Value);
    auto Name = parseVarName();
    if (!Name)
      return std::nullopt;
    return Operand::var(G.Vars.getOrCreate(*Name));
  }

  std::optional<OpCode> acceptBinOp() {
    if (accept(TokKind::Plus))
      return OpCode::Add;
    if (accept(TokKind::Minus))
      return OpCode::Sub;
    if (accept(TokKind::Star))
      return OpCode::Mul;
    if (accept(TokKind::Slash))
      return OpCode::Div;
    return std::nullopt;
  }

  /// term := operand (binop operand)?
  std::optional<Term> parseTerm(FlowGraph &G) {
    auto A = parseOperand(G);
    if (!A)
      return std::nullopt;
    // Unary-minus lookahead conflict: `a - 5` lexes Minus Number, which
    // parseOperand would not consume here; the binop path below handles it.
    if (auto Op = acceptBinOp()) {
      auto B = parseOperand(G);
      if (!B)
        return std::nullopt;
      return Term::binary(*Op, *A, *B);
    }
    return Term::atom(*A);
  }

  std::optional<RelOp> parseRelOp() {
    if (accept(TokKind::Lt))
      return RelOp::Lt;
    if (accept(TokKind::Le))
      return RelOp::Le;
    if (accept(TokKind::Gt))
      return RelOp::Gt;
    if (accept(TokKind::Ge))
      return RelOp::Ge;
    if (accept(TokKind::EqEq))
      return RelOp::Eq;
    if (accept(TokKind::Ne))
      return RelOp::Ne;
    fail(peek(), "expected relational operator, found " + describe(peek()));
    return std::nullopt;
  }

  /// out-args := '(' (var (',' var)*)? ')'
  std::optional<std::vector<VarId>> parseOutArgs(FlowGraph &G) {
    if (!expect(TokKind::LParen, "'('"))
      return std::nullopt;
    // Collected in a reused buffer, returned at their exact size.
    OutScratch.clear();
    if (!check(TokKind::RParen)) {
      do {
        auto Name = parseVarName();
        if (!Name)
          return std::nullopt;
        OutScratch.push_back(G.Vars.getOrCreate(*Name));
      } while (accept(TokKind::Comma));
    }
    if (!expect(TokKind::RParen, "')'"))
      return std::nullopt;
    return std::vector<VarId>(OutScratch.begin(), OutScratch.end());
  }

  std::vector<Token> Toks;
  std::vector<VarId> OutScratch;
  size_t Pos = 0;
  diag::Diagnostic Diag;
};

//===----------------------------------------------------------------------===//
// CFG syntax
//===----------------------------------------------------------------------===//

class CfgParser : ParserBase {
public:
  using ParserBase::ParserBase;

  ParseResult run() {
    ParseResult R;
    if (!failed())
      parseGraph(R.Graph);
    if (!failed())
      finalize(R.Graph);
    return finish(std::move(R));
  }

private:
  void parseGraph(FlowGraph &G) {
    if (!expectIdent(Keyword::Graph) || !expect(TokKind::LBrace, "'{'"))
      return;
    // Every ':' token ends a block label.
    size_t NumLabels = std::count_if(Toks.begin(), Toks.end(), [](auto &T) {
      return T.K == TokKind::Colon;
    });
    G.reserveBlocks(NumLabels);
    BlockIds.reserve(NumLabels);
    if (acceptIdent(Keyword::Temp)) {
      do {
        auto Name = parseVarName();
        if (!Name)
          return;
        TempNames.push_back(*Name);
      } while (accept(TokKind::Comma));
    }
    bool First = true;
    while (!check(TokKind::RBrace)) {
      if (check(TokKind::Eof)) {
        fail(peek(), "unterminated graph: expected '}'");
        return;
      }
      if (!parseBlock(G, First))
        return;
      First = false;
    }
    advance(); // consume '}'
    expect(TokKind::Eof, "end of input after '}'");
  }

  /// blockdef := name ':' instr* terminator
  ///
  /// Block ids follow definition order so print -> parse round-trips
  /// preserve the numbering; forward references are kept by name and
  /// resolved in finalize().
  bool parseBlock(FlowGraph &G, bool IsFirst) {
    if (!check(TokKind::Ident) || isKeyword(peek())) {
      fail(peek(), "expected block label, found " + describe(peek()));
      return false;
    }
    std::string_view Name = advance().Text;
    if (!expect(TokKind::Colon, "':' after block label"))
      return false;
    if (BlockIds.count(Name)) {
      fail(peek(), "block '" + std::string(Name) + "' defined twice");
      return false;
    }
    BlockId B = G.addBlock();
    BlockIds.emplace(Name, B);
    if (IsFirst)
      G.setStart(B);
    // Optional marker re-establishing edge-splitting provenance.
    if (acceptIdent(Keyword::Synthetic))
      G.block(B).Synthetic = true;

    while (true) {
      if (acceptIdent(Keyword::Goto))
        return parseBlockRef(B);
      if (acceptIdent(Keyword::Halt)) {
        if (G.end() != InvalidBlock) {
          fail(peek(), "multiple 'halt' blocks; the end node must be unique");
          return false;
        }
        G.setEnd(B);
        return true;
      }
      if (acceptIdent(Keyword::Br)) {
        // An identifier followed by ':' starts the next block's label, not
        // another branch target.
        size_t NumTargets = 0;
        for (; check(TokKind::Ident) && !isKeyword(peek()) &&
               peekAhead(1).K != TokKind::Colon;
             ++NumTargets)
          parseBlockRef(B);
        if (NumTargets < 2) {
          fail(peek(), "'br' needs at least two targets");
          return false;
        }
        return true;
      }
      if (acceptIdent(Keyword::If)) {
        auto L = parseTerm(G);
        if (!L)
          return false;
        auto Rel = parseRelOp();
        if (!Rel)
          return false;
        auto Rhs = parseTerm(G);
        if (!Rhs)
          return false;
        if (!expectIdent(Keyword::Then) || !parseBlockRef(B) ||
            !expectIdent(Keyword::Else) || !parseBlockRef(B))
          return false;
        G.block(B).Instrs.push_back(Instr::branch(*L, *Rel, *Rhs));
        return true;
      }
      if (acceptIdent(Keyword::Skip)) {
        G.block(B).Instrs.push_back(Instr::skip());
        continue;
      }
      if (acceptIdent(Keyword::Out)) {
        auto Args = parseOutArgs(G);
        if (!Args)
          return false;
        G.block(B).Instrs.push_back(Instr::out(std::move(*Args)));
        continue;
      }
      // Assignment: var ':=' term.
      auto Name = parseVarName();
      if (!Name)
        return false;
      if (!expect(TokKind::Assign, "':='"))
        return false;
      auto Rhs = parseTerm(G);
      if (!Rhs)
        return false;
      G.block(B).Instrs.push_back(Instr::assign(G.Vars.getOrCreate(*Name), *Rhs));
    }
  }

  /// Records an edge from \p From to the block named by the next token.
  bool parseBlockRef(BlockId From) {
    if (!check(TokKind::Ident) || isKeyword(peek())) {
      fail(peek(), "expected block name, found " + describe(peek()));
      return false;
    }
    PendingEdges.emplace_back(From, advance().Text);
    return true;
  }

  void finalize(FlowGraph &G) {
    for (const auto &[From, Target] : PendingEdges) {
      auto It = BlockIds.find(Target);
      if (It == BlockIds.end()) {
        fail(peek(), "block '" + std::string(Target) +
                         "' referenced but never defined");
        return;
      }
      G.addEdge(From, It->second);
    }
    if (G.end() == InvalidBlock) {
      fail(peek(), "no 'halt' block: the graph needs a unique end node");
      return;
    }
    // Restore temp-ness for declared temporaries, inferring the associated
    // expression pattern from the first initialization `h := <expr>`.
    for (std::string_view Name : TempNames) {
      VarId V = G.Vars.lookup(Name);
      if (!isValid(V)) {
        fail(peek(), "declared temp '" + std::string(Name) + "' never occurs");
        return;
      }
      ExprId E = ExprId::Invalid;
      for (BlockId B = 0; B < G.numBlocks() && !isValid(E); ++B)
        for (const Instr &I : G.block(B).Instrs)
          if (I.isAssign() && I.Lhs == V && I.Rhs.isNonTrivial()) {
            E = G.Exprs.intern(I.Rhs);
            break;
          }
      G.Vars.markTemp(V, E);
      if (isValid(E) && !isValid(G.Exprs.temporaryIfPresent(E)))
        G.Exprs.setTemporary(E, V);
    }
    for (const std::string &Problem : G.validate()) {
      fail(peek(), "invalid graph: " + Problem);
      return;
    }
  }

  std::unordered_map<std::string_view, BlockId> BlockIds;
  std::vector<std::pair<BlockId, std::string_view>> PendingEdges;
  std::vector<std::string_view> TempNames;
};

//===----------------------------------------------------------------------===//
// Structured language
//===----------------------------------------------------------------------===//

class StructuredParser : ParserBase {
public:
  using ParserBase::ParserBase;

private:
  /// Fresh decomposition variable (the `t` of the paper's Section 6
  /// 3-address decomposition).  Ordinary variables — subject to motion
  /// like any other assignment, which is exactly the Figure 18 story.
  VarId freshDecompVar(FlowGraph &G) {
    std::string Name;
    do {
      Name = "t$" + std::to_string(NumDecompVars++);
    } while (isValid(G.Vars.lookup(Name)));
    return G.Vars.getOrCreate(Name);
  }

  /// Recursion ceiling for nested expressions and statement blocks: deep
  /// enough for any sane program, shallow enough that adversarial nesting
  /// (ten thousand '('s) fails with a diagnostic instead of exhausting the
  /// stack.
  static constexpr unsigned MaxNesting = 256;
  unsigned Depth = 0;

  struct DepthGuard {
    unsigned &D;
    explicit DepthGuard(unsigned &D) : D(D) { ++D; }
    ~DepthGuard() { --D; }
  };

  /// Emits `Dst := T` into \p Cur and returns Dst as an operand.
  Operand spill(FlowGraph &G, BlockId Cur, const Term &T) {
    VarId Dst = freshDecompVar(G);
    G.block(Cur).Instrs.push_back(Instr::assign(Dst, T));
    return Operand::var(Dst);
  }

  /// atom := operand | '(' expr ')'.  Nested expressions are decomposed
  /// into fresh assignments appended to \p Cur.
  std::optional<Operand> parseAtom(FlowGraph &G, BlockId Cur) {
    if (accept(TokKind::LParen)) {
      DepthGuard Guard(Depth);
      if (Depth > MaxNesting) {
        fail(peek(), "expression nesting too deep (limit " +
                         std::to_string(MaxNesting) + ")");
        return std::nullopt;
      }
      auto T = parseExpr(G, Cur);
      if (!T || !expect(TokKind::RParen, "')'"))
        return std::nullopt;
      if (!T->isNonTrivial())
        return T->A;
      return spill(G, Cur, *T);
    }
    return parseOperand(G);
  }

  /// mulexpr := atom (('*' | '/') atom)*
  std::optional<Term> parseMulExpr(FlowGraph &G, BlockId Cur) {
    auto Lhs = parseAtom(G, Cur);
    if (!Lhs)
      return std::nullopt;
    Term Result = Term::atom(*Lhs);
    while (check(TokKind::Star) || check(TokKind::Slash)) {
      OpCode Op = accept(TokKind::Star) ? OpCode::Mul
                                        : (advance(), OpCode::Div);
      auto Rhs = parseAtom(G, Cur);
      if (!Rhs)
        return std::nullopt;
      Operand A = Result.isNonTrivial() ? spill(G, Cur, Result) : Result.A;
      Result = Term::binary(Op, A, *Rhs);
    }
    return Result;
  }

  /// expr := mulexpr (('+' | '-') mulexpr)*  — left-associative, three-
  /// address decomposed on the fly (`a + b + c` emits `t$0 := a + b` and
  /// yields `t$0 + c`, the paper's Figure 18(b) shape).
  std::optional<Term> parseExpr(FlowGraph &G, BlockId Cur) {
    auto Lhs = parseMulExpr(G, Cur);
    if (!Lhs)
      return std::nullopt;
    Term Result = *Lhs;
    while (check(TokKind::Plus) || check(TokKind::Minus)) {
      OpCode Op = accept(TokKind::Plus) ? OpCode::Add
                                        : (advance(), OpCode::Sub);
      auto RhsTerm = parseMulExpr(G, Cur);
      if (!RhsTerm)
        return std::nullopt;
      Operand A = Result.isNonTrivial() ? spill(G, Cur, Result) : Result.A;
      Operand B = RhsTerm->isNonTrivial() ? spill(G, Cur, *RhsTerm)
                                          : RhsTerm->A;
      Result = Term::binary(Op, A, B);
    }
    return Result;
  }

  unsigned NumDecompVars = 0;

public:

  ParseResult run() {
    ParseResult R;
    FlowGraph &G = R.Graph;
    // `$` spells the decomposition variables only (freshDecompVar), so
    // no source name can collide with one.
    for (const Token &T : Toks)
      if (T.K == TokKind::Ident && T.Text.find('$') != std::string_view::npos) {
        fail(T, "'" + std::string(T.Text) +
                    "': '$' is reserved for decomposition variables");
        break;
      }
    if (!failed()) {
      if (expectIdent(Keyword::Program) && expect(TokKind::LBrace, "'{'")) {
        BlockId Start = G.addBlock();
        G.setStart(Start);
        BlockId Tail = parseStmtList(G, Start, TokKind::RBrace);
        if (!failed()) {
          if (expect(TokKind::RBrace, "'}'"))
            expect(TokKind::Eof, "end of input after '}'");
          G.setEnd(Tail);
        }
      }
    }
    if (!failed())
      for (const std::string &Problem : G.validate()) {
        fail(peek(), "invalid graph: " + Problem);
        break;
      }
    return finish(std::move(R));
  }

private:
  /// Parses statements, appending to \p Cur, until \p Stop; returns the
  /// block control flow falls out of.
  BlockId parseStmtList(FlowGraph &G, BlockId Cur, TokKind Stop) {
    while (!check(Stop)) {
      if (check(TokKind::Eof)) {
        fail(peek(), "unexpected end of input in statement list");
        return Cur;
      }
      Cur = parseStmt(G, Cur);
      if (failed())
        return Cur;
    }
    return Cur;
  }

  BlockId parseStmt(FlowGraph &G, BlockId Cur) {
    DepthGuard Guard(Depth);
    if (Depth > MaxNesting) {
      fail(peek(), "statement nesting too deep (limit " +
                       std::to_string(MaxNesting) + ")");
      return Cur;
    }
    if (acceptIdent(Keyword::Skip)) {
      expect(TokKind::Semi, "';'");
      G.block(Cur).Instrs.push_back(Instr::skip());
      return Cur;
    }
    if (acceptIdent(Keyword::Out)) {
      auto Args = parseOutArgs(G);
      if (!Args)
        return Cur;
      expect(TokKind::Semi, "';'");
      G.block(Cur).Instrs.push_back(Instr::out(std::move(*Args)));
      return Cur;
    }
    if (acceptIdent(Keyword::If))
      return parseIf(G, Cur);
    if (acceptIdent(Keyword::While))
      return parseWhile(G, Cur);
    if (acceptIdent(Keyword::Repeat))
      return parseRepeat(G, Cur);
    if (acceptIdent(Keyword::Choose))
      return parseChoose(G, Cur);

    // Assignment; nested right-hand sides are decomposed into 3-address
    // form on the fly.
    auto Name = parseVarName();
    if (!Name)
      return Cur;
    if (!expect(TokKind::Assign, "':='"))
      return Cur;
    auto Rhs = parseExpr(G, Cur);
    if (!Rhs)
      return Cur;
    expect(TokKind::Semi, "';'");
    G.block(Cur).Instrs.push_back(
        Instr::assign(G.Vars.getOrCreate(*Name), *Rhs));
    return Cur;
  }

  /// cond := '(' expr relop expr ')', appended to \p Cur as a branch.
  bool parseCondInto(FlowGraph &G, BlockId Cur) {
    if (!expect(TokKind::LParen, "'('"))
      return false;
    auto L = parseExpr(G, Cur);
    if (!L)
      return false;
    auto Rel = parseRelOp();
    if (!Rel)
      return false;
    auto R = parseExpr(G, Cur);
    if (!R)
      return false;
    if (!expect(TokKind::RParen, "')'"))
      return false;
    G.block(Cur).Instrs.push_back(Instr::branch(*L, *Rel, *R));
    return true;
  }

  /// Parses '{' stmt* '}' into a fresh block; returns (entry, fallout).
  std::optional<std::pair<BlockId, BlockId>> parseBracedBody(FlowGraph &G) {
    if (!expect(TokKind::LBrace, "'{'"))
      return std::nullopt;
    BlockId Entry = G.addBlock();
    BlockId Tail = parseStmtList(G, Entry, TokKind::RBrace);
    if (failed())
      return std::nullopt;
    expect(TokKind::RBrace, "'}'");
    return std::make_pair(Entry, Tail);
  }

  BlockId parseIf(FlowGraph &G, BlockId Cur) {
    if (!parseCondInto(G, Cur))
      return Cur;
    auto Then = parseBracedBody(G);
    if (!Then)
      return Cur;
    BlockId Join = G.addBlock();
    G.addEdge(Cur, Then->first);
    G.addEdge(Then->second, Join);
    if (acceptIdent(Keyword::Else)) {
      auto Else = parseBracedBody(G);
      if (!Else)
        return Cur;
      G.addEdge(Cur, Else->first);
      G.addEdge(Else->second, Join);
    } else {
      // No else: the false edge is Cur -> Join, which is critical whenever
      // Join has another predecessor; transformations split it later.
      G.addEdge(Cur, Join);
    }
    return Join;
  }

  BlockId parseWhile(FlowGraph &G, BlockId Cur) {
    BlockId Header = G.addBlock();
    G.addEdge(Cur, Header);
    if (!parseCondInto(G, Header))
      return Cur;
    auto Body = parseBracedBody(G);
    if (!Body)
      return Cur;
    BlockId Exit = G.addBlock();
    G.addEdge(Header, Body->first);
    G.addEdge(Header, Exit);
    G.addEdge(Body->second, Header);
    return Exit;
  }

  /// repeat { body } until (cond);  — the body runs at least once, which
  /// makes loop-invariant motion out of the body admissible (down-safe).
  BlockId parseRepeat(FlowGraph &G, BlockId Cur) {
    auto Body = parseBracedBody(G);
    if (!Body)
      return Cur;
    G.addEdge(Cur, Body->first);
    if (!expectIdent(Keyword::Until))
      return Cur;
    if (!parseCondInto(G, Body->second))
      return Cur;
    expect(TokKind::Semi, "';'");
    BlockId Exit = G.addBlock();
    G.addEdge(Body->second, Exit);        // condition true: leave the loop
    G.addEdge(Body->second, Body->first); // condition false: iterate again
    return Exit;
  }

  BlockId parseChoose(FlowGraph &G, BlockId Cur) {
    BlockId Join = G.addBlock();
    unsigned NumAlts = 0;
    do {
      auto Alt = parseBracedBody(G);
      if (!Alt)
        return Cur;
      G.addEdge(Cur, Alt->first);
      G.addEdge(Alt->second, Join);
      ++NumAlts;
    } while (acceptIdent(Keyword::Or));
    if (NumAlts < 2)
      fail(peek(), "'choose' needs at least two alternatives ('or { ... }')");
    return Join;
  }
};

/// Lexes \p Src once and runs parser \p P over the tokens.
template <typename P> ParseResult parseWith(std::string_view Src) {
  std::string LexError;
  std::vector<Token> Toks = tokenize(Src, &LexError);
  return P(std::move(Toks), std::move(LexError)).run();
}

} // namespace

ParseResult am::parseCfg(std::string_view Src) {
  return parseWith<CfgParser>(Src);
}

ParseResult am::parseStructured(std::string_view Src) {
  return parseWith<StructuredParser>(Src);
}

ParseResult am::parseProgram(std::string_view Src) {
  // Dispatch on the first word without lexing twice.
  std::string LexError;
  std::vector<Token> Toks = tokenize(Src, &LexError);
  if (Toks.front().Kw == Keyword::Program)
    return StructuredParser(std::move(Toks), std::move(LexError)).run();
  return CfgParser(std::move(Toks), std::move(LexError)).run();
}
