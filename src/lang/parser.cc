#include "lang/parser.h"

#include <utility>

#include "lang/lexer.h"

namespace sysds {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<DMLProgram> ParseProgram() {
    DMLProgram prog;
    SkipSeparators();
    while (!Check(TokenType::kEof)) {
      SYSDS_ASSIGN_OR_RETURN(StmtPtr stmt, ParseStatement());
      if (stmt->kind == StmtKind::kFunctionDef) {
        prog.functions.push_back(std::move(stmt));
      } else {
        prog.statements.push_back(std::move(stmt));
      }
      SkipSeparators();
    }
    return prog;
  }

 private:
  const Token& Peek(int ahead = 0) const {
    size_t i = pos_ + static_cast<size_t>(ahead);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Check(TokenType t) const { return Peek().type == t; }
  bool Match(TokenType t) {
    if (Check(t)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Err(const std::string& msg) const {
    const Token& t = Peek();
    return ParseError(msg + " at line " + std::to_string(t.line) + ":" +
                      std::to_string(t.col) + " (got '" +
                      (t.type == TokenType::kEof ? "<eof>" : t.text) + "')");
  }
  Status Expect(TokenType t, const std::string& what) {
    if (!Match(t)) return Err("expected " + what);
    return Status::Ok();
  }
  void SkipSeparators() {
    while (Check(TokenType::kNewline) || Check(TokenType::kSemicolon)) {
      ++pos_;
    }
  }
  void SkipNewlines() {
    while (Check(TokenType::kNewline)) ++pos_;
  }

  // ---- Statements ----

  StatusOr<StmtPtr> ParseStatement() {
    switch (Peek().type) {
      case TokenType::kIf: return ParseIf();
      case TokenType::kWhile: return ParseWhile();
      case TokenType::kFor: return ParseFor(/*parfor=*/false);
      case TokenType::kParFor: return ParseFor(/*parfor=*/true);
      case TokenType::kLBracket: return ParseMultiAssign();
      default: break;
    }
    // Function definition: IDENT = function(...)
    if (Check(TokenType::kIdentifier) &&
        (Peek(1).type == TokenType::kAssign ||
         Peek(1).type == TokenType::kLeftArrow) &&
        Peek(2).type == TokenType::kFunction) {
      return ParseFunctionDef();
    }
    // Assignment (plain or indexed lhs) vs. expression statement.
    if (Check(TokenType::kIdentifier)) {
      size_t save = pos_;
      Token ident = Advance();
      ExprPtr index;
      if (Check(TokenType::kLBracket)) {
        ExprPtr base = MakeIdentifier(ident.text, ident.line, ident.col);
        auto idx = ParseIndexSuffix(std::move(base));
        if (!idx.ok()) return idx.status();
        index = std::move(idx).value();
      }
      if (Check(TokenType::kAssign) || Check(TokenType::kLeftArrow)) {
        Advance();
        SkipNewlines();
        SYSDS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseExpr());
        auto stmt = std::make_unique<Stmt>();
        stmt->kind = StmtKind::kAssign;
        stmt->line = ident.line;
        stmt->col = ident.col;
        AssignTarget target;
        target.name = ident.text;
        target.index = std::move(index);
        stmt->targets.push_back(std::move(target));
        stmt->rhs = std::move(rhs);
        SYSDS_RETURN_IF_ERROR(EndOfStatement());
        return stmt;
      }
      pos_ = save;  // not an assignment; reparse as expression
    }
    SYSDS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kExpression;
    stmt->line = e->line;
    stmt->col = e->col;
    stmt->expr = std::move(e);
    SYSDS_RETURN_IF_ERROR(EndOfStatement());
    return stmt;
  }

  Status EndOfStatement() {
    if (Check(TokenType::kNewline) || Check(TokenType::kSemicolon) ||
        Check(TokenType::kEof) || Check(TokenType::kRBrace)) {
      return Status::Ok();
    }
    return Err("expected end of statement");
  }

  StatusOr<StmtPtr> ParseMultiAssign() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kAssign;
    stmt->line = Peek().line;
    stmt->col = Peek().col;
    SYSDS_RETURN_IF_ERROR(Expect(TokenType::kLBracket, "'['"));
    for (;;) {
      SkipNewlines();
      if (!Check(TokenType::kIdentifier)) return Err("expected variable name");
      Token ident = Advance();
      AssignTarget target;
      target.name = ident.text;
      stmt->targets.push_back(std::move(target));
      SkipNewlines();
      if (Match(TokenType::kComma)) continue;
      break;
    }
    SYSDS_RETURN_IF_ERROR(Expect(TokenType::kRBracket, "']'"));
    if (!Match(TokenType::kAssign) && !Match(TokenType::kLeftArrow)) {
      return Err("expected '=' after multi-assignment targets");
    }
    SkipNewlines();
    SYSDS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseExpr());
    stmt->rhs = std::move(rhs);
    SYSDS_RETURN_IF_ERROR(EndOfStatement());
    return stmt;
  }

  StatusOr<std::vector<StmtPtr>> ParseBlock() {
    std::vector<StmtPtr> body;
    SkipNewlines();
    if (Match(TokenType::kLBrace)) {
      SkipSeparators();
      while (!Check(TokenType::kRBrace)) {
        if (Check(TokenType::kEof)) return Err("unterminated block");
        SYSDS_ASSIGN_OR_RETURN(StmtPtr s, ParseStatement());
        body.push_back(std::move(s));
        SkipSeparators();
      }
      Advance();  // '}'
    } else {
      SYSDS_ASSIGN_OR_RETURN(StmtPtr s, ParseStatement());
      body.push_back(std::move(s));
    }
    return body;
  }

  StatusOr<StmtPtr> ParseIf() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kIf;
    stmt->line = Peek().line;
    stmt->col = Peek().col;
    Advance();  // 'if'
    SYSDS_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'(' after if"));
    SYSDS_ASSIGN_OR_RETURN(stmt->predicate, ParseExpr());
    SYSDS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')' after predicate"));
    SYSDS_ASSIGN_OR_RETURN(stmt->body, ParseBlock());
    size_t save = pos_;
    SkipSeparators();
    if (Match(TokenType::kElse)) {
      if (Check(TokenType::kIf)) {
        SYSDS_ASSIGN_OR_RETURN(StmtPtr elif, ParseIf());
        stmt->else_body.push_back(std::move(elif));
      } else {
        SYSDS_ASSIGN_OR_RETURN(stmt->else_body, ParseBlock());
      }
    } else {
      pos_ = save;
    }
    return stmt;
  }

  StatusOr<StmtPtr> ParseWhile() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kWhile;
    stmt->line = Peek().line;
    stmt->col = Peek().col;
    Advance();  // 'while'
    SYSDS_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'(' after while"));
    SYSDS_ASSIGN_OR_RETURN(stmt->predicate, ParseExpr());
    SYSDS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')' after predicate"));
    SYSDS_ASSIGN_OR_RETURN(stmt->body, ParseBlock());
    return stmt;
  }

  StatusOr<StmtPtr> ParseFor(bool parfor) {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kFor;
    stmt->is_parfor = parfor;
    stmt->line = Peek().line;
    stmt->col = Peek().col;
    Advance();  // 'for'/'parfor'
    SYSDS_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'(' after for"));
    if (!Check(TokenType::kIdentifier)) return Err("expected loop variable");
    stmt->loop_var = Advance().text;
    SYSDS_RETURN_IF_ERROR(Expect(TokenType::kIn, "'in'"));
    SYSDS_ASSIGN_OR_RETURN(ExprPtr iterable, ParseExpr());
    // Accept `a:b` ranges and seq(from, to[, incr]) calls.
    if (iterable->kind == ExprKind::kBinary && iterable->name == ":") {
      stmt->from = std::move(iterable->args[0]);
      stmt->to = std::move(iterable->args[1]);
      stmt->increment = MakeIntLiteral(1, stmt->line, stmt->col);
    } else if (iterable->kind == ExprKind::kCall && iterable->name == "seq") {
      if (iterable->args.size() < 2 || iterable->args.size() > 3) {
        return Err("for: seq requires 2 or 3 arguments");
      }
      stmt->from = std::move(iterable->args[0]);
      stmt->to = std::move(iterable->args[1]);
      stmt->increment = iterable->args.size() == 3
                            ? std::move(iterable->args[2])
                            : MakeIntLiteral(1, stmt->line, stmt->col);
    } else {
      return Err("for: iterable must be a range a:b or seq(...)");
    }
    SYSDS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')' after iterable"));
    SYSDS_ASSIGN_OR_RETURN(stmt->body, ParseBlock());
    return stmt;
  }

  StatusOr<FunctionParam> ParseTypedParam() {
    // Forms: Matrix[Double] X [= default] | Double x [= default] | x
    FunctionParam p;
    if (!Check(TokenType::kIdentifier)) return Err("expected parameter");
    Token first = Advance();
    if (Check(TokenType::kLBracket)) {
      // Matrix[Double] / Frame[String] / List[...]
      std::string dt = first.text;
      Advance();  // '['
      if (!Check(TokenType::kIdentifier)) return Err("expected value type");
      p.value_type = ParseValueType(Advance().text);
      SYSDS_RETURN_IF_ERROR(Expect(TokenType::kRBracket, "']'"));
      if (dt == "Matrix" || dt == "matrix") p.data_type = DataType::kMatrix;
      else if (dt == "Frame" || dt == "frame") p.data_type = DataType::kFrame;
      else if (dt == "List" || dt == "list") p.data_type = DataType::kList;
      else return Err("unknown data type '" + dt + "'");
      if (!Check(TokenType::kIdentifier)) return Err("expected parameter name");
      p.name = Advance().text;
    } else if (Check(TokenType::kIdentifier)) {
      // Scalar type followed by name: Double x / Integer n / ...
      p.data_type = DataType::kScalar;
      ValueType vt = ParseValueType(first.text);
      if (vt == ValueType::kUnknown) {
        return Err("unknown scalar type '" + first.text + "'");
      }
      p.value_type = vt;
      p.name = Advance().text;
    } else {
      // Untyped (defaults to scalar double).
      p.data_type = DataType::kScalar;
      p.name = first.text;
    }
    if (Match(TokenType::kAssign)) {
      SYSDS_ASSIGN_OR_RETURN(p.default_value, ParseExpr());
    }
    return p;
  }

  StatusOr<StmtPtr> ParseFunctionDef() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kFunctionDef;
    stmt->line = Peek().line;
    stmt->col = Peek().col;
    stmt->function_name = Advance().text;  // IDENT
    Advance();                             // '='
    Advance();                             // 'function'
    SYSDS_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'(' after function"));
    SkipNewlines();
    if (!Check(TokenType::kRParen)) {
      for (;;) {
        SkipNewlines();
        SYSDS_ASSIGN_OR_RETURN(FunctionParam p, ParseTypedParam());
        stmt->params.push_back(std::move(p));
        SkipNewlines();
        if (Match(TokenType::kComma)) continue;
        break;
      }
    }
    SYSDS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')' after parameters"));
    SkipNewlines();
    if (Match(TokenType::kReturn)) {
      SYSDS_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'(' after return"));
      SkipNewlines();
      if (!Check(TokenType::kRParen)) {
        for (;;) {
          SkipNewlines();
          SYSDS_ASSIGN_OR_RETURN(FunctionParam p, ParseTypedParam());
          stmt->returns.push_back(std::move(p));
          SkipNewlines();
          if (Match(TokenType::kComma)) continue;
          break;
        }
      }
      SYSDS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')' after returns"));
    }
    SYSDS_ASSIGN_OR_RETURN(stmt->body, ParseBlock());
    return stmt;
  }

  // ---- Expressions (precedence climbing) ----

  StatusOr<ExprPtr> ParseExpr() { return ParseOr(); }

  StatusOr<ExprPtr> ParseOr() {
    SYSDS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (Check(TokenType::kOr)) {
      Advance();
      SkipNewlines();
      SYSDS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = MakeBinary("|", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  StatusOr<ExprPtr> ParseAnd() {
    SYSDS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (Check(TokenType::kAnd)) {
      Advance();
      SkipNewlines();
      SYSDS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = MakeBinary("&", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  StatusOr<ExprPtr> ParseNot() {
    if (Check(TokenType::kNot)) {
      Advance();
      SYSDS_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return MakeUnary("!", std::move(operand));
    }
    return ParseComparison();
  }

  StatusOr<ExprPtr> ParseComparison() {
    SYSDS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseRange());
    for (;;) {
      std::string op;
      switch (Peek().type) {
        case TokenType::kEq: op = "=="; break;
        case TokenType::kNeq: op = "!="; break;
        case TokenType::kLt: op = "<"; break;
        case TokenType::kLe: op = "<="; break;
        case TokenType::kGt: op = ">"; break;
        case TokenType::kGe: op = ">="; break;
        default: return lhs;
      }
      Advance();
      SkipNewlines();
      SYSDS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseRange());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
  }

  StatusOr<ExprPtr> ParseRange() {
    SYSDS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    if (Check(TokenType::kColon)) {
      Advance();
      SkipNewlines();
      SYSDS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      return MakeBinary(":", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  StatusOr<ExprPtr> ParseAdditive() {
    SYSDS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    for (;;) {
      std::string op;
      if (Check(TokenType::kPlus)) op = "+";
      else if (Check(TokenType::kMinus)) op = "-";
      else return lhs;
      Advance();
      SkipNewlines();
      SYSDS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
  }

  StatusOr<ExprPtr> ParseMultiplicative() {
    SYSDS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseSpecial());
    for (;;) {
      std::string op;
      if (Check(TokenType::kMul)) op = "*";
      else if (Check(TokenType::kDiv)) op = "/";
      else return lhs;
      Advance();
      SkipNewlines();
      SYSDS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseSpecial());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
  }

  StatusOr<ExprPtr> ParseSpecial() {
    SYSDS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    for (;;) {
      std::string op;
      if (Check(TokenType::kMatMul)) op = "%*%";
      else if (Check(TokenType::kModulus)) op = "%%";
      else if (Check(TokenType::kIntDiv)) op = "%/%";
      else return lhs;
      Advance();
      SkipNewlines();
      SYSDS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
  }

  StatusOr<ExprPtr> ParseUnary() {
    if (Check(TokenType::kMinus)) {
      Advance();
      SYSDS_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return MakeUnary("-", std::move(operand));
    }
    if (Check(TokenType::kPlus)) {
      Advance();
      return ParseUnary();
    }
    return ParsePower();
  }

  StatusOr<ExprPtr> ParsePower() {
    SYSDS_ASSIGN_OR_RETURN(ExprPtr lhs, ParsePostfix());
    if (Check(TokenType::kPow)) {
      Advance();
      SkipNewlines();
      // Right-associative; exponent may carry a unary minus (2^-1).
      SYSDS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      return MakeBinary("^", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  StatusOr<ExprPtr> ParsePostfix() {
    SYSDS_ASSIGN_OR_RETURN(ExprPtr e, ParsePrimary());
    for (;;) {
      if (Check(TokenType::kLBracket)) {
        SYSDS_ASSIGN_OR_RETURN(e, ParseIndexSuffix(std::move(e)));
        continue;
      }
      return e;
    }
  }

  StatusOr<ExprPtr> ParseIndexSuffix(ExprPtr target) {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kIndex;
    e->line = Peek().line;
    e->col = Peek().col;
    e->target = std::move(target);
    Advance();  // '['
    // Row spec (may be empty for X[, c]).
    if (!Check(TokenType::kComma) && !Check(TokenType::kRBracket)) {
      SYSDS_ASSIGN_OR_RETURN(ExprPtr rows, ParseExpr());
      if (rows->kind == ExprKind::kBinary && rows->name == ":") {
        e->row_lower = std::move(rows->args[0]);
        e->row_upper = std::move(rows->args[1]);
        e->has_row_range = true;
      } else {
        e->row_lower = std::move(rows);
      }
    }
    if (Match(TokenType::kComma)) {
      if (!Check(TokenType::kRBracket)) {
        SYSDS_ASSIGN_OR_RETURN(ExprPtr cols, ParseExpr());
        if (cols->kind == ExprKind::kBinary && cols->name == ":") {
          e->col_lower = std::move(cols->args[0]);
          e->col_upper = std::move(cols->args[1]);
          e->has_col_range = true;
        } else {
          e->col_lower = std::move(cols);
        }
      }
    }
    SYSDS_RETURN_IF_ERROR(Expect(TokenType::kRBracket, "']'"));
    return e;
  }

  StatusOr<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kIntLiteral: {
        Advance();
        return MakeIntLiteral(t.int_value, t.line, t.col);
      }
      case TokenType::kDoubleLiteral: {
        Advance();
        return MakeDoubleLiteral(t.double_value, t.line, t.col);
      }
      case TokenType::kStringLiteral: {
        Advance();
        return MakeStringLiteral(t.text, t.line, t.col);
      }
      case TokenType::kTrue: {
        Advance();
        return MakeBoolLiteral(true, t.line, t.col);
      }
      case TokenType::kFalse: {
        Advance();
        return MakeBoolLiteral(false, t.line, t.col);
      }
      case TokenType::kLParen: {
        Advance();
        SkipNewlines();
        SYSDS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        SkipNewlines();
        SYSDS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        return e;
      }
      case TokenType::kIdentifier: {
        Token ident = Advance();
        if (Check(TokenType::kLParen)) {
          return ParseCall(ident);
        }
        return MakeIdentifier(ident.text, ident.line, ident.col);
      }
      default:
        return Err("expected expression");
    }
  }

  StatusOr<ExprPtr> ParseCall(const Token& name) {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kCall;
    e->name = name.text;
    e->line = name.line;
    e->col = name.col;
    Advance();  // '('
    SkipNewlines();
    if (!Check(TokenType::kRParen)) {
      for (;;) {
        SkipNewlines();
        std::string arg_name;
        if (Check(TokenType::kIdentifier) &&
            Peek(1).type == TokenType::kAssign) {
          arg_name = Advance().text;
          Advance();  // '='
          SkipNewlines();
        }
        SYSDS_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
        e->args.push_back(std::move(arg));
        e->arg_names.push_back(arg_name);
        SkipNewlines();
        if (Match(TokenType::kComma)) continue;
        break;
      }
    }
    SYSDS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')' after arguments"));
    return e;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<DMLProgram> ParseDML(const std::string& source) {
  SYSDS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return Parser(std::move(tokens)).ParseProgram();
}

}  // namespace sysds
