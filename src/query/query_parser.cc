#include "query/query_parser.h"

#include <utility>
#include <vector>

#include "query/query_lexer.h"

namespace adept {
namespace query {

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::vector<Token> tokens)
      : text_(text), tokens_(std::move(tokens)) {}

  Result<std::unique_ptr<Expr>> Run() {
    ADEPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr, ParseOr());
    if (Peek().kind != TokenKind::kEnd) {
      return Error(Peek().offset, "unexpected trailing input");
    }
    return expr;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Next() { return tokens_[pos_++]; }
  bool Accept(TokenKind kind) {
    if (Peek().kind != kind) return false;
    ++pos_;
    return true;
  }

  Status Error(size_t offset, const std::string& what) const {
    return QueryError(text_, offset, what);
  }

  Result<std::unique_ptr<Expr>> ParseOr() {
    ADEPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> first, ParseAnd());
    if (Peek().kind != TokenKind::kOrOr) return first;
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kOr;
    node->offset = first->offset;
    node->children.push_back(std::move(first));
    while (Accept(TokenKind::kOrOr)) {
      ADEPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> child, ParseAnd());
      node->children.push_back(std::move(child));
    }
    return std::unique_ptr<Expr>(std::move(node));
  }

  Result<std::unique_ptr<Expr>> ParseAnd() {
    ADEPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> first, ParseUnary());
    if (Peek().kind != TokenKind::kAndAnd) return first;
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kAnd;
    node->offset = first->offset;
    node->children.push_back(std::move(first));
    while (Accept(TokenKind::kAndAnd)) {
      ADEPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> child, ParseUnary());
      node->children.push_back(std::move(child));
    }
    return std::unique_ptr<Expr>(std::move(node));
  }

  Result<std::unique_ptr<Expr>> ParseUnary() {
    if (Peek().kind == TokenKind::kBang) {
      const size_t offset = Next().offset;
      ADEPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> child, ParseUnary());
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kNot;
      node->offset = offset;
      node->children.push_back(std::move(child));
      return std::unique_ptr<Expr>(std::move(node));
    }
    return ParsePrimary();
  }

  // 'activated' / 'running' / 'has': one quoted-string argument.
  // 'activated_since': a quoted name plus an integer sequence threshold.
  Result<std::unique_ptr<Expr>> ParseCall(const Token& name) {
    if (!Accept(TokenKind::kLParen)) {
      return Error(Peek().offset,
                   "expected '(' after '" + name.text + "'");
    }
    if (Peek().kind != TokenKind::kString) {
      return Error(Peek().offset,
                   "expected a quoted name in '" + name.text + "(...)'");
    }
    const Token& arg = Next();
    auto node = std::make_unique<Expr>();
    node->offset = name.offset;
    node->name = arg.text;
    if (name.text == "activated_since") {
      if (!Accept(TokenKind::kComma)) {
        return Error(Peek().offset,
                     "expected ',' and a sequence bound in "
                     "'activated_since(\"name\", k)'");
      }
      if (Peek().kind != TokenKind::kInt) {
        return Error(Peek().offset,
                     "expected an integer sequence bound in "
                     "'activated_since(\"name\", k)'");
      }
      node->kind = ExprKind::kActivatedSince;
      node->literal = Literal::Int(Next().int_value);
    } else if (name.text == "has") {
      node->kind = ExprKind::kHasData;
    } else {
      node->kind = ExprKind::kNodeIn;
      node->node_set =
          name.text == "activated" ? NodeSet::kActivated : NodeSet::kRunning;
    }
    if (!Accept(TokenKind::kRParen)) {
      return Error(Peek().offset, "expected ')'");
    }
    return std::unique_ptr<Expr>(std::move(node));
  }

  bool LookupField(const std::string& word, FieldKind* out) const {
    static const struct {
      const char* name;
      FieldKind field;
    } kFields[] = {
        {"id", FieldKind::kId},
        {"type", FieldKind::kType},
        {"schema", FieldKind::kSchema},
        {"schema_version", FieldKind::kSchemaVersion},
        {"state", FieldKind::kState},
        {"biased", FieldKind::kBiased},
        {"version", FieldKind::kVersion},
        {"trace_length", FieldKind::kTraceLength},
        {"completed_total", FieldKind::kCompletedTotal},
    };
    for (const auto& entry : kFields) {
      if (word == entry.name) {
        *out = entry.field;
        return true;
      }
    }
    return false;
  }

  bool LookupCompareOp(TokenKind kind, CompareOp* out) const {
    switch (kind) {
      case TokenKind::kEq:
        *out = CompareOp::kEq;
        return true;
      case TokenKind::kNe:
        *out = CompareOp::kNe;
        return true;
      case TokenKind::kLt:
        *out = CompareOp::kLt;
        return true;
      case TokenKind::kLe:
        *out = CompareOp::kLe;
        return true;
      case TokenKind::kGt:
        *out = CompareOp::kGt;
        return true;
      case TokenKind::kGe:
        *out = CompareOp::kGe;
        return true;
      default:
        return false;
    }
  }

  Result<Literal> ParseLiteral() {
    const Token& token = Peek();
    switch (token.kind) {
      case TokenKind::kInt:
        Next();
        return Literal::Int(token.int_value);
      case TokenKind::kDouble:
        Next();
        return Literal::Double(token.double_value);
      case TokenKind::kString:
        Next();
        return Literal::String(token.text);
      case TokenKind::kIdentifier:
        Next();
        if (token.text == "true") return Literal::Bool(true);
        if (token.text == "false") return Literal::Bool(false);
        // Bare word: string shorthand (state == running).
        return Literal::String(token.text);
      default:
        return Error(token.offset, "expected a literal value");
    }
  }

  Result<std::unique_ptr<Expr>> ParseComparison(const Token& head,
                                                FieldKind field,
                                                std::string data_name) {
    CompareOp op;
    if (!LookupCompareOp(Peek().kind, &op)) {
      // `biased` may stand alone as a boolean test.
      if (field == FieldKind::kBiased) {
        auto node = std::make_unique<Expr>();
        node->kind = ExprKind::kCompare;
        node->offset = head.offset;
        node->field = field;
        node->op = CompareOp::kEq;
        node->literal = Literal::Bool(true);
        return std::unique_ptr<Expr>(std::move(node));
      }
      return Error(Peek().offset, "expected a comparison operator");
    }
    Next();
    const size_t literal_offset = Peek().offset;
    ADEPT_ASSIGN_OR_RETURN(Literal literal, ParseLiteral());
    if (field == FieldKind::kState &&
        (op == CompareOp::kEq || op == CompareOp::kNe) &&
        (literal.type != Literal::Type::kString ||
         StateRankOfName(literal.string_value) < 0)) {
      return Error(literal_offset,
                   "state compares against 'created', 'running', or "
                   "'finished'");
    }
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kCompare;
    node->offset = head.offset;
    node->field = field;
    node->name = std::move(data_name);
    node->op = op;
    node->literal = std::move(literal);
    if (field == FieldKind::kState &&
        node->literal.type == Literal::Type::kString) {
      node->state_rank = StateRankOfName(node->literal.string_value);
    }
    return std::unique_ptr<Expr>(std::move(node));
  }

  Result<std::unique_ptr<Expr>> ParsePrimary() {
    const Token& token = Peek();
    if (Accept(TokenKind::kLParen)) {
      ADEPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr, ParseOr());
      if (!Accept(TokenKind::kRParen)) {
        return Error(Peek().offset, "expected ')'");
      }
      return expr;
    }
    if (token.kind != TokenKind::kIdentifier) {
      return Error(token.offset, "expected a predicate");
    }
    const Token head = Next();
    if (head.text == "true" || head.text == "false") {
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kConst;
      node->offset = head.offset;
      node->const_value = head.text == "true";
      return std::unique_ptr<Expr>(std::move(node));
    }
    if (head.text == "activated" || head.text == "running" ||
        head.text == "has" || head.text == "activated_since") {
      return ParseCall(head);
    }
    if (head.text == "data") {
      if (!Accept(TokenKind::kDot)) {
        return Error(Peek().offset, "expected '.' after 'data'");
      }
      if (Peek().kind != TokenKind::kIdentifier) {
        return Error(Peek().offset, "expected a data-element name");
      }
      const Token& field_name = Next();
      return ParseComparison(head, FieldKind::kData, field_name.text);
    }
    FieldKind field;
    if (!LookupField(head.text, &field)) {
      return Error(head.offset, "unknown field '" + head.text + "'");
    }
    return ParseComparison(head, field, "");
  }

  const std::string& text_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::unique_ptr<Expr>> Parse(const std::string& text) {
  ADEPT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  return Parser(text, std::move(tokens)).Run();
}

}  // namespace query
}  // namespace adept
