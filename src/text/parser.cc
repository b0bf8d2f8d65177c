#include "text/parser.h"

#include <cctype>
#include <deque>
#include <string>
#include <vector>

#include "relational/builder.h"

namespace setrec {

namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class TokenKind {
  kIdentifier,
  kInteger,
  kLParen,    // (
  kRParen,    // )
  kLBracket,  // [
  kRBracket,  // ]
  kLBrace,    // {
  kRBrace,    // }
  kComma,
  kSemicolon,
  kColon,
  kArrow,     // ->
  kAssign,    // :=
  kEquals,    // =
  kNotEquals, // !=
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  int line;
  int column;
};

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kInteger: return "integer";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBracket: return "'['";
    case TokenKind::kRBracket: return "']'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kComma: return "','";
    case TokenKind::kSemicolon: return "';'";
    case TokenKind::kColon: return "':'";
    case TokenKind::kArrow: return "'->'";
    case TokenKind::kAssign: return "':='";
    case TokenKind::kEquals: return "'='";
    case TokenKind::kNotEquals: return "'!='";
    case TokenKind::kEnd: return "end of input";
  }
  return "token";
}

/// The whole text's tokens. A deque, not a vector: a snapshot of a 25k-object
/// instance lexes into about half a million tokens, and a vector's last
/// doubling would hold both its old and its new buffer, so recovery's peak
/// memory would step up by tens of MB each time the token count passed a
/// power of two.
Result<std::deque<Token>> Lex(std::string_view text) {
  std::deque<Token> tokens;
  int line = 1, column = 1;
  std::size_t i = 0;
  auto advance = [&](std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
      if (i < text.size() && text[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
      ++i;
    }
  };
  while (i < text.size()) {
    const char c = text[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance(1);
      continue;
    }
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      while (i < text.size() && text[i] != '\n') advance(1);
      continue;
    }
    const int tok_line = line, tok_col = column;
    auto push = [&](TokenKind kind, std::string tok_text, std::size_t len) {
      tokens.push_back(Token{kind, std::move(tok_text), tok_line, tok_col});
      advance(len);
    };
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[j])) ||
              text[j] == '_' || text[j] == '\'')) {
        ++j;
      }
      push(TokenKind::kIdentifier, std::string(text.substr(i, j - i)), j - i);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      while (j < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[j]))) {
        ++j;
      }
      push(TokenKind::kInteger, std::string(text.substr(i, j - i)), j - i);
      continue;
    }
    if (c == '-' && i + 1 < text.size() && text[i + 1] == '>') {
      push(TokenKind::kArrow, "->", 2);
      continue;
    }
    if (c == ':' && i + 1 < text.size() && text[i + 1] == '=') {
      push(TokenKind::kAssign, ":=", 2);
      continue;
    }
    if (c == '!' && i + 1 < text.size() && text[i + 1] == '=') {
      push(TokenKind::kNotEquals, "!=", 2);
      continue;
    }
    switch (c) {
      case '(': push(TokenKind::kLParen, "(", 1); continue;
      case ')': push(TokenKind::kRParen, ")", 1); continue;
      case '[': push(TokenKind::kLBracket, "[", 1); continue;
      case ']': push(TokenKind::kRBracket, "]", 1); continue;
      case '{': push(TokenKind::kLBrace, "{", 1); continue;
      case '}': push(TokenKind::kRBrace, "}", 1); continue;
      case ',': push(TokenKind::kComma, ",", 1); continue;
      case ';': push(TokenKind::kSemicolon, ";", 1); continue;
      case ':': push(TokenKind::kColon, ":", 1); continue;
      case '=': push(TokenKind::kEquals, "=", 1); continue;
      default:
        return Status::InvalidArgument(
            "unexpected character '" + std::string(1, c) + "' at " +
            std::to_string(line) + ":" + std::to_string(column));
    }
  }
  tokens.push_back(Token{TokenKind::kEnd, "", line, column});
  return tokens;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::deque<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek() const { return tokens_[pos_]; }
  bool At(TokenKind kind) const { return Peek().kind == kind; }
  bool AtKeyword(std::string_view word) const {
    return At(TokenKind::kIdentifier) && Peek().text == word;
  }
  /// Never advances past the sentinel kEnd token, so Peek() stays valid no
  /// matter how a caller mixes Take/Expect on truncated input.
  Token Take() {
    Token t = tokens_[pos_];
    if (t.kind != TokenKind::kEnd) ++pos_;
    return t;
  }

  Status Error(const std::string& what) const {
    const Token& t = Peek();
    return Status::InvalidArgument(
        what + " at " + std::to_string(t.line) + ":" +
        std::to_string(t.column) + " (found " +
        (t.kind == TokenKind::kIdentifier || t.kind == TokenKind::kInteger
             ? "'" + t.text + "'"
             : TokenKindName(t.kind)) +
        ")");
  }

  Result<Token> Expect(TokenKind kind) {
    if (!At(kind)) {
      return Error(std::string("expected ") + TokenKindName(kind));
    }
    return Take();
  }

  Status ExpectKeyword(std::string_view word) {
    if (!AtKeyword(word)) {
      return Error("expected '" + std::string(word) + "'");
    }
    Take();
    return Status::OK();
  }

  Result<std::string> Identifier(const char* what) {
    if (!At(TokenKind::kIdentifier)) {
      return Error(std::string("expected ") + what);
    }
    return Take().text;
  }

  /// Overflow-checked: a literal that does not fit uint32 is a parse error,
  /// not an exception or a silent wrap (std::stoul throws on huge input).
  Result<std::uint32_t> Integer() {
    if (!At(TokenKind::kInteger)) {
      return Error("expected integer");
    }
    Token t = Take();
    std::uint64_t value = 0;
    for (char c : t.text) {
      value = value * 10 + static_cast<std::uint64_t>(c - '0');
      if (value > 0xffffffffULL) {
        return Status::InvalidArgument(
            "integer literal out of range at " + std::to_string(t.line) +
            ":" + std::to_string(t.column));
      }
    }
    return static_cast<std::uint32_t>(value);
  }

  /// expr (see header grammar). Nesting depth is bounded so adversarial or
  /// corrupted input degrades to a typed error instead of exhausting the
  /// call stack.
  Result<ExprPtr> Expression() {
    if (++depth_ > kMaxExpressionDepth) {
      --depth_;
      return Error("expression nesting exceeds depth limit");
    }
    Result<ExprPtr> out = ExpressionImpl();
    --depth_;
    return out;
  }

  Result<ExprPtr> ExpressionImpl() {
    SETREC_ASSIGN_OR_RETURN(std::string head, Identifier("expression"));
    if (head == "union" || head == "diff" || head == "product") {
      SETREC_RETURN_IF_ERROR(Expect(TokenKind::kLParen).status());
      SETREC_ASSIGN_OR_RETURN(ExprPtr l, Expression());
      SETREC_RETURN_IF_ERROR(Expect(TokenKind::kComma).status());
      SETREC_ASSIGN_OR_RETURN(ExprPtr r, Expression());
      SETREC_RETURN_IF_ERROR(Expect(TokenKind::kRParen).status());
      if (head == "union") return ra::Union(std::move(l), std::move(r));
      if (head == "diff") return ra::Diff(std::move(l), std::move(r));
      return ra::Product(std::move(l), std::move(r));
    }
    if (head == "project") {
      SETREC_RETURN_IF_ERROR(Expect(TokenKind::kLBracket).status());
      std::vector<std::string> attrs;
      while (!At(TokenKind::kRBracket)) {
        if (!attrs.empty()) {
          SETREC_RETURN_IF_ERROR(Expect(TokenKind::kComma).status());
        }
        SETREC_ASSIGN_OR_RETURN(std::string attr, Identifier("attribute"));
        attrs.push_back(std::move(attr));
      }
      Take();  // ]
      SETREC_RETURN_IF_ERROR(Expect(TokenKind::kLParen).status());
      SETREC_ASSIGN_OR_RETURN(ExprPtr child, Expression());
      SETREC_RETURN_IF_ERROR(Expect(TokenKind::kRParen).status());
      return ra::Project(std::move(child), std::move(attrs));
    }
    if (head == "select" || head == "join") {
      SETREC_RETURN_IF_ERROR(Expect(TokenKind::kLBracket).status());
      SETREC_ASSIGN_OR_RETURN(std::string a, Identifier("attribute"));
      bool equal = true;
      if (At(TokenKind::kEquals)) {
        Take();
      } else if (At(TokenKind::kNotEquals)) {
        Take();
        equal = false;
      } else {
        return Error("expected '=' or '!='");
      }
      SETREC_ASSIGN_OR_RETURN(std::string b, Identifier("attribute"));
      SETREC_RETURN_IF_ERROR(Expect(TokenKind::kRBracket).status());
      SETREC_RETURN_IF_ERROR(Expect(TokenKind::kLParen).status());
      SETREC_ASSIGN_OR_RETURN(ExprPtr l, Expression());
      if (head == "select") {
        SETREC_RETURN_IF_ERROR(Expect(TokenKind::kRParen).status());
        return equal ? ra::SelectEq(std::move(l), std::move(a), std::move(b))
                     : ra::SelectNeq(std::move(l), std::move(a),
                                     std::move(b));
      }
      SETREC_RETURN_IF_ERROR(Expect(TokenKind::kComma).status());
      SETREC_ASSIGN_OR_RETURN(ExprPtr r, Expression());
      SETREC_RETURN_IF_ERROR(Expect(TokenKind::kRParen).status());
      return equal ? ra::JoinEq(std::move(l), std::move(r), std::move(a),
                                std::move(b))
                   : ra::JoinNeq(std::move(l), std::move(r), std::move(a),
                                 std::move(b));
    }
    if (head == "rename") {
      SETREC_RETURN_IF_ERROR(Expect(TokenKind::kLBracket).status());
      SETREC_ASSIGN_OR_RETURN(std::string from, Identifier("attribute"));
      SETREC_RETURN_IF_ERROR(Expect(TokenKind::kArrow).status());
      SETREC_ASSIGN_OR_RETURN(std::string to, Identifier("attribute"));
      SETREC_RETURN_IF_ERROR(Expect(TokenKind::kRBracket).status());
      SETREC_RETURN_IF_ERROR(Expect(TokenKind::kLParen).status());
      SETREC_ASSIGN_OR_RETURN(ExprPtr child, Expression());
      SETREC_RETURN_IF_ERROR(Expect(TokenKind::kRParen).status());
      return ra::Rename(std::move(child), std::move(from), std::move(to));
    }
    // Plain relation reference.
    return ra::Rel(std::move(head));
  }

  /// ClassName(index) object literal.
  Result<ObjectId> Object(const Schema& schema) {
    SETREC_ASSIGN_OR_RETURN(std::string cls, Identifier("class name"));
    SETREC_ASSIGN_OR_RETURN(ClassId class_id, schema.FindClass(cls));
    SETREC_RETURN_IF_ERROR(Expect(TokenKind::kLParen).status());
    SETREC_ASSIGN_OR_RETURN(std::uint32_t index, Integer());
    SETREC_RETURN_IF_ERROR(Expect(TokenKind::kRParen).status());
    return ObjectId(class_id, index);
  }

 private:
  /// Deep enough for any printed expression we emit; shallow enough that the
  /// recursive-descent parser cannot blow the stack on hostile input.
  static constexpr int kMaxExpressionDepth = 200;

  std::deque<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<std::unique_ptr<Schema>> ParseSchema(std::string_view text) {
  SETREC_ASSIGN_OR_RETURN(std::deque<Token> tokens, Lex(text));
  Parser p(std::move(tokens));
  SETREC_RETURN_IF_ERROR(p.ExpectKeyword("schema"));
  SETREC_RETURN_IF_ERROR(p.Expect(TokenKind::kLBrace).status());
  auto schema = std::make_unique<Schema>();
  while (!p.At(TokenKind::kRBrace)) {
    if (p.AtKeyword("class")) {
      p.Take();
      SETREC_ASSIGN_OR_RETURN(std::string name, p.Identifier("class name"));
      SETREC_RETURN_IF_ERROR(schema->AddClass(std::move(name)).status());
    } else if (p.AtKeyword("property")) {
      p.Take();
      SETREC_ASSIGN_OR_RETURN(std::string name,
                              p.Identifier("property name"));
      SETREC_RETURN_IF_ERROR(p.Expect(TokenKind::kColon).status());
      SETREC_ASSIGN_OR_RETURN(std::string src, p.Identifier("class name"));
      SETREC_RETURN_IF_ERROR(p.Expect(TokenKind::kArrow).status());
      SETREC_ASSIGN_OR_RETURN(std::string dst, p.Identifier("class name"));
      SETREC_ASSIGN_OR_RETURN(ClassId src_id, schema->FindClass(src));
      SETREC_ASSIGN_OR_RETURN(ClassId dst_id, schema->FindClass(dst));
      SETREC_RETURN_IF_ERROR(
          schema->AddProperty(std::move(name), src_id, dst_id).status());
    } else {
      return p.Error("expected 'class' or 'property'");
    }
    SETREC_RETURN_IF_ERROR(p.Expect(TokenKind::kSemicolon).status());
  }
  p.Take();  // }
  SETREC_RETURN_IF_ERROR(p.Expect(TokenKind::kEnd).status());
  return schema;
}

Result<Instance> ParseInstance(std::string_view text, const Schema* schema) {
  SETREC_ASSIGN_OR_RETURN(std::deque<Token> tokens, Lex(text));
  Parser p(std::move(tokens));
  SETREC_RETURN_IF_ERROR(p.ExpectKeyword("instance"));
  SETREC_RETURN_IF_ERROR(p.Expect(TokenKind::kLBrace).status());
  Instance instance(schema);
  while (!p.At(TokenKind::kRBrace)) {
    if (p.AtKeyword("object")) {
      p.Take();
      SETREC_ASSIGN_OR_RETURN(ObjectId o, p.Object(*schema));
      SETREC_RETURN_IF_ERROR(instance.AddObject(o));
    } else if (p.AtKeyword("edge")) {
      p.Take();
      SETREC_ASSIGN_OR_RETURN(ObjectId src, p.Object(*schema));
      SETREC_ASSIGN_OR_RETURN(std::string prop,
                              p.Identifier("property name"));
      SETREC_ASSIGN_OR_RETURN(PropertyId property,
                              schema->FindProperty(prop));
      SETREC_ASSIGN_OR_RETURN(ObjectId dst, p.Object(*schema));
      SETREC_RETURN_IF_ERROR(instance.AddEdge(src, property, dst));
    } else {
      return p.Error("expected 'object' or 'edge'");
    }
    SETREC_RETURN_IF_ERROR(p.Expect(TokenKind::kSemicolon).status());
  }
  p.Take();  // }
  SETREC_RETURN_IF_ERROR(p.Expect(TokenKind::kEnd).status());
  return instance;
}

Result<InstanceDelta> ParseDelta(std::string_view text, const Schema* schema) {
  SETREC_ASSIGN_OR_RETURN(std::deque<Token> tokens, Lex(text));
  Parser p(std::move(tokens));
  SETREC_RETURN_IF_ERROR(p.ExpectKeyword("delta"));
  SETREC_RETURN_IF_ERROR(p.Expect(TokenKind::kLBrace).status());
  InstanceDelta delta;
  while (!p.At(TokenKind::kRBrace)) {
    bool add;
    if (p.AtKeyword("add")) {
      add = true;
    } else if (p.AtKeyword("del")) {
      add = false;
    } else {
      return p.Error("expected 'add' or 'del'");
    }
    p.Take();
    if (p.AtKeyword("object")) {
      p.Take();
      SETREC_ASSIGN_OR_RETURN(ObjectId o, p.Object(*schema));
      (add ? delta.added_objects : delta.removed_objects).push_back(o);
    } else if (p.AtKeyword("edge")) {
      p.Take();
      SETREC_ASSIGN_OR_RETURN(ObjectId src, p.Object(*schema));
      SETREC_ASSIGN_OR_RETURN(std::string prop, p.Identifier("property name"));
      SETREC_ASSIGN_OR_RETURN(PropertyId property, schema->FindProperty(prop));
      SETREC_ASSIGN_OR_RETURN(ObjectId dst, p.Object(*schema));
      (add ? delta.added_edges : delta.removed_edges)
          .push_back(Edge{src, property, dst});
    } else {
      return p.Error("expected 'object' or 'edge'");
    }
    SETREC_RETURN_IF_ERROR(p.Expect(TokenKind::kSemicolon).status());
  }
  p.Take();  // }
  SETREC_RETURN_IF_ERROR(p.Expect(TokenKind::kEnd).status());
  return delta;
}

Result<ExprPtr> ParseExpression(std::string_view text) {
  SETREC_ASSIGN_OR_RETURN(std::deque<Token> tokens, Lex(text));
  Parser p(std::move(tokens));
  SETREC_ASSIGN_OR_RETURN(ExprPtr expr, p.Expression());
  SETREC_RETURN_IF_ERROR(p.Expect(TokenKind::kEnd).status());
  return expr;
}

Result<std::unique_ptr<AlgebraicUpdateMethod>> ParseMethod(
    std::string_view text, const Schema* schema) {
  SETREC_ASSIGN_OR_RETURN(std::deque<Token> tokens, Lex(text));
  Parser p(std::move(tokens));
  SETREC_RETURN_IF_ERROR(p.ExpectKeyword("method"));
  SETREC_ASSIGN_OR_RETURN(std::string name, p.Identifier("method name"));
  SETREC_RETURN_IF_ERROR(p.Expect(TokenKind::kLBracket).status());
  std::vector<ClassId> signature;
  while (!p.At(TokenKind::kRBracket)) {
    if (!signature.empty()) {
      SETREC_RETURN_IF_ERROR(p.Expect(TokenKind::kComma).status());
    }
    SETREC_ASSIGN_OR_RETURN(std::string cls, p.Identifier("class name"));
    SETREC_ASSIGN_OR_RETURN(ClassId class_id, schema->FindClass(cls));
    signature.push_back(class_id);
  }
  p.Take();  // ]
  if (signature.empty()) {
    return Status::InvalidArgument(
        "a method signature is a non-empty tuple (Definition 2.4)");
  }
  SETREC_RETURN_IF_ERROR(p.Expect(TokenKind::kLBrace).status());
  std::vector<UpdateStatement> statements;
  while (!p.At(TokenKind::kRBrace)) {
    SETREC_ASSIGN_OR_RETURN(std::string prop, p.Identifier("property name"));
    SETREC_ASSIGN_OR_RETURN(PropertyId property, schema->FindProperty(prop));
    SETREC_RETURN_IF_ERROR(p.Expect(TokenKind::kAssign).status());
    SETREC_ASSIGN_OR_RETURN(ExprPtr expr, p.Expression());
    SETREC_RETURN_IF_ERROR(p.Expect(TokenKind::kSemicolon).status());
    statements.push_back(UpdateStatement{property, std::move(expr)});
  }
  p.Take();  // }
  SETREC_RETURN_IF_ERROR(p.Expect(TokenKind::kEnd).status());
  return AlgebraicUpdateMethod::Make(schema, MethodSignature(signature),
                                     std::move(name), std::move(statements));
}

}  // namespace setrec
