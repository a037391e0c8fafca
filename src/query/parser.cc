#include "query/parser.h"

#include <cmath>

#include "query/lexer.h"

namespace tsc {
namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<QueryAst> Parse() {
    QueryAst ast;
    TSC_RETURN_IF_ERROR(Expect(TokenKind::kSelect));
    TSC_RETURN_IF_ERROR(ParseAggregateList(&ast));
    if (Peek().kind == TokenKind::kWhere) {
      Advance();
      TSC_RETURN_IF_ERROR(ParsePredicate(&ast));
    }
    if (Peek().kind == TokenKind::kGroup) {
      Advance();
      TSC_RETURN_IF_ERROR(Expect(TokenKind::kBy));
      if (Peek().kind == TokenKind::kRow) {
        ast.group_by = GroupBy::kRow;
      } else if (Peek().kind == TokenKind::kCol) {
        ast.group_by = GroupBy::kCol;
      } else {
        return Unexpected("'row' or 'col'");
      }
      Advance();
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Unexpected("end of query");
    }
    return ast;
  }

 private:
  const Token& Peek() const { return tokens_[index_]; }
  const Token& Advance() { return tokens_[index_++]; }

  Status Unexpected(const std::string& wanted) const {
    return Status::InvalidArgument(
        "expected " + wanted + " but found " + TokenKindName(Peek().kind) +
        (Peek().text.empty() ? "" : " '" + Peek().text + "'") +
        " at position " + std::to_string(Peek().position));
  }

  Status Expect(TokenKind kind) {
    if (Peek().kind != kind) return Unexpected(TokenKindName(kind));
    Advance();
    return Status::Ok();
  }

  StatusOr<std::size_t> ExpectIndex() {
    if (Peek().kind != TokenKind::kNumber) return Unexpected("number");
    const Token& token = Advance();
    if (token.number < 0 || token.number != std::floor(token.number)) {
      return Status::InvalidArgument("index must be a non-negative integer, "
                                     "got '" +
                                     token.text + "'");
    }
    return static_cast<std::size_t>(token.number);
  }

  Status ParseAggregateList(QueryAst* ast) {
    for (;;) {
      TSC_RETURN_IF_ERROR(ParseAggregate(ast));
      if (Peek().kind != TokenKind::kComma) break;
      Advance();
    }
    return Status::Ok();
  }

  Status ParseAggregate(QueryAst* ast) {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Unexpected("aggregate function");
    }
    const Token& name = Advance();
    TSC_ASSIGN_OR_RETURN(const AggregateFn fn, ParseAggregateFn(name.text));
    TSC_RETURN_IF_ERROR(Expect(TokenKind::kLparen));
    if (Peek().kind == TokenKind::kValue || Peek().kind == TokenKind::kStar) {
      Advance();
    } else {
      return Unexpected("'value' or '*'");
    }
    TSC_RETURN_IF_ERROR(Expect(TokenKind::kRparen));
    ast->aggregates.push_back(fn);
    return Status::Ok();
  }

  Status ParsePredicate(QueryAst* ast) {
    for (;;) {
      TSC_RETURN_IF_ERROR(ParseConstraint(ast));
      if (Peek().kind != TokenKind::kAnd) break;
      Advance();
    }
    return Status::Ok();
  }

  Status ParseConstraint(QueryAst* ast) {
    DimensionConstraint constraint;
    if (Peek().kind == TokenKind::kRow) {
      constraint.is_row = true;
    } else if (Peek().kind == TokenKind::kCol) {
      constraint.is_row = false;
    } else {
      return Unexpected("'row' or 'col'");
    }
    Advance();

    if (Peek().kind == TokenKind::kIn) {
      Advance();
      for (;;) {
        TSC_ASSIGN_OR_RETURN(const std::size_t lo, ExpectIndex());
        IdRange range{lo, lo};
        if (Peek().kind == TokenKind::kColon) {
          Advance();
          TSC_ASSIGN_OR_RETURN(range.hi, ExpectIndex());
          if (range.hi < range.lo) {
            return Status::InvalidArgument("descending range");
          }
        }
        constraint.ranges.push_back(range);
        if (Peek().kind != TokenKind::kComma) break;
        Advance();
      }
    } else if (Peek().kind == TokenKind::kBetween) {
      Advance();
      IdRange range;
      TSC_ASSIGN_OR_RETURN(range.lo, ExpectIndex());
      TSC_RETURN_IF_ERROR(Expect(TokenKind::kAnd));
      TSC_ASSIGN_OR_RETURN(range.hi, ExpectIndex());
      if (range.hi < range.lo) {
        return Status::InvalidArgument("descending BETWEEN range");
      }
      constraint.ranges.push_back(range);
    } else {
      return Unexpected("IN or BETWEEN");
    }
    ast->constraints.push_back(std::move(constraint));
    return Status::Ok();
  }

  std::vector<Token> tokens_;
  std::size_t index_ = 0;
};

}  // namespace

StatusOr<QueryAst> ParseQuery(const std::string& text) {
  TSC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  TSC_ASSIGN_OR_RETURN(QueryAst ast, parser.Parse());
  if (ast.aggregates.empty()) {
    return Status::InvalidArgument("no aggregate selected");
  }
  return ast;
}

}  // namespace tsc
