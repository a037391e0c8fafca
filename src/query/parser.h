#ifndef TSC_QUERY_PARSER_H_
#define TSC_QUERY_PARSER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/query.h"
#include "util/id_range.h"
#include "util/status.h"

namespace tsc {

/// The ad hoc query language the paper's analysts would type. Grammar:
///
///   query      := SELECT agg_list [ WHERE predicate ] [ GROUP BY dim ]
///   agg_list   := agg { ',' agg }
///   agg        := FN '(' ( 'value' | '*' ) ')'
///   FN         := sum | avg | count | min | max | stddev
///   predicate  := constraint { AND constraint }
///   constraint := dim IN range_list
///               | dim BETWEEN number AND number
///   dim        := 'row' | 'col'            ('column'/'day' accepted)
///   range_list := range { ',' range }
///   range      := number [ ':' number ]    (inclusive)
///
/// Examples:
///   SELECT sum(value) WHERE row BETWEEN 0 AND 99 AND col IN 0:6
///   SELECT avg(value), max(value) WHERE col IN 5,6,12,13
///   SELECT count(*)
///
/// Constraints on the same dimension intersect; an unconstrained
/// dimension selects everything.

/// A dimension constraint: union of inclusive ranges, as written.
struct DimensionConstraint {
  bool is_row = true;
  std::vector<IdRange> ranges;
};

/// Grouping dimension of a GROUP BY clause.
enum class GroupBy {
  kNone,
  kRow,  ///< one result per selected row ("per customer")
  kCol,  ///< one result per selected column ("per day")
};

/// Parsed query.
struct QueryAst {
  std::vector<AggregateFn> aggregates;
  std::vector<DimensionConstraint> constraints;
  GroupBy group_by = GroupBy::kNone;
};

/// Parses one statement; error messages carry byte positions.
StatusOr<QueryAst> ParseQuery(const std::string& text);

}  // namespace tsc

#endif  // TSC_QUERY_PARSER_H_
