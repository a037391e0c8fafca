#ifndef TSC_OBS_PROMETHEUS_H_
#define TSC_OBS_PROMETHEUS_H_

#include <string>

#include "obs/snapshot.h"

namespace tsc::obs {

/// Renders a snapshot in the Prometheus text exposition format
/// (version 0.0.4): every instrument becomes a `tsc_`-prefixed family
/// with `# HELP` / `# TYPE` comments, counters get the `_total` suffix,
/// and log2 histograms are exported natively as cumulative `le` bucket
/// series plus `_sum`/`_count` (so PromQL `histogram_quantile` works on
/// them). The dotted suffix of `server.latency_us.<endpoint>` names a
/// dimension rather than a metric, so those histograms fold into one
/// family with an endpoint label, which is what makes per-endpoint
/// dashboards a one-selector query.
///
/// Serve with `Content-Type: text/plain; version=0.0.4`.
std::string ToPrometheusText(const StatsSnapshot& snapshot);

namespace prometheus_detail {
/// `tsc_` + name with every non-[a-zA-Z0-9_] byte replaced by '_'.
std::string SanitizeMetricName(const std::string& name);
/// Splits a dotted name into {family, label_name, label_value} under the
/// dimension rule above; label_name is empty for plain metrics.
struct FamilySplit {
  std::string family;       ///< dotted family name, pre-sanitization
  std::string label_name;   ///< "" when the name carries no dimension
  std::string label_value;
};
FamilySplit SplitFamily(const std::string& name);
}  // namespace prometheus_detail

}  // namespace tsc::obs

#endif  // TSC_OBS_PROMETHEUS_H_
