#include "net/metrics.h"

namespace targad {
namespace net {

NetMetricsSnapshot NetMetrics::Snapshot() const {
  NetMetricsSnapshot s;
  TARGAD_METRICS_LOADS(TARGAD_NET_METRICS)
  return s;
}

std::string NetMetrics::Report() const {
  serve::MetricsText report(serve::MetricsText::Layout::kReport);
  Snapshot().ForEach(report);
  return "net metrics\n" + report.str();
}

}  // namespace net
}  // namespace targad
