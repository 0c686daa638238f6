// The traced per-layer breakdown shared by every workload. It builds a
// fresh Disco instance on the workload's graph and times the public calls
// of each layer from outside — build phases, prewarm, the single-threaded
// query-path replay (with allocation counting), the serving harness with
// a route function that does no routing, stretch sampling, the store
// codec, and the tracer's own overhead. Workloads that never touch a layer on their own path (the store
// on cold workloads) still get its metric from this standalone probe on
// their graph, so every per-layer metric exists on every workload.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "graph/graph.h"
#include "routing/params.h"
#include "serve/workload.h"

namespace perfbench {

struct ProbeInputs {
  const disco::Graph* graph = nullptr;
  disco::Params params;
  /// The replayed queries, in served order (departed and s == t pairs
  /// already removed).
  std::vector<std::pair<disco::NodeId, disco::NodeId>> queries;
  /// Streams for the no-op serving harness.
  const disco::serve::Workload* workload = nullptr;
  const std::vector<std::vector<disco::serve::Query>>* streams = nullptr;
  bool first_packet = false;
  /// When true the landmark trees are read back from the open process
  /// store (serve-later-8k); otherwise the probe encodes them in memory
  /// and opens a scratch store at `scratch_store_dir`.
  bool warm_store = false;
  std::string scratch_store_dir;
  std::uint64_t seed = 1;
};

/// Runs the probe and writes its per-layer values into *values. It ends
/// by flushing the trace, to time the replay loops once more untraced
/// (obs.trace_overhead_pct), so it must be the traced run's last step.
void RunLayerProbe(const ProbeInputs& in, LayerTimes* times,
                   std::map<std::string, double>* values);

}  // namespace perfbench
