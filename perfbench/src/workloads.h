// The benchmark's workloads. Each fills `values` with every end-to-end
// metric (untraced runs) or every per-layer metric (traced runs), keyed
// by the names in BENCHMARK.json, and `result` with the correctness
// tallies and run metadata.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

// What differs between serve-later-8k and serve-first-1k.
struct ServeConfig {
  disco::NodeId n;
  /// Warm start: fill a scratch artifact store first (untimed), then
  /// mmap the graph and load the landmark trees from it.
  bool warm_store;
  bool first_packet;
  bool flash;
  std::size_t queries_per_stream;
};

ServeConfig ServeConfigFor(const Options& opt);

void RunServe(const Options& opt, const ServeConfig& cfg,
              const std::vector<std::string>& argv, Result* result,
              std::map<std::string, double>* values);

/// The set-up child: one set-up of graph opt.setup_child in this fresh
/// process, then "perfbench-ready <steady-clock ns>" on stdout at the
/// point where the first query would be served. The parent times
/// set-up from before it spawned this process to that instant.
void RunSetupChild(const Options& opt, const ServeConfig& cfg);

struct RoundTrip {
  std::size_t workers = 0;  // one no-op task each
  double wall_s = 0;  // Executor::Run wall time
  double task_s = 0;  // sum of in-worker task seconds
};

/// Starts a procs-backend pool of two workers, runs one no-op task on
/// each and drains the pool. Every call is one executor Run, so callers
/// must make the same calls in the same order in coordinator and worker
/// processes.
RoundTrip ExecRoundTrip(const std::vector<std::string>& argv);

/// The DES churn campaign of one sweep cell on `g` (sim.campaign_s).
void RunChurnCampaign(const disco::Graph& g, std::uint64_t seed);

}  // namespace perfbench
