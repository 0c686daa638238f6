// The serving layer of the route-serving benchmark: drives a prewarmed
// scheme's route function with the Workload's closed-loop query streams
// from a fixed-size pool of serving threads, recording per-query latency
// into lock-free per-thread histograms (merged after the loops join) and
// adding each finished stream's tallies to the live ServeCounters.
//
// Thread assignment is stream-granular and static (stream s runs on
// thread s % threads), so per-stream tallies are written race-free and the
// deterministic results — queries served, failure counts per stream — are
// invariant under the thread count. Only the timing columns change.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/latency_histogram.h"
#include "serve/workload.h"
#include "sim/metrics.h"

namespace disco::serve {

struct ServeOptions {
  /// Serving threads; <= 0 means hardware concurrency.
  int threads = 0;
  /// Print a live counter line to stderr twice a second while serving.
  bool progress = false;
};

struct ServeResult {
  /// Merged per-thread latency histogram (nanoseconds); covers every
  /// query that reached the route function (departed-destination queries
  /// are rejected before routing and appear only in the failure tallies).
  LatencyHistogram latency;
  /// Deterministic per-stream tallies, thread-count invariant.
  std::vector<std::uint64_t> stream_served;
  std::vector<std::uint64_t> stream_failures;
  std::uint64_t served = 0;    // sum of stream_served
  std::uint64_t failures = 0;  // sum of stream_failures
  /// Wall-clock of the serving section only (streams are pregenerated).
  double wall_seconds = 0;
  int threads = 0;  // resolved thread count

  double qps() const {
    return wall_seconds > 0 ? static_cast<double>(served) / wall_seconds
                            : 0;
  }
};

/// Runs every stream's closed loop against `route`. `streams` must hold
/// Workload::Stream(s) for s in [0, w.streams()) — pregenerated so stream
/// synthesis is off the measured path (and reusable across schemes).
ServeResult ServeWorkload(const RouteFn& route, const Workload& w,
                          const std::vector<std::vector<Query>>& streams,
                          const ServeOptions& opts);

}  // namespace disco::serve
