// Live counters for the serve path, registered in the unified
// obs::MetricsRegistry: atomics each serving thread adds a stream's
// tallies to when it finishes that stream (never per query, so serving
// threads do not share a cache line on the hot path), readable at any
// moment by an observer (the disco_serve --progress reporter) without
// stopping the measurement, and exported through the registry's
// Prometheus exposition / "[metrics]" dump alongside every other
// subsystem. Nothing here participates in results — the authoritative
// per-query numbers come from the per-thread histograms and per-stream
// tallies — so mid-run reads are fine.
#pragma once

#include "obs/metrics.h"

namespace disco::serve {

struct ServeCounters {
  /// Queries completed (success or failure) in finished streams, monotone.
  obs::Counter& queries;
  /// Queries whose route failed (empty path, or a destination departed
  /// during a churn phase), monotone.
  obs::Counter& failures;
  /// Serving threads currently inside their closed loop (gauge).
  obs::Gauge& active_workers;

  ServeCounters();

  void Reset() {
    queries.Set(0);
    failures.Set(0);
    active_workers.Set(0);
  }
};

/// Process-wide counters of the current serve run (one bench run drives
/// one scheme at a time; the driver resets between schemes).
ServeCounters& Counters();

}  // namespace disco::serve
