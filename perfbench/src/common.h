// Shared pieces of the perfbench program: command-line options, the result
// record every workload fills, per-layer timers that double as trace
// spans, registry counter snapshots, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace perfbench {

/// Directory (inside the checkout) for scratch stores and the trace.
inline constexpr const char* kRunDir = ".bench_build/perfbench-run";

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Shrinks every workload to a few hundred nodes (the benchmark's own
  /// smoke tests).
  bool tiny = false;
  /// Test-only fault: route functions drop one interior hop of every
  /// route, which the route check must count as failures.
  bool drop_hop = false;
  /// Set by the parent when it spawns this process to time one set-up of
  /// graph `setup_child` (see RunSetupChild); -1 otherwise.
  int setup_child = -1;
  std::string store_dir;
  std::string graph_fp;
  /// Run metadata supplied by run.py.
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Run metadata, printed on its own line before the result.
  std::vector<std::pair<std::string, std::string>> meta;
  /// (s, t) pairs whose route failed or failed the check.
  std::vector<std::pair<disco::NodeId, disco::NodeId>> offenders;

  void Meta(const std::string& key, const std::string& value) {
    meta.emplace_back(key, value);
  }
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seconds spent in each named layer call. Every Time() call also records
/// a trace span of the same name (visible when tracing is on), so the
/// trace file and the per-layer metrics describe the same intervals.
class LayerTimes {
 public:
  /// Runs fn inside a span named `name` and adds its wall time.
  void Time(const std::string& name, const std::function<void()>& fn);
  void Add(const std::string& name, double seconds, std::size_t calls = 1);
  double Total(const std::string& name) const;
  double Mean(const std::string& name) const;

 private:
  std::map<std::string, std::pair<double, std::size_t>> acc_;
};

/// Every counter series of the process-wide metrics registry, keyed by
/// exposition name (e.g. disco_exec_tasks_total{event="dispatched"}).
std::map<std::string, double> CounterSnapshot();

/// after[key] - before[key]; a series missing from a snapshot counts 0.
double CounterDelta(const std::map<std::string, double>& before,
                    const std::map<std::string, double>& after,
                    const std::string& key);

// Registry series the benchmark reads.
extern const char* const kTreeRamHits;
extern const char* const kTreeStoreHits;
extern const char* const kTreeDijkstras;
extern const char* const kTreeWritebacks;
extern const char* const kGraphGenerated;
extern const char* const kGraphMmapLoads;
extern const char* const kExecDispatched;
extern const char* const kExecRetries;
extern const char* const kExecStragglerDupes;

/// Registers the store and graph counter series, so that worker
/// expositions merged during executor drain find them.
void RegisterCounters();

/// Nearest-rank percentile of an unsorted sample (sorted in place).
double Percentile(std::vector<double>* values, double q);

/// True when `count` samples leave at least ten beyond quantile q — the
/// smallest sample that makes the q-th percentile a statistic.
bool PercentileIsReal(std::size_t count, double q);

/// The median: the mean of the two middle values for an even count.
double Median(std::vector<double> values);

/// This process's peak resident set (VmHWM) in MiB; 0 if unreadable.
double PeakRssMiB();

/// Hex SHA-256 of `bytes`.
std::string Sha256Hex(const std::string& bytes);

/// Appends the raw bytes of a trivially copyable value to `out`.
template <typename T>
void AppendBytes(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}

std::string FormatDouble(double v);

}  // namespace perfbench
