#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "graph/io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/artifact_store.h"
#include "util/sha256.h"

namespace perfbench {

const char* const kTreeRamHits = "disco_store_tree_ram_hits_total";
const char* const kTreeStoreHits = "disco_store_tree_store_hits_total";
const char* const kTreeDijkstras = "disco_store_tree_dijkstras_total";
const char* const kTreeWritebacks = "disco_store_tree_writebacks_total";
const char* const kGraphGenerated =
    "disco_graph_loads_total{source=\"generated\"}";
const char* const kGraphMmapLoads = "disco_graph_loads_total{source=\"mmap\"}";
const char* const kExecDispatched =
    "disco_exec_tasks_total{event=\"dispatched\"}";
const char* const kExecRetries = "disco_exec_tasks_total{event=\"retried\"}";
const char* const kExecStragglerDupes =
    "disco_exec_tasks_total{event=\"straggler_dupe\"}";

void LayerTimes::Time(const std::string& name,
                      const std::function<void()>& fn) {
  const Clock::time_point t0 = Clock::now();
  {
    DISCO_TRACE_SPAN(disco::obs::InternName(name));
    fn();
  }
  Add(name, SecondsSince(t0));
}

void LayerTimes::Add(const std::string& name, double seconds,
                     std::size_t calls) {
  auto& slot = acc_[name];
  slot.first += seconds;
  slot.second += calls;
}

double LayerTimes::Total(const std::string& name) const {
  const auto it = acc_.find(name);
  return it == acc_.end() ? 0 : it->second.first;
}

double LayerTimes::Mean(const std::string& name) const {
  const auto it = acc_.find(name);
  if (it == acc_.end() || it->second.second == 0) return 0;
  return it->second.first / static_cast<double>(it->second.second);
}

std::map<std::string, double> CounterSnapshot() {
  std::map<std::string, double> out;
  std::istringstream in(disco::obs::Global().PrometheusText());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

double CounterDelta(const std::map<std::string, double>& before,
                    const std::map<std::string, double>& after,
                    const std::string& key) {
  const auto value = [&key](const std::map<std::string, double>& m) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  return value(after) - value(before);
}

void RegisterCounters() {
  (void)disco::store::Counters();
  (void)disco::GraphLoadCounters();
}

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const double rank = std::ceil(q * static_cast<double>(values->size()));
  const std::size_t idx =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return (*values)[std::min(idx, values->size() - 1)];
}

bool PercentileIsReal(std::size_t count, double q) {
  return static_cast<double>(count) * (1.0 - q) >= 10.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return (*std::max_element(values.begin(), values.begin() + mid) + upper) /
         2;
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string Sha256Hex(const std::string& bytes) {
  return disco::Sha256HexOf(disco::Sha256Hash(bytes));
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
