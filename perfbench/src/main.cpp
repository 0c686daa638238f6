// perfbench — the repository's benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: serve-later-8k, serve-first-1k (see BENCHMARK.json for why
// each exists). An untraced run (--trace 0) prints
// every end-to-end metric; a traced run (--trace 1) records spans around
// the calls into each layer and prints every per-layer metric. The last
// line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by a "perfbench-meta {...}" line with the run metadata and,
// when anything failed, the offending (s, t) pairs.
//
// Other flags: --tiny (a few hundred nodes; the benchmark's own tests),
// --test-drop-hop (test-only fault injection), --git-sha=<sha> and
// --source-digest=<hex> (metadata). Worker processes of the procs
// backend re-invoke this binary with --worker=<job> appended, and the
// set-up timing re-invokes it with --setup-child=<graph>, --store-dir=
// and --graph-fp=.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "exec/executor.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"qps", "queries/s"},
    {"p50_us", "us"},
    {"p99_us", "us"},
    {"peak_rss_mb", "MiB"},
    {"stretch_first_mean", "ratio"},
    {"stretch_later_mean", "ratio"},
    {"state_entries_max", "entries"},
};

const MetricSpec kPerLayer[] = {
    {"graph.generate_s", "s"},
    {"graph.view_s", "s"},
    {"graph.generated", "count"},
    {"graph.mmap_loads", "count"},
    {"store.open_s", "s"},
    {"store.tree_decode_us", "us"},
    {"store.tree_loads", "count"},
    {"routing.landmarks_s", "s"},
    {"routing.addresses_s", "s"},
    {"routing.landmark_trees_s", "s"},
    {"routing.landmark_tree.dijkstras", "count"},
    {"routing.landmark_tree.ram_hits", "count"},
    {"routing.landmark_tree.writebacks", "count"},
    {"routing.vicinities_s", "s"},
    {"routing.vicinity.get_us", "us"},
    {"routing.vicinity.get_p99_us", "us"},
    {"routing.address_of_us", "us"},
    {"core.names_s", "s"},
    {"core.sloppy_groups_s", "s"},
    {"core.resolution_s", "s"},
    {"core.overlay_s", "s"},
    {"core.scheme_build_s", "s"},
    {"core.route_first_us", "us"},
    {"core.route_later_us", "us"},
    {"core.direct_path_us", "us"},
    {"core.find_contact_us", "us"},
    {"core.allocs_per_route_first", "count"},
    {"core.allocs_per_route_later", "count"},
    {"core.route_hops_mean", "hops"},
    {"core.fallback_share", "ratio"},
    {"api.prewarm_s", "s"},
    {"api.collect_state_s", "s"},
    {"serve.workload_build_s", "s"},
    {"serve.noop_ns_per_query", "ns"},
    {"sim.sample_stretch_s", "s"},
    {"sim.campaign_s", "s"},
    {"exec.run_s", "s"},
    {"exec.busy_share", "ratio"},
    {"exec.dispatched", "count"},
    {"exec.retries", "count"},
    {"exec.straggler_dupes", "count"},
    {"exec.useful_ratio", "ratio"},
    {"exec.cells_per_s", "1/s"},
    {"obs.trace_overhead_pct", "%"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve-later-8k|serve-first-1k> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny]\n",
               why);
  std::exit(2);
}

std::uint64_t ParseUint(const std::string& v, const char* flag) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0') Usage(flag);
  return x;
}

Options ParseOptions(const std::vector<std::string>& args) {
  Options o;
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::string arg = args[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    const bool takes_value = arg != "--tiny" && arg != "--test-drop-hop";
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (takes_value) {
      if (i + 1 >= args.size()) Usage(("missing value for " + arg).c_str());
      value = args[++i];
    }
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = ParseUint(value, "bad --seed");
    } else if (arg == "--seconds") {
      o.seconds = static_cast<double>(ParseUint(value, "bad --seconds"));
      if (o.seconds < 1) Usage("--seconds must be at least 1");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--test-drop-hop") {
      o.drop_hop = true;
    } else if (arg == "--git-sha") {
      o.git_sha = value;
    } else if (arg == "--source-digest") {
      o.source_digest = value;
    } else if (arg == "--setup-child") {
      o.setup_child = static_cast<int>(ParseUint(value, "bad --setup-child"));
    } else if (arg == "--store-dir") {
      o.store_dir = value;
    } else if (arg == "--graph-fp") {
      o.graph_fp = value;
    } else if (arg == "--worker") {
      disco::exec::EnterWorkerMode(
          static_cast<std::size_t>(ParseUint(value, "bad --worker")));
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
  }
  if (o.workload.empty()) Usage("--workload is required");
  return o;
}

std::string ReadFirstLine(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line.empty() ? "unreadable" : line;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintResult(const Options& opt, const Result& r,
                 const std::map<std::string, double>& values) {
  const auto& specs = opt.trace ? std::vector<MetricSpec>(
                                      std::begin(kPerLayer),
                                      std::end(kPerLayer))
                                : std::vector<MetricSpec>(
                                      std::begin(kEndToEnd),
                                      std::end(kEndToEnd));
  std::string meta = "{";
  for (std::size_t i = 0; i < r.meta.size(); ++i) {
    if (i > 0) meta += ", ";
    meta += JsonString(r.meta[i].first) + ": " +
            JsonString(r.meta[i].second);
  }
  meta += ", \"failure_rate\": " +
          FormatDouble(r.attempted == 0
                           ? 0
                           : static_cast<double>(r.failed) /
                                 static_cast<double>(r.attempted));
  meta += ", \"offending_pairs\": [";
  for (std::size_t i = 0; i < r.offenders.size() && i < 100; ++i) {
    if (i > 0) meta += ", ";
    meta += "[" + std::to_string(r.offenders[i].first) + ", " +
            std::to_string(r.offenders[i].second) + "]";
  }
  meta += "]}";

  std::string metrics;
  for (const MetricSpec& m : specs) {
    const auto it = values.find(m.name);
    if (it == values.end()) {
      std::fprintf(stderr, "perfbench: workload produced no %s\n", m.name);
      std::exit(1);
    }
    std::printf("%-36s %.6g %s\n", m.name, it->second, m.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " +
               FormatDouble(it->second) + ", \"unit\": " +
               JsonString(m.unit) + "}";
  }
  std::printf("perfbench-meta %s\n", meta.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  const std::vector<std::string> args(argv, argv + argc);
  const Options opt = ParseOptions(args);
  RegisterCounters();
  if (opt.workload != "serve-later-8k" && opt.workload != "serve-first-1k") {
    Usage(("unknown workload " + opt.workload).c_str());
  }
  const ServeConfig cfg = ServeConfigFor(opt);
  if (opt.setup_child >= 0) {
    RunSetupChild(opt, cfg);
    return 0;
  }
  std::error_code ec;
  std::filesystem::create_directories(kRunDir, ec);

  Result result;
  std::map<std::string, double> values;
  RunServe(opt, cfg, args, &result, &values);

  result.Meta("workload", opt.workload);
  result.Meta("seed", std::to_string(opt.seed));
  result.Meta("seconds", FormatDouble(opt.seconds));
  result.Meta("trace", opt.trace ? "1" : "0");
  result.Meta("git_sha", opt.git_sha);
  result.Meta("source_digest", opt.source_digest);
  result.Meta("build_type", PERFBENCH_BUILD_TYPE);
  result.Meta("compiler", std::string("g++ ") + __VERSION__);
  result.Meta("nproc", std::to_string(std::thread::hardware_concurrency()));
  result.Meta("cpu_governor",
              ReadFirstLine(
                  "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"));
  PrintResult(opt, result, values);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
