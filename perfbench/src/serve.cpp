// serve-later-8k and serve-first-1k: closed-loop route serving.
//
// Set-up is what a serving process does before its first query: obtain
// the graph (generate it, or open the artifact store and mmap the stored
// snapshot), build the scheme, prewarm every node, and build the query
// streams. setup_s times it in fresh processes of this binary, from spawn
// to the first query, so that one-time process costs (thread pool start,
// first touch of memory) are in every sample; it is the median of
// several such set-ups per run. The run then sets up once more in its own
// process and serves the streams in rounds from two threads until
// --seconds have passed. ServeWorkload times each query around the route
// call. The route check, the state collection and, in traced runs, the
// per-layer probe run afterwards, outside the timed region.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "api/registry.h"
#include "api/schemes.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "layers.h"
#include "obs/trace.h"
#include "route_check.h"
#include "routing/landmark_trees.h"
#include "routing/landmarks.h"
#include "serve/server.h"
#include "store/artifact_store.h"
#include "workloads.h"

namespace perfbench {

using disco::Graph;
using disco::NodeId;
using disco::Route;
using disco::RouteFn;

namespace {

constexpr int kServeThreads = 2;
constexpr std::size_t kStreams = 16;
// Graphs an untraced run serves in turn, each for seconds / kGraphs.
constexpr int kGraphs = 8;
// Fresh-process set-ups per graph in an untraced run.
constexpr int kSetups = 5;
// Served queries re-routed by the check, per graph.
constexpr std::size_t kCheckPairs = 250;

// Graph i of a run with seed `seed`.
disco::Params GraphParams(std::uint64_t seed, int i) {
  disco::Params params;
  params.seed = seed * 1000 + static_cast<std::uint64_t>(i);
  return params;
}

std::int64_t SteadyNanos(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

disco::store::ArtifactKey GraphKey(const std::string& fp) {
  disco::store::ArtifactKey key;
  key.kind = "graph";
  key.graph = fp;
  key.scope = "snapshot";
  key.version = 2;
  return key;
}

// Test-only fault: drops the first interior hop, so the route is no
// longer a walk of the graph.
RouteFn MaybeDropHop(RouteFn fn, bool drop_hop) {
  if (!drop_hop) return fn;
  return [fn](NodeId s, NodeId t) {
    Route r = fn(s, t);
    if (r.path.size() > 2) r.path.erase(r.path.begin() + 1);
    return r;
  };
}

// One set-up's products. Members are destroyed in reverse order, so the
// scheme goes before the graph it borrows.
struct Instance {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<disco::api::RoutingScheme> scheme;
  std::optional<disco::serve::Workload> workload;
  std::vector<std::vector<disco::serve::Query>> streams;

  disco::api::DiscoScheme& disco_scheme() {
    return dynamic_cast<disco::api::DiscoScheme&>(*scheme);
  }
};

// Per-round statistics: every timing is taken per serving round, and the
// run reports medians over rounds, so a burst of interference on a shared
// host moves a few rounds instead of the whole tail.
struct ServeRounds {
  std::vector<double> qps, p50_us, p99_us;
  std::uint64_t served = 0;
  std::uint64_t failures = 0;
  std::uint64_t fewest_beyond_p99 = UINT64_MAX;  // over rounds
  double seconds = 0;
  std::vector<std::pair<NodeId, NodeId>> failed;
};

// Serves every stream in rounds until `budget` seconds of serving have
// passed (at least three rounds). Latencies come from ServeWorkload's own
// per-query histogram; the wrapper only keeps the failed pairs.
ServeRounds Serve(Instance& inst, const RouteFn& route, double budget) {
  disco::serve::ServeOptions opts;
  opts.threads = kServeThreads;
  ServeRounds out;
  std::mutex mu;
  const RouteFn recorded = [&](NodeId s, NodeId t) {
    Route r = route(s, t);
    if (!r.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      out.failed.emplace_back(s, t);
    }
    return r;
  };
  while (out.seconds < budget || out.qps.size() < 3) {
    const disco::serve::ServeResult r = disco::serve::ServeWorkload(
        recorded, *inst.workload, inst.streams, opts);
    const std::uint64_t count = r.latency.count();
    if (!PercentileIsReal(count, 0.99)) {
      std::fprintf(stderr, "perfbench: a round of %llu queries cannot "
                           "carry a p99\n",
                   static_cast<unsigned long long>(count));
      std::exit(1);
    }
    out.fewest_beyond_p99 = std::min<std::uint64_t>(
        out.fewest_beyond_p99,
        count - static_cast<std::uint64_t>(std::ceil(0.99 * count)));
    out.p50_us.push_back(
        static_cast<double>(r.latency.ValueAtQuantile(0.50)) / 1e3);
    out.p99_us.push_back(
        static_cast<double>(r.latency.ValueAtQuantile(0.99)) / 1e3);
    out.qps.push_back(r.qps());
    out.served += r.served;
    out.failures += r.failures;
    out.seconds += r.wall_seconds;
  }
  return out;
}

// Every `stride`-th served query (stream-major order), skipping departed
// destinations and s == t.
std::vector<std::pair<NodeId, NodeId>> SampleQueries(const Instance& inst,
                                                     std::size_t want) {
  std::size_t total = 0;
  for (const auto& s : inst.streams) total += s.size();
  const std::size_t stride = std::max<std::size_t>(1, total / want);
  std::vector<std::pair<NodeId, NodeId>> out;
  std::size_t index = 0;
  for (const auto& stream : inst.streams) {
    for (const disco::serve::Query& q : stream) {
      if (index++ % stride != 0 || out.size() >= want) continue;
      if (q.dst_departed || q.src == q.dst) continue;
      out.emplace_back(q.src, q.dst);
    }
  }
  return out;
}

// What the run's graphs add up to.
struct Pooled {
  std::vector<double> setup_s;
  std::vector<double> graph_qps;  // per graph: median round qps
  std::vector<double> round_p50_us, round_p99_us;
  std::uint64_t fewest_beyond_p99 = UINT64_MAX;
  std::size_t rounds = 0;
  std::uint64_t served = 0, failures = 0, checked = 0, violations = 0,
                bounded = 0;
  double stretch_sum[2] = {0, 0};
  double stretch_n[2] = {0, 0};
  double state_max = 0;
  double peak_rss = 0;
  std::string fingerprints;
  std::vector<std::pair<NodeId, NodeId>> offenders;
  std::map<std::string, double> first_setup_counts;
};

// Fills the scratch store with g's snapshot and every landmark tree.
// Untimed: it stands for a store built earlier. Returns the graph
// fingerprint the set-ups view the graph by.
std::string FillStore(const Graph& g, const disco::Params& params) {
  std::string err;
  const std::string fp = disco::GraphFingerprintHex(g);
  if (!disco::store::ProcessStore()->Put(
          GraphKey(fp), {disco::GraphSnapshotBytes(g)}, &err)) {
    std::fprintf(stderr, "perfbench: cannot store graph: %s\n", err.c_str());
    std::exit(1);
  }
  const disco::LandmarkSet landmarks =
      disco::SelectLandmarks(g.num_nodes(), params);
  disco::LandmarkTreeCache trees(g, landmarks, params.tree_cache_capacity);
  for (const NodeId l : landmarks.landmarks) (void)trees.Tree(l);
  if (trees.tier_stats().writebacks != landmarks.count()) {
    std::fprintf(stderr, "perfbench: store fill wrote %zu of %zu trees\n",
                 trees.tier_stats().writebacks, landmarks.count());
    std::exit(1);
  }
  return fp;
}

// One set-up: graph, scheme, prewarm, streams.
Instance SetUp(const ServeConfig& cfg, const disco::Params& params,
               const std::string& store_dir, const std::string& graph_fp,
               LayerTimes* times) {
  Instance inst;
  if (cfg.warm_store) {
    times->Time("store.open_s", [&] {
      std::string err;
      if (!disco::store::OpenProcessStore(store_dir, &err)) {
        std::fprintf(stderr, "perfbench: cannot open store %s: %s\n",
                     store_dir.c_str(), err.c_str());
        std::exit(1);
      }
    });
    times->Time("graph.view_s", [&] {
      std::shared_ptr<disco::store::ArtifactReader> reader =
          disco::store::ProcessStore()->Open(GraphKey(graph_fp));
      std::optional<Graph> g;
      if (reader != nullptr && reader->frame_count() >= 1) {
        const auto frame = reader->frame(0);
        g = disco::ViewGraphSnapshot(
            reader, disco::Span<const char>(
                        reinterpret_cast<const char*>(frame.data()),
                        frame.size()));
      }
      if (!g) {
        std::fprintf(stderr, "perfbench: stored graph does not load\n");
        std::exit(1);
      }
      inst.graph = std::make_unique<Graph>(std::move(*g));
    });
  } else {
    times->Time("graph.generate_s", [&] {
      inst.graph = std::make_unique<Graph>(
          disco::ConnectedGnm(cfg.n, 4ull * cfg.n, params.seed));
    });
  }
  times->Time("core.scheme_build_s", [&] {
    inst.scheme = disco::api::MakeScheme("disco", *inst.graph, params);
  });
  times->Time("api.prewarm_s",
              [&] { inst.scheme->PrewarmFor(inst.scheme->AllNodes()); });
  times->Time("serve.workload_build_s", [&] {
    disco::serve::WorkloadSpec spec;
    spec.streams = kStreams;
    spec.queries_per_stream = cfg.queries_per_stream;
    spec.zipf = 0.99;
    spec.flash = cfg.flash;
    spec.hot_set = 8;
    inst.workload =
        disco::serve::Workload::Build(spec, *inst.graph, params.seed);
    for (std::size_t s = 0; s < inst.workload->streams(); ++s) {
      inst.streams.push_back(inst.workload->Stream(s));
    }
  });
  return inst;
}

// Seconds from spawning a fresh set-up process of this binary for graph
// `index` (see RunSetupChild) to the instant it would serve its first
// query. steady_clock is CLOCK_MONOTONIC, which both processes share.
double FreshSetupSeconds(const std::vector<std::string>& argv,
                         const Options& opt, int index,
                         const std::string& store_dir,
                         const std::string& graph_fp) {
  std::vector<std::string> args = {
      argv[0], "--workload", opt.workload, "--seed", std::to_string(opt.seed),
      "--setup-child=" + std::to_string(index), "--store-dir=" + store_dir,
      "--graph-fp=" + graph_fp};
  if (opt.tiny) args.push_back("--tiny");
  std::vector<char*> cargv;
  for (std::string& a : args) cargv.push_back(a.data());
  cargv.push_back(nullptr);

  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("perfbench: pipe");
    std::exit(1);
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const Clock::time_point t0 = Clock::now();
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, cargv[0], &actions, nullptr, cargv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string out;
  if (rc == 0) {
    char buf[256];
    for (;;) {
      const ssize_t k = ::read(fds[0], buf, sizeof buf);
      if (k > 0) {
        out.append(buf, static_cast<std::size_t>(k));
      } else if (k == 0 || errno != EINTR) {
        break;
      }
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (rc == 0 && ::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const std::size_t at = out.rfind("perfbench-ready ");
  if (rc != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      at == std::string::npos) {
    std::fprintf(stderr, "perfbench: set-up process for graph %d failed\n",
                 index);
    std::exit(1);
  }
  const long long ready = std::strtoll(out.c_str() + at + 16, nullptr, 10);
  return static_cast<double>(ready - SteadyNanos(t0)) / 1e9;
}

// Set-up, serving, route check and state collection on one graph.
// Returns the served instance.
Instance ServeGraph(const Options& opt, const ServeConfig& cfg,
                    const std::vector<std::string>& argv, int index,
                    const std::string& store_dir, double budget,
                    LayerTimes* times, Pooled* pool) {
  const disco::Params params = GraphParams(opt.seed, index);
  std::string graph_fp;
  if (cfg.warm_store) {
    std::unique_ptr<Graph> g;
    times->Time("graph.generate_s", [&] {
      g = std::make_unique<Graph>(
          disco::ConnectedGnm(cfg.n, 4ull * cfg.n, params.seed));
    });
    graph_fp = FillStore(*g, params);
  }
  if (!opt.trace) {
    for (int k = 0; k < kSetups; ++k) {
      pool->setup_s.push_back(
          FreshSetupSeconds(argv, opt, index, store_dir, graph_fp));
    }
  }

  // This process's own set-up, for serving and the per-layer times.
  const auto setup_before = CounterSnapshot();
  Instance inst = SetUp(cfg, params, store_dir, graph_fp, times);
  if (pool->first_setup_counts.empty()) {
    const auto after = CounterSnapshot();
    for (const char* key : {kTreeStoreHits, kTreeDijkstras, kTreeWritebacks,
                            kGraphGenerated, kGraphMmapLoads}) {
      pool->first_setup_counts[key] = CounterDelta(setup_before, after, key);
    }
  }

  disco::api::RoutingScheme& scheme = *inst.scheme;
  const RouteFn first_fn = MaybeDropHop(
      scheme.route_fn(disco::api::Phase::kFirst), opt.drop_hop);
  const RouteFn later_fn = MaybeDropHop(
      scheme.route_fn(disco::api::Phase::kLater), opt.drop_hop);

  // Timed serving.
  const ServeRounds rounds =
      Serve(inst, cfg.first_packet ? first_fn : later_fn, budget);
  const auto after = CounterSnapshot();
  if (cfg.warm_store &&
      CounterDelta(setup_before, after, kTreeDijkstras) != 0) {
    std::fprintf(stderr, "perfbench: warm start ran landmark Dijkstras\n");
    std::exit(1);
  }
  pool->peak_rss = std::max(pool->peak_rss, PeakRssMiB());
  pool->graph_qps.push_back(Median(rounds.qps));
  pool->round_p50_us.insert(pool->round_p50_us.end(),
                            rounds.p50_us.begin(), rounds.p50_us.end());
  pool->round_p99_us.insert(pool->round_p99_us.end(),
                            rounds.p99_us.begin(), rounds.p99_us.end());
  pool->fewest_beyond_p99 =
      std::min(pool->fewest_beyond_p99, rounds.fewest_beyond_p99);
  pool->rounds += rounds.qps.size();
  pool->served += rounds.served;
  pool->failures += rounds.failures;
  for (const auto& p : rounds.failed) pool->offenders.push_back(p);

  // Route check, outside the timed region: both phases of a sample of the
  // served queries.
  std::vector<std::pair<NodeId, NodeId>> sample =
      SampleQueries(inst, kCheckPairs);
  std::sort(sample.begin(), sample.end());
  RouteChecker checker(*inst.graph, &inst.disco_scheme().impl().nd());
  for (const auto& q : sample) {
    checker.Check(q.first, q.second, first_fn(q.first, q.second), true);
    checker.Check(q.first, q.second, later_fn(q.first, q.second), false);
  }
  pool->checked += checker.checked();
  pool->violations += checker.violations();
  pool->bounded += checker.bounded();
  for (const bool first : {true, false}) {
    pool->stretch_sum[first] += checker.MeanStretch(first) *
                                static_cast<double>(checker.stretched(first));
    pool->stretch_n[first] += static_cast<double>(checker.stretched(first));
  }
  for (const auto& p : checker.offenders()) pool->offenders.push_back(p);
  pool->fingerprints += checker.FingerprintHex();

  std::vector<double> state;
  times->Time("api.collect_state_s", [&] { state = scheme.CollectState(); });
  pool->state_max =
      std::max(pool->state_max, *std::max_element(state.begin(), state.end()));
  return inst;
}

}  // namespace

ServeConfig ServeConfigFor(const Options& opt) {
  if (opt.workload == "serve-later-8k") {
    // 16 x 100 = 1600 queries a round: 16 beyond its p99.
    return {opt.tiny ? 512u : 8192u, /*warm_store=*/true,
            /*first_packet=*/false, /*flash=*/false,
            /*queries_per_stream=*/100};
  }
  return {opt.tiny ? 256u : 1024u, /*warm_store=*/false,
          /*first_packet=*/true, /*flash=*/true,
          /*queries_per_stream=*/opt.tiny ? 100u : 500u};
}

void RunSetupChild(const Options& opt, const ServeConfig& cfg) {
  const auto before = CounterSnapshot();
  LayerTimes times;
  const Instance inst = SetUp(cfg, GraphParams(opt.seed, opt.setup_child),
                              opt.store_dir, opt.graph_fp, &times);
  const Clock::time_point ready = Clock::now();
  if (cfg.warm_store &&
      CounterDelta(before, CounterSnapshot(), kTreeDijkstras) != 0) {
    std::fprintf(stderr, "perfbench: warm start ran landmark Dijkstras\n");
    std::exit(1);
  }
  std::printf("perfbench-ready %lld\n",
              static_cast<long long>(SteadyNanos(ready)));
  std::fflush(stdout);
}

void RunServe(const Options& opt, const ServeConfig& cfg,
              const std::vector<std::string>& argv, Result* result,
              std::map<std::string, double>* values) {
  auto& v = *values;
  if (opt.trace) {
    // Executor layer: a worker-pool round trip. It runs first, before any
    // set-up, because workers replay this process up to its Run call.
    const auto before = CounterSnapshot();
    const RoundTrip trip = ExecRoundTrip(argv);
    const auto after = CounterSnapshot();
    const double dispatched = CounterDelta(before, after, kExecDispatched);
    v["exec.run_s"] = trip.wall_s;
    v["exec.dispatched"] = dispatched;
    v["exec.retries"] = CounterDelta(before, after, kExecRetries);
    v["exec.straggler_dupes"] =
        CounterDelta(before, after, kExecStragglerDupes);
    const double tasks = static_cast<double>(trip.workers);
    v["exec.useful_ratio"] = dispatched > 0 ? tasks / dispatched : 0;
    v["exec.busy_share"] = trip.task_s / (tasks * trip.wall_s);
    v["exec.cells_per_s"] = tasks / trip.wall_s;
    disco::obs::ConfigureTracing(std::string(kRunDir) + "/trace-" +
                                 opt.workload + ".json");
  }

  const std::string store_dir =
      std::string(kRunDir) + "/store-" + std::to_string(::getpid());
  if (cfg.warm_store) {
    std::string err;
    if (!disco::store::OpenProcessStore(store_dir, &err)) {
      std::fprintf(stderr, "perfbench: cannot open store %s: %s\n",
                   store_dir.c_str(), err.c_str());
      std::exit(1);
    }
  }

  // Untraced runs pool several graphs derived from the seed, because
  // per-graph throughput varies more between graphs than between runs.
  // The traced run serves one graph for a quarter of the time and spends
  // the rest in the layer probes.
  const int graphs = opt.trace ? 1 : kGraphs;
  const double budget =
      opt.trace ? opt.seconds / 4 : opt.seconds / static_cast<double>(graphs);
  LayerTimes times;
  Pooled pool;
  Instance inst;
  for (int i = 0; i < graphs; ++i) {
    inst = Instance();
    inst = ServeGraph(opt, cfg, argv, i, store_dir, budget, &times, &pool);
    result->Meta("workload_fingerprint_" + std::to_string(i),
                 inst.workload->FingerprintHex());
    result->Meta("n_" + std::to_string(i),
                 std::to_string(inst.graph->num_nodes()));
  }

  result->attempted = pool.served + pool.checked;
  result->failed = pool.failures + pool.violations;
  result->offenders = pool.offenders;
  result->correct = result->failed == 0;
  result->Meta("route_fingerprint", Sha256Hex(pool.fingerprints));
  result->Meta("routes_checked", std::to_string(pool.checked));
  result->Meta("routes_theorem_bounded", std::to_string(pool.bounded));
  result->Meta("graphs", std::to_string(graphs));
  result->Meta("serving_threads", std::to_string(kServeThreads));
  result->Meta("streams", std::to_string(kStreams));
  result->Meta("served", std::to_string(pool.served));
  result->Meta("fresh_process_setups", std::to_string(pool.setup_s.size()));

  if (!opt.trace) {
    double qps_sum = 0;
    for (const double q : pool.graph_qps) qps_sum += q;
    v["setup_s"] = Median(pool.setup_s);
    v["qps"] = qps_sum / static_cast<double>(pool.graph_qps.size());
    v["p50_us"] = Median(pool.round_p50_us);
    v["p99_us"] = Median(pool.round_p99_us);
    v["peak_rss_mb"] = pool.peak_rss;
    v["stretch_first_mean"] = pool.stretch_sum[1] / pool.stretch_n[1];
    v["stretch_later_mean"] = pool.stretch_sum[0] / pool.stretch_n[0];
    v["state_entries_max"] = pool.state_max;
    result->Meta("latency_samples", std::to_string(pool.served));
    result->Meta("rounds", std::to_string(pool.rounds));
    result->Meta("fewest_samples_beyond_round_p99",
                 std::to_string(pool.fewest_beyond_p99));
  } else {
    for (const char* name :
         {"graph.generate_s", "core.scheme_build_s", "api.prewarm_s",
          "serve.workload_build_s", "api.collect_state_s"}) {
      v[name] = times.Mean(name);
    }
    v["store.tree_loads"] = pool.first_setup_counts[kTreeStoreHits];
    v["routing.landmark_tree.dijkstras"] =
        pool.first_setup_counts[kTreeDijkstras];
    v["routing.landmark_tree.writebacks"] =
        pool.first_setup_counts[kTreeWritebacks];
    v["graph.generated"] = pool.first_setup_counts[kGraphGenerated];
    v["graph.mmap_loads"] = pool.first_setup_counts[kGraphMmapLoads];
    if (cfg.warm_store) {
      v["store.open_s"] = times.Mean("store.open_s");
      v["graph.view_s"] = times.Mean("graph.view_s");
    }

    // The DES campaign of a churn sweep cell, on a 512-node graph.
    const disco::Params params = GraphParams(opt.seed, 0);
    const Graph small = disco::ConnectedGnm(512, 4ull * 512, params.seed);
    times.Time("sim.campaign_s",
               [&] { RunChurnCampaign(small, params.seed); });
    v["sim.campaign_s"] = times.Total("sim.campaign_s");

    ProbeInputs in;
    in.graph = inst.graph.get();
    in.params = params;
    in.queries = SampleQueries(inst, 1000);
    in.workload = &*inst.workload;
    in.streams = &inst.streams;
    in.first_packet = cfg.first_packet;
    in.warm_store = cfg.warm_store;
    in.scratch_store_dir = store_dir + "-probe";
    in.seed = params.seed;
    RunLayerProbe(in, &times, values);
  }
  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);
  std::filesystem::remove_all(store_dir + "-probe", ec);
}

}  // namespace perfbench
