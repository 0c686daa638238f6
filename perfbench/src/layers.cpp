#include "layers.h"

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "alloc_count.h"
#include "api/registry.h"
#include "api/schemes.h"
#include "core/name_resolution.h"
#include "core/names.h"
#include "core/overlay.h"
#include "core/sloppy_group.h"
#include "graph/io.h"
#include "obs/trace.h"
#include "routing/address.h"
#include "routing/landmark_trees.h"
#include "routing/landmarks.h"
#include "serve/server.h"
#include "sim/metrics.h"
#include "store/artifact_store.h"
#include "store/tree_codec.h"

namespace perfbench {

using disco::NodeId;

namespace {

double PerCallMicros(double seconds, std::size_t calls) {
  return calls == 0 ? 0 : seconds * 1e6 / static_cast<double>(calls);
}

// Passes over the replayed queries per timed replay loop.
constexpr int kReplayPasses = 3;

// Times `per_query` over every replayed query, kReplayPasses times, as
// one loop inside a span. Returns microseconds per call.
double TimeLoopMicros(const std::string& name, const ProbeInputs& in,
                      LayerTimes* times,
                      const std::function<void(NodeId, NodeId)>& per_query) {
  times->Time(name, [&] {
    for (int pass = 0; pass < kReplayPasses; ++pass) {
      for (const auto& q : in.queries) per_query(q.first, q.second);
    }
  });
  return PerCallMicros(times->Total(name),
                       kReplayPasses * in.queries.size());
}

// The query-path replay loops, each timed as one span, then the tracing
// overhead on them: the same loops again right after the tracer is
// flushed off. Every span wraps a whole loop, so the overhead is
// expected to be about 0.
void ProbeReplayLoops(const ProbeInputs& in, disco::Disco& d,
                      LayerTimes* times,
                      std::map<std::string, double>* values) {
  disco::NdDisco& nd = d.nd();
  const std::vector<std::pair<std::string,
                              std::function<void(NodeId, NodeId)>>>
      loops = {
          {"core.route_first",
           [&](NodeId s, NodeId t) { (void)d.RouteFirst(s, t); }},
          {"core.route_later",
           [&](NodeId s, NodeId t) { (void)d.RouteLater(s, t); }},
          {"core.direct_path",
           [&](NodeId s, NodeId t) { (void)nd.DirectPath(s, t); }},
          {"routing.address_of",
           [&](NodeId, NodeId t) { (void)nd.addresses().AddressOf(t); }},
      };
  // One untimed pass first, so that both timed passes start warm.
  for (const auto& loop : loops) {
    for (const auto& q : in.queries) loop.second(q.first, q.second);
  }
  double traced_s = 0;
  for (const auto& loop : loops) {
    (*values)[loop.first + "_us"] =
        TimeLoopMicros(loop.first, in, times, loop.second);
    traced_s += times->Total(loop.first);
  }
  disco::obs::FlushTrace();
  LayerTimes untraced;
  double untraced_s = 0;
  for (const auto& loop : loops) {
    (void)TimeLoopMicros(loop.first, in, &untraced, loop.second);
    untraced_s += untraced.Total(loop.first);
  }
  (*values)["obs.trace_overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0;
}

// Build phases the Disco constructor runs, each called on its own.
void ProbeBuildPhases(const ProbeInputs& in, LayerTimes* times,
                      std::map<std::string, double>* values) {
  const disco::Graph& g = *in.graph;
  const NodeId n = g.num_nodes();
  disco::LandmarkSet landmarks;
  times->Time("routing.landmarks_s",
              [&] { landmarks = disco::SelectLandmarks(n, in.params); });
  times->Time("routing.addresses_s",
              [&] { disco::AddressBook book(g, landmarks); });
  std::unique_ptr<disco::NameTable> names;
  times->Time("core.names_s", [&] {
    names = std::make_unique<disco::NameTable>(
        disco::NameTable::Default(n));
  });
  std::unique_ptr<disco::SloppyGroups> groups;
  times->Time("core.sloppy_groups_s", [&] {
    groups = std::make_unique<disco::SloppyGroups>(
        *names, n, in.params.group_bits_offset);
  });
  times->Time("core.resolution_s", [&] {
    disco::ResolutionDb db(*names, landmarks,
                           in.params.resolution_virtual_points);
  });
  times->Time("core.overlay_s",
              [&] { disco::Overlay overlay(*names, *groups, in.params); });
  for (const char* name :
       {"routing.landmarks_s", "routing.addresses_s", "core.names_s",
        "core.sloppy_groups_s", "core.resolution_s", "core.overlay_s"}) {
    (*values)[name] = times->Total(name);
  }
}

// The store layer: snapshot view, tree-frame decode, store open.
void ProbeStore(const ProbeInputs& in, disco::NdDisco& nd,
                LayerTimes* times, std::map<std::string, double>* values) {
  const disco::Graph& g = *in.graph;
  std::vector<std::string> frames;
  if (in.warm_store) {
    disco::store::ArtifactStore* st = disco::store::ProcessStore();
    const std::string graph_fp = disco::GraphFingerprintHex(g);
    const std::string set_fp =
        disco::LandmarkSetFingerprintHex(nd.landmarks());
    for (const NodeId l : nd.landmarks().landmarks) {
      auto reader = st == nullptr
                        ? nullptr
                        : st->Open(disco::LandmarkTreeArtifactKey(
                              graph_fp, set_fp, l));
      if (reader == nullptr || reader->frame_count() < 1) continue;
      const auto frame = reader->frame(0);
      frames.emplace_back(reinterpret_cast<const char*>(frame.data()),
                          frame.size());
    }
  } else {
    for (const NodeId l : nd.landmarks().landmarks) {
      frames.push_back(disco::store::EncodeTree(g, *nd.LandmarkTree(l)));
    }
    // Zero-copy snapshot view over an in-memory snapshot.
    auto bytes =
        std::make_shared<const std::string>(disco::GraphSnapshotBytes(g));
    times->Time("graph.view_s", [&] {
      auto view = disco::ViewGraphSnapshot(
          bytes, disco::Span<const char>(bytes->data(), bytes->size()));
      if (!view || view->num_nodes() != g.num_nodes()) {
        std::fprintf(stderr, "perfbench: snapshot view failed\n");
        std::exit(1);
      }
    });
    (*values)["graph.view_s"] = times->Total("graph.view_s");
  }
  disco::ShortestPathTree tree;
  std::size_t decoded = 0;
  times->Time("store.tree_decode", [&] {
    for (const std::string& f : frames) {
      decoded += disco::store::DecodeTree(g, f, &tree) ? 1 : 0;
    }
  });
  if (decoded != frames.size() || frames.empty()) {
    std::fprintf(stderr, "perfbench: %zu of %zu tree frames decoded\n",
                 decoded, frames.size());
    std::exit(1);
  }
  (*values)["store.tree_decode_us"] =
      PerCallMicros(times->Total("store.tree_decode"), frames.size());
  if (!in.warm_store) {
    std::string err;
    bool opened = false;
    times->Time("store.open_s", [&] {
      opened = disco::store::OpenProcessStore(in.scratch_store_dir, &err);
    });
    if (!opened) {
      std::fprintf(stderr, "perfbench: cannot open %s: %s\n",
                   in.scratch_store_dir.c_str(), err.c_str());
      std::exit(1);
    }
    (*values)["store.open_s"] = times->Total("store.open_s");
  }
}

}  // namespace

void RunLayerProbe(const ProbeInputs& in, LayerTimes* times,
                   std::map<std::string, double>* values) {
  const disco::Graph& g = *in.graph;
  ProbeBuildPhases(in, times, values);

  std::unique_ptr<disco::api::RoutingScheme> scheme =
      disco::api::MakeScheme("disco", g, in.params);
  auto* disco_scheme = dynamic_cast<disco::api::DiscoScheme*>(scheme.get());
  disco::Disco& d = disco_scheme->impl();
  disco::NdDisco& nd = d.nd();
  times->Time("routing.landmark_trees_s", [&] { nd.PrewarmLandmarkTrees(); });
  times->Time("routing.vicinities_s",
              [&] { nd.PrewarmVicinities(scheme->AllNodes()); });
  (*values)["routing.landmark_trees_s"] =
      times->Total("routing.landmark_trees_s");
  (*values)["routing.vicinities_s"] = times->Total("routing.vicinities_s");

  // Allocation counts first, from the deterministic post-prewarm cache
  // state, so the counts repeat exactly from run to run.
  const auto before = CounterSnapshot();
  double hops = 0, fallbacks = 0;
  StartAllocCounting();
  for (const auto& q : in.queries) {
    const disco::Route r = d.RouteFirst(q.first, q.second);
    if (in.first_packet && !r.path.empty()) {
      hops += static_cast<double>(r.path.size() - 1);
      fallbacks += r.via_fallback ? 1 : 0;
    }
  }
  const std::uint64_t allocs_first = StopAllocCounting();
  StartAllocCounting();
  for (const auto& q : in.queries) {
    const disco::Route r = d.RouteLater(q.first, q.second);
    if (!in.first_packet && !r.path.empty()) {
      hops += static_cast<double>(r.path.size() - 1);
      fallbacks += r.via_fallback ? 1 : 0;
    }
  }
  const std::uint64_t allocs_later = StopAllocCounting();
  const auto after = CounterSnapshot();
  const double nq = static_cast<double>(in.queries.size());
  (*values)["core.allocs_per_route_first"] =
      static_cast<double>(allocs_first) / nq;
  (*values)["core.allocs_per_route_later"] =
      static_cast<double>(allocs_later) / nq;
  (*values)["core.route_hops_mean"] = hops / nq;
  (*values)["core.fallback_share"] = fallbacks / nq;
  (*values)["routing.landmark_tree.ram_hits"] =
      CounterDelta(before, after, kTreeRamHits);

  // FindContact and vicinity lookups are timed per call: FindContact
  // needs the source vicinity fetched outside its interval, and the
  // vicinity lookup reports a tail.
  double contact_s = 0;
  std::vector<double> get_us;
  get_us.reserve(2 * in.queries.size());
  {
    DISCO_TRACE_SPAN("routing.vicinity_and_contact");
    for (const auto& q : in.queries) {
      for (const NodeId v : {q.first, q.second}) {
        const Clock::time_point t0 = Clock::now();
        (void)nd.vicinity(v);
        get_us.push_back(SecondsSince(t0) * 1e6);
      }
      const auto vic = nd.vicinity(q.first);
      const Clock::time_point t0 = Clock::now();
      (void)d.groups().FindContact(*vic, q.second);
      contact_s += SecondsSince(t0);
    }
  }
  (*values)["core.find_contact_us"] = PerCallMicros(contact_s, nq);
  double get_sum = 0;
  for (const double v : get_us) get_sum += v;
  (*values)["routing.vicinity.get_us"] =
      get_sum / static_cast<double>(get_us.size());
  if (!PercentileIsReal(get_us.size(), 0.99)) {
    std::fprintf(stderr, "perfbench: %zu vicinity samples cannot carry a "
                         "p99\n", get_us.size());
    std::exit(1);
  }
  (*values)["routing.vicinity.get_p99_us"] = Percentile(&get_us, 0.99);

  // The serving harness alone: same streams and threads, no routing.
  disco::serve::ServeOptions opts;
  opts.threads = 2;  // the serving threads of the serve workloads
  std::vector<double> noop_ns;
  times->Time("serve.noop", [&] {
    for (int rep = 0; rep < 5; ++rep) {
      const disco::serve::ServeResult r = disco::serve::ServeWorkload(
          [](NodeId, NodeId) { return disco::Route{}; }, *in.workload,
          *in.streams, opts);
      noop_ns.push_back(r.wall_seconds * 1e9 /
                        static_cast<double>(r.served));
    }
  });
  (*values)["serve.noop_ns_per_query"] = Median(noop_ns);

  disco::StretchOptions sopt;
  sopt.num_pairs = 200;
  sopt.seed = in.seed;
  times->Time("sim.sample_stretch_s", [&] {
    (void)disco::SampleStretch(g, scheme->route_fn(disco::api::Phase::kLater),
                               sopt);
  });
  (*values)["sim.sample_stretch_s"] = times->Total("sim.sample_stretch_s");

  ProbeStore(in, nd, times, values);

  ProbeReplayLoops(in, d, times, values);
}

}  // namespace perfbench
