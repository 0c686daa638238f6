#include "serve/server.h"

// disco-lint: allow-file(relaxed-atomic): the progress reporter's stop
// flag only — eventual visibility suffices, and the worker join (not this
// atomic) orders every result the run emits.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "obs/trace.h"
#include "serve/counters.h"

namespace disco::serve {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

}  // namespace

ServeResult ServeWorkload(const RouteFn& route, const Workload& w,
                          const std::vector<std::vector<Query>>& streams,
                          const ServeOptions& opts) {
  ServeResult result;
  const std::size_t num_streams = w.streams();
  int threads = opts.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  if (static_cast<std::size_t>(threads) > num_streams) {
    threads = static_cast<int>(num_streams);
  }
  result.threads = threads;
  result.stream_served.assign(num_streams, 0);
  result.stream_failures.assign(num_streams, 0);

  ServeCounters& live = Counters();
  live.Reset();

  std::vector<LatencyHistogram> histograms(
      static_cast<std::size_t>(threads));
  std::atomic<bool> done{false};

  const auto worker = [&](int t) {
    live.active_workers.Inc();
    DISCO_TRACE_SPAN("serve.workload");
    LatencyHistogram& hist = histograms[static_cast<std::size_t>(t)];
    for (std::size_t s = static_cast<std::size_t>(t); s < num_streams;
         s += static_cast<std::size_t>(threads)) {
      std::uint64_t served = 0;
      std::uint64_t failed = 0;
      for (const Query& q : streams[s]) {
        ++served;
        bool failure;
        if (q.dst_departed) {
          // A departed destination never reaches the route function: the
          // liveness check fails the query up front, deterministically.
          failure = true;
        } else {
          const Clock::time_point t0 = Clock::now();
          const Route r = route(q.src, q.dst);
          const Clock::time_point t1 = Clock::now();
          hist.Record(NsBetween(t0, t1));
          failure = !r.ok();
        }
        if (failure) ++failed;
      }
      result.stream_served[s] = served;
      result.stream_failures[s] = failed;
      // One shared-counter update per stream, not per query.
      live.queries.Add(served);
      live.failures.Add(failed);
    }
    live.active_workers.Dec();
  };

  std::thread reporter;
  if (opts.progress) {
    reporter = std::thread([&] {
      while (!done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
        std::fprintf(
            stderr, "[serve] served=%llu failures=%llu workers=%lld\n",
            static_cast<unsigned long long>(live.queries.Value()),
            static_cast<unsigned long long>(live.failures.Value()),
            static_cast<long long>(live.active_workers.Value()));
      }
    });
  }

  const Clock::time_point start = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (std::thread& th : pool) th.join();
  const Clock::time_point end = Clock::now();
  done.store(true, std::memory_order_relaxed);
  if (reporter.joinable()) reporter.join();

  for (const LatencyHistogram& h : histograms) result.latency.Merge(h);
  for (std::size_t s = 0; s < num_streams; ++s) {
    result.served += result.stream_served[s];
    result.failures += result.stream_failures[s];
  }
  result.wall_seconds =
      static_cast<double>(NsBetween(start, end)) * 1e-9;
  return result;
}

}  // namespace disco::serve
