// Executor-layer tests: thread-backend semantics, wire round-trips, the
// transport-agnostic TaskScheduler's failure accounting, the net
// reconnect backoff step, and — through the exec_test_worker helper
// binary — the framed-worker driver's failure handling: a SIGKILLed
// worker's task rescheduled onto a survivor (converging to the same bytes
// as the in-process run), a poison task exhausting its retries with the
// failing task named, a drained pool surfacing an error, a straggler past
// the deadline getting a speculative duplicate, misbehaving workers
// (forged frame index, protocol-error frames) failing the run instead of
// corrupting it, and every worker's kObs goodbye merging into the
// driver's metrics. The failure-policy and goodbye cases run on both
// transports: over pipes (procs) and through one localhost disco_workerd
// daemon (net).
#include <gtest/gtest.h>

#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "exec/exec_internal.h"
#include "exec/executor.h"
#include "exec/task_scheduler.h"
#include "exec/wire.h"
#include "helpers/workerd_daemon.h"
#include "obs/metrics.h"

#ifndef EXEC_TEST_WORKER_PATH
#error "build must define EXEC_TEST_WORKER_PATH (see CMakeLists.txt)"
#endif

namespace disco {
namespace {

std::vector<std::string> ExpectedResults(std::size_t count) {
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < count; ++i) {
    expected.push_back("result-" + std::to_string(i));
  }
  return expected;
}

class ExecutorTest : public ::testing::Test {
 protected:
  // Each test is one independent "driver" process as far as job numbering
  // is concerned: its first Run call must claim job 0, because that is the
  // job its helper workers are told to serve.
  void SetUp() override { exec::ResetJobNumberingForTest(); }

  std::string TempPath(const std::string& name) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string path = ::testing::TempDir() + "exec_" +
                             info->name() + "_" + name + "_" +
                             std::to_string(::getpid());
    std::remove(path.c_str());
    return path;
  }

  exec::ExecOptions ProcOpts(std::size_t workers,
                             std::vector<std::string> helper_flags) {
    return Opts(exec::Backend::kProcs, workers, std::move(helper_flags));
  }

  // `workers` worker slots on either transport. Net slots all point at
  // one localhost daemon, started on first use.
  exec::ExecOptions Opts(exec::Backend backend, std::size_t workers,
                         std::vector<std::string> helper_flags) {
    exec::ExecOptions opts;
    opts.backend = backend;
    opts.workers = workers;
    opts.max_retries = 2;
    opts.straggler_ms = 0;
    opts.worker_argv = {EXEC_TEST_WORKER_PATH};
    for (std::string& f : helper_flags) {
      opts.worker_argv.push_back(std::move(f));
    }
    if (backend == exec::Backend::kNet) {
      if (daemon_.port() == 0) {
        EXPECT_TRUE(daemon_.Start());
      }
      opts.hosts.assign(workers, daemon_.HostPort());
    }
    return opts;
  }

  // Failure-policy and goodbye cases, each run once per transport.
  void PoisonTaskExhaustsRetries(exec::Backend backend);
  void ForgedIndexFailsTheRun(exec::Backend backend);
  void ProtocolErrorFailsTheRun(exec::Backend backend);
  void StragglerIsDuplicated(exec::Backend backend);
  void EveryWorkerShipsItsMetricsHome(exec::Backend backend);

  // The process backend never evaluates the task function driver-side.
  exec::TaskFn NotCalled() {
    return [](std::size_t) -> std::string {
      throw std::logic_error("driver-side task function must not run");
    };
  }

 private:
  test::Daemon daemon_;
};

TEST_F(ExecutorTest, WireRoundTripsExactly) {
  std::string buf;
  exec::PutU64(&buf, 0x0123456789abcdefULL);
  exec::PutDouble(&buf, 0.1);  // not exactly representable: bits must ship
  exec::PutString(&buf, std::string("with\0byte\n", 10));
  exec::WireReader r(buf);
  std::uint64_t u = 0;
  double d = 0;
  std::string s;
  ASSERT_TRUE(r.GetU64(&u));
  ASSERT_TRUE(r.GetDouble(&d));
  ASSERT_TRUE(r.GetString(&s));
  EXPECT_EQ(u, 0x0123456789abcdefULL);
  EXPECT_EQ(d, 0.1);
  EXPECT_EQ(s, std::string("with\0byte\n", 10));
  EXPECT_FALSE(r.GetU64(&u));  // exhausted
  EXPECT_FALSE(r.ok());

  exec::TextBundle bundle;
  bundle.parts = {"line one\n", ""};
  bundle.files = {{"a.tsv", "1\t2\n"}, {"b.tsv", ""}};
  exec::TextBundle parsed;
  ASSERT_TRUE(exec::TextBundle::Parse(bundle.Serialize(), &parsed));
  EXPECT_EQ(parsed.parts, bundle.parts);
  EXPECT_EQ(parsed.files, bundle.files);
  EXPECT_FALSE(exec::TextBundle::Parse("truncated", &parsed));
}

TEST_F(ExecutorTest, ThreadBackendReturnsResultsInTaskOrder) {
  const auto executor = exec::MakeExecutor(exec::ExecOptions{});
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(
      64, [](std::size_t i) { return "result-" + std::to_string(i); },
      &results);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(results, ExpectedResults(64));
}

TEST_F(ExecutorTest, ThreadBackendNamesTheLowestFailingTask) {
  const auto executor = exec::MakeExecutor(exec::ExecOptions{});
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(
      16,
      [](std::size_t i) -> std::string {
        if (i == 5 || i == 11) throw std::runtime_error("boom");
        return "ok";
      },
      &results);
  ASSERT_FALSE(status.ok);
  ASSERT_TRUE(status.task_known);
  EXPECT_EQ(status.failed_task, 5u);
  EXPECT_NE(status.error.find("task 5"), std::string::npos) << status.error;
}

TEST_F(ExecutorTest, ProcsBackendMatchesThreadBackendBytes) {
  const auto executor = exec::MakeExecutor(ProcOpts(3, {"--mode=echo"}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(8, NotCalled(), &results);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(results, ExpectedResults(8));
}

TEST_F(ExecutorTest, SigkilledWorkerTaskReschedulesAndBytesConverge) {
  const std::string marker = TempPath("marker");
  const auto executor = exec::MakeExecutor(
      ProcOpts(2, {"--mode=kill-self-task2", "--marker=" + marker}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(6, NotCalled(), &results);
  ASSERT_TRUE(status.ok) << status.error;
  // One worker really did die mid-task 2...
  struct stat st;
  EXPECT_EQ(::stat(marker.c_str(), &st), 0)
      << "the kill-self marker was never created: no worker died";
  // ...and the run still converged to exactly the in-process bytes,
  // task 2 included (rescheduled onto the surviving worker).
  EXPECT_EQ(results, ExpectedResults(6));
  std::remove(marker.c_str());
}

void ExecutorTest::PoisonTaskExhaustsRetries(exec::Backend backend) {
  exec::ExecOptions opts = Opts(backend, 2, {"--mode=fail-task1"});
  opts.max_retries = 1;
  const auto executor = exec::MakeExecutor(opts);
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(4, NotCalled(), &results);
  ASSERT_FALSE(status.ok);
  ASSERT_TRUE(status.task_known);
  EXPECT_EQ(status.failed_task, 1u);
  EXPECT_NE(status.error.find("task 1"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("2 attempt"), std::string::npos)
      << status.error;
  EXPECT_NE(status.error.find("poisoned"), std::string::npos)
      << status.error;
}

TEST_F(ExecutorTest, PoisonTaskExhaustsRetriesAndIsNamed) {
  PoisonTaskExhaustsRetries(exec::Backend::kProcs);
}

TEST_F(ExecutorTest, PoisonTaskExhaustsRetriesAndIsNamedOverNet) {
  PoisonTaskExhaustsRetries(exec::Backend::kNet);
}

TEST_F(ExecutorTest, DrainedWorkerPoolSurfacesAnError) {
  // Task 2 kills every worker that touches it; with retries to spare the
  // pool itself runs dry, which must be an error, not a hang.
  exec::ExecOptions opts = ProcOpts(2, {"--mode=kill-always-task2"});
  opts.max_retries = 5;
  const auto executor = exec::MakeExecutor(opts);
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(6, NotCalled(), &results);
  ASSERT_FALSE(status.ok);
  EXPECT_FALSE(status.error.empty());
}

TEST_F(ExecutorTest, SchedulerSkipsStaleDoneEntriesInPending) {
  // A task can sit in the pending queue after it already finished (the
  // straggler path re-queues an in-flight task; the original may then
  // complete first). Handing out the stale entry would run a done task
  // again and stall a live one; returning "no task" on first pop — the
  // old dispatch-loop bug — idles the slot while real work waits behind
  // the stale entry.
  std::vector<std::string> results;
  exec::TaskScheduler sched(3, /*max_retries=*/2, /*straggler_ms=*/0,
                            &results);
  const std::size_t s0 = sched.AddSlot();
  const std::size_t s1 = sched.AddSlot();
  const auto now = std::chrono::steady_clock::now();
  ASSERT_EQ(sched.NextTask(s0, now), 0u);
  sched.PushPendingFrontForTest(0);  // straggler-style duplicate entry
  ASSERT_TRUE(sched.OnResult(s0, 0, "r0"));  // original finishes first
  // The stale 0 at the queue front must be skipped, not dispensed and
  // not treated as "queue empty".
  EXPECT_EQ(sched.NextTask(s1, now), 1u);
  EXPECT_EQ(sched.NextTask(s0, now), 2u);
  ASSERT_TRUE(sched.OnResult(s1, 1, "r1"));
  ASSERT_TRUE(sched.OnResult(s0, 2, "r2"));
  EXPECT_TRUE(sched.done());
  EXPECT_EQ(results, (std::vector<std::string>{"r0", "r1", "r2"}));
}

TEST_F(ExecutorTest, SchedulerRejectsFramesForTasksTheSlotDoesNotHold) {
  // A frame index is only trusted when it names the task the slot was
  // handed. Crediting a worker-reported index blindly let a buggy worker
  // drive a task's inflight count negative and strand the run.
  std::vector<std::string> results;
  exec::TaskScheduler sched(2, 2, 0, &results);
  const std::size_t s0 = sched.AddSlot();
  ASSERT_EQ(sched.NextTask(s0, std::chrono::steady_clock::now()), 0u);
  EXPECT_FALSE(sched.OnResult(s0, 1, "forged"));
  EXPECT_NE(sched.error().find("task 1 while running task 0"),
            std::string::npos)
      << sched.error();

  std::vector<std::string> results2;
  exec::TaskScheduler idle(2, 2, 0, &results2);
  const std::size_t i0 = idle.AddSlot();
  EXPECT_FALSE(idle.OnResult(i0, 0, "unsolicited"));
  EXPECT_NE(idle.error().find("while idle"), std::string::npos)
      << idle.error();
}

TEST_F(ExecutorTest, EnvKnobsRejectOverflowAndGarbage) {
  // The env fallbacks must clamp-check exactly like flag parsing:
  // strtol on "99999999999" saturates to LONG_MAX (no ERANGE check meant
  // it was truncated into whatever int cast fell out) and garbage must
  // not read as 0.
  ASSERT_EQ(::setenv("DISCO_EXEC_RETRIES", "99999999999", 1), 0);
  EXPECT_EQ(exec::EffectiveMaxRetries(-1), 2);  // overflow -> default
  ASSERT_EQ(::setenv("DISCO_EXEC_RETRIES", "7x", 1), 0);
  EXPECT_EQ(exec::EffectiveMaxRetries(-1), 2);  // garbage -> default
  ASSERT_EQ(::setenv("DISCO_EXEC_RETRIES", "-3", 1), 0);
  EXPECT_EQ(exec::EffectiveMaxRetries(-1), 2);  // negative -> default
  ASSERT_EQ(::setenv("DISCO_EXEC_RETRIES", "7", 1), 0);
  EXPECT_EQ(exec::EffectiveMaxRetries(-1), 7);  // sane value honored
  ASSERT_EQ(::unsetenv("DISCO_EXEC_RETRIES"), 0);
  EXPECT_EQ(exec::EffectiveMaxRetries(-1), 2);  // unset -> default

  ASSERT_EQ(::setenv("DISCO_EXEC_NET_RECONNECTS", "99999999999", 1), 0);
  EXPECT_EQ(exec::EffectiveNetReconnects(), 5);
  ASSERT_EQ(::unsetenv("DISCO_EXEC_NET_RECONNECTS"), 0);
}

void ExecutorTest::ForgedIndexFailsTheRun(exec::Backend backend) {
  // Task 1's worker emits a result frame claiming to be task 0 (which
  // another slot holds or already finished). The run must fail with the
  // mismatch named — not credit task 0 with bytes it never produced.
  const auto executor =
      exec::MakeExecutor(Opts(backend, 2, {"--mode=wrong-index-task1"}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(4, NotCalled(), &results);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("while running task"), std::string::npos)
      << status.error;
}

TEST_F(ExecutorTest, WorkerForgingAWrongIndexFrameFailsTheRun) {
  ForgedIndexFailsTheRun(exec::Backend::kProcs);
}

TEST_F(ExecutorTest, WorkerForgingAWrongIndexFrameFailsTheRunOverNet) {
  ForgedIndexFailsTheRun(exec::Backend::kNet);
}

void ExecutorTest::ProtocolErrorFailsTheRun(exec::Backend backend) {
  // A protocol-error frame is attributable to no task, so it must fail
  // the whole run — the old text protocol echoed the garbage back as a
  // task error and charged an innocent task a retry.
  const auto executor =
      exec::MakeExecutor(Opts(backend, 2, {"--mode=badreq-task1"}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(4, NotCalled(), &results);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("protocol error"), std::string::npos)
      << status.error;
}

TEST_F(ExecutorTest, WorkerProtocolErrorFrameFailsTheRun) {
  ProtocolErrorFailsTheRun(exec::Backend::kProcs);
}

TEST_F(ExecutorTest, WorkerProtocolErrorFrameFailsTheRunOverNet) {
  ProtocolErrorFailsTheRun(exec::Backend::kNet);
}

void ExecutorTest::StragglerIsDuplicated(exec::Backend backend) {
  const std::string marker = TempPath("marker");
  exec::ExecOptions opts =
      Opts(backend, 2, {"--mode=sleep-task0", "--marker=" + marker});
  opts.straggler_ms = 100;  // task 0 sleeps 1200 ms: far past the deadline
  const auto executor = exec::MakeExecutor(opts);
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(2, NotCalled(), &results);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(results, ExpectedResults(2));
  // Task 0 appends one marker byte per attempt: the original plus the
  // speculative duplicate the idle worker picked up.
  std::ifstream in(marker, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str().size(), 2u)
      << "expected the straggling task to run exactly twice";
  std::remove(marker.c_str());
}

TEST_F(ExecutorTest, StragglerIsSpeculativelyDuplicated) {
  StragglerIsDuplicated(exec::Backend::kProcs);
}

TEST_F(ExecutorTest, StragglerIsSpeculativelyDuplicatedOverNet) {
  StragglerIsDuplicated(exec::Backend::kNet);
}

void ExecutorTest::EveryWorkerShipsItsMetricsHome(exec::Backend backend) {
  // Each idle worker answers the driver's goodbye with one kObs frame;
  // the drain merges each into the driver's registry as one source.
  const std::size_t before = obs::Global().MergedSourceCount();
  const auto executor = exec::MakeExecutor(Opts(backend, 2, {"--mode=echo"}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(4, NotCalled(), &results);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(results, ExpectedResults(4));
  EXPECT_EQ(obs::Global().MergedSourceCount(), before + 2);
}

TEST_F(ExecutorTest, EveryWorkerShipsItsMetricsHome) {
  EveryWorkerShipsItsMetricsHome(exec::Backend::kProcs);
}

TEST_F(ExecutorTest, EveryWorkerShipsItsMetricsHomeOverNet) {
  EveryWorkerShipsItsMetricsHome(exec::Backend::kNet);
}

TEST_F(ExecutorTest, NetBackoffIsClampedAndSaturates) {
  // Knobs near INT_MAX must not overflow when the delay doubles (signed
  // overflow is UB), and a zero first delay or budget must not mean
  // back-to-back reconnects or no attempt at all.
  ASSERT_EQ(::setenv("DISCO_EXEC_NET_BACKOFF_MS", "2147483647", 1), 0);
  ASSERT_EQ(::setenv("DISCO_EXEC_NET_BACKOFF_MAX_MS", "2147483647", 1), 0);
  exec::internal::Backoff b = exec::internal::Backoff::FromEnv();
  EXPECT_EQ(b.first_ms, INT_MAX);
  EXPECT_EQ(b.Next(b.first_ms), INT_MAX);
  EXPECT_EQ(b.Next(INT_MAX / 2 + 1), INT_MAX);

  ASSERT_EQ(::setenv("DISCO_EXEC_NET_BACKOFF_MS", "0", 1), 0);
  ASSERT_EQ(::setenv("DISCO_EXEC_NET_BACKOFF_MAX_MS", "0", 1), 0);
  ASSERT_EQ(::setenv("DISCO_EXEC_NET_RECONNECTS", "0", 1), 0);
  b = exec::internal::Backoff::FromEnv();
  EXPECT_EQ(b.first_ms, 1);
  EXPECT_EQ(b.max_ms, 1);
  EXPECT_EQ(b.attempts, 1);
  EXPECT_EQ(b.Next(b.first_ms), 1);

  ASSERT_EQ(::unsetenv("DISCO_EXEC_NET_BACKOFF_MS"), 0);
  ASSERT_EQ(::unsetenv("DISCO_EXEC_NET_BACKOFF_MAX_MS"), 0);
  ASSERT_EQ(::unsetenv("DISCO_EXEC_NET_RECONNECTS"), 0);
  b = exec::internal::Backoff::FromEnv();
  EXPECT_EQ(b.first_ms, 50);
  EXPECT_EQ(b.Next(50), 100);
  EXPECT_EQ(b.Next(1500), 2000);
  EXPECT_EQ(b.attempts, 5);
}

}  // namespace
}  // namespace disco
