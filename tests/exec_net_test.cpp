// Network-backend tests, driving real disco_workerd daemon processes on
// localhost: the net backend must converge to the same bytes as the
// in-process run, a SIGKILLed daemon's in-flight tasks must finish on the
// surviving daemon, a SIGKILLed worker must cost one retry and come back
// through the daemon's respawn-on-reconnect path, and a daemon restarted
// on the same port mid-run must be picked back up by the coordinator's
// backoff reconnect.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "exec/executor.h"
#include "exec/net_daemon.h"
#include "helpers/workerd_daemon.h"

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

class ExecNetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    exec::ResetJobNumberingForTest();
    // Keep reconnect cycles snappy: these tests intentionally kill
    // daemons and workers, and default backoff would stretch them.
    ::setenv("DISCO_EXEC_NET_BACKOFF_MS", "20", 1);
    ::setenv("DISCO_EXEC_NET_BACKOFF_MAX_MS", "200", 1);
    ::setenv("DISCO_EXEC_NET_RECONNECTS", "5", 1);
  }

  void TearDown() override {
    ::unsetenv("DISCO_EXEC_NET_BACKOFF_MS");
    ::unsetenv("DISCO_EXEC_NET_BACKOFF_MAX_MS");
    ::unsetenv("DISCO_EXEC_NET_RECONNECTS");
  }

  std::string TempPath(const std::string& name) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string path = ::testing::TempDir() + "net_" + info->name() +
                             "_" + name + "_" + std::to_string(::getpid());
    std::remove(path.c_str());
    return path;
  }

  exec::ExecOptions NetOpts(const std::vector<std::string>& hosts,
                            std::vector<std::string> helper_flags) {
    exec::ExecOptions opts;
    opts.backend = exec::Backend::kNet;
    opts.hosts = hosts;
    opts.max_retries = 2;
    opts.straggler_ms = 0;
    opts.worker_argv = {EXEC_TEST_WORKER_PATH};
    for (std::string& f : helper_flags) {
      opts.worker_argv.push_back(std::move(f));
    }
    return opts;
  }

  // The net backend never evaluates the task function coordinator-side.
  exec::TaskFn NotCalled() {
    return [](std::size_t) -> std::string {
      throw std::logic_error("driver-side task function must not run");
    };
  }
};

TEST_F(ExecNetTest, ParseHostPortValidates) {
  std::string host;
  int port = 0;
  EXPECT_TRUE(exec::ParseHostPort("localhost:8080", &host, &port));
  EXPECT_EQ(host, "localhost");
  EXPECT_EQ(port, 8080);
  EXPECT_FALSE(exec::ParseHostPort("noport", &host, &port));
  EXPECT_FALSE(exec::ParseHostPort(":8080", &host, &port));
  EXPECT_FALSE(exec::ParseHostPort("h:", &host, &port));
  EXPECT_FALSE(exec::ParseHostPort("h:0", &host, &port));
  EXPECT_TRUE(
      exec::ParseHostPort("h:0", &host, &port, /*allow_port_zero=*/true));
  EXPECT_FALSE(exec::ParseHostPort("h:65536", &host, &port));
  EXPECT_FALSE(exec::ParseHostPort("h:12x", &host, &port));
}

TEST_F(ExecNetTest, NetBackendMatchesInProcessBytes) {
  test::Daemon d1, d2;
  ASSERT_TRUE(d1.Start());
  ASSERT_TRUE(d2.Start());
  const auto executor = exec::MakeExecutor(
      NetOpts({d1.HostPort(), d2.HostPort()}, {"--mode=echo"}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(8, NotCalled(), &results);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(results, ExpectedResults(8));
}

TEST_F(ExecNetTest, SigkilledDaemonTasksFinishOnSurvivors) {
  // The worker handed task 2 SIGKILLs its own daemon (kill-parent mode):
  // the coordinator must charge the in-flight task, fail over to the
  // surviving daemon, and still converge to the in-process bytes. The
  // dead daemon's endpoint just burns its reconnect budget.
  test::Daemon d1, d2;
  ASSERT_TRUE(d1.Start());
  ASSERT_TRUE(d2.Start());
  const std::string marker = TempPath("marker");
  const auto executor = exec::MakeExecutor(
      NetOpts({d1.HostPort(), d2.HostPort()},
              {"--mode=kill-parent-task2", "--marker=" + marker}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(6, NotCalled(), &results);
  ASSERT_TRUE(status.ok) << status.error;
  struct stat st;
  EXPECT_EQ(::stat(marker.c_str(), &st), 0)
      << "the kill-parent marker was never created: no daemon died";
  EXPECT_EQ(results, ExpectedResults(6));
  std::remove(marker.c_str());
}

TEST_F(ExecNetTest, SigkilledWorkerRespawnsThroughReconnect) {
  // kill-self-task2 kills the worker, not the daemon: the daemon closes
  // the connection, the coordinator reconnects to the SAME daemon, and
  // the daemon spawns a fresh worker. With a single daemon slot this is
  // the only way the run can finish — proving the respawn path works.
  test::Daemon d1;
  ASSERT_TRUE(d1.Start());
  const std::string marker = TempPath("marker");
  const auto executor = exec::MakeExecutor(
      NetOpts({d1.HostPort()},
              {"--mode=kill-self-task2", "--marker=" + marker}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(6, NotCalled(), &results);
  ASSERT_TRUE(status.ok) << status.error;
  struct stat st;
  EXPECT_EQ(::stat(marker.c_str(), &st), 0)
      << "the kill-self marker was never created: no worker died";
  EXPECT_EQ(results, ExpectedResults(6));
  std::remove(marker.c_str());
}

TEST_F(ExecNetTest, DaemonRestartedOnSamePortIsPickedBackUp) {
  // Kill the only daemon mid-run, then restart it on the same port: the
  // coordinator's bounded-backoff reconnect must find the new daemon and
  // finish the run. Run() blocks, so it lives on a helper thread while
  // the test choreographs the kill/restart.
  test::Daemon d1;
  ASSERT_TRUE(d1.Start());
  const int port = d1.port();
  const std::string marker = TempPath("marker");
  // sleep-task0 holds task 0 long enough for the kill to land mid-task.
  const auto executor = exec::MakeExecutor(NetOpts(
      {d1.HostPort()}, {"--mode=sleep-task0", "--marker=" + marker}));
  std::vector<std::string> results;
  exec::RunResult status;
  std::thread run([&] { status = executor->Run(4, NotCalled(), &results); });

  // Wait for the worker to reach task 0 (it appends a marker byte), so
  // the daemon dies with work genuinely in flight.
  for (int i = 0; i < 500; ++i) {
    struct stat st;
    if (::stat(marker.c_str(), &st) == 0 && st.st_size > 0) break;
    ::usleep(10 * 1000);
  }
  d1.Kill();
  test::Daemon d2;
  ASSERT_TRUE(d2.Start(port));  // same endpoint, fresh daemon
  run.join();
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(results, ExpectedResults(4));
  std::remove(marker.c_str());
}

TEST_F(ExecNetTest, AllDaemonsUnreachableFailsTheRun) {
  // Nothing listens on the target port (a daemon is started just to
  // learn a free port, then killed). The coordinator must exhaust its
  // reconnect budget and fail, naming an unfinished task — not hang.
  test::Daemon d1;
  ASSERT_TRUE(d1.Start());
  const std::string host_port = d1.HostPort();
  d1.Kill();
  ::setenv("DISCO_EXEC_NET_RECONNECTS", "2", 1);
  const auto executor =
      exec::MakeExecutor(NetOpts({host_port}, {"--mode=echo"}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(4, NotCalled(), &results);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("unfinished"), std::string::npos)
      << status.error;
}

}  // namespace
}  // namespace disco
