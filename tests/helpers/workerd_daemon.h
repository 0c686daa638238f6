// A disco_workerd subprocess for tests that drive the net backend
// against real daemons on localhost. The including test binary must be
// built with DISCO_WORKERD_PATH (see CMakeLists.txt).
#pragma once

#include <cstdlib>
#include <string>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#ifndef DISCO_WORKERD_PATH
#error "build must define DISCO_WORKERD_PATH (see CMakeLists.txt)"
#endif

namespace disco::test {

// One disco_workerd subprocess. The daemon prints its actual endpoint
// ("disco_workerd listening on HOST:PORT") once bound, which is how a
// port-0 launch learns where to connect.
class Daemon {
 public:
  // port 0 = kernel-assigned. Returns false if the daemon did not come up.
  bool Start(int port = 0) {
    int out_pipe[2];
    if (::pipe(out_pipe) != 0) return false;
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      const std::string listen =
          "--listen=127.0.0.1:" + std::to_string(port);
      ::execl(DISCO_WORKERD_PATH, DISCO_WORKERD_PATH, listen.c_str(),
              static_cast<char*>(nullptr));
      _exit(127);
    }
    ::close(out_pipe[1]);
    // Read the startup line a byte at a time (we only need one line and
    // must not over-read into nothing: the daemon keeps stdout open).
    std::string line;
    char c;
    while (line.find('\n') == std::string::npos) {
      const ssize_t n = ::read(out_pipe[0], &c, 1);
      if (n <= 0) break;
      line.push_back(c);
    }
    ::close(out_pipe[0]);
    const std::size_t colon = line.rfind(':');
    if (line.find("listening on") == std::string::npos ||
        colon == std::string::npos) {
      Kill();
      return false;
    }
    port_ = std::atoi(line.c_str() + colon + 1);
    return port_ > 0;
  }

  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }

  int port() const { return port_; }
  std::string HostPort() const {
    return "127.0.0.1:" + std::to_string(port_);
  }

  ~Daemon() { Kill(); }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

}  // namespace disco::test
