#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common.hpp"

namespace perfbench {

DaemonProcess::~DaemonProcess() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  if (stderr_fd_ >= 0) close(stderr_fd_);
}

bool DaemonProcess::start(const DaemonOptions& options, double timeout_s) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    if (spawn_once(options, timeout_s)) return true;
  }
  return false;
}

bool DaemonProcess::spawn_once(const DaemonOptions& options, double timeout_s) {
  metrics_out_ = options.metrics_out;
  std::remove(metrics_out_.c_str());
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return false;

  const std::string shards = std::to_string(options.shards);
  const std::string hosts = std::to_string(options.hosts);
  const std::string groups = std::to_string(options.groups);
  const std::string members = std::to_string(options.members);
  char capacity[32];
  std::snprintf(capacity, sizeof(capacity), "%.6g", options.capacity);

  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Child: stderr into the pipe (the readiness line), stdout discarded
    // (the same dump lands in --metrics-out), and die with the driver.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    pin_served();
    dup2(fds[1], STDERR_FILENO);
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) dup2(devnull, STDOUT_FILENO);
    execl(options.binary.c_str(), options.binary.c_str(), "--port", "0",
          "--shards", shards.c_str(), "--hosts", hosts.c_str(), "--groups",
          groups.c_str(), "--members", members.c_str(), "--capacity", capacity,
          "--policy", options.policy.c_str(), "--metrics-out",
          options.metrics_out.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  close(fds[1]);
  pid_ = pid;
  stderr_fd_ = fds[0];

  // Wait for "dmps_floord: listening on udp/<base>-<last>".
  std::string text;
  const std::int64_t deadline =
      mono_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (mono_ns() < deadline) {
    pollfd pfd{stderr_fd_, POLLIN, 0};
    const int left_ms =
        static_cast<int>((deadline - mono_ns()) / 1'000'000) + 1;
    if (::poll(&pfd, 1, left_ms) <= 0) continue;
    char buf[512];
    const ssize_t n = read(stderr_fd_, buf, sizeof(buf));
    if (n <= 0) break;  // the daemon died before listening
    text.append(buf, static_cast<std::size_t>(n));
    const auto at = text.find("listening on udp/");
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      unsigned base = 0;
      if (std::sscanf(text.c_str() + at, "listening on udp/%u", &base) == 1 &&
          base > 0) {
        base_port_ = static_cast<std::uint16_t>(base);
        return true;
      }
      break;
    }
  }
  // Not up: make sure it is gone before the next attempt.
  DaemonExit ignored;
  kill(pid_, SIGKILL);
  reap(&ignored, 5.0);
  std::fprintf(stderr, "perfbench: dmps_floord did not come up: %s\n",
               text.c_str());
  return false;
}

std::int64_t DaemonProcess::cpu_ns() const {
  if (pid_ <= 0) return 0;
  clockid_t clock;
  if (clock_getcpuclockid(pid_, &clock) != 0) return 0;
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void DaemonProcess::kill_hard() {
  if (pid_ > 0) kill(pid_, SIGKILL);
}

long DaemonProcess::peak_rss_kb() const {
  if (pid_ <= 0) return 0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

DaemonExit DaemonProcess::stop(double timeout_s) {
  DaemonExit out;
  if (pid_ <= 0) return out;
  kill(pid_, SIGTERM);
  reap(&out, timeout_s);
  std::ifstream file(metrics_out_);
  std::stringstream buffer;
  buffer << file.rdbuf();
  out.dump = buffer.str();
  return out;
}

void DaemonProcess::reap(DaemonExit* out, double timeout_s) {
  const std::int64_t deadline =
      mono_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  int status = 0;
  for (;;) {
    const pid_t got = waitpid(pid_, &status, WNOHANG);
    if (got == pid_) break;
    if (got < 0 && errno != EINTR) break;
    if (mono_ns() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      status = -1;
      break;
    }
    // Keep the daemon's stderr pipe from filling while it shuts down.
    char buf[512];
    pollfd pfd{stderr_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 5) > 0) {
      if (read(stderr_fd_, buf, sizeof(buf)) <= 0) usleep(1000);
    }
  }
  out->raw_status = status;
  out->exited_zero = status != -1 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  pid_ = -1;
  if (stderr_fd_ >= 0) {
    close(stderr_fd_);
    stderr_fd_ = -1;
  }
}

long long dump_counter(const std::string& dump, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const auto at = dump.find(key);
  if (at == std::string::npos) return -1;
  return std::strtoll(dump.c_str() + at + key.size(), nullptr, 10);
}

}  // namespace perfbench
