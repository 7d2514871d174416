#pragma once
// The real dmps_floord as a child process: spawn it, wait until it listens,
// read its CPU clock while it runs, and stop it the way an operator would
// (SIGTERM, then require exit 0 and read its --metrics-out dump).

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

struct DaemonOptions {
  std::string binary;       // path to dmps_floord
  std::string metrics_out;  // its --metrics-out file
  int shards = 2;
  int hosts = 4;
  int groups = 4;
  int members = 64;
  double capacity = 4.0;
  std::string policy = "three_regime";
};

struct DaemonExit {
  bool exited_zero = false;
  int raw_status = 0;
  std::string dump;       // its --metrics-out file after shutdown
};

class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess();  // SIGKILLs and reaps a daemon still running
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// fork/exec the daemon on ephemeral ports and block until it prints its
  /// "listening" line. Retries a few times (the second shard's port, base+1,
  /// can be taken); false when it never came up.
  bool start(const DaemonOptions& options, double timeout_s);

  bool running() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }
  std::uint16_t base_port() const { return base_port_; }

  /// The daemon's user+sys CPU time so far (all threads), in ns.
  std::int64_t cpu_ns() const;

  /// The daemon's peak resident memory so far (VmHWM in /proc/<pid>/status,
  /// in kB); 0 when unreadable. Not the child's ru_maxrss: that also keeps
  /// the peak of the forked copy of the driver from before exec.
  long peak_rss_kb() const;

  /// SIGTERM, then wait for exit. A daemon that does not exit within
  /// `timeout_s` is SIGKILLed and reported as not exited_zero.
  DaemonExit stop(double timeout_s);

  /// SIGKILL without the graceful path (fault injection).
  void kill_hard();

 private:
  bool spawn_once(const DaemonOptions& options, double timeout_s);
  void reap(DaemonExit* out, double timeout_s);

  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  std::uint16_t base_port_ = 0;
  std::string metrics_out_;
};

/// A counter's value in a MetricsRegistry JSON dump; -1 when absent.
long long dump_counter(const std::string& dump, const std::string& name);

}  // namespace perfbench
