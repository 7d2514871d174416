#pragma once
// Clocks and summary statistics shared by the perfbench driver.
//
// Every timestamp the benchmark takes is CLOCK_MONOTONIC nanoseconds, so
// spans recorded on the server thread, schedules kept by the driver thread
// and phase windows all live on one timeline.

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t read_clock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline std::int64_t mono_ns() { return read_clock(CLOCK_MONOTONIC); }
inline std::int64_t thread_cpu_ns() {
  return read_clock(CLOCK_THREAD_CPUTIME_ID);
}

/// Nearest-rank quantile of `v` (sorted in place); 0 for an empty sample.
inline double quantile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return static_cast<double>(v[rank]);
}

inline double mean_of(const std::vector<std::int64_t>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const std::int64_t x : v) sum += static_cast<double>(x);
  return sum / static_cast<double>(v.size());
}

inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Host-wide CPU ticks from /proc/stat: the ones stolen by the hypervisor
/// and the total. Their ratio over a phase says how much of the machine the
/// host took away while it was measured.
struct HostTicks {
  std::int64_t steal = 0;
  std::int64_t total = 0;
};
HostTicks host_ticks();
double steal_share(const HostTicks& before, const HostTicks& after);

/// CPU placement. On a host with at least four CPUs the driver's two lane
/// threads run on the first two CPUs, one each, and the served side (the
/// daemon process, or the in-process server thread) on the next two, so
/// nothing migrates onto another's CPU mid-phase; a thread-per-shard daemon
/// still gets two CPUs. On smaller hosts nothing is pinned.
void pin_driver_lane(int lane);
void pin_served();

/// The process-wide failure list: a check that fails appends here, and a
/// run with any entry prints no metrics.
std::vector<std::string>& failures();
void fail(const std::string& what);

}  // namespace perfbench
