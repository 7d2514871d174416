#include "common.hpp"

#include <sched.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

std::vector<std::string>& failures() {
  static std::vector<std::string> list;
  return list;
}

void fail(const std::string& what) {
  failures().push_back(what);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

HostTicks host_ticks() {
  std::ifstream stat("/proc/stat");
  std::string line;
  std::getline(stat, line);  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::istringstream fields(line);
  std::string label;
  fields >> label;
  HostTicks ticks;
  std::int64_t value = 0;
  for (int i = 0; fields >> value && i < 8; ++i) {
    ticks.total += value;
    if (i == 7) ticks.steal = value;
  }
  return ticks;
}

double steal_share(const HostTicks& before, const HostTicks& after) {
  const std::int64_t total = after.total - before.total;
  return total > 0 ? static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

namespace {

/// The CPUs this process may use, read once before any pinning narrows
/// them (forked daemons and the server thread inherit the cached list).
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

void pin_to(std::size_t first, std::size_t count) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.size() < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = first; i < first + count; ++i) CPU_SET(cpus[i], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

void pin_driver_lane(int /*lane*/) { pin_to(0, 2); }
void pin_served() { pin_to(2, 2); }

}  // namespace perfbench
