// perfbench_driver: the measuring half of the floor-service benchmark.
//
//   perfbench_driver --workload grant_release|join_storm|contended
//                    --seed N --seconds S --floord PATH --out DIR
//                    [--trace] [--inject kill|count]
//
// Untraced (the default), it spawns the real dmps_floord (--shards 2
// --hosts 4) and drives it from two lane threads, one batched socket each
// (load.hpp); end-to-end numbers come from the driver's own clocks, the
// daemon's CPU clock, its peak resident memory and its --metrics-out dump.
// With --trace it hosts the same composition in-process (traced.hpp) on a
// thread of its own, runs the workload once plain and once traced, and
// reports per-layer figures plus the tracing overhead (traced minus plain).
//
// Every run checks its outputs; a failed check prints the failure and no
// numbers. --inject is for the benchmark's own tests: `kill` SIGKILLs the
// daemon halfway through the measured phase, `count` skews the driver's
// grant count before the daemon cross-check. Either must fail the run.
//
// Output: one `metric <name> <value> <unit>` line per figure, the phase
// table, then a final `PERFBENCH_REPORT {json}` line for run.py.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "daemon.hpp"
#include "load.hpp"
#include "traced.hpp"

namespace perfbench {

namespace {

using dmps::floorctl::PolicyKind;

// ------------------------------------------------------------ workloads

struct Workload {
  std::string name;
  ServerSpec server;
  LoadConfig load;
  /// Open-loop offered rate, request + release datagrams per second, frozen
  /// once chosen so later changes are measured at the same load. 0 = the
  /// join storm.
  double nominal_ops_s = 0.0;
  bool capacity_search = false;
};

/// Joins in flight while members join at set-up (and leave at the end),
/// and joins or leaves in flight in a storm round: few enough that the
/// daemon's default socket buffer never overflows.
constexpr int kSetupWindow = 256;
constexpr int kStormWindow = 64;

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  w.server.shards = 2;
  w.server.hosts = 4;
  if (name == "grant_release") {
    // Host capacity far above the load: every request is a full grant.
    w.server.members = 4096;
    w.server.groups = 64;
    w.server.capacity = 1.0e6;
    w.load.qos_min = w.load.qos_max = 1.0;
    w.load.hold_short_ms = 1.0;
    w.load.full_grants_only = true;
    // About a fifth of the knee the rate search finds on a calm 4-vCPU
    // host (~190 000 ops/s): the daemon's default socket buffers hold about
    // 14 ms of traffic per shard at this rate, enough to ride out the host's
    // multi-millisecond vCPU preemptions without drop cascades (at 90 000
    // ops/s they overflowed and retransmissions snowballed).
    w.nominal_ops_s = 40000.0;
    w.capacity_search = true;
  } else if (name == "contended") {
    // Small hosts, mixed QoS and holds, queueing groups: most decisions
    // suspend, queue or promote. QoS above 0.45 leaves room for one holder
    // per host in most cases, so requests contend at a utilization of only
    // about one half. Higher load finds a cliff: once queue waits pass the
    // 40 ms retransmission interval every parked member polls, each release
    // sweeps the freed host's backlog, and the daemon tips into a
    // retransmission storm.
    w.server.members = 4096;
    w.server.groups = 64;
    w.server.capacity = 1.0;
    w.server.policy = PolicyKind::kQueueing;
    w.load.qos_min = 0.45;
    w.load.qos_max = 0.90;
    w.load.hold_short_ms = 0.25;
    w.load.hold_long_ms = 1.5;
    w.load.long_share = 0.4;
    w.nominal_ops_s = 5000.0;
  } else if (name == "join_storm") {
    w.server.members = 32768;
    w.server.groups = 4;
    w.server.capacity = 4.0;
  } else {
    w.name.clear();
  }
  w.load.members = w.server.members;
  w.load.topology.hosts = w.server.hosts;
  w.load.topology.groups = w.server.groups;
  w.load.topology.shards = w.server.shards;
  return w;
}

const char* policy_flag(PolicyKind policy) {
  return policy == PolicyKind::kQueueing ? "queueing" : "three_regime";
}

// --------------------------------------------------------------- report

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string floord;
  std::string out = ".";
  std::string inject;
};

/// Tail figures of one phase. The phase is cut by send time into
/// sub-windows of a fixed number of samples and each figure is the median
/// of the sub-windows' quantiles: a multi-millisecond hypervisor preemption
/// then spoils a few sub-windows' tails instead of the whole run's. p50 and
/// p90 use 100-sample sub-windows (10 samples beyond p90), p99 2000-sample
/// ones (20 beyond p99).
struct Tail {
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double late_p99_us = 0.0;
  std::size_t samples = 0;
};

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double windowed_quantile(const std::vector<std::int64_t>& values,
                         const std::vector<std::int64_t>& at,
                         std::int64_t begin, std::int64_t end,
                         std::size_t per_window, double q) {
  const int windows =
      std::max(1, static_cast<int>(values.size() / per_window));
  if (windows == 1 || end <= begin) {
    std::vector<std::int64_t> all = values;
    return quantile(all, q);
  }
  std::vector<std::vector<std::int64_t>> parts(static_cast<std::size_t>(windows));
  const double span = static_cast<double>(end - begin);
  for (std::size_t i = 0; i < values.size(); ++i) {
    int k = static_cast<int>(static_cast<double>(at[i] - begin) / span * windows);
    k = std::clamp(k, 0, windows - 1);
    parts[static_cast<std::size_t>(k)].push_back(values[i]);
  }
  std::vector<double> per_window_q;
  for (auto& part : parts) {
    if (!part.empty()) per_window_q.push_back(quantile(part, q));
  }
  return median_of(per_window_q);
}

Tail tail_of(const PhaseResult& p) {
  const auto rtt = [&p](std::size_t per_window, double q) {
    return windowed_quantile(p.rtt_ns, p.rtt_at_ns, p.begin_ns, p.end_ns,
                             per_window, q) / 1e3;
  };
  Tail t;
  t.samples = p.rtt_ns.size();
  t.p50_us = rtt(100, 0.50);
  t.p90_us = rtt(100, 0.90);
  t.p99_us = rtt(2000, 0.99);
  t.late_p99_us = windowed_quantile(p.late_ns, p.late_at_ns, p.begin_ns,
                                    p.end_ns, 2000, 0.99) / 1e3;
  return t;
}

class Report {
 public:
  void put(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }
  void put_all(const LayerMetrics& layer) {
    for (const auto& [name, v] : layer) put(name, v.first, v.second);
  }

  /// One row of the phase table (stdout and the report's "phases").
  void phase(const PhaseResult& p, const Tail& t) {
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "{\"name\":\"%s\",\"offered_ops_s\":%.1f,\"achieved_ops_s\":%.1f,"
        "\"window_s\":%.4f,\"samples\":%zu,\"rtt_p50_us\":%.2f,"
        "\"rtt_p99_us\":%.2f,\"late_p99_us\":%.2f,\"skipped\":%lld,"
        "\"driver_cpu_share\":%.4f,\"floord_cpu_share\":%.4f,"
        "\"retransmits\":%lld,\"failed_ops\":%lld,\"rcvbuf_errors\":%lld,"
        "\"drained\":%s}",
        p.name.c_str(), p.offered_ops_s, p.achieved_ops_s(), p.window_s,
        t.samples, t.p50_us, t.p99_us, t.late_p99_us,
        static_cast<long long>(p.skipped), p.driver_cpu_share(),
        p.server_cpu_share(), static_cast<long long>(p.counts.retransmits),
        static_cast<long long>(p.counts.failed_ops),
        static_cast<long long>(p.rcvbuf_errors), p.drained ? "true" : "false");
    phases_.push_back(buf);
    std::printf(
        "phase %-16s offered %9.0f achieved %9.0f ops/s  n=%-7zu p50 %8.1f us"
        "  p99 %9.1f us  late_p99 %7.1f us  driver_cpu %.3f  floord_cpu %.3f"
        "  retx %lld  rcvbuf_err %lld\n",
        p.name.c_str(), p.offered_ops_s, p.achieved_ops_s(), t.samples,
        t.p50_us, t.p99_us, t.late_p99_us, p.driver_cpu_share(),
        p.server_cpu_share(), static_cast<long long>(p.counts.retransmits),
        static_cast<long long>(p.rcvbuf_errors));
  }

  void print(const Options& opt, std::int64_t attempted, std::int64_t failed) {
    const bool ok = failures().empty();
    if (ok) {
      for (const auto& m : metrics_) {
        std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
    std::ostringstream json;
    json.precision(10);
    json << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
         << ",\"seconds\":" << opt.seconds
         << ",\"trace\":" << (opt.trace ? "true" : "false")
         << ",\"correct\":" << (ok ? "true" : "false")
         << ",\"attempted\":" << attempted << ",\"failed\":" << failed
         << ",\"failures\":[";
    for (std::size_t i = 0; i < failures().size(); ++i) {
      std::string f = failures()[i];
      std::replace(f.begin(), f.end(), '"', '\'');
      json << (i ? "," : "") << '"' << f << '"';
    }
    json << "],\"metrics\":{";
    if (ok) {
      for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const double v =
            std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
        json << (i ? "," : "") << '"' << metrics_[i].name
             << "\":{\"value\":" << v << ",\"unit\":\"" << metrics_[i].unit
             << "\"}";
      }
    }
    json << "},\"phases\":[";
    for (std::size_t i = 0; i < phases_.size(); ++i) {
      json << (i ? "," : "") << phases_[i];
    }
    json << "]}";
    std::printf("PERFBENCH_REPORT %s\n", json.str().c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> phases_;
};

// --------------------------------------------------------------- checks

/// The driver-side checks every run makes after a drain.
void check_driver(const LoadDriver& driver, const std::string& label) {
  const Counts& t = driver.totals();
  if (t.failed_ops != 0) {
    fail(label + ": " + std::to_string(t.failed_ops) +
         " ops unanswered after the retry budget");
  }
  if (t.wrong_replies != 0) {
    fail(label + ": " + std::to_string(t.wrong_replies) + " wrong replies");
  }
  if (t.decisions != t.requests) {
    fail(label + ": " + std::to_string(t.requests) + " requests but " +
         std::to_string(t.decisions) + " first decisions");
  }
  const std::int64_t grants = t.grants_full + t.grants_degraded + t.promoted;
  if (grants != t.release_acks) {
    fail(label + ": " + std::to_string(grants) + " grants but " +
         std::to_string(t.release_acks) + " acked releases");
  }
  if (driver.members_busy() != 0) {
    fail(label + ": " + std::to_string(driver.members_busy()) +
         " members mid-operation after the drain");
  }
}

/// Driver counts against the served side's wire.server.* counters, and
/// every wire.udp drop counter at 0.
void check_dump(const std::string& dump, const Counts& t,
                const std::string& label, bool skew) {
  if (dump.empty()) {
    fail(label + ": no metrics dump");
    return;
  }
  const std::int64_t grants =
      t.grants_full + t.grants_degraded + t.promoted + (skew ? 1 : 0);
  const struct {
    const char* counter;
    std::int64_t driver;
  } pairs[] = {
      {"wire.server.arbitrations", t.decisions},
      {"wire.server.grants", grants},
      {"wire.server.denies", t.denies},
      {"wire.server.queued", t.queued},
      {"wire.server.promotions", t.promoted},
      {"wire.server.suspends", t.suspends},
      {"wire.server.resumes", t.resumes},
  };
  for (const auto& p : pairs) {
    const long long daemon = dump_counter(dump, p.counter);
    if (daemon != p.driver) {
      fail(label + ": " + p.counter + " = " + std::to_string(daemon) +
           " but the driver counted " + std::to_string(p.driver));
    }
  }
  for (const char* drop :
       {"wire.udp.drop_malformed", "wire.udp.drop_version",
        "wire.udp.drop_unknown_kind", "wire.udp.drop_unhandled",
        "wire.udp.send_failures"}) {
    const long long v = dump_counter(dump, drop);
    if (v != 0) fail(label + ": " + drop + " = " + std::to_string(v));
  }
}

/// Dump-derived per-layer figures (the daemon's own counters).
void put_dump_layers(Report& report, const std::string& dump) {
  const auto rx = dmps::tools::parse_histogram(dump, "wire.udp.rx_batch");
  const auto tx = dmps::tools::parse_histogram(dump, "wire.udp.tx_batch");
  report.put("transport.rx_batch_mean", rx.mean(), "dgram/call");
  report.put("transport.tx_batch_mean", tx.mean(), "dgram/call");
  report.put("fproto.replay_hits",
             static_cast<double>(dump_counter(dump, "wire.server.replay_hits")),
             "count");
  report.put("fproto.notify_retransmits",
             static_cast<double>(
                 dump_counter(dump, "wire.server.notify_retransmits")),
             "count");
  const double requests =
      static_cast<double>(dump_counter(dump, "floor.requests"));
  if (requests > 0) {
    const auto share = [&](const char* counter) {
      return static_cast<double>(dump_counter(dump, counter)) / requests;
    };
    report.put("floor.outcome_share.granted", share("floor.granted"), "ratio");
    report.put("floor.outcome_share.degraded", share("floor.granted_degraded"),
               "ratio");
    report.put("floor.outcome_share.queued", share("floor.queued"), "ratio");
    report.put("floor.outcome_share.denied",
               share("floor.denied") + share("floor.aborted"), "ratio");
    report.put("floor.outcome_share.promoted", share("floor.promotions"),
               "ratio");
    report.put("floor.suspends_per_request", share("floor.suspends"), "ratio");
    report.put("floor.resumes_per_request", share("floor.resumes"), "ratio");
    report.put("floor.sweep_passes_per_release",
               ratio(static_cast<double>(dump_counter(dump, "floor.sweep_passes")),
                     static_cast<double>(dump_counter(dump, "floor.releases"))),
               "count");
  }
}

// ---------------------------------------------------------- served side

/// The measured window of each traced-run variant: 40% of the run, at most
/// 5 s, so the span buffer stays under about 100 MB.
double traced_budget_s(const Options& opt) {
  return std::clamp(opt.seconds * 0.4, 0.5, 5.0);
}

/// Either the spawned daemon or the in-process composition, behind one
/// start/cpu/stop surface.
class Served {
 public:
  Served(const Workload& w, const Options& opt, bool in_process, bool traced)
      : w_(w), opt_(opt), in_process_(in_process), traced_(traced) {}

  bool start() {
    if (in_process_) {
      // Spans a traced variant records: about four per op (a handler, an
      // arbitration call, a send, a share of a poll turn) over the measured
      // window plus warm-up and drain, and a dozen per member for the joins
      // and leaves around it.
      const double rate = std::max(w_.nominal_ops_s, 80000.0);
      const std::size_t capacity = static_cast<std::size_t>(
          rate * (traced_budget_s(opt_) + 3.0) * 4.0 + w_.server.members * 12.0);
      server_ = std::make_unique<InProcessServer>(w_.server, traced_, capacity);
      return server_->wait_ready(10.0);
    }
    DaemonOptions d;
    d.binary = opt_.floord;
    d.metrics_out = opt_.out + "/floord_metrics.json";
    d.shards = w_.server.shards;
    d.hosts = w_.server.hosts;
    d.groups = w_.server.groups;
    d.members = w_.server.members;
    d.capacity = w_.server.capacity;
    d.policy = policy_flag(w_.server.policy);
    daemon_ = std::make_unique<DaemonProcess>();
    return daemon_->start(d, 20.0);
  }
  std::uint16_t base_port() const {
    return in_process_ ? server_->base_port() : daemon_->base_port();
  }
  std::int64_t cpu_ns() const {
    return in_process_ ? server_->cpu_ns() : daemon_->cpu_ns();
  }
  void kill_hard() {
    if (daemon_) daemon_->kill_hard();
  }
  /// Graceful stop; checks the exit and returns the metrics dump.
  std::string stop(const std::string& label) {
    if (in_process_) {
      server_->stop();
      return server_->dump();
    }
    const DaemonExit exit = daemon_->stop(20.0);
    if (!exit.exited_zero) {
      fail(label + ": dmps_floord did not exit 0 on SIGTERM (status " +
           std::to_string(exit.raw_status) + ")");
    }
    return exit.dump;
  }
  /// The daemon's peak resident memory so far, in kB.
  double peak_rss_kb() const {
    const long kb = daemon_ ? daemon_->peak_rss_kb() : 0;
    if (kb <= 0) fail("cannot read dmps_floord's VmHWM");
    return static_cast<double>(kb);
  }
  const InProcessServer* server() const { return server_.get(); }

 private:
  const Workload& w_;
  const Options& opt_;
  bool in_process_;
  bool traced_;
  std::unique_ptr<DaemonProcess> daemon_;
  std::unique_ptr<InProcessServer> server_;
};

/// One served instance plus its driver, set up and ready for the workload:
/// for the floor workloads every member has joined; for the join storm the
/// daemon is ready for round 1.
struct Session {
  std::unique_ptr<Served> served;
  std::unique_ptr<LoadDriver> driver;
  double setup_s = 0.0;
};

Session set_up(const Workload& w, const Options& opt, bool in_process,
               bool traced, std::uint64_t stream) {
  Session s;
  // The driver's own set-up (sockets, members) happens before the clock
  // starts: setup_s is the served side's.
  s.served = std::make_unique<Served>(w, opt, in_process, traced);
  LoadConfig config = w.load;
  config.seed = opt.seed;
  Served* served = s.served.get();
  s.driver = std::make_unique<LoadDriver>(
      config, [served] { return served->cpu_ns(); });
  const std::int64_t t0 = mono_ns();
  if (!s.served->start()) {
    fail("the served side did not come up");
    return s;
  }
  s.driver->connect(s.served->base_port());
  if (w.nominal_ops_s > 0) {
    const PhaseResult joined = s.driver->join_all(kSetupWindow, 60.0, stream);
    if (!joined.drained) fail("setup: not every member joined");
  }
  s.setup_s = static_cast<double>(mono_ns() - t0) / 1e9;
  return s;
}

struct StormResult {
  std::vector<double> round_s;
  std::vector<double> join_p50_us;  // per round
  std::vector<double> join_p90_us;
  std::vector<double> join_p99_us;
  std::vector<double> cpu_ns_per_op;  // per round: joins and leaves
  std::size_t join_samples = 0;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t ops = 0;
  std::int64_t server_cpu_ns = 0;
  std::int64_t driver_cpu_ns = 0;
  std::int64_t rcvbuf_errors = 0;
};

/// Join-storm rounds (every member joins, then every member leaves) until
/// `budget_s` would be exceeded; at least two.
StormResult run_storm(Session& s, double budget_s, Report& report) {
  StormResult r;
  r.begin_ns = mono_ns();
  const std::int64_t cpu0 = s.served->cpu_ns();
  const std::int64_t rcv0 = udp_rcvbuf_errors();
  for (int round = 0;; ++round) {
    const double elapsed = static_cast<double>(mono_ns() - r.begin_ns) / 1e9;
    const double typical = r.round_s.empty() ? 0.0 : median_of(r.round_s);
    if (round >= 2 && elapsed + typical > budget_s) break;
    const auto stream = 1000 + 2 * static_cast<std::uint64_t>(round);
    PhaseResult join = s.driver->join_all(kStormWindow, 60.0, stream);
    join.name = "storm" + std::to_string(round) + ".join";
    PhaseResult leave = s.driver->leave_all(kStormWindow, 60.0, stream + 1);
    leave.name = "storm" + std::to_string(round) + ".leave";
    const Tail join_tail = tail_of(join);
    report.phase(join, join_tail);
    report.phase(leave, tail_of(leave));
    if (!join.drained || !leave.drained) {
      fail("join storm round " + std::to_string(round) + " did not complete");
      break;
    }
    r.round_s.push_back(join.window_s + leave.window_s);
    r.join_p50_us.push_back(join_tail.p50_us);
    r.join_p90_us.push_back(join_tail.p90_us);
    r.join_p99_us.push_back(join_tail.p99_us);
    r.join_samples += join_tail.samples;
    r.ops += join.counts.completed() + leave.counts.completed();
    r.cpu_ns_per_op.push_back(
        ratio(static_cast<double>(join.server_cpu_ns + leave.server_cpu_ns),
              static_cast<double>(join.counts.completed() + leave.counts.completed())));
    r.driver_cpu_ns += join.driver_cpu_ns + leave.driver_cpu_ns;
  }
  r.end_ns = mono_ns();
  r.server_cpu_ns = s.served->cpu_ns() - cpu0;
  r.rcvbuf_errors = udp_rcvbuf_errors() - rcv0;
  return r;
}

/// A capacity step's verdict. `valid` = the driver kept up (on schedule,
/// and less CPU than the daemon), so the step says something about the
/// daemon; `pass` = it met the latency and throughput limits.
struct StepVerdict {
  bool valid = false;
  bool pass = false;
  std::string why;
};

StepVerdict judge(const PhaseResult& p, const Tail& t) {
  StepVerdict v;
  v.valid = t.late_p99_us <= 1000.0 && p.skipped == 0 &&
            p.driver_cpu_ns < p.server_cpu_ns;
  if (p.counts.failed_ops > 0 || p.counts.wrong_replies > 0 || !p.drained) {
    v.why = "failed ops";
  } else if (t.p99_us > 10000.0) {
    v.why = "rtt p99 over 10 ms";
  } else if (static_cast<double>(p.counts.completed()) <
             0.99 * 2.0 * static_cast<double>(p.arrivals - p.skipped)) {
    // Against what the schedule actually offered in the window (Poisson
    // arrivals vary by ~1% over a short step), one request and one release
    // per arrival.
    v.why = "achieved under 99% of offered";
  } else {
    v.pass = true;
  }
  if (!v.valid) {
    v.why += v.why.empty() ? "" : ", ";
    v.why += t.late_p99_us > 1000.0 || p.skipped > 0
                 ? "driver late"
                 : "driver busier than the daemon";
  }
  return v;
}

// ------------------------------------------------------------- untraced

void run_untraced(const Workload& w, const Options& opt, Report& report,
                  std::int64_t* attempted, std::int64_t* failed) {
  // Set up several times (a fresh daemon each time), report the median,
  // keep the last instance for the measured phases.
  constexpr int kSetups = 21;
  std::vector<double> setups;
  Session s;
  for (int k = 0; k < kSetups; ++k) {
    if (s.served) {
      const std::string dump = s.served->stop("setup");
      check_dump(dump, s.driver->totals(), "setup", false);
      *attempted += s.driver->totals().started;
      s = Session{};
    }
    s = set_up(w, opt, false, false, 100 + static_cast<std::uint64_t>(k));
    if (!failures().empty()) return;
    setups.push_back(s.setup_s);
  }
  report.put("setup_s", median_of(setups), "s");

  // daemon_peak_rss_kb is read when the measured phase ends: the capacity
  // search after it overloads the daemon on purpose, and how far a step
  // overshoots would otherwise set the figure.
  double rtt_p50 = 0, rtt_p90 = 0, rtt_p99 = 0, cpu_per_op = 0, peak_rss_kb = 0;
  if (w.nominal_ops_s > 0) {
    if (opt.inject == "kill") {
      Served* served = s.served.get();
      s.driver->set_window_hook(0.5, [served] { served->kill_hard(); });
    }
    const double measure_s = w.capacity_search ? std::max(0.5, opt.seconds * 0.4)
                                               : opt.seconds * 0.9;
    const HostTicks ticks0 = host_ticks();
    const PhaseResult nominal =
        s.driver->open_loop("nominal", w.nominal_ops_s, 0.5, measure_s, 5.0, 1);
    report.put("host.steal_share", steal_share(ticks0, host_ticks()), "ratio");
    const Tail tail = tail_of(nominal);
    report.phase(nominal, tail);
    if (!nominal.drained) fail("nominal phase: members still busy after the drain");
    rtt_p50 = tail.p50_us;
    rtt_p90 = tail.p90_us;
    rtt_p99 = tail.p99_us;
    cpu_per_op = median_of(nominal.server_cpu_ns_per_op) / 1e3;
    peak_rss_kb = s.served->peak_rss_kb();
    report.put("achieved_ops_s", nominal.achieved_ops_s(), "ops/s");
    report.put("rtt_samples", static_cast<double>(tail.samples), "count");
    report.put("driver.cpu_share", nominal.driver_cpu_share(), "ratio");
    report.put("floord.cpu_share", nominal.server_cpu_share(), "ratio");
    report.put("driver.late_p99_us", tail.late_p99_us, "us");
    report.put("transport.rcvbuf_errors",
               static_cast<double>(nominal.rcvbuf_errors), "count");

    if (w.capacity_search && failures().empty()) {
      // Ramp x1.3 from the nominal rate until a step fails, then bisect
      // (geometrically) between the highest pass and the lowest failure
      // while the time budget lasts: the steps close in on the daemon's
      // knee, and capacity_ops_s is the highest of them the driver kept up
      // with.
      const double step_s = 0.6;
      const double warm_s = 0.2;
      const std::int64_t budget_end =
          mono_ns() + static_cast<std::int64_t>(
                          std::max(1.5, opt.seconds - measure_s - 0.5) * 1e9);
      const std::int64_t step_cost_ns =
          static_cast<std::int64_t>((step_s + warm_s + 0.1) * 1e9);
      // The highest passing rate where the driver kept up, and the highest
      // passing rate at all: when the second is higher, a faster step
      // passed without the driver keeping up, and the daemon's knee may lie
      // above capacity_ops_s.
      struct Best {
        double rate = 0.0;
        double driver_cpu_share = 0.0;
        double floord_cpu_share = 0.0;
        Tail tail;
      };
      Best best_valid;
      Best best_any;
      const auto record = [&](const PhaseResult& p, const Tail& t,
                              const StepVerdict& v) {
        const Best b{p.offered_ops_s, p.driver_cpu_share(), p.server_cpu_share(), t};
        if (v.pass && b.rate > best_any.rate) best_any = b;
        if (v.pass && v.valid && b.rate > best_valid.rate) best_valid = b;
      };
      record(nominal, tail, judge(nominal, tail));
      double hi = 0.0;
      double rate = w.nominal_ops_s * 1.3;
      int steps = 0;
      while (mono_ns() + step_cost_ns < budget_end) {
        char name[48];
        std::snprintf(name, sizeof(name), "step@%.0f", rate);
        const PhaseResult step = s.driver->open_loop(
            name, rate, warm_s, step_s, 5.0, 10 + static_cast<std::uint64_t>(steps));
        ++steps;
        const Tail step_tail = tail_of(step);
        report.phase(step, step_tail);
        if (step.counts.failed_ops > 0 || !step.drained) {
          fail("capacity step left unanswered ops");
          break;
        }
        const StepVerdict v = judge(step, step_tail);
        if (!v.why.empty()) std::printf("  %s: %s\n", name, v.why.c_str());
        record(step, step_tail, v);
        if (!v.pass) hi = rate;
        const double lo = std::max(best_any.rate, w.nominal_ops_s);
        rate = hi == 0.0 ? rate * 1.3 : std::sqrt(lo * hi);
      }
      const bool limited_by_driver = best_any.rate > best_valid.rate;
      report.put("capacity_ops_s", best_valid.rate, "ops/s");
      report.put("capacity.highest_pass_ops_s", best_any.rate, "ops/s");
      report.put("capacity.driver_cpu_share", best_valid.driver_cpu_share, "ratio");
      report.put("capacity.floord_cpu_share", best_valid.floord_cpu_share, "ratio");
      report.put("capacity.rtt_p99_us", best_valid.tail.p99_us, "us");
      report.put("capacity.late_p99_us", best_valid.tail.late_p99_us, "us");
      report.put("capacity.steps", steps, "count");
      report.put("capacity.limited_by_driver", limited_by_driver ? 1.0 : 0.0, "bool");
    }
    // End of the class: every member leaves.
    const PhaseResult left = s.driver->leave_all(kSetupWindow, 60.0, 200);
    if (!left.drained) fail("teardown: not every member left");
  } else {
    const HostTicks ticks0 = host_ticks();
    const StormResult storm = run_storm(s, opt.seconds, report);
    peak_rss_kb = s.served->peak_rss_kb();
    report.put("host.steal_share", steal_share(ticks0, host_ticks()), "ratio");
    const double storm_s = median_of(storm.round_s);
    rtt_p50 = median_of(storm.join_p50_us);
    rtt_p90 = median_of(storm.join_p90_us);
    rtt_p99 = median_of(storm.join_p99_us);
    report.put("storm_s", storm_s, "s");
    report.put("join_rtt_p50_us", rtt_p50, "us");
    report.put("join_rtt_p90_us", rtt_p90, "us");
    report.put("join_rtt_p99_us", rtt_p99, "us");
    report.put("rtt_samples", static_cast<double>(storm.join_samples), "count");
    report.put("storm_rounds", static_cast<double>(storm.round_s.size()), "count");
    cpu_per_op = median_of(storm.cpu_ns_per_op) / 1e3;
    report.put("storm_ops_s", ratio(2.0 * w.server.members, storm_s), "ops/s");
    const double wall_s = static_cast<double>(storm.end_ns - storm.begin_ns) / 1e9;
    report.put("driver.cpu_share",
               ratio(static_cast<double>(storm.driver_cpu_ns) / 1e9, wall_s), "ratio");
    report.put("floord.cpu_share",
               ratio(static_cast<double>(storm.server_cpu_ns) / 1e9, wall_s), "ratio");
    report.put("transport.rcvbuf_errors",
               static_cast<double>(storm.rcvbuf_errors), "count");
  }

  const std::string dump = s.served->stop("measured daemon");
  const Counts& totals = s.driver->totals();
  check_driver(*s.driver, "measured daemon");
  check_dump(dump, totals, "measured daemon", opt.inject == "count");
  *attempted += totals.started;
  *failed += totals.failed_ops + totals.wrong_replies;
  report.put("driver.retransmits", static_cast<double>(totals.retransmits), "count");
  report.put("failed_share",
             ratio(static_cast<double>(totals.failed_ops + totals.wrong_replies),
                   static_cast<double>(totals.started)),
             "ratio");
  put_dump_layers(report, dump);

  // The end-to-end figures every workload reports (BENCHMARK.json).
  report.put("rtt_p50_us", rtt_p50, "us");
  report.put("rtt_p90_us", rtt_p90, "us");
  report.put("rtt_p99_us", rtt_p99, "us");
  report.put("daemon_cpu_us_per_op", cpu_per_op, "us");
  report.put("daemon_peak_rss_kb", peak_rss_kb, "kB");
}

// --------------------------------------------------------------- traced

struct VariantResult {
  double rtt_p50_us = 0.0;
  double cpu_ns_per_op = 0.0;
};

/// One in-process run of the workload's main phase: plain (no decorators)
/// or traced. The traced one reports the per-layer figures.
VariantResult run_variant(const Workload& w, const Options& opt, bool traced,
                          Report& report, std::int64_t* attempted,
                          std::int64_t* failed) {
  const std::string label = traced ? "traced" : "plain";
  VariantResult v;
  Session s = set_up(w, opt, true, traced, 100);
  if (!failures().empty()) return v;
  const double budget_s = traced_budget_s(opt);
  TraceWindow window;
  PhaseResult main_phase;
  Tail tail;
  if (w.nominal_ops_s > 0) {
    main_phase = s.driver->open_loop(label + ".nominal", w.nominal_ops_s, 0.5,
                                     budget_s, 5.0, 1);
    tail = tail_of(main_phase);
    report.phase(main_phase, tail);
    if (!main_phase.drained) fail(label + ": members still busy after the drain");
    window = {main_phase.begin_ns, main_phase.end_ns, main_phase.server_cpu_ns,
              main_phase.counts.completed()};
    v.rtt_p50_us = tail.p50_us;
    const PhaseResult left = s.driver->leave_all(kSetupWindow, 60.0, 200);
    if (!left.drained) fail(label + ": not every member left");
  } else {
    const StormResult storm = run_storm(s, budget_s, report);
    window = {storm.begin_ns, storm.end_ns, storm.server_cpu_ns, storm.ops};
    v.rtt_p50_us = median_of(storm.join_p50_us);
    main_phase.window_s = static_cast<double>(storm.end_ns - storm.begin_ns) / 1e9;
    main_phase.driver_cpu_ns = storm.driver_cpu_ns;
    main_phase.server_cpu_ns = storm.server_cpu_ns;
    main_phase.rcvbuf_errors = storm.rcvbuf_errors;
  }
  v.cpu_ns_per_op = ratio(static_cast<double>(window.server_cpu_ns),
                          static_cast<double>(window.ops));

  const std::string dump = s.served->stop(label);
  const Counts& totals = s.driver->totals();
  check_driver(*s.driver, label);
  check_dump(dump, totals, label, opt.inject == "count");
  *attempted += totals.started;
  *failed += totals.failed_ops + totals.wrong_replies;

  if (!traced) {
    report.put("plain.rtt_p50_us", v.rtt_p50_us, "us");
    report.put("plain.cpu_ns_per_op", v.cpu_ns_per_op, "ns");
    return v;
  }
  const SpanRecorder& recorder = s.served->server()->recorder();
  if (recorder.dropped() > 0) {
    fail("traced: span buffer full, " + std::to_string(recorder.dropped()) +
         " spans dropped");
  }
  const std::string spans_path = opt.out + "/spans_" + w.name + ".tsv";
  if (!recorder.write(spans_path)) fail("traced: cannot write " + spans_path);
  report.put_all(summarize_trace(recorder, window, w.server.members / w.server.groups));
  put_dump_layers(report, dump);
  report.put("traced.rtt_p50_us", v.rtt_p50_us, "us");
  report.put("driver.cpu_share", main_phase.driver_cpu_share(), "ratio");
  report.put("floord.cpu_share", main_phase.server_cpu_share(), "ratio");
  if (w.nominal_ops_s > 0) report.put("driver.late_p99_us", tail.late_p99_us, "us");
  report.put("driver.retransmits", static_cast<double>(totals.retransmits), "count");
  report.put("transport.rcvbuf_errors",
             static_cast<double>(main_phase.rcvbuf_errors), "count");
  return v;
}

void run_traced(const Workload& w, const Options& opt, Report& report,
                std::int64_t* attempted, std::int64_t* failed) {
  const VariantResult plain = run_variant(w, opt, false, report, attempted, failed);
  if (!failures().empty()) return;
  const VariantResult traced = run_variant(w, opt, true, report, attempted, failed);
  report.put("trace.overhead.rtt_p50_us", traced.rtt_p50_us - plain.rtt_p50_us, "us");
  report.put("trace.overhead.cpu_ns_per_op",
             traced.cpu_ns_per_op - plain.cpu_ns_per_op, "ns");
}

bool parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (arg == "--workload") {
      opt->workload = value();
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt->trace = true;
    } else if (arg == "--floord") {
      opt->floord = value();
    } else if (arg == "--out") {
      opt->out = value();
    } else if (arg == "--inject") {
      opt->inject = value();
    } else {
      std::fprintf(stderr, "perfbench_driver: unknown argument '%s'\n",
                   arg.c_str());
      return false;
    }
  }
  if (opt->inject != "" && opt->inject != "kill" && opt->inject != "count") {
    std::fprintf(stderr, "perfbench_driver: --inject must be kill or count\n");
    return false;
  }
  if (!(opt->seconds > 0)) {
    std::fprintf(stderr, "perfbench_driver: --seconds must be positive\n");
    return false;
  }
  if (!opt->trace && opt->floord.empty()) {
    std::fprintf(stderr, "perfbench_driver: --floord is required\n");
    return false;
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse(argc, argv, &opt)) return 2;
  const Workload w = make_workload(opt.workload);
  if (w.name.empty()) {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s' "
                         "(grant_release|join_storm|contended)\n",
                 opt.workload.c_str());
    return 2;
  }
  mkdir(opt.out.c_str(), 0755);
  pin_driver_lane(0);

  Report report;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  if (opt.trace) {
    run_traced(w, opt, report, &attempted, &failed);
  } else {
    run_untraced(w, opt, report, &attempted, &failed);
  }
  report.print(opt, attempted, failed);
  return failures().empty() ? 0 : 1;
}
