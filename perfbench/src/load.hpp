#pragma once
// The load driver: many floor-control members multiplexed over a few
// batched UDP sockets, on two threads.
//
// It speaks fproto through the public fproto::encode / decode_* functions
// over transport::UdpEndpoint — no FloorAgent per member, no socket per
// member — so its cost per operation is its share of the datagram I/O and
// little else. The members are split into two lanes. A lane owns one
// socket, one UdpLoop and its members, and runs each phase on a thread of
// its own, pinned to a CPU of its own; the lanes share nothing while a
// phase runs. Two shapes of load:
//
//   open loop   Poisson request arrivals at a fixed offered rate (each lane
//               offers half); each granted request holds the floor for a
//               drawn time, then releases. Latency counts from the
//               request's *scheduled* send time, so a stall in the driver
//               or the daemon shows.
//   closed loop a fixed window of joins (or leaves) in flight (each lane
//               keeps half); the next one goes out when an ack comes back.
//
// Retransmission follows dmps_loadgen's agents: 40 ms, doubling, 500 ms cap,
// 8 sends per operation; an operation unanswered after that is a failed op.
// A queued request keeps retransmitting as a poll, and each Queued replay
// refreshes its budget (FloorAgent semantics).
//
// Every reply is checked against the member's state; the counters below
// feed the end-of-run checks (exactly one decision per request, every
// grant released and acked, driver counts equal to the daemon's).

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "fproto/codec.hpp"
#include "transport/udp.hpp"
#include "wire_common.hpp"

namespace perfbench {

struct LoadConfig {
  dmps::tools::WireTopology topology;
  int members = 0;
  // Per-request draws: QoS share (same on all three dimensions) uniform in
  // [qos_min, qos_max]; hold exponential with mean hold_short_ms, or with
  // probability long_share, hold_long_ms.
  double qos_min = 0.01;
  double qos_max = 0.01;
  double hold_short_ms = 1.0;
  double hold_long_ms = 1.0;
  double long_share = 0.0;
  /// Any reply but a full grant is a wrong reply (grant_release).
  bool full_grants_only = false;
  std::uint64_t seed = 1;
};

/// Reply and operation counts. The driver keeps one running total; a
/// phase's figures are the difference of two snapshots.
struct Counts {
  std::int64_t started = 0;         // operations started (any kind)
  std::int64_t requests = 0;        // distinct requests sent
  std::int64_t decisions = 0;       // first decision per request
  std::int64_t grants_full = 0;     // first decision: full grant
  std::int64_t grants_degraded = 0; // first decision: degraded grant
  std::int64_t denies = 0;
  std::int64_t queued = 0;
  std::int64_t promoted = 0;        // queued requests granted later
  std::int64_t release_acks = 0;    // releases of granted requests, acked
  std::int64_t joins = 0;           // join acks
  std::int64_t leaves = 0;          // leave acks
  std::int64_t suspends = 0;        // distinct notifications acked
  std::int64_t resumes = 0;
  std::int64_t retransmits = 0;
  std::int64_t failed_ops = 0;      // unanswered after the retry budget
  std::int64_t wrong_replies = 0;   // conflicting or forbidden replies

  /// Operations answered: decisions + release acks + join/leave acks.
  std::int64_t completed() const {
    return decisions + release_acks + joins + leaves;
  }
  Counts minus(const Counts& o) const;
  Counts plus(const Counts& o) const;
};

struct PhaseResult {
  std::string name;
  double offered_ops_s = 0.0;  // requests + releases per second offered
  double window_s = 0.0;       // the measured window
  std::int64_t arrivals = 0;   // requests scheduled inside the window
  std::int64_t skipped = 0;    // arrivals that found no idle member
  Counts counts;               // answered inside the window
  // Samples, each with the (scheduled) send time it belongs to.
  std::vector<std::int64_t> rtt_ns;   // scheduled send -> first decision / ack
  std::vector<std::int64_t> rtt_at_ns;
  std::vector<std::int64_t> late_ns;  // actual send - scheduled send
  std::vector<std::int64_t> late_at_ns;
  std::int64_t begin_ns = 0;   // the window on the monotonic clock
  std::int64_t end_ns = 0;
  std::int64_t driver_cpu_ns = 0;
  std::int64_t server_cpu_ns = 0;
  /// Open loop: served-side CPU per completed op, per slice of the window.
  std::vector<double> server_cpu_ns_per_op;
  /// Open loop, per slice: the served side's CPU and this lane's completed
  /// ops (the lanes' slices share their boundaries).
  std::vector<std::int64_t> slice_server_cpu_ns;
  std::vector<std::int64_t> slice_ops;
  std::int64_t rcvbuf_errors = 0;
  bool drained = false;        // every member came to rest afterwards

  double achieved_ops_s() const {
    return window_s > 0 ? static_cast<double>(counts.completed()) / window_s
                        : 0.0;
  }
  double driver_cpu_share() const {
    return window_s > 0 ? static_cast<double>(driver_cpu_ns) / 1e9 / window_s
                        : 0.0;
  }
  double server_cpu_share() const {
    return window_s > 0 ? static_cast<double>(server_cpu_ns) / 1e9 / window_s
                        : 0.0;
  }
};

/// The kernel's Udp RcvbufErrors counter for this network namespace.
std::int64_t udp_rcvbuf_errors();

/// One lane: its members, one socket, one loop. Every call runs on the
/// thread that drives the lane for that phase.
class DriverLane {
 public:
  /// The lane `lane` of `lanes` owns the members whose block of `hosts`
  /// consecutive indices falls to it.
  DriverLane(const LoadConfig& config, int lane, int lanes,
             std::function<std::int64_t()> server_cpu_ns);
  ~DriverLane();
  DriverLane(const DriverLane&) = delete;
  DriverLane& operator=(const DriverLane&) = delete;

  /// Address the daemon's shards: ports base_port .. base_port+shards-1.
  void connect(std::uint16_t base_port);

  /// Closed loop: every member of the lane joins (or leaves) its group,
  /// `window` operations in flight, in a seeded random order. Returns the
  /// phase with join/leave round trips as rtt samples; drained=false on
  /// timeout or a failed op.
  PhaseResult closed_loop(bool join, int window, double timeout_s,
                          std::uint64_t stream);

  /// Open loop at `offered_ops_s` for this lane: arrivals from `start_ns`,
  /// the first `warm_s` unmeasured, then `measure_s` measured in slices,
  /// then a drain of up to `drain_s` with no new arrivals.
  PhaseResult open_loop(const std::string& name, double offered_ops_s,
                        std::int64_t start_ns, double warm_s, double measure_s,
                        double drain_s, std::uint64_t stream);

  /// While the current open-loop window runs, call `hook` once at
  /// `at_fraction` of it (fault injection).
  void set_window_hook(double at_fraction, std::function<void()> hook) {
    hook_fraction_ = at_fraction;
    hook_ = std::move(hook);
  }

  const Counts& totals() const { return totals_; }
  /// Members not at rest (mid-operation or failed).
  int members_busy() const { return busy_; }

 private:
  enum class St : std::uint8_t {
    kOut, kJoining, kIdle, kPending, kQueued, kHolding, kReleasing, kLeaving,
    kFailed,
  };
  struct Member {
    std::uint32_t id = 0;
    std::uint32_t group = 0;
    std::uint32_t host = 0;
    std::uint8_t shard = 0;
    St st = St::kOut;
    bool granted = false;
    bool sampled = false;  // the current op's latency belongs to the window
    std::uint8_t tries = 0;
    std::uint32_t seq = 0;
    std::uint32_t gen = 0;
    std::int64_t sched_ns = 0;
    std::int64_t hold_ns = 0;
    double qos = 0.0;
    std::uint64_t request_id() const {
      return (static_cast<std::uint64_t>(id) << 32) | seq;
    }
  };
  enum class Ev : std::uint8_t { kRetry, kHoldEnd };
  struct Event {
    std::int64_t at = 0;
    std::uint32_t member = 0;
    std::uint32_t gen = 0;
    Ev kind = Ev::kRetry;
    bool operator>(const Event& o) const { return at > o.at; }
  };

  void on_join_ack(const dmps::net::Message& msg);
  void on_leave_ack(const dmps::net::Message& msg);
  void on_grant(const dmps::net::Message& msg);
  void on_deny(const dmps::net::Message& msg);
  void on_queued(const dmps::net::Message& msg);
  void on_release_ack(const dmps::net::Message& msg);
  void on_notify(const dmps::net::Message& msg, bool suspend);

  Member* member_of_request(std::uint64_t request_id);
  Member* member_by_id(std::int64_t id);
  void send_op(Member& m);            // (re)transmit the member's current op
  void start_op(Member& m, St st, std::int64_t sched_ns);
  void finish_op(Member& m, St next);
  void arm_retry(Member& m, std::int64_t now);
  void granted(Member& m, bool degraded, bool first_decision);
  void first_decision(Member& m);
  void wrong(const char* what);
  void fail_op(Member& m);

  /// Process due arrivals and events, then arm the wakeup timer.
  void tick();
  void run_until(const std::function<bool()>& done, std::int64_t deadline_ns);

  LoadConfig config_;
  int lane_ = 0;
  std::uint64_t lane_salt_ = 0;  // keeps the lanes' draws apart
  std::function<std::int64_t()> server_cpu_ns_;
  dmps::transport::UdpLoop loop_;
  std::unique_ptr<dmps::transport::UdpEndpoint> endpoint_;
  std::vector<dmps::net::NodeId> servers_;  // [shard]
  int timer_fd_ = -1;
  std::int64_t armed_at_ = 0;

  std::vector<Member> members_;
  std::vector<std::int32_t> local_of_id_;  // member id - 1 -> index, or -1
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  std::unordered_set<std::uint64_t> notifies_seen_;  // shard << 48 | notify id
  Counts totals_;
  int busy_ = 0;  // members mid-operation

  // The running phase.
  std::mt19937_64 rng_;
  bool arrivals_on_ = false;
  double arrival_rate_ = 0.0;  // requests per ns
  std::int64_t next_arrival_ = 0;
  std::int64_t window_begin_ = 0;
  std::int64_t window_end_ = 0;
  PhaseResult* phase_ = nullptr;
  double hook_fraction_ = -1.0;
  std::function<void()> hook_;
  // Closed-loop state.
  std::vector<std::uint32_t> order_;
  std::size_t next_in_order_ = 0;
};

/// The driver: two lanes, each run on its own thread for every phase and
/// merged into one result. The calling thread only starts and joins them.
class LoadDriver {
 public:
  /// `server_cpu_ns` reads the served side's CPU clock (the daemon process,
  /// or the in-process server thread) at window boundaries; it is called
  /// from the lane threads.
  LoadDriver(const LoadConfig& config,
             std::function<std::int64_t()> server_cpu_ns);

  /// Address the daemon (its shard-0 port); before the first phase.
  void connect(std::uint16_t base_port);

  /// Closed loop over every member, `window` operations in flight in all.
  PhaseResult join_all(int window, double timeout_s, std::uint64_t stream);
  PhaseResult leave_all(int window, double timeout_s, std::uint64_t stream);

  /// Open loop at `offered_ops_s` (request + release datagrams per second,
  /// all lanes together): `warm_s` unmeasured, then `measure_s` measured,
  /// then a drain of up to `drain_s` with no new arrivals. `stream` seeds
  /// this phase's draws.
  PhaseResult open_loop(const std::string& name, double offered_ops_s,
                        double warm_s, double measure_s, double drain_s,
                        std::uint64_t stream);

  /// Fault injection: lane 0 calls `hook` once at `at_fraction` of the next
  /// open-loop window.
  void set_window_hook(double at_fraction, std::function<void()> hook) {
    lanes_.front()->set_window_hook(at_fraction, std::move(hook));
  }

  Counts totals() const;
  int members_busy() const;

 private:
  PhaseResult closed_loop(bool join, int window, double timeout_s,
                          std::uint64_t stream);
  /// Run `phase(lane index)` on one thread per lane and wait for all.
  std::vector<PhaseResult> on_lanes(
      const std::function<PhaseResult(std::size_t)>& phase);

  std::function<std::int64_t()> server_cpu_ns_;
  std::vector<std::unique_ptr<DriverLane>> lanes_;
};

}  // namespace perfbench
