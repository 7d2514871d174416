#include "load.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.hpp"

namespace perfbench {

using dmps::floorctl::GroupId;
using dmps::floorctl::HostId;
using dmps::floorctl::MemberId;
using dmps::fproto::MsgKind;
using dmps::fproto::wire_type;

namespace {

/// How far ahead of its time due work may run when the driver is awake
/// anyway (see tick()): an arrival up to 100 us early (then timed from its
/// actual send), a release or retransmission up to 250 us early. Without
/// it the driver wakes for every arrival and every hold end, and costs more
/// CPU per operation than the daemon it measures.
constexpr std::int64_t kArrivalSlackNs = 100'000;
constexpr std::int64_t kEventSlackNs = 250'000;
/// Wakeup times are rounded down to this grid, so most turns leave the
/// armed timer alone (re-arming is a syscall); the slack covers the early
/// wakeup.
constexpr std::int64_t kTimerGridNs = 50'000;

/// dmps_loadgen's agent retransmission: 40 ms, doubling, 500 ms cap, 8
/// sends per operation (about 2.1 s before it counts as failed).
constexpr std::int64_t kRetryNs = 40'000'000;
constexpr std::int64_t kRetryCapNs = 500'000'000;
constexpr int kMaxTries = 8;

/// Lanes the members are split over: one thread and one socket each.
constexpr int kLanes = 2;

/// Length of the CPU-per-op slices of an open-loop window.
constexpr double kSliceS = 0.5;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double uniform01(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * (1.0 / 9007199254740992.0);
}

double exponential(std::mt19937_64& rng, double mean) {
  return -std::log(1.0 - uniform01(rng)) * mean;
}

/// The driver must never be the side that drops: find the endpoint's
/// socket by its bound port (UdpEndpoint does not expose its fd) and raise
/// its buffers to what the host allows.
void grow_buffers(std::uint16_t port) {
  for (int fd = 3; fd < 4096; ++fd) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
        addr.sin_family != AF_INET || ntohs(addr.sin_port) != port) {
      continue;
    }
    int type = 0;
    socklen_t type_len = sizeof(type);
    if (getsockopt(fd, SOL_SOCKET, SO_TYPE, &type, &type_len) != 0 ||
        type != SOCK_DGRAM) {
      continue;
    }
    const int bytes = 4 << 20;
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
    setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
    return;
  }
}

}  // namespace

namespace {

template <typename Op>
Counts combine(const Counts& a, const Counts& b, Op op) {
  Counts d;
  d.started = op(a.started, b.started);
  d.requests = op(a.requests, b.requests);
  d.decisions = op(a.decisions, b.decisions);
  d.grants_full = op(a.grants_full, b.grants_full);
  d.grants_degraded = op(a.grants_degraded, b.grants_degraded);
  d.denies = op(a.denies, b.denies);
  d.queued = op(a.queued, b.queued);
  d.promoted = op(a.promoted, b.promoted);
  d.release_acks = op(a.release_acks, b.release_acks);
  d.joins = op(a.joins, b.joins);
  d.leaves = op(a.leaves, b.leaves);
  d.suspends = op(a.suspends, b.suspends);
  d.resumes = op(a.resumes, b.resumes);
  d.retransmits = op(a.retransmits, b.retransmits);
  d.failed_ops = op(a.failed_ops, b.failed_ops);
  d.wrong_replies = op(a.wrong_replies, b.wrong_replies);
  return d;
}

}  // namespace

Counts Counts::minus(const Counts& o) const {
  return combine(*this, o, std::minus<std::int64_t>());
}

Counts Counts::plus(const Counts& o) const {
  return combine(*this, o, std::plus<std::int64_t>());
}

std::int64_t udp_rcvbuf_errors() {
  std::ifstream snmp("/proc/net/snmp");
  std::string header;
  std::string values;
  std::string line;
  while (std::getline(snmp, line)) {
    if (line.rfind("Udp:", 0) != 0) continue;
    if (header.empty()) {
      header = line;
    } else {
      values = line;
      break;
    }
  }
  std::istringstream names(header);
  std::istringstream nums(values);
  std::string name;
  std::string num;
  while (names >> name && nums >> num) {
    if (name == "RcvbufErrors") return std::strtoll(num.c_str(), nullptr, 10);
  }
  return 0;
}

DriverLane::DriverLane(const LoadConfig& config, int lane, int lanes,
                       std::function<std::int64_t()> server_cpu_ns)
    : config_(config),
      lane_(lane),
      lane_salt_(splitmix64(static_cast<std::uint64_t>(lane) + 1)),
      server_cpu_ns_(std::move(server_cpu_ns)),
      rng_(config.seed) {
  endpoint_ = std::make_unique<dmps::transport::UdpEndpoint>(
      loop_, dmps::fproto::wire_schema(), 0);
  auto& ep = *endpoint_;
  grow_buffers(ep.local_port());
  bool owned = true;
  owned &= ep.on(wire_type(MsgKind::kJoinAck),
                 [this](const dmps::net::Message& m) { on_join_ack(m); });
  owned &= ep.on(wire_type(MsgKind::kLeaveAck),
                 [this](const dmps::net::Message& m) { on_leave_ack(m); });
  owned &= ep.on(wire_type(MsgKind::kGrant),
                 [this](const dmps::net::Message& m) { on_grant(m); });
  owned &= ep.on(wire_type(MsgKind::kDeny),
                 [this](const dmps::net::Message& m) { on_deny(m); });
  owned &= ep.on(wire_type(MsgKind::kQueued),
                 [this](const dmps::net::Message& m) { on_queued(m); });
  owned &= ep.on(wire_type(MsgKind::kReleaseAck),
                 [this](const dmps::net::Message& m) { on_release_ack(m); });
  owned &= ep.on(wire_type(MsgKind::kSuspend),
                 [this](const dmps::net::Message& m) { on_notify(m, true); });
  owned &= ep.on(wire_type(MsgKind::kResume),
                 [this](const dmps::net::Message& m) { on_notify(m, false); });
  if (!owned) fail("driver: reply handler registration refused");

  timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  // An expiry forces run_until() to re-arm on its next turn.
  if (timer_fd_ < 0 || !loop_.add_fd(timer_fd_, [this] {
        std::uint64_t expirations = 0;
        while (read(timer_fd_, &expirations, sizeof(expirations)) > 0) {
        }
        armed_at_ = -1;
      })) {
    fail("driver: timerfd setup failed");
  }

  const auto& topo = config_.topology;
  for (int i = 0; i < config_.members; ++i) {
    if ((i / topo.hosts) % lanes != lane) continue;
    Member m;
    m.id = static_cast<std::uint32_t>(topo.member_of(i));
    m.group = static_cast<std::uint32_t>(topo.group_of(i));
    m.host = static_cast<std::uint32_t>(topo.host_of(i));
    m.shard = static_cast<std::uint8_t>(topo.shard_of_host(static_cast<int>(m.host)));
    if (local_of_id_.size() < m.id) local_of_id_.resize(m.id, -1);
    local_of_id_[m.id - 1] = static_cast<std::int32_t>(members_.size());
    members_.push_back(m);
  }
}

DriverLane::~DriverLane() {
  if (timer_fd_ >= 0) {
    loop_.remove_fd(timer_fd_);
    close(timer_fd_);
  }
}

void DriverLane::connect(std::uint16_t base_port) {
  servers_.clear();
  for (int k = 0; k < config_.topology.shards; ++k) {
    servers_.push_back(endpoint_->add_peer(
        "127.0.0.1", static_cast<std::uint16_t>(base_port + k)));
  }
}

// ------------------------------------------------------------ operations

DriverLane::Member* DriverLane::member_by_id(std::int64_t id) {
  if (id < 1 || id > static_cast<std::int64_t>(local_of_id_.size())) return nullptr;
  const std::int32_t local = local_of_id_[static_cast<std::size_t>(id - 1)];
  return local < 0 ? nullptr : &members_[static_cast<std::size_t>(local)];
}

DriverLane::Member* DriverLane::member_of_request(std::uint64_t request_id) {
  return member_by_id(static_cast<std::int64_t>(request_id >> 32));
}

void DriverLane::send_op(Member& m) {
  namespace fp = dmps::fproto;
  const MemberId member{m.id};
  const GroupId group{m.group};
  MsgKind kind;
  dmps::net::Payload payload;
  switch (m.st) {
    case St::kJoining:
      kind = MsgKind::kJoin;
      payload = fp::encode(fp::JoinMsg{member, group});
      break;
    case St::kLeaving:
      kind = MsgKind::kLeave;
      payload = fp::encode(fp::LeaveMsg{member, group});
      break;
    case St::kPending:
    case St::kQueued: {
      fp::RequestMsg request;
      request.request_id = m.request_id();
      request.member = member;
      request.group = group;
      request.host = HostId{m.host};
      request.qos = dmps::media::QosRequirement{m.qos, m.qos, m.qos};
      kind = MsgKind::kRequest;
      payload = fp::encode(request);
      break;
    }
    case St::kReleasing:
      kind = MsgKind::kRelease;
      payload = fp::encode(fp::ReleaseMsg{m.request_id(), member, group});
      break;
    default:
      return;
  }
  endpoint_->send(servers_[m.shard], wire_type(kind), std::move(payload));
}

void DriverLane::start_op(Member& m, St st, std::int64_t sched_ns) {
  if (m.st == St::kOut || m.st == St::kIdle) ++busy_;
  ++totals_.started;
  m.st = st;
  m.tries = 1;
  ++m.gen;
  m.sched_ns = sched_ns;
  send_op(m);
  arm_retry(m, mono_ns());
}

void DriverLane::finish_op(Member& m, St next) {
  ++m.gen;  // voids the pending retry (and hold) events
  const bool was_busy = m.st != St::kOut && m.st != St::kIdle;
  const bool now_busy = next != St::kOut && next != St::kIdle;
  if (was_busy && !now_busy) --busy_;
  if (!was_busy && now_busy) ++busy_;
  m.st = next;
}

void DriverLane::arm_retry(Member& m, std::int64_t now) {
  double delay = static_cast<double>(kRetryNs);
  for (int i = 1; i < m.tries && delay < kRetryCapNs; ++i) delay *= 2;
  delay = std::min(delay, static_cast<double>(kRetryCapNs));
  events_.push(Event{now + static_cast<std::int64_t>(delay),
                     static_cast<std::uint32_t>(&m - members_.data()), m.gen,
                     Ev::kRetry});
}

void DriverLane::wrong(const char* what) {
  ++totals_.wrong_replies;
  if (totals_.wrong_replies <= 5) {
    std::fprintf(stderr, "perfbench: wrong reply: %s\n", what);
  }
}

void DriverLane::fail_op(Member& m) {
  ++totals_.failed_ops;
  if (totals_.failed_ops <= 5) {
    std::fprintf(stderr, "perfbench: member %u op unanswered after %d tries\n",
                 m.id, m.tries);
  }
  finish_op(m, St::kFailed);
}

void DriverLane::first_decision(Member& m) {
  ++totals_.decisions;
  if (phase_ != nullptr && m.sampled) {
    phase_->rtt_ns.push_back(mono_ns() - m.sched_ns);
    phase_->rtt_at_ns.push_back(m.sched_ns);
  }
}

void DriverLane::granted(Member& m, bool degraded, bool first) {
  if (first) {
    first_decision(m);
    if (degraded) {
      ++totals_.grants_degraded;
      if (config_.full_grants_only) wrong("degraded grant");
    } else {
      ++totals_.grants_full;
    }
  } else {
    ++totals_.promoted;
  }
  m.granted = true;
  finish_op(m, St::kHolding);
  events_.push(Event{mono_ns() + m.hold_ns,
                     static_cast<std::uint32_t>(&m - members_.data()), m.gen,
                     Ev::kHoldEnd});
}

// --------------------------------------------------------------- replies

void DriverLane::on_join_ack(const dmps::net::Message& msg) {
  const auto ack = dmps::fproto::decode_join_ack(msg);
  Member* m = ack ? member_by_id(ack->member.value()) : nullptr;
  if (m == nullptr) return wrong("undecodable join ack");
  if (m->st != St::kJoining || ack->group.value() != m->group) return;  // a duplicate
  if (!ack->accepted) wrong("join refused");
  ++totals_.joins;
  if (phase_ != nullptr) {
    phase_->rtt_ns.push_back(mono_ns() - m->sched_ns);
    phase_->rtt_at_ns.push_back(m->sched_ns);
  }
  finish_op(*m, St::kIdle);
  if (next_in_order_ < order_.size()) {
    Member& next = members_[order_[next_in_order_++]];
    start_op(next, St::kJoining, mono_ns());
  }
}

void DriverLane::on_leave_ack(const dmps::net::Message& msg) {
  const auto ack = dmps::fproto::decode_leave_ack(msg);
  Member* m = ack ? member_by_id(ack->member.value()) : nullptr;
  if (m == nullptr) return wrong("undecodable leave ack");
  if (m->st != St::kLeaving || ack->group.value() != m->group) return;  // a duplicate
  if (!ack->accepted) wrong("leave refused");
  ++totals_.leaves;
  if (phase_ != nullptr) {
    phase_->rtt_ns.push_back(mono_ns() - m->sched_ns);
    phase_->rtt_at_ns.push_back(m->sched_ns);
  }
  finish_op(*m, St::kOut);
  if (next_in_order_ < order_.size()) {
    Member& next = members_[order_[next_in_order_++]];
    start_op(next, St::kLeaving, mono_ns());
  }
}

void DriverLane::on_grant(const dmps::net::Message& msg) {
  const auto grant = dmps::fproto::decode_grant(msg);
  Member* m = grant ? member_of_request(grant->request_id) : nullptr;
  if (m == nullptr) return wrong("undecodable grant");
  if (grant->request_id != m->request_id()) return;  // an earlier request's
  // Otherwise a replay of a grant we already hold.
  if (m->st == St::kPending || m->st == St::kQueued) {
    granted(*m, grant->degraded, m->st == St::kPending);
  }
}

void DriverLane::on_deny(const dmps::net::Message& msg) {
  const auto deny = dmps::fproto::decode_deny(msg);
  Member* m = deny ? member_of_request(deny->request_id) : nullptr;
  if (m == nullptr) return wrong("undecodable deny");
  if (deny->request_id != m->request_id()) return;  // an earlier request's
  if (m->st == St::kPending || m->st == St::kQueued) {
    if (m->st == St::kPending) first_decision(*m);
    ++totals_.denies;
    if (config_.full_grants_only) wrong("deny");
    finish_op(*m, St::kIdle);
  } else if (m->granted) {
    wrong("deny after grant");
  }
}

void DriverLane::on_queued(const dmps::net::Message& msg) {
  const auto queued = dmps::fproto::decode_queued(msg);
  Member* m = queued ? member_of_request(queued->request_id) : nullptr;
  if (m == nullptr) return wrong("undecodable queued");
  if (queued->request_id != m->request_id()) return;  // an earlier request's
  if (m->st == St::kPending) {
    first_decision(*m);
    ++totals_.queued;
    if (config_.full_grants_only) wrong("queued");
    // Parked, not lost: the retry timer keeps running as a poll, with a
    // fresh budget.
    m->st = St::kQueued;
    m->tries = 1;
  } else if (m->st == St::kQueued) {
    m->tries = 1;  // a poll replay: the daemon still parks us
  }
}

void DriverLane::on_release_ack(const dmps::net::Message& msg) {
  const auto ack = dmps::fproto::decode_release_ack(msg);
  Member* m = ack ? member_of_request(ack->request_id) : nullptr;
  if (m == nullptr) return wrong("undecodable release ack");
  if (ack->request_id != m->request_id() || m->st != St::kReleasing) return;
  ++totals_.release_acks;
  finish_op(*m, St::kIdle);
}

void DriverLane::on_notify(const dmps::net::Message& msg, bool suspend) {
  namespace fp = dmps::fproto;
  std::uint64_t notify_id = 0;
  std::uint64_t request_id = 0;
  if (suspend) {
    const auto n = fp::decode_suspend(msg);
    if (!n) return wrong("undecodable suspend");
    notify_id = n->notify_id;
    request_id = n->request_id;
    endpoint_->send(
        msg.from, wire_type(MsgKind::kSuspendAck),
        fp::encode(fp::SuspendAckMsg{notify_id}));
  } else {
    const auto n = fp::decode_resume(msg);
    if (!n) return wrong("undecodable resume");
    notify_id = n->notify_id;
    request_id = n->request_id;
    endpoint_->send(
        msg.from, wire_type(MsgKind::kResumeAck),
        fp::encode(fp::ResumeAckMsg{notify_id}));
  }
  // Notification ids are per server (per shard): the peer's NodeId on this
  // endpoint is its shard index. A notification goes to one member, so to
  // one lane.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(msg.from.value()) << 48) | notify_id;
  if (!notifies_seen_.insert(key).second) return;  // a retransmission, acked again
  ++(suspend ? totals_.suspends : totals_.resumes);

  // A suspended holder keeps its hold and releases as drawn; only a
  // Suspend that overtook the grant it implies changes the member's state
  // (being suspended means the request was granted, as in FloorAgent).
  Member* m = member_of_request(request_id);
  if (m == nullptr || request_id != m->request_id()) return;  // stale grant
  if (suspend && (m->st == St::kPending || m->st == St::kQueued)) {
    granted(*m, true, m->st == St::kPending);
  }
}

// ------------------------------------------------------------------ loop

void DriverLane::tick() {
  const std::int64_t now = mono_ns();
  // Work due within the slack rides on this wakeup instead of costing one
  // of its own; an arrival sent early is timed from its actual send.
  const std::int64_t horizon = now + kArrivalSlackNs;
  while (arrivals_on_ && next_arrival_ <= horizon) {
    const std::int64_t sched = next_arrival_;
    if (sched >= window_end_) {
      arrivals_on_ = false;
      break;
    }
    // Fixed draw order per arrival, so the seed alone sets every arrival
    // time, member pick, QoS and hold.
    const std::uint64_t pick = rng_();
    const double qos = config_.qos_min +
                       (config_.qos_max - config_.qos_min) * uniform01(rng_);
    const bool long_hold = uniform01(rng_) < config_.long_share;
    const double hold_ms = exponential(
        rng_, long_hold ? config_.hold_long_ms : config_.hold_short_ms);
    next_arrival_ += static_cast<std::int64_t>(
        std::max(1.0, exponential(rng_, 1.0 / arrival_rate_)));

    const bool in_window = sched >= window_begin_;
    if (in_window) ++phase_->arrivals;
    // The drawn member, or the next idle one after it.
    const std::size_t n = members_.size();
    std::size_t idx = static_cast<std::size_t>(pick % n);
    std::size_t probed = 0;
    while (probed < n && members_[idx].st != St::kIdle) {
      idx = idx + 1 == n ? 0 : idx + 1;
      ++probed;
    }
    if (probed == n) {
      if (in_window) ++phase_->skipped;
      continue;
    }
    Member& m = members_[idx];
    ++m.seq;
    m.qos = qos;
    m.hold_ns = static_cast<std::int64_t>(hold_ms * 1e6);
    m.granted = false;
    m.sampled = in_window;
    ++totals_.requests;
    if (in_window) {
      phase_->late_ns.push_back(std::max<std::int64_t>(0, now - sched));
      phase_->late_at_ns.push_back(sched);
    }
    start_op(m, St::kPending, std::min(sched, now));
  }

  while (!events_.empty() && events_.top().at <= now + kEventSlackNs) {
    const Event ev = events_.top();
    events_.pop();
    Member& m = members_[ev.member];
    if (ev.gen != m.gen) continue;  // the op moved on
    if (ev.kind == Ev::kHoldEnd) {
      if (m.st == St::kHolding) start_op(m, St::kReleasing, now);
      continue;
    }
    if (m.st == St::kOut || m.st == St::kIdle || m.st == St::kHolding ||
        m.st == St::kFailed) {
      continue;
    }
    if (m.tries >= kMaxTries) {
      fail_op(m);
      continue;
    }
    ++m.tries;
    ++totals_.retransmits;
    send_op(m);
    arm_retry(m, now);
  }
}

void DriverLane::run_until(const std::function<bool()>& done,
                           std::int64_t deadline_ns) {
  for (;;) {
    tick();
    const std::int64_t now = mono_ns();
    if (done() || now >= deadline_ns) return;
    std::int64_t wake = deadline_ns;
    if (arrivals_on_) wake = std::min(wake, next_arrival_);
    if (!events_.empty()) wake = std::min(wake, events_.top().at);
    wake -= wake % kTimerGridNs;
    if (wake != armed_at_) {
      itimerspec spec{};
      spec.it_value.tv_sec = wake / 1'000'000'000;
      spec.it_value.tv_nsec = wake % 1'000'000'000;
      timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
      armed_at_ = wake;
    }
    loop_.poll(dmps::util::Duration::millis(wake <= now ? 0 : 50));
  }
}

// ---------------------------------------------------------------- phases

PhaseResult DriverLane::closed_loop(bool join, int window, double timeout_s,
                                    std::uint64_t stream) {
  PhaseResult result;
  result.name = join ? "join" : "leave";
  rng_.seed(splitmix64(config_.seed ^ splitmix64(stream) ^ lane_salt_));
  order_.clear();
  const St from = join ? St::kOut : St::kIdle;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].st == from) order_.push_back(static_cast<std::uint32_t>(i));
  }
  std::shuffle(order_.begin(), order_.end(), rng_);
  next_in_order_ = 0;
  const std::int64_t target = static_cast<std::int64_t>(order_.size());

  phase_ = &result;
  const Counts before = totals_;
  const std::int64_t t0 = mono_ns();
  const std::int64_t cpu0 = thread_cpu_ns();
  while (next_in_order_ < order_.size() &&
         next_in_order_ < static_cast<std::size_t>(window)) {
    start_op(members_[order_[next_in_order_++]],
             join ? St::kJoining : St::kLeaving, mono_ns());
  }
  const auto done = [&] {
    const Counts d = totals_.minus(before);
    return (join ? d.joins : d.leaves) + d.failed_ops >= target;
  };
  run_until(done, t0 + static_cast<std::int64_t>(timeout_s * 1e9));
  const std::int64_t t1 = mono_ns();
  result.begin_ns = t0;
  result.end_ns = t1;
  result.window_s = static_cast<double>(t1 - t0) / 1e9;
  result.counts = totals_.minus(before);
  result.driver_cpu_ns = thread_cpu_ns() - cpu0;
  result.drained = (join ? result.counts.joins : result.counts.leaves) == target;
  phase_ = nullptr;
  order_.clear();
  next_in_order_ = 0;
  return result;
}

PhaseResult DriverLane::open_loop(const std::string& name, double offered_ops_s,
                                  std::int64_t start_ns, double warm_s,
                                  double measure_s, double drain_s,
                                  std::uint64_t stream) {
  PhaseResult result;
  result.name = name;
  result.offered_ops_s = offered_ops_s;
  const std::int64_t expected =
      static_cast<std::int64_t>(offered_ops_s * measure_s / 2.0) + 1024;
  for (auto* v : {&result.rtt_ns, &result.rtt_at_ns, &result.late_ns,
                  &result.late_at_ns}) {
    v->reserve(static_cast<std::size_t>(expected * 5 / 4));
  }
  rng_.seed(splitmix64(config_.seed ^ splitmix64(stream) ^ lane_salt_));

  // One request per arrival, one release per granted request: the
  // offered datagram-operation rate is twice the arrival rate.
  arrival_rate_ = offered_ops_s / 2.0 / 1e9;
  next_arrival_ = start_ns;
  window_begin_ = start_ns + static_cast<std::int64_t>(warm_s * 1e9);
  window_end_ = window_begin_ + static_cast<std::int64_t>(measure_s * 1e9);
  arrivals_on_ = true;
  phase_ = &result;

  // Lane 0 reads the clocks the lanes share: the served side's CPU and the
  // kernel's drop counter.
  const bool reader = lane_ == 0;
  const auto server_cpu = [&] { return reader ? server_cpu_ns_() : 0; };
  const auto never = [] { return false; };
  run_until(never, window_begin_);
  const Counts before = totals_;
  const std::int64_t cpu0 = thread_cpu_ns();
  const std::int64_t server0 = server_cpu();
  const std::int64_t rcv0 = reader ? udp_rcvbuf_errors() : 0;
  // The window in slices of about 0.5 s, each with the served side's CPU
  // and the lane's completed operations (a burst of host noise then spoils
  // one slice). Every lane cuts the same slices.
  const int slices = std::max(1, static_cast<int>(measure_s / kSliceS + 0.5));
  const std::int64_t hook_at =
      window_begin_ + static_cast<std::int64_t>(hook_fraction_ * measure_s * 1e9);
  std::int64_t slice_cpu = server0;
  std::int64_t slice_ops = before.completed();
  for (int k = 1; k <= slices; ++k) {
    const std::int64_t slice_end =
        window_begin_ + (window_end_ - window_begin_) * k / slices;
    if (hook_ && hook_at <= slice_end) {
      run_until(never, hook_at);
      hook_();
      hook_ = nullptr;
    }
    run_until(never, slice_end);
    const std::int64_t cpu = server_cpu();
    const std::int64_t ops = totals_.completed();
    result.slice_server_cpu_ns.push_back(cpu - slice_cpu);
    result.slice_ops.push_back(ops - slice_ops);
    slice_cpu = cpu;
    slice_ops = ops;
  }
  const std::int64_t t1 = mono_ns();
  result.begin_ns = window_begin_;
  result.end_ns = t1;
  result.counts = totals_.minus(before);
  result.window_s = static_cast<double>(t1 - window_begin_) / 1e9;
  result.driver_cpu_ns = thread_cpu_ns() - cpu0;
  result.server_cpu_ns = server_cpu() - server0;
  result.rcvbuf_errors = reader ? udp_rcvbuf_errors() - rcv0 : 0;
  arrivals_on_ = false;

  // Drain: no new arrivals; holds run out, releases are acked, queued
  // requests are promoted and released.
  run_until([this] { return busy_ == 0; },
            t1 + static_cast<std::int64_t>(drain_s * 1e9));
  result.drained = busy_ == 0;
  phase_ = nullptr;
  return result;
}

// ---------------------------------------------------------------- driver

namespace {

/// Lane 0's result with every other lane's counts, samples, driver CPU and
/// per-slice ops added in. The served side's CPU and the drop counter are
/// lane 0's readings.
PhaseResult merge(std::vector<PhaseResult> parts) {
  PhaseResult r = std::move(parts.front());
  for (std::size_t k = 1; k < parts.size(); ++k) {
    PhaseResult& p = parts[k];
    r.offered_ops_s += p.offered_ops_s;
    r.arrivals += p.arrivals;
    r.skipped += p.skipped;
    r.counts = r.counts.plus(p.counts);
    const auto append = [](std::vector<std::int64_t>& to,
                           const std::vector<std::int64_t>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(r.rtt_ns, p.rtt_ns);
    append(r.rtt_at_ns, p.rtt_at_ns);
    append(r.late_ns, p.late_ns);
    append(r.late_at_ns, p.late_at_ns);
    r.begin_ns = std::min(r.begin_ns, p.begin_ns);
    r.end_ns = std::max(r.end_ns, p.end_ns);
    r.driver_cpu_ns += p.driver_cpu_ns;
    for (std::size_t i = 0; i < r.slice_ops.size() && i < p.slice_ops.size(); ++i) {
      r.slice_ops[i] += p.slice_ops[i];
    }
    r.drained = r.drained && p.drained;
  }
  r.window_s = static_cast<double>(r.end_ns - r.begin_ns) / 1e9;
  for (std::size_t i = 0; i < r.slice_ops.size(); ++i) {
    if (r.slice_ops[i] > 0) {
      r.server_cpu_ns_per_op.push_back(
          static_cast<double>(r.slice_server_cpu_ns[i]) /
          static_cast<double>(r.slice_ops[i]));
    }
  }
  return r;
}

}  // namespace

LoadDriver::LoadDriver(const LoadConfig& config,
                       std::function<std::int64_t()> server_cpu_ns)
    : server_cpu_ns_(std::move(server_cpu_ns)) {
  for (int k = 0; k < kLanes; ++k) {
    lanes_.push_back(std::make_unique<DriverLane>(config, k, kLanes, server_cpu_ns_));
  }
}

void LoadDriver::connect(std::uint16_t base_port) {
  for (auto& lane : lanes_) lane->connect(base_port);
}

std::vector<PhaseResult> LoadDriver::on_lanes(
    const std::function<PhaseResult(std::size_t)>& phase) {
  std::vector<PhaseResult> out(lanes_.size());
  const auto run_lane = [&phase, &out](std::size_t k) {
    pin_driver_lane(static_cast<int>(k));
    // Wake on the schedule, not up to 50 us after it (the default slack).
    prctl(PR_SET_TIMERSLACK, 1UL);
    out[k] = phase(k);
  };
  // Lane 0 runs on the calling thread, so the driver never has more than
  // kLanes threads.
  std::vector<std::thread> threads;
  for (std::size_t k = 1; k < lanes_.size(); ++k) threads.emplace_back(run_lane, k);
  run_lane(0);
  for (auto& t : threads) t.join();
  return out;
}

PhaseResult LoadDriver::closed_loop(bool join, int window, double timeout_s,
                                    std::uint64_t stream) {
  const int per_lane = std::max(1, window / static_cast<int>(lanes_.size()));
  const std::int64_t server0 = server_cpu_ns_();
  const std::int64_t rcv0 = udp_rcvbuf_errors();
  PhaseResult r = merge(on_lanes([&](std::size_t k) {
    return lanes_[k]->closed_loop(join, per_lane, timeout_s, stream);
  }));
  r.server_cpu_ns = server_cpu_ns_() - server0;
  r.rcvbuf_errors = udp_rcvbuf_errors() - rcv0;
  return r;
}

PhaseResult LoadDriver::join_all(int window, double timeout_s,
                                 std::uint64_t stream) {
  return closed_loop(true, window, timeout_s, stream);
}

PhaseResult LoadDriver::leave_all(int window, double timeout_s,
                                  std::uint64_t stream) {
  return closed_loop(false, window, timeout_s, stream);
}

PhaseResult LoadDriver::open_loop(const std::string& name, double offered_ops_s,
                                  double warm_s, double measure_s,
                                  double drain_s, std::uint64_t stream) {
  // One schedule origin for every lane, so their windows and slices line up.
  const std::int64_t start = mono_ns() + 1'000'000;
  const double per_lane = offered_ops_s / static_cast<double>(lanes_.size());
  return merge(on_lanes([&](std::size_t k) {
    return lanes_[k]->open_loop(name, per_lane, start, warm_s, measure_s,
                                drain_s, stream);
  }));
}

Counts LoadDriver::totals() const {
  Counts sum;
  for (const auto& lane : lanes_) sum = sum.plus(lane->totals());
  return sum;
}

int LoadDriver::members_busy() const {
  int busy = 0;
  for (const auto& lane : lanes_) busy += lane->members_busy();
  return busy;
}

}  // namespace perfbench
