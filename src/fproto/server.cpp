#include "fproto/server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dmps::fproto {

namespace {
/// Request ids pack (member << 32 | per-member seq); the seq half orders a
/// member's requests, the member half must name the sending member.
std::uint32_t request_seq(std::uint64_t request_id) {
  return static_cast<std::uint32_t>(request_id);
}
std::uint64_t request_id(floorctl::MemberId member, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(member.value()) << 32) | seq;
}
bool id_names_member(std::uint64_t request_id, floorctl::MemberId member) {
  return (request_id >> 32) == member.value();
}
}  // namespace

FloorServer::FloorServer(transport::Endpoint& endpoint, floorctl::GroupRegistry& registry,
                         floorctl::FloorControl& service, ServerConfig config)
    : ep_(endpoint),
      registry_(registry),
      service_(service),
      config_(config),
      // Resolved once (setup phase) so the global pack's lazy registration
      // never fires on a message-handling path.
      wire_(config.obs != nullptr ? config.obs : &obs::WireInstruments::global()),
      tracer_(config.tracer) {
  // Same rollback discipline as FloorAgent: on a conflict, deregister only
  // what this constructor managed to register, then throw.
  std::vector<MsgKind> registered;
  const auto reg = [&](MsgKind kind, std::function<void(const net::Message&)> fn) {
    if (!ep_.on(wire_type(kind), std::move(fn))) return false;
    registered.push_back(kind);
    return true;
  };
  bool owned = true;
  owned &= reg(MsgKind::kJoin, [this](const net::Message& m) { handle_join(m); });
  owned &= reg(MsgKind::kLeave, [this](const net::Message& m) { handle_leave(m); });
  owned &= reg(MsgKind::kRequest,
               [this](const net::Message& m) { handle_request(m); });
  owned &= reg(MsgKind::kRelease,
               [this](const net::Message& m) { handle_release(m); });
  owned &= reg(MsgKind::kSuspendAck,
               [this](const net::Message& m) { handle_suspend_ack(m); });
  owned &= reg(MsgKind::kResumeAck,
               [this](const net::Message& m) { handle_resume_ack(m); });
  if (!owned) {
    for (const MsgKind kind : registered) ep_.off(wire_type(kind));
    throw std::logic_error("fproto server types already handled on this node");
  }
}

FloorServer::~FloorServer() {
  for (auto& [id, pending] : pending_notifies_) {
    if (pending.retry_timer != 0) ep_.cancel(pending.retry_timer);
  }
  for (const MsgKind kind :
       {MsgKind::kJoin, MsgKind::kLeave, MsgKind::kRequest, MsgKind::kRelease,
        MsgKind::kSuspendAck, MsgKind::kResumeAck}) {
    ep_.off(wire_type(kind));
  }
}

std::size_t FloorServer::decided_records() const {
  return static_cast<std::size_t>(
      std::count_if(decisions_.begin(), decisions_.end(),
                    [](const LastDecision& d) { return d.state != Decided::kNone; }));
}

template <class T>
bool FloorServer::cover(std::vector<T>& table, floorctl::MemberId member) {
  if (member.value() < table.size()) return true;
  // First contact from past the end: one snapshot load, then the table
  // covers every registered member (ids are dense and never retired).
  const auto snapshot = registry_.snapshot();
  if (!snapshot->has_member(member)) return false;
  table.resize(snapshot->member_count());
  return true;
}

FloorServer::LastDecision* FloorServer::last_in(floorctl::MemberId member,
                                                floorctl::GroupId group,
                                                Decided state) {
  if (member.value() >= decisions_.size()) return nullptr;
  LastDecision& last = decisions_[member.value()];
  return last.state == state && last.group == group ? &last : nullptr;
}

net::NodeId FloorServer::station_of(floorctl::MemberId member) const {
  return member.value() < stations_.size() ? stations_[member.value()]
                                           : net::NodeId::invalid();
}

void FloorServer::reply(net::NodeId node, floorctl::MemberId member,
                        const LastDecision& last) {
  const std::uint64_t id = request_id(member, last.seq);
  if (last.state == Decided::kGranted || last.state == Decided::kReleased) {
    const bool degraded = last.outcome == floorctl::Outcome::kGrantedDegraded;
    transmit(node, wire_type(MsgKind::kGrant),
             encode(GrantMsg{id, degraded, last.availability}));
  } else if (last.state == Decided::kQueued) {
    transmit(node, wire_type(MsgKind::kQueued), encode(QueuedMsg{id}));
  } else {
    transmit(node, wire_type(MsgKind::kDeny), encode(DenyMsg{id, last.outcome}));
  }
}

void FloorServer::transmit(net::NodeId node, net::MsgType type,
                           const net::Payload& ints) {
  wire_->server_sends.add();
  ep_.send(node, type, ints);
}

void FloorServer::drop_invalid() { wire_->server_drop_invalid.add(); }

void FloorServer::replay_hit(floorctl::MemberId member, floorctl::HostId host) {
  wire_->server_replay_hits.add();
  if (tracer_ != nullptr) {
    tracer_->emit(obs::Ev::kReplayHit, member.value(), host.value());
  }
}

void FloorServer::handle_join(const net::Message& msg) {
  const auto join = decode_join(msg);
  if (!join) return drop_invalid();
  const auto snapshot = registry_.snapshot();  // one load per datagram
  if (!snapshot->has_group(join->group) || !cover(stations_, join->member)) {
    return drop_invalid();  // unknown ids: not even a NACK target
  }
  stations_[join->member.value()] = msg.from;  // learn the home station
  // Idempotent: already-in counts as accepted, so a retransmitted Join
  // after a lost ack converges instead of flapping.
  const bool accepted = snapshot->in_group(join->member, join->group) ||
                        registry_.join(join->member, join->group);
  transmit(msg.from, wire_type(MsgKind::kJoinAck),
           encode(JoinAckMsg{join->member, join->group, accepted}));
}

void FloorServer::handle_leave(const net::Message& msg) {
  const auto leave = decode_leave(msg);
  if (!leave) return drop_invalid();
  const auto snapshot = registry_.snapshot();  // one load per datagram
  if (!snapshot->has_member(leave->member) ||
      !snapshot->has_group(leave->group)) {
    return drop_invalid();
  }
  bool accepted;
  if (!snapshot->in_group(leave->member, leave->group)) {
    accepted = true;  // idempotent: a retransmitted Leave re-acks
  } else {
    // A leaving member gives back any floor it still holds (and abandons
    // any request it still has parked in a queueing group).
    release_holder(leave->member, leave->group);
    accepted = registry_.leave(leave->member, leave->group);
  }
  transmit(msg.from, wire_type(MsgKind::kLeaveAck),
           encode(LeaveAckMsg{leave->member, leave->group, accepted}));
}

void FloorServer::handle_request(const net::Message& msg) {
  // dmps-lint: hot-begin(fproto-request) — every request datagram: decode,
  // arbitrate, and reply from the member's fixed-size record.
  const auto request = decode_request(msg);
  if (!request || !id_names_member(request->request_id, request->member) ||
      !cover(stations_, request->member) || !cover(decisions_, request->member)) {
    return drop_invalid();
  }
  // Join binds the home station; a request binds one only when none is.
  // A request from elsewhere is still answered to its sender below.
  net::NodeId& station = stations_[request->member.value()];
  if (!station.valid()) {
    station = msg.from;
  } else if (station != msg.from) {
    wire_->server_station_mismatch.add();
  }

  LastDecision& last = decisions_[request->member.value()];
  const std::uint32_t seq = request_seq(request->request_id);
  if (last.state != Decided::kNone && seq <= last.seq) {
    // Re-arbitrating a decided id could double-reserve. A re-sent one is
    // answered from the record; an older one was answered long ago (the
    // member has since moved on) and is refused with a Deny.
    replay_hit(request->member, request->host);
    const LastDecision refused{seq, last.group, Decided::kDenied,
                               floorctl::Outcome::kDenied, 0.0};
    return reply(msg.from, request->member, seq == last.seq ? last : refused);
  }

  floorctl::FloorRequest fr;
  fr.group = request->group;
  fr.member = request->member;
  fr.mode = request->mode;
  fr.host = request->host;
  fr.qos = request->qos;
  const floorctl::Decision decision = service_.request(fr);
  wire_->server_arbitrations.add();

  // The fresh seq proves the member saw every earlier reply, so this
  // decision replaces its record.
  last = LastDecision{seq, request->group, Decided::kDenied, decision.outcome,
                      decision.availability_after};
  obs::Ev reply_ev;
  if (decision.outcome == floorctl::Outcome::kGranted ||
      decision.outcome == floorctl::Outcome::kGrantedDegraded) {
    last.state = Decided::kGranted;
    wire_->server_grants.add();
    reply_ev = obs::Ev::kGrant;
  } else if (decision.outcome == floorctl::Outcome::kQueued) {
    // The client polls with this id; a promotion grants it.
    last.state = Decided::kQueued;
    wire_->server_queued.add();
    reply_ev = obs::Ev::kQueue;
  } else {
    wire_->server_denies.add();
    reply_ev = obs::Ev::kDeny;
  }
  if (tracer_ != nullptr) {
    tracer_->emit(reply_ev, request->member.value(), request->host.value(),
                  static_cast<std::uint8_t>(decision.outcome));
  }
  reply(msg.from, request->member, last);

  // Push Media-Suspend to every holder this grant displaced.
  send_suspends(decision.suspended);
  // dmps-lint: hot-end
}

void FloorServer::send_suspends(const std::vector<floorctl::Holder>& suspended) {
  // Only holders granted through this server are tracked; others have no
  // wire state.
  for (const floorctl::Holder& holder : suspended) {
    const LastDecision* held = last_in(holder.member, holder.group, Decided::kGranted);
    if (held == nullptr) continue;
    notify(holder.member, MsgKind::kSuspend, request_id(holder.member, held->seq));
  }
}

void FloorServer::handle_release(const net::Message& msg) {
  // dmps-lint: hot-begin(fproto-release) — every release datagram: free the
  // member's floor once, ack every copy.
  const auto release = decode_release(msg);
  if (!release || !id_names_member(release->request_id, release->member) ||
      !cover(decisions_, release->member)) {
    return drop_invalid();
  }
  // Only the member's last request can hold a floor. release_holder() frees
  // nothing for an id never granted or one already given back (a
  // retransmission after a lost ack); either way the release is acked so
  // the client converges, and it is not a replay_hit():
  // wire.server.replay_hits counts request replays alone.
  if (decisions_[release->member.value()].seq == request_seq(release->request_id)) {
    release_holder(release->member, release->group);
  }
  transmit(msg.from, wire_type(MsgKind::kReleaseAck),
           encode(ReleaseAckMsg{release->request_id}));
  // dmps-lint: hot-end
}

void FloorServer::release_holder(floorctl::MemberId member,
                                 floorctl::GroupId group) {
  // A grant is given back here; a parked request is dropped by the release
  // below, which reports it in result.dequeued.
  if (LastDecision* held = last_in(member, group, Decided::kGranted)) {
    held->state = Decided::kReleased;
  } else if (last_in(member, group, Decided::kQueued) == nullptr) {
    return;
  }
  const floorctl::ReleaseResult result = service_.release(member, group);

  // Freed capacity may Media-Resume suspended holders — tell their stations.
  for (const floorctl::Holder& holder : result.resumed) {
    const LastDecision* held = last_in(holder.member, holder.group, Decided::kGranted);
    if (held == nullptr) continue;  // resumed holder untracked
    notify(holder.member, MsgKind::kResume, request_id(holder.member, held->seq));
  }

  // Queued requests the release promoted: turn each record into the grant,
  // push it once (the client's poll replays it if the push is lost), and
  // suspend whoever the promotion displaced.
  for (const floorctl::Promotion& promotion : result.promoted) {
    const floorctl::MemberId promoted = promotion.holder.member;
    LastDecision* parked =
        last_in(promoted, promotion.holder.group, Decided::kQueued);
    if (parked == nullptr) continue;
    parked->state = Decided::kGranted;
    parked->outcome = promotion.decision.outcome;
    parked->availability = promotion.decision.availability_after;
    wire_->server_promotions.add();
    wire_->server_grants.add();
    if (tracer_ != nullptr) {
      // arg=1 marks a promotion push (vs a request's direct Grant reply).
      tracer_->emit(obs::Ev::kGrant, promoted.value(), 0, 1);
    }
    const net::NodeId station = station_of(promoted);
    if (station.valid()) reply(station, promoted, *parked);
    send_suspends(promotion.decision.suspended);
  }

  // Parked requests the releasing member abandoned (it left the group):
  // the record becomes a Deny so its polls converge.
  for (const floorctl::Holder& holder : result.dequeued) {
    LastDecision* parked = last_in(holder.member, holder.group, Decided::kQueued);
    if (parked == nullptr) continue;
    parked->state = Decided::kDenied;
    parked->outcome = floorctl::Outcome::kDenied;
    wire_->server_denies.add();
    if (tracer_ != nullptr) {
      // arg=1 marks a dequeue push (the member left; its polls converge).
      tracer_->emit(obs::Ev::kDeny, holder.member.value(), 0, 1);
    }
    const net::NodeId station = station_of(holder.member);
    if (station.valid()) reply(station, holder.member, *parked);
  }
}

void FloorServer::notify(floorctl::MemberId member, MsgKind kind,
                         std::uint64_t request_id) {
  const net::NodeId station = station_of(member);
  if (!station.valid()) return;  // no known home station
  const std::uint64_t notify_id = next_notify_id_++;
  Notify pending;
  pending.node = station;
  pending.kind = kind;
  pending.ints = kind == MsgKind::kSuspend
                     ? encode(SuspendMsg{notify_id, request_id})
                     : encode(ResumeMsg{notify_id, request_id});
  if (kind == MsgKind::kSuspend) {
    wire_->server_suspends.add();
  } else {
    wire_->server_resumes.add();
  }
  transmit(pending.node, wire_type(kind), pending.ints);
  pending.retry_timer = ep_.schedule_in(
      config_.notify_retry, [this, notify_id] { notify_tick(notify_id); });
  pending_notifies_.emplace(notify_id, std::move(pending));
}

void FloorServer::notify_tick(std::uint64_t notify_id) {
  const auto it = pending_notifies_.find(notify_id);
  if (it == pending_notifies_.end()) return;  // acked in the meantime
  Notify& pending = it->second;
  pending.retry_timer = 0;
  if (pending.tries >= config_.notify_max_tries) {
    wire_->server_notifies_abandoned.add();
    pending_notifies_.erase(it);
    return;
  }
  ++pending.tries;
  wire_->server_notify_retransmits.add();
  if (tracer_ != nullptr) {
    tracer_->emit(obs::Ev::kRetransmit, 0, 0, 1,
                  static_cast<std::int64_t>(notify_id));
  }
  transmit(pending.node, wire_type(pending.kind), pending.ints);
  pending.retry_timer = ep_.schedule_in(
      config_.notify_retry, [this, notify_id] { notify_tick(notify_id); });
}

void FloorServer::handle_suspend_ack(const net::Message& msg) {
  const auto ack = decode_suspend_ack(msg);
  if (!ack) return drop_invalid();
  const auto it = pending_notifies_.find(ack->notify_id);
  if (it == pending_notifies_.end()) return;  // duplicate ack
  if (it->second.retry_timer != 0) ep_.cancel(it->second.retry_timer);
  pending_notifies_.erase(it);
}

void FloorServer::handle_resume_ack(const net::Message& msg) {
  const auto ack = decode_resume_ack(msg);
  if (!ack) return drop_invalid();
  const auto it = pending_notifies_.find(ack->notify_id);
  if (it == pending_notifies_.end()) return;
  if (it->second.retry_timer != 0) ep_.cancel(it->second.retry_timer);
  pending_notifies_.erase(it);
}

}  // namespace dmps::fproto
