#include "fproto/server.hpp"

#include <stdexcept>
#include <utility>

namespace dmps::fproto {

namespace {
/// Request ids pack (member << 32 | per-member seq); the seq half is what
/// ages records out, the member half must name the sending member.
std::uint64_t request_seq(std::uint64_t request_id) {
  return request_id & 0xffffffffull;
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

void FloorServer::bind_station(floorctl::MemberId member, net::NodeId node) {
  stations_[member.value()] = node;
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
  if (!snapshot->has_member(join->member) || !snapshot->has_group(join->group)) {
    return;  // unknown ids: not even a NACK target
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
    return;
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

void FloorServer::age_out_records(floorctl::MemberId member, std::uint64_t seq) {
  MemberRecords& records = member_records_[member.value()];
  // A fresh request with seq s proves the member saw the reply to every
  // operation with seq < s (one in-flight operation at a time): evict them.
  while (!records.live.empty() && request_seq(records.live.front()) < seq) {
    decided_.erase(records.live.front());
    records.live.pop_front();
  }
  if (seq > records.evicted_below) records.evicted_below = seq;
}

void FloorServer::handle_request(const net::Message& msg) {
  const auto request = decode_request(msg);
  if (!request || !id_names_member(request->request_id, request->member)) {
    return drop_invalid();
  }
  // Join binds the home station; a request binds one only when none is.
  // A request from elsewhere is still answered to its sender below.
  const auto [station, bound_now] =
      stations_.try_emplace(request->member.value(), msg.from);
  if (!bound_now && station->second != msg.from) {
    wire_->server_station_mismatch.add();
  }

  // Duplicate suppression: an id we already decided is answered from the
  // stored reply — re-arbitrating a retransmission would double-reserve.
  const auto it = decided_.find(request->request_id);
  if (it != decided_.end()) {
    replay_hit(request->member, request->host);
    transmit(msg.from, wire_type(it->second.reply_kind), it->second.reply_ints);
    return;
  }
  // A resurrected id below the member's eviction floor was decided and aged
  // out long ago (the member has since moved on); refuse it without
  // re-arbitration — deciding it afresh could double-reserve.
  const auto aged = member_records_.find(request->member.value());
  if (aged != member_records_.end() &&
      request_seq(request->request_id) < aged->second.evicted_below) {
    replay_hit(request->member, request->host);
    transmit(msg.from, wire_type(MsgKind::kDeny),
             encode(DenyMsg{request->request_id, floorctl::Outcome::kDenied}));
    return;
  }
  age_out_records(request->member, request_seq(request->request_id));

  floorctl::FloorRequest fr;
  fr.group = request->group;
  fr.member = request->member;
  fr.mode = request->mode;
  fr.host = request->host;
  fr.qos = request->qos;
  const floorctl::Decision decision = service_.request(fr);
  wire_->server_arbitrations.add();

  const auto key = floorctl::holder_key(request->member, request->group);
  DecisionRecord record;
  obs::Ev reply_ev;
  if (decision.outcome == floorctl::Outcome::kGranted ||
      decision.outcome == floorctl::Outcome::kGrantedDegraded) {
    record.reply_kind = MsgKind::kGrant;
    record.reply_ints = encode(GrantMsg{
        request->request_id,
        decision.outcome == floorctl::Outcome::kGrantedDegraded,
        decision.availability_after});
    holder_request_[key] = request->request_id;
    wire_->server_grants.add();
    reply_ev = obs::Ev::kGrant;
  } else if (decision.outcome == floorctl::Outcome::kQueued) {
    record.reply_kind = MsgKind::kQueued;
    record.reply_ints = encode(QueuedMsg{request->request_id});
    // The newest id is the one the client polls with — the promotion Grant
    // must be written for it.
    queued_request_[key] = request->request_id;
    wire_->server_queued.add();
    reply_ev = obs::Ev::kQueue;
  } else {
    record.reply_kind = MsgKind::kDeny;
    record.reply_ints = encode(DenyMsg{request->request_id, decision.outcome});
    wire_->server_denies.add();
    reply_ev = obs::Ev::kDeny;
  }
  if (tracer_ != nullptr) {
    tracer_->emit(reply_ev, request->member.value(), request->host.value(),
                  static_cast<std::uint8_t>(decision.outcome));
  }
  transmit(msg.from, wire_type(record.reply_kind), record.reply_ints);
  decided_.emplace(request->request_id, std::move(record));
  member_records_[request->member.value()].live.push_back(request->request_id);

  // Push Media-Suspend to every holder this grant displaced.
  send_suspends(decision.suspended);
}

void FloorServer::send_suspends(const std::vector<floorctl::Holder>& suspended) {
  // Only holders granted through this server are tracked; others have no
  // wire state.
  for (const floorctl::Holder& holder : suspended) {
    const auto req =
        holder_request_.find(floorctl::holder_key(holder.member, holder.group));
    if (req == holder_request_.end()) continue;
    notify(holder.member, MsgKind::kSuspend, req->second);
  }
}

void FloorServer::handle_release(const net::Message& msg) {
  const auto release = decode_release(msg);
  if (!release || !id_names_member(release->request_id, release->member)) {
    return drop_invalid();
  }

  const auto it = decided_.find(release->request_id);
  if (it == decided_.end() || it->second.reply_kind == MsgKind::kDeny) {
    // Releasing something never granted: ack anyway so the client converges
    // (deny the *request*, not the release retry).
    transmit(msg.from, wire_type(MsgKind::kReleaseAck),
             encode(ReleaseAckMsg{release->request_id}));
    return;
  }
  // A retransmitted release after a lost ack is only re-acked, and not
  // counted as a replay_hit(): wire.server.replay_hits counts request
  // replays alone.
  if (!it->second.released) {
    it->second.released = true;
    release_holder(release->member, release->group);
  }
  transmit(msg.from, wire_type(MsgKind::kReleaseAck),
           encode(ReleaseAckMsg{release->request_id}));
}

void FloorServer::release_holder(floorctl::MemberId member,
                                 floorctl::GroupId group) {
  const auto key = floorctl::holder_key(member, group);
  const bool held = holder_request_.erase(key) > 0;
  const bool parked = queued_request_.find(key) != queued_request_.end();
  if (!held && !parked) return;
  const floorctl::ReleaseResult result = service_.release(member, group);

  // Freed capacity may Media-Resume suspended holders — tell their stations.
  for (const floorctl::Holder& holder : result.resumed) {
    const auto req = holder_request_.find(floorctl::holder_key(holder.member, holder.group));
    if (req == holder_request_.end()) continue;  // resumed holder untracked
    notify(holder.member, MsgKind::kResume, req->second);
  }

  // Queued requests the release promoted: rewrite each one's stored reply
  // from Queued to the Grant, push it once (the client's poll replays it if
  // the push is lost), and suspend whoever the promotion displaced.
  for (const floorctl::Promotion& promotion : result.promoted) {
    const auto pkey =
        floorctl::holder_key(promotion.holder.member, promotion.holder.group);
    const auto queued = queued_request_.find(pkey);
    if (queued == queued_request_.end()) continue;
    const std::uint64_t request_id = queued->second;
    queued_request_.erase(queued);
    holder_request_[pkey] = request_id;
    const net::Payload reply = encode(GrantMsg{
        request_id,
        promotion.decision.outcome == floorctl::Outcome::kGrantedDegraded,
        promotion.decision.availability_after});
    const auto record = decided_.find(request_id);
    if (record != decided_.end()) {
      record->second.reply_kind = MsgKind::kGrant;
      record->second.reply_ints = reply;
    }
    wire_->server_promotions.add();
    wire_->server_grants.add();
    if (tracer_ != nullptr) {
      // arg=1 marks a promotion push (vs a request's direct Grant reply).
      tracer_->emit(obs::Ev::kGrant, promotion.holder.member.value(), 0, 1);
    }
    const auto station = stations_.find(promotion.holder.member.value());
    if (station != stations_.end()) {
      transmit(station->second, wire_type(MsgKind::kGrant), reply);
    }
    send_suspends(promotion.decision.suspended);
  }

  // Parked requests the releasing member abandoned (it left the group):
  // rewrite the stored reply to a Deny so its polls converge.
  for (const floorctl::Holder& holder : result.dequeued) {
    const auto dkey = floorctl::holder_key(holder.member, holder.group);
    const auto queued = queued_request_.find(dkey);
    if (queued == queued_request_.end()) continue;
    const std::uint64_t request_id = queued->second;
    queued_request_.erase(queued);
    const net::Payload reply =
        encode(DenyMsg{request_id, floorctl::Outcome::kDenied});
    const auto record = decided_.find(request_id);
    if (record != decided_.end()) {
      record->second.reply_kind = MsgKind::kDeny;
      record->second.reply_ints = reply;
    }
    wire_->server_denies.add();
    if (tracer_ != nullptr) {
      // arg=1 marks a dequeue push (the member left; its polls converge).
      tracer_->emit(obs::Ev::kDeny, holder.member.value(), 0, 1);
    }
    const auto station = stations_.find(holder.member.value());
    if (station != stations_.end()) {
      transmit(station->second, wire_type(MsgKind::kDeny), reply);
    }
  }
}

void FloorServer::notify(floorctl::MemberId member, MsgKind kind,
                         std::uint64_t request_id) {
  const auto station = stations_.find(member.value());
  if (station == stations_.end()) return;  // no known home station
  const std::uint64_t notify_id = next_notify_id_++;
  Notify pending;
  pending.node = station->second;
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
