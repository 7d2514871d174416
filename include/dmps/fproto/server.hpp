#pragma once
// Moderating floor server: the fproto endpoint that owns arbitration.
//
// Registers the client->server message types on its transport endpoint
// (SimTransport in scenarios, UdpEndpoint behind dmps_floord), runs
// every FloorRequest through the floorctl::FloorControl seam — a plain
// FloorService, or a ShardedFloorService shared by several servers when
// the daemon runs sharded (one server per shard endpoint) — and answers
// with Grant / Deny / Queued. The server is the retransmission-tolerant
// half of the protocol: request and release handling is *idempotent* — a
// request id that was already decided gets its stored reply resent without
// re-arbitration, a release of an already-released grant is re-acked — so
// client retries under loss can never double-allocate or double-free floor
// resources.
//
// Media-Suspend/Resume are the server-driven, asynchronous half: when an
// arbitration suspends lower-priority holders (or a release re-admits
// them), the server pushes Suspend/Resume notifications to those holders'
// home stations and retransmits each until the station acks it.
//
// Queueing groups add a third leg: a parked request is answered with
// fp.queued, and the client's request retransmission becomes a poll. When a
// release promotes the parked request, the server rewrites the stored reply
// to the Grant and pushes it once — the poll replays it if the push is
// lost, so promotions need no extra reliability machinery.
//
// Decided-request records age out: a member's next request id (its per-
// member sequence is monotonic, one operation in flight at a time) proves
// it saw every earlier reply, so all its older records are evicted and a
// resurrected older id is refused without re-arbitration. decided_records()
// therefore stays bounded by the member count, not by request volume.
// Corollary: a MemberId's request-id namespace belongs to ONE FloorAgent
// incarnation. A restarted station must register a fresh member (ids are
// cheap) — re-using the id restarts the seq at 1, below the eviction
// floor, and those requests are refused. (This was never supported: before
// aging, the forever-kept record would instead replay a stale Grant for a
// long-released floor, which is strictly worse.)
//
// Decided records are keyed by the raw request id, so a Request or Release
// whose id's member half (id >> 32) is not its member lane is dropped
// unanswered before any state is touched (wire.server.drop_invalid) —
// otherwise one forged datagram could file a decision for member B under
// member A's next id.
// A member's home station is bound by its Join (or bind_station(), or its
// first Request when nothing is bound yet); a Request from any other
// address is answered to its sender but never rebinds the station
// (wire.server.station_mismatch), so no sender can redirect a holder's
// Suspend/Resume.

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "floor/group.hpp"
#include "floor/service.hpp"
#include "fproto/codec.hpp"
#include "net/sim_network.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "transport/endpoint.hpp"

namespace dmps::fproto {

struct ServerConfig {
  util::Duration notify_retry = util::Duration::millis(250);
  int notify_max_tries = 200;  // then the notification is abandoned
  /// Wire instrument pack; nullptr = the process-global pack.
  obs::WireInstruments* obs = nullptr;
  /// Optional event tracer (nullptr = no event stream). Must outlive the
  /// server.
  obs::Tracer* tracer = nullptr;
};

class FloorServer {
 public:
  FloorServer(transport::Endpoint& endpoint, floorctl::GroupRegistry& registry,
              floorctl::FloorControl& service, ServerConfig config);
  ~FloorServer();
  FloorServer(const FloorServer&) = delete;
  FloorServer& operator=(const FloorServer&) = delete;

  /// Pre-bind a member's home station (otherwise bound by its Join, or by
  /// its first Request when none is bound yet — notifications need a
  /// destination). A later Request from another address never rebinds it.
  void bind_station(floorctl::MemberId member, net::NodeId node);

  // Event counts live only in the configured WireInstruments pack
  // (wire.server.*); the two accessors below report state sizes.

  /// Suspend/Resume notifications still awaiting their ack.
  std::size_t notifies_pending() const { return pending_notifies_.size(); }
  /// Live decided-request records (aged out as members move on; bounded by
  /// member count, not request volume).
  std::size_t decided_records() const { return decided_.size(); }

 private:
  struct DecisionRecord {
    MsgKind reply_kind = MsgKind::kDeny;
    net::Payload reply_ints;
    bool released = false;  // the grant has since been given back
  };
  /// Per-member request history: record ids still alive (their seqs are
  /// monotonic, so eviction pops from the front) and the seq floor below
  /// which everything was already evicted.
  struct MemberRecords {
    std::deque<std::uint64_t> live;  // request ids with a decided_ entry
    std::uint64_t evicted_below = 0;  // seqs < this were aged out
  };

  void handle_join(const net::Message& msg);
  void handle_leave(const net::Message& msg);
  void handle_request(const net::Message& msg);
  void handle_release(const net::Message& msg);
  void handle_suspend_ack(const net::Message& msg);
  void handle_resume_ack(const net::Message& msg);

  void release_holder(floorctl::MemberId member, floorctl::GroupId group);
  void send_suspends(const std::vector<floorctl::Holder>& suspended);
  /// One datagram on the wire: instrument pack, send.
  void transmit(net::NodeId node, net::MsgType type, const net::Payload& ints);
  /// A server-bound datagram refused without a reply or state change.
  void drop_invalid();
  /// A duplicate answered from stored state (request replay, release
  /// re-ack): the idempotency machinery's hit counter.
  void replay_hit(floorctl::MemberId member, floorctl::HostId host);
  void age_out_records(floorctl::MemberId member, std::uint64_t seq);
  void notify(floorctl::MemberId member, MsgKind kind, std::uint64_t request_id);
  void notify_tick(std::uint64_t notify_id);

  transport::Endpoint& ep_;
  floorctl::GroupRegistry& registry_;
  floorctl::FloorControl& service_;
  ServerConfig config_;

  std::unordered_map<std::uint64_t, DecisionRecord> decided_;  // by request id
  std::unordered_map<floorctl::MemberId::value_type, MemberRecords> member_records_;
  std::unordered_map<floorctl::MemberId::value_type, net::NodeId> stations_;
  // holder (member,group) -> its live granted request id
  std::unordered_map<std::uint64_t, std::uint64_t> holder_request_;
  // parked (member,group) -> the queued request id awaiting promotion
  std::unordered_map<std::uint64_t, std::uint64_t> queued_request_;

  struct Notify {
    net::NodeId node;
    MsgKind kind = MsgKind::kSuspend;
    net::Payload ints;
    int tries = 1;
    transport::TimerId retry_timer = 0;
  };
  std::unordered_map<std::uint64_t, Notify> pending_notifies_;  // by notify id
  std::uint64_t next_notify_id_ = 1;

  obs::WireInstruments* wire_;  // resolved once at construction
  obs::Tracer* tracer_;
};

}  // namespace dmps::fproto
