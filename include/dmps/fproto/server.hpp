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
// release promotes the parked request, the server turns the member's record
// into a grant and pushes the Grant once — the poll replays it if the push
// is lost, so promotions need no extra reliability machinery.
//
// Per-member state is one record in member-indexed tables: the home
// station and the last decided request (DESIGN.md §6.5a). A member's next
// request id (its seq is monotonic, one operation in flight at a time)
// proves it saw every earlier reply, so the new decision replaces the old
// one; a re-sent id is answered by re-encoding the reply from the record,
// and a resurrected older id is refused without re-arbitration. Memory is
// bounded by member count, not request volume. Contract: a MemberId belongs
// to ONE FloorAgent incarnation, in one group at a time; a restarted
// station registers a fresh member (re-using the id restarts the seq below
// the last decided one, and those requests are refused).
//
// Dropped unanswered before any state is touched (wire.server.drop_invalid):
// a Join, Leave, Request or Release naming a member the registry does not
// know — the tables grow only on first contact from a registered member, so
// forged ids cannot grow memory — and a Request or Release whose id's
// member half (id >> 32) is not its member lane, which would otherwise let
// one forged datagram decide member A's next id on member B's behalf.
// A member's home station is bound by its Join (or its first Request when
// nothing is bound yet); a Request from any other address is answered to
// its sender but never rebinds the station (wire.server.station_mismatch),
// so no sender can redirect a holder's Suspend/Resume.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

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

  // Event counts live only in the configured WireInstruments pack
  // (wire.server.*); the two accessors below report state sizes.

  /// Suspend/Resume notifications still awaiting their ack.
  std::size_t notifies_pending() const { return pending_notifies_.size(); }
  /// Members with a decided request on file (one record each at most, so
  /// bounded by member count, not request volume).
  std::size_t decided_records() const;

 private:
  enum class Decided : std::uint8_t { kNone, kDenied, kQueued, kGranted, kReleased };
  /// A member's last decided request. Its reply is re-encoded from these
  /// fields: Grant for kGranted and kReleased, else Queued or Deny.
  struct LastDecision {
    std::uint32_t seq = 0;  // the request id's low half
    floorctl::GroupId group;
    Decided state = Decided::kNone;
    floorctl::Outcome outcome = floorctl::Outcome::kDenied;
    double availability = 0.0;  // host availability after a grant
  };

  void handle_join(const net::Message& msg);
  void handle_leave(const net::Message& msg);
  void handle_request(const net::Message& msg);
  void handle_release(const net::Message& msg);
  void handle_suspend_ack(const net::Message& msg);
  void handle_resume_ack(const net::Message& msg);

  void release_holder(floorctl::MemberId member, floorctl::GroupId group);
  void send_suspends(const std::vector<floorctl::Holder>& suspended);
  /// Grows `table` to cover every registered member when `member` lies past
  /// its end; false, with nothing grown, when the registry does not know it.
  template <class T>
  bool cover(std::vector<T>& table, floorctl::MemberId member);
  /// The member's last decision if it is `state` in `group`, else nullptr.
  LastDecision* last_in(floorctl::MemberId member, floorctl::GroupId group,
                        Decided state);
  /// The member's home station (invalid while none is bound).
  net::NodeId station_of(floorctl::MemberId member) const;
  /// Send the reply `last` stores for the member's request to `node`.
  void reply(net::NodeId node, floorctl::MemberId member, const LastDecision& last);
  /// One datagram on the wire: instrument pack, send.
  void transmit(net::NodeId node, net::MsgType type, const net::Payload& ints);
  /// A server-bound datagram refused without a reply or state change.
  void drop_invalid();
  /// A request answered from the member's record without arbitration:
  /// the idempotency machinery's hit counter.
  void replay_hit(floorctl::MemberId member, floorctl::HostId host);
  void notify(floorctl::MemberId member, MsgKind kind, std::uint64_t request_id);
  void notify_tick(std::uint64_t notify_id);

  transport::Endpoint& ep_;
  floorctl::GroupRegistry& registry_;
  floorctl::FloorControl& service_;
  ServerConfig config_;

  // Both indexed by member id. Stations grow at a member's first Join or
  // Request; decisions only at its first Request or Release, so a join
  // storm files no decision records.
  std::vector<net::NodeId> stations_;  // invalid = no home station bound
  std::vector<LastDecision> decisions_;

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
