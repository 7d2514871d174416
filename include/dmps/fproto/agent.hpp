#pragma once
// Client-side floor agent: one member station's request state machine.
//
// The agent owns the client half of the fproto reliability model. Client-
// driven operations (Join, Request, Release, Leave) retransmit until the
// server's reply arrives — the reply *is* the ack (Grant or Deny answers
// Request). The retransmit schedule backs off exponentially: the n-th
// resend waits min(retry * retry_factor^(n-1), retry_cap), so a lossy link
// converges with far fewer datagrams than a fixed-interval schedule while
// the first retry still lands fast. Server-driven Media-Suspend/Resume
// notifications are always acked, applied only when they match the current
// grant, and counted as suppressed duplicates otherwise, so the machine
// survives loss, reordering and duplication on both directions of an
// asymmetric link.
//
//   idle --join--> joining --JoinAck--> joined
//   joined --request_floor--> pending --Grant--> granted --Deny--> joined
//   pending --Queued--> queued --Grant--> granted --Deny--> joined
//   granted <--Resume-- suspended <--Suspend-- granted
//   granted/suspended --release_floor--> releasing --ReleaseAck--> joined
//   any in-flight op that exhausts max_tries --> failed
//
// kQueued (a queueing group parked the request) keeps the request's
// retransmission timer running as a poll: the server replays the stored
// reply — kQueued while parked, the Grant once promoted — so the promotion
// reaches the client even when the pushed Grant is lost. Each replay
// refreshes the retry budget, which also resets the backoff to its base:
// a parked agent polls at the base cadence, not at the cap.
//
// The agent talks to the wire through the transport seam only
// (transport::Endpoint — SimTransport in scenarios, UdpEndpoint on a real
// network): it owns the fp.* client-side message types on its endpoint,
// one outstanding operation at a time, all calls on the endpoint's loop
// thread.

#include <cstdint>
#include <functional>

#include "fproto/codec.hpp"
#include "net/sim_network.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "transport/endpoint.hpp"

namespace dmps::fproto {

enum class AgentState {
  kIdle,       // not yet joined
  kJoining,    // Join in flight
  kJoined,     // in the group, no floor business pending
  kPending,    // FloorRequest in flight
  kQueued,     // request parked server-side; polling until Grant/Deny
  kGranted,    // holding the floor
  kSuspended,  // holding the floor, Media-Suspended by the server
  kReleasing,  // FloorRelease in flight
  kLeaving,    // Leave in flight
  kFailed,     // an operation exhausted its retries
};

std::string_view to_string(AgentState state);

struct AgentConfig {
  util::Duration retry = util::Duration::millis(250);  // first resend delay
  int max_tries = 200;  // per operation, then kFailed
  /// Exponential backoff: the n-th resend waits
  /// min(retry * retry_factor^(n-1), retry_cap). 1.0 = the old fixed
  /// interval; the cap keeps a long outage polling instead of going silent.
  double retry_factor = 2.0;
  util::Duration retry_cap = util::Duration::millis(2000);
  /// Wire instrument pack; nullptr = the process-global pack. A session
  /// passes its own so per-session counters stay isolated.
  obs::WireInstruments* obs = nullptr;
  /// Optional event tracer (nullptr = no event stream). Must outlive the
  /// agent.
  obs::Tracer* tracer = nullptr;
};

struct AgentEvents {
  std::function<void()> on_joined;
  std::function<void(std::uint64_t request_id, bool degraded)> on_granted;
  std::function<void(std::uint64_t request_id, floorctl::Outcome)> on_denied;
  std::function<void(std::uint64_t request_id)> on_queued;
  std::function<void(std::uint64_t request_id)> on_suspended;
  std::function<void(std::uint64_t request_id)> on_resumed;
  std::function<void(std::uint64_t request_id)> on_released;
  std::function<void()> on_left;
  std::function<void(AgentState stalled_in)> on_failed;
};

class FloorAgent {
 public:
  FloorAgent(transport::Endpoint& endpoint, net::NodeId server,
             floorctl::MemberId member, floorctl::GroupId group,
             floorctl::HostId host, AgentConfig config, AgentEvents events);
  ~FloorAgent();
  FloorAgent(const FloorAgent&) = delete;
  FloorAgent& operator=(const FloorAgent&) = delete;

  /// Enter the group. Only from kIdle.
  bool join();

  /// Ask for the floor. Only from kJoined; returns the request id (0 when
  /// refused in the current state).
  std::uint64_t request_floor(media::QosRequirement qos,
                              floorctl::FcmMode mode = floorctl::FcmMode::kFreeAccess);

  /// Give the floor back. Only from kGranted or kSuspended.
  bool release_floor();

  /// Exit the group (server releases any held floor first). From kJoined,
  /// kGranted or kSuspended.
  bool leave();

  AgentState state() const { return state_; }
  std::uint64_t current_request() const { return current_request_id_; }
  floorctl::MemberId member() const { return member_; }

  /// No client-driven operation is still in flight: the agent is parked in
  /// kIdle / kJoined / kGranted / kSuspended (kFailed counts as *not*
  /// terminated — it is exactly the stuck case callers must see; kQueued is
  /// likewise in flight: a Grant or Deny is still owed).
  bool terminated() const {
    return state_ == AgentState::kIdle || state_ == AgentState::kJoined ||
           state_ == AgentState::kGranted || state_ == AgentState::kSuspended;
  }

  // Event counts (sends, retransmits, duplicate drops, acks) live only in
  // the configured WireInstruments pack (wire.agent.*).

 private:
  void begin_op(AgentState next, MsgKind kind, net::Payload ints);
  void finish_op(AgentState next);
  void retry_tick();
  /// The backed-off delay before the next resend, given the transmissions
  /// already made (tries_).
  util::Duration retry_delay() const;
  /// One duplicate suppressed: instrument pack, trace.
  void drop_duplicate();
  /// One server-driven notification acked (an ack is also a send).
  void send_ack(MsgKind kind, net::Payload ints);
  void handle_join_ack(const net::Message& msg);
  void handle_leave_ack(const net::Message& msg);
  void handle_grant(const net::Message& msg);
  void handle_deny(const net::Message& msg);
  void handle_queued(const net::Message& msg);
  void handle_release_ack(const net::Message& msg);
  void handle_suspend(const net::Message& msg);
  void handle_resume(const net::Message& msg);

  transport::Endpoint& ep_;
  net::NodeId server_;
  floorctl::MemberId member_;
  floorctl::GroupId group_;
  floorctl::HostId host_;
  AgentConfig config_;
  AgentEvents events_;

  AgentState state_ = AgentState::kIdle;
  std::uint64_t req_seq_ = 0;
  std::uint64_t current_request_id_ = 0;
  // Highest notify id seen for the current grant. Server notify ids are
  // monotonic, so anything at or below this is a stale retransmission or a
  // reordered older notification — acked but never applied (a replayed
  // Suspend must not re-suspend a grant the server already resumed).
  std::uint64_t last_notify_id_ = 0;

  // The in-flight operation's wire image, resent by the retry timer.
  net::MsgType outbound_type_;
  net::Payload outbound_ints_;
  int tries_ = 0;
  transport::TimerId retry_timer_ = 0;

  obs::WireInstruments* wire_;  // resolved once at construction
  obs::Tracer* tracer_;
};

}  // namespace dmps::fproto
