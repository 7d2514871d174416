#pragma once
// Multi-station presentation sessions: the first code path where clock
// sync, the DOCPN engine and FCM-Arbitrate all run together, over the wire.
//
// A Presentation wires N client stations against a server side on a shared
// SimNetwork. Floor-control state is sharded by host station behind a
// ShardedFloorService: the session stands up one fproto::FloorServer
// endpoint per host shard (endpoint 0 shares the clock server's station),
// all federating one conference through the shared GroupRegistry. Stations
// are homed round-robin across the hosts and talk floor protocol to their
// home shard's endpoint; clock sync always runs against the main server
// station. Each client station gets its own drifting local clock, a
// GlobalClockClient + AdmissionController, a DocpnEngine playing a small
// intro/body/outro presentation, and a FloorAgent. Links are asymmetric
// per station and direction (different uplink/downlink latency, shared
// jitter/loss).
//
// The scripted behavior per station: join the group, request the floor at a
// staggered instant, start DOCPN playout when granted, pause it on
// Media-Suspend, resume it (shifted by the suspension span) on
// Media-Resume, and release the floor when playout finishes. Denied
// stations back off and retry a bounded number of times. With skip_after
// set, each station additionally plays the user: it skips its body medium
// that long after playback starts — skips landing while the playout is
// suspended or already finished are refused by the engine (and counted),
// never double-releasing the floor.

#include <cstdint>
#include <memory>
#include <vector>

#include "clock/global_clock.hpp"
#include "docpn/docpn.hpp"
#include "docpn/engine.hpp"
#include "floor/sharded_service.hpp"
#include "fproto/agent.hpp"
#include "fproto/server.hpp"
#include "net/sim_network.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "transport/sim_transport.hpp"

namespace dmps::session {

struct SessionConfig {
  std::uint64_t seed = 1;
  int stations = 4;
  /// Host shards. Each host gets its own capacity, FloorService shard and
  /// FloorServer endpoint; stations are homed round-robin (station i lives
  /// on host 1 + i % hosts).
  int hosts = 1;

  // Server-side arbitration.
  resource::Resource host_capacity{1.0, 1.0, 1.0};
  resource::Thresholds thresholds{0.25, 0.05};
  /// The session group's discipline: kThreeRegime bounces refused requests
  /// back to the stations' retry script; kQueueing parks them server-side
  /// and grants them as playbacks release the floor.
  floorctl::PolicyKind policy = floorctl::PolicyKind::kThreeRegime;

  // Per-link model: uplink/downlink latency differ per station (asymmetry),
  // jitter and loss apply to every link.
  util::Duration up_latency = util::Duration::millis(4);
  util::Duration down_latency = util::Duration::millis(9);
  util::Duration per_station_skew = util::Duration::millis(1);  // * index
  util::Duration jitter = util::Duration::millis(2);
  double loss = 0.0;

  // Client behavior.
  clk::SyncConfig sync{util::Duration::millis(250), 8};
  media::QosRequirement qos{0.22, 0.22, 0.22};  // per station feed
  util::Duration media_len = util::Duration::seconds(5);  // body duration
  util::Duration request_stagger = util::Duration::millis(700);
  int max_request_attempts = 3;  // denied stations back off and retry
  util::Duration retry_backoff = util::Duration::millis(1500);
  /// > zero: each station skips its body medium this long after its
  /// playback starts (the user-skip workload). A skip that lands while the
  /// playout is suspended or already finished is refused by the engine.
  util::Duration skip_after = util::Duration::zero();
  /// Agent/server tuning. Their obs/tracer pointers are honored when set;
  /// left null, the session wires in its own registry-backed packs and
  /// session tracer.
  fproto::AgentConfig agent;
  fproto::ServerConfig server;
};

/// Aggregate counters after run().
struct SessionStats {
  int stations = 0;
  int requests_issued = 0;
  int granted = 0;
  int denied = 0;       // kDenied + kAborted replies
  int queued = 0;       // fp.queued replies applied at stations
  int released = 0;     // acked releases
  int suspends = 0;     // Media-Suspends applied at stations
  int resumes = 0;
  int playbacks_finished = 0;
  int skips = 0;          // body skips the engine accepted
  int skips_refused = 0;  // skips refused (suspended / finished / not playing)
  /// Agents parked in kQueued at snapshot time: their request is alive
  /// server-side and a Grant/Deny is still owed — waiting, not stuck.
  int queued_waiting = 0;
  /// Agents with an operation genuinely in flight (or kFailed) — excludes
  /// queued_waiting, so queueing-policy liveness checks don't misfire on
  /// members legitimately parked at horizon end.
  int stuck_agents = 0;
  std::uint64_t client_retransmits = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t server_arbitrations = 0;
  std::uint64_t server_duplicate_requests = 0;
  std::uint64_t notify_retransmits = 0;
  std::uint64_t notifies_pending = 0;
  std::uint64_t messages_sent = 0;  // everything, clock sync included
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t floor_messages = 0;  // fproto datagrams only (agents + servers)
};

/// Per-station snapshot for tests and tables.
struct StationSnapshot {
  fproto::AgentState state = fproto::AgentState::kIdle;
  int requests = 0;
  int grants = 0;
  int denies = 0;
  int queues = 0;
  int suspends = 0;
  int resumes = 0;
  int releases = 0;
  int skips = 0;
  int skips_refused = 0;
  bool playback_started = false;
  bool playback_finished = false;
  double playback_started_s = -1;   // sim-time seconds
  double playback_finished_s = -1;
};

class Presentation {
 public:
  explicit Presentation(SessionConfig config);
  ~Presentation();
  Presentation(const Presentation&) = delete;
  Presentation& operator=(const Presentation&) = delete;

  /// Run the scripted session for `horizon` of simulated time and report.
  /// May be called repeatedly to extend the same session.
  SessionStats run(util::Duration horizon);

  SessionStats stats() const;
  StationSnapshot station(int index) const;
  sim::Simulator& sim() { return sim_; }
  const SessionConfig& config() const { return config_; }
  floorctl::ShardedFloorService& arbitration() { return *arbitration_; }

  /// The session's private metrics registry (DESIGN.md §7): every floor
  /// and wire instrument of this session lives here, isolated from the
  /// process-global packs.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// The session-wide tracer (single-writer: the whole session runs on one
  /// simulator thread). write_chrome_trace()/fingerprint() live on it.
  obs::Tracer& tracer() { return tracer_; }
  /// The scenario fingerprint over every decision-relevant event so far
  /// (timestamps excluded — identical across runs for a seeded loss-free
  /// scenario, on any compiler).
  std::uint64_t fingerprint() const { return tracer_.fingerprint(); }

 private:
  struct Station;
  /// One federated floor endpoint: the FloorServer bound to a host shard.
  /// Endpoint 0 lives on the main server station (demux is null — it uses
  /// the server's); the rest get their own station and demux.
  struct Endpoint {
    floorctl::HostId host;
    net::NodeId node;
    std::unique_ptr<net::Demux> demux;
    std::unique_ptr<transport::SimTransport> transport;
    std::unique_ptr<fproto::FloorServer> server;
  };

  void script_join(Station& s);
  void script_request(Station& s);

  SessionConfig config_;
  sim::Simulator sim_;
  net::SimNetwork network_;

  // Observability (DESIGN.md §7). Declared before the floor/wire components
  // so the packs outlive everything holding a pointer to them. All
  // instruments register here during construction (setup phase); run()
  // freezes the registry, so a hot-path lazy registration would throw
  // instead of silently allocating.
  obs::MetricsRegistry metrics_;
  obs::FloorInstruments floor_obs_;
  obs::WireInstruments wire_obs_;
  obs::Tracer tracer_;

  // Server station (clock sync + endpoint 0).
  net::NodeId server_node_;
  std::unique_ptr<net::Demux> server_demux_;
  std::unique_ptr<transport::SimTransport> server_transport_;
  clk::TrueClock server_clock_;
  std::unique_ptr<clk::GlobalClockServer> clock_server_;
  floorctl::GroupRegistry registry_;
  std::unique_ptr<floorctl::ShardedFloorService> arbitration_;
  floorctl::MemberId chair_;
  floorctl::GroupId group_;
  std::vector<Endpoint> endpoints_;  // one per host shard

  std::vector<std::unique_ptr<Station>> stations_;
};

}  // namespace dmps::session
