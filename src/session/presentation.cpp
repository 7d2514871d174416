#include "session/presentation.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace dmps::session {

using util::Duration;
using util::TimePoint;

struct Presentation::Station {
  int index = 0;
  floorctl::MemberId member;
  floorctl::HostId home;  // the host shard this station is homed to
  net::NodeId node;
  std::unique_ptr<net::Demux> demux;
  std::unique_ptr<transport::SimTransport> transport;
  std::unique_ptr<clk::DriftClock> local_clock;
  std::unique_ptr<clk::GlobalClockClient> clock_client;
  std::unique_ptr<clk::AdmissionController> admission;
  media::MediaLibrary lib;
  media::MediaId body;  // the skippable main medium
  std::unique_ptr<docpn::Docpn> model;
  std::unique_ptr<docpn::DocpnEngine> engine;
  std::unique_ptr<fproto::FloorAgent> agent;

  int attempts = 0;  // request attempts used (denials consume one)
  int requests = 0, grants = 0, denies = 0, queues = 0, suspends = 0,
      resumes = 0, releases = 0, skips = 0, skips_refused = 0;
  bool playback_started = false;
  bool playback_finished = false;
  TimePoint requested_at;  // when the live request hit the wire
  TimePoint playback_started_at;
  TimePoint playback_finished_at;
};

Presentation::Presentation(SessionConfig config)
    : config_(std::move(config)),
      network_(sim_, config_.seed,
               net::LinkQuality{config_.up_latency, config_.jitter, config_.loss}),
      floor_obs_(metrics_),
      wire_obs_(metrics_),
      // A deep ring so a whole federation scenario exports (overflow only
      // truncates the Chrome trace; the fingerprint folds at emit time).
      tracer_(65536),
      server_node_(network_.add_node("server")),
      server_demux_(std::make_unique<net::Demux>(network_, server_node_)),
      server_transport_(
          std::make_unique<transport::SimTransport>(*server_demux_)),
      server_clock_(sim_) {
  config_.hosts = std::max(1, config_.hosts);
  // Trace timestamps are SIM time: deterministic, and the exported Chrome
  // trace lines events up on the scenario's own clock.
  tracer_.set_time_source([this] { return sim_.now().raw_nanos() / 1000; });
  // The session owns its observability: agents and servers get the
  // registry-backed packs and the session tracer unless the caller wired
  // its own into the configs.
  if (config_.agent.obs == nullptr) config_.agent.obs = &wire_obs_;
  if (config_.agent.tracer == nullptr) config_.agent.tracer = &tracer_;
  if (config_.server.obs == nullptr) config_.server.obs = &wire_obs_;
  if (config_.server.tracer == nullptr) config_.server.tracer = &tracer_;
  clock_server_ =
      std::make_unique<clk::GlobalClockServer>(*server_demux_, server_clock_);
  arbitration_ = std::make_unique<floorctl::ShardedFloorService>(
      registry_, server_clock_, config_.thresholds);
  arbitration_->set_observability(&floor_obs_, &tracer_);
  // Occupancy levels are pulled at snapshot time, not pushed per op.
  // dmps-lint: obs-register-begin — session construction is the init
  // region; everything registers before the scenario runs.
  metrics_.gauge_callback("floor.active_grants", [this] {
    return static_cast<std::int64_t>(arbitration_->active_grants());
  });
  metrics_.gauge_callback("floor.suspended_grants", [this] {
    return static_cast<std::int64_t>(arbitration_->suspended_grants());
  });
  metrics_.gauge_callback("floor.queued_requests", [this] {
    return static_cast<std::int64_t>(arbitration_->queued_requests());
  });
  metrics_.gauge_callback("net.sent", [this] {
    return static_cast<std::int64_t>(network_.sent());
  });
  metrics_.gauge_callback("net.dropped", [this] {
    return static_cast<std::int64_t>(network_.dropped());
  });
  metrics_.gauge_callback("net.delivered", [this] {
    return static_cast<std::int64_t>(network_.delivered());
  });
  // dmps-lint: obs-register-end

  // One host shard per endpoint; endpoint 0 shares the clock server's
  // station so a single-host session keeps the classic one-server topology.
  for (int h = 0; h < config_.hosts; ++h) {
    Endpoint endpoint;
    endpoint.host = floorctl::HostId{static_cast<std::uint32_t>(1 + h)};
    arbitration_->add_host(endpoint.host, config_.host_capacity);
    if (h == 0) {
      endpoint.node = server_node_;
    } else {
      endpoint.node = network_.add_node("floor" + std::to_string(h));
      endpoint.demux = std::make_unique<net::Demux>(network_, endpoint.node);
      endpoint.transport =
          std::make_unique<transport::SimTransport>(*endpoint.demux);
    }
    endpoints_.push_back(std::move(endpoint));
  }

  // Bulk setup: register the moderator, the group and every station member
  // under one Batch, so the whole construction is one copy-on-write
  // snapshot publish instead of one per member.
  floorctl::GroupRegistry::Batch batch(registry_);
  chair_ = registry_.add_member("moderator", 1'000'000, endpoints_[0].host);
  group_ = registry_.create_group("session", floorctl::FcmMode::kFreeAccess,
                                  chair_, config_.policy);

  // Federated moderation: one FloorServer per shard, all over the same
  // GroupRegistry — one conference, arbitration partitioned by host.
  for (Endpoint& endpoint : endpoints_) {
    transport::SimTransport& transport =
        endpoint.transport ? *endpoint.transport : *server_transport_;
    endpoint.server = std::make_unique<fproto::FloorServer>(
        transport, registry_, *arbitration_->shard(endpoint.host),
        config_.server);
  }

  for (int i = 0; i < config_.stations; ++i) {
    auto station = std::make_unique<Station>();
    Station& s = *station;
    stations_.push_back(std::move(station));
    s.index = i;
    const Endpoint& endpoint =
        endpoints_[static_cast<std::size_t>(i % config_.hosts)];
    s.home = endpoint.host;
    const std::string name = "station" + std::to_string(i);
    // Priorities cycle 1..3 so arbitration has real suspension victims.
    s.member = registry_.add_member(name, 1 + (i % 3), s.home);
    s.node = network_.add_node(name);

    // Asymmetric links: uplink and downlink latency differ, and each
    // station sits a little further from the server than the previous one.
    const Duration skew = config_.per_station_skew * static_cast<double>(i);
    const net::LinkQuality up{config_.up_latency + skew, config_.jitter,
                              config_.loss};
    const net::LinkQuality down{config_.down_latency + skew, config_.jitter,
                                config_.loss};
    network_.set_link(s.node, server_node_, up);
    network_.set_link(server_node_, s.node, down);
    if (endpoint.node != server_node_) {
      // The station's floor endpoint is a different server station: same
      // asymmetric qualities on that pair.
      network_.set_link(s.node, endpoint.node, up);
      network_.set_link(endpoint.node, s.node, down);
    }

    s.demux = std::make_unique<net::Demux>(network_, s.node);
    s.transport = std::make_unique<transport::SimTransport>(*s.demux);
    // Workstation oscillators: deterministic spread of drift and phase.
    const double drift_ppm = ((i * 83) % 400) - 200.0;
    const Duration phase = Duration::millis((i % 9) * 10 - 40);
    s.local_clock = std::make_unique<clk::DriftClock>(sim_, drift_ppm, phase);
    s.clock_client = std::make_unique<clk::GlobalClockClient>(
        *s.demux, sim_, *s.local_clock, server_node_, config_.sync);
    s.admission =
        std::make_unique<clk::AdmissionController>(sim_, *s.clock_client);
    s.clock_client->start();

    // The station's presentation: a short title card, the main media, a
    // short outro. Playout is paced by the station's own admitted clock.
    const auto intro =
        s.lib.add("intro" + std::to_string(i), media::MediaType::kImage,
                  Duration::millis(400));
    s.body = s.lib.add("body" + std::to_string(i), media::MediaType::kVideo,
                       config_.media_len);
    const auto outro =
        s.lib.add("outro" + std::to_string(i), media::MediaType::kText,
                  Duration::millis(400));
    ocpn::PresentationSpec spec;
    spec.set_root(
        spec.seq({spec.media(intro), spec.media(s.body), spec.media(outro)}));
    s.model = std::make_unique<docpn::Docpn>(s.lib, std::move(spec),
                                             docpn::Docpn::Options{true});
    // The user-skip workload needs the skip splice in the net before the
    // engine attaches; leave plain sessions' nets untouched.
    if (config_.skip_after > Duration::zero()) s.model->add_skip(s.body);

    docpn::EngineEvents engine_events;
    engine_events.on_finished = [this, &s](TimePoint) {
      s.playback_finished = true;
      s.playback_finished_at = sim_.now();
      // A finished presentation gives the floor back, so suspended holders
      // can Media-Resume.
      s.agent->release_floor();
    };
    s.engine = std::make_unique<docpn::DocpnEngine>(sim_, *s.admission, *s.model,
                                                    std::move(engine_events));

    fproto::AgentEvents events;
    events.on_joined = [this, &s] { script_request(s); };
    events.on_granted = [this, &s](std::uint64_t, bool) {
      ++s.grants;
      // Station-observed grant latency: request on the wire -> Grant
      // applied (includes queue wait for parked requests).
      wire_obs_.grant_latency_us.record(
          (sim_.now() - s.requested_at).raw_nanos() / 1000);
      s.playback_started = true;
      s.playback_started_at = sim_.now();
      s.engine->start(s.admission->global_now());
      if (config_.skip_after > Duration::zero()) {
        // The scripted user: skip the body partway through. The engine
        // refuses skips while the playout is suspended or already finished
        // — either way the floor is released exactly once, on finish.
        sim_.schedule_in(config_.skip_after, [&s] {
          if (s.engine->skip(s.body)) {
            ++s.skips;
          } else {
            ++s.skips_refused;
          }
        });
      }
    };
    events.on_denied = [this, &s](std::uint64_t, floorctl::Outcome) {
      ++s.denies;
      if (s.attempts < config_.max_request_attempts) {
        sim_.schedule_in(config_.retry_backoff, [this, &s] { script_request(s); });
      }
    };
    // A queueing group parks the request server-side: the station just
    // waits for the promotion Grant instead of burning a retry attempt.
    events.on_queued = [&s](std::uint64_t) { ++s.queues; };
    // A suspend that overtakes its grant still fires on_granted first (the
    // agent synthesizes it), so playback is always started by the time
    // pause/resume arrive.
    events.on_suspended = [&s](std::uint64_t) {
      ++s.suspends;
      s.engine->pause();
    };
    events.on_resumed = [&s](std::uint64_t) {
      ++s.resumes;
      s.engine->resume();
    };
    events.on_released = [&s](std::uint64_t) { ++s.releases; };
    s.agent = std::make_unique<fproto::FloorAgent>(
        *s.transport, endpoint.node, s.member, group_, s.home, config_.agent,
        events);

    // Scripted entrances: stations trickle in, then request staggered.
    sim_.schedule_in(Duration::millis(100 + 30 * i), [this, &s] { script_join(s); });
  }
}

Presentation::~Presentation() = default;

void Presentation::script_join(Station& s) { s.agent->join(); }

void Presentation::script_request(Station& s) {
  if (s.agent->state() != fproto::AgentState::kJoined) return;
  if (s.attempts >= config_.max_request_attempts) return;
  ++s.attempts;
  // Stagger the first wave; retries land wherever the backoff put them.
  const Duration delay =
      s.requests == 0 ? config_.request_stagger * static_cast<double>(s.index)
                      : Duration::zero();
  sim_.schedule_in(delay, [this, &s] {
    if (s.agent->state() != fproto::AgentState::kJoined) return;
    if (s.agent->request_floor(config_.qos) != 0) {
      ++s.requests;
      s.requested_at = sim_.now();
    }
  });
}

SessionStats Presentation::run(util::Duration horizon) {
  // Construction registered every instrument; from here on a new
  // registration is a bug (a lazy hot-path allocation), so it throws.
  metrics_.freeze();
  sim_.run_until(sim_.now() + horizon);
  return stats();
}

SessionStats Presentation::stats() const {
  SessionStats out;
  out.stations = static_cast<int>(stations_.size());
  for (const auto& station : stations_) {
    const Station& s = *station;
    out.requests_issued += s.requests;
    out.granted += s.grants;
    out.denied += s.denies;
    out.queued += s.queues;
    out.released += s.releases;
    out.suspends += s.suspends;
    out.resumes += s.resumes;
    out.playbacks_finished += s.playback_finished ? 1 : 0;
    out.skips += s.skips;
    out.skips_refused += s.skips_refused;
    // Stuck means an operation is genuinely in flight (or failed). An
    // agent parked in kQueued is alive: its request sits server-side and a
    // Grant/Deny is still owed — report it as waiting, not stuck.
    const bool queued_waiting =
        s.agent->state() == fproto::AgentState::kQueued;
    out.queued_waiting += queued_waiting ? 1 : 0;
    out.stuck_agents += (s.agent->terminated() || queued_waiting) ? 0 : 1;
  }
  for (const Endpoint& endpoint : endpoints_) {
    out.notifies_pending += endpoint.server->notifies_pending();
  }
  // The packs the agents and servers write are the only counters; both
  // are the session's own unless the caller wired others in.
  const obs::WireInstruments& agents = *config_.agent.obs;
  const obs::WireInstruments& servers = *config_.server.obs;
  const auto count = [](const obs::Counter& counter) {
    return static_cast<std::uint64_t>(counter.value());
  };
  out.client_retransmits = count(agents.agent_retransmits);
  out.duplicates_suppressed = count(agents.agent_dup_drops);
  out.server_arbitrations = count(servers.server_arbitrations);
  out.server_duplicate_requests = count(servers.server_replay_hits);
  out.notify_retransmits = count(servers.server_notify_retransmits);
  out.floor_messages =
      count(agents.agent_sends) + count(servers.server_sends);
  out.messages_sent = network_.sent();
  out.messages_dropped = network_.dropped();
  out.messages_delivered = network_.delivered();
  return out;
}

StationSnapshot Presentation::station(int index) const {
  const Station& s = *stations_.at(static_cast<std::size_t>(index));
  StationSnapshot snap;
  snap.state = s.agent->state();
  snap.requests = s.requests;
  snap.grants = s.grants;
  snap.denies = s.denies;
  snap.queues = s.queues;
  snap.suspends = s.suspends;
  snap.resumes = s.resumes;
  snap.releases = s.releases;
  snap.skips = s.skips;
  snap.skips_refused = s.skips_refused;
  snap.playback_started = s.playback_started;
  snap.playback_finished = s.playback_finished;
  if (s.playback_started) {
    snap.playback_started_s = s.playback_started_at.to_seconds();
  }
  if (s.playback_finished) {
    snap.playback_finished_s = s.playback_finished_at.to_seconds();
  }
  return snap;
}

}  // namespace dmps::session
