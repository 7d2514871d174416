#include "traced.hpp"

#include <pthread.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common.hpp"
#include "floor/group.hpp"
#include "floor/sharded_service.hpp"
#include "fproto/codec.hpp"
#include "fproto/server.hpp"
#include "obs/registry.hpp"
#include "transport/udp.hpp"
#include "util/alloc_probe.hpp"
#include "wire_common.hpp"

namespace perfbench {

namespace fc = dmps::floorctl;
namespace fp = dmps::fproto;
namespace tr = dmps::transport;

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kPoll: return "poll";
    case SpanName::kJoin: return "join";
    case SpanName::kLeave: return "leave";
    case SpanName::kRequest: return "request";
    case SpanName::kRelease: return "release";
    case SpanName::kSuspendAck: return "suspend_ack";
    case SpanName::kResumeAck: return "resume_ack";
    case SpanName::kOtherHandler: return "other";
    case SpanName::kFloorRequest: return "floor.request";
    case SpanName::kFloorRelease: return "floor.release";
    case SpanName::kSend: return "send";
  }
  return "?";
}

// ------------------------------------------------------------ recorder

SpanRecorder::SpanRecorder(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
}

std::int32_t SpanRecorder::open(SpanName name, std::uint64_t request,
                                std::uint32_t extra) {
  if (spans_.size() >= capacity_ || depth_ >= 8) {
    ++dropped_;
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = current_;
  span.request = request != 0 || current_ < 0
                     ? request
                     : spans_[static_cast<std::size_t>(current_)].request;
  span.extra = extra;
  allocs_at_open_[depth_++] = dmps::util::alloc_probe_count();
  spans_.push_back(span);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  spans_.back().start = mono_ns();
  return current_;
}

void SpanRecorder::close(std::int32_t index) {
  if (index < 0) return;
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.duration = static_cast<std::uint32_t>(
      std::min<std::int64_t>(mono_ns() - span.start, UINT32_MAX));
  const std::uint64_t allocs =
      dmps::util::alloc_probe_count() - allocs_at_open_[--depth_];
  span.allocs = static_cast<std::uint16_t>(std::min<std::uint64_t>(allocs, UINT16_MAX));
  current_ = span.parent;
}

void SpanRecorder::set_extra(std::int32_t index, std::uint32_t extra) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].extra = extra;
}

bool SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "name\tstart_ns\tduration_ns\tparent\trequest\tallocs\textra\n";
  for (const Span& s : spans_) {
    out << span_name(s.name) << '\t' << s.start << '\t' << s.duration << '\t'
        << s.parent << '\t' << s.request << '\t' << s.allocs << '\t'
        << s.extra << '\n';
  }
  return static_cast<bool>(out);
}

// ----------------------------------------------------------- decorators

namespace {

/// transport::Endpoint decorator: a span around every handler on() was
/// given and around every send().
class TracedEndpoint final : public tr::Endpoint {
 public:
  TracedEndpoint(tr::Endpoint& inner, SpanRecorder& recorder,
                 const fc::GroupRegistry& registry)
      : inner_(inner), recorder_(recorder), registry_(registry) {}

  bool on(dmps::net::MsgType type, Handler handler) override {
    const auto kind = fp::kind_of(type);
    SpanName name = SpanName::kOtherHandler;
    if (kind) {
      switch (*kind) {
        case fp::MsgKind::kJoin: name = SpanName::kJoin; break;
        case fp::MsgKind::kLeave: name = SpanName::kLeave; break;
        case fp::MsgKind::kRequest: name = SpanName::kRequest; break;
        case fp::MsgKind::kRelease: name = SpanName::kRelease; break;
        case fp::MsgKind::kSuspendAck: name = SpanName::kSuspendAck; break;
        case fp::MsgKind::kResumeAck: name = SpanName::kResumeAck; break;
        default: break;
      }
    }
    return inner_.on(type, [this, name, inner = std::move(handler)](
                               const dmps::net::Message& msg) {
      std::uint64_t request = 0;
      std::uint32_t group_size = 0;
      if (!msg.ints.empty()) {
        request = static_cast<std::uint64_t>(msg.ints[0]);
        if ((name == SpanName::kJoin || name == SpanName::kLeave) &&
            msg.ints.size() >= 2) {
          request = (request << 32) | static_cast<std::uint32_t>(msg.ints[1]);
        }
      }
      if (name == SpanName::kJoin && msg.ints.size() >= 2) {
        // Group size before this join, read outside the span.
        const auto snapshot = registry_.snapshot();
        const fc::GroupId group{static_cast<std::uint32_t>(msg.ints[1])};
        if (snapshot->has_group(group)) {
          group_size = static_cast<std::uint32_t>(snapshot->group(group).members.size());
        }
      }
      const std::int32_t span = recorder_.open(name, request, group_size);
      inner(msg);
      recorder_.close(span);
    });
  }
  void off(dmps::net::MsgType type) override { inner_.off(type); }
  void send(dmps::net::NodeId to, dmps::net::MsgType type,
            dmps::net::Payload ints) override {
    const std::int32_t span = recorder_.open(SpanName::kSend, 0, 0);
    inner_.send(to, type, std::move(ints));
    recorder_.close(span);
  }
  tr::TimerId schedule_in(dmps::util::Duration delay,
                          std::function<void()> cb) override {
    return inner_.schedule_in(delay, std::move(cb));
  }
  bool cancel(tr::TimerId id) override { return inner_.cancel(id); }
  dmps::util::TimePoint now() const override { return inner_.now(); }

 private:
  tr::Endpoint& inner_;
  SpanRecorder& recorder_;
  const fc::GroupRegistry& registry_;
};

/// floorctl::FloorControl decorator: a span around every arbitration call.
class TimedFloorControl final : public fc::FloorControl {
 public:
  TimedFloorControl(fc::FloorControl& inner, SpanRecorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  fc::Decision request(const fc::FloorRequest& request) override {
    const std::int32_t span = recorder_.open(SpanName::kFloorRequest, 0, 0);
    fc::Decision decision = inner_.request(request);
    recorder_.close(span);
    return decision;
  }
  fc::ReleaseResult release(fc::MemberId member, fc::GroupId group) override {
    const std::int32_t span = recorder_.open(SpanName::kFloorRelease, 0, 0);
    fc::ReleaseResult result = inner_.release(member, group);
    recorder_.close(span);
    return result;
  }

 private:
  fc::FloorControl& inner_;
  SpanRecorder& recorder_;
};

}  // namespace

// ------------------------------------------------------------- server

InProcessServer::InProcessServer(ServerSpec spec, bool traced,
                                 std::size_t span_capacity)
    : spec_(spec),
      traced_(traced),
      recorder_(traced ? span_capacity : 0),
      thread_([this] { serve(); }) {}

InProcessServer::~InProcessServer() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

bool InProcessServer::wait_ready(double timeout_s) {
  const std::int64_t deadline =
      mono_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (!ready_.load() && !failed_.load() && mono_ns() < deadline) {
    std::this_thread::yield();
  }
  return ready_.load();
}

std::int64_t InProcessServer::cpu_ns() const {
  clockid_t clock;
  if (pthread_getcpuclockid(const_cast<std::thread&>(thread_).native_handle(),
                            &clock) != 0) {
    return 0;
  }
  return read_clock(clock);
}

void InProcessServer::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void InProcessServer::serve() {
  pin_served();
  // Mirrors tools/dmps_floord.cpp main(): same instruments, same topology
  // convention, same service and server configuration.
  dmps::obs::MetricsRegistry metrics;
  dmps::obs::WireInstruments wire(metrics);
  dmps::obs::FloorInstruments floor(metrics);

  tr::UdpLoop loop;
  tr::LoopClock clock(loop);

  std::vector<std::unique_ptr<tr::UdpEndpoint>> endpoints;
  for (int attempt = 0; attempt < 8 && endpoints.empty(); ++attempt) {
    try {
      endpoints.push_back(std::make_unique<tr::UdpEndpoint>(
          loop, fp::wire_schema(), 0, &wire));
      const std::uint16_t base = endpoints[0]->local_port();
      for (int s = 1; s < spec_.shards; ++s) {
        endpoints.push_back(std::make_unique<tr::UdpEndpoint>(
            loop, fp::wire_schema(), static_cast<std::uint16_t>(base + s),
            &wire));
      }
    } catch (const std::runtime_error&) {
      endpoints.clear();  // base + s was taken: try another base
    }
  }
  if (endpoints.empty()) {
    failed_.store(true);
    return;
  }

  fc::GroupRegistry registry;
  std::vector<fc::MemberId> members;
  std::vector<fc::GroupId> groups;
  {
    fc::GroupRegistry::Batch batch(registry);
    const fc::MemberId chair =
        registry.add_member("moderator", 1'000'000, fc::HostId{1});
    const dmps::tools::WireTopology topology{spec_.hosts, spec_.groups,
                                             spec_.shards};
    for (int i = 0; i < spec_.members; ++i) {
      members.push_back(registry.add_member(
          "m" + std::to_string(i), 1 + (i % 3),
          fc::HostId{static_cast<std::uint32_t>(topology.host_of(i))}));
    }
    for (int g = 0; g < spec_.groups; ++g) {
      groups.push_back(registry.create_group("g" + std::to_string(g),
                                             fc::FcmMode::kFreeAccess, chair,
                                             spec_.policy));
    }
  }

  fc::ShardedFloorService service(registry, clock,
                                  dmps::resource::Thresholds{0.25, 0.05});
  service.set_observability(&floor, nullptr);
  for (int h = 0; h < spec_.hosts; ++h) {
    service.add_host(fc::HostId{static_cast<std::uint32_t>(1 + h)},
                     dmps::resource::Resource{spec_.capacity, spec_.capacity,
                                              spec_.capacity});
  }
  TimedFloorControl timed(service, recorder_);
  fc::FloorControl& control =
      traced_ ? static_cast<fc::FloorControl&>(timed) : service;

  std::vector<std::unique_ptr<TracedEndpoint>> traced_endpoints;
  fp::ServerConfig config;
  config.notify_retry = dmps::util::Duration::millis(100);
  config.obs = &wire;
  std::vector<std::unique_ptr<fp::FloorServer>> servers;
  for (auto& endpoint : endpoints) {
    tr::Endpoint* seam = endpoint.get();
    if (traced_) {
      traced_endpoints.push_back(
          std::make_unique<TracedEndpoint>(*endpoint, recorder_, registry));
      seam = traced_endpoints.back().get();
    }
    servers.push_back(
        std::make_unique<fp::FloorServer>(*seam, registry, control, config));
  }
  metrics.freeze();

  base_port_.store(endpoints[0]->local_port());
  ready_.store(true);

  while (!stop_.load(std::memory_order_relaxed)) {
    if (traced_) {
      const std::int64_t cpu0 = thread_cpu_ns();
      const std::int32_t span = recorder_.open(SpanName::kPoll, 0, 0);
      loop.poll(dmps::util::Duration::millis(10));
      recorder_.close(span);
      recorder_.set_extra(span, static_cast<std::uint32_t>(std::min<std::int64_t>(
                                    thread_cpu_ns() - cpu0, UINT32_MAX)));
    } else {
      loop.poll(dmps::util::Duration::millis(10));
    }
  }

  // The daemon's graceful shutdown.
  for (const fc::MemberId member : members) {
    for (const fc::GroupId group : groups) service.release(member, group);
  }
  for (int h = 0; h < spec_.hosts; ++h) {
    service.sweep(fc::HostId{static_cast<std::uint32_t>(1 + h)});
  }
  std::ostringstream out;
  metrics.write_json(out);
  dump_ = out.str();
  servers.clear();
  traced_endpoints.clear();
  endpoints.clear();
}

// ------------------------------------------------------------ summary

LayerMetrics summarize_trace(const SpanRecorder& recorder,
                             const TraceWindow& window, int group_size) {
  const std::vector<Span>& spans = recorder.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.duration;
    }
  }

  struct Kind {
    std::vector<std::int64_t> self_ns;
    std::int64_t allocs = 0;
  };
  Kind kinds[kSpanNames];
  std::vector<std::int64_t> join_first;
  std::vector<std::int64_t> join_last;
  double poll_wall = 0, poll_cpu = 0, poll_children = 0;
  double handler_self_in = 0, floor_in = 0, send_in = 0;
  std::int64_t datagrams_in = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t dur = s.duration;
    const std::int64_t self = dur - child_ns[i];
    Kind& kind = kinds[static_cast<int>(s.name)];
    kind.self_ns.push_back(self);
    kind.allocs += s.allocs;
    const bool in = s.start >= window.begin && s.start < window.end;
    const bool handler = s.name != SpanName::kPoll &&
                         s.name != SpanName::kFloorRequest &&
                         s.name != SpanName::kFloorRelease &&
                         s.name != SpanName::kSend;
    if (s.name == SpanName::kJoin && group_size > 0) {
      if (s.extra < static_cast<std::uint32_t>(group_size / 10)) {
        join_first.push_back(self);
      } else if (s.extra >= static_cast<std::uint32_t>(group_size - group_size / 10)) {
        join_last.push_back(self);
      }
    }
    if (!in) continue;
    if (s.name == SpanName::kPoll) {
      poll_wall += static_cast<double>(dur);
      poll_cpu += static_cast<double>(s.extra);
      poll_children += static_cast<double>(child_ns[i]);
    } else if (handler) {
      handler_self_in += static_cast<double>(self);
      ++datagrams_in;
    } else if (s.name == SpanName::kSend) {
      send_in += static_cast<double>(dur);
    } else {
      floor_in += static_cast<double>(dur);
    }
  }

  LayerMetrics out;
  const auto put = [&out](const std::string& name, double value,
                          const char* unit) { out[name] = {value, unit}; };
  const auto kind_of = [&kinds](SpanName name) -> Kind& {
    return kinds[static_cast<int>(name)];
  };
  const struct {
    SpanName name;
    const char* key;
  } handlers[] = {{SpanName::kRequest, "request"},
                  {SpanName::kRelease, "release"},
                  {SpanName::kJoin, "join"},
                  {SpanName::kLeave, "leave"},
                  {SpanName::kSuspendAck, "suspend_ack"},
                  {SpanName::kResumeAck, "resume_ack"}};
  std::int64_t all_msgs = 0;
  std::int64_t all_allocs = 0;
  double all_self = 0;
  for (const auto& h : handlers) {
    Kind& k = kind_of(h.name);
    all_msgs += static_cast<std::int64_t>(k.self_ns.size());
    all_allocs += k.allocs;
    for (const std::int64_t v : k.self_ns) all_self += static_cast<double>(v);
    if (k.self_ns.empty()) continue;
    put(std::string("fproto.handle_ns.") + h.key, mean_of(k.self_ns), "ns");
    put(std::string("fproto.msgs.") + h.key,
        static_cast<double>(k.self_ns.size()), "count");
    if (h.name == SpanName::kRequest || h.name == SpanName::kRelease ||
        h.name == SpanName::kJoin || h.name == SpanName::kLeave) {
      put(std::string("fproto.allocs_per_msg.") + h.key,
          ratio(static_cast<double>(k.allocs),
                static_cast<double>(k.self_ns.size())),
          "count");
    }
  }
  put("fproto.self_ns_per_msg", ratio(all_self, static_cast<double>(all_msgs)),
      "ns");
  put("fproto.allocs_per_msg.all",
      ratio(static_cast<double>(all_allocs), static_cast<double>(all_msgs)),
      "count");

  const struct {
    SpanName name;
    const char* key;
    const char* allocs_key;
  } floor_calls[] = {
      {SpanName::kFloorRequest, "floor.request_ns", "floor.allocs_per_request"},
      {SpanName::kFloorRelease, "floor.release_ns", "floor.allocs_per_release"}};
  for (const auto& f : floor_calls) {
    Kind& k = kind_of(f.name);
    if (k.self_ns.empty()) continue;
    put(std::string(f.key) + ".mean", mean_of(k.self_ns), "ns");
    put(std::string(f.key) + ".p99", quantile(k.self_ns, 0.99), "ns");
    put(f.allocs_key,
        ratio(static_cast<double>(k.allocs),
              static_cast<double>(k.self_ns.size())),
        "count");
  }
  if (!join_first.empty() && !join_last.empty()) {
    put("floor.join_ns.first_tenth", mean_of(join_first), "ns");
    put("floor.join_ns.last_tenth", mean_of(join_last), "ns");
  }

  Kind& send = kind_of(SpanName::kSend);
  put("transport.send_ns", mean_of(send.self_ns), "ns");
  put("transport.poll_cpu_ns_per_datagram",
      ratio(poll_cpu - poll_children, static_cast<double>(datagrams_in)), "ns");
  put("transport.idle_share", ratio(poll_wall - poll_cpu, poll_wall), "ratio");

  // The per-op split inside the window: where the traced thread's CPU went.
  const double ops = static_cast<double>(window.ops);
  const double transport_ns = (poll_cpu - poll_children) + send_in;
  const double cpu_per_op = ratio(static_cast<double>(window.server_cpu_ns), ops);
  const double transport_per_op = ratio(transport_ns, ops);
  const double fproto_per_op = ratio(handler_self_in, ops);
  const double floor_per_op = ratio(floor_in, ops);
  put("split.traced_cpu_ns_per_op", cpu_per_op, "ns");
  put("split.transport_ns_per_op", transport_per_op, "ns");
  put("split.fproto_ns_per_op", fproto_per_op, "ns");
  put("split.floor_ns_per_op", floor_per_op, "ns");
  put("split.unaccounted_ns_per_op",
      cpu_per_op - transport_per_op - fproto_per_op - floor_per_op, "ns");
  put("trace.spans", static_cast<double>(spans.size()), "count");
  return out;
}

}  // namespace perfbench
