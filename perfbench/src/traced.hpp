#pragma once
// The traced run: dmps_floord's composition hosted in the benchmark's own
// process, with timing decorators on its public seams.
//
// InProcessServer builds on its own thread exactly what dmps_floord's main()
// builds — one UdpLoop; one UdpEndpoint + fproto::FloorServer per shard;
// one ShardedFloorService over one GroupRegistry — and, when traced, slips
// two decorators into it:
//
//   TracedEndpoint     transport::Endpoint between each FloorServer and its
//                      UdpEndpoint: wraps every handler passed to on() and
//                      every send() in a span.
//   TimedFloorControl  floorctl::FloorControl between the FloorServers and
//                      the service: request() and release() spans.
//
// Every UdpLoop::poll turn is a span too, with its thread-CPU time. A span
// records name, start, duration, parent, the heap allocations made inside it
// (util::alloc_probe, fed by this binary's counting operator new) and the
// request id it serves (inherited from the parent, so all spans of one
// request share it). Spans stay in a preallocated buffer on the server
// thread and are summarized — and written out — after the thread stops.
// Self time is a span's duration minus its children's.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "floor/types.hpp"

namespace perfbench {

enum class SpanName : std::uint8_t {
  kPoll,
  kJoin,
  kLeave,
  kRequest,
  kRelease,
  kSuspendAck,
  kResumeAck,
  kOtherHandler,
  kFloorRequest,
  kFloorRelease,
  kSend,
};
inline constexpr int kSpanNames = 11;
const char* span_name(SpanName name);

/// 32 bytes, so a traced run of a few million spans stays small.
struct Span {
  std::int64_t start = 0;
  std::uint64_t request = 0;  // request id (join/leave: member << 32 | group)
  std::uint32_t duration = 0;  // ns
  /// Poll spans: thread CPU ns inside the turn. Join spans: the group's
  /// size before the join.
  std::uint32_t extra = 0;
  std::int32_t parent = -1;
  std::uint16_t allocs = 0;  // heap allocations inside, saturating
  SpanName name = SpanName::kPoll;
};

/// Single-writer span buffer, preallocated; a full buffer drops (and
/// counts) further spans rather than allocating on the traced thread.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity);
  std::int32_t open(SpanName name, std::uint64_t request, std::uint32_t extra);
  void close(std::int32_t index);
  void set_extra(std::int32_t index, std::uint32_t extra);

  const std::vector<Span>& spans() const { return spans_; }
  std::int64_t dropped() const { return dropped_; }
  /// Write every span as one tab-separated line: name, start, duration,
  /// parent, request, allocs, extra.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::size_t capacity_;
  std::int32_t current_ = -1;
  std::int64_t dropped_ = 0;
  // Allocation count when each open span began, by nesting depth (poll ->
  // handler -> arbitration/send: three deep).
  std::uint64_t allocs_at_open_[8] = {};
  int depth_ = 0;
};

struct ServerSpec {
  int shards = 2;
  int hosts = 4;
  int groups = 4;
  int members = 64;
  double capacity = 4.0;
  dmps::floorctl::PolicyKind policy = dmps::floorctl::PolicyKind::kThreeRegime;
};

class InProcessServer {
 public:
  /// Starts the server thread; traced = with decorators and spans.
  InProcessServer(ServerSpec spec, bool traced, std::size_t span_capacity);
  ~InProcessServer();
  InProcessServer(const InProcessServer&) = delete;
  InProcessServer& operator=(const InProcessServer&) = delete;

  /// Block until the endpoints are bound; false on failure or timeout.
  bool wait_ready(double timeout_s);
  std::uint16_t base_port() const { return base_port_.load(); }
  /// The server thread's CPU clock, in ns (readable from any thread).
  std::int64_t cpu_ns() const;

  /// Graceful stop (the daemon's SIGTERM path: release everything, sweep
  /// every host, dump metrics), then join the thread.
  void stop();

  // Valid after stop().
  const std::string& dump() const { return dump_; }
  const SpanRecorder& recorder() const { return recorder_; }

 private:
  void serve();

  ServerSpec spec_;
  bool traced_;
  SpanRecorder recorder_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> ready_{false};
  std::atomic<bool> failed_{false};
  std::atomic<std::uint16_t> base_port_{0};
  std::string dump_;
  std::thread thread_;  // last: starts after every member it uses
};

/// Per-layer figures from a traced run, name -> (value, unit).
using LayerMetrics = std::map<std::string, std::pair<double, std::string>>;

struct TraceWindow {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t server_cpu_ns = 0;  // server thread CPU inside the window
  std::int64_t ops = 0;            // operations completed inside the window
};

/// Summarize a traced server's spans: per-message-kind handler self time
/// and allocations over the whole run; the per-op split and poll figures
/// over `window`. `group_size` is the per-group membership a full round
/// reaches (join first/last-tenth split); 0 skips that split.
LayerMetrics summarize_trace(const SpanRecorder& recorder,
                             const TraceWindow& window, int group_size);

}  // namespace perfbench
