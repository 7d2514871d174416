#pragma once
// ShardedFloorService: floor-control state partitioned by host station.
//
// The paper's FCM scales by giving every host station its own resource
// manager; this facade completes that shape for the whole floor-control
// core. Each registered host gets a *shard* — a full FloorService with its
// own GrantStore, policies and queueing state — and every operation is
// routed by host: request/sweep by FloorRequest::host, release/cancel by a
// holder-route map recorded when the shard accepted the request. Shards
// share one GroupRegistry, so a single conference (groups, members, chairs)
// federates across all of them; on the wire, one fproto::FloorServer
// endpoint binds to each shard via shard(host).
//
// The surface mirrors FloorService (request / release / cancel / sweep /
// aggregate counters), so sessions and benches can swap one for the other.
// Cross-host promotion needs no extra machinery here: a queued request
// lives in the shard of the host it asked for, and that shard's
// capacity-change sweep promotes it the moment capacity frees there.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>

#include "clock/drift_clock.hpp"
#include "floor/service.hpp"
#include "util/small_vec.hpp"

namespace dmps::floorctl {

class ShardedFloorService : public FloorControl {
 public:
  ShardedFloorService(const GroupRegistry& registry, clk::Clock& clock,
                      resource::Thresholds thresholds);

  /// Register a host station and its capacity. First sight of a host
  /// creates its shard; re-registering replaces the host inside the
  /// existing shard (voiding its grants, exactly like FloorService).
  void add_host(HostId host, resource::Resource capacity);

  /// The per-host shard, or nullptr for an unknown host. This is the seam
  /// federated fproto::FloorServer endpoints bind to (one per shard).
  FloorService* shard(HostId host);
  resource::HostResourceManager* host_manager(HostId host);
  bool has_host(HostId host) const {
    return shards_.find(host.value()) != shards_.end();
  }

  /// FCM-Arbitrate on the shard owning request.host.
  Decision request(const FloorRequest& request) override;

  /// Release everything `member` holds in `group` on every shard it was
  /// routed to, dropping parked requests there too.
  ReleaseResult release(MemberId member, GroupId group) override;

  /// Drop the member's parked requests in `group` (no grants touched).
  ReleaseResult cancel(MemberId member, GroupId group);

  /// Capacity-change hook, routed to the shard owning `host`.
  ReleaseResult sweep(HostId host);

  /// Wire instruments and an (optional) tracer into every shard, current
  /// and future. nullptr instruments fall back to the global pack; a
  /// nullptr tracer disables the event stream. Setup-phase call.
  void set_observability(obs::FloorInstruments* instruments,
                         obs::Tracer* tracer);

  std::size_t shard_count() const { return shards_.size(); }
  const resource::Thresholds& thresholds() const { return thresholds_; }

  // Aggregates over every shard.
  std::size_t active_grants() const;
  std::size_t suspended_grants() const;
  std::size_t grant_slots() const;
  std::size_t queued_requests() const;
  std::size_t queued_requests(GroupId group) const;

 private:
  const GroupRegistry& registry_;
  clk::Clock& clock_;
  resource::Thresholds thresholds_;
  obs::FloorInstruments* obs_;
  obs::Tracer* tracer_ = nullptr;
  // Ordered by host id: release fan-out and aggregates are deterministic.
  std::map<HostId::value_type, std::unique_ptr<FloorService>> shards_;
  // holder (member, group) -> shards holding its grants or parked requests.
  // Routes are recorded when a shard accepts (grants or parks) a request
  // and dropped on release, so releases touch only the shards involved
  // instead of fanning out to all of them. Route lists stay inline for the
  // common one-or-two-host holder, and emptied entries are kept so a
  // returning holder reuses its hash node — the steady-state
  // request/release cycle allocates nothing here.
  std::unordered_map<std::uint64_t, util::SmallVec<HostId, 2>> routes_;
};

}  // namespace dmps::floorctl
