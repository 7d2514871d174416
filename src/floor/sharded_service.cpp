#include "floor/sharded_service.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

namespace dmps::floorctl {

namespace {

/// Fold one shard's release result into the fan-out's accumulated one.
void merge_release_results(ReleaseResult& into, ReleaseResult&& from) {
  into.released |= from.released;
  into.resumed.insert(into.resumed.end(), from.resumed.begin(),
                      from.resumed.end());
  into.promoted.insert(into.promoted.end(),
                       std::make_move_iterator(from.promoted.begin()),
                       std::make_move_iterator(from.promoted.end()));
  into.dequeued.insert(into.dequeued.end(), from.dequeued.begin(),
                       from.dequeued.end());
}

}  // namespace

ShardedFloorService::ShardedFloorService(const GroupRegistry& registry,
                                         clk::Clock& clock,
                                         resource::Thresholds thresholds)
    : registry_(registry),
      clock_(clock),
      thresholds_(thresholds),
      obs_(&obs::FloorInstruments::global()) {}

void ShardedFloorService::add_host(HostId host, resource::Resource capacity) {
  auto it = shards_.find(host.value());
  if (it == shards_.end()) {
    it = shards_
             .emplace(host.value(), std::make_unique<FloorService>(
                                        registry_, clock_, thresholds_))
             .first;
    it->second->set_instruments(obs_);
    it->second->set_tracer(tracer_);
  }
  it->second->add_host(host, capacity);
}

void ShardedFloorService::set_observability(obs::FloorInstruments* instruments,
                                            obs::Tracer* tracer) {
  obs_ = instruments != nullptr ? instruments
                                : &obs::FloorInstruments::global();
  tracer_ = tracer;
  for (auto& [id, shard] : shards_) {
    shard->set_instruments(obs_);
    shard->set_tracer(tracer_);
  }
}

FloorService* ShardedFloorService::shard(HostId host) {
  const auto it = shards_.find(host.value());
  return it != shards_.end() ? it->second.get() : nullptr;
}

resource::HostResourceManager* ShardedFloorService::host_manager(HostId host) {
  FloorService* owner = shard(host);
  return owner ? owner->host_manager(host) : nullptr;
}

Decision ShardedFloorService::request(const FloorRequest& request) {
  FloorService* owner = shard(request.host);
  if (!owner) {
    Decision decision;
    decision.reason = "unknown host station";
    return decision;
  }
  Decision decision = owner->request(request);
  if (decision.outcome == Outcome::kGranted ||
      decision.outcome == Outcome::kGrantedDegraded ||
      decision.outcome == Outcome::kQueued) {
    // The shard now holds state for this (member, group): remember the
    // route so release/cancel touch exactly the shards involved.
    auto& hosts = routes_[holder_key(request.member, request.group)];
    if (std::find(hosts.begin(), hosts.end(), request.host) == hosts.end()) {
      hosts.push_back(request.host);
      obs_->routes_recorded.add();
    }
  }
  return decision;
}

ReleaseResult ShardedFloorService::release(MemberId member, GroupId group) {
  ReleaseResult result;
  const auto route = routes_.find(holder_key(member, group));
  if (route == routes_.end()) return result;
  // Iterate in place (release() on a shard never touches routes_), then
  // clear but KEEP the entry: the reused hash node and inline storage are
  // what keep the steady-state request/release cycle off the heap.
  obs_->route_fanout.add(static_cast<std::int64_t>(route->second.size()));
  for (const HostId host : route->second) {
    if (FloorService* owner = shard(host)) {
      merge_release_results(result, owner->release(member, group));
    }
  }
  route->second.clear();
  return result;
}

ReleaseResult ShardedFloorService::cancel(MemberId member, GroupId group) {
  ReleaseResult result;
  const auto route = routes_.find(holder_key(member, group));
  if (route == routes_.end()) return result;
  obs_->route_fanout.add(static_cast<std::int64_t>(route->second.size()));
  for (const HostId host : route->second) {
    if (FloorService* owner = shard(host)) {
      merge_release_results(result, owner->cancel(member, group));
    }
  }
  // The route survives only if the member still holds an actual grant
  // somewhere (cancel drops parked state, not grants); recompute lazily on
  // the next release — keeping stale hosts is harmless, releases there
  // just report nothing.
  return result;
}

ReleaseResult ShardedFloorService::sweep(HostId host) {
  FloorService* owner = shard(host);
  return owner ? owner->sweep(host) : ReleaseResult{};
}

std::size_t ShardedFloorService::active_grants() const {
  std::size_t total = 0;
  for (const auto& [id, shard] : shards_) total += shard->active_grants();
  return total;
}

std::size_t ShardedFloorService::suspended_grants() const {
  std::size_t total = 0;
  for (const auto& [id, shard] : shards_) total += shard->suspended_grants();
  return total;
}

std::size_t ShardedFloorService::grant_slots() const {
  std::size_t total = 0;
  for (const auto& [id, shard] : shards_) total += shard->grant_slots();
  return total;
}

std::size_t ShardedFloorService::queued_requests() const {
  std::size_t total = 0;
  for (const auto& [id, shard] : shards_) total += shard->queued_requests();
  return total;
}

std::size_t ShardedFloorService::queued_requests(GroupId group) const {
  std::size_t total = 0;
  for (const auto& [id, shard] : shards_) {
    total += shard->queued_requests(group);
  }
  return total;
}

}  // namespace dmps::floorctl
