#include "floor/grant_store.hpp"

#include <algorithm>

namespace dmps::floorctl {

void GrantStore::add_host(HostId host, resource::Resource capacity) {
  const auto it = hosts_.find(host.value());
  if (it != hosts_.end()) {
    // Replacing a live host voids its grants; otherwise release_holder()
    // would later chase slot indices the fresh HostState no longer tracks.
    void_grants_of_host(host);
    hosts_.erase(host.value());
  }
  hosts_.emplace(host.value(),
                 HostState{resource::HostResourceManager(capacity), {}, {}});
}

void GrantStore::void_grants_of_host(HostId host) {
  for (Grant& grant : grants_) {
    if (grant.host != host || grant.released) continue;
    grant.released = true;
    if (grant.suspended) {
      grant.suspended = false;
      --suspended_count_;
    } else {
      --active_count_;
    }
    const auto idx = static_cast<std::size_t>(&grant - grants_.data());
    drop_from_holder_index(idx);
    free_slots_.push_back(idx);
  }
}

resource::HostResourceManager* GrantStore::host_manager(HostId host) {
  const auto it = hosts_.find(host.value());
  return it != hosts_.end() ? &it->second.manager : nullptr;
}

std::optional<GrantStore::HostView> GrantStore::view(HostId host) {
  const auto it = hosts_.find(host.value());
  if (it == hosts_.end()) return std::nullopt;
  return HostView(*this, it->second, host);
}

// dmps-lint: hot-begin(grant-store-mutate) — every grant mutation path
// below runs inside the million sweep's alloc-probe bracket: slot reuse,
// kept-empty index nodes and pooled map nodes keep it off the heap.
std::size_t GrantStore::alloc_slot(Grant grant) {
  if (!free_slots_.empty()) {
    const std::size_t idx = free_slots_.back();
    free_slots_.pop_back();
    grants_[idx] = grant;
    return idx;
  }
  grants_.push_back(grant);
  return grants_.size() - 1;
}

void GrantStore::drop_from_holder_index(std::size_t idx) {
  const Grant& grant = grants_[idx];
  const auto holder = holder_index_.find(holder_key(grant.member, grant.group));
  if (holder == holder_index_.end()) return;
  auto& vec = holder->second;
  // Compact in place; the (possibly empty) entry is kept so a returning
  // holder reuses its hash node and SmallVec storage.
  std::size_t keep = 0;
  for (std::size_t i = 0; i < vec.size(); ++i) {
    if (vec[i] != static_cast<std::uint32_t>(idx)) vec[keep++] = vec[i];
  }
  while (vec.size() > keep) vec.pop_back();
}

GrantStore::HolderRelease GrantStore::release_holder(MemberId member,
                                                     GroupId group) {
  HolderRelease result;
  const auto it = holder_index_.find(holder_key(member, group));
  if (it == holder_index_.end() || it->second.empty()) return result;

  result.released = true;

  // Iterate the slot list in place, then clear it but keep the entry: the
  // loop body never touches holder_index_, and the kept storage is what
  // keeps a steady-state request/release cycle off the heap.
  for (const std::uint32_t idx : it->second) {
    Grant& grant = grants_[idx];
    if (grant.released) continue;
    grant.released = true;
    HostState& host = hosts_.at(grant.host.value());
    const IndexKey key{grant.priority, grant.seq};
    if (grant.suspended) {
      // A suspended grant holds no capacity: nothing is freed by dropping it.
      grant.suspended = false;
      host.suspended.erase(key);
      --suspended_count_;
    } else {
      host.manager.release(grant.amount);
      host.active.erase(key);
      --active_count_;
      if (std::find(result.freed_hosts.begin(), result.freed_hosts.end(),
                    grant.host) == result.freed_hosts.end()) {
        result.freed_hosts.push_back(grant.host);
      }
    }
    free_slots_.push_back(idx);
  }
  it->second.clear();
  return result;
}

bool GrantStore::HostView::suspend_to_fit(const resource::Resource& need,
                                          int priority,
                                          std::vector<Holder>& suspended) {
  // Walk the active index from the front — lowest priority, then oldest —
  // releasing capacity tentatively until the request fits. The walk stops
  // at the first holder whose priority is not strictly below the
  // requester's, so it touches only actual candidates: O(k log M).
  util::SmallVec<std::size_t, 16> taken;
  auto it = state_->active.begin();
  for (; it != state_->active.end() && !state_->manager.can_fit(need); ++it) {
    if (it->first.first >= priority) break;  // no strictly-junior holder left
    Grant& grant = store_->grants_[it->second];
    state_->manager.release(grant.amount);
    taken.push_back(it->second);
  }
  if (!state_->manager.can_fit(need)) {
    // Even suspending every junior holder is not enough: roll back.
    for (const std::size_t idx : taken) {
      state_->manager.reserve(store_->grants_[idx].amount);
    }
    return false;
  }
  // Commit: move the taken grants from the active to the suspended index.
  for (const std::size_t idx : taken) {
    Grant& grant = store_->grants_[idx];
    grant.suspended = true;
    const IndexKey key{grant.priority, grant.seq};
    state_->active.erase(key);
    state_->suspended.emplace(key, idx);
    --store_->active_count_;
    ++store_->suspended_count_;
    suspended.push_back(Holder{grant.member, grant.group});
  }
  return true;
}

void GrantStore::HostView::commit_grant(MemberId member, GroupId group,
                                        const resource::Resource& need,
                                        int priority) {
  state_->manager.reserve(need);
  const std::uint64_t seq = store_->next_seq_++;
  const std::size_t idx =
      store_->alloc_slot(Grant{member, group, host_, need, priority, seq,
                               store_->clock_.now(), false, false});
  state_->active.emplace(IndexKey{priority, seq}, idx);
  // A holder's first grant inserts its index node; release_holder() keeps
  // the emptied entry, so the steady request/release cycle reuses it.
  // dmps-lint: allow-next(hot-unordered-map)
  store_->holder_index_[holder_key(member, group)].push_back(
      static_cast<std::uint32_t>(idx));
  ++store_->active_count_;
}

void GrantStore::HostView::resume_suspended(std::vector<Holder>& resumed) {
  if (state_->suspended.empty()) return;
  // Media-Resume: highest priority first, then oldest, as capacity allows;
  // a holder that does not fit stays suspended and the walk continues.
  // (Flat key struct: std::pair is not trivially copyable, SmallVec is.)
  struct FlatKey {
    int priority;
    std::uint64_t seq;
  };
  util::SmallVec<FlatKey, 16> admitted;
  for (const auto& [key, idx] : state_->suspended) {
    Grant& grant = store_->grants_[idx];
    if (!state_->manager.reserve(grant.amount)) continue;
    grant.suspended = false;
    admitted.push_back(FlatKey{key.first, key.second});
    resumed.push_back(Holder{grant.member, grant.group});
  }
  for (const FlatKey& flat : admitted) {
    const IndexKey key{flat.priority, flat.seq};
    const auto it = state_->suspended.find(key);
    state_->active.emplace(key, it->second);
    state_->suspended.erase(it);
    --store_->suspended_count_;
    ++store_->active_count_;
  }
}
// dmps-lint: hot-end

}  // namespace dmps::floorctl
