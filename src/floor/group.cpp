#include "floor/group.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dmps::floorctl {

std::string_view to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kGranted: return "granted";
    case Outcome::kGrantedDegraded: return "granted-degraded";
    case Outcome::kAborted: return "aborted";
    case Outcome::kDenied: return "denied";
    case Outcome::kQueued: return "queued";
  }
  return "unknown";
}

std::string_view to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kThreeRegime: return "three-regime";
    case PolicyKind::kQueueing: return "queueing";
  }
  return "unknown";
}

namespace {

std::shared_ptr<MemberSet::Leaf> make_leaf(std::uint64_t edit) {
  auto leaf = std::make_shared<MemberSet::Leaf>();
  leaf->edit = edit;
  return leaf;
}

void insert_at(MemberSet::Leaf& leaf, std::size_t pos, MemberId id) {
  std::copy_backward(leaf.ids.begin() + pos, leaf.ids.begin() + leaf.count,
                     leaf.ids.begin() + leaf.count + 1);
  leaf.ids[pos] = id;
  ++leaf.count;
}

}  // namespace

std::size_t MemberSet::leaf_for(MemberId id) const {
  // Keyed on each leaf's first id, which shares a cache line with the
  // leaf's header: one line touched per probe.
  const auto after = std::partition_point(
      leaves_.begin() + 1, leaves_.end(),
      [id](const std::shared_ptr<const Leaf>& leaf) { return !(id < leaf->ids[0]); });
  return static_cast<std::size_t>(after - leaves_.begin()) - 1;
}

MemberSet::Leaf& MemberSet::writable(std::size_t i, std::uint64_t edit) {
  if (leaves_[i]->edit != edit) {
    auto copy = std::make_shared<Leaf>(*leaves_[i]);
    copy->edit = edit;
    leaves_[i] = std::move(copy);
  }
  // Every Leaf is created non-const (make_leaf / the copy above), and one
  // stamped `edit` was created by this edit and never published: no reader
  // can hold it, so writing through it is safe.
  return const_cast<Leaf&>(*leaves_[i]);
}

bool MemberSet::contains(MemberId id) const {
  if (leaves_.empty()) return false;
  const Leaf& leaf = *leaves_[leaf_for(id)];
  return std::binary_search(leaf.begin(), leaf.end(), id);
}

bool MemberSet::insert(MemberId id, std::uint64_t edit) {
  if (leaves_.empty()) {
    auto leaf = make_leaf(edit);
    insert_at(*leaf, 0, id);
    leaves_.push_back(std::move(leaf));
    size_ = 1;
    return true;
  }
  const std::size_t i = leaf_for(id);
  const Leaf& leaf = *leaves_[i];
  const MemberId* at = std::lower_bound(leaf.begin(), leaf.end(), id);
  if (at != leaf.end() && *at == id) return false;
  const auto pos = static_cast<std::size_t>(at - leaf.begin());
  ++size_;
  if (leaf.count < kLeafCapacity) {
    insert_at(writable(i, edit), pos, id);
    return true;
  }
  auto right = make_leaf(edit);
  if (pos == kLeafCapacity && i + 1 == leaves_.size()) {
    // Past the end of a full last leaf: start a new one and leave this one
    // full, so in-order joins (bulk setup) pack every leaf.
    insert_at(*right, 0, id);
    leaves_.push_back(std::move(right));
    return true;
  }
  constexpr std::size_t kHalf = kLeafCapacity / 2;
  Leaf& left = writable(i, edit);
  std::copy(left.ids.begin() + kHalf, left.ids.end(), right->ids.begin());
  right->count = static_cast<std::uint32_t>(kLeafCapacity - kHalf);
  left.count = static_cast<std::uint32_t>(kHalf);
  if (pos <= kHalf) {
    insert_at(left, pos, id);
  } else {
    insert_at(*right, pos - kHalf, id);
  }
  leaves_.insert(leaves_.begin() + static_cast<std::ptrdiff_t>(i + 1),
                 std::move(right));
  return true;
}

bool MemberSet::erase(MemberId id, std::uint64_t edit) {
  if (leaves_.empty()) return false;
  const std::size_t i = leaf_for(id);
  const Leaf& leaf = *leaves_[i];
  const MemberId* at = std::lower_bound(leaf.begin(), leaf.end(), id);
  if (at == leaf.end() || *at != id) return false;
  --size_;
  if (leaf.count == 1) {
    leaves_.erase(leaves_.begin() + static_cast<std::ptrdiff_t>(i));
    return true;
  }
  const auto pos = static_cast<std::size_t>(at - leaf.begin());
  Leaf& shrunk = writable(i, edit);
  std::copy(shrunk.ids.begin() + pos + 1, shrunk.ids.begin() + shrunk.count,
            shrunk.ids.begin() + pos);
  --shrunk.count;
  // Keep every adjacent pair of leaves holding more than half a leaf
  // between them: then n ids occupy at most 4n / kLeafCapacity + 1 leaves,
  // whatever order members joined and left in. One erase can only bring a
  // pair down to exactly half, and merging that pair restores the bound.
  constexpr std::size_t kHalf = kLeafCapacity / 2;
  std::size_t first = leaves_.size();  // the left leaf of the pair to merge
  if (i + 1 < leaves_.size() && shrunk.count + leaves_[i + 1]->count <= kHalf) {
    first = i;
  } else if (i > 0 && leaves_[i - 1]->count + shrunk.count <= kHalf) {
    first = i - 1;
  }
  if (first < leaves_.size()) {
    const Leaf& second = *leaves_[first + 1];
    Leaf& merged = writable(first, edit);
    std::copy(second.begin(), second.end(), merged.ids.begin() + merged.count);
    merged.count += second.count;
    leaves_.erase(leaves_.begin() + static_cast<std::ptrdiff_t>(first + 1));
  }
  return true;
}

bool GroupSnapshot::in_group(MemberId member, GroupId group) const {
  return has_group(group) && (*groups)[group.value()]->members.contains(member);
}

GroupRegistry::GroupRegistry() {
  util::RecursiveMutexLock lock(mu_);
  publish_locked();  // published_ is never null
}

void GroupRegistry::publish_locked() {
  auto snap = std::make_shared<GroupSnapshot>();
  snap->epoch = epoch_.load(std::memory_order_relaxed) + 1;
  // Copy-on-write with table granularity for members (add_member is set-up
  // only), and with group granularity for groups: the new group table is
  // fresh pointers, but every group no mutation touched since the last
  // publish is the same object the prior snapshot holds.
  if (published_ != nullptr && !members_dirty_) {
    snap->members = published_->members;
  } else {
    snap->members = std::make_shared<const std::vector<Member>>(members_);
  }
  if (published_ != nullptr && !groups_dirty_) {
    snap->groups = published_->groups;
  } else {
    snap->groups = std::make_shared<const std::vector<std::shared_ptr<const Group>>>(
        groups_.begin(), groups_.end());
  }
  members_dirty_ = groups_dirty_ = false;
  std::atomic_store_explicit(&published_,
                             std::shared_ptr<const GroupSnapshot>(snap),
                             std::memory_order_release);
  epoch_.store(snap->epoch, std::memory_order_release);
}

void GroupRegistry::publish_if_unbatched_locked() {
  if (batch_depth_ == 0 && dirty()) publish_locked();
}

Group& GroupRegistry::writable_group(GroupId id) {
  std::shared_ptr<Group>& group = groups_[id.value()];
  const auto& published = *published_->groups;
  if (id.value() < published.size() && published[id.value()] == group) {
    group = std::make_shared<Group>(*group);
  }
  groups_dirty_ = true;
  return *group;
}

std::shared_ptr<const GroupSnapshot> GroupRegistry::snapshot() const {
  return std::atomic_load_explicit(&published_, std::memory_order_acquire);
}

MemberId GroupRegistry::add_member(std::string name, int priority, HostId host) {
  util::RecursiveMutexLock lock(mu_);
  members_.push_back(Member{std::move(name), priority, host});
  members_dirty_ = true;
  const MemberId id(static_cast<MemberId::value_type>(members_.size() - 1));
  publish_if_unbatched_locked();
  return id;
}

GroupId GroupRegistry::create_group(std::string name, FcmMode mode,
                                    MemberId chair, PolicyKind policy) {
  util::RecursiveMutexLock lock(mu_);
  if (chair.value() >= members_.size()) {
    throw std::invalid_argument("create_group: chair is not a registered member");
  }
  auto group = std::make_shared<Group>();
  group->name = std::move(name);
  group->mode = mode;
  group->policy = policy;
  group->chair = chair;
  group->members.insert(chair, pending_edit());
  groups_.push_back(std::move(group));
  groups_dirty_ = true;
  const GroupId id(static_cast<GroupId::value_type>(groups_.size() - 1));
  publish_if_unbatched_locked();
  return id;
}

bool GroupRegistry::join(MemberId member, GroupId group) {
  util::RecursiveMutexLock lock(mu_);
  if (member.value() >= members_.size() || group.value() >= groups_.size() ||
      groups_[group.value()]->members.contains(member)) {
    return false;
  }
  writable_group(group).members.insert(member, pending_edit());
  publish_if_unbatched_locked();
  return true;
}

bool GroupRegistry::leave(MemberId member, GroupId group) {
  util::RecursiveMutexLock lock(mu_);
  if (group.value() >= groups_.size()) return false;
  const Group& g = *groups_[group.value()];
  if (member == g.chair) return false;  // the chair anchors the group
  if (!g.members.contains(member)) return false;
  writable_group(group).members.erase(member, pending_edit());
  publish_if_unbatched_locked();
  return true;
}

bool GroupRegistry::set_policy(GroupId group, PolicyKind policy) {
  util::RecursiveMutexLock lock(mu_);
  if (group.value() >= groups_.size()) return false;
  writable_group(group).policy = policy;
  publish_if_unbatched_locked();
  return true;
}

}  // namespace dmps::floorctl
