#pragma once
// Group membership for floor control, published as immutable snapshots.
//
// A GroupRegistry tracks members (with a priority and a home host station)
// and the conference groups they join. Each group carries its own floor
// discipline: an FcmMode (free-access vs chaired) and a PolicyKind naming
// the ArbitrationPolicy that decides its requests.
//
// The registry is the one piece of conference state every floor shard
// consults, so it is built read-mostly: all reads go through an immutable
// GroupSnapshot, published via std::shared_ptr atomic swap. Every
// membership mutation (add_member / create_group / join / leave /
// set_policy) is an epoch-bumping copy-on-write publish, and the copy is
// persistent rather than whole-table: the member table, each group and each
// chunk of a group's membership are separately shared_ptr'd, so a publish
// copies only what the mutation touched. A wire join copies one MemberSet
// leaf (<= kLeafCapacity ids), the touched group's header and leaf-pointer
// vector, and the group-pointer vector; every other group and leaf is
// pointer-identical to the prior snapshot. Floor shards read only
// snapshots; a snapshot, once obtained, never changes underneath its reader.
//
// Concurrency contract:
//   - Mutators are internally serialized (safe from any thread).
//   - snapshot() / epoch() are wait-mostly and safe from any thread.
//   - The direct read accessors (member(), in_group(), ...) are
//     conveniences over the latest snapshot; hot paths should hold a
//     snapshot and read that instead (one epoch check, no shared_ptr churn
//     — see FloorService).
//   - Batch scopes many mutations into ONE publish; bulk setup (benches,
//     session construction) must use it. Inside a Batch, groups and leaves
//     not yet shared with a published snapshot are written in place, so
//     bulk setup stays O(n) however many mutations it makes.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/sync.hpp"
#include "floor/types.hpp"

namespace dmps::floorctl {

struct Member {
  std::string name;
  int priority = 1;  // higher outranks lower
  HostId host;
};

/// A persistent sorted set of MemberIds: an ordered vector of shared,
/// immutable leaves, each a sorted run of at most kLeafCapacity ids.
/// Copying a MemberSet copies the leaf pointers only; a mutation then
/// rewrites the one leaf it touches. Leaves never overlap and are never
/// empty; a full leaf splits, and two neighbours left holding at most
/// kLeafCapacity / 2 ids together merge, so memory stays proportional to
/// size() whatever the join/leave history. Only GroupRegistry mutates one.
class MemberSet {
 public:
  static constexpr std::size_t kLeafCapacity = 256;

  struct Leaf {
    /// The registry edit (unpublished epoch) that created this leaf. Only
    /// that edit may write it in place; a later one copies it first,
    /// because a published snapshot may hold it.
    std::uint64_t edit = 0;
    std::uint32_t count = 0;
    std::array<MemberId, kLeafCapacity> ids;

    const MemberId* begin() const { return ids.data(); }
    const MemberId* end() const { return ids.data() + count; }
  };

  bool contains(MemberId id) const;  // O(log n)
  std::size_t size() const { return size_; }
  const std::vector<std::shared_ptr<const Leaf>>& leaves() const {
    return leaves_;
  }

 private:
  friend class GroupRegistry;

  /// Add / remove one id; false when already present / absent. Leaves
  /// stamped `edit` are written in place, every other leaf is copied first.
  /// Two sets sharing a leaf must never write with the same `edit`: the
  /// registry copies a group only when it is published, whose leaves all
  /// carry older stamps, and moves to a new edit at every publish.
  bool insert(MemberId id, std::uint64_t edit);
  bool erase(MemberId id, std::uint64_t edit);
  /// The leaf that holds `id` if any leaf does, else the one it belongs
  /// in: the last leaf whose first id is <= id (0 when id precedes them
  /// all). The set must not be empty.
  std::size_t leaf_for(MemberId id) const;
  /// leaves_[i], copied first unless `edit` created it.
  Leaf& writable(std::size_t i, std::uint64_t edit);

  std::vector<std::shared_ptr<const Leaf>> leaves_;
  std::size_t size_ = 0;
};

struct Group {
  std::string name;
  FcmMode mode = FcmMode::kFreeAccess;
  PolicyKind policy = PolicyKind::kThreeRegime;
  MemberId chair;
  MemberSet members;  // the chair included
};

/// One immutable, internally consistent view of the conference: member and
/// group tables plus the epoch that published them. Everything readers need
/// for arbitration; never mutated after publication.
struct GroupSnapshot {
  std::uint64_t epoch = 0;
  std::shared_ptr<const std::vector<Member>> members;
  /// One pointer per group; a group no mutation touched since the prior
  /// snapshot is the very same object in both.
  std::shared_ptr<const std::vector<std::shared_ptr<const Group>>> groups;

  bool has_member(MemberId id) const { return id.value() < members->size(); }
  bool has_group(GroupId id) const { return id.value() < groups->size(); }
  const Member& member(MemberId id) const { return members->at(id.value()); }
  const Group& group(GroupId id) const { return *groups->at(id.value()); }
  bool in_group(MemberId member, GroupId group) const;
  std::size_t member_count() const { return members->size(); }
  std::size_t group_count() const { return groups->size(); }
};

class GroupRegistry {
 public:
  GroupRegistry();
  GroupRegistry(const GroupRegistry&) = delete;
  GroupRegistry& operator=(const GroupRegistry&) = delete;

  // ------------------------------------------------------------- mutators
  // Each publishes a fresh snapshot (epoch + 1) unless inside a Batch.
  MemberId add_member(std::string name, int priority, HostId host);
  GroupId create_group(std::string name, FcmMode mode, MemberId chair,
                       PolicyKind policy = PolicyKind::kThreeRegime);
  bool join(MemberId member, GroupId group);
  bool leave(MemberId member, GroupId group);
  /// Swap the group's arbitration discipline (new requests only: grants and
  /// queued requests already decided under the old policy are untouched).
  bool set_policy(GroupId group, PolicyKind policy);

  /// Scope many mutations into one copy-on-write publish (one epoch bump at
  /// scope exit). Holds the mutation lock for its lifetime; nestable.
  ///
  /// Batch is the one deliberate thread-safety-analysis suppression in the
  /// registry (DESIGN.md §10): it holds the recursive mutation lock while
  /// the mutators called inside the scope re-acquire it, a re-entrant
  /// pattern the analysis cannot model before clang 20's reentrant
  /// capabilities. The ctor/dtor are therefore opted out; every mutator
  /// and the publish path itself stay fully checked.
  class Batch {
   public:
    explicit Batch(GroupRegistry& registry) DMPS_NO_THREAD_SAFETY_ANALYSIS
        : registry_(registry) {
      registry_.mu_.lock();
      ++registry_.batch_depth_;
    }
    ~Batch() DMPS_NO_THREAD_SAFETY_ANALYSIS {
      if (--registry_.batch_depth_ == 0 && registry_.dirty()) {
        registry_.publish_locked();
      }
      registry_.mu_.unlock();
    }
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

   private:
    GroupRegistry& registry_;
  };

  // -------------------------------------------------------------- readers
  /// The latest published snapshot. Never null; safe from any thread.
  std::shared_ptr<const GroupSnapshot> snapshot() const;
  /// The latest published epoch — the cheap staleness probe for cached
  /// snapshots (acquire-ordered against the matching publish).
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  // Convenience reads over the latest snapshot (see concurrency contract).
  // member()/group() return by VALUE: a reference would dangle the moment
  // the next mutation publishes (the snapshot backing it is only kept
  // alive by published_). Hold a snapshot() to read by reference.
  Member member(MemberId id) const { return snapshot()->member(id); }
  Group group(GroupId id) const { return snapshot()->group(id); }
  bool has_member(MemberId id) const { return snapshot()->has_member(id); }
  bool has_group(GroupId id) const { return snapshot()->has_group(id); }
  bool in_group(MemberId member, GroupId group) const {
    return snapshot()->in_group(member, group);
  }
  std::size_t member_count() const { return snapshot()->member_count(); }
  std::size_t group_count() const { return snapshot()->group_count(); }

 private:
  bool dirty() const DMPS_REQUIRES(mu_) {
    return members_dirty_ || groups_dirty_;
  }
  void publish_locked() DMPS_REQUIRES(mu_);
  void publish_if_unbatched_locked() DMPS_REQUIRES(mu_);
  /// groups_[id], first copied (header and leaf pointers only) when the
  /// published snapshot shares it. Marks the group table dirty.
  Group& writable_group(GroupId id) DMPS_REQUIRES(mu_);
  /// The edit stamp for MemberSet writes: the epoch the next publish will
  /// carry, so every leaf a publish freezes carries an older stamp.
  std::uint64_t pending_edit() const DMPS_REQUIRES(mu_) {
    return epoch_.load(std::memory_order_relaxed) + 1;
  }

  // Mutation lock: serializes mutators and Batch scopes. Recursive so a
  // mutator called inside a Batch (which already holds it) re-enters.
  mutable util::RecursiveMutex mu_;
  // Working tables, guarded by mu_. Snapshots are built from these: the
  // member table is copied when dirty; groups_ is copied as pointers, and
  // a group pointer also in published_ is never written through.
  std::vector<Member> members_ DMPS_GUARDED_BY(mu_);
  std::vector<std::shared_ptr<Group>> groups_ DMPS_GUARDED_BY(mu_);
  bool members_dirty_ DMPS_GUARDED_BY(mu_) = false;
  bool groups_dirty_ DMPS_GUARDED_BY(mu_) = false;
  int batch_depth_ DMPS_GUARDED_BY(mu_) = 0;

  // The published snapshot. Deliberately NOT guarded_by(mu_): readers load
  // it lock-free via std::atomic_load (snapshot()); only the publish path,
  // which holds mu_, stores it. The atomic free functions are the
  // synchronization, not the mutex, so the analysis has nothing to check.
  std::shared_ptr<const GroupSnapshot> published_;
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace dmps::floorctl
