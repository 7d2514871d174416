#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <optional>
#include <set>
#include <vector>

#include "clock/drift_clock.hpp"
#include "floor/service.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/sanitizers.hpp"

namespace {

using namespace dmps;
using namespace dmps::floorctl;
using resource::Resource;
using resource::Thresholds;

struct ServiceFixture : ::testing::Test {
  sim::Simulator sim;
  clk::TrueClock clock{sim};
  GroupRegistry registry;
  // beta = 1/16 so the exact-boundary cases below are binary-exact.
  FloorService service{registry, clock, Thresholds{0.25, 0.0625}};
  HostId host{1};
  GroupId group;
  MemberId chair, low1, low2, low3, mid;

  ServiceFixture() {
    service.add_host(host, Resource{1.0, 1.0, 1.0});
    chair = registry.add_member("chair", 3, host);
    group = registry.create_group("g", FcmMode::kFreeAccess, chair);
    low1 = registry.add_member("low1", 1, host);
    low2 = registry.add_member("low2", 1, host);
    low3 = registry.add_member("low3", 1, host);
    mid = registry.add_member("mid", 2, host);
    for (const auto m : {low1, low2, low3, mid}) registry.join(m, group);
  }

  FloorRequest req(MemberId m, double q) const {
    FloorRequest r;
    r.group = group;
    r.member = m;
    r.host = host;
    r.qos = media::QosRequirement{q, q, q};
    return r;
  }
};

TEST_F(ServiceFixture, FullRegimeGrantsOutright) {
  const auto d = service.request(req(low1, 0.5));
  EXPECT_EQ(d.outcome, Outcome::kGranted);
  EXPECT_TRUE(d.suspended.empty());
  EXPECT_EQ(d.availability_before, 1.0);
  EXPECT_EQ(d.availability_after, 0.5);
}

TEST_F(ServiceFixture, AvailabilityExactlyAlphaIsStillFullService) {
  ASSERT_EQ(service.request(req(low1, 0.75)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.host_manager(host)->availability(), 0.25);
  const auto d = service.request(req(chair, 0.1));
  EXPECT_EQ(d.outcome, Outcome::kGranted);  // avail == alpha: full regime
}

TEST_F(ServiceFixture, JustBelowAlphaIsDegradedEvenWhenItFits) {
  ASSERT_EQ(service.request(req(low1, 0.8)).outcome, Outcome::kGranted);
  const auto d = service.request(req(chair, 0.1));
  EXPECT_EQ(d.outcome, Outcome::kGrantedDegraded);
  EXPECT_TRUE(d.suspended.empty());  // fit without Media-Suspend
}

TEST_F(ServiceFixture, DegradedRegimeSuspendsLowestPriorityFirst) {
  // Three low-priority feeds of 0.25 each (the third lands exactly on
  // alpha, still full service), then a mid feed drops availability to 0.15
  // — degraded. The chair asks for 0.50: two suspensions are needed, and
  // they must be the two *lowest-priority, oldest* holders — never mid.
  ASSERT_EQ(service.request(req(low1, 0.25)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low2, 0.25)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low3, 0.25)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(mid, 0.10)).outcome, Outcome::kGranted);
  ASSERT_NEAR(service.host_manager(host)->availability(), 0.15, 1e-12);

  const auto d = service.request(req(chair, 0.50));
  EXPECT_EQ(d.outcome, Outcome::kGrantedDegraded);
  EXPECT_EQ(d.suspended, (std::vector<Holder>{{low1, group}, {low2, group}}));
  EXPECT_EQ(service.suspended_grants(), 2u);
}

TEST_F(ServiceFixture, AvailabilityExactlyBetaIsDegradedNotAbort) {
  ASSERT_EQ(service.request(req(low1, 0.9375)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.host_manager(host)->availability(), 0.0625);  // == beta
  const auto d = service.request(req(chair, 0.3));
  EXPECT_EQ(d.outcome, Outcome::kGrantedDegraded);
  EXPECT_EQ(d.suspended, (std::vector<Holder>{{low1, group}}));
}

TEST_F(ServiceFixture, BelowBetaAbortsRegardlessOfPriority) {
  ASSERT_EQ(service.request(req(low1, 0.96)).outcome, Outcome::kGranted);
  const auto d = service.request(req(chair, 0.01));
  EXPECT_EQ(d.outcome, Outcome::kAborted);
  EXPECT_TRUE(d.suspended.empty());
  EXPECT_NE(d.reason.find("abort-arbitrate"), std::string::npos);
}

TEST_F(ServiceFixture, EqualPriorityIsNeverSuspended) {
  ASSERT_EQ(service.request(req(mid, 0.5)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low1, 0.35)).outcome, Outcome::kGranted);
  // mid asks for more than free (0.15) — only *strictly lower* priority
  // (low1) may be suspended; that frees 0.35, enough for 0.4.
  const auto d1 = service.request(req(mid, 0.4));
  EXPECT_EQ(d1.outcome, Outcome::kGrantedDegraded);
  EXPECT_EQ(d1.suspended, (std::vector<Holder>{{low1, group}}));
  // Now only equal-priority holders remain: a further oversized request is
  // denied, and the tentative state rolls back (nothing newly suspended).
  const auto d2 = service.request(req(mid, 0.5));
  EXPECT_EQ(d2.outcome, Outcome::kDenied);
  EXPECT_EQ(service.suspended_grants(), 1u);
}

TEST_F(ServiceFixture, ReleaseTriggersMediaResume) {
  ASSERT_EQ(service.request(req(low1, 0.5)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(mid, 0.4)).outcome, Outcome::kGranted);
  const auto d = service.request(req(chair, 0.5));
  ASSERT_EQ(d.outcome, Outcome::kGrantedDegraded);
  ASSERT_EQ(d.suspended, (std::vector<Holder>{{low1, group}}));
  ASSERT_EQ(service.active_grants(), 2u);

  // The chair leaves: low1's suspended feed fits again and resumes.
  const auto rel = service.release(chair, group);
  EXPECT_TRUE(rel.released);
  EXPECT_EQ(rel.resumed, (std::vector<Holder>{{low1, group}}));  // Media-Resume reported
  EXPECT_EQ(service.suspended_grants(), 0u);
  EXPECT_EQ(service.active_grants(), 2u);
  EXPECT_NEAR(service.host_manager(host)->availability(), 0.1, 1e-12);
}

TEST_F(ServiceFixture, ReleaseIsIdempotentAndScopedToTheGroup) {
  EXPECT_FALSE(service.release(low1, group).released);  // nothing held
  ASSERT_EQ(service.request(req(low1, 0.2)).outcome, Outcome::kGranted);
  EXPECT_TRUE(service.release(low1, group).released);
  EXPECT_FALSE(service.release(low1, group).released);
  EXPECT_EQ(service.active_grants(), 0u);
  EXPECT_DOUBLE_EQ(service.host_manager(host)->availability(), 1.0);
}

TEST_F(ServiceFixture, MembershipAndModeRules) {
  const auto outsider = registry.add_member("outsider", 5, host);
  EXPECT_EQ(service.request(req(outsider, 0.1)).outcome, Outcome::kDenied);

  const auto chaired =
      registry.create_group("panel", FcmMode::kChaired, chair);
  registry.join(mid, chaired);
  FloorRequest r = req(mid, 0.1);
  r.group = chaired;
  EXPECT_EQ(service.request(r).outcome, Outcome::kDenied);
  r.member = chair;
  EXPECT_EQ(service.request(r).outcome, Outcome::kGranted);

  FloorRequest bad_host = req(chair, 0.1);
  bad_host.host = HostId{99};
  EXPECT_EQ(service.request(bad_host).outcome, Outcome::kDenied);

  // Request-side chaired discipline binds too, even in a free-access group.
  FloorRequest strict = req(mid, 0.1);
  strict.mode = FcmMode::kChaired;
  EXPECT_EQ(service.request(strict).outcome, Outcome::kDenied);
  strict.member = chair;
  EXPECT_EQ(service.request(strict).outcome, Outcome::kGranted);
}

TEST_F(ServiceFixture, ReRegisteringAHostVoidsItsGrants) {
  ASSERT_EQ(service.request(req(low1, 0.5)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.active_grants(), 1u);
  service.add_host(host, Resource{2.0, 2.0, 2.0});  // replacement wipes state
  EXPECT_EQ(service.active_grants(), 0u);
  EXPECT_DOUBLE_EQ(service.host_manager(host)->availability(), 1.0);
  EXPECT_FALSE(service.release(low1, group).released);  // old grant is gone, no crash
  EXPECT_EQ(service.request(req(low1, 0.5)).outcome, Outcome::kGranted);
}

TEST_F(ServiceFixture, ReleasedGrantSlotsAreRecycled) {
  // Request/release churn must not grow the grant-slot vector
  // monotonically: released slots return to a free list and get reused.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(service.request(req(low1, 0.3)).outcome, Outcome::kGranted);
    ASSERT_EQ(service.request(req(mid, 0.3)).outcome, Outcome::kGranted);
    ASSERT_TRUE(service.release(low1, group).released);
    ASSERT_TRUE(service.release(mid, group).released);
  }
  EXPECT_EQ(service.active_grants(), 0u);
  EXPECT_LE(service.grant_slots(), 2u);  // peak concurrency, not churn volume
  // Recycled slots still arbitrate correctly.
  const auto d = service.request(req(chair, 0.5));
  EXPECT_EQ(d.outcome, Outcome::kGranted);
}

// ------------------------------------------------------- queueing policy

struct QueueingFixture : ServiceFixture {
  QueueingFixture() { registry.set_policy(group, PolicyKind::kQueueing); }
};

TEST_F(QueueingFixture, RefusedRequestIsParkedNotDenied) {
  ASSERT_EQ(service.request(req(mid, 0.7)).outcome, Outcome::kGranted);
  // low1 outranks nobody mid holds; under three-regime this would be a
  // denial — the queueing group parks it instead.
  const auto d = service.request(req(low1, 0.7));
  EXPECT_EQ(d.outcome, Outcome::kQueued);
  EXPECT_NE(d.reason.find("queued"), std::string::npos);
  EXPECT_EQ(service.queued_requests(), 1u);
  EXPECT_EQ(service.queued_requests(group), 1u);
  EXPECT_EQ(service.active_grants(), 1u);  // nothing reserved for the parked one
}

TEST_F(QueueingFixture, ReleasePromotesTheQueueInArrivalOrder) {
  ASSERT_EQ(service.request(req(mid, 0.7)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low1, 0.6)).outcome, Outcome::kQueued);
  ASSERT_EQ(service.request(req(low2, 0.6)).outcome, Outcome::kQueued);
  ASSERT_EQ(service.queued_requests(group), 2u);

  // mid releases 0.7: low1 (first in) gets its 0.6; low2's 0.6 no longer
  // fits (0.4 free) and stays parked.
  const auto rel = service.release(mid, group);
  ASSERT_TRUE(rel.released);
  ASSERT_EQ(rel.promoted.size(), 1u);
  EXPECT_EQ(rel.promoted[0].holder, (Holder{low1, group}));
  EXPECT_EQ(rel.promoted[0].decision.outcome, Outcome::kGranted);
  EXPECT_EQ(service.queued_requests(group), 1u);
  EXPECT_EQ(service.active_grants(), 1u);

  // low1 releases in turn: low2 is promoted next.
  const auto rel2 = service.release(low1, group);
  ASSERT_EQ(rel2.promoted.size(), 1u);
  EXPECT_EQ(rel2.promoted[0].holder, (Holder{low2, group}));
  EXPECT_EQ(service.queued_requests(group), 0u);
}

TEST_F(QueueingFixture, SmallerRequestBehindABlockedHeadIsNotStarved) {
  ASSERT_EQ(service.request(req(mid, 0.6)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(chair, 0.3)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low1, 0.9)).outcome, Outcome::kQueued);
  ASSERT_EQ(service.request(req(low2, 0.3)).outcome, Outcome::kQueued);

  // 0.6 frees up: the 0.9 head still does not fit (the chair's 0.3 stays,
  // and the chair outranks low1), but the 0.3 behind it does — the
  // promotion walk skips the blocked head instead of stalling.
  const auto rel = service.release(mid, group);
  ASSERT_EQ(rel.promoted.size(), 1u);
  EXPECT_EQ(rel.promoted[0].holder, (Holder{low2, group}));
  EXPECT_EQ(service.queued_requests(group), 1u);  // the 0.9 waits on
}

TEST_F(QueueingFixture, PromotionMayItselfMediaSuspend) {
  // chair (priority 3) parks a big request behind a starved host (below
  // beta even its suspension power cannot help: Abort-Arbitrate is parked
  // too); when capacity frees, the promotion runs the full three-regime
  // rule and Media-Suspends the remaining junior holder to fit.
  ASSERT_EQ(service.request(req(low1, 0.47)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low2, 0.47)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(chair, 0.9)).outcome, Outcome::kQueued);

  const auto rel = service.release(low1, group);
  ASSERT_EQ(rel.promoted.size(), 1u);
  EXPECT_EQ(rel.promoted[0].holder, (Holder{chair, group}));
  EXPECT_EQ(rel.promoted[0].decision.outcome, Outcome::kGrantedDegraded);
  EXPECT_EQ(rel.promoted[0].decision.suspended,
            (std::vector<Holder>{{low2, group}}));
  EXPECT_EQ(service.suspended_grants(), 1u);
}

TEST_F(QueueingFixture, ReleasingMemberAbandonsItsParkedRequests) {
  ASSERT_EQ(service.request(req(mid, 0.7)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low1, 0.6)).outcome, Outcome::kQueued);
  // low1 leaves (its release covers parked state too): the entry is
  // dequeued without a grant and a later release promotes nobody.
  const auto rel = service.release(low1, group);
  EXPECT_FALSE(rel.released);  // it held no actual grant
  EXPECT_EQ(rel.dequeued, (std::vector<Holder>{{low1, group}}));
  EXPECT_EQ(service.queued_requests(group), 0u);
  const auto rel2 = service.release(mid, group);
  EXPECT_TRUE(rel2.released);
  EXPECT_TRUE(rel2.promoted.empty());
}

TEST_F(QueueingFixture, ReRequestWhileParkedKeepsQueuePosition) {
  ASSERT_EQ(service.request(req(mid, 0.7)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low1, 0.6)).outcome, Outcome::kQueued);
  ASSERT_EQ(service.request(req(low2, 0.35)).outcome, Outcome::kQueued);
  // low1 asks again (smaller): still queued, still ahead of low2.
  ASSERT_EQ(service.request(req(low1, 0.5)).outcome, Outcome::kQueued);
  EXPECT_EQ(service.queued_requests(group), 2u);

  const auto rel = service.release(mid, group);
  ASSERT_EQ(rel.promoted.size(), 2u);
  EXPECT_EQ(rel.promoted[0].holder, (Holder{low1, group}));
  EXPECT_EQ(rel.promoted[1].holder, (Holder{low2, group}));
}

TEST_F(QueueingFixture, NewcomerParksBehindANonEmptyQueue) {
  ASSERT_EQ(service.request(req(mid, 0.7)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low1, 0.6)).outcome, Outcome::kQueued);
  // low2's 0.2 fits right now (0.3 free) — but granting it would queue-jump
  // low1, which arrived first. Arrival order demands it park behind.
  const auto d = service.request(req(low2, 0.2));
  EXPECT_EQ(d.outcome, Outcome::kQueued);
  EXPECT_NE(d.reason.find("parked behind"), std::string::npos);
  EXPECT_EQ(service.queued_requests(group), 2u);
  EXPECT_EQ(service.active_grants(), 1u);  // nothing was reserved for it

  // mid releases 0.7: low1 (first in) gets its 0.6, and low2's 0.2 fits in
  // the remainder — both promote, in arrival order.
  const auto rel = service.release(mid, group);
  ASSERT_EQ(rel.promoted.size(), 2u);
  EXPECT_EQ(rel.promoted[0].holder, (Holder{low1, group}));
  EXPECT_EQ(rel.promoted[1].holder, (Holder{low2, group}));
  EXPECT_EQ(service.queued_requests(group), 0u);
}

TEST_F(QueueingFixture, SuspendChainPromotionsReachAFixpoint) {
  // A promotion that Media-Suspends can overshoot and free capacity of its
  // own; a single resume-then-promote pass strands that capacity — no
  // later release would ever hand it back (a suspended victim's release
  // frees nothing). The sweep must loop to a fixpoint. Build a 3-deep
  // chain: two promotions suspend three holders between them, and the
  // smallest suspended holder fits again only after the *last* promotion.
  ASSERT_EQ(service.request(req(low1, 0.55)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low2, 0.43)).outcome, Outcome::kGranted);
  // Availability 0.02 < beta: everything below parks (Abort-Arbitrate).
  ASSERT_EQ(service.request(req(low3, 0.1)).outcome, Outcome::kQueued);
  ASSERT_EQ(service.request(req(mid, 0.8)).outcome, Outcome::kQueued);
  ASSERT_EQ(service.request(req(chair, 0.55)).outcome, Outcome::kQueued);

  // low2 releases 0.43. The promotion walk: low3's 0.1 fits outright;
  // mid's 0.8 suspends low1 (chain link 1); the chair's 0.55 suspends low3
  // and mid right back (chain links 2 and 3), overshooting to 0.45 free —
  // enough for low3's 0.1 to Media-Resume. Only a second sweep pass can
  // see that; the single-pass walk left low3 suspended forever.
  const auto rel = service.release(low2, group);
  ASSERT_EQ(rel.promoted.size(), 3u);
  EXPECT_EQ(rel.promoted[0].holder, (Holder{low3, group}));
  EXPECT_EQ(rel.promoted[1].holder, (Holder{mid, group}));
  EXPECT_EQ(rel.promoted[1].decision.suspended,
            (std::vector<Holder>{{low1, group}}));
  EXPECT_EQ(rel.promoted[2].holder, (Holder{chair, group}));
  EXPECT_EQ(rel.promoted[2].decision.suspended,
            (std::vector<Holder>{{low3, group}, {mid, group}}));
  EXPECT_EQ(rel.resumed, (std::vector<Holder>{{low3, group}}));  // pass 2
  EXPECT_EQ(service.queued_requests(group), 0u);
  EXPECT_EQ(service.active_grants(), 2u);     // chair 0.55 + low3 0.1
  EXPECT_EQ(service.suspended_grants(), 2u);  // low1 0.55, mid 0.8

  // A suspended victim releasing frees no capacity: nothing resumes,
  // nothing promotes, and nothing is lost either — the interleaving is
  // exactly accounted.
  const auto victim = service.release(mid, group);
  EXPECT_TRUE(victim.released);
  EXPECT_TRUE(victim.resumed.empty());
  EXPECT_TRUE(victim.promoted.empty());
  EXPECT_EQ(service.suspended_grants(), 1u);

  // The chair's release finally refits low1.
  const auto rel2 = service.release(chair, group);
  EXPECT_EQ(rel2.resumed, (std::vector<Holder>{{low1, group}}));
  EXPECT_EQ(service.suspended_grants(), 0u);
}

TEST_F(QueueingFixture, DequeuedBlockerUnparksFittingEntriesBehindIt) {
  // low1 parks a request that can never fit (2.0 against capacity 1.0) on
  // an otherwise idle host; low2's perfectly fitting 0.1 parks behind it
  // under the arrival-order rule. When low1 gives up, no capacity changes
  // — only the dequeue itself can trigger the sweep that seats low2. If
  // it didn't, low2 would poll in kQueued forever over a fully idle host.
  ASSERT_EQ(service.request(req(low1, 2.0)).outcome, Outcome::kQueued);
  ASSERT_EQ(service.request(req(low2, 0.1)).outcome, Outcome::kQueued);

  // Path 1: the blocker leaves via release (it holds no grant).
  const auto rel = service.release(low1, group);
  EXPECT_FALSE(rel.released);
  EXPECT_EQ(rel.dequeued, (std::vector<Holder>{{low1, group}}));
  ASSERT_EQ(rel.promoted.size(), 1u);
  EXPECT_EQ(rel.promoted[0].holder, (Holder{low2, group}));
  EXPECT_EQ(service.queued_requests(group), 0u);
  ASSERT_TRUE(service.release(low2, group).released);

  // Path 2: same shape through the explicit cancel() surface.
  ASSERT_EQ(service.request(req(low1, 2.0)).outcome, Outcome::kQueued);
  ASSERT_EQ(service.request(req(low3, 0.1)).outcome, Outcome::kQueued);
  const auto cancelled = service.cancel(low1, group);
  EXPECT_EQ(cancelled.dequeued, (std::vector<Holder>{{low1, group}}));
  ASSERT_EQ(cancelled.promoted.size(), 1u);
  EXPECT_EQ(cancelled.promoted[0].holder, (Holder{low3, group}));
  EXPECT_EQ(service.queued_requests(group), 0u);
}

TEST_F(QueueingFixture, CapacityFreedByAnotherGroupPromotesTheQueue) {
  // The capacity-change hook is host-scoped, not group-scoped: a release
  // in a three-regime group on the same host must promote this queueing
  // group's parked requests.
  const auto other =
      registry.create_group("other", FcmMode::kFreeAccess, chair);
  registry.join(mid, other);
  FloorRequest r = req(mid, 0.7);
  r.group = other;
  ASSERT_EQ(service.request(r).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low1, 0.5)).outcome, Outcome::kQueued);

  const auto rel = service.release(mid, other);
  ASSERT_TRUE(rel.released);
  ASSERT_EQ(rel.promoted.size(), 1u);
  EXPECT_EQ(rel.promoted[0].holder, (Holder{low1, group}));
  EXPECT_EQ(service.queued_requests(group), 0u);
}

TEST_F(QueueingFixture, ReRequestWhileParkedCannotRetargetItsHost) {
  // A parked request's host is part of its queue identity: re-homing it in
  // place would vacate the old host without the sweep that unparks entries
  // gated behind it there. A re-request for another host keeps the entry
  // (payload included) parked for the original host; re-homing takes an
  // explicit cancel/release first.
  service.add_host(HostId{2}, Resource{1.0, 1.0, 1.0});
  ASSERT_EQ(service.request(req(mid, 0.7)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low1, 0.6)).outcome, Outcome::kQueued);
  ASSERT_EQ(service.request(req(low2, 0.2)).outcome, Outcome::kQueued);

  FloorRequest retarget = req(low1, 0.1);
  retarget.host = HostId{2};
  const auto d = service.request(retarget);
  EXPECT_EQ(d.outcome, Outcome::kQueued);
  EXPECT_NE(d.reason.find("original host"), std::string::npos);

  // The promotion lands on host 1 with the original 0.6 payload (0.2 free
  // afterwards proves neither the host nor the qos was rewritten).
  const auto rel = service.release(mid, group);
  ASSERT_EQ(rel.promoted.size(), 2u);
  EXPECT_EQ(rel.promoted[0].holder, (Holder{low1, group}));
  EXPECT_EQ(rel.promoted[1].holder, (Holder{low2, group}));
  EXPECT_NEAR(service.host_manager(host)->availability(), 0.2, 1e-12);
  EXPECT_DOUBLE_EQ(service.host_manager(HostId{2})->availability(), 1.0);
}

TEST_F(QueueingFixture, ChairedQueueingGroupStillGatesOnTheChair) {
  // Chair gating runs before the queue: a non-chair request in a chaired
  // queueing group is refused outright, never parked.
  const auto panel = registry.create_group("panel", FcmMode::kChaired, chair,
                                           PolicyKind::kQueueing);
  registry.join(low1, panel);
  FloorRequest r = req(low1, 0.1);
  r.group = panel;
  EXPECT_EQ(service.request(r).outcome, Outcome::kDenied);
  EXPECT_EQ(service.queued_requests(panel), 0u);
  r.member = chair;
  EXPECT_EQ(service.request(r).outcome, Outcome::kGranted);
}

TEST(GroupRegistry, JoinLeaveChairRules) {
  GroupRegistry registry;
  const auto chair = registry.add_member("chair", 3, HostId{1});
  const auto member = registry.add_member("m", 1, HostId{1});
  const auto group = registry.create_group("g", FcmMode::kFreeAccess, chair);
  EXPECT_TRUE(registry.in_group(chair, group));  // chair auto-joins
  EXPECT_TRUE(registry.join(member, group));
  EXPECT_FALSE(registry.join(member, group));  // already in
  EXPECT_FALSE(registry.leave(chair, group));  // the chair anchors the group
  EXPECT_TRUE(registry.leave(member, group));
  EXPECT_FALSE(registry.in_group(member, group));
  // A group cannot be chaired by an unregistered member.
  EXPECT_THROW(registry.create_group("bad", FcmMode::kFreeAccess, MemberId{}),
               std::invalid_argument);
}

TEST(GroupRegistry, PolicySelectionLivesOnTheGroup) {
  GroupRegistry registry;
  const auto chair = registry.add_member("chair", 3, HostId{1});
  const auto g1 = registry.create_group("g1", FcmMode::kFreeAccess, chair);
  EXPECT_EQ(registry.group(g1).policy, PolicyKind::kThreeRegime);  // default
  const auto g2 = registry.create_group("g2", FcmMode::kFreeAccess, chair,
                                        PolicyKind::kQueueing);
  EXPECT_EQ(registry.group(g2).policy, PolicyKind::kQueueing);
  EXPECT_TRUE(registry.set_policy(g1, PolicyKind::kQueueing));
  EXPECT_EQ(registry.group(g1).policy, PolicyKind::kQueueing);
  EXPECT_FALSE(registry.set_policy(GroupId{99}, PolicyKind::kQueueing));
}

TEST(GroupSnapshot, MutationsBumpTheEpochAndOldSnapshotsStayFrozen) {
  GroupRegistry registry;
  const auto before = registry.snapshot();
  EXPECT_EQ(before->epoch, registry.epoch());
  EXPECT_EQ(before->member_count(), 0u);

  const auto chair = registry.add_member("chair", 3, HostId{1});
  const auto snap1 = registry.snapshot();
  EXPECT_GT(snap1->epoch, before->epoch);
  const auto group = registry.create_group("g", FcmMode::kFreeAccess, chair);
  const auto member = registry.add_member("m", 1, HostId{1});
  EXPECT_TRUE(registry.join(member, group));

  // The old snapshots were never touched: immutability is the contract
  // shard worker threads rely on while membership churns.
  EXPECT_EQ(before->member_count(), 0u);
  EXPECT_EQ(before->group_count(), 0u);
  EXPECT_EQ(snap1->member_count(), 1u);
  EXPECT_FALSE(snap1->in_group(member, group));

  const auto now = registry.snapshot();
  EXPECT_TRUE(now->in_group(member, group));
  EXPECT_EQ(now->member(member).priority, 1);

  // A failed mutation publishes nothing.
  const auto epoch = registry.epoch();
  EXPECT_FALSE(registry.join(member, group));  // already in
  EXPECT_EQ(registry.epoch(), epoch);
}

TEST(GroupSnapshot, GroupOnlyMutationsShareTheMemberTable) {
  GroupRegistry registry;
  const auto chair = registry.add_member("chair", 3, HostId{1});
  const auto member = registry.add_member("m", 1, HostId{1});
  const auto group = registry.create_group("g", FcmMode::kFreeAccess, chair);
  const auto before = registry.snapshot();
  EXPECT_TRUE(registry.join(member, group));
  const auto after = registry.snapshot();
  // join is the common runtime mutation; it copy-on-writes the group table
  // but structurally shares the member table with the prior snapshot.
  EXPECT_EQ(before->members.get(), after->members.get());
  EXPECT_NE(before->groups.get(), after->groups.get());
}

TEST(GroupSnapshot, BatchScopesManyMutationsIntoOnePublish) {
  GroupRegistry registry;
  const auto epoch0 = registry.epoch();
  MemberId chair, member;
  GroupId group;
  {
    GroupRegistry::Batch batch(registry);
    chair = registry.add_member("chair", 3, HostId{1});
    group = registry.create_group("g", FcmMode::kFreeAccess, chair);
    member = registry.add_member("m", 1, HostId{1});
    EXPECT_TRUE(registry.join(member, group));
    // Nothing published yet: readers still see the pre-batch world.
    EXPECT_EQ(registry.epoch(), epoch0);
    EXPECT_EQ(registry.snapshot()->member_count(), 0u);
  }
  // One epoch bump for the whole batch, and the world is all there.
  EXPECT_EQ(registry.epoch(), epoch0 + 1);
  EXPECT_TRUE(registry.in_group(member, group));
  EXPECT_EQ(registry.member_count(), 2u);
}

TEST(GroupSnapshot, ServiceArbitratesAgainstAnExplicitSnapshot) {
  sim::Simulator sim;
  clk::TrueClock clock{sim};
  GroupRegistry registry;
  FloorService service{registry, clock, Thresholds{0.25, 0.05}};
  service.add_host(HostId{1}, Resource{1.0, 1.0, 1.0});
  const auto chair = registry.add_member("chair", 3, HostId{1});
  const auto group = registry.create_group("g", FcmMode::kFreeAccess, chair);
  const auto member = registry.add_member("m", 1, HostId{1});
  const auto stale = registry.snapshot();  // member not yet in the group
  EXPECT_TRUE(registry.join(member, group));

  FloorRequest r;
  r.group = group;
  r.member = member;
  r.host = HostId{1};
  r.qos = media::QosRequirement{0.1, 0.1, 0.1};
  // Against the stale snapshot the member is an outsider; against the
  // current one it is seated — the snapshot, not the registry, is the
  // arbitration input.
  EXPECT_EQ(service.request(*stale, r).outcome, Outcome::kDenied);
  EXPECT_EQ(service.request(r).outcome, Outcome::kGranted);
}

// ---------------------------------------------------------------- MemberSet

constexpr std::size_t kLeaf = MemberSet::kLeafCapacity;

std::vector<MemberId> flatten(const MemberSet& set) {
  std::vector<MemberId> ids;
  ids.reserve(set.size());
  for (const auto& leaf : set.leaves()) ids.insert(ids.end(), leaf->begin(), leaf->end());
  return ids;
}

std::vector<std::size_t> leaf_counts(const MemberSet& set) {
  std::vector<std::size_t> counts;
  counts.reserve(set.leaves().size());
  for (const auto& leaf : set.leaves()) counts.push_back(leaf->count);
  return counts;
}

/// The structural invariants: ids strictly ascending across leaves, every
/// leaf non-empty and within capacity, every adjacent pair holding more
/// than half a leaf, size() the true count.
void expect_well_formed(const MemberSet& set) {
  const auto ids = flatten(set);
  EXPECT_EQ(ids.size(), set.size());
  for (std::size_t i = 1; i < ids.size(); ++i) ASSERT_LT(ids[i - 1], ids[i]);
  const auto counts = leaf_counts(set);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    ASSERT_GE(counts[i], 1u);
    ASSERT_LE(counts[i], kLeaf);
    if (i > 0) {
      ASSERT_GT(counts[i - 1] + counts[i], kLeaf / 2);
    }
  }
}

/// One group chaired by member 0, over `population` registered members
/// whose ids are 0 .. population - 1.
struct Roster {
  GroupRegistry registry;
  GroupId group;

  explicit Roster(std::size_t population) {
    GroupRegistry::Batch batch(registry);
    for (std::size_t i = 0; i < population; ++i) registry.add_member("m", 1, HostId{1});
    group = registry.create_group("g", FcmMode::kFreeAccess, MemberId{0});
  }
  bool join(std::size_t id) { return registry.join(id_of(id), group); }
  bool leave(std::size_t id) { return registry.leave(id_of(id), group); }
  std::shared_ptr<const GroupSnapshot> snap() const { return registry.snapshot(); }
  const MemberSet& members(const GroupSnapshot& snapshot) const {
    return snapshot.group(group).members;
  }
  static MemberId id_of(std::size_t v) {
    return MemberId{static_cast<MemberId::value_type>(v)};
  }
};

TEST(MemberSet, EmptySetDuplicatesAndAbsentIds) {
  const MemberSet empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_FALSE(empty.contains(MemberId{0}));
  EXPECT_TRUE(empty.leaves().empty());

  Roster roster(16);
  EXPECT_EQ(roster.members(*roster.snap()).size(), 1u);  // the chair
  EXPECT_TRUE(roster.join(7));
  const auto epoch = roster.registry.epoch();
  EXPECT_FALSE(roster.join(7));    // duplicate
  EXPECT_FALSE(roster.leave(6));   // absent, inside the id range
  EXPECT_FALSE(roster.leave(15));  // absent, past every leaf
  EXPECT_FALSE(roster.leave(0));   // the chair anchors the group
  EXPECT_EQ(roster.registry.epoch(), epoch);  // refusals publish nothing
  const auto snap = roster.snap();
  EXPECT_EQ(roster.members(*snap).size(), 2u);
  EXPECT_TRUE(roster.members(*snap).contains(MemberId{7}));
  EXPECT_TRUE(roster.leave(7));
  EXPECT_EQ(flatten(roster.members(*roster.snap())), std::vector<MemberId>{MemberId{0}});
}

TEST(MemberSet, FullLeafSplitsAtCapacityPlusOne) {
  // The split writes a copy when the full leaf is already published, and
  // the leaf itself when one Batch both fills and splits it.
  for (const bool one_batch : {false, true}) {
    Roster roster(2 * kLeaf);
    std::optional<GroupRegistry::Batch> batch;
    batch.emplace(roster.registry);
    for (std::size_t i = 1; i < kLeaf; ++i) ASSERT_TRUE(roster.join(2 * i));
    if (!one_batch) {
      batch.reset();
      EXPECT_EQ(leaf_counts(roster.members(*roster.snap())), std::vector<std::size_t>{kLeaf});
    }
    // An odd id lands mid-leaf: the full leaf splits into two halves.
    EXPECT_TRUE(roster.join(101));
    batch.reset();
    const auto snap = roster.snap();
    const MemberSet& set = roster.members(*snap);
    EXPECT_EQ(leaf_counts(set), (std::vector<std::size_t>{kLeaf / 2 + 1, kLeaf / 2}));
    EXPECT_EQ(set.size(), kLeaf + 1);
    expect_well_formed(set);
  }

  // Past the end of a full last leaf, in-order joins open a new leaf and
  // leave the full one packed.
  Roster ordered(2 * kLeaf);
  for (std::size_t i = 1; i <= kLeaf; ++i) ASSERT_TRUE(ordered.join(i));
  EXPECT_EQ(leaf_counts(ordered.members(*ordered.snap())), (std::vector<std::size_t>{kLeaf, 1}));
}

TEST(MemberSet, EmptiedLeafIsDroppedAndSparseNeighboursMerge) {
  Roster roster(3 * kLeaf);
  {
    GroupRegistry::Batch batch(roster.registry);
    for (std::size_t i = 1; i < 3 * kLeaf; ++i) ASSERT_TRUE(roster.join(i));
  }
  EXPECT_EQ(leaf_counts(roster.members(*roster.snap())),
            (std::vector<std::size_t>{kLeaf, kLeaf, kLeaf}));
  // Empty the middle leaf one id at a time: its neighbours stay full, so
  // it shrinks to nothing and is dropped rather than merged.
  for (std::size_t i = kLeaf; i < 2 * kLeaf; ++i) ASSERT_TRUE(roster.leave(i));
  EXPECT_EQ(leaf_counts(roster.members(*roster.snap())), (std::vector<std::size_t>{kLeaf, kLeaf}));
  // Thin both down: once the pair holds half a leaf it becomes one leaf.
  for (std::size_t i = 1; i <= kLeaf - kLeaf / 4; ++i) {
    ASSERT_TRUE(roster.leave(i));
    ASSERT_TRUE(roster.leave(2 * kLeaf + i - 1));
    expect_well_formed(roster.members(*roster.snap()));
  }
  const auto snap = roster.snap();
  const MemberSet& set = roster.members(*snap);
  EXPECT_EQ(leaf_counts(set), std::vector<std::size_t>{kLeaf / 2});
  EXPECT_TRUE(set.contains(MemberId{0}));
}

TEST(MemberSet, RandomizedAgainstStdSet) {
  // 2 * 10^4 joins and leaves over a small id space, so they collide
  // often, in runs that alternate between one publish per op and one
  // Batch per run. Snapshots taken along the way must never change.
  constexpr std::size_t kIds = 3 * kLeaf;
  Roster roster(kIds);
  std::set<MemberId> model{MemberId{0}};
  std::vector<std::pair<std::shared_ptr<const GroupSnapshot>, std::vector<MemberId>>> frozen;
  util::Rng rng(20010416);
  std::size_t most_leaves = 0, leaves = 0, shrinks = 0;
  int op = 0;
  while (op < 20000) {
    std::optional<GroupRegistry::Batch> batch;
    if (rng.chance(0.5)) batch.emplace(roster.registry);
    // Every 4000 ops the mix tilts between growing and shrinking.
    const double grow = (op / 4000) % 2 == 0 ? 0.65 : 0.35;
    for (std::size_t n = 1 + rng.index(40); n > 0; --n, ++op) {
      const std::size_t id = 1 + rng.index(kIds - 1);
      const MemberId member{static_cast<MemberId::value_type>(id)};
      if (rng.chance(grow)) {
        ASSERT_EQ(roster.join(id), model.insert(member).second) << "op " << op;
      } else {
        ASSERT_EQ(roster.leave(id), model.erase(member) == 1) << "op " << op;
      }
    }
    batch.reset();
    const auto snap = roster.snap();
    const MemberSet& set = roster.members(*snap);
    ASSERT_EQ(set.size(), model.size());
    ASSERT_EQ(flatten(set), std::vector<MemberId>(model.begin(), model.end()));
    expect_well_formed(set);
    shrinks += set.leaves().size() < leaves;
    leaves = set.leaves().size();
    most_leaves = std::max(most_leaves, leaves);
    if (frozen.size() < static_cast<std::size_t>(op / 1000)) {
      frozen.emplace_back(snap, flatten(set));
    }
  }
  for (const auto& [snap, ids] : frozen) EXPECT_EQ(flatten(roster.members(*snap)), ids);
  // The run split leaves, and merged or dropped them.
  EXPECT_GE(most_leaves, 3u);
  EXPECT_GT(shrinks, 0u);
}

TEST(MemberSet, JoinCopiesOneLeafAndSharesEveryOtherGroup) {
  GroupRegistry registry;
  std::vector<MemberId> members;
  std::vector<GroupId> groups;
  members.reserve(8 * kLeaf);
  groups.reserve(3);
  {
    GroupRegistry::Batch batch(registry);
    for (std::size_t i = 0; i < 8 * kLeaf; ++i) {
      members.push_back(registry.add_member("m", 1, HostId{1}));
    }
    for (int g = 0; g < 3; ++g) {
      groups.push_back(registry.create_group("g", FcmMode::kFreeAccess, members[0]));
    }
    // g1 gets every even member: several leaves, with room to split.
    for (std::size_t i = 2; i < members.size(); i += 2) {
      ASSERT_TRUE(registry.join(members[i], groups[1]));
    }
    for (std::size_t i = 1; i < 100; ++i) ASSERT_TRUE(registry.join(members[i], groups[2]));
  }
  const auto before = registry.snapshot();
  ASSERT_TRUE(registry.join(members[kLeaf + 1], groups[1]));  // an odd id, mid-set
  const auto after = registry.snapshot();

  // Every other group is the very same object in both snapshots.
  for (const GroupId g : {groups[0], groups[2]}) {
    EXPECT_EQ((*before->groups)[g.value()], (*after->groups)[g.value()]);
  }
  const MemberSet& old_set = before->group(groups[1]).members;
  const MemberSet& new_set = after->group(groups[1]).members;
  ASSERT_GE(old_set.leaves().size(), 4u);
  EXPECT_EQ(new_set.size(), old_set.size() + 1);
  EXPECT_FALSE(old_set.contains(members[kLeaf + 1]));  // the old view is frozen
  std::size_t fresh = 0;
  for (const auto& leaf : new_set.leaves()) {
    const auto& old_leaves = old_set.leaves();
    if (std::find(old_leaves.begin(), old_leaves.end(), leaf) == old_leaves.end()) ++fresh;
  }
  EXPECT_LE(fresh, 2u);  // the touched leaf, plus its split half if it split
}

TEST(MemberSet, FlashCrowdOfUnbatchedJoinsAndLeaves) {
  // A class start: 10^5 members join one group, each join its own publish
  // (no Batch), then all leave. Whole-group copy-on-write makes this
  // quadratic (~40 GB of copying); chunked membership keeps it linear.
  constexpr std::size_t kCrowd = 100'000;
  Roster roster(kCrowd + 1);
  std::vector<std::size_t> crowd(kCrowd);
  std::iota(crowd.begin(), crowd.end(), 1);
  // Members arrive in a seeded random order, not id order.
  util::Rng rng(7);
  for (std::size_t i = crowd.size(); i > 1; --i) std::swap(crowd[i - 1], crowd[rng.index(i)]);

  const auto start = std::chrono::steady_clock::now();
  for (const std::size_t m : crowd) ASSERT_TRUE(roster.join(m));
  const auto full = roster.snap();
  for (const std::size_t m : crowd) ASSERT_TRUE(roster.leave(m));
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  const MemberSet& crowded = roster.members(*full);
  EXPECT_EQ(crowded.size(), kCrowd + 1);  // the chair included
  expect_well_formed(crowded);
  for (std::size_t i = 0; i <= kCrowd; ++i) ASSERT_TRUE(crowded.contains(Roster::id_of(i)));
  const auto now = roster.snap();
  const MemberSet& after = roster.members(*now);
  EXPECT_EQ(flatten(after), std::vector<MemberId>{MemberId{0}});
  EXPECT_EQ(after.size(), 1u);
#if defined(NDEBUG) && !defined(DMPS_SANITIZED)
  // The bound is for optimized builds: -O0 or a sanitizer multiplies every
  // access, and the linear-vs-quadratic gap is orders of magnitude anyway.
  EXPECT_LT(seconds, 2.0) << "2 * 10^5 unbatched membership publishes";
#endif
  RecordProperty("flash_crowd_s", std::to_string(seconds));
}

}  // namespace
