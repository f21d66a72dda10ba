// Lifetime and aliasing tests of the zero-copy delivery path: move-mode
// plays must end with every held slot *pointing into the plan's immutable
// block arena* (pure view forwarding, zero payload memcpys), while combine
// plays (in place, or copy-through when they walk the rings) and
// fault-hooked runs must use player-owned storage that never aliases the
// arena. Replays — both on a raw player and through the
// service layer's plan cache — must leave the arena bit-identical.
//
// Suites are named Rt*/Svc* so the sanitizer CI jobs
// (ctest -R '^(Rt|Ft|Svc)') include them.
#include "rt/plan.hpp"

#include "ft/fault_model.hpp"
#include "rt/async_player.hpp"
#include "rt/checksum.hpp"
#include "routing/schedule_export.hpp"
#include "svc/session.hpp"
#include "trees/sbt.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

namespace hcube::rt {
namespace {

using routing::BroadcastDiscipline;
using sim::PortModel;
using sim::Schedule;

constexpr std::size_t kBlock = 24; // deliberately not a multiple of 8

Schedule broadcast_schedule(hc::dim_t n, sim::packet_t packets) {
    return routing::make_tree_broadcast(trees::build_sbt(n, 0),
                                        BroadcastDiscipline::port_oriented,
                                        packets,
                                        PortModel::one_port_full_duplex);
}

/// Every slot of a clean move-mode run must be the arena's canonical block
/// for its packet — by *pointer identity*, which is what proves delivery
/// forwarded views instead of copying payloads.
template <class P>
void expect_all_views_in_arena(const Plan& plan, const P& player) {
    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        const std::span<const double> b =
            player.block(plan.slot_node[s], plan.slot_packet[s]);
        ASSERT_EQ(b.size(), plan.block_elems) << "slot " << s;
        EXPECT_EQ(b.data(), plan.arena_block(plan.slot_packet[s]))
            << "slot " << s << " holds a copy, not an arena view";
    }
}

TEST(RtArena, BlocksAreCacheLineAlignedAndCanonical) {
    const Plan plan =
        compile_plan(broadcast_schedule(4, 3), DataMode::move, kBlock, 2);
    ASSERT_EQ(plan.arena_stride % 8, 0u);
    ASSERT_GE(plan.arena_stride, plan.block_elems);
    for (sim::packet_t p = 0; p < 3; ++p) {
        const double* block = plan.arena_block(p);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(block) % 64, 0u)
            << "packet " << p;
        EXPECT_EQ(block_checksum({block, plan.block_elems}),
                  canonical_checksum(p, plan.block_elems))
            << "packet " << p;
    }
}

TEST(RtArena, AsyncMovePlayForwardsViewsWithZeroCopies) {
    const Plan plan =
        compile_plan(broadcast_schedule(5, 2), DataMode::move, kBlock, 2);
    AsyncPlayer player(plan);
    const PlayStats stats = player.play();
    ASSERT_TRUE(stats.clean());
    EXPECT_EQ(stats.bytes_copied, 0u);
    expect_all_views_in_arena(plan, player);
}

TEST(RtArena, ReplayLeavesTheArenaBitIdentical) {
    const Plan plan =
        compile_plan(broadcast_schedule(4, 4), DataMode::move, kBlock, 2);
    const std::vector<double> before = plan.arena;
    AsyncPlayer player(plan);
    ASSERT_TRUE(player.play().clean());
    ASSERT_TRUE(player.play().clean());
    expect_all_views_in_arena(plan, player);
    ASSERT_EQ(plan.arena.size(), before.size());
    EXPECT_EQ(std::memcmp(plan.arena.data(), before.data(),
                          before.size() * sizeof(double)),
              0)
        << "a play mutated the immutable arena";
}

/// A hook that delivers everything untouched — its mere presence must
/// force copy-through (a hook may mutate staged bytes, which must never
/// alias the immutable arena).
class PassThroughHook final : public ft::ChannelFaultHook {
public:
    ft::PushVerdict on_push(std::uint32_t, std::uint32_t,
                            std::span<double>) noexcept override {
        return ft::PushVerdict::deliver;
    }
};

TEST(RtArena, CombinePlansUseDistinctAccumulatorStorage) {
    const Schedule forward = broadcast_schedule(3, 2);
    const Schedule reduction =
        routing::reverse_broadcast_for_reduce(forward, 0);
    const Plan plan =
        compile_plan(reduction, DataMode::combine, kBlock, 2);
    // Combine mode has no arena: accumulators mutate in place, so a view
    // of another node's slot would go stale mid-flight.
    EXPECT_TRUE(plan.arena.empty());
    ASSERT_TRUE(plan.in_place);
    AsyncPlayer player(plan);
    // The in-place walk adds slot to slot: nothing is staged.
    const PlayStats in_place = player.play();
    ASSERT_TRUE(in_place.clean());
    EXPECT_EQ(in_place.blocks_delivered, reduction.sends.size());
    EXPECT_EQ(in_place.bytes_copied, 0u);
    // A hooked play of the same plan walks the rings, and every sent block
    // is staged into one.
    PassThroughHook hook;
    player.set_fault_hook(&hook);
    const PlayStats hooked = player.play();
    ASSERT_TRUE(hooked.clean());
    EXPECT_EQ(hooked.blocks_delivered, reduction.sends.size());
    EXPECT_EQ(hooked.bytes_copied,
              hooked.blocks_delivered * kBlock * sizeof(double));
}

TEST(RtArena, FaultHookForcesCopyThroughAndClearingRestoresZeroCopy) {
    const Plan plan =
        compile_plan(broadcast_schedule(4, 2), DataMode::move, kBlock, 2);
    AsyncPlayer player(plan);

    PassThroughHook hook;
    player.set_fault_hook(&hook);
    const PlayStats hooked = player.play();
    ASSERT_TRUE(hooked.clean());
    EXPECT_EQ(hooked.bytes_copied,
              2 * hooked.blocks_delivered * kBlock * sizeof(double))
        << "hooked runs must stage into the ring and copy out again";
    // Copy-through still ends in the canonical final state (by value, not
    // by pointer — slots now live in player-owned storage).
    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        const std::span<const double> b =
            player.block(plan.slot_node[s], plan.slot_packet[s]);
        ASSERT_EQ(b.size(), plan.block_elems);
        EXPECT_NE(b.data(), plan.arena_block(plan.slot_packet[s]));
        EXPECT_EQ(block_checksum(b),
                  canonical_checksum(plan.slot_packet[s], plan.block_elems));
    }

    player.set_fault_hook(nullptr);
    const PlayStats clean = player.play();
    ASSERT_TRUE(clean.clean());
    EXPECT_EQ(clean.bytes_copied, 0u);
    expect_all_views_in_arena(plan, player);
}

TEST(SvcArena, CachedPlanReplaysStayVerifiedAndZeroCopy) {
    svc::SessionParams params;
    params.threads = 2;
    svc::Session session(4, params);
    const svc::Signature sig{svc::Op::broadcast, svc::Family::sbt, 4, 0, 4,
                             kBlock, PortModel::one_port_full_duplex};
    const svc::ExecStats first = session.execute(sig);
    EXPECT_TRUE(first.verified);
    EXPECT_FALSE(first.cache_hit);
    EXPECT_EQ(first.bytes_copied, 0u);
    for (int rep = 0; rep < 3; ++rep) {
        const svc::ExecStats repeat = session.execute(sig);
        EXPECT_TRUE(repeat.verified);
        EXPECT_TRUE(repeat.cache_hit);
        EXPECT_EQ(repeat.bytes_copied, 0u)
            << "cache replay " << rep << " fell off the zero-copy path";
    }
}

} // namespace
} // namespace hcube::rt
