// Tests for the schedule -> execution-plan compiler: slot assignment,
// channel numbering, the cycle CSR, and the feasibility checks it shares
// with the cycle executor (availability, duplicate delivery, link
// capacity).
#include "rt/plan.hpp"

#include "common/check.hpp"
#include "routing/broadcast.hpp"
#include "routing/schedule_export.hpp"
#include "rt/async_player.hpp"
#include "rt/expected.hpp"
#include "trees/bst.hpp"
#include "trees/sbt.hpp"

#include <gtest/gtest.h>

#include <string>

namespace hcube::rt {
namespace {

using sim::Schedule;
using sim::ScheduledSend;

Schedule two_hop_chain() {
    // 0 -> 1 in cycle 0, 1 -> 3 in cycle 1 on a 2-cube.
    Schedule s;
    s.n = 2;
    s.packet_count = 1;
    s.initial_holder = {0};
    s.sends = {{0, 0, 1, 0}, {1, 1, 3, 0}};
    return s;
}

TEST(RtPlan, LowersChainIntoSlotsChannelsAndBuckets) {
    const Plan plan = compile_plan(two_hop_chain(), DataMode::move, 4, 1);
    EXPECT_EQ(plan.cycles, 2u);
    EXPECT_EQ(plan.channel_count, 2u);
    EXPECT_EQ(plan.total_slots, 3u); // held by 0, 1 and 3
    EXPECT_EQ(plan.lowered_count(), 2u);
    // One hop per cycle: the cycle CSR puts hop 0 in cycle 0, hop 1 in 1.
    EXPECT_EQ(plan.flat_cycle_begin, (std::vector<std::uint32_t>{0, 1, 2}));
    EXPECT_EQ(plan.seeded_slots.size(), 1u); // the initial holder
    EXPECT_NE(plan.slot_of(0, 0), Plan::kNoSlot);
    EXPECT_NE(plan.slot_of(1, 0), Plan::kNoSlot);
    EXPECT_NE(plan.slot_of(3, 0), Plan::kNoSlot);
    EXPECT_EQ(plan.slot_of(2, 0), Plan::kNoSlot);
}

TEST(RtPlan, OwnerPartitionIsBalancedAndContiguous) {
    Plan plan;
    plan.n = 4;
    plan.workers = 3;
    std::uint32_t last = 0;
    std::uint32_t counts[3] = {0, 0, 0};
    for (node_t i = 0; i < 16; ++i) {
        const std::uint32_t owner = plan.owner_of(i);
        ASSERT_LT(owner, 3u);
        ASSERT_GE(owner, last); // contiguous, non-decreasing
        last = owner;
        ++counts[owner];
    }
    for (const std::uint32_t c : counts) {
        EXPECT_GE(c, 5u);
        EXPECT_LE(c, 6u);
    }
}

TEST(RtPlan, RejectsForwardingBeforeArrival) {
    Schedule s = two_hop_chain();
    s.sends[1].cycle = 0; // forwards in the cycle it is still in flight
    EXPECT_THROW((void)compile_plan(s, DataMode::move, 4, 1), check_error);
}

TEST(RtPlan, RejectsDuplicateDeliveryInMoveMode) {
    Schedule s;
    s.n = 2;
    s.packet_count = 1;
    s.initial_holder = {0};
    s.sends = {{0, 0, 1, 0}, {1, 0, 1, 0}};
    EXPECT_THROW((void)compile_plan(s, DataMode::move, 4, 1), check_error);
}

TEST(RtPlan, RejectsTwoPacketsOnOneLinkInOneCycle) {
    Schedule s;
    s.n = 2;
    s.packet_count = 2;
    s.initial_holder = {0, 0};
    s.sends = {{0, 0, 1, 0}, {0, 0, 1, 1}};
    EXPECT_THROW((void)compile_plan(s, DataMode::move, 4, 1), check_error);
}

TEST(RtPlan, RejectsNonNeighborSends) {
    Schedule s;
    s.n = 2;
    s.packet_count = 1;
    s.initial_holder = {0};
    s.sends = {{0, 0, 3, 0}};
    EXPECT_THROW((void)compile_plan(s, DataMode::move, 4, 1), check_error);
}

TEST(RtPlan, CombineModeAcceptsDuplicateArrivalsAndSeedsEverySlot) {
    // Reversed broadcast: the root receives packet p once per child, and
    // every node's slot starts as its own contribution.
    const auto tree = trees::build_sbt(3, 0);
    const sim::Schedule forward = routing::make_tree_broadcast(
        tree, routing::BroadcastDiscipline::port_oriented, 2,
        sim::PortModel::one_port_full_duplex);
    const sim::Schedule reduction =
        routing::reverse_broadcast_for_reduce(forward, 0);
    const Plan plan = compile_plan(reduction, DataMode::combine, 4, 2);
    EXPECT_EQ(plan.mode, DataMode::combine);
    EXPECT_EQ(plan.seeded_slots.size(), plan.total_slots);
    // 8 nodes x 2 packets, every node touches every packet.
    EXPECT_EQ(plan.total_slots, 16u);
    // Cycle count is preserved by time reversal.
    const auto stats = sim::execute_schedule(
        forward, sim::PortModel::one_port_full_duplex);
    EXPECT_EQ(plan.cycles, stats.makespan);
}

TEST(RtPlan, DepGraphChainHasExactEdges) {
    // Two-hop chain, one worker: the send and receive of lowered hop l
    // interleave as ids 2l and 2l+1, so the chain is send 0, recv 1,
    // send 2, recv 3 in execution order. Expected edges: data 0 -> 1 and
    // 2 -> 3, availability 1 -> 2 (the forward reads the slot the first
    // receive produced). The seeded first send depends on nothing.
    const Plan plan = compile_plan(two_hop_chain(), DataMode::move, 4, 1);
    ASSERT_EQ(plan.action_count(), 4u);
    EXPECT_TRUE(plan.is_send_action(0));
    EXPECT_FALSE(plan.is_send_action(1));
    EXPECT_TRUE(plan.is_send_action(2));
    EXPECT_FALSE(plan.is_send_action(3));
    EXPECT_EQ(Plan::lowered_of(2), 1u);
    EXPECT_EQ(Plan::lowered_of(3), 1u);

    const std::vector<std::uint32_t> expected_deps = {0, 1, 1, 1};
    EXPECT_EQ(plan.dep_count, expected_deps);

    const auto successors = [&plan](std::uint32_t id) {
        std::vector<std::uint32_t> out(
            plan.succ.begin() + plan.succ_begin[id],
            plan.succ.begin() + plan.succ_begin[id + 1]);
        std::ranges::sort(out);
        return out;
    };
    EXPECT_EQ(successors(0), std::vector<std::uint32_t>{1});
    EXPECT_EQ(successors(1), std::vector<std::uint32_t>{2});
    EXPECT_EQ(successors(2), std::vector<std::uint32_t>{3});
    EXPECT_EQ(successors(3), std::vector<std::uint32_t>{});
}

TEST(RtPlan, CapacityEdgesThrottleChannelReuseToRingDepth) {
    // Four sends down one link, ring depth 2: the k-th send must wait for
    // the (k-2)-th receive (capacity edge) on top of the ring-order edge
    // from the (k-1)-th send, so the channel can never hold more than two
    // in-flight blocks no matter how threads interleave.
    Schedule s;
    s.n = 1;
    s.packet_count = 4;
    s.initial_holder = {0, 0, 0, 0};
    s.sends = {{0, 0, 1, 0}, {1, 0, 1, 1}, {2, 0, 1, 2}, {3, 0, 1, 3}};
    const Plan plan =
        compile_plan(s, DataMode::move, 4, 1, /*async_depth=*/2);
    EXPECT_EQ(plan.async_depth, 2u);
    // Interleaved (send k = id 2k, recv k = id 2k+1). Sends: seed, +ring,
    // then +ring+capacity twice. Recvs: +data, then +data+ring.
    const std::vector<std::uint32_t> expected_deps = {0, 1, 1, 2,
                                                      2, 2, 2, 2};
    EXPECT_EQ(plan.dep_count, expected_deps);
}

TEST(RtPlan, CombineSameCycleExchangeOrdersSendBeforeAccumulation) {
    // Pairwise exchange (one recursive-doubling allreduce step): node 1
    // sends its partial to node 0 and node 0 sends its partial to node 1
    // in the same cycle. Listed 1 -> 0 first, node 0's receive lowers
    // *before* its send, so only a send-side edge can order the pair: the
    // send must read slot (0, p)'s pre-accumulation value, matching the
    // rule's sends-before-receives order within a cycle (rt/expected.hpp).
    Schedule s;
    s.n = 1;
    s.packet_count = 1;
    s.initial_holder = {0};
    s.sends = {{0, 1, 0, 0}, {0, 0, 1, 0}};
    const Plan plan = compile_plan(s, DataMode::combine, 4, 1);
    // Interleaved: hop 0 (1 -> 0) is ids {0, 1}, hop 1 (0 -> 1) is {2, 3}.
    ASSERT_EQ(plan.action_count(), 4u);

    // Data edges 0 -> 1 and 2 -> 3; ordering edges 2 -> 1 (send before
    // the accumulation into its source slot) and 0 -> 3 (likewise, caught
    // on the receive side because there the send lowered first).
    const std::vector<std::uint32_t> expected_deps = {0, 2, 0, 2};
    EXPECT_EQ(plan.dep_count, expected_deps);
    const auto successors = [&plan](std::uint32_t id) {
        std::vector<std::uint32_t> out(
            plan.succ.begin() + plan.succ_begin[id],
            plan.succ.begin() + plan.succ_begin[id + 1]);
        std::ranges::sort(out);
        return out;
    };
    EXPECT_EQ(successors(0), (std::vector<std::uint32_t>{1, 3}));
    EXPECT_EQ(successors(2), (std::vector<std::uint32_t>{1, 3}));
}

TEST(RtPlan, EveryDependencyEdgePointsForward) {
    // The DAG argument from docs/RUNTIME.md, checked mechanically: every
    // edge's head sorts strictly after its tail in (cycle, sends-before-
    // recvs) order, so a feasible schedule can never compile into a
    // cyclic (deadlocking) dependency graph. The per-hop cycle comes from
    // the cycle CSR (binary search).
    const auto check = [](const Plan& plan) {
        const auto key = [&plan](std::uint32_t id) -> std::uint64_t {
            const bool recv = !plan.is_send_action(id);
            const std::uint32_t cycle =
                plan.cycle_of_lowered(Plan::lowered_of(id));
            return std::uint64_t{cycle} * 2 + (recv ? 1 : 0);
        };
        for (std::uint32_t id = 0; id < plan.action_count(); ++id) {
            for (std::uint32_t e = plan.succ_begin[id];
                 e < plan.succ_begin[id + 1]; ++e) {
                ASSERT_LT(key(id), key(plan.succ[e]))
                    << "edge " << id << " -> " << plan.succ[e]
                    << " does not point forward";
            }
        }
    };
    check(compile_plan(routing::make_msbt_broadcast(
                           4, 0, 8, sim::PortModel::one_port_full_duplex),
                       DataMode::move, 2, 1));
    const sim::Schedule forward = routing::make_tree_broadcast(
        trees::build_sbt(4, 0), routing::BroadcastDiscipline::port_oriented,
        3, sim::PortModel::one_port_full_duplex);
    check(compile_plan(routing::reverse_broadcast_for_reduce(forward, 0),
                       DataMode::combine, 2, 1));
    // Recursive-doubling allreduce: every node both sends and receives the
    // same slot in every cycle, so the send-before-accumulation edges
    // (which run send -> receive *within* a cycle) appear everywhere.
    Schedule allreduce;
    allreduce.n = 3;
    allreduce.packet_count = 1;
    allreduce.initial_holder = {0};
    for (std::uint32_t d = 0; d < 3; ++d) {
        for (node_t v = 0; v < 8; ++v) {
            allreduce.sends.push_back(
                {d, v, static_cast<node_t>(v ^ (node_t{1} << d)), 0});
        }
    }
    check(compile_plan(allreduce, DataMode::combine, 2, 1));
}

// ------------------------------------------------------ beyond n = 20 ---

TEST(RtPlan, CompilesAndPlaysBeyondTwentyDimensions) {
    // The packed channel word is the only field whose width depends on n,
    // so a 21-cube compiles to the same encoding as any other. A 3-hop
    // chain 0 -> 1 -> 3 -> 2^20 + 3 ends with a send across dimension 20,
    // the top bit of the packed node field at this n.
    Schedule chain;
    chain.n = 21;
    chain.packet_count = 1;
    chain.initial_holder = {0};
    const node_t far = (node_t{1} << 20) | 3u;
    chain.sends = {{0, 0, 1, 0}, {1, 1, 3, 0}, {2, 3, far, 0}};
    const Plan plan = compile_plan(chain, DataMode::move, 4, 1);
    ASSERT_EQ(plan.channel_count, 3u);
    EXPECT_EQ(plan.channel_dim(2), 20);
    EXPECT_EQ(plan.channel_from(2), 3u);
    EXPECT_EQ(plan.channel_to(2), far);
    EXPECT_NE(plan.slot_of(far, 0), Plan::kNoSlot);

    const sim::CycleStats expected =
        sim::execute_schedule(chain, sim::PortModel::one_port_full_duplex);
    AsyncPlayer async(plan);
    const PlayStats a = async.play();
    EXPECT_TRUE(a.clean());
    EXPECT_EQ(a.blocks_delivered, 3u);
    EXPECT_TRUE(check_move_run(plan, expected, async));
}

// ------------------------------------------------ residency regression ---

TEST(RtPlanFootprint, ItemizedTotalsAndTrimmedCapacity) {
    const Plan plan = compile_plan(
        routing::make_msbt_broadcast(4, 0, 8,
                                     sim::PortModel::one_port_full_duplex),
        DataMode::move, 16, 3);
    const PlanFootprint f = plan.footprint();
    EXPECT_EQ(f.total(), f.actions + f.dep_graph + f.cycle_csr + f.slots +
                             f.channels + f.arena + f.digests);
    EXPECT_EQ(f.total(), plan.resident_bytes());
    // The SoA streams dominate `actions`: four u32 words per action.
    EXPECT_GE(f.actions, plan.action_count() * 16u);
    // The arena is the padded canonical blocks and nothing else.
    EXPECT_EQ(f.arena, plan.arena.capacity() * sizeof(double));
    EXPECT_GE(plan.arena.size(),
              std::size_t{plan.packet_count} * plan.arena_stride);
}

/// Regression pins for the plan's resident footprint: per
/// family, at every n in 3..8, the compiled plan (workers=2, block 4,
/// arena and digest table excluded — both are per-packet payload data,
/// not encoding) must fit `bytes_per_hop` bytes per lowered hop plus a fixed
/// allowance. Each pin is ~15% above the family's worst measured bytes per
/// hop beyond that allowance over n = 3..8, so a field widening or an
/// accidental AoS mirror fails loudly.
struct FootprintPin {
    const char* family;
    Schedule (*make)(dim_t n);
    std::uint64_t bytes_per_hop;
};

TEST(RtPlanFootprint, CompactBytesStayPinnedPerFamily) {
    static constexpr FootprintPin kPins[] = {
        {"sbt_broadcast",
         [](dim_t n) {
             return routing::make_tree_broadcast(
                 trees::build_sbt(n, 0),
                 routing::BroadcastDiscipline::port_oriented, 4,
                 sim::PortModel::one_port_full_duplex);
         },
         62},
        {"msbt_broadcast",
         [](dim_t n) {
             return routing::make_msbt_broadcast(
                 n, 0, static_cast<packet_t>(n) * 2,
                 sim::PortModel::one_port_full_duplex);
         },
         64},
        {"sbt_scatter",
         [](dim_t n) {
             return routing::make_tree_scatter(
                 trees::build_sbt(n, 0), routing::ScatterPolicy::descending,
                 2, sim::PortModel::one_port_full_duplex);
         },
         68},
        {"bst_scatter",
         [](dim_t n) {
             return routing::make_tree_scatter(
                 trees::build_bst(n, 0), routing::ScatterPolicy::cyclic, 2,
                 sim::PortModel::one_port_full_duplex);
         },
         68},
        {"allgather",
         [](dim_t n) { return routing::make_allgather_schedule(n); }, 72},
        {"alltoall",
         [](dim_t n) { return routing::make_alltoall_schedule(n, 1); }, 72},
    };
    for (const FootprintPin& pin : kPins) {
        for (dim_t n = 3; n <= 8; ++n) {
            SCOPED_TRACE(std::string(pin.family) +
                         " n=" + std::to_string(n));
            const Schedule schedule = pin.make(n);
            const Plan plan = compile_plan(schedule, DataMode::move, 4, 2);
            const PlanFootprint f = plan.footprint();
            const std::uint64_t encoding = f.total() - f.arena - f.digests;
            const std::uint64_t hops = plan.lowered_count();
            // Fixed allowance: the cycle CSR, per-node port bitmaps,
            // per-channel words, slot tables.
            const std::uint64_t fixed =
                4096 + (std::uint64_t{1} << n) * 8 + plan.channel_count * 4 +
                plan.total_slots * 24;
            EXPECT_LE(encoding, fixed + hops * pin.bytes_per_hop)
                << "hops=" << hops << " encoding=" << encoding;
        }
    }
}

} // namespace
} // namespace hcube::rt
