// Tests of the runtime's one verification rule (rt/expected.hpp): a run's
// final memory is checked against the state the schedule alone implies.
//
// Acceptance: every schedule_export family at n = 3..8, plus the
// recursive-doubling allreduce, on both engines — and the combine
// evaluator's image is byte-identical to the barrier engine's memory. The
// reduce and the allreduce also run at 1- and 13-double blocks, the
// payload generator's single-element and ragged-tail rows.
// Rejection: the cases where the rule is the only defence — a corrupted
// reduce whose run still reports clean stats (combine descriptors carry no
// digest), a corrupted copy-through move judged from its final memory
// alone, and a plan checked against another schedule's holdings. Named
// Rt* so the tsan leg runs it.
#include "rt/expected.hpp"

#include "ft/injector.hpp"
#include "mbr/view.hpp"
#include "obs/metrics.hpp"
#include "rt/async_player.hpp"
#include "rt/player.hpp"
#include "routing/schedule_export.hpp"
#include "sim/cycle.hpp"
#include "trees/bst.hpp"
#include "trees/sbt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

namespace hcube::rt {
namespace {

using routing::BroadcastDiscipline;
using routing::ScatterPolicy;
using sim::packet_t;
using sim::PortModel;
using sim::Schedule;

constexpr std::size_t kBlock = 8;

/// Plays a move schedule on both engines (copy-through when `hooked`) and
/// asserts the rule accepts each run, and that the barrier engine's cycle
/// count equals the cycle executor's makespan.
void expect_move_accepted(const Schedule& schedule, PortModel model,
                          const std::string& label, bool hooked = false) {
    SCOPED_TRACE(label + (hooked ? " hooked" : ""));
    const sim::CycleStats sim = sim::execute_schedule(schedule, model);
    const Plan plan = compile_plan(schedule, DataMode::move, kBlock, 2);
    ft::FaultInjector hook{ft::FaultPlan{}};
    hook.arm(plan);

    Player barrier(plan);
    AsyncPlayer async(plan);
    if (hooked) {
        barrier.set_fault_hook(&hook);
        async.set_fault_hook(&hook);
    }
    const PlayStats ref = barrier.play();
    EXPECT_TRUE(ref.clean());
    EXPECT_EQ(ref.cycles, sim.makespan);
    EXPECT_TRUE(check_move_run(plan, sim, barrier));
    hook.rewind();
    EXPECT_TRUE(async.play().clean());
    EXPECT_TRUE(check_move_run(plan, sim, async));
}

/// Plays a combine schedule reducing into `root` over `members` (empty =
/// the full cube) with `block`-double blocks on both engines and asserts
/// the rule accepts each run, with the evaluator's image equal to the
/// barrier engine's final memory byte for byte, and that the barrier
/// engine's cycle count equals the schedule's depth (1 + its last send's
/// cycle).
void expect_combine_accepted(const Schedule& schedule, node_t root,
                             const std::string& label,
                             std::span<const node_t> members = {},
                             std::size_t block = kBlock) {
    SCOPED_TRACE(label + " block=" + std::to_string(block));
    const Plan plan = compile_plan(schedule, DataMode::combine, block, 2,
                                   8, PlanLayout::automatic, members);
    const std::optional<std::vector<double>> image =
        combine_image(plan, schedule);
    ASSERT_TRUE(image.has_value());
    std::uint32_t depth = 0;
    for (const sim::ScheduledSend& send : schedule.sends) {
        depth = std::max(depth, send.cycle + 1);
    }

    Player barrier(plan);
    const PlayStats ref = barrier.play();
    EXPECT_TRUE(ref.clean());
    EXPECT_EQ(ref.cycles, depth);
    EXPECT_TRUE(matches_image(plan, barrier, *image));
    EXPECT_TRUE(check_combine_run(plan, schedule, root, members, barrier));
    AsyncPlayer async(plan);
    EXPECT_TRUE(async.play().clean());
    EXPECT_TRUE(check_combine_run(plan, schedule, root, members, async));
}

/// Recursive-doubling allreduce: in cycle d every node exchanges its
/// running partial for packet 0 with its neighbor across dimension d, so
/// every node ends holding the full sum.
Schedule recursive_doubling_allreduce(hc::dim_t n) {
    Schedule s;
    s.n = n;
    s.packet_count = 1;
    s.initial_holder = {0};
    const node_t count = node_t{1} << n;
    for (std::uint32_t d = 0; d < static_cast<std::uint32_t>(n); ++d) {
        for (node_t v = 0; v < count; ++v) {
            s.sends.push_back({d, v, v ^ (node_t{1} << d), 0});
        }
    }
    return s;
}

TEST(RtExpected, AcceptsEveryScheduleFamilyOnBothEngines) {
    constexpr PortModel full = PortModel::one_port_full_duplex;
    for (hc::dim_t n = 3; n <= 8; ++n) {
        const std::string at = " n=" + std::to_string(n);
        const auto sbt = trees::build_sbt(n, 0);
        const auto bst = trees::build_bst(n, 0);
        for (const BroadcastDiscipline d :
             {BroadcastDiscipline::port_oriented,
              BroadcastDiscipline::paced}) {
            expect_move_accepted(
                routing::make_tree_broadcast(sbt, d, 4, full), full,
                "sbt_bcast" + at);
        }
        expect_move_accepted(
            routing::make_msbt_broadcast(n, 0, static_cast<packet_t>(n) * 2,
                                         full),
            full, "msbt_bcast" + at);
        expect_move_accepted(routing::make_tree_scatter(
                                 sbt, ScatterPolicy::descending, 2, full),
                             full, "sbt_scatter" + at);
        expect_move_accepted(routing::make_tree_scatter(
                                 bst, ScatterPolicy::cyclic, 2, full),
                             full, "bst_scatter" + at);
        expect_move_accepted(
            routing::make_tree_scatter(sbt, ScatterPolicy::per_port, 2,
                                       PortModel::all_port),
            PortModel::all_port, "per_port_scatter" + at);
        expect_move_accepted(routing::make_tree_gather(
                                 sbt, ScatterPolicy::descending, 2, full),
                             full, "sbt_gather" + at);
        expect_move_accepted(routing::make_tree_gather(
                                 bst, ScatterPolicy::cyclic, 2, full),
                             full, "bst_gather" + at);
        expect_move_accepted(routing::make_allgather_schedule(n), full,
                             "allgather" + at);
        expect_move_accepted(routing::make_alltoall_schedule(n, 1), full,
                             "alltoall" + at);
        // A whole row of the payload generator, a single element and a
        // row plus a ragged tail.
        for (const std::size_t block :
             {kBlock, std::size_t{1}, std::size_t{13}}) {
            expect_combine_accepted(
                routing::reverse_broadcast_for_reduce(
                    routing::make_tree_broadcast(
                        trees::build_sbt(n, 5),
                        BroadcastDiscipline::port_oriented, 3, full),
                    5),
                5, "reduce" + at, {}, block);
            expect_combine_accepted(recursive_doubling_allreduce(n), 0,
                                    "allreduce" + at, {}, block);
        }

        // The member hooks over a view with two holes; the reduction's
        // exact sums run over the live members only.
        mbr::View view(n);
        view.leave(1);
        view.leave((node_t{1} << n) - 2);
        const std::vector<node_t> members = view.members();
        expect_move_accepted(
            routing::make_member_broadcast(view, 0,
                                           BroadcastDiscipline::paced, 3,
                                           full),
            full, "member_bcast" + at);
        expect_move_accepted(routing::make_member_scatter(view, 0, 2), full,
                             "member_scatter" + at);
        expect_move_accepted(routing::make_member_gather(view, 0, 2), full,
                             "member_gather" + at);
        const Schedule member_reduce = routing::reverse_broadcast_for_reduce(
            routing::make_member_broadcast(
                view, 0, BroadcastDiscipline::port_oriented, 2, full),
            0);
        expect_combine_accepted(member_reduce, 0, "member_reduce" + at,
                                members);
        // The same run judged as a full-cube reduction misses the holes'
        // contributions at the root.
        const Plan plan = compile_plan(member_reduce, DataMode::combine,
                                       kBlock, 2, 8, PlanLayout::automatic,
                                       members);
        AsyncPlayer async(plan);
        EXPECT_TRUE(async.play().clean());
        EXPECT_FALSE(check_combine_run(plan, member_reduce, 0, {}, async));
    }
}

TEST(RtExpected, AcceptsCopyThroughMoveRuns) {
    for (hc::dim_t n = 3; n <= 5; ++n) {
        const std::string at = " n=" + std::to_string(n);
        expect_move_accepted(
            routing::make_msbt_broadcast(n, 0, static_cast<packet_t>(n) * 2,
                                         PortModel::one_port_full_duplex),
            PortModel::one_port_full_duplex, "msbt_bcast" + at, true);
        expect_move_accepted(
            routing::make_tree_scatter(trees::build_sbt(n, 0),
                                       ScatterPolicy::descending, 2,
                                       PortModel::one_port_full_duplex),
            PortModel::one_port_full_duplex, "sbt_scatter" + at, true);
    }
}

/// The directed link of the schedule's first send, and how many blocks
/// cross it.
ft::DirectedLink first_link(const Schedule& schedule,
                            std::uint32_t& pushes) {
    const sim::ScheduledSend& first = schedule.sends.front();
    pushes = 0;
    for (const sim::ScheduledSend& s : schedule.sends) {
        pushes += s.from == first.from && s.to == first.to ? 1u : 0u;
    }
    return {first.from, first.to};
}

TEST(RtExpected, RejectsCorruptedReduceThatPlaysClean) {
    const Schedule reduce = routing::reverse_broadcast_for_reduce(
        routing::make_tree_broadcast(trees::build_sbt(4, 0),
                                     BroadcastDiscipline::port_oriented, 3,
                                     PortModel::one_port_full_duplex),
        0);
    std::uint32_t pushes = 0;
    const ft::DirectedLink link = first_link(reduce, pushes);
    ft::FaultPlan faults;
    faults.corrupt(link.from, link.to, 0);

    const auto expect_rejected = [&](const Plan& plan, auto& player,
                                     const char* engine) {
        SCOPED_TRACE(std::string(engine) +
                     " block=" + std::to_string(plan.block_elems));
        ft::FaultInjector injector(faults);
        injector.arm(plan);
        player.set_fault_hook(&injector);
        const PlayStats stats = player.play();
        // Combine descriptors carry no digest: the run looks clean.
        EXPECT_TRUE(stats.clean());
        EXPECT_EQ(stats.blocks_delivered, reduce.sends.size());
        EXPECT_EQ(injector.corrupted(), 1u);
        EXPECT_FALSE(check_combine_run(plan, reduce, 0, {}, player));
    };
    for (const std::size_t block :
         {kBlock, std::size_t{1}, std::size_t{13}}) {
        const Plan plan = compile_plan(reduce, DataMode::combine, block, 2);
        Player barrier(plan);
        expect_rejected(plan, barrier, "barrier");
        AsyncPlayer async(plan);
        expect_rejected(plan, async, "async");
    }
}

TEST(RtExpected, RejectsCorruptedCopyThroughMoveFromFinalMemory) {
    const Schedule bcast = routing::make_tree_broadcast(
        trees::build_sbt(4, 0), BroadcastDiscipline::paced, 4,
        PortModel::one_port_full_duplex);
    const sim::CycleStats sim =
        sim::execute_schedule(bcast, PortModel::one_port_full_duplex);
    const Plan plan = compile_plan(bcast, DataMode::move, kBlock, 2);
    std::uint32_t pushes = 0;
    const ft::DirectedLink link = first_link(bcast, pushes);
    ft::FaultPlan faults;
    faults.corrupt(link.from, link.to, pushes / 2);

    const auto expect_rejected = [&](auto& player, const char* engine) {
        SCOPED_TRACE(engine);
        ft::FaultInjector injector(faults);
        injector.arm(plan);
        player.set_fault_hook(&injector);
        (void)player.play(); // stats deliberately ignored
        EXPECT_EQ(injector.corrupted(), 1u);
        EXPECT_TRUE(slots_are_holdings(plan, sim));
        EXPECT_TRUE(arena_is_canonical(plan));
        EXPECT_FALSE(matches_arena(plan, player));
        EXPECT_FALSE(check_move_run(plan, sim, player));
    };
    Player barrier(plan);
    expect_rejected(barrier, "barrier");
    AsyncPlayer async(plan);
    expect_rejected(async, "async");
}

TEST(RtExpected, RejectsPlanCheckedAgainstAnotherSchedulesHoldings) {
    constexpr PortModel full = PortModel::one_port_full_duplex;
    const Schedule bcast = routing::make_tree_broadcast(
        trees::build_sbt(4, 0), BroadcastDiscipline::port_oriented, 2, full);
    const Schedule scatter = routing::make_tree_scatter(
        trees::build_sbt(4, 0), ScatterPolicy::descending, 2, full);
    const sim::CycleStats own = sim::execute_schedule(bcast, full);
    const sim::CycleStats other = sim::execute_schedule(scatter, full);
    const Plan plan = compile_plan(bcast, DataMode::move, kBlock, 2);
    AsyncPlayer player(plan);
    ASSERT_TRUE(player.play().clean());

    EXPECT_TRUE(check_move_run(plan, own, player));
    EXPECT_NE(other.delivery_cycle.entry_count(), plan.total_slots);
    EXPECT_FALSE(slots_are_holdings(plan, other));
    EXPECT_FALSE(check_move_run(plan, other, player));
}

TEST(RtExpected, CheckedPlanFullyChecksOnlyItsFirstRun) {
    constexpr PortModel full = PortModel::one_port_full_duplex;
    const auto sbt = trees::build_sbt(4, 3);
    const Schedule bcast = routing::make_msbt_broadcast(4, 3, 8, full);
    const Schedule forward = routing::make_tree_broadcast(
        sbt, BroadcastDiscipline::port_oriented, 3, full);
    const Schedule reduce = routing::reverse_broadcast_for_reduce(forward, 3);
    // Canonical digests are derived only by a move plan's first check, one
    // per packet: compiling hashes the arena, and steady runs derive none.
    const obs::Counter& derived =
        obs::registry().counter("rt.canonical_digests");
    const std::uint64_t built = derived.value();
    CheckedPlan move(bcast, bcast, DataMode::move, full, kBlock, 2);
    CheckedPlan combine(reduce, forward, DataMode::combine, full, kBlock, 2);
    EXPECT_EQ(derived.value(), built);
    EXPECT_EQ(move.makespan(), sim::execute_schedule(bcast, full).makespan);
    EXPECT_EQ(combine.makespan(),
              sim::execute_schedule(forward, full).makespan);
    for (CheckedPlan* checked : {&move, &combine}) {
        SCOPED_TRACE(checked == &move ? "move" : "combine");
        const std::uint64_t before = checked->resident_bytes();
        for (int run = 0; run < 3; ++run) {
            const std::uint64_t digests = derived.value();
            const CheckedRun r = checked->play();
            EXPECT_TRUE(r.verified) << "run " << run;
            EXPECT_EQ(r.full_check, run == 0) << "run " << run;
            EXPECT_EQ(r.stats.cycles, checked->makespan());
            EXPECT_EQ(derived.value() - digests,
                      checked == &move && run == 0 ? bcast.packet_count : 0u)
                << "run " << run;
        }
        // Only the combine plan keeps an image: the expected one.
        const std::uint64_t image_bytes =
            checked == &combine
                ? compile_plan(reduce, DataMode::combine, kBlock, 2)
                          .total_slots *
                      kBlock * sizeof(double)
                : 0;
        EXPECT_EQ(checked->resident_bytes(), before + image_bytes);
    }
}

TEST(RtExpected, RejectsPlanWhoseDigestTableDisagrees) {
    constexpr PortModel full = PortModel::one_port_full_duplex;
    const Schedule bcast = routing::make_tree_broadcast(
        trees::build_sbt(4, 0), BroadcastDiscipline::paced, 4, full);
    const sim::CycleStats sim = sim::execute_schedule(bcast, full);
    Plan plan = compile_plan(bcast, DataMode::move, kBlock, 2);
    ASSERT_EQ(plan.packet_digest.size(), plan.packet_count);
    EXPECT_EQ(plan.footprint().digests,
              std::uint64_t{plan.packet_count} * sizeof(std::uint64_t));
    EXPECT_TRUE(arena_is_canonical(plan));
    plan.packet_digest[1] ^= 1;

    EXPECT_FALSE(arena_is_canonical(plan));
    AsyncPlayer clean(plan);
    ASSERT_TRUE(clean.play().clean()); // zero-copy: pointer identity
    EXPECT_FALSE(check_move_run(plan, sim, clean));
    // Copy-through hashes every arrived block against the table.
    ft::FaultInjector hook{ft::FaultPlan{}};
    hook.arm(plan);
    AsyncPlayer hooked(plan);
    hooked.set_fault_hook(&hook);
    EXPECT_GT(hooked.play().checksum_failures, 0u);
}

} // namespace
} // namespace hcube::rt
