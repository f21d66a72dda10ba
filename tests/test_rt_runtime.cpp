// End-to-end tests of the threaded runtime: every collective family runs
// as one rt::CheckedPlan, the one-shot verified run every front door is
// built on. Real blocks move through SPSC channels on worker threads,
// every delivered block is checksum-verified, every run is judged by the
// expected-state rule (rt/expected.hpp), and the runtime's cycle count
// must equal the CycleExecutor makespan of the same schedule exactly (the
// uniform-packet equivalence the subsystem is built around).
#include "rt/expected.hpp"

#include "common/check.hpp"
#include "model/broadcast_model.hpp"
#include "rt/async_player.hpp"
#include "rt/checksum.hpp"
#include "rt/plan.hpp"
#include "rt/pool.hpp"
#include "routing/schedule_export.hpp"
#include "sim/cycle.hpp"
#include "trees/bst.hpp"
#include "trees/hp.hpp"
#include "trees/sbt.hpp"
#include "trees/tcbt.hpp"

#include <atomic>
#include <gtest/gtest.h>
#include <memory>

namespace hcube::rt {
namespace {

using routing::BroadcastDiscipline;
using routing::ScatterPolicy;
using sim::packet_t;
using sim::PortModel;

constexpr std::size_t kBlock = 32;

/// One CheckedPlan play and the makespan its cycle count must equal.
struct OneShot {
    CheckedRun run;
    std::uint32_t makespan = 0;
};

/// Proves `proof` under `model`, compiles `exec` in `mode` with
/// kBlock-double blocks on `threads` workers, and plays it once, on a
/// resident pool when there is more than one worker.
OneShot play_once(sim::Schedule exec, const sim::Schedule& proof,
                  DataMode mode, PortModel model, std::uint32_t threads) {
    CheckedPlan checked(std::move(exec), proof, mode, model, kBlock,
                        threads);
    const std::unique_ptr<WorkerPool> pool =
        threads > 1 ? std::make_unique<WorkerPool>(threads) : nullptr;
    return {checked.play(pool.get()), checked.makespan()};
}

OneShot play_move(const sim::Schedule& schedule, std::uint32_t threads,
                  PortModel model = PortModel::one_port_full_duplex) {
    return play_once(schedule, schedule, DataMode::move, model, threads);
}

TEST(RtRuntime, SbtBroadcastDeliversAndMatchesMakespan) {
    const sim::Schedule schedule = routing::make_tree_broadcast(
        trees::build_sbt(4, 0), BroadcastDiscipline::port_oriented, 6,
        PortModel::one_port_full_duplex);
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
        const auto [r, makespan] = play_move(schedule, threads);
        EXPECT_TRUE(r.verified) << "threads=" << threads;
        EXPECT_EQ(r.stats.cycles, makespan);
        EXPECT_EQ(r.stats.cycles, 4u * 6u); // n * P, Table 3
        EXPECT_EQ(r.stats.blocks_delivered, std::uint64_t{15} * 6);
        EXPECT_EQ(r.stats.payload_bytes,
                  r.stats.blocks_delivered * kBlock * sizeof(double));
    }
}

TEST(RtRuntime, MsbtBroadcastMatchesTable3Makespan) {
    constexpr hc::dim_t n = 4;
    constexpr packet_t P = 12; // 3 packets per ERSBT stream
    const auto [r, makespan] = play_move(
        routing::make_msbt_broadcast(n, 0, P, PortModel::one_port_full_duplex),
        3);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.stats.cycles, makespan);
    EXPECT_EQ(r.stats.cycles, P + static_cast<std::uint32_t>(n));
    // ...and agrees with the closed-form model.
    EXPECT_EQ(static_cast<double>(r.stats.cycles),
              model::broadcast_steps(model::Algorithm::msbt,
                                     PortModel::one_port_full_duplex,
                                     P * kBlock, kBlock, n));
}

TEST(RtRuntime, MsbtBroadcastRunsStretchedUnderHalfDuplex) {
    constexpr hc::dim_t n = 4;
    constexpr packet_t P = 8;
    constexpr PortModel half = PortModel::one_port_half_duplex;
    const auto [r, makespan] =
        play_move(routing::make_msbt_broadcast(n, 1, P, half), 2, half);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.stats.cycles, makespan);
    EXPECT_EQ(r.stats.cycles, 2 * P + static_cast<std::uint32_t>(n) - 1);
}

TEST(RtRuntime, PacedBroadcastOnTcbtAllPorts) {
    const auto [r, makespan] = play_move(
        routing::make_tree_broadcast(trees::build_tcbt(4, 0),
                                     BroadcastDiscipline::paced, 5,
                                     PortModel::all_port),
        2, PortModel::all_port);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.stats.cycles, makespan);
}

TEST(RtRuntime, EveryTreeFamilyBroadcastsThroughCheckedPlan) {
    // Every tree collective_explorer offers a broadcast over, under both
    // disciplines and every port model, from root 0 and a nonzero root.
    constexpr packet_t P = 3;
    for (const std::uint32_t threads : {1u, 4u}) {
        for (hc::dim_t n = 3; n <= 5; ++n) {
            for (const hc::node_t root :
                 {hc::node_t{0}, (hc::node_t{1} << n) - 3}) {
                const trees::SpanningTree family[] = {
                    trees::build_sbt(n, root), trees::build_bst(n, root),
                    trees::build_tcbt(n, root),
                    trees::build_hamiltonian_path(
                        n, root, trees::HpVariant::source_at_end)};
                for (std::size_t f = 0; f < std::size(family); ++f) {
                    for (const BroadcastDiscipline discipline :
                         {BroadcastDiscipline::port_oriented,
                          BroadcastDiscipline::paced}) {
                        for (const PortModel model :
                             {PortModel::one_port_half_duplex,
                              PortModel::one_port_full_duplex,
                              PortModel::all_port}) {
                            SCOPED_TRACE(testing::Message()
                                         << "tree " << f << " n=" << n
                                         << " root=" << root << ' '
                                         << routing::to_string(discipline)
                                         << ' ' << sim::to_string(model)
                                         << " threads=" << threads);
                            const sim::Schedule schedule =
                                routing::make_tree_broadcast(
                                    family[f], discipline, P, model);
                            const auto [r, makespan] =
                                play_move(schedule, threads, model);
                            EXPECT_TRUE(r.verified);
                            EXPECT_EQ(r.stats.cycles, makespan);
                            EXPECT_EQ(r.stats.blocks_delivered,
                                      schedule.sends.size());
                        }
                    }
                }
            }
        }
    }
}

TEST(RtRuntime, ScatterSbtAndBstDeliverEveryDestination) {
    for (const ScatterPolicy policy :
         {ScatterPolicy::descending, ScatterPolicy::cyclic}) {
        const auto tree = policy == ScatterPolicy::cyclic
                              ? trees::build_bst(4, 0)
                              : trees::build_sbt(4, 0);
        const auto [r, makespan] = play_move(
            routing::make_tree_scatter(tree, policy, 2,
                                       PortModel::one_port_full_duplex),
            2);
        EXPECT_TRUE(r.verified);
        EXPECT_EQ(r.stats.cycles, makespan);
    }
}

TEST(RtRuntime, AllPortScatterRequiresAllPortModel) {
    const auto tree = trees::build_sbt(3, 0);
    EXPECT_THROW((void)routing::make_tree_scatter(
                     tree, ScatterPolicy::per_port, 1,
                     PortModel::one_port_full_duplex),
                 check_error);
    const auto [r, makespan] = play_move(
        routing::make_tree_scatter(tree, ScatterPolicy::per_port, 2,
                                   PortModel::all_port),
        2, PortModel::all_port);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.stats.cycles, makespan);
}

TEST(RtRuntime, GatherCollectsEveryBlockAtRoot) {
    const auto [r, makespan] = play_move(
        routing::make_tree_gather(trees::build_bst(4, 0),
                                  ScatterPolicy::cyclic, 2,
                                  PortModel::one_port_full_duplex),
        3);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.stats.cycles, makespan);
}

TEST(RtRuntime, AllgatherAndAlltoallVerify) {
    const auto [ag, ag_makespan] =
        play_move(routing::make_allgather_schedule(3), 2);
    EXPECT_TRUE(ag.verified);
    EXPECT_EQ(ag.stats.cycles, ag_makespan);
    EXPECT_EQ(ag.stats.cycles, (1u << 3) - 1); // N - 1, the lower bound

    const auto [a2a, a2a_makespan] =
        play_move(routing::make_alltoall_schedule(3, 1), 2);
    EXPECT_TRUE(a2a.verified);
    EXPECT_EQ(a2a.stats.cycles, a2a_makespan);
}

TEST(RtRuntime, ReduceSumsEveryContributionExactly) {
    // The time-reversed port-oriented broadcast, proven as the forward
    // broadcast (every constraint the executor checks is symmetric under
    // reversal).
    const sim::Schedule forward = routing::make_tree_broadcast(
        trees::build_sbt(4, 2), BroadcastDiscipline::port_oriented, 3,
        PortModel::one_port_full_duplex);
    const sim::Schedule reduce =
        routing::reverse_broadcast_for_reduce(forward, 2);
    for (const std::uint32_t threads : {1u, 3u}) {
        const auto [r, makespan] =
            play_once(reduce, forward, DataMode::combine,
                      PortModel::one_port_full_duplex, threads);
        EXPECT_TRUE(r.verified) << "threads=" << threads;
        // Reversal preserves the forward port-oriented makespan n * P.
        EXPECT_EQ(r.stats.cycles, makespan);
        EXPECT_EQ(r.stats.cycles, 4u * 3u);
    }
}

TEST(RtRuntime, NonRootSourceBroadcast) {
    const auto [r, makespan] = play_move(
        routing::make_tree_broadcast(trees::build_sbt(5, 13),
                                     BroadcastDiscipline::port_oriented, 2,
                                     PortModel::one_port_full_duplex),
        4);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.stats.cycles, makespan);
}

TEST(RtRuntime, PlayerIsReusableAcrossRuns) {
    const sim::Schedule schedule = routing::make_msbt_broadcast(
        3, 0, 6, PortModel::one_port_full_duplex);
    const Plan plan = compile_plan(schedule, DataMode::move, 16, 2);
    AsyncPlayer player(plan);
    const PlayStats first = player.play();
    const PlayStats second = player.play();
    EXPECT_TRUE(first.clean());
    EXPECT_TRUE(second.clean());
    EXPECT_EQ(first.blocks_delivered, second.blocks_delivered);
    EXPECT_EQ(first.cycles, second.cycles);
}

TEST(RtRuntime, CleanRunReportsZeroFaultsInEveryCounter) {
    sim::Schedule s;
    s.n = 1;
    s.packet_count = 2;
    s.initial_holder = {0, 0};
    s.sends = {{0, 0, 1, 0}};
    const Plan plan = compile_plan(s, DataMode::move, 8, 1);
    AsyncPlayer player(plan);
    const PlayStats stats = player.play();
    EXPECT_EQ(stats.checksum_failures, 0u);
    EXPECT_EQ(stats.channel_faults, 0u);
    EXPECT_EQ(stats.blocks_delivered, 1u);
    EXPECT_EQ(stats.blocks_sent, 1u);
    EXPECT_TRUE(stats.clean());
    // The delivered block at node 1 carries packet 0's canonical data.
    const auto delivered = player.block(1, 0);
    ASSERT_EQ(delivered.size(), 8u);
    EXPECT_EQ(block_checksum(delivered), canonical_checksum(0, 8));
}

TEST(RtPool, RunsJobsOnResidentThreads) {
    WorkerPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<std::uint32_t> mask{0};
    pool.run(4, [&](std::uint32_t w) {
        mask.fetch_or(std::uint32_t{1} << w);
    });
    EXPECT_EQ(mask.load(), 0b1111u);
    // A narrower run only activates the first `workers` threads.
    mask.store(0);
    pool.run(2, [&](std::uint32_t w) {
        mask.fetch_or(std::uint32_t{1} << w);
    });
    EXPECT_EQ(mask.load(), 0b11u);
    EXPECT_EQ(pool.jobs_run(), 2u);
}

TEST(RtPool, PlayOnPoolMatchesSpawnedThreads) {
    // A combine-mode reduce with 8 KiB blocks is stealing-eligible, so a
    // play given the pool is dispatched onto it as one job, and a play
    // without one spawns its own threads.
    const sim::Schedule schedule = routing::reverse_broadcast_for_reduce(
        routing::make_tree_broadcast(trees::build_sbt(4, 0),
                                     BroadcastDiscipline::port_oriented, 3,
                                     PortModel::one_port_full_duplex),
        0);
    const Plan plan = compile_plan(schedule, DataMode::combine, 1024, 2);
    WorkerPool pool(2);
    AsyncPlayer player(plan);
    const PlayStats pooled = player.play(&pool);
    EXPECT_TRUE(check_combine_run(plan, schedule, 0, {}, player));
    const PlayStats spawned = player.play();
    EXPECT_TRUE(check_combine_run(plan, schedule, 0, {}, player));
    EXPECT_TRUE(pooled.clean());
    EXPECT_TRUE(spawned.clean());
    EXPECT_EQ(pooled.mode, ExecMode::stealing);
    EXPECT_EQ(spawned.mode, ExecMode::stealing);
    EXPECT_EQ(pooled.blocks_delivered, spawned.blocks_delivered);
    EXPECT_EQ(pooled.cycles, spawned.cycles);
    EXPECT_EQ(pool.jobs_run(), 1u);
}

} // namespace
} // namespace hcube::rt
