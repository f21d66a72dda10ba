// End-to-end tests of the threaded runtime: every Communicator collective
// moves real blocks through SPSC channels on worker threads, every
// delivered block is checksum-verified, and the runtime's cycle count must
// equal the CycleExecutor makespan of the same schedule exactly (the
// uniform-packet equivalence the subsystem is built around).
#include "rt/communicator.hpp"

#include "common/check.hpp"
#include "model/broadcast_model.hpp"
#include "rt/async_player.hpp"
#include "rt/checksum.hpp"
#include "rt/plan.hpp"
#include "rt/player.hpp"
#include "rt/pool.hpp"
#include "routing/schedule_export.hpp"
#include "sim/cycle.hpp"
#include "trees/bst.hpp"
#include "trees/sbt.hpp"
#include "trees/tcbt.hpp"

#include <atomic>
#include <gtest/gtest.h>

namespace hcube::rt {
namespace {

using routing::BroadcastDiscipline;
using routing::ScatterPolicy;
using sim::packet_t;
using sim::PortModel;

Params small_params(std::uint32_t threads,
                    PortModel model = PortModel::one_port_full_duplex) {
    Params p;
    p.threads = threads;
    p.block_elems = 32;
    p.model = model;
    return p;
}

TEST(RtRuntime, SbtBroadcastDeliversAndMatchesMakespan) {
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
        Communicator comm(4, small_params(threads));
        const auto tree = trees::build_sbt(4, 0);
        const Result r =
            comm.broadcast(tree, BroadcastDiscipline::port_oriented, 6);
        EXPECT_TRUE(r.verified) << "threads=" << threads;
        EXPECT_EQ(r.rt_cycles, r.sim_makespan);
        EXPECT_EQ(r.rt_cycles, 4u * 6u); // n * P, Table 3
        EXPECT_EQ(r.blocks_delivered, std::uint64_t{15} * 6);
        EXPECT_EQ(r.payload_bytes,
                  r.blocks_delivered * 32 * sizeof(double));
    }
}

TEST(RtRuntime, MsbtBroadcastMatchesTable3Makespan) {
    constexpr hc::dim_t n = 4;
    constexpr packet_t P = 12; // 3 packets per ERSBT stream
    Communicator comm(n, small_params(3));
    const Result r = comm.broadcast_msbt(0, P);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.rt_cycles, r.sim_makespan);
    EXPECT_EQ(r.rt_cycles, P + static_cast<std::uint32_t>(n));
    // ...and agrees with the closed-form model.
    EXPECT_EQ(static_cast<double>(r.rt_cycles),
              model::broadcast_steps(model::Algorithm::msbt,
                                     PortModel::one_port_full_duplex,
                                     P * 32, 32, n));
}

TEST(RtRuntime, MsbtBroadcastRunsStretchedUnderHalfDuplex) {
    constexpr hc::dim_t n = 4;
    constexpr packet_t P = 8;
    Communicator comm(
        n, small_params(2, PortModel::one_port_half_duplex));
    const Result r = comm.broadcast_msbt(1, P);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.rt_cycles, r.sim_makespan);
    EXPECT_EQ(r.rt_cycles, 2 * P + static_cast<std::uint32_t>(n) - 1);
}

TEST(RtRuntime, PacedBroadcastOnTcbtAllPorts) {
    Communicator comm(4, small_params(2, PortModel::all_port));
    const auto tree = trees::build_tcbt(4, 0);
    const Result r = comm.broadcast(tree, BroadcastDiscipline::paced, 5);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.rt_cycles, r.sim_makespan);
}

TEST(RtRuntime, ScatterSbtAndBstDeliverEveryDestination) {
    for (const ScatterPolicy policy :
         {ScatterPolicy::descending, ScatterPolicy::cyclic}) {
        Communicator comm(4, small_params(2));
        const auto tree = policy == ScatterPolicy::cyclic
                              ? trees::build_bst(4, 0)
                              : trees::build_sbt(4, 0);
        const Result r = comm.scatter(tree, policy, 2);
        EXPECT_TRUE(r.verified);
        EXPECT_EQ(r.rt_cycles, r.sim_makespan);
    }
}

TEST(RtRuntime, AllPortScatterRequiresAllPortModel) {
    Communicator full(3, small_params(2));
    const auto tree = trees::build_sbt(3, 0);
    EXPECT_THROW((void)full.scatter(tree, ScatterPolicy::per_port, 1),
                 check_error);
    Communicator all(3, small_params(2, PortModel::all_port));
    const Result r = all.scatter(tree, ScatterPolicy::per_port, 2);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.rt_cycles, r.sim_makespan);
}

TEST(RtRuntime, GatherCollectsEveryBlockAtRoot) {
    Communicator comm(4, small_params(3));
    const auto tree = trees::build_bst(4, 0);
    const Result r = comm.gather(tree, ScatterPolicy::cyclic, 2);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.rt_cycles, r.sim_makespan);
}

TEST(RtRuntime, AllgatherAndAlltoallVerify) {
    Communicator comm(3, small_params(2));
    const Result ag = comm.allgather();
    EXPECT_TRUE(ag.verified);
    EXPECT_EQ(ag.rt_cycles, ag.sim_makespan);
    EXPECT_EQ(ag.rt_cycles, (1u << 3) - 1); // N - 1, the lower bound

    const Result a2a = comm.alltoall(1);
    EXPECT_TRUE(a2a.verified);
    EXPECT_EQ(a2a.rt_cycles, a2a.sim_makespan);
}

TEST(RtRuntime, ReduceSumsEveryContributionExactly) {
    for (const std::uint32_t threads : {1u, 3u}) {
        Communicator comm(4, small_params(threads));
        const auto tree = trees::build_sbt(4, 2);
        const Result r = comm.reduce(tree, 3);
        EXPECT_TRUE(r.verified) << "threads=" << threads;
        // Reversal preserves the forward port-oriented makespan n * P.
        EXPECT_EQ(r.rt_cycles, r.sim_makespan);
        EXPECT_EQ(r.rt_cycles, 4u * 3u);
    }
}

TEST(RtRuntime, NonRootSourceBroadcast) {
    Communicator comm(5, small_params(4));
    const auto tree = trees::build_sbt(5, 13);
    const Result r =
        comm.broadcast(tree, BroadcastDiscipline::port_oriented, 2);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.rt_cycles, r.sim_makespan);
}

TEST(RtRuntime, PlayerIsReusableAcrossRuns) {
    const sim::Schedule schedule = routing::make_msbt_broadcast(
        3, 0, 6, PortModel::one_port_full_duplex);
    const Plan plan = compile_plan(schedule, DataMode::move, 16, 2);
    Player player(plan);
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
    Player player(plan);
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
    // A combine-mode reduce with 8 KiB blocks is stealing-eligible, so the
    // async play is dispatched onto the pool as well: one job per engine.
    const sim::Schedule schedule = routing::reverse_broadcast_for_reduce(
        routing::make_tree_broadcast(trees::build_sbt(4, 0),
                                     BroadcastDiscipline::port_oriented, 3,
                                     PortModel::one_port_full_duplex),
        0);
    const Plan plan = compile_plan(schedule, DataMode::combine, 1024, 2);
    WorkerPool pool(2);
    Player player(plan);
    const PlayStats pooled = player.play(&pool);
    const PlayStats spawned = player.play();
    EXPECT_TRUE(pooled.clean());
    EXPECT_EQ(pooled.blocks_delivered, spawned.blocks_delivered);
    EXPECT_EQ(pooled.cycles, spawned.cycles);
    AsyncPlayer dut(plan);
    const PlayStats async_pooled = dut.play(&pool);
    EXPECT_TRUE(async_pooled.clean());
    EXPECT_EQ(async_pooled.mode, ExecMode::stealing);
    EXPECT_EQ(async_pooled.blocks_delivered, pooled.blocks_delivered);
    EXPECT_EQ(pool.jobs_run(), 2u);
}

TEST(RtVerify, CommunicatorReportsPoolReuse) {
    for (const std::uint32_t threads : {1u, 3u}) {
        Communicator comm(3, small_params(threads));
        const auto tree = trees::build_sbt(3, 0);
        const Result r =
            comm.broadcast(tree, BroadcastDiscipline::port_oriented, 2);
        EXPECT_TRUE(r.verified);
        EXPECT_TRUE(r.pool_reused) << "threads=" << threads;
        EXPECT_TRUE(r.oracle_checked); // Verify::always is the default
    }
}

TEST(RtVerify, FirstPolicyChecksEachScheduleOnce) {
    Params p = small_params(2);
    p.verify = Verify::first;
    Communicator comm(3, p);
    const auto tree = trees::build_sbt(3, 0);
    const Result first =
        comm.broadcast(tree, BroadcastDiscipline::port_oriented, 2);
    EXPECT_TRUE(first.verified);
    EXPECT_TRUE(first.oracle_checked);
    const Result repeat =
        comm.broadcast(tree, BroadcastDiscipline::port_oriented, 2);
    EXPECT_TRUE(repeat.verified);
    EXPECT_FALSE(repeat.oracle_checked);
    // A different schedule (other packet count) gets its own first check.
    const Result other =
        comm.broadcast(tree, BroadcastDiscipline::port_oriented, 3);
    EXPECT_TRUE(other.verified);
    EXPECT_TRUE(other.oracle_checked);
}

TEST(RtVerify, NeverPolicySkipsOracleButStillVerifies) {
    Params p = small_params(2);
    p.verify = Verify::never;
    Communicator comm(3, p);
    const auto tree = trees::build_sbt(3, 0);
    const Result move =
        comm.broadcast(tree, BroadcastDiscipline::port_oriented, 2);
    EXPECT_TRUE(move.verified);
    EXPECT_FALSE(move.oracle_checked);
    const Result combine = comm.reduce(tree, 2);
    EXPECT_TRUE(combine.verified);
    EXPECT_FALSE(combine.oracle_checked);
}

} // namespace
} // namespace hcube::rt
