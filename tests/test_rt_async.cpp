// Differential tests of the dependency-driven AsyncPlayer against the
// two-barrier-per-cycle Player: for every schedule family the repo can
// export, at every cube size n = 3..8, both engines must finish clean
// (zero channel faults, zero checksum failures, one delivery per
// scheduled send) and leave byte-identical final memory — including
// combine-mode reduction, where the plan's slot-ordering edges pin the
// floating-point accumulation order to the barrier oracle's.
//
// The AsyncPlayer steals only on copy-through runs with blocks of at
// least 8 KiB (async_player.hpp); every other case below pins the serial
// walk, and the copy-through cases with 1024-double blocks pin stealing.
// These suites are named Rt* so the tsan CI job (ctest -R '^Rt') runs
// them under ThreadSanitizer, which is where the work-stealing engine's
// synchronization actually gets exercised.
#include "rt/async_player.hpp"

#include "ft/injector.hpp"
#include "rt/expected.hpp"
#include "rt/plan.hpp"
#include "rt/player.hpp"
#include "rt/threads.hpp"
#include "routing/schedule_export.hpp"
#include "trees/bst.hpp"
#include "trees/sbt.hpp"
#include "trees/tcbt.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
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
/// The smallest block the AsyncPlayer steals for: 1024 doubles = 8 KiB.
constexpr std::size_t kStealBlock = 1024;

/// Runs `schedule` through both engines and asserts clean stats, a
/// byte-identical final memory image, slot by slot, and that the async
/// engine ran in `expected` mode. `hooked` installs an inert fault hook
/// (the injector of an empty FaultPlan) on both engines, which makes a
/// move plan deliver copy-through.
void expect_engines_agree(const Schedule& schedule, DataMode mode,
                          std::uint32_t threads, const std::string& label,
                          ExecMode expected = ExecMode::serial,
                          std::size_t block = kBlock, bool hooked = false) {
    SCOPED_TRACE(label + " threads=" + std::to_string(threads) +
                 " block=" + std::to_string(block) +
                 (hooked ? " hooked" : ""));
    const Plan plan = compile_plan(schedule, mode, block, threads);
    ft::FaultInjector barrier_hook{ft::FaultPlan{}};
    ft::FaultInjector async_hook{ft::FaultPlan{}};
    barrier_hook.arm(plan);
    async_hook.arm(plan);

    Player barrier_player(plan);
    if (hooked) {
        barrier_player.set_fault_hook(&barrier_hook);
    }
    const PlayStats ref = barrier_player.play();
    EXPECT_TRUE(ref.clean());
    EXPECT_EQ(ref.channel_faults, 0u);
    EXPECT_EQ(ref.blocks_delivered, schedule.sends.size());

    AsyncPlayer async_player(plan);
    if (hooked) {
        async_player.set_fault_hook(&async_hook);
    }
    const PlayStats dut = async_player.play();
    EXPECT_TRUE(dut.clean());
    EXPECT_EQ(dut.channel_faults, 0u);
    EXPECT_EQ(dut.blocks_delivered, schedule.sends.size());
    EXPECT_EQ(dut.mode, expected);

    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        const auto a =
            barrier_player.block(plan.slot_node[s], plan.slot_packet[s]);
        const auto b =
            async_player.block(plan.slot_node[s], plan.slot_packet[s]);
        ASSERT_EQ(a.size(), b.size());
        ASSERT_EQ(std::memcmp(a.data(), b.data(),
                              a.size() * sizeof(double)),
                  0)
            << "final memory diverges at slot " << s << " (node "
            << plan.slot_node[s] << ", packet " << plan.slot_packet[s]
            << ")";
    }
}

TEST(RtAsyncVsBarrier, SbtPortOrientedBroadcast) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_engines_agree(
            routing::make_tree_broadcast(
                trees::build_sbt(n, 0),
                BroadcastDiscipline::port_oriented, 4,
                PortModel::one_port_full_duplex),
            DataMode::move, 2, "sbt_bcast n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, MsbtBroadcast) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        // The MSBT needs P divisible by n (one sub-stream per ERSBT).
        expect_engines_agree(
            routing::make_msbt_broadcast(n, 0,
                                         static_cast<packet_t>(n) * 2,
                                         PortModel::one_port_full_duplex),
            DataMode::move, 2, "msbt_bcast n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, MsbtBroadcastStretchedUnderHalfDuplex) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_engines_agree(
            routing::make_msbt_broadcast(n, 1,
                                         static_cast<packet_t>(n) * 2,
                                         PortModel::one_port_half_duplex),
            DataMode::move, 2, "msbt_bcast_half n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, PacedTcbtBroadcastOnAllPorts) {
    // build_tcbt's search takes seconds at n = 8; n <= 6 covers the
    // all-port paced shape.
    for (hc::dim_t n = 3; n <= 6; ++n) {
        expect_engines_agree(
            routing::make_tree_broadcast(trees::build_tcbt(n, 0),
                                         BroadcastDiscipline::paced, 5,
                                         PortModel::all_port),
            DataMode::move, 2, "tcbt_paced n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, NonRootSourceBroadcastAndReduce) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        const node_t root = (node_t{1} << n) - 3;
        const Schedule forward = routing::make_tree_broadcast(
            trees::build_sbt(n, root), BroadcastDiscipline::port_oriented,
            2, PortModel::one_port_full_duplex);
        expect_engines_agree(forward, DataMode::move, 4,
                             "sbt_bcast root=" + std::to_string(root));
        expect_engines_agree(
            routing::reverse_broadcast_for_reduce(forward, root),
            DataMode::combine, 3, "reduce root=" + std::to_string(root));
    }
}

TEST(RtAsyncVsBarrier, SbtDescendingScatter) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_engines_agree(
            routing::make_tree_scatter(trees::build_sbt(n, 0),
                                       ScatterPolicy::descending, 2,
                                       PortModel::one_port_full_duplex),
            DataMode::move, 2, "sbt_scatter n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, BstCyclicScatter) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_engines_agree(
            routing::make_tree_scatter(trees::build_bst(n, 0),
                                       ScatterPolicy::cyclic, 2,
                                       PortModel::one_port_full_duplex),
            DataMode::move, 2, "bst_scatter n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, AllPortScatter) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_engines_agree(
            routing::make_tree_scatter(trees::build_sbt(n, 0),
                                       ScatterPolicy::per_port, 2,
                                       PortModel::all_port),
            DataMode::move, 2, "per_port_scatter n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, SbtAndBstGather) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_engines_agree(
            routing::make_tree_gather(trees::build_sbt(n, 0),
                                      ScatterPolicy::descending, 2,
                                      PortModel::one_port_full_duplex),
            DataMode::move, 2, "sbt_gather n=" + std::to_string(n));
        expect_engines_agree(
            routing::make_tree_gather(trees::build_bst(n, 0),
                                      ScatterPolicy::cyclic, 2,
                                      PortModel::one_port_full_duplex),
            DataMode::move, 2, "bst_gather n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, ReduceCombinesInChannelSequenceOrder) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        const Schedule forward = routing::make_tree_broadcast(
            trees::build_sbt(n, 0), BroadcastDiscipline::port_oriented, 3,
            PortModel::one_port_full_duplex);
        expect_engines_agree(
            routing::reverse_broadcast_for_reduce(forward, 0),
            DataMode::combine, 2, "reduce n=" + std::to_string(n));
    }
}

/// Recursive-doubling allreduce: in cycle d every node exchanges its
/// running partial for packet 0 with its neighbor across dimension d.
/// Listing nodes in ascending order makes the higher node of each pair
/// lower its receive before its same-cycle send, so under stealing the
/// engines only agree if the plan's send-side ordering edge pins the send
/// to the slot's pre-accumulation value (the barrier oracle's sends-first
/// rule). Small blocks run serial; CombineLargeBlocksSteal steals it.
Schedule recursive_doubling_allreduce(hc::dim_t n) {
    Schedule s;
    s.n = n;
    s.packet_count = 1;
    s.initial_holder = {0};
    const hc::node_t count = hc::node_t{1} << n;
    for (std::uint32_t d = 0; d < static_cast<std::uint32_t>(n); ++d) {
        for (hc::node_t v = 0; v < count; ++v) {
            s.sends.push_back(
                {d, v, static_cast<hc::node_t>(v ^ (hc::node_t{1} << d)),
                 0});
        }
    }
    return s;
}

TEST(RtAsyncVsBarrier, AllreduceSameCycleBidirectionalExchange) {
    for (hc::dim_t n = 1; n <= 8; ++n) {
        const std::uint32_t threads = n >= 2 ? 4u : 2u;
        expect_engines_agree(recursive_doubling_allreduce(n),
                             DataMode::combine, threads,
                             "allreduce n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, AllgatherAndAlltoall) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_engines_agree(routing::make_allgather_schedule(n),
                             DataMode::move, 2,
                             "allgather n=" + std::to_string(n));
        expect_engines_agree(routing::make_alltoall_schedule(n, 1),
                             DataMode::move, 2,
                             "alltoall n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, ZeroCopyRunsSerialAtAnySize) {
    // A zero-copy hop moves no bytes, so no block or plan size pays for
    // stealing: even an n=10 MSBT broadcast of 8 KiB blocks on 4 workers
    // takes the serial walk.
    expect_engines_agree(
        routing::make_msbt_broadcast(10, 0, 20,
                                     PortModel::one_port_full_duplex),
        DataMode::move, 4, "msbt_bcast n=10", ExecMode::serial, kStealBlock);
}

TEST(RtAsyncVsBarrier, CombineLargeBlocksSteal) {
    for (hc::dim_t n = 4; n <= 6; ++n) {
        const Schedule forward = routing::make_tree_broadcast(
            trees::build_sbt(n, 0), BroadcastDiscipline::port_oriented, 6,
            PortModel::one_port_full_duplex);
        const Schedule reduce =
            routing::reverse_broadcast_for_reduce(forward, 0);
        for (const std::uint32_t threads : {3u, 4u}) {
            expect_engines_agree(reduce, DataMode::combine, threads,
                                 "reduce n=" + std::to_string(n),
                                 ExecMode::stealing, kStealBlock);
            expect_engines_agree(recursive_doubling_allreduce(n),
                                 DataMode::combine, threads,
                                 "allreduce n=" + std::to_string(n),
                                 ExecMode::stealing, kStealBlock);
        }
    }
}

TEST(RtAsyncVsBarrier, HookedMoveLargeBlocksSteal) {
    for (hc::dim_t n = 4; n <= 6; ++n) {
        const std::string at = " n=" + std::to_string(n);
        for (const std::uint32_t threads : {3u, 4u}) {
            expect_engines_agree(
                routing::make_msbt_broadcast(
                    n, 0, static_cast<packet_t>(n) * 2,
                    PortModel::one_port_full_duplex),
                DataMode::move, threads, "msbt_bcast" + at,
                ExecMode::stealing, kStealBlock, /*hooked=*/true);
            expect_engines_agree(
                routing::make_tree_scatter(trees::build_sbt(n, 0),
                                           ScatterPolicy::descending, 2,
                                           PortModel::one_port_full_duplex),
                DataMode::move, threads, "sbt_scatter" + at,
                ExecMode::stealing, kStealBlock, /*hooked=*/true);
            expect_engines_agree(
                routing::make_tree_gather(trees::build_bst(n, 0),
                                          ScatterPolicy::cyclic, 2,
                                          PortModel::one_port_full_duplex),
                DataMode::move, threads, "bst_gather" + at,
                ExecMode::stealing, kStealBlock, /*hooked=*/true);
        }
    }
}

TEST(RtAsyncVsBarrier, OddWorkerCountsAndSerialPath) {
    // One worker always takes the serial fast path. Three workers give
    // uneven node ownership (2^5 nodes over 3 workers); the zero-copy run
    // stays serial, and the same schedule delivered copy-through with
    // 8 KiB blocks steals across the uneven split.
    const Schedule schedule = routing::make_tree_scatter(
        trees::build_sbt(5, 0), ScatterPolicy::descending, 2,
        PortModel::one_port_full_duplex);
    for (const std::uint32_t threads : {1u, 3u}) {
        expect_engines_agree(schedule, DataMode::move, threads,
                             "odd_workers");
    }
    expect_engines_agree(schedule, DataMode::move, 3, "odd_workers",
                         ExecMode::stealing, kStealBlock, /*hooked=*/true);
}

TEST(RtAsyncVsBarrier, ModeIsAPureFunctionOfTheRun) {
    // Nothing carries over between plays: each run's mode follows from
    // the plan and the run's configuration alone, run after run.
    const Plan plan = compile_plan(
        routing::make_msbt_broadcast(5, 0, 10,
                                     PortModel::one_port_full_duplex),
        DataMode::move, kStealBlock, 4);
    AsyncPlayer player(plan);
    ft::FaultInjector hook{ft::FaultPlan{}};
    hook.arm(plan);
    for (int round = 0; round < 2; ++round) {
        for (int run = 0; run < 3; ++run) {
            EXPECT_EQ(player.play().mode, ExecMode::serial); // zero-copy
        }
        player.set_fault_hook(&hook);
        for (int run = 0; run < 3; ++run) {
            hook.rewind();
            const PlayStats stats = player.play();
            EXPECT_TRUE(stats.clean());
            EXPECT_EQ(stats.mode, ExecMode::stealing); // copy-through
        }
        player.set_fault_hook(nullptr);
    }
    // Detect-only and trace-only runs stay zero-copy, hence serial.
    player.set_detection(
        {.arrival_timeout_us = 500000, .abort_on_fault = true});
    EXPECT_EQ(player.play().mode, ExecMode::serial);
    player.set_detection({});
    TraceRecorder trace(plan.workers);
    player.set_trace(&trace);
    EXPECT_EQ(player.play().mode, ExecMode::serial);

    // Copy-through runs below every other threshold stay serial: blocks
    // one double short of 8 KiB, a single worker, fewer than 32 actions
    // per worker.
    const Schedule reduce = routing::reverse_broadcast_for_reduce(
        routing::make_tree_broadcast(trees::build_sbt(5, 0),
                                     BroadcastDiscipline::port_oriented, 6,
                                     PortModel::one_port_full_duplex),
        0);
    const auto mode_of = [](const Schedule& schedule, std::size_t block,
                            std::uint32_t threads) {
        const Plan p = compile_plan(schedule, DataMode::combine, block,
                                    threads);
        AsyncPlayer dut(p);
        return dut.play().mode;
    };
    EXPECT_EQ(mode_of(reduce, kStealBlock, 4), ExecMode::stealing);
    EXPECT_EQ(mode_of(reduce, kStealBlock - 1, 4), ExecMode::serial);
    EXPECT_EQ(mode_of(reduce, kStealBlock, 1), ExecMode::serial);
    const Schedule tiny = routing::reverse_broadcast_for_reduce(
        routing::make_tree_broadcast(trees::build_sbt(3, 0),
                                     BroadcastDiscipline::port_oriented, 1,
                                     PortModel::one_port_full_duplex),
        0);
    EXPECT_EQ(mode_of(tiny, kStealBlock, 4), ExecMode::serial);
}

TEST(RtAsyncVsBarrier, AsyncPlayerIsReusableAcrossRuns) {
    const Schedule schedule = routing::make_msbt_broadcast(
        4, 0, 8, PortModel::one_port_full_duplex);
    const Plan plan = compile_plan(schedule, DataMode::move, kBlock, 2);
    AsyncPlayer player(plan);
    const PlayStats first = player.play();
    const PlayStats second = player.play();
    EXPECT_TRUE(first.clean());
    EXPECT_TRUE(second.clean());
    EXPECT_EQ(first.blocks_delivered, second.blocks_delivered);
    EXPECT_EQ(second.blocks_delivered, schedule.sends.size());
}

/// A pass-through fault hook that records every push's sequence stamp,
/// per channel.
class StampRecorder final : public ft::ChannelFaultHook {
public:
    explicit StampRecorder(std::uint32_t channels) : stamps(channels) {}
    ft::PushVerdict on_push(std::uint32_t channel, std::uint32_t seq,
                            std::span<double>) noexcept override {
        stamps[channel].push_back(seq);
        return ft::PushVerdict::deliver;
    }
    std::vector<std::vector<std::uint32_t>> stamps;
};

TEST(RtAsyncVsBarrier, OnlyRingWalksRewindTheRings) {
    // The ring-free walk skips the rewind; every ring walk (traced,
    // hooked or detecting) still restarts each channel's sequence stamps
    // at 0. Every ring walk's receives check each stamp against the
    // plan's (a stale stamp counts a channel fault), and a hooked walk's
    // pushes are recorded too.
    const Schedule schedule = routing::make_msbt_broadcast(
        4, 0, 8, PortModel::one_port_full_duplex);
    const sim::CycleStats sim =
        sim::execute_schedule(schedule, PortModel::one_port_full_duplex);
    const Plan plan = compile_plan(schedule, DataMode::move, kBlock, 2);
    AsyncPlayer player(plan);
    TraceRecorder trace(plan.workers);
    const auto expect_verified = [&](const char* run) {
        SCOPED_TRACE(run);
        const PlayStats stats = player.play();
        EXPECT_TRUE(stats.clean());
        EXPECT_EQ(stats.mode, ExecMode::serial);
        EXPECT_EQ(stats.blocks_delivered, schedule.sends.size());
        EXPECT_TRUE(check_move_run(plan, sim, player));
    };
    const auto expect_hooked_stamps_from_zero = [&](const char* run) {
        StampRecorder hook(plan.channel_count);
        player.set_fault_hook(&hook);
        expect_verified(run);
        player.set_fault_hook(nullptr);
        std::uint64_t pushes = 0;
        for (const std::vector<std::uint32_t>& stamps : hook.stamps) {
            for (std::uint32_t k = 0; k < stamps.size(); ++k) {
                EXPECT_EQ(stamps[k], k) << run;
            }
            pushes += stamps.size();
        }
        EXPECT_EQ(pushes, schedule.sends.size()) << run;
    };

    const auto expect_traced = [&](const char* run) {
        trace.reset();
        player.set_trace(&trace);
        expect_verified(run);
        player.set_trace(nullptr);
        EXPECT_EQ(trace.event_count(), 2 * schedule.sends.size()) << run;
    };

    expect_verified("ring-free");
    expect_traced("traced");
    expect_hooked_stamps_from_zero("hooked after traced");
    expect_verified("ring-free again");
    // Every kind of ring walk follows another ring walk once.
    player.set_detection(
        {.arrival_timeout_us = 500000, .abort_on_fault = true});
    expect_verified("detecting after ring-free");
    player.set_detection({});
    expect_traced("traced after detecting");
    expect_hooked_stamps_from_zero("hooked after traced again");
}

TEST(RtAsyncVsBarrier, RingsTakeThePlanDepth) {
    // The player's rings are as deep as the plan's capacity edges assume:
    // a shallower plan plays clean in smaller rings.
    const Schedule schedule = routing::make_msbt_broadcast(
        3, 0, 6, PortModel::one_port_full_duplex);
    const Plan shallow =
        compile_plan(schedule, DataMode::move, kBlock, 2, /*depth=*/2);
    const Plan deep =
        compile_plan(schedule, DataMode::move, kBlock, 2, /*depth=*/8);
    AsyncPlayer small(shallow);
    AsyncPlayer large(deep);
    EXPECT_TRUE(small.play().clean());
    EXPECT_TRUE(large.play().clean());
    EXPECT_LT(small.resident_bytes(), large.resident_bytes());
}

TEST(RtThreads, AutoPickDefaultsToTwoWhenHardwareUnknown) {
    EXPECT_EQ(pick_worker_threads(3, 0, 0), 2u);
    EXPECT_EQ(pick_worker_threads(3, 0, 1), 2u);
}

TEST(RtThreads, AutoPickUsesHardwareClampedToCubeSize) {
    EXPECT_EQ(pick_worker_threads(3, 0, 16), 8u);  // clamp to 2^3
    EXPECT_EQ(pick_worker_threads(5, 0, 16), 16u); // fits under 2^5
}

TEST(RtThreads, ExplicitRequestIsHonoredUpToCubeSize) {
    EXPECT_EQ(pick_worker_threads(4, 7, 64), 7u);
    EXPECT_EQ(pick_worker_threads(2, 9, 64), 4u); // clamp to 2^2
    EXPECT_EQ(pick_worker_threads(4, 1, 64), 1u);
}

} // namespace
} // namespace hcube::rt
