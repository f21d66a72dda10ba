// Tests of the dependency-driven AsyncPlayer, the runtime's one
// in-process engine: for every schedule family the repo can export, at
// every cube size n = 3..8, a run must finish clean (zero channel faults,
// zero checksum failures, one delivery per scheduled send) and leave the
// final memory the runtime's verification rule expects (rt/expected.hpp):
// every move slot holds its packet's arena block, and a combine run holds
// the image of the schedule evaluated cycle by cycle, so a stealing run
// that let an accumulation overtake a same-cycle send fails the rule.
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
#include "rt/threads.hpp"
#include "routing/schedule_export.hpp"
#include "sim/cycle.hpp"
#include "trees/bst.hpp"
#include "trees/sbt.hpp"
#include "trees/tcbt.hpp"

#include <gtest/gtest.h>

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

/// Plays `plan` on the AsyncPlayer (with an inert fault hook — the
/// injector of an empty FaultPlan, which makes a move plan deliver
/// copy-through — when `hooked`) and asserts clean stats, one delivery
/// per scheduled send and the `expected` mode; then `accepts` judges the
/// final memory by the rule.
template <class Rule>
void expect_run_verified(const Plan& plan, std::uint64_t sends,
                         ExecMode expected, bool hooked, Rule accepts) {
    ft::FaultInjector hook{ft::FaultPlan{}};
    hook.arm(plan);
    AsyncPlayer player(plan);
    if (hooked) {
        player.set_fault_hook(&hook);
    }
    const PlayStats stats = player.play();
    EXPECT_TRUE(stats.clean());
    EXPECT_EQ(stats.channel_faults, 0u);
    EXPECT_EQ(stats.blocks_delivered, sends);
    EXPECT_EQ(stats.mode, expected);
    EXPECT_TRUE(accepts(player)) << "the rule rejects the final memory";
}

/// A move schedule, proven by the cycle executor under `model`, plays
/// verified: every slot ends holding its packet's arena block.
void expect_move_verified(const Schedule& schedule, PortModel model,
                          std::uint32_t threads, const std::string& label,
                          ExecMode expected = ExecMode::serial,
                          std::size_t block = kBlock, bool hooked = false) {
    SCOPED_TRACE(label + " threads=" + std::to_string(threads) +
                 " block=" + std::to_string(block) +
                 (hooked ? " hooked" : ""));
    const sim::CycleStats sim = sim::execute_schedule(schedule, model);
    const Plan plan = compile_plan(schedule, DataMode::move, block, threads);
    expect_run_verified(plan, schedule.sends.size(), expected, hooked,
                        [&](const AsyncPlayer& player) {
                            return check_move_run(plan, sim, player);
                        });
}

/// A combine schedule reducing into `root` plays verified: the root holds
/// the exact sums, and every slot the schedule's evaluated image.
void expect_combine_verified(const Schedule& schedule, node_t root,
                             std::uint32_t threads, const std::string& label,
                             ExecMode expected = ExecMode::serial,
                             std::size_t block = kBlock) {
    SCOPED_TRACE(label + " threads=" + std::to_string(threads) +
                 " block=" + std::to_string(block));
    const Plan plan =
        compile_plan(schedule, DataMode::combine, block, threads);
    expect_run_verified(plan, schedule.sends.size(), expected, false,
                        [&](const AsyncPlayer& player) {
                            return check_combine_run(plan, schedule, root,
                                                     {}, player)
                                .has_value();
                        });
}

constexpr PortModel kFull = PortModel::one_port_full_duplex;

TEST(RtAsync, SbtPortOrientedBroadcast) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_move_verified(
            routing::make_tree_broadcast(
                trees::build_sbt(n, 0),
                BroadcastDiscipline::port_oriented, 4, kFull),
            kFull, 2, "sbt_bcast n=" + std::to_string(n));
    }
}

TEST(RtAsync, MsbtBroadcast) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        // The MSBT needs P divisible by n (one sub-stream per ERSBT).
        expect_move_verified(
            routing::make_msbt_broadcast(n, 0,
                                         static_cast<packet_t>(n) * 2,
                                         kFull),
            kFull, 2, "msbt_bcast n=" + std::to_string(n));
    }
}

TEST(RtAsync, MsbtBroadcastStretchedUnderHalfDuplex) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_move_verified(
            routing::make_msbt_broadcast(n, 1,
                                         static_cast<packet_t>(n) * 2,
                                         PortModel::one_port_half_duplex),
            PortModel::one_port_half_duplex, 2,
            "msbt_bcast_half n=" + std::to_string(n));
    }
}

TEST(RtAsync, PacedTcbtBroadcastOnAllPorts) {
    // build_tcbt's search takes seconds at n = 8; n <= 6 covers the
    // all-port paced shape.
    for (hc::dim_t n = 3; n <= 6; ++n) {
        expect_move_verified(
            routing::make_tree_broadcast(trees::build_tcbt(n, 0),
                                         BroadcastDiscipline::paced, 5,
                                         PortModel::all_port),
            PortModel::all_port, 2, "tcbt_paced n=" + std::to_string(n));
    }
}

TEST(RtAsync, NonRootSourceBroadcastAndReduce) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        const node_t root = (node_t{1} << n) - 3;
        const Schedule forward = routing::make_tree_broadcast(
            trees::build_sbt(n, root), BroadcastDiscipline::port_oriented,
            2, kFull);
        expect_move_verified(forward, kFull, 4,
                             "sbt_bcast root=" + std::to_string(root));
        expect_combine_verified(
            routing::reverse_broadcast_for_reduce(forward, root), root, 3,
            "reduce root=" + std::to_string(root));
    }
}

TEST(RtAsync, SbtDescendingScatter) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_move_verified(
            routing::make_tree_scatter(trees::build_sbt(n, 0),
                                       ScatterPolicy::descending, 2, kFull),
            kFull, 2, "sbt_scatter n=" + std::to_string(n));
    }
}

TEST(RtAsync, BstCyclicScatter) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_move_verified(
            routing::make_tree_scatter(trees::build_bst(n, 0),
                                       ScatterPolicy::cyclic, 2, kFull),
            kFull, 2, "bst_scatter n=" + std::to_string(n));
    }
}

TEST(RtAsync, AllPortScatter) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_move_verified(
            routing::make_tree_scatter(trees::build_sbt(n, 0),
                                       ScatterPolicy::per_port, 2,
                                       PortModel::all_port),
            PortModel::all_port, 2,
            "per_port_scatter n=" + std::to_string(n));
    }
}

TEST(RtAsync, SbtAndBstGather) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_move_verified(
            routing::make_tree_gather(trees::build_sbt(n, 0),
                                      ScatterPolicy::descending, 2, kFull),
            kFull, 2, "sbt_gather n=" + std::to_string(n));
        expect_move_verified(
            routing::make_tree_gather(trees::build_bst(n, 0),
                                      ScatterPolicy::cyclic, 2, kFull),
            kFull, 2, "bst_gather n=" + std::to_string(n));
    }
}

TEST(RtAsync, ReduceCombinesInChannelSequenceOrder) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        const Schedule forward = routing::make_tree_broadcast(
            trees::build_sbt(n, 0), BroadcastDiscipline::port_oriented, 3,
            kFull);
        expect_combine_verified(
            routing::reverse_broadcast_for_reduce(forward, 0), 0, 2,
            "reduce n=" + std::to_string(n));
    }
}

/// Recursive-doubling allreduce: in cycle d every node exchanges its
/// running partial for packet 0 with its neighbor across dimension d, so
/// every node, node 0 among them, ends holding the full sum. Listing
/// nodes in ascending order makes the higher node of each pair lower its
/// receive before its same-cycle send, so under stealing the run only
/// matches the rule's image (a cycle's sends read before its receives
/// accumulate) if the plan's send-side ordering edge pins the send to the
/// slot's pre-accumulation value. Small blocks run serial;
/// CombineLargeBlocksSteal steals it.
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

TEST(RtAsync, AllreduceSameCycleBidirectionalExchange) {
    for (hc::dim_t n = 1; n <= 8; ++n) {
        const std::uint32_t threads = n >= 2 ? 4u : 2u;
        expect_combine_verified(recursive_doubling_allreduce(n), 0, threads,
                                "allreduce n=" + std::to_string(n));
    }
}

TEST(RtAsync, AllgatherAndAlltoall) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_move_verified(routing::make_allgather_schedule(n), kFull, 2,
                             "allgather n=" + std::to_string(n));
        expect_move_verified(routing::make_alltoall_schedule(n, 1), kFull,
                             2, "alltoall n=" + std::to_string(n));
    }
}

TEST(RtAsync, ZeroCopyRunsSerialAtAnySize) {
    // A zero-copy hop moves no bytes, so no block or plan size pays for
    // stealing: even an n=10 MSBT broadcast of 8 KiB blocks on 4 workers
    // takes the serial walk.
    expect_move_verified(routing::make_msbt_broadcast(10, 0, 20, kFull),
                         kFull, 4, "msbt_bcast n=10", ExecMode::serial,
                         kStealBlock);
}

TEST(RtAsync, CombineLargeBlocksSteal) {
    for (hc::dim_t n = 4; n <= 6; ++n) {
        const Schedule forward = routing::make_tree_broadcast(
            trees::build_sbt(n, 0), BroadcastDiscipline::port_oriented, 6,
            kFull);
        const Schedule reduce =
            routing::reverse_broadcast_for_reduce(forward, 0);
        for (const std::uint32_t threads : {3u, 4u}) {
            expect_combine_verified(reduce, 0, threads,
                                    "reduce n=" + std::to_string(n),
                                    ExecMode::stealing, kStealBlock);
            expect_combine_verified(recursive_doubling_allreduce(n), 0,
                                    threads,
                                    "allreduce n=" + std::to_string(n),
                                    ExecMode::stealing, kStealBlock);
        }
    }
}

TEST(RtAsync, HookedMoveLargeBlocksSteal) {
    for (hc::dim_t n = 4; n <= 6; ++n) {
        const std::string at = " n=" + std::to_string(n);
        for (const std::uint32_t threads : {3u, 4u}) {
            expect_move_verified(
                routing::make_msbt_broadcast(
                    n, 0, static_cast<packet_t>(n) * 2, kFull),
                kFull, threads, "msbt_bcast" + at, ExecMode::stealing,
                kStealBlock, /*hooked=*/true);
            expect_move_verified(
                routing::make_tree_scatter(trees::build_sbt(n, 0),
                                           ScatterPolicy::descending, 2,
                                           kFull),
                kFull, threads, "sbt_scatter" + at, ExecMode::stealing,
                kStealBlock, /*hooked=*/true);
            expect_move_verified(
                routing::make_tree_gather(trees::build_bst(n, 0),
                                          ScatterPolicy::cyclic, 2, kFull),
                kFull, threads, "bst_gather" + at, ExecMode::stealing,
                kStealBlock, /*hooked=*/true);
        }
    }
}

TEST(RtAsync, OddWorkerCountsAndSerialPath) {
    // One worker always takes the serial fast path. Three workers give
    // uneven node ownership (2^5 nodes over 3 workers); the zero-copy run
    // stays serial, and the same schedule delivered copy-through with
    // 8 KiB blocks steals across the uneven split.
    const Schedule schedule = routing::make_tree_scatter(
        trees::build_sbt(5, 0), ScatterPolicy::descending, 2, kFull);
    for (const std::uint32_t threads : {1u, 3u}) {
        expect_move_verified(schedule, kFull, threads, "odd_workers");
    }
    expect_move_verified(schedule, kFull, 3, "odd_workers",
                         ExecMode::stealing, kStealBlock, /*hooked=*/true);
}

TEST(RtAsync, ModeIsAPureFunctionOfTheRun) {
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

TEST(RtAsync, AsyncPlayerIsReusableAcrossRuns) {
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

TEST(RtAsync, OnlyRingWalksRewindTheRings) {
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

TEST(RtAsync, RingsTakeThePlanDepth) {
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
