// The inject → detect legs of hcube::ft: a FaultPlan armed on a compiled
// plan's channels must surface through the AsyncPlayer's serial and
// work-stealing walks exactly as designed — kills and drops as arrival
// timeouts (or stream mismatches, where the ring head may already show a
// later block), corruption as a checksum mismatch, delays absorbed
// silently — and the first detected fault must name the injected directed
// link in its structured FaultReport. On the in-process ring bank no
// receive ever waits for the arrival bound: a missing block is reported as
// soon as its pop runs.
#include "ft/fault_model.hpp"
#include "ft/injector.hpp"

#include "routing/schedule_export.hpp"
#include "rt/async_player.hpp"
#include "rt/plan.hpp"
#include "trees/sbt.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <map>
#include <set>
#include <utility>

namespace hcube::ft {
namespace {

using routing::BroadcastDiscipline;
using sim::packet_t;
using sim::PortModel;
using sim::Schedule;

Schedule sbt_broadcast(dim_t n, node_t root, packet_t packets) {
    return routing::make_tree_broadcast(
        trees::build_sbt(n, root), BroadcastDiscipline::paced, packets,
        PortModel::one_port_full_duplex);
}

/// Pushes the schedule makes per directed link, to aim mid-stream faults.
std::map<std::pair<node_t, node_t>, std::uint32_t>
pushes_per_link(const Schedule& s) {
    std::map<std::pair<node_t, node_t>, std::uint32_t> counts;
    for (const sim::ScheduledSend& send : s.sends) {
        ++counts[{send.from, send.to}];
    }
    return counts;
}

/// A link the schedule pushes at least two blocks across (so a mid-stream
/// fault is genuinely mid-broadcast), plus its total push count.
DirectedLink busy_link(const Schedule& s, std::uint32_t& count) {
    for (const auto& [link, pushes] : pushes_per_link(s)) {
        if (pushes >= 2) {
            count = pushes;
            return {link.first, link.second};
        }
    }
    ADD_FAILURE() << "no link carries two blocks";
    return {};
}

TEST(FtFaultPlan, FluentBuildersFillSpecs) {
    FaultPlan plan;
    plan.kill_link(0, 1, 3)
        .drop(1, 3, 2, 4)
        .corrupt(3, 7, 1, 2, 9)
        .delay(7, 5, 0, 250, 6);
    ASSERT_EQ(plan.specs().size(), 4u);

    const FaultSpec& kill = plan.specs()[0];
    EXPECT_EQ(kill.cls, InjectClass::kill_link);
    EXPECT_EQ(kill.link, (DirectedLink{0, 1}));
    EXPECT_EQ(kill.at_push, 3u);
    EXPECT_EQ(kill.pushes, ~std::uint32_t{0});

    const FaultSpec& drop = plan.specs()[1];
    EXPECT_EQ(drop.cls, InjectClass::transient_drop);
    EXPECT_EQ(drop.at_push, 2u);
    EXPECT_EQ(drop.pushes, 4u);

    const FaultSpec& corrupt = plan.specs()[2];
    EXPECT_EQ(corrupt.cls, InjectClass::corrupt_payload);
    EXPECT_EQ(corrupt.param, 9u);

    const FaultSpec& delay = plan.specs()[3];
    EXPECT_EQ(delay.cls, InjectClass::delay_delivery);
    EXPECT_EQ(delay.param, 250u);
    EXPECT_EQ(delay.pushes, 6u);
}

TEST(FtFaultPlan, RandomIsDeterministicOnDistinctCubeLinks) {
    constexpr dim_t n = 4;
    const FaultPlan a = FaultPlan::random(n, 7, 8);
    const FaultPlan b = FaultPlan::random(n, 7, 8);
    ASSERT_EQ(a.specs().size(), 8u);
    ASSERT_EQ(b.specs().size(), 8u);

    std::set<std::pair<node_t, node_t>> seen;
    for (std::size_t i = 0; i < a.specs().size(); ++i) {
        const FaultSpec& spec = a.specs()[i];
        EXPECT_EQ(spec.link, b.specs()[i].link);
        EXPECT_EQ(spec.cls, b.specs()[i].cls);
        EXPECT_EQ(spec.at_push, b.specs()[i].at_push);
        // Every drawn link is a real directed cube link, drawn once.
        EXPECT_LT(spec.link.from, node_t{1} << n);
        EXPECT_TRUE(std::has_single_bit(spec.link.from ^ spec.link.to));
        EXPECT_TRUE(
            seen.insert({spec.link.from, spec.link.to}).second);
    }
    // All four classes appear when count >= 4 (cycled deterministically).
    std::set<InjectClass> classes;
    for (const FaultSpec& spec : a.specs()) {
        classes.insert(spec.cls);
    }
    EXPECT_EQ(classes.size(), 4u);
}

TEST(FtInject, CorruptionReportsChecksumMismatchWithLinkIdentity) {
    const Schedule schedule = sbt_broadcast(3, 0, 4);
    const rt::Plan plan =
        rt::compile_plan(schedule, rt::DataMode::move, 16, 2);

    std::uint32_t count = 0;
    const DirectedLink target = busy_link(schedule, count);
    FaultPlan faults;
    faults.corrupt(target.from, target.to, count / 2);
    FaultInjector injector(faults);
    injector.arm(plan);

    rt::AsyncPlayer player(plan);
    player.set_detection(
        {.arrival_timeout_us = 1000, .abort_on_fault = true});
    player.set_fault_hook(&injector);
    const rt::PlayStats stats = player.play();

    EXPECT_FALSE(stats.clean());
    EXPECT_GE(stats.checksum_failures, 1u);
    EXPECT_EQ(injector.corrupted(), 1u);
    const FaultReport& report = player.fault_report();
    EXPECT_EQ(report.cls, DetectClass::checksum_mismatch);
    EXPECT_EQ(report.from, target.from);
    EXPECT_EQ(report.to, target.to);
}

/// The AsyncPlayer's two walks, each a plan of the same schedule on two
/// workers: 16-double blocks take the serial walk, and 8 KiB blocks
/// delivered copy-through (a hook is installed) the work-stealing walk.
struct Walk {
    std::size_t block_elems;
    rt::ExecMode mode;
};
constexpr Walk kWalks[] = {{16, rt::ExecMode::serial},
                           {1024, rt::ExecMode::stealing}};

TEST(FtInject, DelayWithinTimeoutIsAbsorbedByBothEngines) {
    // Both walks of the one engine (kWalks); 60 sends give the stealing
    // walk its 32 actions per worker.
    const Schedule schedule = sbt_broadcast(4, 0, 4);
    std::uint32_t count = 0;
    const DirectedLink slow = busy_link(schedule, count);
    FaultPlan faults;
    faults.delay(slow.from, slow.to, 0, 200, 2);

    for (const Walk& walk : kWalks) {
        SCOPED_TRACE(rt::to_string(walk.mode));
        const rt::Plan plan = rt::compile_plan(
            schedule, rt::DataMode::move, walk.block_elems, 2);
        FaultInjector injector(faults);
        injector.arm(plan);
        rt::AsyncPlayer player(plan);
        player.set_detection(
            {.arrival_timeout_us = 50000, .abort_on_fault = true});
        player.set_fault_hook(&injector);
        const rt::PlayStats stats = player.play();
        EXPECT_EQ(stats.mode, walk.mode);
        EXPECT_TRUE(stats.clean());
        EXPECT_EQ(stats.blocks_delivered, schedule.sends.size());
        EXPECT_EQ(injector.delayed(), 2u);
        EXPECT_FALSE(player.fault_report().faulted());
    }
}

/// Plays `player` with `injector` (a mid-stream kill of `dead`) armed
/// under a 5 s arrival bound. The ring bank publishes every push before
/// its pop runs, so the receive that finds the ring empty must report the
/// killed link at once: the play returns in far less than the bound.
template <class PlayerT>
rt::PlayStats play_kill_under_long_bound(PlayerT& player,
                                         FaultInjector& injector,
                                         const DirectedLink& dead) {
    player.set_detection(
        {.arrival_timeout_us = 5'000'000, .abort_on_fault = true});
    player.set_fault_hook(&injector);
    const auto t0 = std::chrono::steady_clock::now();
    const rt::PlayStats stats = player.play();
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - t0;
    EXPECT_LT(took.count(), 1.0);
    EXPECT_FALSE(stats.clean());
    EXPECT_GE(stats.timeouts, 1u);
    EXPECT_GE(injector.dropped(), 1u);
    const FaultReport& report = player.fault_report();
    EXPECT_EQ(report.cls, DetectClass::arrival_timeout);
    EXPECT_EQ(report.from, dead.from);
    EXPECT_EQ(report.to, dead.to);
    return stats;
}

/// An SBT broadcast plan and an injector armed with a mid-stream kill of
/// a link that carries at least two of its blocks.
struct KillCase {
    KillCase(dim_t n, packet_t packets, std::size_t block_elems,
             std::uint32_t workers)
        : schedule(sbt_broadcast(n, 0, packets)),
          plan(rt::compile_plan(schedule, rt::DataMode::move, block_elems,
                                workers)),
          dead(busy_link(schedule, pushes)),
          injector(FaultPlan{}.kill_link(dead.from, dead.to, pushes / 2)) {
        injector.arm(plan);
    }

    Schedule schedule;
    rt::Plan plan;
    std::uint32_t pushes = 0; ///< blocks the schedule sends across `dead`
    DirectedLink dead;
    FaultInjector injector;
};

TEST(FtInject, KillIsReportedWithoutWaitingOnSerialAsyncEngine) {
    KillCase c(4, 6, 16, 2);
    rt::AsyncPlayer player(c.plan);
    const rt::PlayStats stats =
        play_kill_under_long_bound(player, c.injector, c.dead);
    EXPECT_EQ(stats.mode, rt::ExecMode::serial);
}

TEST(FtInject, KillIsReportedWithoutWaitingOnStealingAsyncEngine) {
    // Copy-through (the hook is installed) with 8 KiB blocks, two workers
    // and hundreds of actions each: the work-stealing mode.
    KillCase c(5, 8, 1024, 2);
    rt::AsyncPlayer player(c.plan);
    const rt::PlayStats stats =
        play_kill_under_long_bound(player, c.injector, c.dead);
    EXPECT_EQ(stats.mode, rt::ExecMode::stealing);
}

TEST(FtInject, DelayLongerThanTheBoundIsAbsorbedByBothEngines) {
    // A delay stalls the producer before publication, and the pop runs
    // only after the push returns — so even a 3 ms delay under a 1 ms
    // bound is absorbed by both walks (kWalks), never reported as a
    // missing block.
    const Schedule schedule = sbt_broadcast(4, 0, 4);
    std::uint32_t count = 0;
    const DirectedLink slow = busy_link(schedule, count);
    FaultPlan faults;
    faults.delay(slow.from, slow.to, 0, 3'000, 2);
    for (const Walk& walk : kWalks) {
        SCOPED_TRACE(rt::to_string(walk.mode));
        const rt::Plan plan = rt::compile_plan(
            schedule, rt::DataMode::move, walk.block_elems, 2);
        FaultInjector injector(faults);
        injector.arm(plan);
        rt::AsyncPlayer player(plan);
        player.set_detection(
            {.arrival_timeout_us = 1'000, .abort_on_fault = true});
        player.set_fault_hook(&injector);
        const rt::PlayStats stats = player.play();
        EXPECT_EQ(stats.mode, walk.mode);
        EXPECT_TRUE(stats.clean());
        EXPECT_EQ(stats.timeouts, 0u);
        EXPECT_EQ(stats.blocks_delivered, schedule.sends.size());
        EXPECT_EQ(injector.delayed(), 2u);
        EXPECT_FALSE(player.fault_report().faulted());
    }
}

TEST(FtInject, FaultOnUnusedLinkStaysInert) {
    const Schedule schedule = sbt_broadcast(3, 0, 3);
    const rt::Plan plan =
        rt::compile_plan(schedule, rt::DataMode::move, 16, 2);

    // No broadcast schedule ever sends INTO its root, so this fault can
    // never land on a compiled channel.
    FaultPlan faults;
    faults.kill_link(1, 0, 0);
    FaultInjector injector(faults);
    injector.arm(plan);
    EXPECT_EQ(injector.unmatched(), 1u);

    rt::AsyncPlayer player(plan);
    player.set_detection(
        {.arrival_timeout_us = 1000, .abort_on_fault = true});
    player.set_fault_hook(&injector);
    const rt::PlayStats stats = player.play();
    EXPECT_TRUE(stats.clean());
    EXPECT_EQ(stats.blocks_delivered, schedule.sends.size());
    EXPECT_EQ(injector.dropped(), 0u);
    EXPECT_FALSE(player.fault_report().faulted());
}

TEST(FtInject, DisabledDetectionKeepsLegacyCountersOnly) {
    const Schedule schedule = sbt_broadcast(4, 0, 4);
    const rt::Plan plan =
        rt::compile_plan(schedule, rt::DataMode::move, 16, 2);

    std::uint32_t count = 0;
    const DirectedLink dead = busy_link(schedule, count);
    FaultPlan faults;
    faults.kill_link(dead.from, dead.to, 0);
    FaultInjector injector(faults);
    injector.arm(plan);

    // No set_detection: the run must not block on a bounded wait and must
    // keep the pre-ft contract — count the faults, never abort, no report.
    rt::AsyncPlayer player(plan);
    player.set_fault_hook(&injector);
    const rt::PlayStats stats = player.play();
    EXPECT_FALSE(stats.clean());
    EXPECT_GE(stats.channel_faults, 1u);
    EXPECT_EQ(stats.timeouts, 0u);
    EXPECT_FALSE(player.fault_report().faulted());
}

TEST(FtInject, AsyncEngineNamesTheDroppedLink) {
    const Schedule schedule = sbt_broadcast(4, 0, 6);
    const rt::Plan plan =
        rt::compile_plan(schedule, rt::DataMode::move, 16, 4);

    std::uint32_t count = 0;
    const DirectedLink dead = busy_link(schedule, count);
    FaultPlan faults;
    faults.drop(dead.from, dead.to, count / 2, 1);
    FaultInjector injector(faults);
    injector.arm(plan);
    EXPECT_EQ(injector.unmatched(), 0u);

    rt::AsyncPlayer player(plan);
    player.set_detection(
        {.arrival_timeout_us = 1000, .abort_on_fault = true});
    player.set_fault_hook(&injector);
    const rt::PlayStats stats = player.play();

    EXPECT_FALSE(stats.clean());
    EXPECT_EQ(injector.dropped(), 1u);
    const FaultReport& report = player.fault_report();
    // The async ring head may already show the next publication when the
    // receive runs, so the drop manifests as either detection class — but
    // it must always be pinned to the injected link.
    EXPECT_TRUE(report.cls == DetectClass::arrival_timeout ||
                report.cls == DetectClass::stream_mismatch);
    EXPECT_EQ(report.from, dead.from);
    EXPECT_EQ(report.to, dead.to);
}

TEST(FtInject, RewindRearmsTheSameTransientFault) {
    const Schedule schedule = sbt_broadcast(3, 0, 4);
    const rt::Plan plan =
        rt::compile_plan(schedule, rt::DataMode::move, 16, 2);

    std::uint32_t count = 0;
    const DirectedLink dead = busy_link(schedule, count);
    FaultPlan faults;
    faults.drop(dead.from, dead.to, count / 2, 1);
    FaultInjector injector(faults);
    injector.arm(plan);

    rt::AsyncPlayer player(plan);
    player.set_detection(
        {.arrival_timeout_us = 1000, .abort_on_fault = true});
    player.set_fault_hook(&injector);

    // Idempotent re-execution: the logical push counters rewind, so the
    // same transient fires again on the retry of the *same* schedule.
    EXPECT_FALSE(player.play().clean());
    injector.rewind();
    EXPECT_FALSE(player.play().clean());
    EXPECT_EQ(injector.dropped(), 2u);
}

} // namespace
} // namespace hcube::ft
