// The recover leg of hcube::ft, closed-loop and differential: every
// single-link kill injected mid-broadcast / mid-scatter must be detected,
// replanned around, and re-executed to a final memory whose contract pairs
// hold their canonical blocks byte for byte — for every
// directed link the initial schedule uses, across n = 3..8 (stride-sampled
// at the largest sizes and under sanitizers; the sampling offset varies by
// n so repeated CI runs of the matrix cover different links).
//
// The MSBT sweeps additionally prove the survivor-subset claim: the one
// ERSBT crossing the dead link is dropped, and every send of the degraded
// schedule is an edge of a *surviving* ERSBT.
#include "ft/recovery.hpp"
#include "ft/resilient.hpp"

#include "common/check.hpp"
#include "hc/bits.hpp"
#include "mbr/view.hpp"
#include "obs/metrics.hpp"
#include "routing/schedule_export.hpp"
#include "sim/cycle.hpp"
#include "trees/msbt.hpp"
#include "trees/sbt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace hcube::ft {
namespace {

using routing::BroadcastDiscipline;
using routing::ScatterPolicy;
using sim::PortModel;
using sim::Schedule;

constexpr std::size_t kAll = static_cast<std::size_t>(-1);

/// How many fault positions a sweep may visit. Exhaustive where the link
/// count is small; stride-sampled for the big cubes, harder under
/// sanitizers (whose serialization makes each recovery ~20x slower).
std::size_t fault_budget(dim_t n) {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
    return n <= 4 ? kAll : 6;
#else
    return n <= 5 ? kAll : 24;
#endif
}

ResilientParams test_params() {
    ResilientParams p;
    p.threads = 2;
    p.block_elems = 16;
    return p;
}

struct LinkUse {
    DirectedLink link;
    std::uint32_t pushes = 0;
};

/// Every directed link the schedule crosses, with its push count (to aim
/// the kill mid-stream), in deterministic order.
std::vector<LinkUse> links_used(const Schedule& s) {
    std::map<std::pair<node_t, node_t>, std::uint32_t> counts;
    for (const sim::ScheduledSend& send : s.sends) {
        ++counts[{send.from, send.to}];
    }
    std::vector<LinkUse> out;
    out.reserve(counts.size());
    for (const auto& [link, pushes] : counts) {
        out.push_back({{link.first, link.second}, pushes});
    }
    return out;
}

enum class Op { bcast_sbt, bcast_msbt, scatter_sbt };

Schedule initial_schedule(Op op, dim_t n, node_t root, packet_t count) {
    switch (op) {
    case Op::bcast_sbt:
        return routing::make_tree_broadcast(
            trees::build_sbt(n, root), BroadcastDiscipline::paced, count,
            PortModel::one_port_full_duplex);
    case Op::bcast_msbt:
        return routing::make_msbt_broadcast(
            n, root, count, PortModel::one_port_full_duplex);
    case Op::scatter_sbt:
        return routing::make_tree_scatter(
            trees::build_sbt(n, root), ScatterPolicy::descending, count,
            PortModel::one_port_full_duplex);
    }
    return {};
}

RecoveryResult run_op(ResilientComm& comm, Op op, node_t root,
                      packet_t count, const FaultPlan& faults) {
    switch (op) {
    case Op::bcast_sbt: return comm.broadcast_sbt(root, count, faults);
    case Op::bcast_msbt: return comm.broadcast_msbt(root, count, faults);
    case Op::scatter_sbt: return comm.scatter_sbt(root, count, faults);
    }
    return {};
}

/// Kills every (sampled) link of the op's schedule mid-stream, one run per
/// link, and demands byte-identical recovery each time.
void sweep_single_link_kills(Op op, dim_t n, node_t root, packet_t count) {
    const Schedule initial = initial_schedule(op, n, root, count);
    const std::vector<LinkUse> links = links_used(initial);
    ASSERT_FALSE(links.empty());
    const std::size_t budget = fault_budget(n);
    const std::size_t stride =
        budget == kAll ? 1 : std::max<std::size_t>(1, links.size() / budget);
    const std::size_t first = static_cast<std::size_t>(n) % stride;

    ResilientComm comm(n, test_params());
    for (std::size_t i = first; i < links.size(); i += stride) {
        const DirectedLink dead = links[i].link;
        FaultPlan faults;
        faults.kill_link(dead.from, dead.to, links[i].pushes / 2);

        const RecoveryResult r = run_op(comm, op, root, count, faults);
        const auto where = [&] {
            return " n=" + std::to_string(n) + " dead=" +
                   std::to_string(dead.from) + "->" +
                   std::to_string(dead.to);
        };
        ASSERT_TRUE(r.delivered) << where();
        EXPECT_TRUE(r.recovered) << where();
        EXPECT_EQ(r.attempts, 2u) << where();
        ASSERT_EQ(r.reports.size(), 1u) << where();
        EXPECT_EQ(r.reports[0].from, dead.from) << where();
        EXPECT_EQ(r.reports[0].to, dead.to) << where();
        ASSERT_EQ(r.dead_links.size(), 1u) << where();
        EXPECT_EQ(r.dead_links[0], dead) << where();
        EXPECT_FALSE(schedule_uses_link(r.final_schedule, dead)) << where();
        EXPECT_TRUE(r.stats.clean()) << where();
        EXPECT_EQ(r.stats.blocks_delivered, r.final_schedule.sends.size())
            << where();

        if (op == Op::bcast_msbt) {
            // The survivor-subset argument, checked edge by edge: the dead
            // link's ERSBT was dropped, and every send of the degraded
            // schedule belongs to a surviving tree.
            const dim_t gone = ersbt_using_link(n, root, dead);
            ASSERT_EQ(r.dropped_trees.size(), 1u) << where();
            EXPECT_EQ(r.dropped_trees[0], gone) << where();
            for (const sim::ScheduledSend& send : r.final_schedule.sends) {
                EXPECT_NE(ersbt_using_link(n, root, {send.from, send.to}),
                          gone)
                    << where();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery-primitive unit tests
// ---------------------------------------------------------------------------

TEST(FtRecovery, EveryDirectedLinkBelongsToExactlyOneErsbt) {
    constexpr dim_t n = 4;
    constexpr node_t source = 5;
    std::vector<std::uint32_t> edges_of(static_cast<std::size_t>(n), 0);
    for (node_t from = 0; from < (node_t{1} << n); ++from) {
        for (dim_t d = 0; d < n; ++d) {
            const node_t to = hc::flip_bit(from, d);
            if (to == source) {
                continue; // the n links no ERSBT uses
            }
            const dim_t j = ersbt_using_link(n, source, {from, to});
            ASSERT_GE(j, 0);
            ASSERT_LT(j, n);
            EXPECT_EQ(trees::msbt_parent(to, j, source, n), from);
            ++edges_of[static_cast<std::size_t>(j)];
        }
    }
    // Disjoint cover: each of the n trees owns exactly its 2^n - 1 edges.
    for (dim_t j = 0; j < n; ++j) {
        EXPECT_EQ(edges_of[static_cast<std::size_t>(j)],
                  (std::uint32_t{1} << n) - 1);
    }
}

TEST(FtRecovery, LinkIntoTheSourceHasNoErsbt) {
    EXPECT_THROW((void)ersbt_using_link(3, 0, {1, 0}), check_error);
    EXPECT_THROW((void)ersbt_using_link(3, 5, {4, 5}), check_error);
    // Not a cube link at all.
    EXPECT_THROW((void)ersbt_using_link(3, 0, {1, 2}), check_error);
}

TEST(FtRecovery, SurvivorScheduleAvoidsDeadTreeAndStillDelivers) {
    constexpr dim_t n = 4;
    constexpr node_t source = 0;
    constexpr packet_t pps = 2;
    for (dim_t d = 0; d < n; ++d) {
        // One dead link per sweep, chosen inside a different tree each
        // time: the edge into node (1 << d) ^ 1... pick any non-source
        // head and derive its tree's parent edge.
        const node_t to = hc::flip_bit(node_t{0b1010}, d);
        const node_t from = trees::msbt_parent(to, d, source, n);
        const DirectedLink dead{from, to};

        const SurvivorMsbt degraded =
            make_msbt_survivor_broadcast(n, source, pps, dead);
        ASSERT_EQ(degraded.dropped_trees.size(), 1u);
        EXPECT_EQ(degraded.dropped_trees[0], d);
        EXPECT_FALSE(schedule_uses_link(degraded.schedule, dead));

        // The degraded schedule must still be feasible one-port and must
        // deliver every packet everywhere.
        const sim::CycleStats stats = sim::execute_schedule(
            degraded.schedule, PortModel::one_port_full_duplex);
        for (node_t i = 0; i < (node_t{1} << n); ++i) {
            for (packet_t p = 0; p < degraded.schedule.packet_count; ++p) {
                EXPECT_TRUE(stats.holds(i, p))
                    << "node " << i << " misses packet " << p;
            }
        }
    }
}

TEST(FtRecovery, MultiLinkSurvivorDropsEachDeadTreeOnce) {
    constexpr dim_t n = 3;
    constexpr node_t source = 2;
    // Two dead links inside tree 0 and one inside tree 2.
    const node_t a = hc::flip_bit(node_t{5}, 1);
    const node_t b = hc::flip_bit(node_t{7}, 2);
    const std::vector<DirectedLink> dead = {
        {trees::msbt_parent(a, 0, source, n), a},
        {trees::msbt_parent(5, 0, source, n), 5},
        {trees::msbt_parent(b, 2, source, n), b},
    };
    const SurvivorMsbt degraded =
        make_msbt_survivor_broadcast(n, source, 2, dead);
    EXPECT_EQ(degraded.dropped_trees,
              (std::vector<dim_t>{0, 2})); // deduplicated, ascending
    for (const DirectedLink& link : dead) {
        EXPECT_FALSE(schedule_uses_link(degraded.schedule, link));
    }
    const sim::CycleStats stats = sim::execute_schedule(
        degraded.schedule, PortModel::one_port_full_duplex);
    for (node_t i = 0; i < (node_t{1} << n); ++i) {
        for (packet_t p = 0; p < degraded.schedule.packet_count; ++p) {
            EXPECT_TRUE(stats.holds(i, p));
        }
    }
}

TEST(FtRecovery, NoSurvivingTreeThrows) {
    // n = 1: the MSBT is a single ERSBT; killing its only edge leaves
    // nothing to reassign the stream to.
    EXPECT_THROW(
        (void)make_msbt_survivor_broadcast(1, 0, 1, DirectedLink{0, 1}),
        check_error);
}

// ---------------------------------------------------------------------------
// Closed-loop differential sweeps (contract-verified)
// ---------------------------------------------------------------------------

TEST(FtRecoverySbtBroadcast, HealsEveryLinkN3) {
    sweep_single_link_kills(Op::bcast_sbt, 3, 0, 4);
}
TEST(FtRecoverySbtBroadcast, HealsEveryLinkN4) {
    sweep_single_link_kills(Op::bcast_sbt, 4, 1, 4);
}
TEST(FtRecoverySbtBroadcast, HealsEveryLinkN5) {
    sweep_single_link_kills(Op::bcast_sbt, 5, 0, 4);
}
TEST(FtRecoverySbtBroadcast, HealsSampledLinksN6) {
    sweep_single_link_kills(Op::bcast_sbt, 6, 0, 4);
}
TEST(FtRecoverySbtBroadcast, HealsSampledLinksN7) {
    sweep_single_link_kills(Op::bcast_sbt, 7, 0, 4);
}
TEST(FtRecoverySbtBroadcast, HealsSampledLinksN8) {
    sweep_single_link_kills(Op::bcast_sbt, 8, 0, 4);
}

TEST(FtRecoveryMsbt, HealsEveryLinkN3) {
    sweep_single_link_kills(Op::bcast_msbt, 3, 0, 6);
}
TEST(FtRecoveryMsbt, HealsEveryLinkN4) {
    sweep_single_link_kills(Op::bcast_msbt, 4, 3, 8);
}
TEST(FtRecoveryMsbt, HealsEveryLinkN5) {
    sweep_single_link_kills(Op::bcast_msbt, 5, 0, 10);
}
TEST(FtRecoveryMsbt, HealsSampledLinksN6) {
    sweep_single_link_kills(Op::bcast_msbt, 6, 0, 12);
}
TEST(FtRecoveryMsbt, HealsSampledLinksN7) {
    sweep_single_link_kills(Op::bcast_msbt, 7, 0, 14);
}
TEST(FtRecoveryMsbt, HealsSampledLinksN8) {
    sweep_single_link_kills(Op::bcast_msbt, 8, 0, 16);
}

TEST(FtRecoveryScatter, HealsEveryLinkN3) {
    sweep_single_link_kills(Op::scatter_sbt, 3, 0, 2);
}
TEST(FtRecoveryScatter, HealsEveryLinkN4) {
    sweep_single_link_kills(Op::scatter_sbt, 4, 2, 2);
}
TEST(FtRecoveryScatter, HealsEveryLinkN5) {
    sweep_single_link_kills(Op::scatter_sbt, 5, 0, 2);
}
TEST(FtRecoveryScatter, HealsSampledLinksN6) {
    sweep_single_link_kills(Op::scatter_sbt, 6, 0, 2);
}
TEST(FtRecoveryScatter, HealsSampledLinksN7) {
    sweep_single_link_kills(Op::scatter_sbt, 7, 0, 2);
}
TEST(FtRecoveryScatter, HealsSampledLinksN8) {
    sweep_single_link_kills(Op::scatter_sbt, 8, 0, 2);
}

// ---------------------------------------------------------------------------
// Beyond the single-kill sweep
// ---------------------------------------------------------------------------

TEST(FtRecovery, CorruptionTriggersTheSameReplanLoop) {
    constexpr dim_t n = 4;
    const Schedule initial = initial_schedule(Op::bcast_sbt, n, 0, 4);
    const std::vector<LinkUse> links = links_used(initial);
    const DirectedLink target = links[links.size() / 2].link;

    FaultPlan faults;
    faults.corrupt(target.from, target.to, 1);
    ResilientComm comm(n, test_params());
    const RecoveryResult r = comm.broadcast_sbt(0, 4, faults);
    ASSERT_TRUE(r.delivered);
    EXPECT_TRUE(r.recovered);
    ASSERT_EQ(r.reports.size(), 1u);
    EXPECT_EQ(r.reports[0].cls, DetectClass::checksum_mismatch);
    EXPECT_EQ(r.reports[0].from, target.from);
    EXPECT_EQ(r.reports[0].to, target.to);
    EXPECT_FALSE(schedule_uses_link(r.final_schedule, target));
}

TEST(FtRecovery, TwoDeadLinksHealOverThreeAttempts) {
    constexpr dim_t n = 4;
    constexpr node_t root = 0;
    constexpr packet_t packets = 8; // 2 per ERSBT stream
    // Two kills in different ERSBTs: the second only bites after the first
    // replan, so the loop must iterate.
    const node_t a = hc::flip_bit(node_t{0b0110}, 0);
    const node_t b = hc::flip_bit(node_t{0b1001}, 2);
    const DirectedLink dead0{trees::msbt_parent(a, 0, root, n), a};
    const DirectedLink dead1{trees::msbt_parent(b, 2, root, n), b};

    FaultPlan faults;
    faults.kill_link(dead0.from, dead0.to, 0);
    faults.kill_link(dead1.from, dead1.to, 0);

    ResilientComm comm(n, test_params());
    const RecoveryResult r = comm.broadcast_msbt(root, packets, faults);
    ASSERT_TRUE(r.delivered);
    EXPECT_TRUE(r.recovered);
    EXPECT_EQ(r.attempts, 3u);
    ASSERT_EQ(r.dead_links.size(), 2u);
    EXPECT_EQ(r.dropped_trees, (std::vector<dim_t>{0, 2}));
    EXPECT_FALSE(schedule_uses_link(r.final_schedule, dead0));
    EXPECT_FALSE(schedule_uses_link(r.final_schedule, dead1));
}

TEST(FtRecovery, ExhaustedBudgetReportsTheScheduleItLastRan) {
    // Every link out of the root dies at its first push, so each attempt
    // loses one more of them and the budget runs out with one root link
    // still alive. The call returns undelivered with the schedule its last
    // attempt ran (which crossed the link that attempt lost) and builds
    // nothing after it, not even a replan that would have succeeded.
    constexpr dim_t n = 5;
    constexpr node_t root = 6;
    constexpr packet_t packets = 4;
    FaultPlan faults;
    for (dim_t d = 0; d < n; ++d) {
        faults.kill_link(root, hc::flip_bit(root, d), 0);
    }
    for (const bool members : {false, true}) {
        const std::string where =
            members ? " op=broadcast_members" : " op=broadcast_sbt";
        ResilientComm comm(n, test_params());
        const RecoveryResult r =
            members ? comm.broadcast_members(root, packets, faults)
                    : comm.broadcast_sbt(root, packets, faults);
        EXPECT_FALSE(r.delivered) << where;
        EXPECT_EQ(r.attempts, kMaxAttempts) << where;
        EXPECT_EQ(r.reports.size(), kMaxAttempts) << where;
        ASSERT_EQ(r.dead_links.size(), kMaxAttempts) << where;
        EXPECT_EQ(r.dead_nodes.size(), members ? kMaxAttempts : 0u) << where;
        EXPECT_TRUE(schedule_uses_link(r.final_schedule, r.dead_links.back()))
            << where;
    }
}

TEST(FtRecovery, InertFaultPlanFinishesFirstAttempt) {
    ResilientComm comm(3, test_params());
    // A fault on a link no broadcast from node 0 ever uses.
    FaultPlan faults;
    faults.kill_link(1, 0, 0);
    const RecoveryResult r = comm.broadcast_sbt(0, 4, faults);
    EXPECT_TRUE(r.delivered);
    EXPECT_FALSE(r.recovered);
    EXPECT_EQ(r.attempts, 1u);
    EXPECT_TRUE(r.reports.empty());
}

TEST(FtRecovery, ResidentAttemptsCarryNoStateBetweenCalls) {
    // Each op's first attempt replays one resident plan and player. A
    // faulted call arms the injector on it and leaves copy-through
    // storage behind; the clean calls after it must still play the
    // zero-copy protocol with no hook, no report and the fault-free
    // schedule. Member ops readmit each dead node, so every clean call
    // runs on the full view's resident entry again.
    constexpr dim_t n = 4;
    constexpr node_t root = 5;
    constexpr packet_t packets = 2 * n; // MSBT: divisible by n
    constexpr packet_t per_dest = 2;
    const mbr::View full(n);
    struct OpCase {
        const char* name;
        Schedule fault_free;
        RecoveryResult (*call)(ResilientComm&, const FaultPlan&);
    };
    const OpCase ops[] = {
        {"broadcast_sbt", initial_schedule(Op::bcast_sbt, n, root, packets),
         [](ResilientComm& c, const FaultPlan& f) {
             return c.broadcast_sbt(root, packets, f);
         }},
        {"broadcast_msbt",
         initial_schedule(Op::bcast_msbt, n, root, packets),
         [](ResilientComm& c, const FaultPlan& f) {
             return c.broadcast_msbt(root, packets, f);
         }},
        {"scatter_sbt", initial_schedule(Op::scatter_sbt, n, root, per_dest),
         [](ResilientComm& c, const FaultPlan& f) {
             return c.scatter_sbt(root, per_dest, f);
         }},
        {"broadcast_members",
         routing::make_member_broadcast(full, root,
                                        BroadcastDiscipline::paced, packets,
                                        PortModel::one_port_full_duplex),
         [](ResilientComm& c, const FaultPlan& f) {
             return c.broadcast_members(root, packets, f);
         }},
        {"scatter_members",
         routing::make_member_scatter(full, root, per_dest),
         [](ResilientComm& c, const FaultPlan& f) {
             return c.scatter_members(root, per_dest, f);
         }},
    };
    constexpr std::size_t kRounds = 3;
    for (const OpCase& op : ops) {
        ResilientComm comm(n, test_params());
        const std::vector<LinkUse> links = links_used(op.fault_free);
        for (std::size_t round = 0; round < kRounds; ++round) {
            const std::string where = std::string(" op=") + op.name +
                                      " round=" + std::to_string(round);
            const LinkUse& kill =
                links[(round + 1) * links.size() / (kRounds + 1)];
            FaultPlan faults;
            faults.kill_link(kill.link.from, kill.link.to, kill.pushes / 2);
            const RecoveryResult faulted = op.call(comm, faults);
            ASSERT_TRUE(faulted.delivered) << where;
            EXPECT_TRUE(faulted.recovered) << where;
            for (const node_t v : faulted.dead_nodes) {
                comm.readmit(v);
            }
            for (int clean_call = 0; clean_call < 2; ++clean_call) {
                const RecoveryResult clean = op.call(comm, FaultPlan{});
                ASSERT_TRUE(clean.delivered) << where;
                EXPECT_EQ(clean.attempts, 1u) << where;
                EXPECT_TRUE(clean.reports.empty()) << where;
                EXPECT_EQ(clean.stats.bytes_copied, 0u) << where;
                EXPECT_EQ(clean.final_schedule.sends, op.fault_free.sends)
                    << where;
                EXPECT_EQ(clean.final_schedule.initial_holder,
                          op.fault_free.initial_holder)
                    << where;
            }
        }
    }
}

TEST(FtRecovery, ResidentAttemptProvesItsArenaOnce) {
    // The resident attempt's first clean play proves its arena and digest
    // table (one canonical derivation per packet); its later clean plays
    // compare every slot with its arena block and derive nothing. A
    // healing attempt is built fresh, so its check derives every packet's
    // digest again.
    constexpr dim_t n = 4;
    constexpr node_t root = 5;
    constexpr packet_t per_dest = 2;
    const Schedule fault_free =
        initial_schedule(Op::scatter_sbt, n, root, per_dest);
    const obs::Counter& derived =
        obs::registry().counter("rt.canonical_digests");
    ResilientComm comm(n, test_params());
    const auto clean_call_derives = [&] {
        const std::uint64_t before = derived.value();
        const RecoveryResult clean =
            comm.scatter_sbt(root, per_dest, FaultPlan{});
        EXPECT_TRUE(clean.delivered);
        EXPECT_EQ(clean.attempts, 1u);
        return derived.value() - before;
    };
    EXPECT_EQ(clean_call_derives(), fault_free.packet_count);
    EXPECT_EQ(clean_call_derives(), 0u);

    const std::vector<LinkUse> links = links_used(fault_free);
    const LinkUse& kill = links[links.size() / 2];
    FaultPlan faults;
    faults.kill_link(kill.link.from, kill.link.to, kill.pushes / 2);
    const std::uint64_t before = derived.value();
    const RecoveryResult healed = comm.scatter_sbt(root, per_dest, faults);
    ASSERT_TRUE(healed.delivered);
    EXPECT_EQ(healed.attempts, 2u);
    EXPECT_EQ(derived.value() - before, healed.final_schedule.packet_count);
    EXPECT_EQ(healed.final_schedule.packet_count, fault_free.packet_count);

    EXPECT_EQ(clean_call_derives(), 0u);
}

TEST(FtRecovery, OracleIsCachedAcrossASweep) {
    ResilientComm comm(3, test_params());
    FaultPlan none;
    const RecoveryResult first = comm.broadcast_sbt(0, 4, none);
    const RecoveryResult second = comm.broadcast_sbt(0, 4, none);
    EXPECT_TRUE(first.delivered);
    EXPECT_TRUE(second.delivered);
    // Same op signature → the resident attempt is reused: only the call
    // that built it reports build time.
    EXPECT_GT(first.oracle_seconds, 0.0);
    EXPECT_EQ(second.oracle_seconds, 0.0);
}

} // namespace
} // namespace hcube::ft
