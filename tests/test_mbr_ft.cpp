// Membership-aware self-healing (ft::ResilientComm member ops): a fault is
// a node death, not a wire break — the victim leaves the view, the tree and
// contract are rebuilt over the survivors, and the healed run must hold the
// canonical block at every survivor-set contract pair.
#include "ft/resilient.hpp"

#include "common/check.hpp"
#include "routing/schedule_export.hpp"
#include "trees/sbt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace hcube::ft {
namespace {

using routing::BroadcastDiscipline;
using sim::PortModel;
using sim::Schedule;

ResilientParams test_params() {
    ResilientParams p;
    p.threads = 2;
    p.block_elems = 16;
    return p;
}

bool touches(const Schedule& schedule, node_t v) {
    return std::any_of(schedule.sends.begin(), schedule.sends.end(),
                       [v](const sim::ScheduledSend& send) {
                           return send.from == v || send.to == v;
                       });
}

TEST(MbrFt, CleanFullViewRunIsTheSbtBroadcast) {
    ResilientComm comm(3, test_params());
    const RecoveryResult result = comm.broadcast_members(0, 4, FaultPlan{});
    EXPECT_TRUE(result.delivered);
    EXPECT_FALSE(result.recovered);
    EXPECT_EQ(result.attempts, 1u);
    EXPECT_EQ(result.view_epoch, 0u);
    EXPECT_TRUE(result.dead_nodes.empty());
    const Schedule sbt = routing::make_tree_broadcast(
        trees::build_sbt(3, 0), BroadcastDiscipline::paced, 4,
        PortModel::one_port_full_duplex);
    EXPECT_EQ(result.final_schedule.sends, sbt.sends);
    EXPECT_EQ(result.final_schedule.initial_holder, sbt.initial_holder);
}

TEST(MbrFt, NodeDeathHealsBroadcastOnBothEngines) {
    ResilientComm comm(4, test_params());
    FaultPlan faults;
    faults.kill_link(0, 8); // root 0's port-3 child dies
    const RecoveryResult result = comm.broadcast_members(0, 3, faults);
    EXPECT_TRUE(result.delivered);
    EXPECT_TRUE(result.recovered);
    EXPECT_EQ(result.attempts, 2u);
    EXPECT_EQ(result.dead_nodes, (std::vector<node_t>{8}));
    EXPECT_EQ(result.view_epoch, 1u);
    EXPECT_EQ(comm.view().count(), 15u);
    EXPECT_FALSE(comm.view().contains(8));
    EXPECT_FALSE(touches(result.final_schedule, 8));
}

TEST(MbrFt, RelayDeathReparentsItsSubtree) {
    // Node 1 relays to 3 and 5 in the SBT at root 0; killing 1 must leave
    // 3 and 5 reachable through live relays in the healed schedule.
    ResilientComm comm(3, test_params());
    FaultPlan faults;
    faults.kill_link(0, 1);
    const RecoveryResult result = comm.broadcast_members(0, 2, faults);
    EXPECT_TRUE(result.delivered);
    EXPECT_EQ(result.dead_nodes, (std::vector<node_t>{1}));
    EXPECT_FALSE(touches(result.final_schedule, 1));
    EXPECT_TRUE(touches(result.final_schedule, 3));
    EXPECT_TRUE(touches(result.final_schedule, 5));
}

TEST(MbrFt, NodeDeathShrinksTheScatterContract) {
    ResilientComm comm(3, test_params());
    FaultPlan faults;
    faults.kill_link(0, 4);
    const RecoveryResult result = comm.scatter_members(0, 2, faults);
    EXPECT_TRUE(result.delivered);
    EXPECT_TRUE(result.recovered);
    EXPECT_EQ(result.dead_nodes, (std::vector<node_t>{4}));
    // 6 surviving destinations x 2 packets: the dead node's blocks left
    // the contract with it.
    EXPECT_EQ(result.final_schedule.packet_count, 12u);
    EXPECT_FALSE(touches(result.final_schedule, 4));
}

TEST(MbrFt, NonRootEndpointIsTheVictimWhenTheRootSends) {
    // The failed link's non-root endpoint dies — never the root.
    ResilientComm comm(3, test_params());
    FaultPlan faults;
    faults.kill_link(1, 3); // a relay edge away from the root
    const RecoveryResult result = comm.broadcast_members(0, 2, faults);
    EXPECT_TRUE(result.delivered);
    EXPECT_EQ(result.dead_nodes, (std::vector<node_t>{3}));
    EXPECT_TRUE(comm.view().contains(0));
    EXPECT_TRUE(comm.view().contains(1));
}

TEST(MbrFt, TwoDeathsAccumulateAcrossAttempts) {
    ResilientComm comm(3, test_params());
    FaultPlan faults;
    faults.kill_link(0, 1);
    faults.kill_link(0, 2);
    const RecoveryResult result = comm.broadcast_members(0, 2, faults);
    EXPECT_TRUE(result.delivered);
    EXPECT_EQ(result.attempts, 3u);
    std::vector<node_t> dead = result.dead_nodes;
    std::sort(dead.begin(), dead.end());
    EXPECT_EQ(dead, (std::vector<node_t>{1, 2}));
    EXPECT_EQ(result.view_epoch, 2u);
    EXPECT_EQ(comm.view().count(), 6u);
}

TEST(MbrFt, ProactiveTransitionsShapeTheNextOperation) {
    ResilientComm comm(3, test_params());
    comm.mark_dead(5);
    const RecoveryResult degraded =
        comm.broadcast_members(0, 2, FaultPlan{});
    EXPECT_TRUE(degraded.delivered);
    EXPECT_EQ(degraded.view_epoch, 1u);
    EXPECT_FALSE(touches(degraded.final_schedule, 5));

    comm.readmit(5);
    const RecoveryResult restored =
        comm.broadcast_members(0, 2, FaultPlan{});
    EXPECT_TRUE(restored.delivered);
    EXPECT_EQ(restored.view_epoch, 2u);
    EXPECT_TRUE(touches(restored.final_schedule, 5));
}

TEST(MbrFt, DeadRootIsRefused) {
    ResilientComm comm(3, test_params());
    comm.mark_dead(2);
    EXPECT_THROW((void)comm.broadcast_members(2, 2, FaultPlan{}),
                 check_error);
    EXPECT_THROW((void)comm.scatter_members(2, 1, FaultPlan{}), check_error);
}

} // namespace
} // namespace hcube::ft
