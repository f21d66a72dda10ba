// Tests for the all-to-all extensions (routing/alltoall.hpp).
#include "routing/alltoall.hpp"

#include "sim/event.hpp"

#include <gtest/gtest.h>

namespace hcube::routing {
namespace {

struct Case {
    hc::dim_t n;
    sim::packet_t per_pair;
};

class ExchangeSweep : public ::testing::TestWithParam<Case> {};

TEST_P(ExchangeSweep, RecursiveExchangeDeliversEverything) {
    const auto [n, Pd] = GetParam();
    const sim::Schedule schedule = alltoall_recursive_exchange(n, Pd);
    const auto stats = sim::execute_schedule(
        schedule, sim::PortModel::one_port_full_duplex);
    const hc::node_t count = hc::node_t{1} << n;
    for (hc::node_t src = 0; src < count; ++src) {
        for (hc::node_t dest = 0; dest < count; ++dest) {
            for (sim::packet_t k = 0; k < Pd; ++k) {
                EXPECT_TRUE(stats.holds(
                    dest, alltoall_packet_id(src, dest, n, Pd, k)))
                    << src << " -> " << dest;
            }
        }
    }
}

TEST_P(ExchangeSweep, RecursiveExchangeUsesNTimesHalfNCycles) {
    const auto [n, Pd] = GetParam();
    const sim::Schedule schedule = alltoall_recursive_exchange(n, Pd);
    const auto stats = sim::execute_schedule(
        schedule, sim::PortModel::one_port_full_duplex);
    // n rounds of N/2 · Pd cycles each — the classical dimension-order cost.
    EXPECT_EQ(stats.makespan,
              static_cast<std::uint32_t>(n) * ((hc::node_t{1} << n) / 2) * Pd);
}

INSTANTIATE_TEST_SUITE_P(Cases, ExchangeSweep,
                         ::testing::Values(Case{1, 1}, Case{2, 1}, Case{3, 1},
                                           Case{3, 2}, Case{4, 1},
                                           Case{5, 1}, Case{6, 1}),
                         [](const auto& param_info) {
                             return "n" + std::to_string(param_info.param.n) +
                                    "_p" +
                                    std::to_string(param_info.param.per_pair);
                         });

class GossipSweep : public ::testing::TestWithParam<hc::dim_t> {};

TEST_P(GossipSweep, AllgatherDeliversEveryPacketEverywhere) {
    const hc::dim_t n = GetParam();
    const sim::Schedule schedule = allgather_recursive_doubling(n);
    const auto stats = sim::execute_schedule(
        schedule, sim::PortModel::one_port_full_duplex);
    const hc::node_t count = hc::node_t{1} << n;
    for (hc::node_t i = 0; i < count; ++i) {
        for (hc::node_t p = 0; p < count; ++p) {
            EXPECT_TRUE(stats.holds(i, p)) << "node " << i << " packet " << p;
        }
    }
}

TEST_P(GossipSweep, AllgatherHitsTheNMinus1LowerBound) {
    const hc::dim_t n = GetParam();
    const sim::Schedule schedule = allgather_recursive_doubling(n);
    const auto stats = sim::execute_schedule(
        schedule, sim::PortModel::one_port_full_duplex);
    // Every node receives N-1 packets at one per cycle: N-1 is optimal.
    EXPECT_EQ(stats.makespan, (hc::node_t{1} << n) - 1);
}

INSTANTIATE_TEST_SUITE_P(Dims, GossipSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7),
                         [](const auto& param_info) {
                             return "n" + std::to_string(param_info.param);
                         });

TEST(AllToAllBst, ConcurrentScattersDeliverAllPairs) {
    const hc::dim_t n = 4;
    sim::EventParams params;
    params.tau = 1.0;
    params.tc = 0.001;
    params.packet_capacity = 1e9;
    params.model = sim::PortModel::one_port_full_duplex;
    sim::EventEngine engine(n, params);
    AllToAllBstProtocol protocol(n, 100);
    (void)engine.run(protocol);
    const std::size_t count = std::size_t{1} << n;
    EXPECT_EQ(protocol.delivered(), count * (count - 1));
}

TEST(AllToAllBst, AllPortVariantAlsoDelivers) {
    const hc::dim_t n = 3;
    sim::EventParams params;
    params.tau = 0.5;
    params.tc = 0.01;
    params.packet_capacity = 64;
    params.model = sim::PortModel::all_port;
    sim::EventEngine engine(n, params);
    AllToAllBstProtocol protocol(n, 32);
    const auto stats = engine.run(protocol);
    const std::size_t count = std::size_t{1} << n;
    EXPECT_EQ(protocol.delivered(), count * (count - 1));
    EXPECT_GT(stats.completion_time, 0.0);
}

} // namespace
} // namespace hcube::routing
