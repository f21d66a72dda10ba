// Tests for the analytic complexity models (model/): Table 1-4 and Table 6
// formulas, internal consistency (B_opt really minimizes T), and agreement
// with the paper's simplified ratio entries.
#include "model/broadcast_model.hpp"
#include "model/personalized_model.hpp"

#include "common/check.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace hcube::model {
namespace {

using sim::PortModel;

constexpr PortModel kModels[] = {PortModel::one_port_half_duplex,
                                 PortModel::one_port_full_duplex,
                                 PortModel::all_port};
constexpr Algorithm kBroadcastTrees[] = {Algorithm::hp, Algorithm::sbt,
                                         Algorithm::tcbt, Algorithm::msbt};

TEST(BroadcastModel, Table1Entries) {
    const dim_t n = 6; // N = 64
    EXPECT_EQ(propagation_delay(Algorithm::hp,
                                PortModel::one_port_half_duplex, n),
              63);
    EXPECT_EQ(propagation_delay(Algorithm::sbt, PortModel::all_port, n), 6);
    EXPECT_EQ(propagation_delay(Algorithm::tcbt,
                                PortModel::one_port_full_duplex, n),
              10);
    EXPECT_EQ(propagation_delay(Algorithm::tcbt, PortModel::all_port, n), 6);
    EXPECT_EQ(propagation_delay(Algorithm::msbt,
                                PortModel::one_port_half_duplex, n),
              17);
    EXPECT_EQ(propagation_delay(Algorithm::msbt,
                                PortModel::one_port_full_duplex, n),
              12);
    EXPECT_EQ(propagation_delay(Algorithm::msbt, PortModel::all_port, n), 7);
}

TEST(BroadcastModel, Table2Entries) {
    const dim_t n = 8;
    EXPECT_DOUBLE_EQ(
        cycles_per_packet(Algorithm::hp, PortModel::one_port_half_duplex, n),
        2.0);
    EXPECT_DOUBLE_EQ(
        cycles_per_packet(Algorithm::hp, PortModel::one_port_full_duplex, n),
        1.0);
    EXPECT_DOUBLE_EQ(
        cycles_per_packet(Algorithm::sbt, PortModel::one_port_half_duplex, n),
        8.0);
    EXPECT_DOUBLE_EQ(cycles_per_packet(Algorithm::sbt, PortModel::all_port, n),
                     1.0);
    EXPECT_DOUBLE_EQ(
        cycles_per_packet(Algorithm::tcbt, PortModel::one_port_half_duplex, n),
        3.0);
    EXPECT_DOUBLE_EQ(
        cycles_per_packet(Algorithm::msbt, PortModel::all_port, n),
        1.0 / 8.0);
}

TEST(BroadcastModel, StepsReduceToDelaysAtOnePacket) {
    // T at the smallest useful message should be within a small constant of
    // the propagation delay. For HP/SBT/TCBT that message is one packet;
    // Table 1's MSBT delays are for broadcasting log N packets (one per
    // subtree), so the MSBT uses M = n·B.
    for (const auto algo : kBroadcastTrees) {
        for (const auto m : kModels) {
            for (dim_t n = 4; n <= 10; ++n) {
                const double M = (algo == Algorithm::msbt) ? n : 1;
                const double steps = broadcast_steps(algo, m, M, 1, n);
                const double delay =
                    static_cast<double>(propagation_delay(algo, m, n));
                EXPECT_NEAR(steps, delay, 2.0)
                    << to_string(algo) << " " << to_string(m) << " n=" << n;
            }
        }
    }
}

TEST(BroadcastModel, BoptMinimizesTime) {
    const CommParams params = ipsc_params();
    const double M = 61440;
    for (const auto algo : kBroadcastTrees) {
        for (const auto m : kModels) {
            for (dim_t n = 4; n <= 8; ++n) {
                const double bopt = broadcast_bopt(algo, m, M, n, params);
                ASSERT_GT(bopt, 0.0);
                const double t_opt =
                    broadcast_time(algo, m, M, bopt, n, params);
                // Perturbing B by 2x in either direction must not improve T
                // (the ceil() makes T weakly non-smooth, hence the margin).
                for (const double factor : {0.5, 2.0}) {
                    const double t_other =
                        broadcast_time(algo, m, M, bopt * factor, n, params);
                    EXPECT_GE(t_other, 0.95 * t_opt)
                        << to_string(algo) << " " << to_string(m)
                        << " n=" << n << " factor=" << factor;
                }
            }
        }
    }
}

TEST(BroadcastModel, TminIsTimeAtBoptUpToCeiling) {
    const CommParams params = ipsc_params();
    const double M = 61440;
    for (const auto algo : kBroadcastTrees) {
        for (const auto m : kModels) {
            const dim_t n = 7;
            const double tmin = broadcast_tmin(algo, m, M, n, params);
            const double at_bopt = broadcast_time(
                algo, m, M, broadcast_bopt(algo, m, M, n, params), n, params);
            // The closed forms drop the ceilings; allow 15%.
            EXPECT_NEAR(at_bopt, tmin, 0.15 * tmin)
                << to_string(algo) << " " << to_string(m);
        }
    }
}

TEST(BroadcastModel, Table4RatiosMatchThePaperEntries) {
    const dim_t n = 10; // log N = 10: asymptotic entries are clean
    const double N = std::ldexp(1.0, n);
    // Row 1: SBT/MSBT, 1 send or recv.
    EXPECT_NEAR(complexity_ratio_vs_msbt(Algorithm::sbt,
                                         PortModel::one_port_half_duplex,
                                         Regime::one_packet, n),
                n / (n + 1.0), 0.15);
    EXPECT_NEAR(complexity_ratio_vs_msbt(Algorithm::sbt,
                                         PortModel::one_port_half_duplex,
                                         Regime::many_packets, n),
                n / 2.0, 0.1);
    // Paper entry "1": the exact formulas give n/(n-1) = 1.11 at n = 10.
    EXPECT_NEAR(complexity_ratio_vs_msbt(Algorithm::sbt,
                                         PortModel::one_port_half_duplex,
                                         Regime::bopt_startup_bound, n),
                1.0, 0.15);
    EXPECT_NEAR(complexity_ratio_vs_msbt(Algorithm::sbt,
                                         PortModel::one_port_half_duplex,
                                         Regime::bopt_transfer_bound, n),
                n / 2.0, 0.1);
    // Row 2: TCBT/MSBT, 1 send or recv.
    EXPECT_NEAR(complexity_ratio_vs_msbt(Algorithm::tcbt,
                                         PortModel::one_port_half_duplex,
                                         Regime::one_packet, n),
                (2.0 * n - 2) / (n + 1), 0.25);
    EXPECT_NEAR(complexity_ratio_vs_msbt(Algorithm::tcbt,
                                         PortModel::one_port_half_duplex,
                                         Regime::many_packets, n),
                1.5, 0.05);
    // Rows 3-4: 1 send and recv.
    EXPECT_NEAR(complexity_ratio_vs_msbt(Algorithm::sbt,
                                         PortModel::one_port_full_duplex,
                                         Regime::many_packets, n),
                static_cast<double>(n), 0.1);
    EXPECT_NEAR(complexity_ratio_vs_msbt(Algorithm::tcbt,
                                         PortModel::one_port_full_duplex,
                                         Regime::many_packets, n),
                2.0, 0.05);
    // Row 5: all ports — SBT/MSBT = log N in the transfer-bound regime.
    EXPECT_NEAR(complexity_ratio_vs_msbt(Algorithm::sbt, PortModel::all_port,
                                         Regime::bopt_transfer_bound, n),
                static_cast<double>(n), 0.1);
    (void)N;
}

TEST(BroadcastModel, RejectsBstRows) {
    EXPECT_THROW((void)propagation_delay(Algorithm::bst,
                                         PortModel::all_port, 5),
                 check_error);
    EXPECT_THROW((void)broadcast_steps(Algorithm::bst, PortModel::all_port,
                                       10, 1, 5),
                 check_error);
}

TEST(PersonalizedModel, Table6RelationsHold) {
    const CommParams params = ipsc_params();
    const double M = 1024;
    for (dim_t n = 4; n <= 10; ++n) {
        const double sbt1 =
            personalized_tmin(Algorithm::sbt, false, M, n, params);
        const double sbt_all =
            personalized_tmin(Algorithm::sbt, true, M, n, params);
        const double bst_all =
            personalized_tmin(Algorithm::bst, true, M, n, params);
        const double tcbt1 =
            personalized_tmin(Algorithm::tcbt, false, M, n, params);
        // All ports buys the SBT a factor 2 in transfer time.
        EXPECT_LT(sbt_all, sbt1);
        // The BST all-port beats the SBT all-port by ≈ (1/2) log N when
        // transfer dominates.
        const CommParams transfer_bound{1e-9, 1.0};
        const double ratio =
            personalized_tmin(Algorithm::sbt, true, M, n, transfer_bound) /
            personalized_tmin(Algorithm::bst, true, M, n, transfer_bound);
        EXPECT_NEAR(ratio, n / 2.0, 0.2);
        // TCBT is never better than SBT at one port.
        EXPECT_GE(tcbt1, sbt1);
        (void)bst_all;
    }
}

TEST(PersonalizedModel, SmallPacketStepsMatchSection42) {
    const dim_t n = 6;
    const double N = 64;
    EXPECT_DOUBLE_EQ(
        personalized_steps_small_packets(Algorithm::sbt, false, 8, 8, n),
        N - 1);
    EXPECT_DOUBLE_EQ(
        personalized_steps_small_packets(Algorithm::bst, false, 8, 8, n),
        N - 1);
    EXPECT_DOUBLE_EQ(
        personalized_steps_small_packets(Algorithm::bst, true, 8, 8, n),
        (N - 1) / n);
    EXPECT_DOUBLE_EQ(
        personalized_steps_small_packets(Algorithm::sbt, true, 8, 8, n),
        N / 2);
    EXPECT_THROW((void)personalized_steps_small_packets(Algorithm::sbt, true,
                                                        8, 16, n),
                 check_error);
}

TEST(BroadcastModel, FitParamsRecoversMachineConstants) {
    const CommParams truth = ipsc_params();
    const double t1 = truth.tau + 128 * truth.tc;
    const double t2 = truth.tau + 1024 * truth.tc;
    const CommParams fit = fit_params(128, t1, 1024, t2);
    EXPECT_NEAR(fit.tau, truth.tau, 1e-12);
    EXPECT_NEAR(fit.tc, truth.tc, 1e-15);
}

TEST(BroadcastModel, FitParamsRejectsDegenerateInput) {
    EXPECT_THROW((void)fit_params(100, 1.0, 100, 2.0), check_error);
    EXPECT_THROW((void)fit_params(100, 2.0, 200, 1.0), check_error);
}

TEST(PersonalizedModel, RejectsNonTable6Rows) {
    EXPECT_THROW(
        (void)personalized_tmin(Algorithm::hp, false, 10, 5, ipsc_params()),
        check_error);
}

} // namespace
} // namespace hcube::model
