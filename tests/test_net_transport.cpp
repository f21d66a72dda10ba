// The net transport's differential suite: every collective family runs as
// a multi-process socket job (net::run_job) and its assembled final
// memory image is judged by the runtime's verification rule
// (net::image_follows_rule over rt/expected.hpp): the state the schedule
// alone implies, with no second engine's run. On top of the clean sweep,
// seeded wire-fault torture (drops + corruption + forced duplication)
// proves the ack/retransmit/dedup machinery converges to the same bytes,
// and a killed link proves failure stays bounded and reported instead of
// hanging.
#include "net/job.hpp"

#include "rt/plan.hpp"
#include "svc/signature.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hcube::net {
namespace {

svc::Signature sig_of(svc::Op op, svc::Family family, dim_t n, node_t root,
                      packet_t packets, std::uint32_t block) {
    svc::Signature s;
    s.op = op;
    s.family = family;
    s.n = n;
    s.root = root;
    s.packets = packets;
    s.block_elems = block;
    return s;
}

std::string label(const svc::Signature& sig, std::uint32_t procs) {
    return std::string(svc::to_string(sig.op)) + "/" +
           std::string(svc::to_string(sig.family)) + " n=" +
           std::to_string(sig.n) + " procs=" + std::to_string(procs);
}

/// Runs `sig` as a `procs`-process socket job and judges the assembled
/// image by the verification rule.
void run_and_compare(const svc::Signature& sig, std::uint32_t procs,
                     ft::TransportClass transport,
                     const WireFaults::Config& faults = {}) {
    SCOPED_TRACE(label(sig, procs));

    JobSpec spec;
    spec.sig = sig;
    spec.procs = procs;
    spec.transport = transport;
    spec.faults = faults;
    const JobResult result = run_job(spec);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(image_follows_rule(spec, result));
}

// ------------------------------------------------------- clean sweep (uds)

TEST(NetTransport, BroadcastSbtMatchesOracle) {
    for (dim_t n = 3; n <= 6; ++n) {
        run_and_compare(sig_of(svc::Op::broadcast, svc::Family::sbt, n, 1, 4,
                               8),
                        /*procs=*/2 + static_cast<std::uint32_t>(n) % 3,
                        ft::TransportClass::uds);
    }
}

TEST(NetTransport, BroadcastMsbtMatchesOracle) {
    for (dim_t n = 3; n <= 6; ++n) {
        // MSBT needs packets divisible by n: packets = 2n exercises two
        // rounds over the n rotated trees.
        run_and_compare(sig_of(svc::Op::broadcast, svc::Family::msbt, n, 0,
                               static_cast<packet_t>(2 * n), 8),
                        /*procs=*/3, ft::TransportClass::uds);
    }
}

TEST(NetTransport, ScatterSbtAndBstMatchOracle) {
    for (dim_t n = 3; n <= 6; ++n) {
        run_and_compare(sig_of(svc::Op::scatter, svc::Family::sbt, n, 0, 2,
                               8),
                        /*procs=*/4, ft::TransportClass::uds);
        run_and_compare(sig_of(svc::Op::scatter, svc::Family::bst, n, 0, 2,
                               8),
                        /*procs=*/2, ft::TransportClass::uds);
    }
}

TEST(NetTransport, GatherSbtMatchesOracle) {
    for (dim_t n = 3; n <= 6; ++n) {
        run_and_compare(sig_of(svc::Op::gather, svc::Family::sbt, n, 2, 2,
                               8),
                        /*procs=*/3, ft::TransportClass::uds);
    }
}

TEST(NetTransport, ReduceSbtCombinesIdentically) {
    // Combine mode: accumulation ORDER matters for float bit-exactness,
    // so an image byte-equal to the schedule's cycle-by-cycle evaluation
    // proves the socket backend accumulates in schedule order, not just
    // the right set of contributions.
    for (dim_t n = 3; n <= 6; ++n) {
        run_and_compare(sig_of(svc::Op::reduce, svc::Family::sbt, n, 0, 2,
                               8),
                        /*procs=*/4, ft::TransportClass::uds);
    }
}

TEST(NetTransport, AllgatherMatchesOracle) {
    for (dim_t n = 3; n <= 6; ++n) {
        run_and_compare(sig_of(svc::Op::allgather, svc::Family::sbt, n, 0, 1,
                               8),
                        /*procs=*/2, ft::TransportClass::uds);
    }
}

TEST(NetTransport, AlltoallMatchesOracle) {
    for (dim_t n = 3; n <= 5; ++n) {
        run_and_compare(sig_of(svc::Op::alltoall, svc::Family::sbt, n, 0, 1,
                               8),
                        /*procs=*/4, ft::TransportClass::uds);
    }
}

TEST(NetTransport, SingleProcessDegenerateJob) {
    // procs=1: every channel is local, the wire moves nothing — the
    // launcher/collection protocol still has to hold up.
    run_and_compare(sig_of(svc::Op::broadcast, svc::Family::sbt, 4, 0, 2, 8),
                    /*procs=*/1, ft::TransportClass::uds);
}

TEST(NetTransport, RuleRejectsCorruptedAndIncompleteImages) {
    // One move and one combine job: a clean image passes; the same image
    // with one double flipped, or with one slot's dump missing, fails.
    for (const svc::Signature& sig :
         {sig_of(svc::Op::broadcast, svc::Family::sbt, 3, 1, 2, 8),
          sig_of(svc::Op::reduce, svc::Family::sbt, 3, 0, 2, 8)}) {
        SCOPED_TRACE(label(sig, 2));
        JobSpec spec;
        spec.sig = sig;
        spec.procs = 2;
        const JobResult clean = run_job(spec);
        ASSERT_TRUE(clean.ok) << clean.error;
        ASSERT_GE(clean.total_slots, 2u);
        EXPECT_TRUE(image_follows_rule(spec, clean));

        JobResult flipped = clean;
        flipped.memory[flipped.memory.size() / 2] += 1.0;
        EXPECT_FALSE(image_follows_rule(spec, flipped));

        JobResult missing = clean;
        missing.have[missing.have.size() - 1] = 0;
        EXPECT_FALSE(image_follows_rule(spec, missing));
    }
}

// ------------------------------------------------------------ tcp loopback

TEST(NetTransport, TcpLoopbackAllgatherMatchesOracle) {
    run_and_compare(sig_of(svc::Op::allgather, svc::Family::sbt, 3, 0, 1, 8),
                    /*procs=*/2, ft::TransportClass::tcp);
}

// ---------------------------------------------------------------- torture

/// A cross-rank link of the compiled plan (owner(from) != owner(to)) —
/// wire faults on a process-local channel never touch the wire.
bool find_cross_link(const svc::Signature& sig, std::uint32_t procs,
                     node_t& from, node_t& to) {
    const svc::GeneratedSchedule gen = svc::make_schedule(sig);
    const rt::Plan plan =
        rt::compile_plan(gen.exec, gen.mode, sig.block_elems, procs);
    for (std::uint32_t c = 0; c < plan.channel_count; ++c) {
        const auto [f, t] = plan.channel_endpoints(c);
        if (plan.owner_of(f) != plan.owner_of(t)) {
            from = f;
            to = t;
            return true;
        }
    }
    return false;
}

TEST(NetTransport, TortureDropsCorruptionAndDuplicatesConverge) {
    const svc::Signature sig =
        sig_of(svc::Op::broadcast, svc::Family::sbt, 4, 0, 4, 8);
    const std::uint32_t procs = 2;
    node_t from = 0;
    node_t to = 0;
    ASSERT_TRUE(find_cross_link(sig, procs, from, to));

    WireFaults::Config faults;
    faults.plan.drop(from, to, /*at_push=*/0, /*pushes=*/2);
    faults.plan.corrupt(from, to, /*at_push=*/2, /*pushes=*/1, /*salt=*/5);
    faults.duplicate_percent = 100; // every surviving first send is doubled
    faults.seed = 0xc0ffee;

    JobSpec spec;
    spec.sig = sig;
    spec.procs = procs;
    spec.transport = ft::TransportClass::uds;
    spec.faults = faults;
    const JobResult result = run_job(spec);
    ASSERT_TRUE(result.ok) << result.error;

    // The faults demonstrably happened AND were healed.
    EXPECT_GT(result.wire.injected_drop, 0u);
    EXPECT_GT(result.wire.injected_dup, 0u);
    EXPECT_GT(result.wire.retransmits, 0u);
    EXPECT_GT(result.wire.dup_suppressed, 0u);
    EXPECT_GT(result.wire.corrupt_dropped, 0u);
    EXPECT_EQ(result.wire.link_failures, 0u);

    // And the healed run still holds the schedule's expected state.
    EXPECT_TRUE(image_follows_rule(spec, result));
}

TEST(NetTransport, TortureIsDeterministicUnderSeed) {
    const svc::Signature sig =
        sig_of(svc::Op::broadcast, svc::Family::sbt, 3, 0, 4, 8);
    node_t from = 0;
    node_t to = 0;
    ASSERT_TRUE(find_cross_link(sig, 2, from, to));

    WireFaults::Config faults;
    faults.plan.drop(from, to, 0, 1);
    faults.duplicate_percent = 50;
    faults.seed = 42;

    JobSpec spec;
    spec.sig = sig;
    spec.procs = 2;
    spec.transport = ft::TransportClass::uds;
    spec.faults = faults;

    const JobResult a = run_job(spec);
    const JobResult b = run_job(spec);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    // Send-side fault application is a pure function of (seed, schedule):
    // both runs injected the identical perturbation set.
    EXPECT_EQ(a.wire.injected_drop, b.wire.injected_drop);
    EXPECT_EQ(a.wire.injected_dup, b.wire.injected_dup);
    EXPECT_EQ(a.wire.injected_corrupt, b.wire.injected_corrupt);
    EXPECT_EQ(a.memory, b.memory);
}

TEST(NetTransport, KilledLinkFailsBoundedAndReported) {
    const svc::Signature sig =
        sig_of(svc::Op::broadcast, svc::Family::sbt, 3, 0, 2, 8);
    const std::uint32_t procs = 2;
    node_t from = 0;
    node_t to = 0;
    ASSERT_TRUE(find_cross_link(sig, procs, from, to));

    WireFaults::Config faults;
    faults.plan.kill_link(from, to);

    JobSpec spec;
    spec.sig = sig;
    spec.procs = procs;
    spec.transport = ft::TransportClass::uds;
    spec.faults = faults;
    // Tight knobs keep retry exhaustion + the receiver's bounded arrival
    // timeout well under the collection deadline — "bounded" is the test.
    spec.reliable.max_attempts = 3;
    spec.reliable.backoff_base_us = 2'000;
    spec.reliable.backoff_cap_us = 16'000;
    spec.arrival_timeout_us = 100'000;

    const JobResult result = run_job(spec);
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.error.empty());
    EXPECT_GT(result.wire.injected_drop, 0u);
    EXPECT_GT(result.wire.link_failures, 0u);

    // The victim rank reported a detected fault rather than vanishing.
    bool fault_seen = false;
    for (const RankReport& r : result.ranks) {
        fault_seen = fault_seen || (r.reported && r.fault.faulted());
    }
    EXPECT_TRUE(fault_seen);
}

} // namespace
} // namespace hcube::net
