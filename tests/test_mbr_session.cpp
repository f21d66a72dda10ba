// Membership through the service layer: epoch-keyed plan caching with
// surgical invalidation, structured preflight rejection, and the
// differential guarantee that a full view lowers every signature to the
// byte-identical pre-membership schedule.
#include "svc/session.hpp"

#include "common/check.hpp"
#include "mbr/view.hpp"
#include "svc/service.hpp"
#include "svc/signature.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

namespace hcube::svc {
namespace {

using model::CommParams;

constexpr CommParams synthetic{1.0, 1e-6};

Signature sig_of(Op op, Family family, dim_t n, node_t root,
                 sim::packet_t packets, std::uint32_t block) {
    Signature s;
    s.op = op;
    s.family = family;
    s.n = n;
    s.root = root;
    s.packets = packets;
    s.block_elems = block;
    return s;
}

SessionParams fast_session(std::uint32_t threads = 2) {
    SessionParams p;
    p.threads = threads;
    p.comm = synthetic;
    return p;
}

void expect_same_schedule(const sim::Schedule& a, const sim::Schedule& b) {
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.packet_count, b.packet_count);
    EXPECT_EQ(a.initial_holder, b.initial_holder);
    EXPECT_EQ(a.sends, b.sends);
}

// ------------------------------------------------------------------- diff

TEST(MbrDiff, FullViewLowersEveryFamilyByteIdentically) {
    const std::vector<Signature> sigs = {
        sig_of(Op::broadcast, Family::sbt, 4, 3, 4, 16),
        sig_of(Op::broadcast, Family::msbt, 4, 1, 8, 16),
        sig_of(Op::scatter, Family::sbt, 4, 0, 2, 16),
        sig_of(Op::scatter, Family::bst, 4, 2, 2, 16),
        sig_of(Op::gather, Family::sbt, 4, 5, 2, 16),
        sig_of(Op::reduce, Family::sbt, 4, 0, 2, 16),
        sig_of(Op::allgather, Family::sbt, 4, 0, 1, 16),
        sig_of(Op::alltoall, Family::sbt, 4, 0, 1, 16),
    };
    const mbr::View full(4);
    for (const Signature& sig : sigs) {
        const GeneratedSchedule legacy = make_schedule(sig);
        const GeneratedSchedule member = make_schedule(sig, full);
        expect_same_schedule(member.exec, legacy.exec);
        expect_same_schedule(member.feasibility, legacy.feasibility);
        EXPECT_EQ(member.mode, legacy.mode) << sig.to_string();
    }
}

TEST(MbrDiff, IncompleteViewRefusesNonMemberFamilies) {
    mbr::View view(3);
    view.leave(5);
    EXPECT_THROW((void)make_schedule(
                     sig_of(Op::broadcast, Family::msbt, 3, 0, 6, 16), view),
                 check_error);
    EXPECT_THROW((void)make_schedule(
                     sig_of(Op::allgather, Family::sbt, 3, 0, 1, 16), view),
                 check_error);
    EXPECT_THROW((void)make_schedule(
                     sig_of(Op::broadcast, Family::sbt, 3, 5, 2, 16), view),
                 check_error); // dead root
}

// ---------------------------------------------------------------- session

TEST(MbrSession, PreflightAcceptsTheFullViewAndTransitionsAreStrict) {
    Session session(4, fast_session());
    const Signature ok = sig_of(Op::broadcast, Family::sbt, 4, 0, 2, 16);
    EXPECT_EQ(session.preflight(ok), std::nullopt);
    EXPECT_EQ(session.view_epoch(), 0u);

    // Strictness follows mbr::View, with the session untouched on throw.
    EXPECT_THROW((void)session.join(9), check_error); // already live
    EXPECT_EQ(session.view_epoch(), 0u);
    EXPECT_EQ(session.epoch_evictions(), 0u);
}

TEST(MbrSession, PreflightRejectsDeadRootWithNearestSuggestion) {
    Session session(4, fast_session());
    (void)session.leave(5);
    const auto rejection =
        session.preflight(sig_of(Op::broadcast, Family::sbt, 4, 5, 2, 16));
    ASSERT_TRUE(rejection.has_value());
    EXPECT_EQ(rejection->reason, RejectReason::root_not_live);
    ASSERT_TRUE(rejection->suggested_root.has_value());
    EXPECT_EQ(*rejection->suggested_root, 4u); // 5^4 == 1, nearest flip

    // Families/ops with no incomplete-cube construction are refused on
    // the incomplete sub-cube...
    const auto msbt =
        session.preflight(sig_of(Op::broadcast, Family::msbt, 4, 0, 8, 16));
    ASSERT_TRUE(msbt.has_value());
    EXPECT_EQ(msbt->reason, RejectReason::family_unsupported);
    const auto a2a =
        session.preflight(sig_of(Op::alltoall, Family::sbt, 4, 0, 1, 16));
    ASSERT_TRUE(a2a.has_value());
    EXPECT_EQ(a2a->reason, RejectReason::op_unsupported);
    // ...but stay admissible on a sub-cube the hole does not touch.
    EXPECT_EQ(session.preflight(
                  sig_of(Op::broadcast, Family::msbt, 2, 0, 4, 16)),
              std::nullopt);

    EXPECT_EQ(session
                  .preflight(sig_of(Op::broadcast, Family::sbt, 5, 0, 2, 16))
                  ->reason,
              RejectReason::dimension_out_of_range);
    EXPECT_EQ(session
                  .preflight(sig_of(Op::broadcast, Family::sbt, 4, 16, 2, 16))
                  ->reason,
              RejectReason::root_out_of_range);
}

TEST(MbrSession, ExecutesVerifiedOnAnIncompleteView) {
    Session session(4, fast_session());
    (void)session.leave(9);
    (void)session.leave(14);
    const std::vector<Signature> sigs = {
        sig_of(Op::broadcast, Family::sbt, 4, 0, 3, 16),
        sig_of(Op::scatter, Family::sbt, 4, 0, 2, 16),
        sig_of(Op::gather, Family::sbt, 4, 0, 2, 16),
        sig_of(Op::reduce, Family::sbt, 4, 0, 2, 16),
    };
    for (const Signature& sig : sigs) {
        const ExecStats stats = session.execute(sig);
        EXPECT_TRUE(stats.verified) << sig.to_string();
        EXPECT_EQ(stats.member_count, 14u) << sig.to_string();
        EXPECT_EQ(stats.view_epoch, 2u) << sig.to_string();
    }
}

TEST(MbrSession, TransitionsEvictExactlyTheStaleSubcubes) {
    Session session(4, fast_session());
    const Signature small = sig_of(Op::broadcast, Family::sbt, 3, 0, 2, 16);
    const Signature large = sig_of(Op::broadcast, Family::sbt, 4, 0, 2, 16);
    EXPECT_TRUE(session.execute(small).verified);
    EXPECT_TRUE(session.execute(large).verified);
    EXPECT_EQ(session.cached_plans(), 2u);

    // The hole at 9 is above 2^3: only the 4-cube plan goes stale.
    EXPECT_EQ(session.leave(9), 1u);
    EXPECT_EQ(session.epoch_evictions(), 1u);
    EXPECT_EQ(session.cached_plans(), 1u);
    EXPECT_TRUE(session.execute(small).cache_hit);
    const ExecStats rebuilt = session.execute(large);
    EXPECT_FALSE(rebuilt.cache_hit);
    EXPECT_TRUE(rebuilt.verified);
    EXPECT_EQ(rebuilt.member_count, 15u);

    // Rejoining flips the epoch again: the incomplete-view plan goes too.
    EXPECT_EQ(session.join(9), 1u);
    EXPECT_EQ(session.epoch_evictions(), 2u);
    const ExecStats full_again = session.execute(large);
    EXPECT_FALSE(full_again.cache_hit);
    EXPECT_TRUE(full_again.verified);
    EXPECT_EQ(full_again.member_count, 16u);
    EXPECT_TRUE(session.execute(small).cache_hit); // never touched
}

TEST(MbrSession, ApplyIsOneAtomicTransition) {
    Session session(3, fast_session());
    mbr::Delta delta;
    delta.leaves = {1, 6};
    EXPECT_EQ(session.apply(delta), 0u);
    EXPECT_EQ(session.view_epoch(), 1u); // one bump for the batch
    EXPECT_EQ(session.view().count(), 6u);

    mbr::Delta bad;
    bad.leaves = {1}; // already dead: atomic validation, no mutation
    EXPECT_THROW((void)session.apply(bad), check_error);
    EXPECT_EQ(session.view_epoch(), 1u);
}

TEST(MbrSession, ExecuteThrowsStructuredRejection) {
    Session session(3, fast_session());
    (void)session.leave(5);
    try {
        (void)session.execute(
            sig_of(Op::broadcast, Family::sbt, 3, 5, 2, 16));
        FAIL() << "dead-root execute must throw rejected_error";
    } catch (const rejected_error& ex) {
        EXPECT_EQ(ex.rejection().reason, RejectReason::root_not_live);
        ASSERT_TRUE(ex.rejection().suggested_root.has_value());
        EXPECT_EQ(*ex.rejection().suggested_root, 4u);
    }
}

// ---------------------------------------------------------------- service

TEST(MbrService, RejectionTravelsThroughTheFrontDoor) {
    ServiceParams params;
    params.session = fast_session();
    Service service(3, params);
    (void)service.session().leave(5);
    const Response response =
        service.run(sig_of(Op::broadcast, Family::sbt, 3, 5, 2, 16));
    EXPECT_EQ(response.status, Status::failed);
    ASSERT_TRUE(response.rejection.has_value());
    EXPECT_EQ(response.rejection->reason, RejectReason::root_not_live);
    ASSERT_TRUE(response.rejection->suggested_root.has_value());
    EXPECT_EQ(*response.rejection->suggested_root, 4u);

    // A retargeted request at the suggested root goes through verified.
    const Response retry = service.run(sig_of(
        Op::broadcast, Family::sbt, 3, *response.rejection->suggested_root,
        2, 16));
    EXPECT_EQ(retry.status, Status::ok);
    EXPECT_TRUE(retry.stats.verified);
    EXPECT_EQ(retry.stats.member_count, 7u);
}

} // namespace
} // namespace hcube::svc
