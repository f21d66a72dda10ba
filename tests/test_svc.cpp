// Tests of the concurrent collective service (hcube::svc): the shared LRU
// cache, signature lowering, cost-model selection, the persistent Session
// (plan cache + expected-state verification), and the Service front door
// (admission backpressure, join-in-flight batching, caller-thread hits and
// the builder thread) — including 16 client threads running mixed requests
// concurrently, and hits racing membership churn and evictions, every
// response byte-verified.
#include "svc/service.hpp"

#include "common/check.hpp"
#include "common/lru_cache.hpp"
#include "obs/metrics.hpp"
#include "svc/selector.hpp"
#include "svc/session.hpp"
#include "svc/signature.hpp"
#include "svc_caller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace hcube::svc {
namespace {

using model::CommParams;
using sim::PortModel;

/// Synthetic machine constants with τ/t_c = 10^6: the broadcast crossover
/// lands at a few million elements — big enough that every "small" test
/// message stays on the SBT side, small enough for the bisection to find.
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
    p.comm = synthetic; // skip calibration probes in unit tests
    return p;
}

/// Byte budget that holds any two of `sigs`' cache entries and never all
/// of them: the two largest entries' bytes, measured on a probe session
/// after each entry's first execution (the cost the cache re-prices it
/// to).
std::uint64_t two_entry_budget(dim_t n, const std::vector<Signature>& sigs) {
    Session probe(n, fast_session());
    std::vector<std::uint64_t> bytes;
    for (const Signature& sig : sigs) {
        bytes.push_back(probe.execute(sig).plan_resident_bytes);
    }
    std::ranges::sort(bytes, std::greater<>{});
    return bytes[0] + bytes[1];
}

// ---------------------------------------------------------------- LruCache

TEST(SvcLruCache, MissBuildThenHit) {
    LruCache<int, std::string> cache(4);
    int builds = 0;
    const auto factory = [&] {
        ++builds;
        return std::string("v");
    };
    EXPECT_EQ(cache.get_or_create(7, factory), "v");
    EXPECT_EQ(cache.get_or_create(7, factory), "v");
    EXPECT_EQ(builds, 1);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.evictions, 0u);
}

TEST(SvcLruCache, EvictsLeastRecentlyUsed) {
    LruCache<int, int> cache(2);
    (void)cache.get_or_create(1, [] { return 10; });
    (void)cache.get_or_create(2, [] { return 20; });
    (void)cache.get(1); // touch 1: key 2 is now the LRU entry
    (void)cache.get_or_create(3, [] { return 30; });
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(SvcLruCache, UnboundedNeverEvicts) {
    LruCache<int, int> cache(0);
    for (int k = 0; k < 64; ++k) {
        (void)cache.get_or_create(k, [k] { return k; });
    }
    EXPECT_EQ(cache.size(), 64u);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(SvcLruCache, CapacityOneKeepsOnlyTheNewestEntry) {
    LruCache<int, int> cache(1);
    EXPECT_EQ(cache.get_or_create(1, [] { return 10; }), 10);
    EXPECT_EQ(cache.get_or_create(2, [] { return 20; }), 20);
    EXPECT_FALSE(cache.contains(1));
    EXPECT_TRUE(cache.contains(2));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    // A hit on the sole resident entry must not evict it.
    EXPECT_EQ(cache.get(2).value_or(-1), 20);
    EXPECT_TRUE(cache.contains(2));
}

TEST(SvcLruCache, NeverEvictsTheEntryBeingInserted) {
    // One entry costlier than the whole budget: it is the `keep` entry of
    // its own insertion, so it stays resident alone (best-effort budget)
    // and evicts everything colder.
    LruCache<int, int> cache(10);
    (void)cache.get_or_create(1, [] { return 1; },
                              [](const int&) { return std::uint64_t{4}; });
    (void)cache.get_or_create(2, [] { return 2; },
                              [](const int&) { return std::uint64_t{4}; });
    const int big = cache.get_or_create(
        3, [] { return 3; }, [](const int&) { return std::uint64_t{99}; });
    EXPECT_EQ(big, 3);
    EXPECT_TRUE(cache.contains(3));
    EXPECT_FALSE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_EQ(cache.total_cost(), 99u);
    EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(SvcLruCache, ShedsAnOversizeEntryBeforeTheNextBuild) {
    // An entry costlier than the whole budget stays resident alone until
    // the next miss, which evicts it before its factory runs, so the two
    // values are never held together; entries that fit stay resident
    // through a build and are evicted only by the insertion.
    using Handle = std::shared_ptr<int>;
    LruCache<int, Handle> cache(10);
    const auto costing = [](std::uint64_t c) {
        return [c](const Handle&) { return c; };
    };
    std::weak_ptr<int> big;
    (void)cache.get_or_create(
        1,
        [&] {
            Handle v = std::make_shared<int>(1);
            big = v;
            return v;
        },
        costing(99));
    EXPECT_TRUE(cache.get(1).has_value()); // a hit keeps it
    bool big_alive_in_build = true;
    (void)cache.get_or_create(
        2,
        [&] {
            big_alive_in_build = !big.expired();
            return std::make_shared<int>(2);
        },
        costing(4));
    EXPECT_FALSE(big_alive_in_build);
    EXPECT_FALSE(cache.contains(1));
    EXPECT_EQ(cache.stats().evictions, 1u);

    (void)cache.get_or_create(3, [] { return std::make_shared<int>(3); },
                              costing(4));
    bool fitting_resident_in_build = false;
    (void)cache.get_or_create(
        4,
        [&] {
            fitting_resident_in_build =
                cache.contains(2) && cache.contains(3);
            return std::make_shared<int>(4);
        },
        costing(4));
    EXPECT_TRUE(fitting_resident_in_build);
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
    EXPECT_TRUE(cache.contains(4));
    EXPECT_EQ(cache.total_cost(), 8u);
    EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(SvcLruCache, ByteBudgetEvictsByCostNotCount) {
    // Budget 100: four cost-30 entries fit three at a time — inserting the
    // fourth evicts exactly one (the coldest), not down to a count.
    LruCache<int, int> cache(100);
    const auto cost = [](const int&) { return std::uint64_t{30}; };
    for (int k = 0; k < 4; ++k) {
        (void)cache.get_or_create(k, [k] { return k; }, cost);
    }
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.total_cost(), 90u);
    EXPECT_FALSE(cache.contains(0));
    EXPECT_TRUE(cache.contains(1));
    EXPECT_TRUE(cache.contains(3));
    EXPECT_EQ(cache.budget(), 100u);
}

TEST(SvcLruCache, UpdateCostRepricesAndEvictsColderEntries) {
    LruCache<int, int> cache(100);
    const auto cost = [](const int&) { return std::uint64_t{20}; };
    for (int k = 0; k < 4; ++k) {
        (void)cache.get_or_create(k, [k] { return k; }, cost);
    }
    EXPECT_EQ(cache.total_cost(), 80u);
    // Re-pricing the hottest entry to 70 pushes the total to 130: the two
    // coldest entries go, the re-priced entry itself is protected.
    cache.update_cost(3, 70);
    EXPECT_TRUE(cache.contains(3));
    EXPECT_FALSE(cache.contains(0));
    EXPECT_FALSE(cache.contains(1));
    EXPECT_TRUE(cache.contains(2));
    EXPECT_EQ(cache.total_cost(), 90u);
    cache.update_cost(42, 1); // unknown key: no-op
    EXPECT_EQ(cache.total_cost(), 90u);
}

TEST(SvcLruCache, ClearResetsResidencyAndCost) {
    LruCache<int, int> cache(8);
    (void)cache.get_or_create(1, [] { return 1; });
    (void)cache.get_or_create(2, [] { return 2; });
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.total_cost(), 0u);
    // The recency list is empty too: fresh inserts and evictions work.
    for (int k = 0; k < 12; ++k) {
        (void)cache.get_or_create(k, [k] { return k; });
    }
    EXPECT_EQ(cache.size(), 8u);
}

TEST(SvcLruCache, EraseIfRemovesMatchesAndRefundsTheirCost) {
    LruCache<int, int> cache(100);
    const auto cost = [](const int& v) {
        return static_cast<std::uint64_t>(v);
    };
    for (int k = 1; k <= 4; ++k) {
        (void)cache.get_or_create(k, [k] { return 10 * k; }, cost);
    }
    EXPECT_EQ(cache.total_cost(), 100u);
    const std::size_t erased = cache.erase_if(
        [](const int& key, const int&) { return key % 2 == 0; });
    EXPECT_EQ(erased, 2u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.total_cost(), 40u); // 10 + 30 refunded exactly
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
    EXPECT_FALSE(cache.contains(4));
    EXPECT_EQ(cache.stats().evictions, 2u);
    // The predicate sees the value too.
    EXPECT_EQ(cache.erase_if(
                  [](const int&, const int& value) { return value >= 30; }),
              1u);
    EXPECT_EQ(cache.total_cost(), 10u);
}

TEST(SvcLruCache, EraseIfKeepsTheRecencyListCoherent) {
    // Mass-erase the interior of the recency list, then drive the cache to
    // capacity: survivors must still evict in strict LRU order — a broken
    // unlink would corrupt the list and evict the wrong entries (or crash).
    LruCache<int, int> cache(4);
    for (int k = 0; k < 4; ++k) {
        (void)cache.get_or_create(k, [k] { return k; });
    }
    (void)cache.get(0); // recency (cold to hot): 1, 2, 3, 0
    EXPECT_EQ(cache.erase_if(
                  [](const int& key, const int&) { return key == 2; }),
              1u);
    EXPECT_EQ(cache.size(), 3u);
    // Fill back up and overflow by one: the coldest survivor (1) goes.
    (void)cache.get_or_create(5, [] { return 5; });
    (void)cache.get_or_create(6, [] { return 6; });
    EXPECT_FALSE(cache.contains(1));
    EXPECT_TRUE(cache.contains(3));
    EXPECT_TRUE(cache.contains(0));
    EXPECT_TRUE(cache.contains(5));
    EXPECT_TRUE(cache.contains(6));

    // Erasing everything leaves a healthy empty list.
    EXPECT_EQ(cache.erase_if([](const int&, const int&) { return true; }),
              4u);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.total_cost(), 0u);
    for (int k = 10; k < 16; ++k) {
        (void)cache.get_or_create(k, [k] { return k; });
    }
    EXPECT_EQ(cache.size(), 4u);
}

TEST(SvcLruCache, ConcurrentGetOrCreateConverges) {
    LruCache<int, int> cache(8);
    std::atomic<int> builds{0};
    std::vector<std::thread> threads;
    std::vector<int> seen(8, -1);
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            seen[static_cast<std::size_t>(t)] = cache.get_or_create(5, [&] {
                builds.fetch_add(1);
                return 55;
            });
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    for (const int v : seen) {
        EXPECT_EQ(v, 55);
    }
    EXPECT_GE(builds.load(), 1); // raced duplicate builds are discarded
}

// --------------------------------------------------------------- Signature

TEST(SvcSignature, MsbtBroadcastRequiresDivisiblePackets) {
    EXPECT_NO_THROW(
        (void)make_schedule(sig_of(Op::broadcast, Family::msbt, 3, 0, 6, 8)));
    EXPECT_THROW(
        (void)make_schedule(sig_of(Op::broadcast, Family::msbt, 3, 0, 7, 8)),
        check_error);
}

TEST(SvcSignature, RejectsFamilyOpMismatches) {
    EXPECT_THROW(
        (void)make_schedule(sig_of(Op::broadcast, Family::bst, 3, 0, 4, 8)),
        check_error);
    EXPECT_THROW(
        (void)make_schedule(sig_of(Op::scatter, Family::msbt, 3, 0, 2, 8)),
        check_error);
    EXPECT_THROW(
        (void)make_schedule(sig_of(Op::reduce, Family::bst, 3, 0, 2, 8)),
        check_error);
}

TEST(SvcSignature, ReduceLowersToCombineModeWithForwardFeasibility) {
    const GeneratedSchedule gen =
        make_schedule(sig_of(Op::reduce, Family::sbt, 3, 2, 2, 8));
    EXPECT_EQ(gen.mode, rt::DataMode::combine);
    EXPECT_EQ(gen.exec.sends.size(), gen.feasibility.sends.size());
    // Every packet starts at the reduction root in the combining schedule.
    for (const node_t holder : gen.exec.initial_holder) {
        EXPECT_EQ(holder, 2u);
    }
}

// ---------------------------------------------------------------- Selector

TEST(SvcSelector, SbtBelowCrossoverMsbtAbove) {
    const AlgorithmSelector selector(synthetic);
    const PortModel model = PortModel::one_port_full_duplex;
    for (const dim_t n : {3, 4, 6}) {
        const std::uint64_t cross = selector.broadcast_crossover(n, model);
        ASSERT_GT(cross, 1u);
        const Selection below =
            selector.select(Op::broadcast, n, cross - 1, model);
        const Selection above =
            selector.select(Op::broadcast, n, cross, model);
        EXPECT_EQ(below.family, Family::sbt) << "n=" << n;
        EXPECT_EQ(above.family, Family::msbt) << "n=" << n;
        EXPECT_LT(below.predicted_seconds, below.rejected_seconds);
        EXPECT_LT(above.predicted_seconds, above.rejected_seconds);
    }
}

TEST(SvcSelector, MsbtPacketizationIsDivisibleAndCovers) {
    const AlgorithmSelector selector(synthetic);
    const PortModel model = PortModel::one_port_full_duplex;
    const dim_t n = 4;
    const std::uint64_t big = selector.broadcast_crossover(n, model) * 4;
    const Selection sel = selector.select(Op::broadcast, n, big, model);
    ASSERT_EQ(sel.family, Family::msbt);
    EXPECT_EQ(sel.packets % static_cast<sim::packet_t>(n), 0u);
    EXPECT_GE(std::uint64_t{sel.packets} * sel.block_elems, big);
}

TEST(SvcSelector, SingleVsPipelinedPacketRegimes) {
    const AlgorithmSelector selector(synthetic);
    const PortModel model = PortModel::one_port_full_duplex;
    // One-packet regime: the SBT sends the whole message once per
    // dimension (B_opt = M, a single packet).
    const Selection small = selector.select(Op::broadcast, 4, 100, model);
    EXPECT_EQ(small.family, Family::sbt);
    EXPECT_EQ(small.packets, 1u);
    EXPECT_EQ(small.block_elems, 100u);
    // Far above the crossover the MSBT pipelines many packets.
    const std::uint64_t big =
        selector.broadcast_crossover(4, model) * 16;
    const Selection large = selector.select(Op::broadcast, 4, big, model);
    EXPECT_EQ(large.family, Family::msbt);
    EXPECT_GT(large.packets, 1u);
}

TEST(SvcSelector, ScatterPrefersBalancedTree) {
    const AlgorithmSelector selector(synthetic);
    const Selection sel = selector.select(
        Op::scatter, 4, 64, PortModel::one_port_full_duplex);
    EXPECT_EQ(sel.family, Family::bst);
    EXPECT_EQ(sel.packets, 1u);
}

// ----------------------------------------------------------------- Session

TEST(SvcSession, ExecutesEveryOpVerified) {
    Session session(3, fast_session());
    const std::vector<Signature> sigs = {
        sig_of(Op::broadcast, Family::sbt, 3, 0, 4, 16),
        sig_of(Op::broadcast, Family::msbt, 3, 1, 6, 16),
        sig_of(Op::scatter, Family::bst, 3, 0, 2, 16),
        sig_of(Op::gather, Family::sbt, 3, 0, 2, 16),
        sig_of(Op::reduce, Family::sbt, 3, 0, 2, 16),
        sig_of(Op::allgather, Family::sbt, 3, 0, 1, 16),
        sig_of(Op::alltoall, Family::sbt, 3, 0, 1, 16),
    };
    for (const Signature& sig : sigs) {
        const ExecStats stats = session.execute(sig);
        EXPECT_TRUE(stats.verified) << sig.to_string();
        EXPECT_FALSE(stats.cache_hit) << sig.to_string();
        EXPECT_TRUE(stats.full_check) << sig.to_string();
        EXPECT_GT(stats.blocks_delivered, 0u) << sig.to_string();
    }
    EXPECT_EQ(session.cached_plans(), sigs.size());
}

TEST(SvcSession, FullCheckOnFirstExecutionOfEachEntry) {
    // Both data modes through a cache that holds two entries: every
    // entry's first execution runs the full expected-state check, repeats
    // take the steady-state path, and so does a re-built entry after an
    // eviction or a membership transition.
    const Signature move = sig_of(Op::broadcast, Family::sbt, 3, 0, 4, 16);
    const Signature combine = sig_of(Op::reduce, Family::sbt, 3, 0, 2, 16);
    const Signature other = sig_of(Op::scatter, Family::sbt, 3, 0, 2, 16);
    SessionParams params = fast_session();
    params.plan_cache_bytes = two_entry_budget(3, {move, combine, other});
    Session session(3, params);
    const auto expect_first_then_steady = [&](const Signature& sig,
                                              const char* when) {
        SCOPED_TRACE(sig.to_string() + " " + when);
        const ExecStats first = session.execute(sig);
        EXPECT_TRUE(first.verified);
        EXPECT_FALSE(first.cache_hit);
        EXPECT_TRUE(first.full_check);
        for (int i = 0; i < 2; ++i) {
            const ExecStats repeat = session.execute(sig);
            EXPECT_TRUE(repeat.verified);
            EXPECT_TRUE(repeat.cache_hit);
            EXPECT_FALSE(repeat.full_check);
        }
    };
    expect_first_then_steady(move, "first");
    expect_first_then_steady(combine, "first");
    expect_first_then_steady(other, "first"); // evicts move (the LRU)
    EXPECT_EQ(session.cache_stats().evictions, 1u);
    expect_first_then_steady(move, "after eviction");
    // Node 5 leaving bumps the 3-cube's epoch: every resident entry is
    // stale, so both data modes start over on the new member set.
    EXPECT_EQ(session.leave(5), 2u);
    expect_first_then_steady(move, "after leave");
    expect_first_then_steady(combine, "after leave");
    const hcube::CacheStats stats = session.cache_stats();
    EXPECT_EQ(stats.misses, 6u);
    EXPECT_EQ(stats.hits, 12u);
}

TEST(SvcSession, HitsDeriveNoCanonicalDigest) {
    // An entry's first execution proves its plan's digest table (one
    // canonical derivation per packet of a move plan, none for a combine
    // plan); a hit checks against the arena and generates no block at all.
    const obs::Counter& derived =
        obs::registry().counter("rt.canonical_digests");
    Session session(4, fast_session());
    const struct {
        Signature sig;
        std::uint64_t first; ///< derivations on the miss: its packets
    } cases[] = {
        {sig_of(Op::broadcast, Family::sbt, 4, 0, 4, 16), 4},
        {sig_of(Op::broadcast, Family::msbt, 4, 3, 8, 16), 8},
        {sig_of(Op::scatter, Family::bst, 4, 0, 2, 16), 2 * 15},
        {sig_of(Op::reduce, Family::sbt, 4, 0, 2, 16), 0},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(c.sig.to_string());
        std::uint64_t before = derived.value();
        const ExecStats miss = session.execute(c.sig);
        EXPECT_TRUE(miss.verified);
        EXPECT_TRUE(miss.full_check);
        EXPECT_EQ(derived.value() - before, c.first);
        before = derived.value();
        for (int i = 0; i < 3; ++i) {
            const ExecStats hit = session.execute(c.sig);
            EXPECT_TRUE(hit.verified);
            EXPECT_TRUE(hit.cache_hit);
        }
        EXPECT_EQ(derived.value() - before, 0u);
    }
}

TEST(SvcSession, CacheEvictionRecompiles) {
    const Signature a = sig_of(Op::broadcast, Family::sbt, 3, 0, 2, 16);
    const Signature b = sig_of(Op::broadcast, Family::sbt, 3, 1, 2, 16);
    const Signature c = sig_of(Op::broadcast, Family::sbt, 3, 2, 2, 16);
    SessionParams params = fast_session();
    params.plan_cache_bytes = two_entry_budget(3, {a, b, c});
    Session session(3, params);
    EXPECT_FALSE(session.execute(a).cache_hit);
    EXPECT_FALSE(session.execute(b).cache_hit);
    EXPECT_TRUE(session.execute(b).cache_hit);
    EXPECT_FALSE(session.execute(c).cache_hit); // evicts a (the LRU entry)
    EXPECT_EQ(session.cached_plans(), 2u);
    EXPECT_EQ(session.cache_stats().evictions, 1u);
    const ExecStats again = session.execute(a); // recompiled, re-verified
    EXPECT_FALSE(again.cache_hit);
    EXPECT_TRUE(again.full_check);
    EXPECT_TRUE(again.verified);
}

TEST(SvcSession, PlanSignatureFollowsSelector) {
    Session session(4, fast_session());
    const Signature small = session.plan_signature(Op::broadcast, 0, 128);
    EXPECT_EQ(small.family, Family::sbt);
    EXPECT_EQ(small.n, 4);
    const std::uint64_t big =
        session.selector().broadcast_crossover(
            4, PortModel::one_port_full_duplex) *
        4;
    const Signature large = session.plan_signature(Op::broadcast, 0, big);
    EXPECT_EQ(large.family, Family::msbt);
    EXPECT_TRUE(session.execute(small).verified);
}

TEST(SvcSession, RejectsWrongDimension) {
    Session session(3, fast_session());
    EXPECT_THROW((void)session.execute(
                     sig_of(Op::broadcast, Family::sbt, 4, 0, 2, 16)),
                 check_error);
    EXPECT_THROW((void)session.execute(
                     sig_of(Op::broadcast, Family::sbt, 0, 0, 2, 16)),
                 check_error);
}

TEST(SvcSession, ServesMixedSubCubeDimensions) {
    // One session, one byte budget, signatures from 1-cube to 4-cube: the
    // residency story the byte-budgeted cache exists for.
    Session session(4, fast_session(4));
    for (dim_t n = 1; n <= 4; ++n) {
        const ExecStats stats = session.execute(
            sig_of(Op::broadcast, Family::sbt, n, 0, 2, 16));
        EXPECT_TRUE(stats.verified) << "n=" << int{n};
        EXPECT_GT(stats.plan_resident_bytes, 0u) << "n=" << int{n};
    }
    EXPECT_EQ(session.cached_plans(), 4u);
}

TEST(SvcSession, ReportsExactResidentBytes) {
    Session session(3, fast_session());
    const Signature a = sig_of(Op::broadcast, Family::sbt, 3, 0, 4, 16);
    const Signature b = sig_of(Op::reduce, Family::sbt, 3, 0, 2, 16);
    const ExecStats sa = session.execute(a);
    const ExecStats sb = session.execute(b);
    EXPECT_GT(sa.plan_resident_bytes, 0u);
    EXPECT_GT(sb.plan_resident_bytes, 0u);
    // The cache is charged exactly what each entry reports.
    EXPECT_EQ(session.cache_resident_bytes(),
              sa.plan_resident_bytes + sb.plan_resident_bytes);
    // A hit reports the same entry bytes as the compile that built it.
    const ExecStats repeat = session.execute(a);
    EXPECT_TRUE(repeat.cache_hit);
    EXPECT_EQ(repeat.plan_resident_bytes, sa.plan_resident_bytes);
}

TEST(SvcSession, ByteBudgetEvictsColdPlans) {
    // Measure one entry, then budget the next session at 1.5 entries: two
    // same-shape signatures can never be resident together.
    const Signature a = sig_of(Op::broadcast, Family::sbt, 3, 0, 4, 16);
    const Signature b = sig_of(Op::broadcast, Family::sbt, 3, 1, 4, 16);
    std::uint64_t entry_bytes = 0;
    {
        SessionParams params = fast_session();
        params.plan_cache_bytes = 64u << 20;
        Session probe(3, params);
        entry_bytes = probe.execute(a).plan_resident_bytes;
        ASSERT_GT(entry_bytes, 0u);
        EXPECT_EQ(probe.cache_resident_bytes(), entry_bytes);
    }
    SessionParams params = fast_session();
    params.plan_cache_bytes = entry_bytes + entry_bytes / 2;
    Session session(3, params);
    EXPECT_FALSE(session.execute(a).cache_hit);
    EXPECT_FALSE(session.execute(b).cache_hit); // evicts a
    EXPECT_EQ(session.cached_plans(), 1u);
    EXPECT_EQ(session.cache_stats().evictions, 1u);
    EXPECT_LE(session.cache_resident_bytes(), params.plan_cache_bytes);
    const ExecStats again = session.execute(a); // recompiled, re-verified
    EXPECT_FALSE(again.cache_hit);
    EXPECT_TRUE(again.full_check);
    EXPECT_TRUE(again.verified);
}

TEST(SvcSession, ByteBudgetHoldsManySmallPlans) {
    // A generous budget keeps a whole mixed population resident: repeats
    // are all steady-state hits and the charged bytes stay within budget.
    SessionParams params = fast_session(4);
    params.plan_cache_bytes = 64u << 20;
    Session session(5, params);
    std::vector<Signature> sigs;
    for (dim_t n = 2; n <= 5; ++n) {
        for (node_t root = 0; root < 4; ++root) {
            sigs.push_back(sig_of(Op::broadcast, Family::sbt, n,
                                  root % (node_t{1} << n), 2, 16));
        }
    }
    for (const Signature& sig : sigs) {
        EXPECT_TRUE(session.execute(sig).verified);
    }
    for (const Signature& sig : sigs) {
        const ExecStats stats = session.execute(sig);
        EXPECT_TRUE(stats.cache_hit) << sig.to_string();
        EXPECT_TRUE(stats.verified) << sig.to_string();
    }
    EXPECT_EQ(session.cache_stats().evictions, 0u);
    EXPECT_LE(session.cache_resident_bytes(), params.plan_cache_bytes);
    EXPECT_GT(session.cache_resident_bytes(), 0u);
}

// ----------------------------------------------------------------- Service

ServiceParams fast_service(std::uint32_t threads = 2) {
    ServiceParams p;
    p.session = fast_session(threads);
    return p;
}

TEST(SvcService, RunExecutesAndVerifies) {
    Service service(3, fast_service());
    const Response r =
        service.run(sig_of(Op::broadcast, Family::sbt, 3, 0, 4, 16));
    EXPECT_EQ(r.status, Status::ok);
    EXPECT_TRUE(r.stats.verified);
    EXPECT_FALSE(r.batched);
}

TEST(SvcService, InvalidSignatureFailsWithError) {
    Service service(3, fast_service());
    const Response r =
        service.run(sig_of(Op::broadcast, Family::msbt, 3, 0, 7, 16));
    EXPECT_EQ(r.status, Status::failed);
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(service.counters().failed, 1u);
}

TEST(SvcService, RejectPolicyBouncesWhenQueueFull) {
    ServiceParams params = fast_service();
    params.queue_depth = 2;
    params.admission = Admission::reject;
    Service service(3, params);
    service.pause(); // admitted requests park: both slots stay held
    const Signature sig = sig_of(Op::broadcast, Family::sbt, 3, 0, 2, 16);
    Caller first(service, sig);
    Caller second(service, sig);
    const ResumeOnExit resume_on_exit(service);
    ASSERT_TRUE(eventually([&] { return service.counters().submitted == 2; }));
    const Response bounced = service.run(sig); // answered at once
    EXPECT_EQ(bounced.status, Status::rejected);
    EXPECT_EQ(service.counters().rejected, 1u);
    service.resume();
    for (Caller* caller : {&first, &second}) {
        const Response r = caller->get();
        EXPECT_EQ(r.status, Status::ok);
        EXPECT_TRUE(r.stats.verified);
    }
}

TEST(SvcService, BlockPolicyWaitsForASlot) {
    ServiceParams params = fast_service();
    params.queue_depth = 1;
    params.admission = Admission::block;
    Service service(3, params);
    service.pause();
    const Signature a = sig_of(Op::broadcast, Family::sbt, 3, 0, 2, 16);
    const Signature b = sig_of(Op::broadcast, Family::sbt, 3, 1, 2, 16);
    Caller first(service, a); // holds the only slot, parked
    const ResumeOnExit resume_first(service);
    ASSERT_TRUE(eventually([&] { return service.counters().submitted == 1; }));
    Caller second(service, b); // blocks in admission
    const ResumeOnExit resume_second(service);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(service.counters().submitted, 1u); // still backpressured
    EXPECT_FALSE(second.done());
    service.resume(); // the first request runs; its slot admits the second
    EXPECT_EQ(second.get().status, Status::ok);
    EXPECT_EQ(service.counters().submitted, 2u);
    EXPECT_EQ(first.get().status, Status::ok);
}

TEST(SvcService, BatchingCoalescesEqualSignatures) {
    ServiceParams params = fast_service();
    params.queue_depth = 16;
    Service service(3, params);
    service.pause();
    const Signature hot = sig_of(Op::broadcast, Family::sbt, 3, 0, 2, 16);
    const Signature cold = sig_of(Op::scatter, Family::bst, 3, 0, 2, 16);
    std::vector<std::unique_ptr<Caller>> hot_callers;
    for (int i = 0; i < 4; ++i) {
        hot_callers.push_back(std::make_unique<Caller>(service, hot));
    }
    Caller cold_caller(service, cold);
    const ResumeOnExit resume_on_exit(service);
    // The first hot request registered its run and parked; the other three
    // joined it.
    ASSERT_TRUE(eventually([&] {
        const Service::Counters c = service.counters();
        return c.submitted == 5 && c.batched == 3;
    }));
    service.resume();
    service.drain();
    int riders = 0;
    for (auto& caller : hot_callers) {
        const Response r = caller->get();
        EXPECT_EQ(r.status, Status::ok);
        EXPECT_TRUE(r.stats.verified);
        riders += r.batched ? 1 : 0;
    }
    EXPECT_EQ(riders, 3); // one executed, three rode along
    EXPECT_EQ(cold_caller.get().status, Status::ok);
    const Service::Counters counters = service.counters();
    EXPECT_EQ(counters.submitted, 5u);
    EXPECT_EQ(counters.batched, 3u);
    EXPECT_EQ(counters.executed, 2u);
}

TEST(SvcService, DrainOutlivesQueuedWork) {
    const auto answered = [](const obs::RegistrySnapshot& snap) {
        const obs::MetricSnapshot* m = snap.find("svc.tenant.0.op_ns");
        return m != nullptr ? m->hist.count : 0;
    };
    const obs::RegistrySnapshot base = obs::registry().snapshot();
    Service service(3, fast_service());
    service.pause();
    const Signature sig = sig_of(Op::broadcast, Family::sbt, 3, 0, 2, 16);
    std::vector<std::unique_ptr<Caller>> callers;
    for (int i = 0; i < 8; ++i) {
        callers.push_back(std::make_unique<Caller>(service, sig));
    }
    const ResumeOnExit resume_on_exit(service);
    ASSERT_TRUE(eventually([&] { return service.counters().submitted == 8; }));
    service.resume();
    service.drain();
    // drain() returned only once every admitted request was answered: a
    // request records its tenant latency after its answer and before it
    // frees its slot.
    const obs::RegistrySnapshot now = obs::registry().snapshot();
    EXPECT_EQ(answered(now) - answered(base), 8u);
    EXPECT_EQ(now.gauge("svc.queue_depth"), base.gauge("svc.queue_depth"));
    const Service::Counters counters = service.counters();
    EXPECT_EQ(counters.executed + counters.batched, 8u);
    for (auto& caller : callers) {
        EXPECT_EQ(caller->get().status, Status::ok);
    }
}

TEST(SvcService, RiderReceivesTheRunItJoined) {
    Service service(3, fast_service());
    service.pause();
    const Signature sig = sig_of(Op::gather, Family::sbt, 3, 5, 2, 16);
    Caller executor(service, sig); // registers its run, then parks
    const ResumeOnExit resume_executor(service);
    ASSERT_TRUE(eventually([&] { return service.counters().submitted == 1; }));
    Caller rider(service, sig); // arrives while that run is in flight
    const ResumeOnExit resume_rider(service);
    ASSERT_TRUE(eventually([&] { return service.counters().batched == 1; }));
    service.resume();
    const Response ran = executor.get();
    const Response rode = rider.get();
    EXPECT_EQ(ran.status, Status::ok);
    EXPECT_TRUE(ran.stats.verified);
    EXPECT_FALSE(ran.batched);
    EXPECT_FALSE(ran.stats.cache_hit);
    EXPECT_EQ(rode.status, Status::ok);
    EXPECT_TRUE(rode.stats.verified);
    EXPECT_TRUE(rode.batched);
    // The rider got the executed run's report: the entry's first, fully
    // checked run, which the rider did not play itself.
    EXPECT_TRUE(ran.stats.full_check);
    EXPECT_TRUE(rode.stats.full_check);
    EXPECT_EQ(rode.stats.rt_cycles, ran.stats.rt_cycles);
    EXPECT_EQ(rode.stats.blocks_delivered, ran.stats.blocks_delivered);
    EXPECT_EQ(service.counters().executed, 1u);
    EXPECT_EQ(service.session().cache_stats().misses, 1u);
    EXPECT_EQ(service.session().cache_stats().hits, 0u);
}

TEST(SvcService, EachExecutionCountsOneCacheLookup) {
    // Hits run on the caller, misses on the builder thread, riders run
    // nothing: the plan cache sees exactly one lookup per execution.
    const obs::RegistrySnapshot base = obs::registry().snapshot();
    Service service(4, fast_service());
    const std::vector<Signature> sigs = {
        sig_of(Op::broadcast, Family::sbt, 4, 3, 2, 16),
        sig_of(Op::scatter, Family::bst, 4, 0, 1, 16),
        sig_of(Op::reduce, Family::sbt, 3, 1, 1, 16),
    };
    for (int pass = 0; pass < 2; ++pass) {
        for (const Signature& sig : sigs) {
            const Response r = service.run(sig);
            EXPECT_EQ(r.status, Status::ok);
            EXPECT_TRUE(r.stats.verified);
            EXPECT_EQ(r.stats.cache_hit, pass == 1);
        }
    }
    service.pause();
    Caller executor(service, sigs[0]);
    const ResumeOnExit resume_executor(service);
    ASSERT_TRUE(eventually([&] { return service.counters().submitted == 7; }));
    Caller rider(service, sigs[0]);
    const ResumeOnExit resume_rider(service);
    ASSERT_TRUE(eventually([&] { return service.counters().batched == 1; }));
    service.resume();
    EXPECT_TRUE(executor.get().stats.verified);
    EXPECT_TRUE(rider.get().batched);

    const Service::Counters c = service.counters();
    const hcube::CacheStats cs = service.session().cache_stats();
    EXPECT_EQ(c.executed, 7u);
    EXPECT_EQ(cs.hits + cs.misses, c.executed);
    EXPECT_EQ(cs.misses, sigs.size());
    EXPECT_EQ(c.submitted, c.executed + c.batched);
    // Only the three misses crossed to the builder thread.
    EXPECT_EQ(obs::registry().snapshot().counter("svc.builder_runs") -
                  base.counter("svc.builder_runs"),
              sigs.size());
}

TEST(SvcService, DestructionAnswersParkedCallers) {
    // Declared first, the callers outlive the service: on every path out
    // of the test its destructor must answer them before they join.
    std::optional<Caller> first;
    std::optional<Caller> second;
    std::optional<Caller> third;
    auto service = std::make_unique<Service>(3, fast_service());
    service->pause();
    const Signature a = sig_of(Op::broadcast, Family::sbt, 3, 0, 2, 16);
    const Signature b = sig_of(Op::scatter, Family::sbt, 3, 2, 1, 16);
    first.emplace(*service, a);
    second.emplace(*service, b);
    third.emplace(*service, a);
    ASSERT_TRUE(
        eventually([&] { return service->counters().submitted == 3; }));
    service.reset(); // releases the parked callers and answers them
    for (std::optional<Caller>* caller : {&first, &second, &third}) {
        const Response r = (*caller)->get();
        EXPECT_EQ(r.status, Status::ok);
        EXPECT_TRUE(r.stats.verified);
    }
}

// ------------------------------------------------------------- Concurrency

TEST(SvcConcurrent, SixteenClientsMixedOpsAllVerified) {
    ServiceParams params = fast_service(4);
    params.queue_depth = 256;
    Service service(3, params);
    const std::vector<Signature> mix = {
        sig_of(Op::broadcast, Family::sbt, 3, 0, 4, 16),
        sig_of(Op::broadcast, Family::msbt, 3, 0, 6, 16),
        sig_of(Op::scatter, Family::bst, 3, 0, 2, 16),
        sig_of(Op::gather, Family::sbt, 3, 0, 2, 16),
        sig_of(Op::reduce, Family::sbt, 3, 0, 2, 16),
        sig_of(Op::allgather, Family::sbt, 3, 0, 1, 16),
    };
    constexpr int kClients = 16;
    constexpr int kPerClient = 6;
    std::atomic<int> verified{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < kPerClient; ++i) {
                const Signature& sig =
                    mix[static_cast<std::size_t>(c + i) % mix.size()];
                const Response r = service.run(sig);
                if (r.status == Status::ok && r.stats.verified) {
                    verified.fetch_add(1);
                }
            }
        });
    }
    for (auto& t : clients) {
        t.join();
    }
    EXPECT_EQ(verified.load(), kClients * kPerClient);
    // Six distinct signatures compiled once each; everything else hit the
    // cache (or rode along on a batched execution).
    EXPECT_EQ(service.session().cached_plans(), mix.size());
    const hcube::CacheStats stats = service.session().cache_stats();
    EXPECT_EQ(stats.misses, mix.size());
}

TEST(SvcConcurrent, HitsRaceChurnAndEvictions) {
    // Four callers replay three hot signatures and now and then one of two
    // cold ones, while a fifth thread leaves and rejoins address 13 (every
    // n = 4 plan goes stale) and a budget of the hot entries plus one cold
    // one keeps evicting: caller-thread hits, builder-thread misses,
    // riders, epoch evictions and LRU evictions all interleave.
    const std::vector<Signature> hot = {
        sig_of(Op::broadcast, Family::sbt, 3, 1, 1, 16),
        sig_of(Op::gather, Family::sbt, 3, 5, 1, 16),
        sig_of(Op::broadcast, Family::sbt, 4, 3, 2, 16),
    };
    const std::vector<Signature> cold = {
        sig_of(Op::scatter, Family::sbt, 4, 0, 1, 16),
        sig_of(Op::reduce, Family::sbt, 4, 6, 1, 16),
    };
    std::uint64_t budget = 0;
    {
        Session probe(4, fast_session());
        for (const Signature& sig : hot) {
            budget += probe.execute(sig).plan_resident_bytes;
        }
        budget += std::max(probe.execute(cold[0]).plan_resident_bytes,
                           probe.execute(cold[1]).plan_resident_bytes);
    }
    ServiceParams params = fast_service(4);
    params.session.plan_cache_bytes = budget;
    Service service(4, params);
    constexpr int kCallers = 4;
    constexpr int kPerCaller = 40;
    constexpr int kTransitions = 40;
    constexpr node_t kMover = 13;
    std::atomic<int> transitions{0};
    std::thread churn([&] {
        Session& session = service.session();
        for (int t = 0; t < kTransitions; t += 2) {
            (void)session.leave(kMover);
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            (void)session.join(kMover);
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            transitions.fetch_add(2);
        }
    });
    // Every caller keeps replaying until the churn is over, so hits and
    // transitions overlap however the threads are scheduled.
    std::atomic<int> sent{0};
    std::atomic<int> verified{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            for (int i = 0;
                 i < kPerCaller || transitions.load() < kTransitions; ++i) {
                const auto k = static_cast<std::size_t>(c + i);
                const Signature& sig =
                    i % 4 == 3 ? cold[k / 4 % cold.size()] : hot[k % hot.size()];
                const Response r =
                    service.run(Request{sig, static_cast<std::uint32_t>(c)});
                sent.fetch_add(1);
                if (r.status == Status::ok && r.stats.verified) {
                    verified.fetch_add(1);
                }
            }
        });
    }
    for (auto& t : callers) {
        t.join();
    }
    churn.join();
    service.drain();

    EXPECT_EQ(verified.load(), sent.load());
    const Service::Counters c = service.counters();
    EXPECT_EQ(c.submitted, static_cast<std::uint64_t>(sent.load()));
    EXPECT_EQ(c.submitted, c.executed + c.batched);
    EXPECT_EQ(c.failed, 0u);
    const hcube::CacheStats cs = service.session().cache_stats();
    EXPECT_EQ(cs.hits + cs.misses, c.executed);
    EXPECT_GT(cs.hits, 0u);
    EXPECT_GT(cs.evictions, 0u);
}

TEST(SvcConcurrent, ParallelSessionsShareNothing) {
    // Two sessions on different dimensions running concurrently exercise
    // the per-session pool isolation.
    std::atomic<bool> ok{true};
    std::thread t1([&] {
        Session s(3, fast_session());
        for (int i = 0; i < 4; ++i) {
            if (!s.execute(sig_of(Op::broadcast, Family::sbt, 3, 0, 2, 16))
                     .verified) {
                ok.store(false);
            }
        }
    });
    std::thread t2([&] {
        Session s(4, fast_session());
        for (int i = 0; i < 4; ++i) {
            if (!s.execute(sig_of(Op::alltoall, Family::sbt, 4, 0, 1, 16))
                     .verified) {
                ok.store(false);
            }
        }
    });
    t1.join();
    t2.join();
    EXPECT_TRUE(ok.load());
}

} // namespace
} // namespace hcube::svc
