// Observability of the service layer: Service counters re-based on obs
// cells (wait-free counters(), parity with registry mirrors), per-tenant
// latency keyed by Request::client_id, queue instrumentation, Session
// plan-cache metrics, and the engines' run aggregates. The registry is
// process-wide and other suites record into it too, so every assertion is
// delta-based against a snapshot taken at test start.
#include "obs/metrics.hpp"
#include "svc/service.hpp"
#include "svc_caller.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
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

ServiceParams fast_service() {
    ServiceParams p;
    p.session.threads = 2;
    p.session.comm = synthetic;
    return p;
}

/// Counter delta between two registry snapshots.
std::uint64_t delta(const obs::RegistrySnapshot& now,
                    const obs::RegistrySnapshot& base,
                    const std::string& name) {
    return now.counter(name) - base.counter(name);
}

TEST(ObsSvc, CountersMatchRegistryMirrors) {
    const obs::RegistrySnapshot base = obs::registry().snapshot();
    Service service(3, fast_service());
    const Signature sig =
        sig_of(Op::broadcast, Family::sbt, 3, 0, 3, 32);
    for (int i = 0; i < 4; ++i) {
        const Response r = service.run(sig);
        EXPECT_EQ(r.status, Status::ok);
        EXPECT_TRUE(r.stats.verified);
    }
    const Service::Counters c = service.counters();
    EXPECT_EQ(c.submitted, 4u);
    EXPECT_EQ(c.executed, 4u);
    EXPECT_EQ(c.rejected, 0u);
    EXPECT_EQ(c.failed, 0u);

    const obs::RegistrySnapshot now = obs::registry().snapshot();
    EXPECT_GE(delta(now, base, "svc.submitted"), c.submitted);
    EXPECT_GE(delta(now, base, "svc.executed"), c.executed);
    // This service's plan compiled once and replayed three times.
    EXPECT_GE(delta(now, base, "svc.plan_cache.misses"), 1u);
    EXPECT_GE(delta(now, base, "svc.plan_cache.hits"), 3u);
    // Nothing is in flight: the depth gauge is back to zero.
    EXPECT_EQ(now.gauge("svc.queue_depth"), 0);
    // Queue wait and execute latency recorded one sample per request.
    EXPECT_GE(now.find("svc.queue_wait_ns")->hist.count -
                  (base.find("svc.queue_wait_ns") != nullptr
                       ? base.find("svc.queue_wait_ns")->hist.count
                       : 0),
              4u);
}

TEST(ObsSvc, PerTenantLatencyKeyedByClientId) {
    const obs::RegistrySnapshot base = obs::registry().snapshot();
    Service service(3, fast_service());
    const Signature sig =
        sig_of(Op::broadcast, Family::sbt, 3, 0, 2, 32);
    // Three tenants, different request counts — and tenant identity must
    // not defeat batching or fragment the plan cache.
    const std::vector<std::uint32_t> counts = {3, 2, 1};
    for (std::uint32_t tenant = 0; tenant < counts.size(); ++tenant) {
        for (std::uint32_t i = 0; i < counts[tenant]; ++i) {
            const Response r = service.run(Request{sig, 101 + tenant});
            EXPECT_EQ(r.status, Status::ok);
        }
    }
    const obs::RegistrySnapshot now = obs::registry().snapshot();
    for (std::uint32_t tenant = 0; tenant < counts.size(); ++tenant) {
        const std::string name =
            "svc.tenant." + std::to_string(101 + tenant) + ".op_ns";
        const obs::MetricSnapshot* m = now.find(name);
        ASSERT_NE(m, nullptr) << name;
        const std::uint64_t before =
            base.find(name) != nullptr ? base.find(name)->hist.count : 0;
        EXPECT_EQ(m->hist.count - before, counts[tenant]) << name;
        EXPECT_GT(m->hist.percentile(0.99), 0u);
    }
    // One signature → one plan entry, regardless of tenant.
    EXPECT_EQ(service.session().cached_plans(), 1u);
}

TEST(ObsSvc, WaitFreeCountersWhilePaused) {
    // counters() must answer without any lock: readable while admitted
    // requests are parked and riding.
    Service service(3, fast_service());
    service.pause();
    const Signature sig =
        sig_of(Op::broadcast, Family::sbt, 3, 0, 2, 32);
    std::vector<std::unique_ptr<Caller>> callers;
    for (int i = 0; i < 3; ++i) {
        callers.push_back(
            std::make_unique<Caller>(service, Request{sig, 7}));
    }
    const ResumeOnExit resume_on_exit(service);
    // One request registered its run and parked; two joined it.
    ASSERT_TRUE(eventually([&] { return service.counters().batched == 2; }));
    const Service::Counters c = service.counters();
    EXPECT_EQ(c.submitted, 3u);
    EXPECT_EQ(c.executed, 0u);
    EXPECT_GE(obs::registry().snapshot().gauge("svc.queue_depth"), 3);
    service.resume();
    for (auto& caller : callers) {
        EXPECT_EQ(caller->get().status, Status::ok);
    }
    EXPECT_EQ(service.counters().executed, 1u); // one run + 2 riders
    EXPECT_EQ(service.counters().batched, 2u);
}

TEST(ObsSvc, AdmissionRejectCounts) {
    ServiceParams params = fast_service();
    params.queue_depth = 1;
    params.admission = Admission::reject;
    const obs::RegistrySnapshot base = obs::registry().snapshot();
    Service service(3, params);
    service.pause();
    const Signature sig =
        sig_of(Op::broadcast, Family::sbt, 3, 0, 2, 32);
    Caller admitted(service, Request{sig, 9}); // holds the only slot
    const ResumeOnExit resume_on_exit(service);
    ASSERT_TRUE(eventually([&] { return service.counters().submitted == 1; }));
    std::uint32_t rejected = 0;
    for (int i = 0; i < 3; ++i) {
        rejected +=
            service.run(Request{sig, 9}).status == Status::rejected ? 1u : 0u;
    }
    service.resume();
    EXPECT_EQ(admitted.get().status, Status::ok);
    EXPECT_EQ(rejected, 3u);
    EXPECT_EQ(service.counters().rejected, 3u);
    const obs::RegistrySnapshot now = obs::registry().snapshot();
    EXPECT_GE(delta(now, base, "svc.rejected"), 3u);
}

TEST(ObsSvc, SessionCacheMetricsTrackEvictions) {
    SessionParams params;
    params.threads = 2;
    params.comm = synthetic;
    // Three same-shape signatures under a budget of two entries' measured
    // bytes: at least one eviction, all misses.
    std::uint64_t entry_bytes = 0;
    {
        Session probe(3, params);
        entry_bytes = probe
                          .execute(sig_of(Op::broadcast, Family::sbt, 3, 0,
                                          2, 32))
                          .plan_resident_bytes;
    }
    ASSERT_GT(entry_bytes, 0u);
    params.plan_cache_bytes = 2 * entry_bytes;
    const obs::RegistrySnapshot base = obs::registry().snapshot();
    Session session(3, params);
    for (const node_t root : {0u, 1u, 2u}) {
        const ExecStats stats = session.execute(
            sig_of(Op::broadcast, Family::sbt, 3, root, 2, 32));
        EXPECT_TRUE(stats.verified);
        EXPECT_EQ(stats.plan_resident_bytes, entry_bytes);
    }
    const obs::RegistrySnapshot now = obs::registry().snapshot();
    EXPECT_GE(delta(now, base, "svc.plan_cache.misses"), 3u);
    EXPECT_GE(delta(now, base, "svc.plan_cache.evictions"), 1u);
    EXPECT_GT(now.gauge("svc.plan_cache.resident_bytes"), 0);

    // A membership transition evicts by epoch and lands on both counters.
    const std::size_t evicted = session.leave(7);
    const obs::RegistrySnapshot after = obs::registry().snapshot();
    EXPECT_EQ(delta(after, now, "svc.plan_cache.epoch_evictions"), evicted);
}

TEST(ObsSvc, RuntimeAggregatesAdvance) {
    const obs::RegistrySnapshot base = obs::registry().snapshot();
    Service service(3, fast_service());
    const Response r = service.run(
        sig_of(Op::broadcast, Family::sbt, 3, 0, 3, 64));
    EXPECT_EQ(r.status, Status::ok);
    const obs::RegistrySnapshot now = obs::registry().snapshot();
    // The engine ran; cycle and byte aggregates moved.
    EXPECT_GE(delta(now, base, "rt.plays_serial") +
                  delta(now, base, "rt.plays_stealing"),
              1u);
    EXPECT_GE(delta(now, base, "rt.cycles"), 1u);
    EXPECT_GE(delta(now, base, "rt.checksum_bytes"), r.stats.payload_bytes);
    const obs::MetricSnapshot* play = now.find("rt.play_ns");
    ASSERT_NE(play, nullptr);
    EXPECT_GT(play->hist.count, 0u);
}

TEST(ObsSvc, AsyncSessionNeverPlaysTheBarrierEngine) {
    // Construction with no preset constants, then both data modes' first
    // and steady-state executions: every play is the AsyncPlayer's, and
    // each run counts one play in its mode's counter.
    const obs::RegistrySnapshot base = obs::registry().snapshot();
    SessionParams params;
    params.threads = 2;
    Session session(3, params);
    for (const Signature& sig :
         {sig_of(Op::broadcast, Family::msbt, 3, 1, 6, 16),
          sig_of(Op::reduce, Family::sbt, 3, 0, 2, 16)}) {
        for (int run = 0; run < 2; ++run) {
            EXPECT_TRUE(session.execute(sig).verified) << sig.to_string();
        }
    }
    const obs::RegistrySnapshot now = obs::registry().snapshot();
    EXPECT_GE(delta(now, base, "rt.plays_serial") +
                  delta(now, base, "rt.plays_stealing"),
              4u);
}

} // namespace
} // namespace hcube::svc
