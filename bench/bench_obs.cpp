// Wall-clock benchmark of the metrics plane (hcube::obs): a heavy-tailed
// multi-tenant replay through the collective service, with per-tenant
// latency recovered from the live obs registry and cross-checked against
// an exact client-side sorted-vector reference.
//
// The workload models the mixed fleet a long-running service sees: three
// light tenants issuing small broadcasts in bursts (deterministic
// burst-pause arrival pattern), plus one slow consumer whose requests are
// an order of magnitude heavier — the tenant that drags the tail. Every
// request is byte-verified; a row with "verified": false fails this
// binary (exit 1) and the CI grep gate.
//
// Gates, per tenant:
//   * the obs histogram count equals the replayed request count exactly
//     (no sample lost or double-billed);
//   * recovered p50/p95/p99 never exceed the client-side reference by
//     more than bucket error (1/32) + rounding slack (the service's
//     internal span is a strict subset of the client's, so same-rank
//     order statistics are ordered), and the median additionally stays
//     above half the client's (tail percentiles get no lower bound:
//     post-fulfillment scheduler wake-up delay is unbounded there);
//   * p99 stays under --p99-bound ms (the regression bound CI gates on).
//
// The overhead row measures the recording primitives themselves
// (counter inc, histogram record, registry snapshot) so the documented
// cost in docs/OBSERVABILITY.md stays an measured number.
//
//   bench_obs [--n 4] [--requests 240] [--burst 6] [--p99-bound 400]
//             [--json <path>] [--trace-out <path>]
//
// --trace-out drops registry snapshots as chrome-trace counter events
// ("ph":"C") sampled once per burst round — open in Perfetto to watch
// queue depth and per-tenant throughput move through the replay.
#include "bench_util.hpp"

#include "common/json.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "svc/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace {

using hcube::CliOptions;
using hcube::hc::dim_t;
using hcube::hc::node_t;
using hcube::sim::packet_t;
using namespace hcube::svc;

double now_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Exact nearest-rank percentile on the client-side sample — the same
/// ceil(p * n) rank convention HistogramSnapshot::percentile uses, so the
/// two views compare the SAME order statistic. With that alignment the
/// bracket gate is sound: each request's obs span sits inside its client
/// span, so the k-th smallest obs latency never exceeds the k-th smallest
/// client latency.
double ref_percentile(std::vector<double> values, double p) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(
               p * static_cast<double>(values.size()))));
    return values[std::min(rank, values.size()) - 1];
}

Signature make_sig(Op op, Family family, dim_t n, node_t root,
                   packet_t packets, std::uint32_t block) {
    Signature s;
    s.op = op;
    s.family = family;
    s.n = n;
    s.root = root;
    s.packets = packets;
    s.block_elems = block;
    return s;
}

struct Tenant {
    std::uint32_t client_id = 0;
    const char* label = "";
    std::vector<Signature> mix;
    int requests = 0;
    /// Pause between bursts, which is what makes arrivals bursty rather
    /// than uniform (the slow consumer pauses longest: its queue drains
    /// between volleys, so its tail is execute-dominated, not queueing).
    int pause_us = 0;
};

/// The replayed fleet: three light tenants, one slow consumer. The slow
/// tenant's operations move ~16x the bytes per request — the heavy tail.
std::vector<Tenant> fleet(dim_t n, int requests) {
    const auto np = static_cast<packet_t>(n);
    std::vector<Tenant> tenants;
    tenants.push_back(
        {1, "light-bcast",
         {make_sig(Op::broadcast, Family::sbt, n, 0, 2, 32),
          make_sig(Op::broadcast, Family::sbt, n, 1, 2, 32)},
         requests, 200});
    tenants.push_back(
        {2, "light-scatter",
         {make_sig(Op::scatter, Family::bst, n, 0, 1, 32)},
         requests, 350});
    tenants.push_back(
        {3, "light-reduce",
         {make_sig(Op::reduce, Family::sbt, n, 0, 2, 32)},
         requests, 500});
    tenants.push_back(
        {4, "slow-consumer",
         {make_sig(Op::broadcast, Family::msbt, n, 0, 4 * np, 128),
          make_sig(Op::alltoall, Family::sbt, n, 0, 1, 64)},
         requests / 3, 2'000});
    return tenants;
}

struct TenantMeasured {
    const Tenant* tenant = nullptr;
    std::vector<double> client_ms; ///< exact client-side latencies
    double obs_p50_ms = 0;
    double obs_p95_ms = 0;
    double obs_p99_ms = 0;
    std::uint64_t obs_count = 0;
    bool verified = true; ///< every response byte-verified
    bool gated = true;    ///< count + bracket + bound gates
};

/// Replays one tenant: bursts of `burst` back-to-back requests separated
/// by the tenant's pause. Returns the client-side latency series.
void replay_tenant(Service& service, const Tenant& t, int burst,
                   TenantMeasured& out) {
    out.tenant = &t;
    out.client_ms.reserve(static_cast<std::size_t>(t.requests));
    for (int i = 0; i < t.requests; ++i) {
        const Signature& sig =
            t.mix[static_cast<std::size_t>(i) % t.mix.size()];
        const double t0 = now_seconds();
        const Response r = service.run(Request{sig, t.client_id});
        out.client_ms.push_back((now_seconds() - t0) * 1e3);
        if (r.status != Status::ok || !r.stats.verified) {
            out.verified = false;
        }
        if ((i + 1) % burst == 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(t.pause_us));
        }
    }
}

/// Pulls the tenant's histogram delta out of the registry and applies the
/// three per-tenant gates.
void judge_tenant(TenantMeasured& m,
                  const hcube::obs::RegistrySnapshot& base,
                  const hcube::obs::RegistrySnapshot& now,
                  double p99_bound_ms) {
    const std::string name = "svc.tenant." +
                             std::to_string(m.tenant->client_id) +
                             ".op_ns";
    const hcube::obs::MetricSnapshot* metric = now.find(name);
    if (metric == nullptr) {
        m.gated = false;
        return;
    }
    hcube::obs::HistogramSnapshot hist = metric->hist;
    if (const hcube::obs::MetricSnapshot* b = base.find(name)) {
        hist.subtract(b->hist);
    }
    m.obs_count = hist.count;
    m.obs_p50_ms = static_cast<double>(hist.percentile(0.50)) / 1e6;
    m.obs_p95_ms = static_cast<double>(hist.percentile(0.95)) / 1e6;
    m.obs_p99_ms = static_cast<double>(hist.percentile(0.99)) / 1e6;

    // Gate 1: exactly one histogram sample per replayed request.
    m.gated = hist.count == m.client_ms.size();
    // Gate 2: the recovered percentiles sit under the exact client-side
    // reference. The service bills enqueue -> fulfilled, the client
    // measures submit -> future.get: the obs span is inside the client's,
    // so the k-th smallest obs latency never exceeds the k-th smallest
    // client latency and above the reference only bucket error (1/32)
    // plus rounding slack is allowed — at every percentile. The gap
    // *below* the reference is scheduler wake-up delay between
    // set_value and the client thread resuming, which is unbounded at
    // the tail on a loaded machine, so a lower bracket is only applied
    // at the median (half the requests would have to eat > ref/2 of
    // wake-up delay to trip it).
    const struct {
        double p;
        double obs;
    } checks[] = {{0.50, m.obs_p50_ms},
                  {0.95, m.obs_p95_ms},
                  {0.99, m.obs_p99_ms}};
    for (const auto& [p, obs] : checks) {
        const double ref = ref_percentile(m.client_ms, p);
        const double upper = ref * (1.0 + 1.0 / 32.0) + 0.5;
        const double lower = p == 0.50 ? ref * 0.5 - 0.5 : 0.0;
        if (obs > upper || obs < lower) {
            std::fprintf(stderr,
                         "tenant %u p%.0f: obs %.3f ms outside "
                         "[%.3f, %.3f] (client ref %.3f ms)\n",
                         m.tenant->client_id, p * 100, obs, lower, upper,
                         ref);
            m.gated = false;
        }
    }
    // Gate 3: the regression bound.
    if (m.obs_p99_ms > p99_bound_ms) {
        std::fprintf(stderr, "tenant %u p99 %.3f ms exceeds bound %.1f\n",
                     m.tenant->client_id, m.obs_p99_ms, p99_bound_ms);
        m.gated = false;
    }
}

struct Overhead {
    double counter_inc_ns = 0;
    double hist_record_ns = 0;
    double snapshot_us = 0;
};

/// Cost of the recording primitives themselves, measured hot (the numbers
/// docs/OBSERVABILITY.md quotes).
Overhead measure_overhead() {
    constexpr int kOps = 2'000'000;
    hcube::obs::Registry reg;
    hcube::obs::Counter& c = reg.counter("bench.counter");
    hcube::obs::Histogram& h = reg.histogram("bench.hist");
    for (int i = 0; i < 64; ++i) {
        reg.counter("bench.filler." + std::to_string(i)).inc();
    }
    Overhead o;
    double t0 = now_seconds();
    for (int i = 0; i < kOps; ++i) {
        c.inc();
    }
    o.counter_inc_ns = (now_seconds() - t0) * 1e9 / kOps;
    t0 = now_seconds();
    for (int i = 0; i < kOps; ++i) {
        h.record(static_cast<std::uint64_t>(i));
    }
    o.hist_record_ns = (now_seconds() - t0) * 1e9 / kOps;
    constexpr int kSnaps = 200;
    t0 = now_seconds();
    for (int i = 0; i < kSnaps; ++i) {
        const hcube::obs::RegistrySnapshot snap = reg.snapshot();
        if (snap.metrics.empty()) {
            std::abort(); // keep the loop un-elidable
        }
    }
    o.snapshot_us = (now_seconds() - t0) * 1e6 / kSnaps;
    return o;
}

} // namespace

int main(int argc, char** argv) {
    const CliOptions options(argc, argv);
    const auto n = static_cast<dim_t>(options.get_int("n", 4));
    const int requests =
        static_cast<int>(options.get_int("requests", 240));
    const int burst = static_cast<int>(options.get_int("burst", 6));
    const double p99_bound_ms =
        static_cast<double>(options.get_int("p99-bound", 400));
    const std::string json_path = options.get_string("json", "");
    const std::string trace_path = options.get_string("trace-out", "");

    hcube::bench::banner(
        "hcube::obs live metrics",
        "per-tenant latency recovery under a heavy-tailed multi-tenant "
        "replay");

    std::unique_ptr<hcube::JsonArrayWriter> json;
    if (!json_path.empty()) {
        json = std::make_unique<hcube::JsonArrayWriter>(json_path);
    }
    std::unique_ptr<hcube::JsonArrayWriter> trace;
    if (!trace_path.empty()) {
        trace = std::make_unique<hcube::JsonArrayWriter>(trace_path);
        if (!trace->ok()) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         trace_path.c_str());
            return 1;
        }
    }

    Service service(n, ServiceParams{});
    std::vector<Tenant> tenants = fleet(n, requests);
    // Warm-up: compile every plan once so the replay measures the steady
    // state (the cache miss would otherwise be every tenant's max).
    for (const Tenant& t : tenants) {
        for (const Signature& sig : t.mix) {
            (void)service.run(Request{sig, t.client_id});
        }
    }
    service.drain();

    const hcube::obs::RegistrySnapshot base =
        hcube::obs::registry().snapshot();
    const double begin = now_seconds();

    // One thread per tenant, all replaying concurrently — the slow
    // consumer's volleys queue behind the light tenants' bursts, which is
    // what per-tenant attribution has to untangle.
    std::vector<TenantMeasured> measured(tenants.size());
    std::atomic<bool> sampling{trace != nullptr};
    std::thread sampler;
    if (trace != nullptr) {
        sampler = std::thread([&] {
            std::uint32_t tick = 0;
            while (sampling.load()) {
                hcube::obs::RegistrySnapshot snap =
                    hcube::obs::registry().snapshot();
                snap.subtract(base);
                hcube::obs::append_chrome_counter_events(
                    *trace, snap, /*pid=*/1,
                    (now_seconds() - begin) * 1e6);
                ++tick;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            }
        });
    }
    {
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < tenants.size(); ++i) {
            threads.emplace_back([&, i] {
                replay_tenant(service, tenants[i], burst, measured[i]);
            });
        }
        for (std::thread& t : threads) {
            t.join();
        }
    }
    const double elapsed = now_seconds() - begin;
    service.drain();
    if (sampler.joinable()) {
        sampling.store(false);
        sampler.join();
    }
    const hcube::obs::RegistrySnapshot now =
        hcube::obs::registry().snapshot();

    bool verified = true;
    std::printf("%-16s %6s %9s %9s %9s %9s %9s %9s\n", "tenant", "reqs",
                "p50 ms", "p95 ms", "p99 ms", "ref p50", "ref p99",
                "verified");
    for (TenantMeasured& m : measured) {
        judge_tenant(m, base, now, p99_bound_ms);
        const bool row_ok = m.verified && m.gated;
        verified = verified && row_ok;
        std::printf("%-16s %6zu %9.3f %9.3f %9.3f %9.3f %9.3f %9s\n",
                    m.tenant->label, m.client_ms.size(), m.obs_p50_ms,
                    m.obs_p95_ms, m.obs_p99_ms,
                    ref_percentile(m.client_ms, 0.50),
                    ref_percentile(m.client_ms, 0.99),
                    row_ok ? "yes" : "NO");
        if (json) {
            json->begin_row();
            json->field("mode", "tenant_latency");
            json->field("tenant", m.tenant->label);
            json->field("client_id", m.tenant->client_id);
            json->field("n", n);
            json->field("requests",
                        static_cast<std::uint64_t>(m.client_ms.size()));
            json->field("samples", m.obs_count);
            json->field("p50_ms", m.obs_p50_ms);
            json->field("p95_ms", m.obs_p95_ms);
            json->field("p99_ms", m.obs_p99_ms);
            json->field("client_p50_ms",
                        ref_percentile(m.client_ms, 0.50));
            json->field("client_p99_ms",
                        ref_percentile(m.client_ms, 0.99));
            json->field("p99_bound_ms", p99_bound_ms);
            json->field("verified", row_ok);
            json->end_row();
        }
    }

    std::size_t total = 0;
    for (const TenantMeasured& m : measured) {
        total += m.client_ms.size();
    }
    std::printf("\n%zu requests over %zu tenants in %.2f s (%.1f ops/s); "
                "queue p99 %.3f ms, execute p99 %.3f ms\n",
                total, tenants.size(), elapsed,
                elapsed > 0 ? static_cast<double>(total) / elapsed : 0,
                [&] {
                    hcube::obs::HistogramSnapshot h =
                        now.find("svc.queue_wait_ns")->hist;
                    if (const auto* b = base.find("svc.queue_wait_ns")) {
                        h.subtract(b->hist);
                    }
                    return static_cast<double>(h.percentile(0.99)) / 1e6;
                }(),
                [&] {
                    hcube::obs::HistogramSnapshot h =
                        now.find("svc.execute_ns")->hist;
                    if (const auto* b = base.find("svc.execute_ns")) {
                        h.subtract(b->hist);
                    }
                    return static_cast<double>(h.percentile(0.99)) / 1e6;
                }());

    const Overhead o = measure_overhead();
    std::printf("recording overhead: counter inc %.1f ns, histogram "
                "record %.1f ns, registry snapshot %.1f us\n",
                o.counter_inc_ns, o.hist_record_ns, o.snapshot_us);
    if (json) {
        json->begin_row();
        json->field("mode", "overhead");
        json->field("counter_inc_ns", o.counter_inc_ns);
        json->field("hist_record_ns", o.hist_record_ns);
        json->field("snapshot_us", o.snapshot_us);
        // The micro costs have no percentile semantics; the fields exist
        // so one grep covers every row of the file.
        json->field("p99_ms", 0.0);
        json->field("verified", o.counter_inc_ns < 100.0 &&
                                    o.hist_record_ns < 500.0);
        json->end_row();
        verified = verified && o.counter_inc_ns < 100.0 &&
                   o.hist_record_ns < 500.0;
    }

    if (trace && !trace->close()) {
        std::fprintf(stderr, "failed writing %s\n", trace_path.c_str());
        return 1;
    }
    if (json && !json->close()) {
        std::fprintf(stderr, "failed writing %s\n", json_path.c_str());
        return 1;
    }
    if (!verified) {
        std::fprintf(stderr, "VERIFICATION FAILED\n");
        return 1;
    }
    std::printf("\nall tenants byte-verified, percentiles cross-checked\n");
    return 0;
}
