// Benchmark of hcube::mbr — dynamic membership and collectives on
// incomplete hypercubes — in three byte-verified sections:
//
//   1. identity: on a FULL view every member schedule (broadcast both
//      disciplines, scatter, gather) must be byte-identical — same sends,
//      same order, same packet ids — to its pre-membership full-cube
//      generator. A single differing send fails the row and the binary.
//   2. incomplete: non-power-of-two member counts executed through a
//      persistent svc::Session, every run byte-verified against the
//      expected state of exactly the live member set.
//   3. churn: a join/leave storm against a session serving a
//      mixed-dimension signature population. Measures the steady-state
//      hit rate under churn and the replan latency paid on each miss, and
//      checks invalidation is SURGICAL: transitions touch only the top
//      half of the address space, so sub-cube plans must never be evicted
//      — the eviction count must equal transitions x top-dimension plans,
//      exactly.
//
// Any unverified row exits 1; CI greps the JSON for '"verified": false'
// and for the presence of the churn scenario rows.
//
//   bench_mbr [--n 5] [--block 128] [--churn 24] [--json <path>]
#include "bench_util.hpp"

#include "common/json.hpp"
#include "mbr/view.hpp"
#include "routing/schedule_export.hpp"
#include "svc/session.hpp"
#include "trees/sbt.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace {

using hcube::CliOptions;
using hcube::hc::dim_t;
using hcube::hc::node_t;
using hcube::sim::packet_t;
using hcube::sim::PortModel;
using hcube::sim::Schedule;
using namespace hcube::svc;
namespace mbr = hcube::mbr;
namespace routing = hcube::routing;

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

bool same_schedule(const Schedule& a, const Schedule& b) {
    return a.n == b.n && a.packet_count == b.packet_count &&
           a.initial_holder == b.initial_holder && a.sends == b.sends;
}

struct IdentityRow {
    dim_t n = 0;
    std::string op;
    bool identical = false;
};

/// Section 1: full-view member schedules vs the legacy generators.
std::vector<IdentityRow> run_identity(dim_t max_n) {
    std::vector<IdentityRow> rows;
    for (dim_t n = 3; n <= max_n; ++n) {
        const mbr::View full(n);
        const node_t root = (node_t{1} << n) / 3; // off-zero root
        const auto sbt = hcube::trees::build_sbt(n, root);
        rows.push_back(
            {n, "broadcast_port_oriented",
             same_schedule(
                 routing::make_member_broadcast(
                     full, root, routing::BroadcastDiscipline::port_oriented,
                     4, PortModel::one_port_full_duplex),
                 routing::make_tree_broadcast(
                     sbt, routing::BroadcastDiscipline::port_oriented, 4,
                     PortModel::one_port_full_duplex))});
        rows.push_back(
            {n, "broadcast_paced",
             same_schedule(
                 routing::make_member_broadcast(
                     full, root, routing::BroadcastDiscipline::paced, 4,
                     PortModel::one_port_full_duplex),
                 routing::make_tree_broadcast(
                     sbt, routing::BroadcastDiscipline::paced, 4,
                     PortModel::one_port_full_duplex))});
        rows.push_back(
            {n, "scatter",
             same_schedule(routing::make_member_scatter(full, root, 2),
                           routing::make_tree_scatter(
                               sbt, routing::ScatterPolicy::descending, 2,
                               PortModel::one_port_full_duplex))});
        rows.push_back(
            {n, "gather",
             same_schedule(routing::make_member_gather(full, root, 2),
                           routing::make_tree_gather(
                               sbt, routing::ScatterPolicy::descending, 2,
                               PortModel::one_port_full_duplex))});
    }
    return rows;
}

struct IncompleteRow {
    dim_t n = 0;
    node_t members = 0;
    std::string op;
    bool verified = false;
    double ms = 0;
};

/// Section 2: non-power-of-two member counts through the session.
std::vector<IncompleteRow> run_incomplete(dim_t max_n, std::uint32_t block) {
    std::vector<IncompleteRow> rows;
    for (dim_t n = 4; n <= max_n; ++n) {
        SessionParams params;
        params.threads = 2;
        params.comm = hcube::model::ipsc_params();
        Session session(n, params);
        // A deterministic hole pattern keeping root 0 live.
        for (node_t v = 3; v < (node_t{1} << n); v += 5) {
            (void)session.leave(v);
        }
        const std::vector<std::pair<std::string, Signature>> ops = {
            {"broadcast", make_sig(Op::broadcast, Family::sbt, n, 0, 4,
                                   block)},
            {"scatter", make_sig(Op::scatter, Family::sbt, n, 0, 2, block)},
            {"gather", make_sig(Op::gather, Family::sbt, n, 0, 2, block)},
            {"reduce", make_sig(Op::reduce, Family::sbt, n, 0, 2, block)},
        };
        for (const auto& [name, sig] : ops) {
            const ExecStats stats = session.execute(sig);
            rows.push_back({n, stats.member_count, name, stats.verified,
                            stats.seconds * 1e3});
        }
    }
    return rows;
}

struct ChurnRow {
    dim_t n = 0;
    int transitions = 0;
    std::uint64_t executes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    double hit_rate = 0;
    std::uint64_t evictions_expected = 0;
    std::uint64_t evictions_actual = 0;
    double replan_avg_ms = 0;
    double replan_max_ms = 0;
    bool verified = false;
};

/// Section 3: the join/leave storm.
ChurnRow run_churn(dim_t n, std::uint32_t block, int transitions) {
    SessionParams params;
    params.threads = 2;
    params.comm = hcube::model::ipsc_params();
    Session session(n, params);

    // Mixed-dimension mix: only the two top-dimension signatures can ever
    // be invalidated by the storm below.
    std::vector<Signature> mix;
    for (dim_t m = 2; m <= n; ++m) {
        mix.push_back(make_sig(Op::broadcast, Family::sbt, m, 0, 2, block));
    }
    mix.push_back(make_sig(Op::scatter, Family::sbt, n, 0, 2, block));

    ChurnRow row;
    row.n = n;
    row.transitions = transitions;
    double replan_total_ms = 0;

    const auto run_mix = [&](bool count) {
        for (const Signature& sig : mix) {
            const auto start = std::chrono::steady_clock::now();
            const ExecStats stats = session.execute(sig);
            const double ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            row.verified = row.verified && stats.verified;
            if (!count) {
                continue;
            }
            ++row.executes;
            if (stats.cache_hit) {
                ++row.hits;
            } else {
                ++row.misses;
                replan_total_ms += ms;
                row.replan_max_ms = std::max(row.replan_max_ms, ms);
            }
        }
    };

    row.verified = true;
    run_mix(false); // warm every signature once

    // The storm only ever touches the top half of the address space, so
    // every sub-cube plan (m < n) stays resident throughout.
    const node_t half = node_t{1} << (n - 1);
    for (int step = 0; step < transitions; ++step) {
        const node_t addr =
            half + (static_cast<node_t>(step / 2) % half);
        if (step % 2 == 0) {
            (void)session.leave(addr);
        } else {
            (void)session.join(addr);
        }
        run_mix(true);
    }

    // Exactly the two n-dimensional plans go stale per transition (they
    // were re-created by the mix after each previous transition).
    row.evictions_expected = static_cast<std::uint64_t>(transitions) * 2;
    row.evictions_actual = session.epoch_evictions();
    row.hit_rate = row.executes > 0 ? static_cast<double>(row.hits) /
                                          static_cast<double>(row.executes)
                                    : 0;
    row.replan_avg_ms =
        row.misses > 0 ? replan_total_ms / static_cast<double>(row.misses)
                       : 0;
    row.verified = row.verified &&
                   row.evictions_actual == row.evictions_expected &&
                   row.misses == row.evictions_expected;
    return row;
}

} // namespace

int main(int argc, char** argv) {
    const CliOptions options(argc, argv);
    const auto n = static_cast<dim_t>(options.get_int("n", 5));
    const auto block =
        static_cast<std::uint32_t>(options.get_int("block", 128));
    const int churn = static_cast<int>(options.get_int("churn", 24));
    const std::string json_path = options.get_string("json", "");

    hcube::bench::banner(
        "hcube::mbr membership collectives",
        "full-view byte-identity, incomplete-cube verification, and "
        "plan-cache behavior under membership churn");

    std::unique_ptr<hcube::JsonArrayWriter> json;
    if (!json_path.empty()) {
        json = std::make_unique<hcube::JsonArrayWriter>(json_path);
    }
    bool all_verified = true;

    std::printf("full-view byte-identity (member generators vs legacy):\n");
    std::printf("  %-3s %-26s %s\n", "n", "op", "identical");
    for (const IdentityRow& row : run_identity(n)) {
        all_verified = all_verified && row.identical;
        std::printf("  %-3d %-26s %s\n", row.n, row.op.c_str(),
                    row.identical ? "yes" : "NO");
        if (json) {
            json->begin_row();
            json->field("scenario", "identity");
            json->field("n", row.n);
            json->field("op", row.op);
            json->field("identical", row.identical);
            json->field("verified", row.identical);
            json->end_row();
        }
    }

    std::printf("\nincomplete-cube execution (session, byte-verified):\n");
    std::printf("  %-3s %-8s %-10s %-9s %s\n", "n", "members", "op",
                "verified", "ms");
    for (const IncompleteRow& row : run_incomplete(n, block)) {
        all_verified = all_verified && row.verified;
        std::printf("  %-3d %-8u %-10s %-9s %.3f\n", row.n, row.members,
                    row.op.c_str(), row.verified ? "yes" : "NO", row.ms);
        if (json) {
            json->begin_row();
            json->field("scenario", "incomplete");
            json->field("n", row.n);
            json->field("members", static_cast<std::uint64_t>(row.members));
            json->field("op", row.op);
            json->field("seconds", row.ms / 1e3);
            json->field("verified", row.verified);
            json->end_row();
        }
    }

    const ChurnRow storm = run_churn(n, block, churn);
    all_verified = all_verified && storm.verified;
    std::printf(
        "\nchurn storm: %d transitions on n=%d (top-half addresses only)\n"
        "  executes %llu  hits %llu  misses %llu  hit-rate %.1f%%\n"
        "  evictions expected %llu actual %llu (surgical: sub-cube plans "
        "never evicted)\n"
        "  replan latency avg %.3f ms max %.3f ms  -> %s\n",
        storm.transitions, storm.n,
        static_cast<unsigned long long>(storm.executes),
        static_cast<unsigned long long>(storm.hits),
        static_cast<unsigned long long>(storm.misses),
        storm.hit_rate * 100,
        static_cast<unsigned long long>(storm.evictions_expected),
        static_cast<unsigned long long>(storm.evictions_actual),
        storm.replan_avg_ms, storm.replan_max_ms,
        storm.verified ? "verified" : "NOT VERIFIED");
    if (json) {
        json->begin_row();
        json->field("scenario", "churn");
        json->field("n", storm.n);
        json->field("transitions", storm.transitions);
        json->field("executes", storm.executes);
        json->field("hits", storm.hits);
        json->field("misses", storm.misses);
        json->field("hit_rate", storm.hit_rate);
        json->field("evictions_expected", storm.evictions_expected);
        json->field("evictions_actual", storm.evictions_actual);
        json->field("replan_avg_ms", storm.replan_avg_ms);
        json->field("replan_max_ms", storm.replan_max_ms);
        json->field("verified", storm.verified);
        json->end_row();
    }

    if (json && !json->close()) {
        std::fprintf(stderr, "bench_mbr: failed to write %s\n",
                     json_path.c_str());
        return 1;
    }
    if (!all_verified) {
        std::fprintf(stderr, "bench_mbr: UNVERIFIED rows present\n");
        return 1;
    }
    std::printf("\nall rows verified\n");
    return 0;
}
