// Recovery-latency and degraded-throughput benchmark of the self-healing
// collectives (hcube::ft): for each op, deterministic link kills are
// injected mid-stream and the full inject → detect → recover
// loop runs to byte-verified completion: every attempt is an
// rt::CheckedPlan whose schedule the cycle executor proves and whose run
// the runtime's rule judges, with the op's contract among its plan's
// slots, so every contract pair holds its canonical block. Per row:
//   * oracle ms    — time the row's call spent building the op's resident
//                    fault-free attempt (schedule, executor proof,
//                    compile and contract check); paid by the fault-0
//                    row, 0 on the rows that reuse it,
//   * recovery ms  — failed plays + replanning, the price of healing,
//   * final ms     — the clean run on the replanned schedule,
//   * GB/s         — delivered throughput of that final run: with faults
//                    this is the *degraded* figure (the MSBT loses one
//                    edge-disjoint tree per dead link and pipelines
//                    deeper; the SBT family swaps in a replacement tree),
//   * copied       — payload bytes the final run memcpy'd: 0 whenever no
//                    fault landed on its plan's channels (no hook is
//                    installed, so it plays the zero-copy protocol). The
//                    fault-0 rows must read 0 — a count, exact on any
//                    machine, that CI gates on.
// `verified` is the final run accepted by its CheckedPlan, so every
// contract pair holds its canonical block — and the binary exits non-zero if
// any row fails it (CI greps the JSON for `"verified": false` as well).
//
// Faults are chosen deterministically: the k kills land on evenly spaced
// links of the schedule's own link set, each at half its push count, so
// every run of this benchmark injects the identical scenario.
//
//   bench_fault [--nmin 3] [--nmax 6] [--pps 4] [--ppd 2] [--block 64]
//               [--threads 0] [--faults-max 2] [--json <path>]
//               [--trace-out <path>]
//
// --trace-out writes one chrome://tracing process per (op, n, faults)
// configuration; the aborted attempt and the recovered re-run land
// in the same timeline, so the replan gap between them is directly
// visible. (On the in-process ring bank detection does not stall: the
// aborted attempt ends as soon as the receive behind the dead link runs.)
#include "bench_util.hpp"

#include "common/json.hpp"
#include "ft/resilient.hpp"
#include "routing/schedule_export.hpp"
#include "rt/tracing.hpp"
#include "trees/sbt.hpp"

#include <cstdio>
#include <functional>
#include <map>
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

namespace ft = hcube::ft;
namespace rt = hcube::rt;

struct OpCase {
    std::string name;
    std::string op; ///< broadcast | scatter
    std::function<Schedule(dim_t)> generate;
    std::function<ft::RecoveryResult(ft::ResilientComm&, dim_t,
                                     const ft::FaultPlan&)>
        run;
};

struct Row {
    std::string op;
    dim_t n = 0;
    std::uint32_t threads = 0;
    std::uint32_t faults = 0;
    std::uint32_t attempts = 0;
    std::uint32_t dropped_trees = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t bytes_copied = 0; ///< final run; 0 on the zero-copy path
    double oracle_ms = 0;
    double recovery_ms = 0;
    double final_ms = 0;
    double gbps = 0;
    bool verified = false;
};

/// The k evenly spaced directed links of the schedule's own link set, each
/// killed at half its push count — the same scenario on every run.
ft::FaultPlan spaced_kills(const Schedule& schedule, std::uint32_t k) {
    std::map<std::pair<node_t, node_t>, std::uint32_t> counts;
    for (const auto& send : schedule.sends) {
        ++counts[{send.from, send.to}];
    }
    std::vector<std::pair<ft::DirectedLink, std::uint32_t>> links;
    links.reserve(counts.size());
    for (const auto& [link, pushes] : counts) {
        links.push_back({{link.first, link.second}, pushes});
    }
    ft::FaultPlan plan;
    for (std::uint32_t f = 0; f < k; ++f) {
        const auto& [link, pushes] =
            links[(static_cast<std::size_t>(f) + 1) * links.size() /
                  (static_cast<std::size_t>(k) + 1)];
        plan.kill_link(link.from, link.to, pushes / 2);
    }
    return plan;
}

} // namespace

int main(int argc, char** argv) {
    const CliOptions options(argc, argv);
    const auto nmin = static_cast<dim_t>(options.get_int("nmin", 3));
    const auto nmax = static_cast<dim_t>(options.get_int("nmax", 6));
    const auto pps = static_cast<packet_t>(options.get_int("pps", 4));
    const auto ppd = static_cast<packet_t>(options.get_int("ppd", 2));
    const auto block =
        static_cast<std::size_t>(options.get_int("block", 64));
    const auto threads =
        static_cast<std::uint32_t>(options.get_int("threads", 0));
    const auto faults_max =
        static_cast<std::uint32_t>(options.get_int("faults-max", 2));
    const std::string json_path = options.get_string("json", "");
    const std::string trace_path = options.get_string("trace-out", "");

    std::unique_ptr<hcube::JsonArrayWriter> trace_json;
    if (!trace_path.empty()) {
        trace_json = std::make_unique<hcube::JsonArrayWriter>(trace_path);
        if (!trace_json->ok()) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         trace_path.c_str());
            return 1;
        }
    }
    std::uint32_t trace_pid = 0;

    hcube::bench::banner(
        "Fault recovery",
        "inject -> detect -> recover, byte-verified against the "
        "expected state");
    std::printf("  block=%zu doubles, kills at half push count on evenly "
                "spaced links\n\n",
                block);

    const std::vector<OpCase> cases = {
        {"sbt_bcast", "broadcast",
         [pps](dim_t n) {
             return hcube::routing::make_tree_broadcast(
                 hcube::trees::build_sbt(n, 0),
                 hcube::routing::BroadcastDiscipline::paced,
                 static_cast<packet_t>(n) * pps,
                 PortModel::one_port_full_duplex);
         },
         [pps](ft::ResilientComm& comm, dim_t n,
               const ft::FaultPlan& faults) {
             return comm.broadcast_sbt(
                 0, static_cast<packet_t>(n) * pps, faults);
         }},
        {"msbt_bcast", "broadcast",
         [pps](dim_t n) {
             return hcube::routing::make_msbt_broadcast(
                 n, 0, static_cast<packet_t>(n) * pps,
                 PortModel::one_port_full_duplex);
         },
         [pps](ft::ResilientComm& comm, dim_t n,
               const ft::FaultPlan& faults) {
             return comm.broadcast_msbt(
                 0, static_cast<packet_t>(n) * pps, faults);
         }},
        {"sbt_scatter", "scatter",
         [ppd](dim_t n) {
             return hcube::routing::make_tree_scatter(
                 hcube::trees::build_sbt(n, 0),
                 hcube::routing::ScatterPolicy::descending, ppd,
                 PortModel::one_port_full_duplex);
         },
         [ppd](ft::ResilientComm& comm, dim_t,
               const ft::FaultPlan& faults) {
             return comm.scatter_sbt(0, ppd, faults);
         }},
    };

    std::printf("%-12s %3s %6s %8s %7s %9s %11s %9s %8s %8s %5s\n", "op",
                "n", "faults", "attempts", "dropped", "oracle ms",
                "recovery ms", "final ms", "GB/s", "copied", "ok");

    std::vector<Row> rows;
    for (const OpCase& c : cases) {
        for (dim_t n = nmin; n <= nmax; ++n) {
            const Schedule schedule = c.generate(n);
            ft::ResilientParams params;
            params.threads = threads;
            params.block_elems = block;
            ft::ResilientComm comm(n, params);

            std::unique_ptr<rt::TraceRecorder> recorder;
            if (trace_json != nullptr) {
                recorder = std::make_unique<rt::TraceRecorder>(comm.threads());
            }

            // Fault count 0 measures the healthy baseline (and the
            // resident attempt's build); each further count replays that
            // resident attempt first, so the sweep isolates the cost of
            // healing.
            for (std::uint32_t faults = 0; faults <= faults_max; ++faults) {
                if (recorder != nullptr) {
                    recorder->reset();
                    // A run the arbiter aborts flushes its partial
                    // timeline here even if recovery then throws.
                    recorder->set_abort_path(trace_path + ".abort.json");
                    comm.set_trace(recorder.get());
                }
                const ft::RecoveryResult r =
                    c.run(comm, n, spaced_kills(schedule, faults));
                if (recorder != nullptr) {
                    comm.set_trace(nullptr);
                    recorder->append_chrome_events(
                        *trace_json, trace_pid++,
                        c.name + " n=" + std::to_string(n) +
                            " f=" + std::to_string(faults));
                }

                Row row;
                row.op = c.name;
                row.n = n;
                row.threads = comm.threads();
                row.faults = faults;
                row.attempts = r.attempts;
                row.dropped_trees =
                    static_cast<std::uint32_t>(r.dropped_trees.size());
                row.payload_bytes = r.stats.payload_bytes;
                row.bytes_copied = r.stats.bytes_copied;
                row.oracle_ms = r.oracle_seconds * 1e3;
                row.recovery_ms = r.recovery_seconds * 1e3;
                row.final_ms = r.final_seconds * 1e3;
                row.gbps = r.final_seconds > 0
                               ? static_cast<double>(r.stats.payload_bytes) /
                                     r.final_seconds * 1e-9
                               : 0.0;
                row.verified =
                    r.delivered && r.stats.clean() &&
                    (faults == 0 ? !r.recovered
                                 : r.recovered && !r.dead_links.empty());
                rows.push_back(row);

                std::printf("%-12s %3d %6u %8u %7u %9.3f %11.3f "
                            "%9.3f %8.3f %8llu %5s\n",
                            row.op.c_str(), n, row.faults, row.attempts,
                            row.dropped_trees, row.oracle_ms,
                            row.recovery_ms, row.final_ms, row.gbps,
                            static_cast<unsigned long long>(row.bytes_copied),
                            row.verified ? "yes" : "NO");
                std::fflush(stdout);
            }
        }
    }

    if (!json_path.empty()) {
        hcube::JsonArrayWriter json(json_path);
        if (!json.ok()) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         json_path.c_str());
            return 1;
        }
        for (const Row& r : rows) {
            json.begin_row();
            json.field("op", r.op);
            json.field("n", r.n);
            json.field("threads", r.threads);
            json.field("block_elems", static_cast<std::uint64_t>(block));
            json.field("faults_injected", r.faults);
            json.field("attempts", r.attempts);
            json.field("dropped_trees", r.dropped_trees);
            json.field("payload_bytes", r.payload_bytes);
            json.field("bytes_copied", r.bytes_copied);
            json.field("oracle_ms", r.oracle_ms);
            json.field("recovery_ms", r.recovery_ms);
            json.field("final_ms", r.final_ms);
            json.field("gbytes_per_sec", r.gbps);
            json.field("verified", r.verified);
            json.end_row();
        }
        if (json.close()) {
            std::printf("\nwrote %s\n", json_path.c_str());
        }
    }
    if (trace_json != nullptr && trace_json->close()) {
        std::printf("wrote %s\n", trace_path.c_str());
    }

    bool all_verified = true;
    for (const Row& r : rows) {
        all_verified = all_verified && r.verified;
    }
    if (!all_verified) {
        std::fprintf(stderr,
                     "\nFAILED: some recoveries did not verify\n");
        return 1;
    }
    return 0;
}
