// Collective explorer: run any of the paper's broadcast or scatter
// algorithms under any port model and print both the exact routing-step
// count (cycle simulator) and the wall-clock time on the simulated iPSC
// (event simulator).
//
// Usage:
//   collective_explorer --op broadcast --algo msbt --port full
//                       [--dim n] [--msg bytes] [--packet B] [--source s]
//                       [--tau s] [--tc s] [--overlap a]
//   --op    broadcast | scatter
//   --algo  sbt | msbt | bst | tcbt | hp   (scatter: sbt | bst | tcbt)
//   --port  half | full | all
//   --trace print a per-link Gantt chart and utilization statistics
//   --dump-schedule <path>  write the cycle schedule as CSV
//   --rt [--threads T]  additionally execute the schedule on real worker
//         threads (hcube::rt) and print measured wall clock and GB/s; the
//         explorer exits 1 if that run fails verification or its cycle
//         count differs from the makespan
#include "common/check.hpp"
#include "common/cli.hpp"
#include "routing/broadcast.hpp"
#include "routing/protocols.hpp"
#include "routing/scatter.hpp"
#include "rt/expected.hpp"
#include "rt/pool.hpp"
#include "rt/threads.hpp"
#include "sim/trace.hpp"
#include "trees/bst.hpp"
#include "trees/hp.hpp"
#include "trees/sbt.hpp"
#include "trees/tcbt.hpp"

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

namespace {

using namespace hcube;

sim::PortModel parse_port(const std::string& name) {
    if (name == "half") {
        return sim::PortModel::one_port_half_duplex;
    }
    if (name == "full") {
        return sim::PortModel::one_port_full_duplex;
    }
    if (name == "all") {
        return sim::PortModel::all_port;
    }
    throw check_error("unknown --port (want half|full|all)");
}

trees::SpanningTree build(const std::string& algo, hc::dim_t n,
                          hc::node_t s) {
    if (algo == "sbt") {
        return trees::build_sbt(n, s);
    }
    if (algo == "bst") {
        return trees::build_bst(n, s);
    }
    if (algo == "tcbt") {
        return trees::build_tcbt(n, s);
    }
    if (algo == "hp") {
        return trees::build_hamiltonian_path(n, s,
                                             trees::HpVariant::source_at_end);
    }
    throw check_error("unknown --algo");
}

/// Runs `schedule` once on real worker threads (hcube::rt) as one
/// rt::CheckedPlan of 256-double blocks and prints measured wall clock,
/// delivered GB/s, and whether the run verified. True when it verified and
/// its cycle count equals the cycle simulator's makespan.
bool run_on_threads(const sim::Schedule& schedule, sim::PortModel port,
                    std::uint32_t requested_threads) {
    const std::uint32_t threads =
        rt::pick_worker_threads(schedule.n, requested_threads);
    rt::CheckedPlan checked(schedule, schedule, rt::DataMode::move, port,
                            256, threads);
    // One worker plays serially and needs no pool.
    const std::unique_ptr<rt::WorkerPool> pool =
        threads > 1 ? std::make_unique<rt::WorkerPool>(threads) : nullptr;
    const rt::CheckedRun run = checked.play(pool.get());
    const rt::PlayStats& stats = run.stats;
    std::printf("  rt (threads=%u): %u cycles (sim makespan %u), "
                "%.3f ms, %.3f GB/s, %s\n",
                threads, stats.cycles, checked.makespan(),
                stats.seconds * 1e3,
                stats.seconds > 0 ? static_cast<double>(stats.payload_bytes) /
                                        stats.seconds * 1e-9
                                  : 0.0,
                run.verified ? "verified" : "VERIFICATION FAILED");
    return run.verified && stats.cycles == checked.makespan();
}

} // namespace

int main(int argc, char** argv) {
    const CliOptions options(argc, argv);
    const std::string op = options.get_string("op", "broadcast");
    const std::string algo = options.get_string("algo", "msbt");
    const sim::PortModel port = parse_port(options.get_string("port", "full"));
    const auto n = static_cast<hc::dim_t>(options.get_int("dim", 6));
    const auto s = static_cast<hc::node_t>(options.get_int("source", 0));
    const double M = options.get_double("msg", 61440);
    const double B = options.get_double("packet", 1024);
    const auto threads =
        static_cast<std::uint32_t>(options.get_int("threads", 0));

    sim::EventParams params;
    params.tau = options.get_double("tau", params.tau);
    params.tc = options.get_double("tc", params.tc);
    params.overlap = options.get_double("overlap", 0.0);
    params.model = port;

    std::printf("%s / %s / %s on a %d-cube, source %u, M = %.0f, B = %.0f\n",
                op.c_str(), algo.c_str(), std::string(to_string(port)).c_str(),
                n, s, M, B);

    if (op == "broadcast") {
        // Cycle-exact step count.
        const auto packets = static_cast<sim::packet_t>(std::ceil(M / B));
        routing::Schedule schedule;
        if (algo == "msbt") {
            const auto pps = static_cast<sim::packet_t>(
                std::ceil(M / (B * n)));
            schedule = routing::msbt_broadcast(n, s, pps, port);
        } else if (algo == "sbt" && port != sim::PortModel::all_port) {
            schedule =
                routing::port_oriented_broadcast(build(algo, n, s), packets);
        } else {
            schedule = routing::paced_broadcast(build(algo, n, s), packets,
                                                port);
        }
        const auto stats = sim::execute_schedule(schedule, port);
        std::printf("  routing steps: %u   (packets in flight at peak: "
                    "%llu)\n",
                    stats.makespan,
                    static_cast<unsigned long long>(
                        stats.max_sends_in_one_cycle));
        if (options.has("trace")) {
            const auto util = sim::link_utilization(schedule);
            std::printf("  links used: %llu / %llu, busiest link %llu "
                        "sends, busy fraction %.2f\n",
                        static_cast<unsigned long long>(
                            util.directed_links_used),
                        static_cast<unsigned long long>(
                            util.directed_links_total),
                        static_cast<unsigned long long>(
                            util.busiest_link_sends),
                        util.busy_fraction);
            std::fputs(sim::render_gantt(schedule).c_str(), stdout);
        }
        if (options.has("dump-schedule")) {
            const std::string path =
                options.get_string("dump-schedule", "schedule.csv");
            sim::schedule_to_csv(schedule, path);
            std::printf("  schedule written to %s\n", path.c_str());
        }

        // Wall clock on the simulated machine.
        sim::EventEngine engine(n, params);
        double time = 0;
        if (algo == "msbt") {
            routing::MsbtBroadcastProtocol protocol(n, s, M, B);
            time = engine.run(protocol).completion_time;
        } else {
            const trees::SpanningTree tree = build(algo, n, s);
            if (port == sim::PortModel::all_port) {
                routing::PipelinedBroadcast protocol(tree, M, B);
                time = engine.run(protocol).completion_time;
            } else {
                routing::PortOrientedBroadcast protocol(tree, M, B);
                time = engine.run(protocol).completion_time;
            }
        }
        std::printf("  simulated time: %.6f s\n", time);

        // Real data movement on worker threads, cross-checked against the
        // cycle simulator.
        if (options.has("rt") && !run_on_threads(schedule, port, threads)) {
            return 1;
        }
        return 0;
    }

    if (op == "scatter") {
        const trees::SpanningTree tree = build(algo, n, s);
        const auto order =
            (algo == "bst")
                ? routing::cyclic_dest_order(
                      tree, routing::SubtreeOrder::reverse_breadth_first)
                : routing::descending_dest_order(tree);
        routing::Schedule schedule;
        if (port != sim::PortModel::one_port_half_duplex) {
            schedule =
                (port == sim::PortModel::all_port)
                    ? routing::scatter_all_port(
                          tree,
                          routing::per_subtree_dest_orders(
                              tree, routing::SubtreeOrder::
                                        reverse_breadth_first),
                          1)
                    : routing::scatter_one_port(tree, order, 1);
            const auto stats = sim::execute_schedule(schedule, port);
            std::printf("  routing steps (1 packet per node): %u\n",
                        stats.makespan);
        }
        sim::EventEngine engine(n, params);
        routing::ScatterProtocol protocol(tree, order, M);
        const auto stats = engine.run(protocol);
        std::printf("  simulated time: %.6f s (%zu payloads delivered)\n",
                    stats.completion_time, protocol.delivered());

        if (options.has("rt")) {
            if (port == sim::PortModel::one_port_half_duplex) {
                std::printf("  rt: half-duplex scatter has no cycle "
                            "schedule; skipped\n");
            } else if (!run_on_threads(schedule, port, threads)) {
                return 1;
            }
        }
        return 0;
    }

    std::fprintf(stderr, "unknown --op (want broadcast|scatter)\n");
    return 1;
}
