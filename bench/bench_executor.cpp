// Throughput benchmark for the schedule-execution engine: validated
// sends/second across n = nmin..nmax for SBT/MSBT/BST broadcast and scatter
// schedules under sim::execute_schedule. Schedule generation is excluded
// from the timed region. The speedup over the original map/set-based
// executor is a frozen record: the legacy_* columns of BENCH_executor.json
// (docs/PERFORMANCE.md § Benchmarking).
//
//   bench_executor --nmin 7 --nmax 13 [--packets 8] [--pps 2] [--ppd 1]
//                  [--min-time 0.2] [--workload <substring>]
//                  [--tracking auto|dense|sparse] [--json <path>]
#include "bench_util.hpp"

#include "common/json.hpp"
#include "routing/broadcast.hpp"
#include "routing/scatter.hpp"
#include "sim/cycle.hpp"
#include "trees/bst.hpp"
#include "trees/sbt.hpp"

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace {

using hcube::CliOptions;
using hcube::hc::dim_t;
using hcube::hc::node_t;
using hcube::sim::DeliveryTracking;
using hcube::sim::packet_t;
using hcube::sim::PortModel;
using hcube::sim::Schedule;

struct Workload {
    std::string name;
    PortModel model;
    std::function<Schedule(dim_t)> generate;
};

struct Result {
    std::string workload;
    dim_t n = 0;
    std::uint64_t sends = 0;
    std::uint32_t makespan = 0;
    bool sparse = false;
    double flat_rate = 0.0; // validated sends / second
};

const char* model_name(PortModel model) {
    switch (model) {
    case PortModel::one_port_half_duplex:
        return "half";
    case PortModel::one_port_full_duplex:
        return "full";
    case PortModel::all_port:
        return "all";
    }
    return "?";
}

/// Times `run()` (which must return a checksum so the work is observable)
/// until at least `min_time` seconds have elapsed; returns seconds per call.
double time_per_call(const std::function<std::uint64_t()>& run,
                     double min_time, std::uint64_t& sink) {
    using clock = std::chrono::steady_clock;
    std::uint64_t calls = 0;
    double elapsed = 0.0;
    std::uint64_t batch = 1;
    while (elapsed < min_time && calls < 100000) {
        const auto start = clock::now();
        for (std::uint64_t i = 0; i < batch; ++i) {
            sink += run();
        }
        elapsed += std::chrono::duration<double>(clock::now() - start).count();
        calls += batch;
        batch *= 2;
    }
    return elapsed / static_cast<double>(calls);
}

std::vector<Workload> make_workloads(packet_t packets, packet_t pps,
                                     packet_t ppd) {
    namespace routing = hcube::routing;
    namespace trees = hcube::trees;
    using routing::SubtreeOrder;
    return {
        {"sbt_port_bcast", PortModel::one_port_full_duplex,
         [packets](dim_t n) {
             return routing::port_oriented_broadcast(trees::build_sbt(n, 0),
                                                     packets);
         }},
        {"sbt_paced_allport", PortModel::all_port,
         [packets](dim_t n) {
             return routing::paced_broadcast(trees::build_sbt(n, 0), packets,
                                             PortModel::all_port);
         }},
        {"msbt_fdx", PortModel::one_port_full_duplex,
         [pps](dim_t n) {
             return routing::msbt_broadcast(n, 0, pps,
                                            PortModel::one_port_full_duplex);
         }},
        {"msbt_half", PortModel::one_port_half_duplex,
         [pps](dim_t n) {
             return routing::msbt_broadcast(n, 0, pps,
                                            PortModel::one_port_half_duplex);
         }},
        {"msbt_allport", PortModel::all_port,
         [pps](dim_t n) {
             return routing::msbt_broadcast(n, 0, pps, PortModel::all_port);
         }},
        {"bst_scatter_oneport", PortModel::one_port_full_duplex,
         [ppd](dim_t n) {
             const trees::SpanningTree tree = trees::build_bst(n, 0);
             return routing::scatter_one_port(
                 tree,
                 routing::cyclic_dest_order(
                     tree, SubtreeOrder::reverse_breadth_first),
                 ppd);
         }},
        {"sbt_scatter_allport", PortModel::all_port,
         [ppd](dim_t n) {
             const trees::SpanningTree tree = trees::build_sbt(n, 0);
             return routing::scatter_all_port(
                 tree,
                 routing::per_subtree_dest_orders(
                     tree, SubtreeOrder::reverse_breadth_first),
                 ppd);
         }},
    };
}

bool write_json(const std::string& path, const std::vector<Result>& rows) {
    hcube::JsonArrayWriter json(path);
    if (!json.ok()) {
        std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
        return false;
    }
    for (const Result& r : rows) {
        json.begin_row();
        json.field("workload", r.workload);
        json.field("n", r.n);
        json.field("sends", r.sends);
        json.field("makespan", r.makespan);
        json.field("sparse", r.sparse);
        json.field("flat_sends_per_sec", r.flat_rate);
        json.end_row();
    }
    return json.close();
}

} // namespace

int main(int argc, char** argv) {
    const CliOptions options(argc, argv);
    const dim_t nmin = static_cast<dim_t>(options.get_int("nmin", 7));
    const dim_t nmax = static_cast<dim_t>(options.get_int("nmax", 13));
    const auto packets =
        static_cast<packet_t>(options.get_int("packets", 8));
    const auto pps = static_cast<packet_t>(options.get_int("pps", 2));
    const auto ppd = static_cast<packet_t>(options.get_int("ppd", 1));
    const double min_time = options.get_double("min-time", 0.2);
    const std::string filter = options.get_string("workload", "");
    const std::string tracking_name =
        options.get_string("tracking", "auto");
    const DeliveryTracking tracking =
        tracking_name == "dense"    ? DeliveryTracking::dense
        : tracking_name == "sparse" ? DeliveryTracking::sparse
                                    : DeliveryTracking::automatic;

    hcube::bench::banner("Executor throughput",
                         "validated sends/second of the flat engine");
    std::printf("%-20s %-5s %3s %12s %9s %13s\n", "workload", "model", "n",
                "sends", "makespan", "flat snd/s");

    std::vector<Result> rows;
    std::uint64_t sink = 0;
    for (const Workload& w : make_workloads(packets, pps, ppd)) {
        if (!filter.empty() && w.name.find(filter) == std::string::npos) {
            continue;
        }
        for (dim_t n = nmin; n <= nmax; ++n) {
            const Schedule schedule = w.generate(n);

            Result row;
            row.workload = w.name;
            row.n = n;

            const double flat_sec = time_per_call(
                [&] {
                    const auto stats = hcube::sim::execute_schedule(
                        schedule, w.model, tracking);
                    row.sends = stats.total_sends;
                    row.makespan = stats.makespan;
                    row.sparse = stats.delivery_cycle.is_sparse();
                    return std::uint64_t{stats.makespan} + stats.total_sends;
                },
                min_time, sink);
            row.flat_rate = static_cast<double>(row.sends) / flat_sec;

            std::printf("%-20s %-5s %3d %12llu %9u %13.3g\n",
                        row.workload.c_str(), model_name(w.model), n,
                        static_cast<unsigned long long>(row.sends),
                        row.makespan, row.flat_rate);
            std::fflush(stdout);
            rows.push_back(row);
        }
    }

    const std::string json_path = options.get_string("json", "");
    if (!json_path.empty() && write_json(json_path, rows)) {
        std::printf("\nwrote %s\n", json_path.c_str());
    }
    if (sink == 0) {
        std::printf("(empty run)\n");
    }
    return 0;
}
