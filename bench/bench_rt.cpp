// Wall-clock benchmark of the threaded collective runtime (hcube::rt):
// delivered GB/s of the AsyncPlayer across a worker-thread sweep, with
// three checks per configuration —
//   * the engine's cycle count must equal the CycleExecutor makespan of
//     the same schedule exactly (for the reduce: of the broadcast it
//     reverses); the makespan is printed next to the model:: closed-form
//     step count (Table 3) where one exists,
//   * every run is clean: every delivered block is checksum-verified,
//   * the last timed rep's final memory passes the runtime's verification
//     rule (rt/expected.hpp): check_move_run, or check_combine_run into
//     the root.
//
// The timed region is play() only: schedule generation, plan compilation
// and allocation are excluded, mirroring bench_executor. In process there
// is no per-cycle startup term to measure: the paper's τ + B·t_c effect
// is measured where τ is real, on the event engine (bench_fig7_speedup)
// and over sockets (bench_net).
//
// The four move workloads deliver zero-copy, so the engine always runs
// them serial; the combine-mode `reduce` accumulates every block, in place
// on the serial walk (bytes_copied 0) and staged through the rings where
// it steals (8 KiB blocks and up, see rt/async_player.hpp).
//
//   bench_rt --nmin 4 --nmax 8 [--pps 4] [--ppd 2] [--block 32,1024]
//            [--threads 1,4 (default sweeps 1,2,4,hw)] [--reps 3]
//            [--min-time 0.1] [--json <path>] [--trace-out <path>]
//
// --block and --threads take comma-separated lists; the default blocks
// "32,1024" cover the latency- and bandwidth-bound regimes in one run.
// Each JSON row also reports bytes_copied (payload memcpys the engine
// performed — 0 on the zero-copy delivery path), checksum_gbs (the
// standalone digest throughput of the scalar checksum kernel at that block
// size), generate_gbs (the standalone throughput of fill_contribution, the
// payload generator, at that block size: it should outrun the digest of
// the same bytes), mode (how the engine actually executed: serial or
// stealing) and steals. Rows at more than one thread add
// speedup_vs_serial: the 1-thread row's seconds (always the serial walk)
// over this row's, at the same workload, n and block.
//
// --trace-out writes a chrome://tracing (Perfetto-compatible) JSON file:
// one extra instrumented run per (workload, n, block, threads)
// configuration, per-worker begin/end of every send/recv action, one
// process (pid) per configuration. Keep the sweep narrow when tracing.
#include "bench_util.hpp"

#include "common/json.hpp"
#include "model/broadcast_model.hpp"
#include "routing/schedule_export.hpp"
#include "rt/async_player.hpp"
#include "rt/checksum.hpp"
#include "rt/expected.hpp"
#include "rt/plan.hpp"
#include "rt/pool.hpp"
#include "rt/simd.hpp"
#include "rt/threads.hpp"
#include "sim/cycle.hpp"
#include "trees/bst.hpp"
#include "trees/sbt.hpp"

#include "rt/tracing.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace {

using hcube::CliOptions;
using hcube::hc::dim_t;
using hcube::sim::packet_t;
using hcube::sim::PortModel;
using hcube::sim::Schedule;

struct Workload {
    std::string name;
    std::string op;   ///< broadcast | scatter | reduce
    std::string algo; ///< sbt | msbt | bst
    hcube::rt::DataMode mode;
    /// The schedule to play; for a combine-mode workload, the broadcast
    /// whose time reversal is played (its feasibility proof and makespan).
    std::function<Schedule(dim_t)> generate;
    /// Closed-form routing-step count from model::, 0 if none applies.
    std::function<double(dim_t, packet_t)> model_steps;
};

struct Row {
    std::string workload;
    std::string op;
    std::string algo;
    dim_t n = 0;
    std::uint32_t threads = 0;
    std::uint64_t block_elems = 0;
    packet_t packets = 0;
    std::uint32_t rt_cycles = 0;
    std::uint32_t sim_makespan = 0;
    double model_steps = 0;
    std::uint64_t blocks_delivered = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t bytes_copied = 0; ///< 0 on the zero-copy delivery path
    std::uint64_t steals = 0;
    std::uint64_t checksum_failures = 0;
    std::uint64_t channel_faults = 0;
    std::uint64_t timeouts = 0;
    double seconds = 0; ///< best-of-reps wall clock of the threaded region
    double gbps = 0;
    double checksum_gbs = 0; ///< standalone digest kernel throughput
    double generate_gbs = 0; ///< standalone payload generator throughput
    double vs_serial = 0; ///< 1-thread seconds / seconds
    std::string mode; ///< serial | stealing (last rep's choice)
    std::string transport = "ring"; ///< medium the blocks moved over
    bool verified = false;
};

/// Parses "--block 32,1024,4096" into a deduplicated list of positive
/// sizes.
std::vector<std::size_t> parse_size_list(const std::string& spec) {
    std::vector<std::size_t> out;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string item = spec.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (!item.empty()) {
            const auto value =
                static_cast<std::size_t>(std::strtoull(item.c_str(),
                                                       nullptr, 10));
            if (value > 0 &&
                std::ranges::find(out, value) == out.end()) {
                out.push_back(value);
            }
        }
        if (comma == std::string::npos) {
            break;
        }
        pos = comma + 1;
    }
    return out;
}

/// GB per second of `kernel` over a cache-resident block of
/// `block_elems` doubles, the best of three 20 ms windows:
/// `kernel(block, k)` runs once per iteration `k` and returns a word
/// folded into a sink, which keeps the optimizer honest without a
/// volatile store in the timed loop.
template <class Kernel>
double kernel_throughput(std::size_t block_elems, Kernel kernel) {
    using clock = std::chrono::steady_clock;
    std::vector<double> block(block_elems);
    hcube::rt::fill_canonical(block, 0);
    std::uint64_t sink = 0;
    // Warm the cache lines before timing.
    for (std::uint32_t k = 0; k < 16; ++k) {
        sink ^= kernel(block, k);
    }
    double best = 0;
    for (int window = 0; window < 3; ++window) {
        std::uint64_t iters = 0;
        const auto t0 = clock::now();
        double elapsed = 0;
        do {
            for (std::uint32_t k = 0; k < 64; ++k) {
                sink ^= kernel(block, k);
            }
            iters += 64;
            elapsed =
                std::chrono::duration<double>(clock::now() - t0).count();
        } while (elapsed < 0.02);
        best = std::max(best, static_cast<double>(iters) *
                                  static_cast<double>(block_elems *
                                                      sizeof(double)) /
                                  elapsed * 1e-9);
    }
    if (sink == 0xDEADBEEF) {
        std::printf("#");
    }
    return best;
}

/// Standalone throughput of the checksum kernel at one block size: GB
/// digested per second over a canonical block.
double checksum_throughput(std::size_t block_elems) {
    return kernel_throughput(
        block_elems, [](const std::vector<double>& block, std::uint32_t) {
            return hcube::rt::simd::checksum(block.data(), block.size());
        });
}

/// Standalone throughput of the payload generator at one block size: GB
/// of contribution blocks filled per second, a different packet each
/// iteration.
double generate_throughput(std::size_t block_elems) {
    return kernel_throughput(
        block_elems, [](std::vector<double>& block, std::uint32_t k) {
            hcube::rt::fill_contribution(block, 1, k);
            std::uint64_t bits;
            std::memcpy(&bits, &block.back(), sizeof(bits));
            return bits;
        });
}

/// The worker counts to run, ascending and clamped/deduplicated via the
/// shared pick_worker_threads policy: the explicit requests, or the sweep
/// {1, 2, 4, auto} when there are none.
std::vector<std::uint32_t>
thread_counts(dim_t n, const std::vector<std::size_t>& requested) {
    std::vector<std::uint32_t> out;
    const auto add = [&out, n](std::uint32_t t) {
        const std::uint32_t picked = hcube::rt::pick_worker_threads(n, t);
        if (std::ranges::find(out, picked) == out.end()) {
            out.push_back(picked);
        }
    };
    for (const std::size_t t : requested) {
        add(static_cast<std::uint32_t>(t));
    }
    if (requested.empty()) {
        add(1);
        add(2);
        add(4);
        add(0); // auto: max(2, hardware_concurrency), clamped to 2^n
    }
    std::ranges::sort(out);
    return out;
}

} // namespace

int main(int argc, char** argv) {
    const CliOptions options(argc, argv);
    const auto nmin = static_cast<dim_t>(options.get_int("nmin", 4));
    const auto nmax = static_cast<dim_t>(options.get_int("nmax", 8));
    const auto pps = static_cast<packet_t>(options.get_int("pps", 4));
    const auto ppd = static_cast<packet_t>(options.get_int("ppd", 2));
    const std::vector<std::size_t> blocks =
        parse_size_list(options.get_string("block", "32,1024"));
    if (blocks.empty()) {
        std::fprintf(stderr, "--block needs a comma-separated size list\n");
        return 1;
    }
    // Empty (the default, or "0") sweeps 1,2,4,auto.
    const std::vector<std::size_t> threads =
        parse_size_list(options.get_string("threads", ""));
    const auto reps = static_cast<int>(options.get_int("reps", 3));
    const double min_time = options.get_double("min-time", 0.1);
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
        "Runtime throughput",
        "AsyncPlayer GB/s, verified by the runtime's rule");
    const auto join = [](const std::vector<std::size_t>& list) {
        std::string out;
        for (const std::size_t v : list) {
            out += (out.empty() ? "" : ",") + std::to_string(v);
        }
        return out;
    };
    std::printf("  threads=%s blocks=%s doubles  reduce kernel=%s "
                "(timed region: play() only, best of >= %d reps)\n\n",
                threads.empty() ? "1,2,4,auto" : join(threads).c_str(),
                join(blocks).c_str(), hcube::rt::simd::dispatch_name(),
                reps);

    // The digest's and the generator's standalone throughput per block
    // size — attached to every row of that size so the JSON carries the
    // cost of checking and of generating payload alongside the end-to-end
    // delivery numbers they are buried in.
    std::vector<double> checksum_gbs(blocks.size());
    std::vector<double> generate_gbs(blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        checksum_gbs[i] = checksum_throughput(blocks[i]);
        generate_gbs[i] = generate_throughput(blocks[i]);
        std::printf("  checksum(%zu doubles): %.2f GB/s  generate: %.2f "
                    "GB/s\n",
                    blocks[i], checksum_gbs[i], generate_gbs[i]);
    }
    std::printf("\n");

    // Broadcast pair uses the same total packet count P = n * pps for both
    // algorithms (the MSBT needs P divisible by n), so byte-for-byte the
    // same message crosses the cube. Scatter pair uses ppd packets per
    // destination on both trees. The reduce sums 2 blocks from every node
    // into node 0 over the reversed SBT broadcast: the fewest packets that
    // give n=6 the 32 actions per worker stealing needs on 4 workers.
    using hcube::rt::DataMode;
    const std::vector<Workload> workloads = {
        {"sbt_bcast", "broadcast", "sbt", DataMode::move,
         [pps](dim_t n) {
             return hcube::routing::make_tree_broadcast(
                 hcube::trees::build_sbt(n, 0),
                 hcube::routing::BroadcastDiscipline::port_oriented,
                 static_cast<packet_t>(n) * pps,
                 PortModel::one_port_full_duplex);
         },
         [](dim_t n, packet_t packets) {
             return static_cast<double>(n) * packets;
         }},
        {"msbt_bcast", "broadcast", "msbt", DataMode::move,
         [pps](dim_t n) {
             return hcube::routing::make_msbt_broadcast(
                 n, 0, static_cast<packet_t>(n) * pps,
                 PortModel::one_port_full_duplex);
         },
         [](dim_t n, packet_t packets) {
             return static_cast<double>(packets) + n;
         }},
        {"sbt_scatter", "scatter", "sbt", DataMode::move,
         [ppd](dim_t n) {
             return hcube::routing::make_tree_scatter(
                 hcube::trees::build_sbt(n, 0),
                 hcube::routing::ScatterPolicy::descending, ppd,
                 PortModel::one_port_full_duplex);
         },
         [](dim_t, packet_t) { return 0.0; }},
        {"bst_scatter", "scatter", "bst", DataMode::move,
         [ppd](dim_t n) {
             return hcube::routing::make_tree_scatter(
                 hcube::trees::build_bst(n, 0),
                 hcube::routing::ScatterPolicy::cyclic, ppd,
                 PortModel::one_port_full_duplex);
         },
         [](dim_t, packet_t) { return 0.0; }},
        {"reduce", "reduce", "sbt", DataMode::combine,
         [](dim_t n) {
             return hcube::routing::make_tree_broadcast(
                 hcube::trees::build_sbt(n, 0),
                 hcube::routing::BroadcastDiscipline::port_oriented, 2,
                 PortModel::one_port_full_duplex);
         },
         [](dim_t n, packet_t packets) {
             return static_cast<double>(n) * packets;
         }},
    };

    std::printf("%-12s %3s %5s %4s %8s %7s %10s %9s %9s %-8s %8s %5s\n",
                "workload", "n", "blk", "thr", "packets", "cycles",
                "blocks", "ms", "GB/s", "mode", "vs-1thr", "ok");

    std::vector<Row> rows;
    for (const Workload& w : workloads) {
        for (dim_t n = nmin; n <= nmax; ++n) {
            const Schedule generated = w.generate(n);
            const auto sim_stats = hcube::sim::execute_schedule(
                generated, PortModel::one_port_full_duplex);
            const Schedule schedule =
                w.mode == DataMode::combine
                    ? hcube::routing::reverse_broadcast_for_reduce(generated,
                                                                   0)
                    : generated;

            for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
            const std::size_t block = blocks[bi];
            for (const std::uint32_t use_threads :
                 thread_counts(n, threads)) {
                const hcube::rt::Plan plan = hcube::rt::compile_plan(
                    schedule, w.mode, block, use_threads);
                hcube::rt::AsyncPlayer player(plan);
                // Every rep replays on one persistent pool, so the rows
                // measure steady-state execution with zero thread churn.
                const auto pool =
                    use_threads > 1
                        ? std::make_unique<hcube::rt::WorkerPool>(use_threads)
                        : nullptr;

                Row row;
                row.workload = w.name;
                row.op = w.op;
                row.algo = w.algo;
                row.n = n;
                row.threads = use_threads;
                row.block_elems = block;
                row.packets = schedule.packet_count;
                row.sim_makespan = sim_stats.makespan;
                row.model_steps = w.model_steps(n, schedule.packet_count);
                row.checksum_gbs = checksum_gbs[bi];
                row.generate_gbs = generate_gbs[bi];

                // Best-of wall clock over >= reps runs or min_time,
                // whichever is later.
                row.seconds = 1e300;
                row.verified = true;
                double elapsed = 0.0;
                int runs = 0;
                while (runs < reps || elapsed < min_time) {
                    const hcube::rt::PlayStats stats =
                        player.play(pool.get());
                    row.rt_cycles = stats.cycles;
                    row.blocks_delivered = stats.blocks_delivered;
                    row.payload_bytes = stats.payload_bytes;
                    row.bytes_copied = stats.bytes_copied;
                    row.mode = hcube::rt::to_string(stats.mode);
                    row.transport = hcube::ft::to_string(stats.transport);
                    row.steals = stats.steals;
                    row.checksum_failures += stats.checksum_failures;
                    row.channel_faults += stats.channel_faults;
                    row.timeouts += stats.timeouts;
                    row.seconds = std::min(row.seconds, stats.seconds);
                    row.verified =
                        row.verified && stats.clean() &&
                        stats.cycles == sim_stats.makespan &&
                        stats.blocks_delivered == schedule.sends.size();
                    elapsed += stats.seconds;
                    ++runs;
                    if (runs >= 1000) {
                        break;
                    }
                }
                row.gbps = static_cast<double>(row.payload_bytes) /
                           row.seconds * 1e-9;
                // The last rep's final memory must be the state the
                // schedule implies.
                row.verified =
                    row.verified &&
                    (w.mode == DataMode::combine
                         ? hcube::rt::check_combine_run(plan, schedule, 0,
                                                        {}, player)
                               .has_value()
                         : hcube::rt::check_move_run(plan, sim_stats,
                                                     player));
                // Thread counts run ascending, so the 1-thread row of
                // this (workload, n, block), if requested, is in.
                const auto serial_row =
                    std::ranges::find_if(rows, [&](const Row& r) {
                        return r.threads == 1 && r.workload == w.name &&
                               r.n == n && r.block_elems == block;
                    });
                if (use_threads > 1 && serial_row != rows.end()) {
                    row.vs_serial = serial_row->seconds / row.seconds;
                }

                std::printf("%-12s %3d %5zu %4u %8u %7u %10llu %9.3f "
                            "%9.3f %-8s ",
                            row.workload.c_str(), n, block, row.threads,
                            row.packets, row.rt_cycles,
                            static_cast<unsigned long long>(
                                row.blocks_delivered),
                            row.seconds * 1e3, row.gbps, row.mode.c_str());
                if (row.vs_serial > 0) {
                    std::printf("%7.2fx ", row.vs_serial);
                } else {
                    std::printf("%8s ", "-");
                }
                std::printf("%5s\n", row.verified ? "yes" : "NO");
                std::fflush(stdout);
                rows.push_back(row);

                if (trace_json != nullptr) {
                    // One instrumented (untimed) run; every configuration
                    // becomes its own chrome-trace process.
                    hcube::rt::TraceRecorder recorder(use_threads);
                    player.set_trace(&recorder);
                    (void)player.play();
                    player.set_trace(nullptr);
                    recorder.append_chrome_events(
                        *trace_json, trace_pid++,
                        w.name + " n=" + std::to_string(n) +
                            " b=" + std::to_string(block) +
                            " t=" + std::to_string(use_threads));
                }
            }
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
            json.field("workload", r.workload);
            json.field("op", r.op);
            json.field("algo", r.algo);
            json.field("n", r.n);
            json.field("threads", r.threads);
            json.field("block_elems", r.block_elems);
            json.field("packets", r.packets);
            json.field("rt_cycles", r.rt_cycles);
            json.field("sim_makespan", r.sim_makespan);
            if (r.model_steps > 0) {
                json.field("model_steps", r.model_steps);
            }
            json.field("blocks_delivered", r.blocks_delivered);
            json.field("payload_bytes", r.payload_bytes);
            json.field("bytes_copied", r.bytes_copied);
            json.field("checksum_gbs", r.checksum_gbs);
            json.field("generate_gbs", r.generate_gbs);
            json.field("mode", r.mode);
            json.field("transport", r.transport);
            json.field("checksum_failures", r.checksum_failures);
            json.field("channel_faults", r.channel_faults);
            json.field("timeouts", r.timeouts);
            json.field("seconds", r.seconds);
            json.field("gbytes_per_sec", r.gbps);
            json.field("pool_reused", true);
            if (r.vs_serial > 0) {
                json.field("speedup_vs_serial", r.vs_serial);
            }
            json.field("steals", r.steals);
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
        std::fprintf(stderr, "\nFAILED: some rows did not verify\n");
        return 1;
    }
    return 0;
}
