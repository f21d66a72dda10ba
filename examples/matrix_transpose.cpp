// Matrix transpose — the paper's §1 names it as the canonical *all-to-all*
// personalized communication: "every node sends different data to every
// other node".
//
// An N·b x N·b matrix is distributed by block rows (node i owns block row
// i, itself split into N b x b blocks). Transposing the distribution means
// node i must send block (i, j) to node j — a complete exchange. We play
// the dimension-order recursive exchange on real worker threads as one
// rt::CheckedPlan, block (i, j) being packet routing::alltoall_packet_id(i,
// j) of b·b doubles, so the runtime's rule (rt/expected.hpp) judges the
// run. We then check that node j holds block (i, j) for every i, and print
// the cycle count beside the makespan n·N/2 and the paper-style cost on
// the iPSC constants. Exits 1 unless the run verifies, its cycles equal
// the makespan and no block is misplaced.
//
// Usage: matrix_transpose [--dim n] [--block b]
#include "common/cli.hpp"
#include "model/broadcast_model.hpp"
#include "routing/alltoall.hpp"
#include "routing/schedule_export.hpp"
#include "rt/expected.hpp"
#include "rt/pool.hpp"
#include "rt/threads.hpp"

#include <cstdio>
#include <memory>

int main(int argc, char** argv) {
    using namespace hcube;
    const CliOptions options(argc, argv);
    const auto n = static_cast<hc::dim_t>(options.get_int("dim", 6));
    const auto b = static_cast<std::size_t>(options.get_int("block", 8));
    const hc::node_t N = hc::node_t{1} << n;
    const std::size_t dim = N * b;

    std::printf("transposing a %zu x %zu matrix on a %d-cube "
                "(%u x %u grid of %zu x %zu blocks)\n\n",
                dim, dim, n, N, N, b, b);

    const sim::Schedule schedule = routing::make_alltoall_schedule(n, 1);
    const std::uint32_t threads = rt::pick_worker_threads(n, 0);
    rt::CheckedPlan checked(schedule, schedule, rt::DataMode::move,
                            sim::PortModel::one_port_full_duplex, b * b,
                            threads);
    // One worker plays serially and needs no pool.
    const std::unique_ptr<rt::WorkerPool> pool =
        threads > 1 ? std::make_unique<rt::WorkerPool>(threads) : nullptr;
    const rt::CheckedRun run = checked.play(pool.get());

    // After the exchange node j holds block (i, j) for every i: the local
    // b x b blocks still need their internal transpose.
    const rt::Plan& plan = checked.plan();
    std::size_t misplaced = 0;
    for (hc::node_t j = 0; j < N; ++j) {
        for (hc::node_t i = 0; i < N; ++i) {
            const sim::packet_t packet =
                routing::alltoall_packet_id(i, j, n, 1, 0);
            if (!rt::is_arena_block(plan, checked.player().block(j, packet),
                                    packet)) {
                ++misplaced;
            }
        }
    }

    std::printf("complete exchange on %u threads: %u cycles (makespan %u "
                "= n N/2), %.3f ms, %s\n",
                threads, run.stats.cycles, checked.makespan(),
                run.stats.seconds * 1e3,
                run.verified ? "verified" : "NOT VERIFIED");
    std::printf("blocks: %llu checked, %zu misplaced\n",
                static_cast<unsigned long long>(N) * N, misplaced);

    const model::CommParams ipsc = model::ipsc_params();
    const double elements_moved =
        static_cast<double>(N) * (N - 1) * static_cast<double>(b * b);
    std::printf("data crossing the network: %.0f elements; per-node "
                "per-round load N/2 blocks x log N rounds\n",
                elements_moved);
    std::printf("iPSC model: log N (tau + N/2 b^2 t_c) = %.4f s\n",
                n * (ipsc.tau + (static_cast<double>(N) / 2) *
                                    static_cast<double>(b * b) * ipsc.tc));
    const bool ok = run.verified &&
                    run.stats.cycles == checked.makespan() && misplaced == 0;
    return ok ? 0 : 1;
}
