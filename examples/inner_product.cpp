// Distributed inner products — the paper's §1 names "computing inner
// products" as a canonical use of the reduction (reverse broadcast)
// operation.
//
// Every node owns a slice of two long vectors x and y; the global dot
// product needs a sum-reduction of the local partial products, and an
// iterative solver needs the result back at every node. We play §1's
// composition — a combining reduction up the SBT, then an SBT broadcast of
// the sum — and its all-to-all variant, the allgather that leaves every
// partial at every node to sum locally, on real worker threads through one
// svc::Session. Each node's partial product is one double: the runtime's
// generated contribution for that node, so the runtime's rule
// (rt/expected.hpp) knows the exact sum and judges every run. Exits 1
// unless every run verifies with cycles equal to the makespan.
//
// Usage: inner_product [--dim n]
#include "common/cli.hpp"
#include "model/broadcast_model.hpp"
#include "svc/session.hpp"

#include <cstdio>

int main(int argc, char** argv) {
    using namespace hcube;
    using svc::Op;

    const CliOptions options(argc, argv);
    const auto n = static_cast<hc::dim_t>(options.get_int("dim", 7));
    const hc::node_t N = hc::node_t{1} << n;

    svc::Session session(n);
    std::printf("dot product on a %d-cube: every node's partial product "
                "is one double (%u threads)\n\n",
                n, session.threads());

    bool all_ok = true;
    const auto run = [&](const char* name, Op op) {
        svc::Signature sig;
        sig.op = op;
        sig.n = n;
        sig.block_elems = 1;
        const svc::ExecStats r = session.execute(sig);
        const bool ok = r.verified && r.rt_cycles == r.sim_makespan;
        all_ok = all_ok && ok;
        std::printf("%-10s %3u cycles (makespan %3u), %.3f ms, %s\n", name,
                    r.rt_cycles, r.sim_makespan, r.seconds * 1e3,
                    r.verified ? "verified" : "NOT VERIFIED");
        return r.sim_makespan;
    };
    const std::uint32_t reduce = run("reduce", Op::reduce);
    const std::uint32_t broadcast = run("broadcast", Op::broadcast);
    const std::uint32_t allgather = run("allgather", Op::allgather);

    // Every cycle moves one one-double packet: one start-up each.
    const model::CommParams ipsc = model::ipsc_params();
    const double per_cycle = ipsc.tau + ipsc.tc;
    std::printf("\nreduce + broadcast: %u cycles, %.4f s on the iPSC "
                "(2 log N start-ups)\n",
                reduce + broadcast, (reduce + broadcast) * per_cycle);
    std::printf("allgather:          %u cycles, %.4f s on the iPSC "
                "(N - 1 = %u start-ups)\n",
                allgather, allgather * per_cycle, N - 1);
    std::printf("\nfor scalar payloads the start-up term dominates — the "
                "term the paper's\noptimal-packet-size analysis is built "
                "around.\n");
    return all_ok ? 0 : 1;
}
