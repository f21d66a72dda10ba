// Runs every collective of the threaded runtime (hcube::rt) once on real
// worker threads, through one svc::Session, and prints the measured wall
// clock next to the cycle simulator's makespan — the quickest way to see
// schedules as actual data movement rather than cycle counts. Exits 1 when
// any run is unverified or its cycle count differs from the makespan.
//
//   rt_collectives [--dim 5] [--threads 0=auto] [--block 512] [--pps 2]
#include "common/cli.hpp"
#include "svc/session.hpp"

#include <cstdio>

int main(int argc, char** argv) {
    using namespace hcube;
    using svc::Family;
    using svc::Op;

    const CliOptions options(argc, argv);
    const auto n = static_cast<hc::dim_t>(options.get_int("dim", 5));
    const auto pps = static_cast<sim::packet_t>(options.get_int("pps", 2));
    const auto block =
        static_cast<std::uint32_t>(options.get_int("block", 512));

    svc::SessionParams params;
    params.threads =
        static_cast<std::uint32_t>(options.get_int("threads", 0));
    svc::Session session(n, params);

    std::printf("hcube::rt collectives on a %d-cube, %u threads, "
                "%u doubles per block\n\n",
                n, session.threads(), block);
    std::printf("%-22s %8s %9s %9s %9s %6s\n", "collective", "cycles",
                "blocks", "ms", "GB/s", "ok");

    bool all_ok = true;
    const auto run = [&](const char* name, Op op, Family family,
                         sim::packet_t packets) {
        svc::Signature sig;
        sig.op = op;
        sig.family = family;
        sig.n = n;
        sig.packets = packets;
        sig.block_elems = block;
        const svc::ExecStats r = session.execute(sig);
        const bool ok = r.verified && r.rt_cycles == r.sim_makespan;
        all_ok = all_ok && ok;
        std::printf("%-22s %8u %9llu %9.3f %9.3f %6s\n", name, r.rt_cycles,
                    static_cast<unsigned long long>(r.blocks_delivered),
                    r.seconds * 1e3,
                    r.seconds > 0 ? static_cast<double>(r.payload_bytes) /
                                        r.seconds * 1e-9
                                  : 0.0,
                    ok ? "yes" : "NO");
    };

    const auto total =
        static_cast<sim::packet_t>(n) * pps; // same bytes for both broadcasts
    run("broadcast sbt", Op::broadcast, Family::sbt, total);
    run("broadcast msbt", Op::broadcast, Family::msbt, total);
    run("scatter sbt", Op::scatter, Family::sbt, pps);
    run("scatter bst", Op::scatter, Family::bst, pps);
    run("gather bst", Op::gather, Family::bst, pps);
    run("reduce sbt", Op::reduce, Family::sbt, pps);
    run("allgather", Op::allgather, Family::sbt, 1);
    run("alltoall", Op::alltoall, Family::sbt, 1);

    std::printf("\nEvery block is checksum-verified on receipt; 'cycles' "
                "must equal the CycleExecutor makespan.\n");
    return all_ok ? 0 : 1;
}
