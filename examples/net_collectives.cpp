// Runs the collectives across *processes*: every workload is launched as
// a multi-rank net::run_job over Unix-domain sockets (plus one TCP
// loopback row), and each job's assembled final memory is judged by the
// runtime's verification rule (net::image_follows_rule): the state the
// schedule alone implies — docs/NETWORK.md § Verification.
//
//   net_collectives [--dim 4] [--procs 4] [--block 256] [--tcp 1] [--exec 1]
//
// The --exec demo relaunches this binary per rank: run_job appends
// `--net-rank <r>` to the command line, and the child branch below
// rebuilds the identical JobSpec from the same flags and calls
// net::run_child.
#include "common/cli.hpp"
#include "net/job.hpp"
#include "svc/signature.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>
#include <vector>

namespace {

using hcube::hc::dim_t;
using hcube::sim::packet_t;

hcube::svc::Signature make_sig(hcube::svc::Op op, hcube::svc::Family fam,
                               dim_t n, packet_t packets,
                               std::size_t block) {
    hcube::svc::Signature sig;
    sig.op = op;
    sig.family = fam;
    sig.n = n;
    sig.root = 0;
    sig.packets = packets;
    sig.block_elems = static_cast<std::uint32_t>(block);
    return sig;
}

hcube::net::JobSpec make_spec(const hcube::svc::Signature& sig,
                              std::uint32_t procs,
                              hcube::ft::TransportClass wire) {
    hcube::net::JobSpec spec;
    spec.sig = sig;
    spec.procs = std::min<std::uint32_t>(procs, 1u << sig.n);
    spec.transport = wire;
    return spec;
}

/// Judges the job image by the verification rule; prints a row.
bool report(const char* label, const hcube::net::JobSpec& spec,
            const hcube::net::JobResult& job) {
    using namespace hcube;
    const bool match = job.ok && net::image_follows_rule(spec, job);
    std::printf("%-18s %-4s %5u %9.3f %10llu %9llu %6s\n", label,
                ft::to_string(spec.transport), spec.procs,
                job.seconds * 1e3,
                static_cast<unsigned long long>(job.wire.data_sent),
                static_cast<unsigned long long>(job.wire.retransmits),
                match ? "yes" : "NO");
    if (!job.error.empty()) {
        std::printf("  error: %s\n", job.error.c_str());
    }
    return match;
}

} // namespace

int main(int argc, char** argv) {
    using namespace hcube;
    const CliOptions options(argc, argv);
    const auto n = static_cast<dim_t>(options.get_int("dim", 4));
    const auto procs =
        static_cast<std::uint32_t>(options.get_int("procs", 4));
    const auto block =
        static_cast<std::size_t>(options.get_int("block", 256));
    const auto packets = static_cast<packet_t>(options.get_int("pps", 2));

    // Exec-mode child branch: run_job spawned us with `--net-rank <r>`
    // appended; rebuild the identical spec from the shared flags.
    const auto net_rank =
        static_cast<int>(options.get_int("net-rank", -1));
    if (net_rank >= 0) {
        const svc::Signature sig = make_sig(
            svc::Op::broadcast, svc::Family::sbt, n, packets, block);
        net::JobSpec spec =
            make_spec(sig, procs, ft::TransportClass::uds);
        spec.dir = options.get_string("dir", "");
        return net::run_child(spec,
                              static_cast<std::uint32_t>(net_rank));
    }

    std::printf("hcube::net collectives on a %d-cube, %u rank processes, "
                "%zu doubles per block\n\n",
                n, std::min<std::uint32_t>(procs, 1u << n), block);
    std::printf("%-18s %-4s %5s %9s %10s %9s %6s\n", "collective", "wire",
                "procs", "ms", "frames", "retrans", "ok");

    bool all_ok = true;
    const auto run = [&](const char* label, svc::Op op, svc::Family fam,
                         packet_t pk, ft::TransportClass wire) {
        const svc::Signature sig = make_sig(op, fam, n, pk, block);
        const net::JobSpec spec = make_spec(sig, procs, wire);
        all_ok = report(label, spec, net::run_job(spec)) && all_ok;
    };

    // Fork-mode sweep over Unix-domain sockets.
    run("broadcast sbt", svc::Op::broadcast, svc::Family::sbt, packets,
        ft::TransportClass::uds);
    run("broadcast msbt", svc::Op::broadcast, svc::Family::msbt,
        static_cast<packet_t>(n), ft::TransportClass::uds);
    run("scatter bst", svc::Op::scatter, svc::Family::bst, packets,
        ft::TransportClass::uds);
    run("reduce sbt", svc::Op::reduce, svc::Family::sbt, packets,
        ft::TransportClass::uds);
    run("allgather", svc::Op::allgather, svc::Family::sbt, 1,
        ft::TransportClass::uds);
    run("alltoall", svc::Op::alltoall, svc::Family::sbt, 1,
        ft::TransportClass::uds);

    // One TCP loopback row: same job, same rule, heavier wire.
    if (options.get_int("tcp", 1) != 0) {
        run("broadcast sbt", svc::Op::broadcast, svc::Family::sbt, packets,
            ft::TransportClass::tcp);
    }

    // Exec-mode demo: relaunch this binary per rank with --net-rank.
    if (options.get_int("exec", 1) != 0) {
        const char* base = std::getenv("TMPDIR");
        std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                           "/hcnet-ex.XXXXXX";
        std::vector<char> dir(tmpl.begin(), tmpl.end());
        dir.push_back('\0');
        if (::mkdtemp(dir.data()) == nullptr) {
            std::fprintf(stderr, "mkdtemp failed\n");
            return 1;
        }
        const svc::Signature sig = make_sig(
            svc::Op::broadcast, svc::Family::sbt, n, packets, block);
        net::JobSpec spec = make_spec(sig, procs, ft::TransportClass::uds);
        spec.dir = dir.data();
        spec.exec_argv = {argv[0],
                          "--dim",     std::to_string(n),
                          "--procs",   std::to_string(procs),
                          "--block",   std::to_string(block),
                          "--pps",     std::to_string(packets),
                          "--dir",     spec.dir};
        all_ok = report("broadcast (exec)", spec, net::run_job(spec)) &&
                 all_ok;
        ::rmdir(dir.data());
    }

    std::printf("\n%s\n", all_ok
                              ? "every job image holds the schedule's "
                                "expected state"
                              : "MISMATCH against the schedule's expected "
                                "state");
    return all_ok ? 0 : 1;
}
