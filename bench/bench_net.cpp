// bench_net — ring vs socket transport comparison for the collective
// runtime: each workload runs once in process as an rt::CheckedPlan (the
// ring transport, one worker per rank) and once as a multi-process
// net::run_job over Unix-domain sockets (plus one TCP loopback row). Every
// row's final memory is judged by the runtime's verification rule
// (rt/expected.hpp): the state the schedule alone implies.
//
//   bench_net [--nmin 3] [--nmax 5] [--block 256] [--procs 4]
//             [--tcp 1] [--json <path>] [--csv <path>]
//
// Every row carries "verified": the ring row is verified when its
// CheckedPlan run is (clean, every scheduled block delivered, the rule
// passed); a socket row when the job reported clean on every rank and its
// assembled image passes the rule (net::image_follows_rule). The process
// exits nonzero if any row fails — CI greps the JSON for
// `"verified": false` on top of that.
#include "bench_util.hpp"

#include "common/json.hpp"
#include "net/job.hpp"
#include "rt/expected.hpp"
#include "svc/signature.hpp"

#include <cstdio>
#include <string>
#include <vector>

namespace {

using hcube::hc::dim_t;
using hcube::sim::packet_t;

struct Row {
    std::string op;
    std::string family;
    int n = 0;
    std::uint32_t procs = 0;
    std::size_t block_elems = 0;
    packet_t packets = 0;
    std::string transport;
    double seconds = 0;
    double gbps = 0;
    std::uint64_t blocks_delivered = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t dup_suppressed = 0;
    bool verified = false;
};

struct Workload {
    hcube::svc::Op op;
    hcube::svc::Family family;
    packet_t packets; ///< scaled by n for MSBT divisibility
    bool scale_by_n;
};

hcube::svc::Signature make_sig(const Workload& w, dim_t n,
                               std::size_t block) {
    hcube::svc::Signature sig;
    sig.op = w.op;
    sig.family = w.family;
    sig.n = n;
    sig.root = 0;
    sig.packets = w.scale_by_n
                      ? static_cast<packet_t>(w.packets *
                                              static_cast<packet_t>(n))
                      : w.packets;
    sig.block_elems = static_cast<std::uint32_t>(block);
    return sig;
}

} // namespace

int main(int argc, char** argv) {
    using namespace hcube;
    const CliOptions options(argc, argv);
    const auto nmin = static_cast<dim_t>(options.get_int("nmin", 3));
    const auto nmax = static_cast<dim_t>(options.get_int("nmax", 5));
    const auto block =
        static_cast<std::size_t>(options.get_int("block", 256));
    const auto procs =
        static_cast<std::uint32_t>(options.get_int("procs", 4));
    const bool with_tcp = options.get_int("tcp", 1) != 0;
    const std::string json_path = options.get_string("json", "");

    bench::banner("net transport",
                  "ring vs socket (uds/tcp) runtime, byte-verified");

    const std::vector<Workload> workloads = {
        {svc::Op::broadcast, svc::Family::sbt, 4, false},
        {svc::Op::broadcast, svc::Family::msbt, 1, true},
        {svc::Op::scatter, svc::Family::bst, 2, false},
        {svc::Op::reduce, svc::Family::sbt, 2, false},
        {svc::Op::alltoall, svc::Family::sbt, 1, false},
    };

    std::vector<Row> rows;
    bool all_verified = true;
    std::printf("%-10s %-5s %2s %5s %6s %-5s %10s %8s %11s %9s %5s\n",
                "op", "fam", "n", "procs", "block", "wire", "seconds",
                "GB/s", "retransmit", "dup-supp", "ok");

    for (const Workload& w : workloads) {
        for (dim_t n = nmin; n <= nmax; ++n) {
            const svc::Signature sig = make_sig(w, n, block);
            const std::uint32_t job_procs =
                std::min<std::uint32_t>(procs, 1u << n);
            const svc::GeneratedSchedule gen = svc::make_schedule(sig);
            rt::CheckedPlan ring_plan(gen.exec, gen.feasibility, gen.mode,
                                      sig.model, sig.block_elems,
                                      job_procs);
            const rt::CheckedRun ring_run = ring_plan.play();
            const rt::PlayStats& ring_stats = ring_run.stats;

            Row ring;
            ring.op = svc::to_string(sig.op);
            ring.family = svc::to_string(sig.family);
            ring.n = n;
            ring.procs = job_procs;
            ring.block_elems = block;
            ring.packets = sig.packets;
            ring.transport = ft::to_string(ring_stats.transport);
            ring.seconds = ring_stats.seconds;
            ring.blocks_delivered = ring_stats.blocks_delivered;
            ring.payload_bytes = ring_stats.payload_bytes;
            ring.gbps = ring_stats.seconds > 0
                            ? static_cast<double>(ring_stats.payload_bytes) /
                                  ring_stats.seconds * 1e-9
                            : 0;
            ring.verified = ring_run.verified;
            rows.push_back(ring);

            std::vector<ft::TransportClass> wires = {ft::TransportClass::uds};
            if (with_tcp && n == nmin) {
                wires.push_back(ft::TransportClass::tcp);
            }
            for (const ft::TransportClass wire : wires) {
                net::JobSpec spec;
                spec.sig = sig;
                spec.procs = job_procs;
                spec.transport = wire;
                const net::JobResult job = net::run_job(spec);

                Row r = ring;
                r.transport = ft::to_string(wire);
                r.seconds = job.seconds;
                r.blocks_delivered = 0;
                for (const net::RankReport& rank : job.ranks) {
                    r.blocks_delivered += rank.play.blocks_delivered;
                }
                r.payload_bytes =
                    r.blocks_delivered * sig.block_elems * sizeof(double);
                r.gbps = job.seconds > 0
                             ? static_cast<double>(r.payload_bytes) /
                                   job.seconds * 1e-9
                             : 0;
                r.retransmits = job.wire.retransmits;
                r.dup_suppressed = job.wire.dup_suppressed;
                r.verified = job.ok && net::image_follows_rule(spec, job);
                if (!r.verified) {
                    std::fprintf(stderr,
                                 "UNVERIFIED: %s/%s n=%d procs=%u over %s"
                                 "%s%s\n",
                                 r.op.c_str(), r.family.c_str(), n,
                                 job_procs, r.transport.c_str(),
                                 job.error.empty() ? "" : ": ",
                                 job.error.c_str());
                }
                rows.push_back(r);
            }

            for (auto it = rows.end() -
                           static_cast<std::ptrdiff_t>(1 + wires.size());
                 it != rows.end(); ++it) {
                std::printf("%-10s %-5s %2d %5u %6zu %-5s %10.6f %8.3f "
                            "%11llu %9llu %5s\n",
                            it->op.c_str(), it->family.c_str(), it->n,
                            it->procs, it->block_elems,
                            it->transport.c_str(), it->seconds, it->gbps,
                            static_cast<unsigned long long>(
                                it->retransmits),
                            static_cast<unsigned long long>(
                                it->dup_suppressed),
                            it->verified ? "yes" : "NO");
                all_verified = all_verified && it->verified;
            }
        }
    }

    if (auto csv = bench::csv_sink(
            options, {"op", "family", "n", "procs", "block_elems",
                      "packets", "transport", "seconds", "gbytes_per_sec",
                      "retransmits", "dup_suppressed", "verified"})) {
        for (const Row& r : rows) {
            csv->write_row({r.op, r.family, std::to_string(r.n),
                            std::to_string(r.procs),
                            std::to_string(r.block_elems),
                            std::to_string(r.packets), r.transport,
                            std::to_string(r.seconds),
                            std::to_string(r.gbps),
                            std::to_string(r.retransmits),
                            std::to_string(r.dup_suppressed),
                            r.verified ? "1" : "0"});
        }
    }

    if (!json_path.empty()) {
        JsonArrayWriter json(json_path);
        if (!json.ok()) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         json_path.c_str());
            return 1;
        }
        for (const Row& r : rows) {
            json.begin_row();
            json.field("op", r.op);
            json.field("family", r.family);
            json.field("n", r.n);
            json.field("procs", r.procs);
            json.field("block_elems", r.block_elems);
            json.field("packets", r.packets);
            json.field("transport", r.transport);
            json.field("seconds", r.seconds);
            json.field("gbytes_per_sec", r.gbps);
            json.field("blocks_delivered", r.blocks_delivered);
            json.field("payload_bytes", r.payload_bytes);
            json.field("retransmits", r.retransmits);
            json.field("dup_suppressed", r.dup_suppressed);
            json.field("verified", r.verified);
            json.end_row();
        }
        if (json.close()) {
            std::printf("\nwrote %s\n", json_path.c_str());
        }
    }

    if (!all_verified) {
        std::fprintf(stderr, "\nbench_net: verification FAILED\n");
        return 1;
    }
    std::printf("\nall rows byte-verified against the schedule's expected "
                "state\n");
    return 0;
}
