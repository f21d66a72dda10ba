// mbr_elastic — an elastic collective group in action: one persistent
// svc::Session serving broadcasts while nodes leave and rejoin underneath
// it. Shows the membership machinery end to end:
//
//   * every transition is an epoch-stamped view change, printed here;
//   * the plan cache invalidates SURGICALLY — only plans whose sub-cube
//     epoch went stale are evicted, and the session reports exactly how
//     many;
//   * a broadcast at a dead root is refused with a structured rejection
//     naming the nearest live member to retarget to;
//   * every run, full or incomplete, stays byte-verified; the example
//     exits 1 when any run is not.
//
//   mbr_elastic [--n 4] [--packets 4] [--block 64]
#include "common/cli.hpp"
#include "svc/session.hpp"

#include <cstdio>

using namespace hcube::svc;
using hcube::hc::dim_t;
using hcube::hc::node_t;

namespace {

Signature broadcast_sig(dim_t n, node_t root, hcube::sim::packet_t packets,
                        std::uint32_t block) {
    Signature sig;
    sig.op = Op::broadcast;
    sig.family = Family::sbt;
    sig.n = n;
    sig.root = root;
    sig.packets = packets;
    sig.block_elems = block;
    return sig;
}

/// Executes `sig`, prints the run and returns whether it verified.
bool run_and_report(Session& session, const Signature& sig,
                    const char* what) {
    const ExecStats stats = session.execute(sig);
    std::printf("  %-28s epoch=%llu members=%u %s %s (%.3f ms)\n", what,
                static_cast<unsigned long long>(stats.view_epoch),
                stats.member_count,
                stats.cache_hit ? "cache-hit" : "compiled",
                stats.verified ? "verified" : "NOT VERIFIED",
                stats.seconds * 1e3);
    return stats.verified;
}

} // namespace

int main(int argc, char** argv) {
    const hcube::CliOptions options(argc, argv);
    const auto n = static_cast<dim_t>(options.get_int("n", 4));
    const auto packets =
        static_cast<hcube::sim::packet_t>(options.get_int("packets", 4));
    const auto block =
        static_cast<std::uint32_t>(options.get_int("block", 64));

    SessionParams params;
    params.threads = 2;
    params.comm = hcube::model::ipsc_params();
    Session session(n, params);
    const Signature sig = broadcast_sig(n, 0, packets, block);
    const node_t leaver = (node_t{1} << n) - 1;

    std::printf("elastic membership on the %d-cube (%u addresses)\n\n", n,
                node_t{1} << n);

    bool all_ok = true;
    std::printf("full group:\n");
    all_ok &= run_and_report(session, sig, "broadcast (cold)");
    all_ok &= run_and_report(session, sig, "broadcast (steady)");

    std::printf("\nnode %u leaves:\n", leaver);
    const std::size_t evicted_on_leave = session.leave(leaver);
    std::printf("  view epoch -> %llu, plans invalidated: %zu\n",
                static_cast<unsigned long long>(session.view_epoch()),
                evicted_on_leave);
    all_ok &= run_and_report(session, sig, "broadcast (replanned)");
    all_ok &= run_and_report(session, sig, "broadcast (steady)");

    std::printf("\nbroadcast rooted at the dead node is refused:\n");
    const auto rejection =
        session.preflight(broadcast_sig(n, leaver, packets, block));
    if (rejection.has_value()) {
        std::printf("  reason=%s detail=\"%s\"",
                    std::string(to_string(rejection->reason)).c_str(),
                    rejection->detail.c_str());
        if (rejection->suggested_root.has_value()) {
            std::printf(" -> retarget to live member %u",
                        *rejection->suggested_root);
        }
        std::printf("\n");
    }

    std::printf("\nnode %u rejoins:\n", leaver);
    const std::size_t evicted_on_join = session.join(leaver);
    std::printf("  view epoch -> %llu, plans invalidated: %zu\n",
                static_cast<unsigned long long>(session.view_epoch()),
                evicted_on_join);
    all_ok &= run_and_report(session, sig, "broadcast (replanned)");
    all_ok &= run_and_report(session, sig, "broadcast (steady)");

    std::printf("\ntotal epoch-driven evictions: %llu\n",
                static_cast<unsigned long long>(session.epoch_evictions()));
    return all_ok ? 0 : 1;
}
