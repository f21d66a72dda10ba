// net::run_job — the single-host launcher of the net transport: one call
// turns a svc::Signature into an n-rank job of *processes*, each a cube-
// node partition connected to its peers over Unix-domain or TCP sockets,
// and collects the verified final memory image back in the parent
// (docs/NETWORK.md § Launcher).
//
// Two spawn modes share the protocol:
//   fork  (exec_argv empty) — the parent pre-binds every rank's data
//     listener plus the control socket, then forks; children inherit the
//     listen fds, so there is no bind race and TCP jobs can use ephemeral
//     ports (the parent reads them back before forking).
//   exec  (exec_argv set)  — the parent spawns `exec_argv... --net-rank r`
//     per rank; each child binds its own listener and calls run_child()
//     with a JobSpec it reconstructs itself (deterministic generators make
//     the plans identical; the mesh handshake pins the fingerprint).
//
// Control protocol, per child, over the control socket: HELLO (rank +
// locally compiled plan fingerprint, sent after the peer mesh is up) →
// GO (parent, once every rank reported — play() starts race-free) →
// REPORT + one DUMP per owned slot + FIN (child, after draining its
// reliability layer) → BYE (parent, once ALL ranks finished — no io
// thread dies while a peer still needs its retransmits or re-acks).
#pragma once

#include "ft/fault_model.hpp"
#include "net/net_player.hpp"
#include "net/peer.hpp"
#include "obs/metrics.hpp"
#include "svc/signature.hpp"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace hcube::net {

struct JobSpec {
    svc::Signature sig;
    /// Rank processes; the plan compiles with workers == procs, and rank r
    /// owns the nodes with Plan::owner_of(node) == r. 1 <= procs <= 2^n.
    std::uint32_t procs = 2;
    ft::TransportClass transport = ft::TransportClass::uds;
    /// Socket directory (uds data sockets + the control socket live here).
    /// Empty: run_job creates and removes a mkdtemp directory (fork mode);
    /// run_child (exec mode) requires it set.
    std::string dir;
    /// TCP data endpoints bind 127.0.0.1:(base_port + rank); 0 lets the
    /// fork-mode parent pre-bind ephemeral ports (exec + tcp requires an
    /// explicit base_port).
    std::uint16_t base_port = 0;
    /// Bounded arrival wait of the per-rank engine; 0 takes the
    /// per-transport default (ft::DetectConfig::for_transport).
    std::uint32_t arrival_timeout_us = 0;
    ReliableConfig reliable;
    /// Wire-layer fault torture (first transmissions only; see
    /// net/reliable.hpp).
    WireFaults::Config faults;
    /// Non-empty: exec mode — the command each rank is spawned as, with
    /// `--net-rank <r>` appended. The binary must call run_child(spec, r)
    /// with an identical spec.
    std::vector<std::string> exec_argv;
};

/// The engine detection config a job's ranks run with.
[[nodiscard]] ft::DetectConfig effective_detect(const JobSpec& spec);

/// One rank's end-of-run report, as received over the control socket.
struct RankReport {
    std::uint32_t rank = 0;
    rt::PlayStats play;
    WireCounters wire;
    ft::FaultReport fault;
    /// The rank's obs registry delta (everything it recorded between
    /// child entry and FIN — fork-inherited pre-launch counts are
    /// subtracted out on the child side).
    obs::RegistrySnapshot metrics;
    bool reported = false; ///< REPORT frame arrived before FIN
    int exit_code = -1;
};

struct JobResult {
    bool ok = false;       ///< every rank clean, every slot collected
    std::string error;     ///< first failure description when !ok
    double seconds = 0;    ///< max rank play() wall clock
    std::uint64_t total_slots = 0;
    std::size_t block_elems = 0;
    /// Final memory image, total_slots x block_elems, assembled from the
    /// per-rank slot dumps.
    std::vector<double> memory;
    std::vector<std::uint8_t> have; ///< per slot: dump arrived
    std::vector<RankReport> ranks;
    WireCounters wire; ///< aggregate over ranks
    /// Job-level metrics report: every rank's registry delta merged
    /// (counters sum, histograms bucket-merge), so per-tenant latency and
    /// wire counters aggregate across the whole process fleet.
    obs::RegistrySnapshot metrics;

    /// The collected block of (node, packet) under `plan` (the caller's
    /// identically compiled plan); empty span if absent.
    [[nodiscard]] std::span<const double> block(const rt::Plan& plan,
                                                node_t node,
                                                packet_t packet) const;
};

/// Judges a job's assembled image by the runtime's verification rule
/// (rt/expected.hpp): check_move_run against the cycle executor's
/// holdings, or check_combine_run into the schedule's root. `spec`'s
/// schedule is regenerated and its plan compiled with workers == procs,
/// exactly as the ranks compile it, and a slot whose dump never arrived
/// reads as an empty block. False as well when the image's shape is not
/// the plan's.
[[nodiscard]] bool image_follows_rule(const JobSpec& spec,
                                      const JobResult& result);

/// Launches the job, runs the collective across the rank processes, and
/// returns the assembled result. Throws check_error on invalid specs;
/// runtime failures (a faulted rank, a lost child) come back as ok=false.
[[nodiscard]] JobResult run_job(const JobSpec& spec);

/// Exec-mode child entry: binds rank `rank`'s data listener, joins the
/// mesh, plays, reports, and returns the process exit code (0 on protocol
/// completion, even for runs that detected faults — the parent judges
/// cleanliness from the REPORT).
[[nodiscard]] int run_child(const JobSpec& spec, std::uint32_t rank);

} // namespace hcube::net
