// ft::ResilientComm — self-healing collectives over the threaded runtime:
// the closed inject → detect → recover loop.
//
// Every operation follows one protocol:
//
//   1. Expected state: the op's contract — the (node, packet) pairs it
//      semantically delivers — is checked once against the cycle
//      executor's holdings of the fault-free schedule, which also proves
//      that schedule feasible. Every contract pair must end up holding its
//      packet's canonical block, so no reference run is needed.
//   2. Attempt: the fault scenario is armed on the attempt plan's
//      channels, and the AsyncPlayer executes it with detection on.
//      The first attempt replays the op's resident fault-free attempt —
//      schedule, checked contract, compiled plan and player, kept per
//      operation signature (LRU, a constant capacity) — so a repeated
//      call generates, checks and compiles nothing. A healing attempt
//      compiles its replanned schedule. The fault hook is installed only
//      when a fault lands on one of the plan's channels; every other
//      attempt plays the zero-copy protocol. A clean run that delivers
//      every scheduled block proceeds to verification; a faulted run
//      yields a structured FaultReport naming the directed link that
//      failed.
//   3. Heal: the reported link is added to the dead set and the operation
//      is replanned around every dead link — SBT-family collectives pick a
//      permuted SBT (or BFS fallback) avoiding the links; the MSBT drops
//      the ERSBTs crossing them and reassigns their packet streams to the
//      surviving trees. Re-execution is idempotent: each attempt starts
//      from freshly seeded memory and rewound channels, and injected
//      transient faults re-fire on retry — any link that faults twice is
//      simply declared dead like a persistent failure.
//   4. Verify: the survivor run's block for every contract (node, packet)
//      pair is compared byte for byte with the packet's canonical block
//      (the plan's arena). The arena and the plan's digest table are
//      checked against independently derived canonical digests on an
//      attempt's first clean play; a resident attempt's later plays skip
//      that proof (the arena is immutable), and a healing attempt, being
//      freshly compiled, always takes it.
//
// The loop terminates: every failed attempt permanently grows the dead-link
// set, and max_attempts bounds the total work even under adversarial fault
// plans (an unrecoverable topology — e.g. all n links of a node dead —
// surfaces as trees::build_broadcast_tree_avoiding's check_error).
#pragma once

#include "ft/fault_model.hpp"
#include "ft/injector.hpp"
#include "ft/recovery.hpp"
#include "mbr/view.hpp"
#include "rt/player.hpp" // rt::PlayStats
#include "rt/tracing.hpp"

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace hcube::ft {

struct ResilientParams {
    /// Worker threads; 0 picks min(2^n, max(2, hardware_concurrency)).
    std::uint32_t threads = 0;
    /// Elements (doubles) per packet block.
    std::size_t block_elems = 64;
    /// Detection policy for the attempts; the timeout must be nonzero. The
    /// attempts run on the in-process ring bank, where a receive never
    /// waits (rt/detect.hpp): the timeout only switches detection on.
    DetectConfig detect = DetectConfig::for_transport(TransportClass::ring);
    /// Attempt budget: 1 initial execution + (max_attempts - 1) replans.
    std::uint32_t max_attempts = 4;
    /// Seed for the permuted-SBT search when replanning tree collectives.
    std::uint64_t replan_seed = 42;
};

/// Everything a caller (or bench harness) wants to know about one
/// self-healed operation.
struct RecoveryResult {
    /// The final run was clean and every contract pair holds its packet's
    /// canonical block.
    bool delivered = false;
    /// At least one replan happened (false == the first attempt was clean;
    /// an armed fault plan may still have been inert or absorbed).
    bool recovered = false;
    std::uint32_t attempts = 0; ///< executions, including the clean one
    /// Fault history, one report per failed attempt, in order.
    std::vector<FaultReport> reports;
    /// Links declared dead, in detection order (drives the replanning).
    std::vector<DirectedLink> dead_links;
    /// Member ops only: nodes declared dead, in detection order (each is a
    /// membership transition — the non-root endpoint of a failed link).
    std::vector<node_t> dead_nodes;
    /// Member ops only: the comm's view epoch after the final attempt.
    std::uint64_t view_epoch = 0;
    /// MSBT only: ERSBTs the degraded schedule dropped (ascending).
    std::vector<dim_t> dropped_trees;
    /// The schedule the final attempt executed (the fault-free original if
    /// no replan happened) — lets callers assert dead links are avoided.
    sim::Schedule final_schedule;
    rt::PlayStats stats;          ///< stats of the final (clean) run
    /// Time this call spent building the expected state (cycle executor
    /// plus contract check); 0 when every attempt found it cached.
    double oracle_seconds = 0;
    double recovery_seconds = 0;  ///< failed attempts + replanning
    double final_seconds = 0;     ///< wall clock of the final clean run
};

class ResilientComm {
public:
    explicit ResilientComm(dim_t n, ResilientParams params = {});
    ~ResilientComm();
    ResilientComm(const ResilientComm&) = delete;
    ResilientComm& operator=(const ResilientComm&) = delete;

    [[nodiscard]] dim_t dimension() const noexcept { return n_; }
    [[nodiscard]] std::uint32_t threads() const noexcept { return threads_; }

    /// Attaches a trace recorder (>= threads() lanes) so every attempt's
    /// actions land in one timeline; nullptr detaches.
    void set_trace(rt::TraceRecorder* trace) noexcept { trace_ = trace; }

    /// Pipelined (paced) broadcast of `packets` blocks from `root` down the
    /// SBT, healing via permuted-SBT / BFS replacement trees.
    [[nodiscard]] RecoveryResult broadcast_sbt(node_t root,
                                               packet_t packets,
                                               const FaultPlan& faults);

    /// MSBT broadcast of `packets` blocks (divisible by n) from `root`,
    /// healing via the survivor-subset degraded schedule.
    [[nodiscard]] RecoveryResult broadcast_msbt(node_t root,
                                                packet_t packets,
                                                const FaultPlan& faults);

    /// Scatter of `packets_per_dest` blocks from `root` down the SBT
    /// (descending order), healing via replacement trees (the scatter
    /// packet contract is tree-independent).
    [[nodiscard]] RecoveryResult scatter_sbt(node_t root,
                                             packet_t packets_per_dest,
                                             const FaultPlan& faults);

    // ---- membership-aware collectives ----------------------------------
    //
    // Where the link-healing ops above route *around* a dead wire on the
    // same full node set, the member ops treat a fault as a node death:
    // the non-root endpoint of the failed link leaves the view, the tree
    // is rebuilt over the survivors, and a *fresh* contract is checked for
    // the shrunk member set (keyed by the view fingerprint) — the contract
    // itself contracts to the survivors. A call's first attempt is the
    // resident one of its (op, view fingerprint); the survivor views of
    // healing attempts compile per attempt and cache only their contract.
    // The root's death is unrecoverable and surfaces as check_error.

    /// The comm's membership view (full cube until the first death or
    /// mark_dead/readmit call).
    [[nodiscard]] const mbr::View& view() const noexcept { return view_; }

    /// Proactive membership transitions between operations: declare a node
    /// dead (it leaves the view without an execution having failed) or
    /// readmit a previously dead address. Strictness follows mbr::View.
    void mark_dead(node_t v) { view_.leave(v); }
    void readmit(node_t v) { view_.join(v); }

    /// Paced broadcast of `packets` blocks from `root` over the member
    /// tree spanning the current view, healing node deaths by view
    /// transition + rebuild. On a full view the initial schedule is
    /// byte-identical to broadcast_sbt's.
    [[nodiscard]] RecoveryResult broadcast_members(node_t root,
                                                   packet_t packets,
                                                   const FaultPlan& faults);

    /// Scatter of `packets_per_dest` blocks from `root` to every live
    /// member (descending member order), healing node deaths by view
    /// transition + rebuild. A dead destination's blocks leave the
    /// contract with it.
    [[nodiscard]] RecoveryResult scatter_members(node_t root,
                                                 packet_t packets_per_dest,
                                                 const FaultPlan& faults);

private:
    using Replanner =
        std::function<sim::Schedule(std::span<const DirectedLink> dead,
                                    RecoveryResult& out)>;
    /// The (node, packet) pairs the op semantically delivers — the pairs
    /// the byte-for-byte canonical-block comparison runs over.
    /// Deliberately *not* the fault-free schedule's full holdings: a
    /// replacement tree routes through different relays, and relay copies
    /// are an artifact of the route, not part of the collective's contract.
    using Contract = std::vector<std::pair<node_t, sim::packet_t>>;
    /// Derives an op's semantic contract from the schedule it runs.
    using ContractOf = std::function<Contract(const sim::Schedule&)>;
    /// A compiled plan plus its AsyncPlayer, and whether the plan's arena
    /// was already proven canonical (a resident attempt proves it once).
    struct Attempt;
    /// An op's fault-free attempt, resident between calls: its schedule,
    /// checked contract, and compiled Attempt.
    struct Resident;
    /// The resident fault-free attempts (LRU-bounded) and the checked
    /// contracts of healing attempts' survivor views.
    struct Cache;
    using clock = std::chrono::steady_clock;

    /// The resident fault-free attempt cached under `key`, or — on a miss
    /// — `make()` compiled over `view`'s members (nullptr: the full cube),
    /// with `contract_of` its schedule checked against the cycle
    /// executor's holdings (the check's time added to out.oracle_seconds),
    /// cached.
    [[nodiscard]] std::shared_ptr<Resident>
    resident(const std::string& key,
             const std::function<sim::Schedule()>& make,
             const ContractOf& contract_of, const mbr::View* view,
             RecoveryResult& out);

    /// The healing-attempt contract cached under `key`, or — on a miss —
    /// `contract_of(schedule)` checked as above, cached, and its build time
    /// added to out.oracle_seconds.
    [[nodiscard]] const Contract&
    expected_state(const std::string& key, const sim::Schedule& schedule,
                   const ContractOf& contract_of, RecoveryResult& out);

    /// Plays one attempt of `schedule`, compiled in `attempt`: arms the
    /// fault plan on its channels, installs the injector only if a spec
    /// landed there (the hook is set or cleared on every attempt, so a
    /// resident player never plays with an earlier call's injector), and
    /// runs with detection on. Returns true when the run was clean, with
    /// out.delivered set by the contract check; a faulted run appends its
    /// FaultReport and records the detection latency since `start`.
    [[nodiscard]] bool play_attempt(Attempt& attempt,
                                    const sim::Schedule& schedule,
                                    const Contract& expected,
                                    FaultInjector& injector,
                                    clock::time_point start,
                                    RecoveryResult& out);

    [[nodiscard]] RecoveryResult
    run_resilient(const std::string& key,
                  const std::function<sim::Schedule()>& make_initial,
                  const ContractOf& contract_of, const FaultPlan& faults,
                  const Replanner& replan);

    /// `make` builds the op's schedule over the current view_ and
    /// `contract_of` its contract — both functions of the member set,
    /// which shrinks between attempts.
    [[nodiscard]] RecoveryResult
    run_member_resilient(const std::string& op_key, node_t root,
                         const FaultPlan& faults,
                         const std::function<sim::Schedule()>& make,
                         const ContractOf& contract_of);

    dim_t n_;
    ResilientParams params_;
    std::uint32_t threads_;
    rt::TraceRecorder* trace_ = nullptr;
    std::unique_ptr<Cache> cache_;
    mbr::View view_;
};

} // namespace hcube::ft
