// ft::ResilientComm — self-healing collectives over the threaded runtime:
// the closed inject → detect → recover loop.
//
// Every attempt of an operation is an rt::CheckedPlan (rt/expected.hpp),
// the one verified run every front door plays, and every operation follows
// one protocol:
//
//   1. Expected state: the attempt's CheckedPlan. Building it proves the
//      attempt's schedule with the cycle executor, and the op's contract —
//      the (node, packet) pairs it semantically delivers — is checked once
//      to lie among the plan's slots. The plan's first clean run is judged
//      by the runtime's rule (the slots are exactly the executor's
//      holdings, every arena block and digest is canonical, and every
//      slot's final block is its packet's arena block), so every contract
//      pair must end up holding its packet's canonical block and no
//      reference run is needed.
//   2. Attempt: the fault scenario is armed on the attempt plan's
//      channels, and the attempt plays with detection on. The first
//      attempt replays the op's resident fault-free attempt, kept per
//      operation signature (LRU, a constant capacity), so a repeated call
//      generates, proves and compiles nothing. A healing attempt builds a
//      CheckedPlan of its replanned schedule. The fault hook is installed
//      only when a fault lands on one of the plan's channels; every other
//      attempt plays the zero-copy protocol. A clean run that delivers
//      every scheduled block proceeds to verification; a faulted run
//      yields a structured FaultReport naming the directed link that
//      failed.
//   3. Heal: the reported link is added to the dead set. A link op
//      replans around every dead link and keeps its contract: SBT-family
//      collectives pick a permuted SBT (or BFS fallback) avoiding the
//      links; the MSBT drops the ERSBTs crossing them and reassigns their
//      packet streams to the surviving trees. A member op declares the
//      link's non-root endpoint dead and rebuilds tree and contract over
//      the survivors. Re-execution is idempotent: each attempt starts from
//      freshly seeded memory and rewound channels, and injected transient
//      faults re-fire on retry — any link that faults twice is simply
//      declared dead like a persistent failure.
//   4. Verify: the clean run is judged by its CheckedPlan. A resident
//      attempt's first clean run takes the full check and its later runs
//      compare every slot with its packet's immutable arena block; a
//      healing attempt is freshly built, so its run always takes the full
//      check.
//
// The loop terminates: every failed attempt permanently grows the dead
// set, and kMaxAttempts bounds the total work even under adversarial fault
// plans. A call that spends the whole budget returns delivered == false
// with the schedule its last attempt ran; nothing is rebuilt after the
// last attempt. With budget left, an unrecoverable topology — e.g. all n
// links of a node dead — surfaces as the replanner's check_error.
#pragma once

#include "common/lru_cache.hpp"
#include "ft/fault_model.hpp"
#include "ft/injector.hpp"
#include "ft/recovery.hpp"
#include "mbr/view.hpp"
#include "rt/async_player.hpp" // rt::PlayStats
#include "rt/tracing.hpp"

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace hcube::ft {

/// Attempt budget of every operation: 1 initial execution + up to
/// kMaxAttempts - 1 healing attempts.
inline constexpr std::uint32_t kMaxAttempts = 4;

struct ResilientParams {
    /// Worker threads; 0 picks min(2^n, max(2, hardware_concurrency)).
    std::uint32_t threads = 0;
    /// Elements (doubles) per packet block.
    std::size_t block_elems = 64;
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
    /// Time this call spent building its resident fault-free attempt (its
    /// schedule, CheckedPlan and contract check); 0 when it was resident.
    /// A healing attempt's build counts neither here nor in
    /// recovery_seconds.
    double oracle_seconds = 0;
    double recovery_seconds = 0;  ///< failed plays + replanning
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
    // the non-root endpoint of the failed link leaves the view, and the
    // tree and a *fresh* contract are rebuilt over the survivors — the
    // contract itself contracts to the survivors. A call's first attempt
    // is the resident one of its (op, view fingerprint); a healing
    // attempt builds its survivor view's CheckedPlan and keeps nothing.
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
    /// The (node, packet) pairs an op semantically delivers, as sorted
    /// rt::Plan::slot_key words — the pairs checked against each attempt's
    /// plan slots. Deliberately *not* the fault-free schedule's full
    /// holdings: a replacement tree routes through different relays, and
    /// relay copies are an artifact of the route, not part of the
    /// collective's contract.
    using Contract = std::vector<std::uint64_t>;
    /// What the attempt loop needs of an operation.
    struct Op {
        /// Names the op's resident attempt; member ops add the view.
        std::string key;
        node_t root = 0;
        /// The fault-free schedule (member ops: over the current view).
        std::function<sim::Schedule()> make;
        /// The op's contract, derived from its fault-free schedule (member
        /// ops: the current view's).
        std::function<Contract(const sim::Schedule&)> contract_of;
        /// Link ops: the schedule avoiding every dead link, held to the
        /// op's contract. Empty for member ops, which heal by node death:
        /// make and contract_of rebuild both over the survivors.
        std::function<sim::Schedule(std::span<const DirectedLink> dead,
                                    RecoveryResult& out)>
            replan;

        [[nodiscard]] bool on_members() const noexcept { return !replan; }
    };
    /// One attempt: its schedule and rt::CheckedPlan.
    struct Attempt;
    using clock = std::chrono::steady_clock;

    /// `schedule` built into an Attempt over the full cube, or (member
    /// ops) over view_'s members; throws check_error when a contract pair
    /// is not among its plan's slots.
    [[nodiscard]] std::shared_ptr<Attempt>
    build(sim::Schedule schedule, const Contract& contract,
          bool on_members) const;

    /// Plays one attempt: arms the fault plan on its channels, installs
    /// the injector only if a spec landed there (the hook is set or
    /// cleared on every attempt, so a resident attempt never plays with an
    /// earlier call's injector), and runs with detection on. Returns true
    /// when the run was clean, with out.delivered set by the CheckedPlan's
    /// verdict; a faulted run appends its FaultReport and records the
    /// detection latency since `start`.
    [[nodiscard]] bool play_attempt(Attempt& attempt,
                                    FaultInjector& injector,
                                    clock::time_point start,
                                    RecoveryResult& out);

    /// The attempt loop every operation runs.
    [[nodiscard]] RecoveryResult run(const Op& op, const FaultPlan& faults);

    dim_t n_;
    ResilientParams params_;
    std::uint32_t threads_;
    rt::TraceRecorder* trace_ = nullptr;
    /// The resident fault-free attempts, LRU-bounded.
    LruCache<std::string, std::shared_ptr<Attempt>> residents_;
    mbr::View view_;
};

} // namespace hcube::ft
