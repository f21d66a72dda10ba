// Dataflow execution engine: runs a compiled Plan's dependency graph with
// per-worker run queues and work-stealing — no global barriers anywhere on
// the hot path.
//
// Where the barrier Player advances the whole machine in lockstep (two
// barrier crossings per routing cycle), the AsyncPlayer synchronizes on the
// schedule's *data dependencies* only: every action starts with an atomic
// counter of unmet dependencies (emitted by compile_plan), a completed
// action decrements its successors' counters, and an action whose counter
// hits zero is enqueued on the run queue of the worker that owns its node.
// A worker drains its own queue LIFO (depth-first along the dependency
// chains it just enabled, which keeps the hot block in cache) and steals
// FIFO from other workers when empty. Sequence-stamped multi-slot channel
// rings let a producer run up to Plan::async_depth logical cycles ahead of
// a slow consumer; capacity edges in the graph make ring overflow
// impossible rather than merely unlikely.
//
// Progress argument (docs/RUNTIME.md § The dataflow engine): the graph is a
// DAG (every edge points forward in schedule order), workers only retire
// once all actions completed, and a counter reaches zero exactly once — so
// every action is enqueued exactly once and some queue is always non-empty
// while work remains. Violations on worker threads are counted in the
// stats, never thrown, mirroring the barrier Player.
//
// Not every plan is worth stealing for. (cycle, sends-before-recvs,
// lowered index) is a topological order of the dependency graph, so a
// single thread walking the flat arrays in that order executes the plan
// with zero queue/atomic bookkeeping — the *serial fast path*. Stealing
// pays a fixed dispatch cost per play (pool wake-up, deque locks, atomic
// dependency counters) that only a per-hop copy of B doubles pays back;
// on a zero-copy hop the paper's B·t_c term is zero. So play() steals only
// on a copy-through run (combine mode or a fault hook) whose block is at
// least 8 KiB, with at least 32 actions per worker and more than one
// worker; every other run, zero-copy, trace-only and detect-only ones
// included, takes the serial walk. The choice is a pure function of the
// plan and the run's configuration — nothing carries over between plays —
// and PlayStats::mode reports it (docs/RUNTIME.md § The serial fast path
// and the mode rule).
#pragma once

#include "ft/fault_model.hpp"
#include "rt/channel.hpp"
#include "rt/detect.hpp"
#include "rt/plan.hpp"
#include "rt/player.hpp" // PlayStats
#include "rt/tracing.hpp"

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

namespace hcube::rt {

class WorkerPool;
template <class Bank> struct RunContextT; // rt/delivery.hpp
using RunContext = RunContextT<ChannelBank>;

class AsyncPlayer {
public:
    /// Allocates node-local block memory and a channel bank of
    /// plan.async_depth ring slots per link (the depth the plan's capacity
    /// edges guard). The plan must outlive the player.
    explicit AsyncPlayer(const Plan& plan);

    /// Enables fault detection (and, per config, the abort-and-drain
    /// path). Only valid between runs.
    void set_detection(const ft::DetectConfig& detect) noexcept {
        detect_ = detect;
    }
    /// Installs a fault-injection hook on the channel bank (nullptr
    /// clears). Only valid between runs.
    void set_fault_hook(ft::ChannelFaultHook* hook) noexcept {
        channels_.set_fault_hook(hook);
    }
    /// Attaches a per-worker trace recorder sized for >= plan.workers
    /// lanes (nullptr detaches). Only valid between runs.
    void set_trace(TraceRecorder* trace) noexcept { trace_ = trace; }

    /// Seeds initial blocks, runs the dependency graph to completion on
    /// plan.workers threads, and returns the aggregated stats (cycles is
    /// the logical schedule depth; no barrier ever synchronizes on it).
    /// Reusable: every call starts from freshly seeded memory and
    /// rewound channels. With a non-null `pool` (of at least plan.workers
    /// threads) the run is dispatched onto the resident pool threads
    /// instead of creating and joining a thread per worker.
    [[nodiscard]] PlayStats play() { return play(nullptr); }
    [[nodiscard]] PlayStats play(WorkerPool* pool);

    /// The first fault the last play() detected (cls == none on a clean
    /// run, or while detection is disabled).
    [[nodiscard]] const ft::FaultReport& fault_report() const noexcept {
        return arbiter_.report();
    }

    /// Post-run view of the block held by (node, packet); empty span if
    /// the node has no slot for the packet.
    [[nodiscard]] std::span<const double> block(node_t node,
                                                packet_t packet) const;

    /// Post-run view of slot `slot` (< plan.total_slots): block() of
    /// (plan.slot_node[slot], plan.slot_packet[slot]) without the key
    /// search, for callers that walk the slots in order.
    [[nodiscard]] std::span<const double>
    slot_block(std::uint64_t slot) const noexcept {
        const double* view = views_[static_cast<std::size_t>(slot)];
        if (view == nullptr) {
            return {};
        }
        return {view, plan_.block_elems};
    }

    /// Exact heap bytes this engine keeps resident between runs (channel
    /// rings, slot views, copy-through storage, live dep counters) — what a
    /// byte-budgeted cache charges for keeping the player warm. The plan,
    /// digest table included, is accounted by Plan::resident_bytes().
    [[nodiscard]] std::uint64_t resident_bytes() const noexcept;

private:
    struct Worker;

    void prepare_views();
    /// The single-thread walk; accumulates into `stats`.
    void run_serial(PlayStats& stats);
    /// The work-stealing run on plan.workers threads (the pool's, or
    /// threads of its own); accumulates every worker's stats into `stats`.
    void run_stealing(WorkerPool* pool, PlayStats& stats);
    void run_worker(std::uint32_t worker, Worker* workers);
    void execute(const RunContext& ctx, std::uint32_t action,
                 std::uint32_t worker, PlayStats& stats);
    void finish(std::uint32_t action, Worker* workers);

    const Plan& plan_;
    ChannelBank channels_;
    /// Per slot: the block the (node, packet) currently holds — arena
    /// views on the zero-copy path, memory_ under copy-through.
    std::vector<const double*> views_;
    /// Copy-through slot storage; eager for combine plans, lazy for move
    /// plans (first fault-hooked run), never touched on pure zero-copy.
    std::vector<double> memory_;
    std::vector<std::atomic<std::uint32_t>> deps_; ///< live dep counters
    std::atomic<std::uint64_t> completed_{0};
    bool copy_through_ = false; ///< decided per run in prepare_views()
    ft::DetectConfig detect_{};
    FaultArbiter arbiter_;
    TraceRecorder* trace_ = nullptr;
};

} // namespace hcube::rt
