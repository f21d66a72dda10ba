// The runtime's in-process execution engine: runs a compiled Plan's
// dependency graph with per-worker run queues and work-stealing — no
// global barriers anywhere on the hot path.
//
// The paper's synchronized routing steps are a property of the schedule,
// proven once by the cycle executor (sim::execute_schedule); the engine
// need not re-enact them. It synchronizes on the schedule's *data
// dependencies* only: every action starts with an atomic counter of unmet
// dependencies (emitted by compile_plan), a completed action decrements
// its successors' counters, and an action whose counter hits zero is
// enqueued on the run queue of the worker that owns its node. A worker
// drains its own queue LIFO (depth-first along the dependency chains it
// just enabled, which keeps the hot block in cache) and steals FIFO from
// other workers when empty. Sequence-stamped multi-slot channel rings let
// a producer run up to Plan::async_depth logical cycles ahead of a slow
// consumer; capacity edges in the graph make ring overflow impossible
// rather than merely unlikely.
//
// Progress argument (docs/RUNTIME.md § The dataflow engine): the graph is a
// DAG (every edge points forward in schedule order), workers only retire
// once all actions completed, and a counter reaches zero exactly once — so
// every action is enqueued exactly once and some queue is always non-empty
// while work remains. Violations on worker threads (channel under/overflow,
// packet or sequence mismatch, checksum mismatch) cannot throw across the
// pool; they are counted in the stats and surfaced by the caller. With
// detection enabled (ft::DetectConfig, see rt/detect.hpp) the first
// violation is additionally promoted into a structured ft::FaultReport —
// which directed link, which logical cycle, which fault class — and the
// in-flight plan aborts: every worker leaves its loop at once.
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
#include "rt/tracing.hpp"

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

namespace hcube::rt {

class WorkerPool;
template <class Bank> struct RunContextT; // rt/delivery.hpp
using RunContext = RunContextT<ChannelBank>;

/// How a play() actually executed: the single-thread serial walk, or the
/// work-stealing multi-worker mode (the AsyncPlayer picks per run; the
/// net runtime's rank walk reports serial).
enum class ExecMode {
    serial,
    stealing,
};

[[nodiscard]] constexpr const char* to_string(ExecMode mode) noexcept {
    switch (mode) {
    case ExecMode::serial: return "serial";
    case ExecMode::stealing: return "stealing";
    }
    return "?";
}

struct PlayStats {
    std::uint32_t cycles = 0;          ///< logical schedule depth
    std::uint64_t blocks_sent = 0;     ///< blocks pushed into channels
    std::uint64_t blocks_delivered = 0;///< blocks drained, verified/combined
    std::uint64_t payload_bytes = 0;   ///< blocks_delivered x block bytes
    std::uint64_t bytes_copied = 0;    ///< payload bytes actually memcpy'd
                                       ///< (0 on the zero-copy path)
    std::uint64_t checksum_failures = 0;
    std::uint64_t channel_faults = 0;  ///< full-on-push / empty-on-pop /
                                       ///< wrong packet or sequence at head
    std::uint64_t timeouts = 0;        ///< receives whose block never
                                       ///< arrived (detection enabled only)
    std::uint64_t steals = 0;          ///< actions run off another worker's
                                       ///< queue
    double seconds = 0;                ///< wall clock of the threaded region
    ExecMode mode = ExecMode::serial;  ///< how this run executed
    /// Medium the blocks moved over: the in-process ring bank, or the net
    /// backend's Unix-domain / TCP sockets (set by the net runtime).
    ft::TransportClass transport = ft::TransportClass::ring;

    [[nodiscard]] bool clean() const noexcept {
        return checksum_failures == 0 && channel_faults == 0 &&
               timeouts == 0;
    }
};

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
    /// the logical schedule depth; nothing synchronizes on it).
    /// Reusable: every call starts from freshly seeded memory, and every
    /// call that walks the rings from rewound channels. With a non-null
    /// `pool` (of at least plan.workers threads) the run is dispatched
    /// onto the resident pool threads instead of creating and joining a
    /// thread per worker.
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
    /// This run takes the serial walk that touches no ring: zero-copy,
    /// untraced and undetected (decided after prepare_views()).
    [[nodiscard]] bool ring_free() const noexcept {
        return !copy_through_ && trace_ == nullptr && !detect_.enabled();
    }
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
