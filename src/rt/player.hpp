// Executes a compiled Plan as real data movement on a worker-thread pool.
//
// Each worker owns a contiguous range of cube nodes. Execution is
// cycle-synchronous: during cycle c every worker first pushes its nodes'
// scheduled blocks into the outgoing link channels (send phase), the pool
// barriers, then drains its nodes' incoming channels (receive phase) —
// verifying each delivered block's checksum in move mode or accumulating it
// elementwise in combine mode — and barriers again. The two barriers per
// cycle realize the paper's synchronized routing steps: a block pushed in
// cycle c is consumed in cycle c and forwardable from cycle c+1, exactly
// the store-and-forward rule the cycle simulator validates. Consequently
// the number of cycles the player executes equals the CycleExecutor
// makespan of the same schedule.
//
// Violations on worker threads (channel under/overflow, packet mismatch,
// checksum mismatch) cannot throw across the pool; they are counted in the
// stats and surfaced by the caller. With detection enabled
// (ft::DetectConfig, see rt/detect.hpp) the first violation is additionally
// promoted into a structured ft::FaultReport — which directed link, which
// logical cycle, which fault class — and the in-flight plan aborts and
// drains: workers skip the remaining payload work but keep crossing every
// barrier, so the pool retires without deadlock in a bounded number of
// barrier hops.
#pragma once

#include "ft/fault_model.hpp"
#include "rt/channel.hpp"
#include "rt/detect.hpp"
#include "rt/plan.hpp"
#include "rt/tracing.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace hcube::rt {

class CycleBarrier;
class WorkerPool;

/// How a play() actually executed: the barrier engine's lockstep phases,
/// the dataflow engine's single-thread serial walk, or its work-stealing
/// multi-worker mode (the AsyncPlayer picks between the latter two per
/// run; see async_player.hpp).
enum class ExecMode {
    barrier,
    serial,
    stealing,
};

[[nodiscard]] constexpr const char* to_string(ExecMode mode) noexcept {
    switch (mode) {
    case ExecMode::barrier: return "barrier";
    case ExecMode::serial: return "serial";
    case ExecMode::stealing: return "stealing";
    }
    return "?";
}

struct PlayStats {
    std::uint32_t cycles = 0;          ///< barrier-synchronized cycles run
    std::uint64_t blocks_sent = 0;     ///< blocks pushed into channels
    std::uint64_t blocks_delivered = 0;///< blocks drained, verified/combined
    std::uint64_t payload_bytes = 0;   ///< blocks_delivered x block bytes
    std::uint64_t bytes_copied = 0;    ///< payload bytes actually memcpy'd
                                       ///< (0 on the zero-copy path)
    std::uint64_t checksum_failures = 0;
    std::uint64_t channel_faults = 0;  ///< full-on-push / empty-on-pop /
                                       ///< wrong packet or sequence at head
    std::uint64_t timeouts = 0;        ///< bounded arrival waits that expired
                                       ///< (detection enabled only)
    std::uint64_t steals = 0;          ///< actions run off another worker's
                                       ///< queue (AsyncPlayer only)
    double seconds = 0;                ///< wall clock of the threaded region
    ExecMode mode = ExecMode::barrier; ///< how this run executed
    /// Medium the blocks moved over: the in-process ring bank, or the net
    /// backend's Unix-domain / TCP sockets (set by the net runtime).
    ft::TransportClass transport = ft::TransportClass::ring;

    [[nodiscard]] bool clean() const noexcept {
        return checksum_failures == 0 && channel_faults == 0 &&
               timeouts == 0;
    }
};

class Player {
public:
    /// Allocates node-local block memory and the channel bank for `plan`.
    /// The plan must outlive the player.
    explicit Player(const Plan& plan, std::uint32_t channel_capacity = 2);

    /// Enables bounded-wait fault detection (and, per config, the
    /// abort-and-drain path). Only valid between runs.
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

    /// Seeds initial blocks, runs the full schedule on plan.workers
    /// threads, and returns the aggregated stats. Reusable: every call
    /// starts from freshly seeded memory and rewound channels.
    /// With a non-null `pool` (of at least plan.workers threads) the run is
    /// dispatched onto the resident pool threads instead of creating and
    /// joining a thread per worker — the re-entrant steady-state entry
    /// point the service layer uses.
    [[nodiscard]] PlayStats play() { return play(nullptr); }
    [[nodiscard]] PlayStats play(WorkerPool* pool);

    /// The first fault the last play() detected (cls == none on a clean
    /// run, or while detection is disabled).
    [[nodiscard]] const ft::FaultReport& fault_report() const noexcept {
        return arbiter_.report();
    }

    /// Post-run view of the block held by (node, packet); empty span if the
    /// node has no slot for the packet.
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
    /// rings, slot views, copy-through storage, checksum table) — what a
    /// byte-budgeted cache charges for keeping the player warm. The plan
    /// itself is accounted separately by Plan::resident_bytes().
    [[nodiscard]] std::uint64_t resident_bytes() const noexcept;

private:
    void run_worker(std::uint32_t worker, PlayStats& stats);
    void prepare_views();

    const Plan& plan_;
    CycleBarrier* barrier_ = nullptr; ///< non-null only inside play()
    ChannelBank channels_;
    /// Per slot: the block the (node, packet) currently holds. On the
    /// zero-copy path these point into the plan's immutable arena; under
    /// copy-through they point into memory_.
    std::vector<const double*> views_;
    /// Copy-through slot storage (total_slots x block_elems doubles).
    /// Allocated eagerly for combine plans, lazily for move plans on the
    /// first copy-through run (fault hook installed) — a pure zero-copy
    /// player never materializes it.
    std::vector<double> memory_;
    std::vector<std::uint64_t> expected_checksum_; ///< per packet, move mode
    bool copy_through_ = false; ///< decided per run in prepare_views()
    ft::DetectConfig detect_{};
    FaultArbiter arbiter_;
    TraceRecorder* trace_ = nullptr;
};

} // namespace hcube::rt
