// rt::Communicator — the collective API of the threaded runtime.
//
// Where routing::CollectiveComm runs the paper's algorithms on the *event
// simulator* (simulated seconds), this communicator runs the cycle-exact
// schedules as *real data movement*: logical cube nodes mapped onto a
// thread pool, directed links as sequence-stamped ring-buffer channels,
// and a checksum check on every delivered block. Every operation builds
// one rt::CheckedPlan (rt/expected.hpp): the cycle executor proves the
// schedule feasible and fixes the final state a correct run leaves
// behind, the plan compiles, the dependency-driven AsyncPlayer plays it,
// and the run's final memory is checked against that expected state. The
// result carries the measured wall clock next to the schedule's logical
// depth and the CycleExecutor makespan. (The two-barrier-per-cycle
// rt::Player, whose cycle count equals the makespan by construction,
// stays the cycle-exact reference that tests and bench_rt construct
// directly.)
//
// Operations map onto the paper's schedule families via the
// routing/schedule_export.hpp hooks:
//   broadcast  — any spanning tree (port-oriented or paced) or the MSBT;
//   scatter    — SBT descending / BST cyclic / all-port per-subtree;
//   gather     — the time-reversed scatter;
//   reduce     — the time-reversed broadcast, combining elementwise;
//   allgather  — recursive doubling (packet j = node j's block);
//   alltoall   — dimension-order complete exchange.
#pragma once

#include "routing/schedule_export.hpp"
#include "rt/player.hpp" // PlayStats, ExecMode
#include "sim/port_model.hpp"
#include "trees/spanning_tree.hpp"

#include <cstdint>
#include <memory>

namespace hcube::rt {

class CheckedPlan;

struct Params {
    /// Worker threads; 0 picks min(2^n, max(2, hardware_concurrency))
    /// (rt/threads.hpp).
    std::uint32_t threads = 0;
    /// Elements (doubles) per packet — the internal packet size B_int.
    std::size_t block_elems = 256;
    /// Port model the schedules are generated for and validated under.
    sim::PortModel model = sim::PortModel::one_port_full_duplex;
};

struct Result {
    std::uint32_t rt_cycles = 0;    ///< logical cycles of the schedule
    std::uint32_t sim_makespan = 0; ///< CycleExecutor makespan (cross-check)
    std::uint64_t blocks_delivered = 0;
    std::uint64_t payload_bytes = 0; ///< bytes drained from link channels
    std::uint64_t bytes_copied = 0;  ///< payload bytes memcpy'd by the
                                     ///< run (0 = pure zero-copy)
    double seconds = 0;              ///< wall clock of the run
    std::uint64_t steals = 0;        ///< work-stealing count
    /// Fault counters of the run (all zero on a healthy machine; nonzero
    /// under ft fault injection or real failures).
    std::uint64_t checksum_failures = 0;
    std::uint64_t channel_faults = 0;
    std::uint64_t timeouts = 0;
    /// Clean run, one delivery per scheduled send, and a final memory
    /// that passes the expected-state rule (rt/expected.hpp).
    bool verified = false;
    /// The run executed on a persistent worker pool (or the single-worker
    /// serial path) — no thread was created or joined for this operation.
    bool pool_reused = false;
    /// How the run executed: the AsyncPlayer's serial fast path or its
    /// work-stealing mode (a pure function of the plan and run; see
    /// rt/async_player.hpp).
    ExecMode exec_mode = ExecMode::serial;
    /// Medium the run moved blocks over ("ring" for the in-process bank;
    /// "uds"/"tcp" when a net-backend result is folded into the same
    /// schema).
    ft::TransportClass transport = ft::TransportClass::ring;
    std::uint32_t threads = 1;

    [[nodiscard]] double gbytes_per_sec() const noexcept {
        return seconds > 0
                   ? static_cast<double>(payload_bytes) / seconds * 1e-9
                   : 0.0;
    }
};

class WorkerPool;

class Communicator {
public:
    explicit Communicator(hc::dim_t n, Params params = {});
    ~Communicator();
    Communicator(const Communicator&) = delete;
    Communicator& operator=(const Communicator&) = delete;

    [[nodiscard]] hc::dim_t dimension() const noexcept { return n_; }
    [[nodiscard]] std::uint32_t threads() const noexcept { return threads_; }

    /// Broadcast `packets` blocks from tree.root down `tree`.
    Result broadcast(const trees::SpanningTree& tree,
                     routing::BroadcastDiscipline discipline,
                     sim::packet_t packets);

    /// MSBT broadcast of `packets` blocks (divisible by n) from `root`.
    Result broadcast_msbt(hc::node_t root, sim::packet_t packets);

    /// Scatter `packets_per_dest` blocks from tree.root to every node.
    Result scatter(const trees::SpanningTree& tree,
                   routing::ScatterPolicy policy,
                   sim::packet_t packets_per_dest);

    /// Gather every node's blocks at tree.root (time-reversed scatter).
    Result gather(const trees::SpanningTree& tree,
                  routing::ScatterPolicy policy,
                  sim::packet_t packets_per_dest);

    /// Elementwise-sum reduction of `packets` blocks per node into
    /// tree.root, down the time-reversed port-oriented broadcast of `tree`.
    /// Verified against the exact integer sums of every contribution.
    Result reduce(const trees::SpanningTree& tree, sim::packet_t packets);

    /// Allgather: node j's block (packet j) reaches every node.
    Result allgather();

    /// All-to-all personalized exchange, `packets_per_pair` blocks per
    /// (src, dest) pair.
    Result alltoall(sim::packet_t packets_per_pair);

private:
    /// Proves, compiles, plays and checks a move-mode schedule.
    Result run_move(const sim::Schedule& schedule);
    /// Plays `checked` once on the resident pool and reports the run.
    Result run(CheckedPlan& checked);

    hc::dim_t n_;
    Params params_;
    std::uint32_t threads_;
    /// Resident threads every operation replays on (constructed once, in
    /// the constructor); null when one worker suffices, whose serial path
    /// never creates a thread either.
    std::unique_ptr<WorkerPool> pool_;
};

} // namespace hcube::rt
