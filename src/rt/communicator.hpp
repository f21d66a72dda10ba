// rt::Communicator — the collective API of the threaded runtime.
//
// Where routing::CollectiveComm runs the paper's algorithms on the *event
// simulator* (simulated seconds), this communicator runs the cycle-exact
// schedules as *real data movement*: logical cube nodes mapped onto a
// thread pool, directed links as sequence-stamped ring-buffer channels,
// and a checksum check on every delivered block. Two engines execute a
// compiled plan: the two-barrier-per-cycle Player (the cycle-exact
// reference oracle) and the dependency-driven AsyncPlayer (the fast path,
// no global barriers). With Engine::async the barrier engine still runs
// once per operation as the oracle, and verification additionally demands
// a byte-identical final memory state across the two. Every operation also
// executes the same schedule through sim::execute_schedule, so the result
// carries both the measured wall clock and the cycle-model cross-check:
// for uniform packets the barrier engine's cycle count equals the
// CycleExecutor makespan exactly (the async engine reports the same
// logical depth without ever synchronizing on it).
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
#include <string_view>
#include <unordered_set>

namespace hcube::rt {

/// Which execution engine runs the schedule.
enum class Engine {
    barrier, ///< cycle-exact two-barrier-per-cycle Player (the oracle)
    async,   ///< dependency-driven work-stealing AsyncPlayer (no barriers)
};

[[nodiscard]] constexpr std::string_view to_string(Engine e) noexcept {
    return e == Engine::barrier ? "barrier" : "async";
}

/// When the async engine's barrier-oracle cross-check runs (see
/// docs/RUNTIME.md § Verification policy). Irrelevant under
/// Engine::barrier, where the measured engine *is* the oracle.
enum class Verify {
    always, ///< oracle re-executes every operation (the safest default)
    first,  ///< oracle runs once per distinct schedule fingerprint; later
            ///< repeats rely on per-block checksums + the holdings check
    never,  ///< oracle never runs; checksums + holdings only
};

[[nodiscard]] constexpr std::string_view to_string(Verify v) noexcept {
    switch (v) {
    case Verify::always: return "always";
    case Verify::first: return "first";
    case Verify::never: return "never";
    }
    return "?";
}

struct Params {
    /// Worker threads; 0 picks min(2^n, max(2, hardware_concurrency))
    /// (rt/threads.hpp).
    std::uint32_t threads = 0;
    /// Elements (doubles) per packet — the internal packet size B_int.
    std::size_t block_elems = 256;
    /// Ring slots per link channel (barrier engine; the async engine sizes
    /// its rings from the plan's async_depth).
    std::uint32_t channel_capacity = 2;
    /// Port model the schedules are generated for and validated under.
    sim::PortModel model = sim::PortModel::one_port_full_duplex;
    /// Engine whose stats the Result reports. Engine::async still runs the
    /// barrier engine once as the reference oracle and cross-checks the
    /// final memory states byte for byte — unless `verify` relaxes it.
    Engine engine = Engine::async;
    /// Barrier-oracle policy for the async engine. Tests default to
    /// `always`; the service layer's cached steady state uses `first`.
    Verify verify = Verify::always;
};

struct Result {
    std::uint32_t rt_cycles = 0;    ///< logical cycles of the schedule
    std::uint32_t sim_makespan = 0; ///< CycleExecutor makespan (cross-check)
    std::uint64_t blocks_delivered = 0;
    std::uint64_t payload_bytes = 0; ///< bytes drained from link channels
    std::uint64_t bytes_copied = 0;  ///< payload bytes memcpy'd by the
                                     ///< reported engine (0 = pure zero-copy)
    double seconds = 0;              ///< wall clock of the reported engine
    double ref_seconds = 0; ///< barrier-oracle wall clock (async engine)
    std::uint64_t steals = 0; ///< work-stealing count (async engine)
    /// Fault counters of the reported engine's run (all zero on a healthy
    /// machine; nonzero under ft fault injection or real failures).
    std::uint64_t checksum_failures = 0;
    std::uint64_t channel_faults = 0;
    std::uint64_t timeouts = 0;
    bool verified = false; ///< per-block checksums + final-state checks
    /// The barrier oracle executed and cross-checked this operation (false
    /// when Verify::first already covered the fingerprint or Verify::never
    /// suppressed it; meaningless under Engine::barrier, where it is true).
    bool oracle_checked = false;
    /// The run executed on a persistent worker pool (or the single-worker
    /// serial path) — no thread was created or joined for this operation.
    bool pool_reused = false;
    Engine engine = Engine::barrier; ///< engine the stats above came from
    /// How the reported engine's run actually executed: barrier phases,
    /// the AsyncPlayer's serial fast path, or its work-stealing mode (a
    /// pure function of the plan and run; see rt/async_player.hpp).
    ExecMode exec_mode = ExecMode::barrier;
    /// Medium the reported engine moved blocks over ("ring" for the
    /// in-process bank; "uds"/"tcp" when a net-backend result is folded
    /// into the same schema).
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
    /// Validates via the cycle executor, compiles, plays, verifies final
    /// holdings block by block.
    Result run_move(const sim::Schedule& schedule);

    /// True when the barrier oracle must run for this schedule under the
    /// configured Verify policy (records the fingerprint under ::first).
    [[nodiscard]] bool oracle_due(const sim::Schedule& schedule);

    hc::dim_t n_;
    Params params_;
    std::uint32_t threads_;
    /// Resident threads every operation replays on (constructed once, in
    /// the constructor); null when one worker suffices, whose serial path
    /// never creates a thread either.
    std::unique_ptr<WorkerPool> pool_;
    /// Schedule fingerprints whose oracle cross-check already passed
    /// (Verify::first bookkeeping).
    std::unordered_set<std::uint64_t> oracle_seen_;
};

} // namespace hcube::rt
