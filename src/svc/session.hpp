// svc::Session — the persistent execution context of the collective
// service: one resident worker pool, one compiled-plan cache, one set of
// machine constants for the selector, shared across every operation
// submitted for the session's lifetime.
//
// Where a one-shot run builds one rt::CheckedPlan (proving, compiling and
// allocating player memory) and plays it once, the Session caches one
// per signature and keeps one worker pool resident: a cache hit replays
// the resident AsyncPlayer on the resident pool, touching no allocator
// and no schedule generator. An entry's first execution checks the run's
// final memory against the state the schedule alone implies
// (rt/expected.hpp); later runs stay byte-exact at a lower cost:
// combine-mode entries byte-compare against the expected image that check
// computed, and move-mode entries compare against the plan's immutable
// block arena (keeping no image: it would be a second full copy of arena
// bytes) (docs/SERVICE.md § Verification: first run and steady state).
#pragma once

#include "common/lru_cache.hpp"
#include "mbr/view.hpp"
#include "model/broadcast_model.hpp"
#include "rt/async_player.hpp" // ExecMode
#include "svc/rejection.hpp"
#include "svc/selector.hpp"
#include "svc/signature.hpp"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>

namespace hcube::rt {
class WorkerPool;
}

namespace hcube::svc {

struct SessionParams {
    /// Worker threads; 0 picks min(2^n, max(2, hardware_concurrency)).
    std::uint32_t threads = 0;
    /// Byte budget for the plan cache: each entry is charged its exact
    /// resident bytes (plan + player + expected image; see
    /// rt::CheckedPlan::resident_bytes) and least-recently-used entries
    /// are evicted until the total fits — thousands of small-cube
    /// signatures coexist with a few large ones under one bound.
    /// 0 = unbounded.
    std::uint64_t plan_cache_bytes = std::uint64_t{64} << 20;
    /// Port model schedules are generated for and validated under.
    sim::PortModel model = sim::PortModel::one_port_full_duplex;
    /// Machine constants for the AlgorithmSelector. Unset → the paper's
    /// iPSC constants (model::ipsc_params()); construction does no timing.
    std::optional<model::CommParams> comm;
};

/// Per-execution report (rt::CheckedRun plus the cache's view of the run).
struct ExecStats {
    bool verified = false;      ///< all checks for this run passed
    /// This run was checked against the schedule's expected final state
    /// (the entry's first execution, or a repeat of one that failed);
    /// false on the steady-state path.
    bool full_check = false;
    bool cache_hit = false;     ///< plan + player came from the cache
    std::uint32_t rt_cycles = 0;
    std::uint32_t sim_makespan = 0;
    std::uint64_t blocks_delivered = 0;
    std::uint64_t payload_bytes = 0;
    /// Payload bytes the run memcpy'd (0 on the zero-copy delivery path;
    /// nonzero under copy-through — combine plans or fault-hooked runs).
    std::uint64_t bytes_copied = 0;
    /// How the AsyncPlayer executed (serial / stealing).
    rt::ExecMode exec_mode = rt::ExecMode::serial;
    /// Medium the blocks moved over (always ring for an in-process
    /// session; netd reports its serving endpoint's transport instead).
    ft::TransportClass transport = ft::TransportClass::ring;
    /// Exact bytes this signature's cache entry keeps resident after the
    /// run (compiled plan + player + expected image) — the cost the
    /// byte-budgeted cache charges it.
    std::uint64_t plan_resident_bytes = 0;
    double seconds = 0; ///< wall clock of the run's play()
    /// Member-set epoch the plan was keyed on (the signature sub-cube's
    /// epoch at execution time).
    std::uint64_t view_epoch = 0;
    /// Live members the collective spanned (2^sig.n on a full sub-cube).
    node_t member_count = 0;
};

class Session {
  public:
    explicit Session(dim_t n, SessionParams params = {});
    ~Session();
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    [[nodiscard]] dim_t dimension() const noexcept { return n_; }
    [[nodiscard]] std::uint32_t threads() const noexcept { return threads_; }

    /// Validates `sig` against the current membership view (see
    /// preflight), fetches or compiles its plan entry, executes it on the
    /// resident pool, and verifies the run (full check on the entry's
    /// first execution, steady-state checks after).
    /// Accepts any sub-cube dimension 1 <= sig.n <= n (plans for smaller
    /// cubes clamp their worker count to the sub-cube's live member
    /// count), so one session can serve a mixed-dimension signature
    /// population; on an incomplete sub-cube the schedule spans exactly
    /// the live members. Throws rejected_error (with the structured
    /// Rejection) when preflight refuses the signature. Thread-safe;
    /// concurrent executions of the same signature serialize on the
    /// entry, distinct signatures only contend on the pool; membership
    /// transitions wait for in-flight executions to drain.
    [[nodiscard]] ExecStats execute(const Signature& sig);

    /// execute() restricted to a resident plan entry: a hit plays and
    /// verifies exactly as execute() does and counts one cache hit. A miss
    /// returns nullopt having counted no lookup, built nothing and played
    /// nothing; the caller's fallback execute() then counts the miss.
    /// Throws rejected_error as execute() does.
    [[nodiscard]] std::optional<ExecStats>
    execute_resident(const Signature& sig);

    /// Why `sig` would be refused against the current view, or nullopt if
    /// it is admissible: dimension and root in range, root a live member
    /// of the signature's sub-cube (with the XOR-nearest live member
    /// suggested otherwise), and — on an incomplete sub-cube — a family
    /// and op the member tree can route.
    [[nodiscard]] std::optional<Rejection>
    preflight(const Signature& sig) const;

    // ---- membership ---------------------------------------------------

    /// Snapshot of the session's membership view (full cube at epoch 0
    /// until the first transition).
    [[nodiscard]] mbr::View view() const;
    [[nodiscard]] std::uint64_t view_epoch() const;

    /// Membership transitions. Each applies to the view atomically, then
    /// evicts exactly the cached plans whose sub-cube epoch went stale —
    /// a join at address 9 leaves every n <= 3 plan resident. Returns the
    /// number of entries evicted. Transitions wait for in-flight
    /// executions to drain; strictness (joining a live address, leaving a
    /// dead or last one) follows mbr::View and throws check_error with
    /// the view and cache unchanged.
    std::size_t join(node_t v);
    std::size_t leave(node_t v);
    std::size_t apply(const mbr::Delta& delta);

    /// Total cache entries evicted by membership transitions (subset of
    /// cache_stats().evictions).
    [[nodiscard]] std::uint64_t epoch_evictions() const noexcept;

    /// Cost-model selection with the session's machine constants.
    [[nodiscard]] const AlgorithmSelector& selector() const noexcept {
        return selector_;
    }

    /// Convenience: selector() applied to a message of `message_elems`
    /// elements, returning a ready-to-execute signature.
    [[nodiscard]] Signature plan_signature(Op op, node_t root,
                                           std::uint64_t message_elems) const;

    [[nodiscard]] hcube::CacheStats cache_stats() const noexcept;
    [[nodiscard]] std::size_t cached_plans() const;
    /// Exact resident bytes currently charged to the plan cache.
    [[nodiscard]] std::uint64_t cache_resident_bytes() const;

  private:
    struct PlanEntry;

    /// `sig` as the cache keys it: preflighted against the view (throws
    /// rejected_error) and stamped with its sub-cube's epoch. Caller holds
    /// the view lock.
    [[nodiscard]] Signature keyed(const Signature& sig) const;
    /// The entry for keyed `sig`, built over its sub-cube view on a miss.
    /// Caller holds the view lock across the lookup.
    [[nodiscard]] std::shared_ptr<PlanEntry>
    entry_for(const Signature& sig, bool& cache_hit);
    /// Plays `entry` (keyed by `key`) and reports the run. Caller holds the
    /// view lock.
    [[nodiscard]] ExecStats play_entry(PlanEntry& entry, const Signature& key,
                                       bool cache_hit);
    /// Evicts every cached plan whose sub-cube epoch no longer matches
    /// the view. Caller holds the exclusive view lock.
    std::size_t evict_stale_epochs();

    dim_t n_;
    SessionParams params_;
    std::uint32_t threads_;
    std::unique_ptr<rt::WorkerPool> pool_;
    AlgorithmSelector selector_;
    LruCache<Signature, std::shared_ptr<PlanEntry>> cache_;
    /// Guards view_: shared across an execution (plans compile against a
    /// stable member set), exclusive for transitions — so a transition
    /// can never invalidate a plan mid-flight. Lock order: view_mutex_
    /// before any cache_ internal lock.
    mutable std::shared_mutex view_mutex_;
    mbr::View view_;
    std::atomic<std::uint64_t> epoch_evictions_{0};
    /// High-water mark of cache evictions already published to the obs
    /// registry — each Session forwards exactly its own eviction total once
    /// even when concurrent executions race the sync.
    std::atomic<std::uint64_t> evictions_published_{0};
};

} // namespace hcube::svc
