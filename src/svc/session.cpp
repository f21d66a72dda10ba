#include "svc/session.hpp"

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "rt/expected.hpp"
#include "rt/pool.hpp"
#include "rt/threads.hpp"

#include <utility>
#include <vector>

namespace hcube::svc {

namespace {

/// Preflight of `sig` against the session cube `n` and membership `view`
/// (nullopt = admissible). Pure — callers hold whatever lock keeps the
/// view stable.
std::optional<Rejection> preflight_against(const Signature& sig, dim_t n,
                                           const mbr::View& view) {
    if (sig.n < 1 || sig.n > n) {
        return Rejection{RejectReason::dimension_out_of_range,
                         "signature dimension " + std::to_string(sig.n) +
                             " outside the session's [1, " +
                             std::to_string(n) + "]",
                         std::nullopt};
    }
    if (sig.root >= (node_t{1} << sig.n)) {
        return Rejection{RejectReason::root_out_of_range,
                         "root " + std::to_string(sig.root) +
                             " outside the " + std::to_string(sig.n) +
                             "-cube",
                         std::nullopt};
    }
    // The root lies inside the sub-cube, so the whole view answers for it;
    // only a refusal builds the sub-cube view, to suggest a live root.
    if (!view.contains(sig.root)) {
        Rejection r{RejectReason::root_not_live,
                    "root " + std::to_string(sig.root) +
                        " is not a live member",
                    std::nullopt};
        const mbr::View sub = view.restricted(sig.n);
        if (sub.count() > 0) {
            r.suggested_root = mbr::nearest_member(sub, sig.root);
            r.detail += " (nearest live member: " +
                        std::to_string(*r.suggested_root) + ")";
        }
        return r;
    }
    if (!view.subcube_full(sig.n)) {
        if (sig.family != Family::sbt) {
            return Rejection{
                RejectReason::family_unsupported,
                std::string(to_string(sig.family)) +
                    " assumes the full address space; incomplete cubes "
                    "route over the member tree (sbt)",
                std::nullopt};
        }
        if (sig.op == Op::allgather || sig.op == Op::alltoall) {
            return Rejection{
                RejectReason::op_unsupported,
                std::string(to_string(sig.op)) +
                    " pairs every cube address and has no "
                    "incomplete-cube construction",
                std::nullopt};
        }
    }
    return std::nullopt;
}

/// Publishes the delta between `current` (a monotonic source total, e.g.
/// LruCache::stats().evictions) and the high-water mark already forwarded
/// to `c`. Concurrent callers race on the mark, so the counter receives
/// each unit of the source total exactly once.
void sync_monotonic(obs::Counter& c,
                    std::atomic<std::uint64_t>& published,
                    std::uint64_t current) noexcept {
    std::uint64_t prev = published.load(std::memory_order_relaxed);
    for (;;) {
        if (prev >= current) {
            return;
        }
        if (published.compare_exchange_weak(prev, current,
                                            std::memory_order_relaxed)) {
            c.inc(current - prev);
            return;
        }
    }
}

} // namespace

/// One cached signature: its verified resident run. Heap-allocated and
/// shared_ptr-held so an eviction while another thread executes the entry
/// only drops a reference.
struct Session::PlanEntry {
    PlanEntry(GeneratedSchedule gen, const Signature& sig,
              std::uint32_t workers, std::vector<node_t> members)
        : checked(std::move(gen.exec), gen.feasibility, gen.mode, sig.model,
                  sig.block_elems, workers, std::move(members)) {}

    rt::CheckedPlan checked;
    /// Serializes executions of this entry (the player holds mutable run
    /// state); distinct entries only contend on the worker pool.
    std::mutex exec_mutex;
};

Session::Session(dim_t n, SessionParams params)
    : n_(n), params_(params),
      threads_(rt::pick_worker_threads(n, params.threads)),
      pool_(threads_ > 1 ? std::make_unique<rt::WorkerPool>(threads_)
                         : nullptr),
      selector_(params_.comm.value_or(model::ipsc_params())),
      cache_(params_.plan_cache_bytes),
      view_(n) {
    HCUBE_ENSURE(n >= 1 && n <= hc::kMaxDimension);
}

Session::~Session() = default;

Signature Session::plan_signature(Op op, node_t root,
                                  std::uint64_t message_elems) const {
    const Selection sel =
        selector_.select(op, n_, message_elems, params_.model);
    Signature sig;
    sig.op = op;
    sig.family = sel.family;
    sig.n = n_;
    sig.root = root;
    sig.packets = sel.packets;
    sig.block_elems = sel.block_elems;
    sig.model = params_.model;
    return sig;
}

std::shared_ptr<Session::PlanEntry>
Session::entry_for(const Signature& sig, bool& cache_hit) {
    bool built = false;
    const auto factory = [&] {
        built = true;
        const mbr::View sub = view_.restricted(sig.n);
        // A signature never spreads over more workers than it has live
        // nodes (the plan compiler's partition balances workers over the
        // member set); an incomplete sub-cube's schedule spans exactly
        // its live members.
        const std::uint32_t workers = std::min(threads_, sub.count());
        if (sub.full()) {
            return std::make_shared<PlanEntry>(make_schedule(sig), sig,
                                               workers,
                                               std::vector<node_t>{});
        }
        return std::make_shared<PlanEntry>(make_schedule(sig, sub), sig,
                                           workers, sub.members());
    };
    auto entry = cache_.get_or_create(
        sig, factory, [](const std::shared_ptr<PlanEntry>& e) {
            return e->checked.resident_bytes();
        });
    cache_hit = !built;
    return entry;
}

Signature Session::keyed(const Signature& sig) const {
    if (std::optional<Rejection> rejection =
            preflight_against(sig, n_, view_)) {
        throw rejected_error(std::move(*rejection));
    }
    // Stamp the signature with its sub-cube's member-set epoch: the cache
    // key now names "this collective over this member set", so a
    // transition re-keys exactly the signatures whose sub-cube changed.
    Signature key = sig;
    key.view_epoch = view_.epoch_of_subcube(sig.n);
    return key;
}

ExecStats Session::execute(const Signature& sig) {
    // The view stays stable for the whole execution: transitions take the
    // exclusive side, so a membership change can never invalidate a plan
    // mid-flight.
    const std::shared_lock<std::shared_mutex> view_lock(view_mutex_);
    const Signature key = keyed(sig);
    bool cache_hit = false;
    const std::shared_ptr<PlanEntry> entry = entry_for(key, cache_hit);
    return play_entry(*entry, key, cache_hit);
}

std::optional<ExecStats> Session::execute_resident(const Signature& sig) {
    const std::shared_lock<std::shared_mutex> view_lock(view_mutex_);
    const Signature key = keyed(sig);
    const std::optional<std::shared_ptr<PlanEntry>> entry = cache_.probe(key);
    if (!entry) {
        return std::nullopt;
    }
    return play_entry(**entry, key, true);
}

ExecStats Session::play_entry(PlanEntry& entry, const Signature& key,
                              bool cache_hit) {
    ExecStats out;
    out.cache_hit = cache_hit;
    out.view_epoch = key.view_epoch;
    out.member_count = view_.subcube_count(key.n);
    static obs::Counter& m_hits =
        obs::registry().counter("svc.plan_cache.hits");
    static obs::Counter& m_misses =
        obs::registry().counter("svc.plan_cache.misses");
    (cache_hit ? m_hits : m_misses).inc();
    const std::lock_guard<std::mutex> lock(entry.exec_mutex);

    // The entry's first execution (and any repeat of one that failed) is
    // checked against the schedule's expected final state; later runs
    // take the steady-state path (rt::CheckedPlan).
    const rt::CheckedRun run = entry.checked.play(pool_.get());
    out.verified = run.verified;
    out.full_check = run.full_check;
    out.rt_cycles = run.stats.cycles;
    out.sim_makespan = entry.checked.makespan();
    out.blocks_delivered = run.stats.blocks_delivered;
    out.payload_bytes = run.stats.payload_bytes;
    out.bytes_copied = run.stats.bytes_copied;
    out.exec_mode = run.stats.mode;
    out.transport = run.stats.transport;
    out.seconds = run.stats.seconds;
    out.plan_resident_bytes = entry.checked.resident_bytes();
    if (cache_hit && !run.full_check) {
        return out; // a steady hit changes neither residency nor evictions
    }
    // The first verified pass changes what the entry keeps resident (the
    // combine image materializes); re-price it so the byte budget stays
    // exact.
    if (run.full_check) {
        cache_.update_cost(key, out.plan_resident_bytes);
    }
    static obs::Gauge& m_resident =
        obs::registry().gauge("svc.plan_cache.resident_bytes");
    static obs::Counter& m_evict =
        obs::registry().counter("svc.plan_cache.evictions");
    m_resident.set(static_cast<std::int64_t>(cache_.total_cost()));
    sync_monotonic(m_evict, evictions_published_, cache_.stats().evictions);
    return out;
}

std::optional<Rejection> Session::preflight(const Signature& sig) const {
    const std::shared_lock<std::shared_mutex> view_lock(view_mutex_);
    return preflight_against(sig, n_, view_);
}

mbr::View Session::view() const {
    const std::shared_lock<std::shared_mutex> view_lock(view_mutex_);
    return view_;
}

std::uint64_t Session::view_epoch() const {
    const std::shared_lock<std::shared_mutex> view_lock(view_mutex_);
    return view_.epoch();
}

std::size_t Session::evict_stale_epochs() {
    // Every resident key was stamped with its sub-cube's epoch at insert;
    // keys whose sub-cube saw this transition no longer match and are
    // dropped — keys below the touched address keep matching and stay.
    const std::size_t evicted = cache_.erase_if(
        [this](const Signature& key,
               const std::shared_ptr<PlanEntry>&) {
            return key.view_epoch != view_.epoch_of_subcube(key.n);
        });
    epoch_evictions_.fetch_add(evicted, std::memory_order_relaxed);
    static obs::Counter& m_epoch =
        obs::registry().counter("svc.plan_cache.epoch_evictions");
    static obs::Counter& m_evict =
        obs::registry().counter("svc.plan_cache.evictions");
    m_epoch.inc(evicted);
    sync_monotonic(m_evict, evictions_published_, cache_.stats().evictions);
    obs::registry()
        .gauge("svc.plan_cache.resident_bytes")
        .set(static_cast<std::int64_t>(cache_.total_cost()));
    return evicted;
}

std::size_t Session::join(node_t v) {
    const std::unique_lock<std::shared_mutex> view_lock(view_mutex_);
    view_.join(v);
    return evict_stale_epochs();
}

std::size_t Session::leave(node_t v) {
    const std::unique_lock<std::shared_mutex> view_lock(view_mutex_);
    view_.leave(v);
    return evict_stale_epochs();
}

std::size_t Session::apply(const mbr::Delta& delta) {
    const std::unique_lock<std::shared_mutex> view_lock(view_mutex_);
    view_.apply(delta);
    return evict_stale_epochs();
}

std::uint64_t Session::epoch_evictions() const noexcept {
    return epoch_evictions_.load(std::memory_order_relaxed);
}

hcube::CacheStats Session::cache_stats() const noexcept {
    return cache_.stats();
}

std::size_t Session::cached_plans() const { return cache_.size(); }

std::uint64_t Session::cache_resident_bytes() const {
    return cache_.total_cost();
}

} // namespace hcube::svc
