// Reader-friendly, cost-budgeted LRU cache shared by the TCBT memo and the
// service-layer plan cache.
//
// The concurrency idiom is the one the TCBT cache established: lookups take
// a shared lock and copy the value out under it (so a concurrent insert can
// never invalidate the returned object), expensive factories run with *no*
// lock held, and a miss takes the exclusive lock only to shed an entry
// over the budget before the build and for the final emplace — a raced
// duplicate build is discarded and the winner's value returned, which is
// safe whenever the factory is deterministic (both callers built identical
// values) or the value is a handle whose copies are interchangeable.
//
// Residency is governed by a *cost budget*, not an entry count: every entry
// carries a caller-assigned cost (default 1, which makes the budget an
// entry capacity — the memo semantics), insertion and update_cost evict
// least-recently-used entries until the total fits, and 0 means unbounded.
// The service layer charges each compiled plan its exact resident bytes, so
// one budget holds thousands of small-cube plans or a handful of huge ones.
//
// Recency is an intrusive doubly-linked list threaded through the map
// entries (std::map nodes are address-stable), guarded by a leaf spinlock-
// grade mutex taken *inside* the shared lock: a hit does one O(1) splice
// instead of stamping a clock, and eviction pops the list tail in O(1)
// instead of scanning the map for the minimum stamp. Hits serialize
// briefly on the list mutex — the price of exact LRU order and O(1)
// eviction; the splice is a handful of pointer writes, far cheaper than
// the map lookup preceding it. Lock order: map mutex, then list mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <utility>

namespace hcube {

/// Hit/miss/eviction counters, shared across all LruCache instantiations
/// (so consumers can expose them without naming a key/value pair).
struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
};

template <class Key, class Value>
class LruCache {
public:
    using Stats = CacheStats;

    /// `budget` is the total cost the cache may keep resident; 0 means
    /// unbounded (a pure memo). With the default unit entry cost the
    /// budget is an entry capacity. The budget is a best-effort bound: the
    /// entry being inserted or touched is never evicted, so a single entry
    /// costlier than the whole budget stays resident alone until the next
    /// miss, which evicts it before building.
    explicit LruCache(std::uint64_t budget = 0) noexcept : budget_(budget) {}

    LruCache(const LruCache&) = delete;
    LruCache& operator=(const LruCache&) = delete;

    /// Copy of the cached value, promoting it to most recent; nullopt on a
    /// miss.
    [[nodiscard]] std::optional<Value> get(const Key& key) {
        return lookup(key, true);
    }

    /// get() for a caller that falls back to get_or_create() on a miss: a
    /// hit is counted and promoted as get() counts it, a miss counts
    /// nothing, so the probe and its fallback together count one lookup.
    [[nodiscard]] std::optional<Value> probe(const Key& key) {
        return lookup(key, false);
    }

    /// The cached value for `key`, building it with `factory()` on a miss
    /// at the default unit cost. The factory runs without any lock held; if
    /// two threads race the same miss, one build is discarded and both
    /// return the cached winner.
    template <class Factory>
    [[nodiscard]] Value get_or_create(const Key& key, Factory&& factory) {
        return get_or_create(key, std::forward<Factory>(factory),
                             [](const Value&) { return std::uint64_t{1}; });
    }

    /// As above, charging the freshly built value `cost_fn(value)` against
    /// the budget (also evaluated without any lock held).
    template <class Factory, class CostFn>
    [[nodiscard]] Value get_or_create(const Key& key, Factory&& factory,
                                      CostFn&& cost_fn) {
        if (std::optional<Value> hit = get(key)) {
            return std::move(*hit);
        }
        if (budget_ != 0) {
            // An entry costlier than the whole budget would be evicted by
            // this insertion anyway; shed it before the build, so that it
            // and the value being built are never resident together.
            const std::unique_lock lock(mutex_);
            evict_over_budget(nullptr);
        }
        Value built = factory();
        const std::uint64_t cost = cost_fn(static_cast<const Value&>(built));
        const std::unique_lock lock(mutex_);
        const auto [it, inserted] = map_.try_emplace(key, std::move(built));
        Entry& entry = it->second;
        if (inserted) {
            entry.key = &it->first;
            entry.cost = cost;
            total_cost_ += cost;
            {
                const std::lock_guard list_lock(list_mutex_);
                push_mru(&entry);
            }
            if (budget_ != 0) {
                evict_over_budget(&entry);
            }
        } else {
            const std::lock_guard list_lock(list_mutex_);
            move_to_mru(&entry);
        }
        return it->second.value;
    }

    /// Re-prices a resident entry (e.g. after lazily materializing per-
    /// entry state), evicting colder entries if the total no longer fits.
    /// The re-priced entry itself is never evicted. No-op on a miss.
    void update_cost(const Key& key, std::uint64_t cost) {
        const std::unique_lock lock(mutex_);
        const auto it = map_.find(key);
        if (it == map_.end()) {
            return;
        }
        total_cost_ += cost - it->second.cost;
        it->second.cost = cost;
        if (budget_ != 0) {
            evict_over_budget(&it->second);
        }
    }

    [[nodiscard]] std::size_t size() const {
        const std::shared_lock lock(mutex_);
        return map_.size();
    }

    /// Sum of resident entry costs (exact bytes, for the plan cache).
    [[nodiscard]] std::uint64_t total_cost() const {
        const std::shared_lock lock(mutex_);
        return total_cost_;
    }

    [[nodiscard]] std::uint64_t budget() const noexcept { return budget_; }

    [[nodiscard]] Stats stats() const noexcept {
        return {hits_.load(std::memory_order_relaxed),
                misses_.load(std::memory_order_relaxed),
                evictions_.load(std::memory_order_relaxed)};
    }

    /// True if `key` is currently resident (no recency update, no counters).
    [[nodiscard]] bool contains(const Key& key) const {
        const std::shared_lock lock(mutex_);
        return map_.find(key) != map_.end();
    }

    /// Erases every resident entry for which `pred(key, value)` holds,
    /// regardless of recency: each victim is unlinked from the recency
    /// list and its cost refunded from the total. Returns the number of
    /// entries erased (also counted as evictions). This is the surgical
    /// invalidation path — e.g. dropping exactly the plans whose member-
    /// set epoch went stale — where a budget eviction would only shed the
    /// coldest entries.
    template <class Pred>
    std::size_t erase_if(Pred&& pred) {
        const std::unique_lock lock(mutex_);
        std::size_t erased = 0;
        for (auto it = map_.begin(); it != map_.end();) {
            Entry& entry = it->second;
            if (pred(it->first, static_cast<const Value&>(entry.value))) {
                total_cost_ -= entry.cost;
                unlink(&entry);
                it = map_.erase(it);
                ++erased;
            } else {
                ++it;
            }
        }
        evictions_.fetch_add(erased, std::memory_order_relaxed);
        return erased;
    }

    void clear() {
        const std::unique_lock lock(mutex_);
        map_.clear();
        lru_ = nullptr;
        mru_ = nullptr;
        total_cost_ = 0;
    }

private:
    struct Entry {
        explicit Entry(Value v) : value(std::move(v)) {}
        Value value;
        std::uint64_t cost = 1;
        const Key* key = nullptr; ///< back-pointer for O(1) erase-by-node
        Entry* prev = nullptr;    ///< toward LRU
        Entry* next = nullptr;    ///< toward MRU
    };

    [[nodiscard]] std::optional<Value> lookup(const Key& key,
                                              bool count_miss) {
        const std::shared_lock lock(mutex_);
        const auto it = map_.find(key);
        if (it == map_.end()) {
            if (count_miss) {
                misses_.fetch_add(1, std::memory_order_relaxed);
            }
            return std::nullopt;
        }
        {
            const std::lock_guard list_lock(list_mutex_);
            move_to_mru(&it->second);
        }
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second.value;
    }

    // ---- intrusive recency list (lru_ = coldest, mru_ = hottest) ------
    // Callers hold list_mutex_, or the exclusive map lock (which excludes
    // every shared-lock splicer).
    void unlink(Entry* e) noexcept {
        (e->prev != nullptr ? e->prev->next : lru_) = e->next;
        (e->next != nullptr ? e->next->prev : mru_) = e->prev;
        e->prev = nullptr;
        e->next = nullptr;
    }
    void push_mru(Entry* e) noexcept {
        e->prev = mru_;
        e->next = nullptr;
        (mru_ != nullptr ? mru_->next : lru_) = e;
        mru_ = e;
    }
    void move_to_mru(Entry* e) noexcept {
        if (e == mru_) {
            return;
        }
        unlink(e);
        push_mru(e);
    }

    /// Must hold the exclusive lock. Pops list-tail victims until the
    /// total cost fits the budget, never evicting `keep` (the entry the
    /// caller is about to return a reference to; null before a build).
    void evict_over_budget(const Entry* keep) {
        while (total_cost_ > budget_) {
            Entry* victim = lru_;
            if (victim == keep) {
                victim = victim->next;
            }
            if (victim == nullptr) {
                return; // nothing evictable but `keep`
            }
            total_cost_ -= victim->cost;
            const Key* key = victim->key;
            unlink(victim);
            map_.erase(*key); // destroys *victim
            evictions_.fetch_add(1, std::memory_order_relaxed);
        }
    }

    mutable std::shared_mutex mutex_;
    mutable std::mutex list_mutex_; ///< leaf lock; taken inside mutex_
    std::map<Key, Entry> map_;
    std::uint64_t budget_;
    std::uint64_t total_cost_ = 0;
    Entry* lru_ = nullptr;
    Entry* mru_ = nullptr;
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

} // namespace hcube
