#include "rt/async_player.hpp"

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "rt/delivery.hpp"
#include "rt/pool.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <mutex>
#include <thread>

namespace hcube::rt {

namespace {

constexpr std::uint32_t kNoAction = ~std::uint32_t{0};

/// Below this many actions per worker the queue/steal machinery costs more
/// than it buys; such plans take the serial fast path.
constexpr std::uint32_t kSerialActionsPerWorker = 32;

/// Smallest block whose per-hop copy pays back stealing's fixed dispatch
/// cost (pool wake-up, deque locks, atomic dependency counters): the two
/// modes cross over near 8 KiB on copy-through plays (crossover table in
/// docs/RUNTIME.md).
constexpr std::uint64_t kStealBlockBytes = 8192;

void cpu_relax() noexcept {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#endif
}

} // namespace

/// Per-worker run queue + stats, padded so two workers' queue heads never
/// false-share. The owner pops from the back (LIFO: depth-first along the
/// chain of actions it just enabled); thieves pop from the front (FIFO:
/// the oldest ready action is the most likely to unblock a long chain).
struct alignas(64) AsyncPlayer::Worker {
    std::mutex mutex;
    std::deque<std::uint32_t> queue;
    PlayStats stats;
};

AsyncPlayer::AsyncPlayer(const Plan& plan)
    : plan_(plan),
      channels_(plan.channel_count, plan.async_depth, plan.block_elems,
                plan.mode == DataMode::combine),
      views_(static_cast<std::size_t>(plan.total_slots), nullptr),
      deps_(plan.dep_count.size()) {
    const std::uint64_t bytes =
        plan.total_slots * plan.block_elems * sizeof(double);
    HCUBE_ENSURE_MSG(bytes <= (std::uint64_t{1} << 34),
                     "runtime payload exceeds 16 GiB; shrink the schedule "
                     "or the block size");
    if (plan.mode == DataMode::combine) {
        memory_.assign(static_cast<std::size_t>(plan.total_slots) *
                           plan.block_elems,
                       0.0);
    }
}

void AsyncPlayer::prepare_views() {
    copy_through_ =
        plan_.mode == DataMode::combine || channels_.inline_active();
    const std::size_t blk = plan_.block_elems;
    if (copy_through_) {
        if (memory_.empty() && plan_.total_slots > 0) {
            memory_.assign(static_cast<std::size_t>(plan_.total_slots) * blk,
                           0.0);
        }
        seed_plan_memory(plan_, memory_);
        for (std::uint64_t s = 0; s < plan_.total_slots; ++s) {
            views_[static_cast<std::size_t>(s)] =
                memory_.data() + static_cast<std::size_t>(s) * blk;
        }
    } else {
        std::ranges::fill(views_, nullptr);
        for (const std::uint64_t slot : plan_.seeded_slots) {
            views_[static_cast<std::size_t>(slot)] =
                plan_.arena_block(plan_.slot_packet[slot]);
        }
    }
}

std::span<const double> AsyncPlayer::block(node_t node,
                                           packet_t packet) const {
    const std::uint64_t slot = plan_.slot_of(node, packet);
    return slot == Plan::kNoSlot ? std::span<const double>{}
                                 : slot_block(slot);
}

std::uint64_t AsyncPlayer::resident_bytes() const noexcept {
    return channels_.resident_bytes() +
           std::uint64_t{views_.capacity()} * sizeof(const double*) +
           std::uint64_t{memory_.capacity()} * sizeof(double) +
           std::uint64_t{deps_.size()} *
               sizeof(std::atomic<std::uint32_t>);
}

void AsyncPlayer::execute(const RunContext& ctx, std::uint32_t action,
                          std::uint32_t worker, PlayStats& stats) {
    // Hot fields come from the plan's SoA action streams — four sequential
    // u32 arrays indexed by the interleaved id, so the two halves of one
    // hop read adjacent memory. The schedule cycle is diagnostics-only
    // (fault reports, traces) and recovered lazily: the plan keeps no
    // per-hop cycle stamp.
    const ActionFields f = plan_.fields(action);
    const std::uint32_t cycle =
        ctx.detecting || ctx.trace != nullptr
            ? plan_.cycle_of_lowered(Plan::lowered_of(action))
            : 0;
    if (plan_.is_send_action(action)) {
        send_block(ctx, {f.channel, f.slot, f.packet, f.seq, cycle}, worker,
                   stats);
        return;
    }
    (void)deliver_block(ctx, {f.channel, f.slot, f.packet, f.seq, cycle},
                        worker, stats);
}

void AsyncPlayer::finish(std::uint32_t action, Worker* workers) {
    for (std::uint32_t e = plan_.succ_begin[action];
         e < plan_.succ_begin[action + 1]; ++e) {
        const std::uint32_t succ = plan_.succ[e];
        // acq_rel: the final decrement acquires every predecessor's writes
        // (block memory, ring slots) before the successor may run anywhere.
        if (deps_[succ].fetch_sub(1, std::memory_order_acq_rel) == 1) {
            // A newly ready action always goes to its owner's queue, even
            // when a thief completed the enabling action — LIFO locality is
            // the owner's, stealing only rebalances.
            Worker& target = workers[plan_.owner_of(plan_.action_node(succ))];
            const std::lock_guard lock(target.mutex);
            target.queue.push_back(succ);
        }
    }
    completed_.fetch_add(1, std::memory_order_release);
}

void AsyncPlayer::run_worker(std::uint32_t worker, Worker* workers) {
    Worker& self = workers[worker];
    const std::uint32_t count = plan_.workers;
    const std::uint64_t total = plan_.action_count();
    const RunContext ctx{plan_,         channels_,
                         views_.data(), memory_.data(),
                         detect_,       arbiter_,
                         trace_,        detect_.enabled(),
                         copy_through_};
    std::uint32_t misses = 0;
    // On abort every worker simply exits its loop: unfinished actions stay
    // unfinished (their dep counters never reach zero), and the next run
    // that walks the rings rewinds them and the counters first.
    while (completed_.load(std::memory_order_acquire) < total &&
           !arbiter_.aborted()) {
        std::uint32_t action = kNoAction;
        {
            const std::lock_guard lock(self.mutex);
            if (!self.queue.empty()) {
                action = self.queue.back();
                self.queue.pop_back();
            }
        }
        if (action == kNoAction) {
            for (std::uint32_t d = 1; d < count && action == kNoAction;
                 ++d) {
                Worker& victim = workers[(worker + d) % count];
                const std::lock_guard lock(victim.mutex);
                if (!victim.queue.empty()) {
                    action = victim.queue.front();
                    victim.queue.pop_front();
                    ++self.stats.steals;
                }
            }
        }
        if (action == kNoAction) {
            // Out of work but the run is not over: someone else holds the
            // frontier. Back off in stages — spin briefly (the frontier
            // usually reappears within nanoseconds), then yield
            // (oversubscribed hosts), and eventually nap so a starved tail
            // doesn't hammer every victim lock.
            ++misses;
            if (misses < 64) {
                cpu_relax();
            } else if (misses < 1024) {
                std::this_thread::yield();
            } else {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
            }
            continue;
        }
        misses = 0;
        execute(ctx, action, worker, self.stats);
        finish(action, workers);
    }
}

void AsyncPlayer::run_serial(PlayStats& stats) {
    // (cycle, sends-before-recvs, lowered index) is a topological order of
    // the dependency graph, so this walk leaves the same bytes as a
    // stealing run — including combine-mode accumulation order, which the
    // slot-ordering edges pin — with no queues and no atomics.
    const RunContext ctx{plan_,         channels_,
                         views_.data(), memory_.data(),
                         detect_,       arbiter_,
                         trace_,        detect_.enabled(),
                         copy_through_};
    // Zero-copy move traffic with no tracer and no detector needs no ring
    // at all when there is only one executing thread: the rings exist to
    // hand descriptors across threads, and here the hop *is* the view
    // assignment. The integrity check gets stronger, not weaker — instead
    // of comparing the descriptor's digest word (published from the same
    // table it is checked against), the forwarded view must be the
    // packet's canonical arena block, pointer-identical.
    if (ring_free()) {
        for (std::uint32_t cycle = 0; cycle < plan_.cycles; ++cycle) {
            const std::uint32_t lo = plan_.flat_cycle_begin[cycle];
            const std::uint32_t hi = plan_.flat_cycle_begin[cycle + 1];
            for (std::uint32_t i = lo; i < hi; ++i) {
                // Store-and-forward (proven at compile) means no send in
                // this cycle reads a slot this cycle delivers, so the
                // send/recv halves of hop i can be retired together.
                const double* const view = views_[plan_.lowered_send(i).slot];
                const ActionFields r = plan_.lowered_recv(i);
                if (view != plan_.arena_block(r.packet)) [[unlikely]] {
                    ++stats.checksum_failures;
                }
                views_[r.slot] = view;
            }
            stats.blocks_sent += hi - lo;
            stats.blocks_delivered += hi - lo;
        }
        return;
    }
    // This walk is sequential in hop order, so the lowered accessors
    // stream it contiguously (interleaved SoA entries 2l / 2l+1).
    for (std::uint32_t cycle = 0; cycle < plan_.cycles; ++cycle) {
        if (ctx.detecting && arbiter_.aborted()) {
            break;
        }
        const std::uint32_t lo = plan_.flat_cycle_begin[cycle];
        const std::uint32_t hi = plan_.flat_cycle_begin[cycle + 1];
        for (std::uint32_t i = lo; i < hi; ++i) {
            const ActionFields a = plan_.lowered_send(i);
            send_block(ctx, {a.channel, a.slot, a.packet, a.seq, cycle}, 0,
                       stats);
        }
        for (std::uint32_t i = lo; i < hi; ++i) {
            const ActionFields a = plan_.lowered_recv(i);
            const DeliverOutcome out = deliver_block(
                ctx, {a.channel, a.slot, a.packet, a.seq, cycle}, 0, stats);
            if (out == DeliverOutcome::drained ||
                (out == DeliverOutcome::skipped && arbiter_.aborted())) {
                break;
            }
        }
    }
}

void AsyncPlayer::run_stealing(WorkerPool* pool, PlayStats& stats) {
    const std::uint32_t total = plan_.action_count();
    std::vector<Worker> workers(plan_.workers);
    completed_.store(0, std::memory_order_relaxed);
    for (std::uint32_t a = 0; a < total; ++a) {
        deps_[a].store(plan_.dep_count[a], std::memory_order_relaxed);
    }
    for (std::uint32_t a = 0; a < total; ++a) {
        if (plan_.dep_count[a] == 0) {
            workers[plan_.owner_of(plan_.action_node(a))].queue.push_back(a);
        }
    }
    if (pool != nullptr) {
        HCUBE_ENSURE_MSG(pool->size() >= plan_.workers,
                         "worker pool narrower than the plan");
        pool->run(plan_.workers, [this, &workers](std::uint32_t w) {
            run_worker(w, workers.data());
        });
    } else {
        std::vector<std::thread> threads;
        threads.reserve(plan_.workers);
        for (std::uint32_t w = 0; w < plan_.workers; ++w) {
            threads.emplace_back(
                [this, w, &workers] { run_worker(w, workers.data()); });
        }
        for (std::thread& t : threads) {
            t.join();
        }
    }
    for (const Worker& w : workers) {
        stats.blocks_sent += w.stats.blocks_sent;
        stats.blocks_delivered += w.stats.blocks_delivered;
        stats.bytes_copied += w.stats.bytes_copied;
        stats.checksum_failures += w.stats.checksum_failures;
        stats.channel_faults += w.stats.channel_faults;
        stats.timeouts += w.stats.timeouts;
        stats.steals += w.stats.steals;
    }
}

PlayStats AsyncPlayer::play(WorkerPool* pool) {
    prepare_views();
    // A ring walk rewinds the bank so its sequence stamps restart at 0;
    // the ring-free walk never reads the bank and skips the rewind.
    if (!ring_free()) {
        channels_.reset();
    }
    arbiter_.reset();
    if (trace_ != nullptr) {
        HCUBE_ENSURE_MSG(trace_->workers() >= plan_.workers,
                         "trace recorder has fewer lanes than plan workers");
    }

    const std::uint32_t total = plan_.action_count();
    // A pure function of the run (see the header): steal only where the
    // per-hop copies of a copy-through play can pay for the dispatch.
    const bool serial =
        !copy_through_ || plan_.workers == 1 ||
        plan_.block_elems * sizeof(double) < kStealBlockBytes ||
        std::uint64_t{total} <
            std::uint64_t{kSerialActionsPerWorker} * plan_.workers;

    PlayStats stats;
    const auto start = std::chrono::steady_clock::now();
    if (serial) {
        run_serial(stats);
    } else {
        run_stealing(pool, stats);
    }
    const auto stop = std::chrono::steady_clock::now();
    stats.cycles = plan_.cycles; // logical schedule depth
    stats.mode = serial ? ExecMode::serial : ExecMode::stealing;
    stats.seconds = std::chrono::duration<double>(stop - start).count();
    stats.payload_bytes =
        stats.blocks_delivered * plan_.block_elems * sizeof(double);

    // Abort salvage: land the partial timeline before the caller unwinds.
    if (trace_ != nullptr && arbiter_.aborted()) {
        trace_->flush_abort();
    }

    static obs::Counter& m_plays_serial =
        obs::registry().counter("rt.plays_serial");
    static obs::Counter& m_plays_stealing =
        obs::registry().counter("rt.plays_stealing");
    static obs::Counter& m_cycles = obs::registry().counter("rt.cycles");
    static obs::Counter& m_steals = obs::registry().counter("rt.steals");
    static obs::Counter& m_copied =
        obs::registry().counter("rt.bytes_copied");
    static obs::Counter& m_checksum =
        obs::registry().counter("rt.checksum_bytes");
    static obs::Histogram& m_play_ns =
        obs::registry().histogram("rt.play_ns");
    (serial ? m_plays_serial : m_plays_stealing).inc();
    m_cycles.inc(stats.cycles);
    m_steals.inc(stats.steals);
    m_copied.inc(stats.bytes_copied);
    m_checksum.inc(stats.payload_bytes);
    m_play_ns.record_seconds(stats.seconds);
    return stats;
}

} // namespace hcube::rt
