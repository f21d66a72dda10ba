#include "rt/player.hpp"

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "rt/barrier.hpp"
#include "rt/checksum.hpp"
#include "rt/delivery.hpp"
#include "rt/pool.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace hcube::rt {

namespace {

/// Worker-local stats padded to a cache line so concurrent increments never
/// false-share.
struct alignas(64) WorkerStats {
    PlayStats stats;
};

} // namespace

Player::Player(const Plan& plan, std::uint32_t channel_capacity)
    : plan_(plan),
      channels_(plan.channel_count, channel_capacity, plan.block_elems,
                plan.mode == DataMode::combine),
      views_(static_cast<std::size_t>(plan.total_slots), nullptr) {
    const std::uint64_t bytes =
        plan.total_slots * plan.block_elems * sizeof(double);
    HCUBE_ENSURE_MSG(bytes <= (std::uint64_t{1} << 34),
                     "runtime payload exceeds 16 GiB; shrink the schedule "
                     "or the block size");
    if (plan.mode == DataMode::move) {
        expected_checksum_.resize(plan.packet_count);
        for (packet_t p = 0; p < plan.packet_count; ++p) {
            expected_checksum_[p] = canonical_checksum(p, plan.block_elems);
        }
    } else {
        memory_.assign(static_cast<std::size_t>(plan.total_slots) *
                           plan.block_elems,
                       0.0);
    }
}

void Player::prepare_views() {
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
        // Zero-copy: undelivered slots hold nothing; seeds view their
        // packet's immutable arena block, and deliveries adopt in-flight
        // views as they land.
        std::ranges::fill(views_, nullptr);
        for (const std::uint64_t slot : plan_.seeded_slots) {
            views_[static_cast<std::size_t>(slot)] =
                plan_.arena_block(plan_.slot_packet[slot]);
        }
    }
}

std::span<const double> Player::block(node_t node, packet_t packet) const {
    const std::uint64_t slot = plan_.slot_of(node, packet);
    return slot == Plan::kNoSlot ? std::span<const double>{}
                                 : slot_block(slot);
}

std::uint64_t Player::resident_bytes() const noexcept {
    return channels_.resident_bytes() +
           std::uint64_t{views_.capacity()} * sizeof(const double*) +
           std::uint64_t{memory_.capacity()} * sizeof(double) +
           std::uint64_t{expected_checksum_.capacity()} *
               sizeof(std::uint64_t);
}

void Player::run_worker(std::uint32_t worker, PlayStats& stats) {
    const std::uint32_t workers = plan_.workers;
    const bool detecting = detect_.enabled();
    const RunContext ctx{plan_,    channels_, views_.data(),
                         memory_.data(),      expected_checksum_.data(),
                         detect_,  arbiter_,  trace_,
                         detecting, copy_through_};
    for (std::uint32_t cycle = 0; cycle < plan_.cycles; ++cycle) {
        const std::size_t bucket = std::size_t{cycle} * workers + worker;

        // Aborted workers skip the payload work of every remaining cycle
        // but still cross both barriers, so the pool drains in lockstep
        // without a peer blocking on a phase nobody else entered.
        if (!detecting || !arbiter_.aborted()) {
            for (std::size_t i = plan_.send_begin[bucket];
                 i < plan_.send_begin[bucket + 1]; ++i) {
                const ActionFields a = plan_.bucket_send(i);
                send_block(ctx, {a.channel, a.slot, a.packet, a.seq, cycle},
                           worker, stats);
            }
        }
        // All of this cycle's blocks are on their links.
        barrier_->arrive_and_wait();

        if (!detecting || !arbiter_.aborted()) {
            for (std::size_t i = plan_.recv_begin[bucket];
                 i < plan_.recv_begin[bucket + 1]; ++i) {
                const ActionFields a = plan_.bucket_recv(i);
                const DeliverOutcome out = deliver_block(
                    ctx, {a.channel, a.slot, a.packet, a.seq, cycle},
                    /*check_seq=*/false, worker, stats);
                if (out == DeliverOutcome::drained ||
                    (out == DeliverOutcome::skipped && arbiter_.aborted())) {
                    break;
                }
            }
        }
        // All of this cycle's deliveries have landed; cycle c+1 may forward
        // them.
        barrier_->arrive_and_wait();
    }
}

PlayStats Player::play(WorkerPool* pool) {
    prepare_views();
    channels_.reset(); // rewind sequence stamps from any aborted prior run
    arbiter_.reset();
    if (trace_ != nullptr) {
        HCUBE_ENSURE_MSG(trace_->workers() >= plan_.workers,
                         "trace recorder has fewer lanes than plan workers");
    }

    CycleBarrier barrier(plan_.workers);
    barrier_ = &barrier;
    std::vector<WorkerStats> per_worker(plan_.workers);

    const auto start = std::chrono::steady_clock::now();
    if (plan_.workers == 1) {
        run_worker(0, per_worker[0].stats);
    } else if (pool != nullptr) {
        HCUBE_ENSURE_MSG(pool->size() >= plan_.workers,
                         "worker pool narrower than the plan");
        pool->run(plan_.workers, [this, &per_worker](std::uint32_t w) {
            run_worker(w, per_worker[w].stats);
        });
    } else {
        std::vector<std::thread> threads;
        threads.reserve(plan_.workers);
        for (std::uint32_t w = 0; w < plan_.workers; ++w) {
            threads.emplace_back(
                [this, w, &per_worker] { run_worker(w, per_worker[w].stats); });
        }
        for (std::thread& t : threads) {
            t.join();
        }
    }
    const auto stop = std::chrono::steady_clock::now();
    barrier_ = nullptr;

    PlayStats total;
    total.cycles = plan_.cycles;
    total.mode = ExecMode::barrier;
    total.seconds = std::chrono::duration<double>(stop - start).count();
    for (const WorkerStats& w : per_worker) {
        total.blocks_sent += w.stats.blocks_sent;
        total.blocks_delivered += w.stats.blocks_delivered;
        total.bytes_copied += w.stats.bytes_copied;
        total.checksum_failures += w.stats.checksum_failures;
        total.channel_faults += w.stats.channel_faults;
        total.timeouts += w.stats.timeouts;
    }
    total.payload_bytes =
        total.blocks_delivered * plan_.block_elems * sizeof(double);

    // Abort salvage: if a detector tripped mid-run and the recorder is
    // armed, land the partial timeline before the caller unwinds.
    if (trace_ != nullptr && arbiter_.aborted()) {
        trace_->flush_abort();
    }

    // One-time aggregate adds after the run — the per-block hot path stays
    // untouched (docs/OBSERVABILITY.md § Overhead).
    static obs::Counter& m_plays = obs::registry().counter("rt.plays_barrier");
    static obs::Counter& m_cycles = obs::registry().counter("rt.cycles");
    static obs::Counter& m_copied =
        obs::registry().counter("rt.bytes_copied");
    static obs::Counter& m_checksum =
        obs::registry().counter("rt.checksum_bytes");
    static obs::Histogram& m_play_ns =
        obs::registry().histogram("rt.play_ns");
    m_plays.inc();
    m_cycles.inc(total.cycles);
    m_copied.inc(total.bytes_copied);
    m_checksum.inc(total.payload_bytes);
    m_play_ns.record_seconds(total.seconds);
    return total;
}

} // namespace hcube::rt
