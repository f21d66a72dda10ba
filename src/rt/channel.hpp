// Fixed-capacity sequence-stamped descriptor rings, one per directed cube
// link.
//
// On the AsyncPlayer's serial walk one thread is both ends of every
// channel. When it steals, any worker may run an action, but same-channel
// pushes and pops are serialized by dependency edges, so at most one
// producer and one consumer are active at any instant and the
// single-producer / single-consumer acquire/release protocol holds.
// Indices are monotonically increasing uint32 counters masked into a
// power-of-two ring (the classic Lamport queue): the producer publishes a
// slot with a release store of `tail`, the consumer acquires it by loading
// `tail` and retires it with a release store of `head`.
//
// Slots carry `{view pointer, packet, seq, checksum}` *descriptors*, not
// payload: in the default zero-copy mode a push publishes a borrowed view
// of the producer's block and a forward re-publishes the same view, so a
// block crossing k links moves zero payload bytes through the bank. The
// producer guarantees the viewed bytes stay immutable until the consumer
// pops (the plan's immutable block arena provides this for move-mode
// traffic). Two situations *require* the classic copy-through instead,
// because the producer's block is mutable after the push: combining
// reductions (the producer's slot keeps accumulating) and fault injection
// (the hook corrupts the staged bytes, which must not alias the canonical
// arena). For those the bank stages the payload into channel-owned inline
// storage and the descriptor points at the staged copy — exactly the old
// two-copies-per-hop protocol, preserved bit for bit.
//
// Every slot is stamped with its push sequence number (the k-th push on a
// channel is sequence k), which lets an asynchronous consumer assert it is
// draining exactly the block its dependency graph promised even when the
// producer has run several logical cycles ahead into a deep ring.
//
// All channels live in one bank: contiguous descriptor storage, and
// head/tail counters each padded to a cache line so two threads hammering
// opposite ends of one link never false-share.
#pragma once

#include "common/check.hpp"
#include "ft/fault_model.hpp"
#include "rt/simd.hpp"

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace hcube::rt {

class ChannelBank {
public:
    /// One in-flight block, as the consumer sees it: a borrowed view of the
    /// payload plus the metadata the producer stamped on it.
    struct Desc {
        const double* data = nullptr;
        std::uint32_t packet = 0;
        std::uint32_t seq = 0;       ///< k-th push on this channel
        std::uint64_t checksum = 0;  ///< producer-stamped payload digest
    };

    /// `capacity` slots per channel (rounded up to a power of two), each
    /// slot holding one block descriptor. With `inline_payload` the bank
    /// also owns one staged block of `block_elems` doubles per slot and
    /// every push copies through it (combine-mode snapshot semantics).
    ChannelBank(std::uint32_t channels, std::uint32_t capacity,
                std::size_t block_elems, bool inline_payload = false)
        : channels_(channels), capacity_(std::bit_ceil(
                                   std::max<std::uint32_t>(capacity, 1))),
          block_elems_(block_elems), inline_always_(inline_payload),
          heads_(channels), tails_(channels),
          views_(std::size_t{channels} * capacity_, nullptr),
          packet_ids_(std::size_t{channels} * capacity_, 0),
          seqs_(std::size_t{channels} * capacity_, 0),
          checksums_(std::size_t{channels} * capacity_, 0) {
        HCUBE_ENSURE(block_elems >= 1);
        if (inline_always_) {
            ensure_inline_storage();
        }
    }

    [[nodiscard]] std::uint32_t channel_count() const noexcept {
        return channels_;
    }
    [[nodiscard]] std::uint32_t capacity() const noexcept {
        return capacity_;
    }
    [[nodiscard]] std::size_t block_elems() const noexcept {
        return block_elems_;
    }

    /// True when pushes copy payload into channel-owned staging (combine
    /// banks, or any bank with a fault hook installed). When false, pushes
    /// are zero-copy and the producer must keep the viewed bytes immutable
    /// until the consumer pops.
    [[nodiscard]] bool inline_active() const noexcept {
        return inline_always_ || hook_ != nullptr;
    }

    /// Producer side: publishes a descriptor for `block`. False only when
    /// the channel is full (a runtime invariant violation for
    /// schedule-driven traffic, where every cycle's sends are drained the
    /// same cycle). With a fault hook installed the block is staged into
    /// inline storage and offered to the hook before publication; a dropped
    /// block still reports success — the *link* ate it, which is exactly
    /// what the producer would observe on real failing hardware.
    [[nodiscard]] bool try_push(std::uint32_t channel, std::uint32_t packet,
                                std::span<const double> block,
                                std::uint64_t checksum) noexcept {
        return push_impl(channel, packet, block, checksum,
                         /*force_stage=*/false);
    }

    /// Producer side, self-contained variant: always stages a copy (the
    /// caller keeps ownership of `block` and may reuse it immediately) and
    /// stamps the descriptor with the block's computed digest.
    [[nodiscard]] bool try_push(std::uint32_t channel, std::uint32_t packet,
                                std::span<const double> block) noexcept {
        ensure_inline_storage();
        return push_impl(channel, packet, block,
                         simd::checksum(block.data(), block.size()),
                         /*force_stage=*/true);
    }

    /// Producer side, wire-ingress variant: always stages a copy (the
    /// caller's buffer is transient — e.g. a decoded network frame) and
    /// stamps the descriptor with the *carried* checksum rather than a
    /// recomputed one, preserving the end-to-end digest a remote producer
    /// attached. Used by the net transport's I/O thread, which is the
    /// single producer for every wire-ingress channel.
    [[nodiscard]] bool push_received(std::uint32_t channel,
                                     std::uint32_t packet,
                                     std::span<const double> block,
                                     std::uint64_t checksum) noexcept {
        ensure_inline_storage();
        return push_impl(channel, packet, block, checksum,
                         /*force_stage=*/true);
    }

    /// Consumer side: fills `d` with the oldest undelivered descriptor.
    /// False if the channel is empty. The view stays valid until pop_front
    /// (and, in zero-copy mode, as long as the producer's backing block —
    /// for arena traffic, the lifetime of the plan).
    [[nodiscard]] bool front(std::uint32_t channel, Desc& d) const noexcept {
        const std::uint32_t head =
            heads_[channel].v.load(std::memory_order_relaxed);
        const std::uint32_t tail =
            tails_[channel].v.load(std::memory_order_acquire);
        if (head == tail) {
            return false;
        }
        const std::size_t slot = slot_index(channel, head);
        d.data = views_[slot];
        d.packet = packet_ids_[slot];
        d.seq = seqs_[slot];
        d.checksum = checksums_[slot];
        return true;
    }

    /// Consumer side: a view of the oldest undelivered block, or an empty
    /// span if the channel is empty.
    [[nodiscard]] std::span<const double>
    front(std::uint32_t channel, std::uint32_t& packet) const noexcept {
        std::uint32_t seq = 0;
        return front(channel, packet, seq);
    }

    /// Consumer side, sequence-checked variant: additionally reports the
    /// block's push sequence number so a dataflow consumer can assert it is
    /// draining the k-th push its dependency edge waited for.
    [[nodiscard]] std::span<const double>
    front(std::uint32_t channel, std::uint32_t& packet,
          std::uint32_t& seq) const noexcept {
        Desc d;
        if (!front(channel, d)) {
            return {};
        }
        packet = d.packet;
        seq = d.seq;
        return {d.data, block_elems_};
    }

    /// Consumer side: retires the block returned by front().
    void pop_front(std::uint32_t channel) noexcept {
        const std::uint32_t head =
            heads_[channel].v.load(std::memory_order_relaxed);
        heads_[channel].v.store(head + 1, std::memory_order_release);
    }

    /// Blocks currently in flight (either endpoint may call; approximate
    /// while threads are running, exact when quiescent).
    [[nodiscard]] std::uint32_t in_flight(std::uint32_t channel) const {
        return tails_[channel].v.load(std::memory_order_acquire) -
               heads_[channel].v.load(std::memory_order_acquire);
    }

    /// Installs (or clears, with nullptr) the fault-injection hook. Only
    /// valid while no worker thread is active; the plain pointer is read on
    /// every push, so the caller's thread creation provides the publication.
    /// Installing a hook switches the bank to copy-through pushes (the hook
    /// needs mutable staged bytes that must not alias producer memory).
    void set_fault_hook(ft::ChannelFaultHook* hook) {
        hook_ = hook;
        if (hook_ != nullptr) {
            ensure_inline_storage();
        }
    }

    /// Exact heap bytes the bank keeps allocated: counters, descriptor
    /// arrays, and (when materialized) the staged-payload backing.
    [[nodiscard]] std::uint64_t resident_bytes() const noexcept {
        return std::uint64_t{heads_.capacity() + tails_.capacity()} *
                   sizeof(PaddedCounter) +
               std::uint64_t{views_.capacity()} * sizeof(const double*) +
               std::uint64_t{packet_ids_.capacity()} * sizeof(std::uint32_t) +
               std::uint64_t{seqs_.capacity()} * sizeof(std::uint32_t) +
               std::uint64_t{checksums_.capacity()} * sizeof(std::uint64_t) +
               std::uint64_t{payload_.capacity()} * sizeof(double);
    }

    /// Rewinds every channel's counters to zero so sequence stamps restart
    /// at 0 on the next run. Only valid while no worker thread is active
    /// (the caller's thread creation/join provides the happens-before).
    void reset() noexcept {
        for (std::uint32_t c = 0; c < channels_; ++c) {
            heads_[c].v.store(0, std::memory_order_relaxed);
            tails_[c].v.store(0, std::memory_order_relaxed);
        }
    }

private:
    struct alignas(64) PaddedCounter {
        std::atomic<std::uint32_t> v{0};
    };

    [[nodiscard]] std::size_t slot_index(std::uint32_t channel,
                                         std::uint32_t pos) const noexcept {
        return std::size_t{channel} * capacity_ + (pos & (capacity_ - 1));
    }

    /// Allocates the staged-payload backing on first need. Callers run
    /// before worker threads exist (ctor, hook install, or a test's first
    /// push), so the one-time resize is not racy; once sized it is never
    /// reallocated and consumers only ever reach it through slot views.
    void ensure_inline_storage() {
        if (payload_.empty()) {
            payload_.resize(std::size_t{channels_} * capacity_ *
                            block_elems_);
        }
    }

    [[nodiscard]] bool push_impl(std::uint32_t channel, std::uint32_t packet,
                                 std::span<const double> block,
                                 std::uint64_t checksum,
                                 bool force_stage) noexcept {
        const std::uint32_t tail =
            tails_[channel].v.load(std::memory_order_relaxed);
        const std::uint32_t head =
            heads_[channel].v.load(std::memory_order_acquire);
        if (tail - head >= capacity_) {
            return false;
        }
        const std::size_t slot = slot_index(channel, tail);
        const double* view = block.data();
        if (force_stage || inline_active()) [[unlikely]] {
            double* staged = payload_.data() + slot * block_elems_;
            std::memcpy(staged, block.data(),
                        block_elems_ * sizeof(double));
            view = staged;
            if (hook_ != nullptr) {
                const ft::PushVerdict verdict =
                    hook_->on_push(channel, tail, {staged, block_elems_});
                if (verdict == ft::PushVerdict::drop) {
                    return true; // swallowed by the link; slot is reused
                }
            }
        }
        views_[slot] = view;
        packet_ids_[slot] = packet;
        seqs_[slot] = tail; // the k-th push carries sequence stamp k
        checksums_[slot] = checksum;
        tails_[channel].v.store(tail + 1, std::memory_order_release);
        return true;
    }

    std::uint32_t channels_;
    std::uint32_t capacity_; ///< per channel, power of two
    std::size_t block_elems_;
    bool inline_always_; ///< combine-mode banks always copy through
    std::vector<PaddedCounter> heads_; ///< consumer counters
    std::vector<PaddedCounter> tails_; ///< producer counters
    std::vector<const double*> views_; ///< per slot: published payload view
    std::vector<std::uint32_t> packet_ids_;
    std::vector<std::uint32_t> seqs_; ///< per slot: its push sequence stamp
    std::vector<std::uint64_t> checksums_;
    std::vector<double> payload_; ///< staged blocks; empty in zero-copy mode
    ft::ChannelFaultHook* hook_ = nullptr; ///< fault injection, usually off
};

} // namespace hcube::rt
