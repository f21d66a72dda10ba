// The one arrival/verify/deliver implementation of the runtime: the
// AsyncPlayer's serial and work-stealing walks and the net runtime's rank
// walk all push and drain blocks through these two helpers, so the
// zero-copy protocol lives here exactly once and the walks differ only in
// *when* they call it (dependency-graph readiness, or hop order).
//
// Delivery protocol (docs/PERFORMANCE.md § The per-block hot path):
//
//   zero-copy (move mode, no fault hook) — every published descriptor
//     views an immutable canonical block in the plan's arena, so a
//     delivery is pointer motion: record the view in the receiving slot's
//     entry of `views` and compare the descriptor's checksum word against
//     the packet's entry in the plan's digest table. A forward
//     re-publishes the same view. No payload byte is touched.
//
//   copy-through (combine mode, or any run with a fault hook installed) —
//     the legacy protocol, preserved bit for bit: the bank stages payload
//     into channel-owned storage on push (where the hook may corrupt it),
//     the receiver hashes the arrived bytes against the plan's digest,
//     and delivery memcpys (move) or accumulates (combine) into the
//     player's slot memory, which `views` points into. Every copied byte
//     is counted in PlayStats::bytes_copied.
#pragma once

#include "rt/async_player.hpp" // PlayStats
#include "rt/channel.hpp"
#include "rt/detect.hpp"
#include "rt/plan.hpp"
#include "rt/simd.hpp"
#include "rt/tracing.hpp"
#include "rt/transport.hpp"

#include <cstring>

namespace hcube::rt {

/// Everything about the run in flight that both halves of a hop need.
/// Built once per play(); aggregates only references and raw pointers.
/// Generic over the channel backend (rt/transport.hpp): the in-process
/// engine instantiates it with ChannelBank, the net runtime with
/// net::SocketChannelBank — same delivery protocol, different wires.
template <class Bank> // constrained at the use sites (send/deliver below)
struct RunContextT {
    const Plan& plan;
    Bank& channels;
    const double** views; ///< per slot: current block view (size total_slots)
    double* memory;       ///< copy-through slot storage; null in zero-copy
    const ft::DetectConfig& detect;
    FaultArbiter& arbiter;
    TraceRecorder* trace;
    bool detecting;
    bool copy_through;
};

/// The in-process engine's context.
using RunContext = RunContextT<ChannelBank>;

/// The hot fields of one lowered action plus its cycle, as every walk
/// builds it from the plan's SoA action arrays.
struct ActionRef {
    std::uint32_t channel;
    std::uint32_t slot;
    std::uint32_t packet;
    std::uint32_t seq;
    std::uint32_t cycle; ///< for fault reports and traces only
};

enum class DeliverOutcome {
    delivered, ///< block landed (even if its checksum was flagged)
    skipped,   ///< fault counted; caller checks arbiter.aborted() to drain
    drained,   ///< another worker's abort won; nothing counted
};

// Both helpers are force-inlined: each engine's action loop is the whole
// hot path, and a TU with two call sites (the async engine executes
// actions from both the dataflow walk and the serial walk) otherwise gets
// an out-of-line clone — a measurable per-block call penalty at small
// block sizes.
#if defined(__GNUC__)
#define HCUBE_DELIVERY_INLINE inline __attribute__((always_inline))
#else
#define HCUBE_DELIVERY_INLINE inline
#endif

/// Send side: publish the slot's current view. In copy-through the bank
/// stages the payload (and offers it to the fault hook); in zero-copy the
/// descriptor borrows the view directly — for move-mode traffic that view
/// is an immutable arena block, so it outlives any in-flight window.
template <Transport Bank>
HCUBE_DELIVERY_INLINE void send_block(const RunContextT<Bank>& ctx,
                                      const ActionRef& a,
                                      std::uint32_t worker,
                                      PlayStats& stats) {
    const std::size_t blk = ctx.plan.block_elems;
    const double* const view = ctx.views[a.slot];
    // Combine-mode descriptors carry no digest (the payload is a mutable
    // partial sum with no precomputable expectation); receivers there
    // verify by exact-sum comparison after the run instead.
    const std::uint64_t checksum = ctx.plan.mode == DataMode::move
                                       ? ctx.plan.packet_digest[a.packet]
                                       : 0;
    const TraceRecorder::clock::time_point t0 =
        ctx.trace != nullptr ? TraceRecorder::clock::now()
                             : TraceRecorder::clock::time_point{};
    if (!ctx.channels.try_push(a.channel, a.packet, {view, blk}, checksum))
        [[unlikely]] {
        ++stats.channel_faults;
        if (ctx.detecting) {
            ctx.arbiter.raise(
                make_fault_report(ctx.plan, ft::DetectClass::stream_mismatch,
                                  a.channel, a.cycle, a.packet),
                ctx.detect.abort_on_fault);
        }
    } else {
        ++stats.blocks_sent;
        if (ctx.copy_through) {
            stats.bytes_copied += blk * sizeof(double);
        }
    }
    if (ctx.trace != nullptr) {
        ctx.trace->record(worker, TraceKind::send, t0,
                          TraceRecorder::clock::now(), a.channel, a.packet,
                          a.cycle);
    }
}

/// Receive side: drain the channel head, verify it is the promised block,
/// and deliver it (view adoption, or copy/accumulate under copy-through).
/// On a bank that publishes before the pop runs (publishes_before_pop) an
/// empty head is final, so it is checked once; on any other bank a
/// detecting run waits up to the arrival bound (await_front). The head
/// must be exactly the k-th push of its channel: the packet and the
/// sequence stamp both match the action's.
template <Transport Bank>
HCUBE_DELIVERY_INLINE DeliverOutcome
deliver_block(const RunContextT<Bank>& ctx, const ActionRef& a,
              std::uint32_t worker, PlayStats& stats) {
    const std::size_t blk = ctx.plan.block_elems;
    const TraceRecorder::clock::time_point t0 =
        ctx.trace != nullptr ? TraceRecorder::clock::now()
                             : TraceRecorder::clock::time_point{};
    ChannelBank::Desc d;
    bool present = false;
    if constexpr (publishes_before_pop<Bank>) {
        present = ctx.channels.front(a.channel, d);
    } else {
        present = ctx.detecting ? await_front(ctx.channels, a.channel, d,
                                              ctx.detect.arrival_timeout_us,
                                              ctx.arbiter)
                                : ctx.channels.front(a.channel, d);
    }
    if (!present) [[unlikely]] {
        if (ctx.detecting && ctx.arbiter.aborted()) {
            return DeliverOutcome::drained;
        }
        ++stats.channel_faults;
        if (ctx.detecting) {
            ++stats.timeouts;
            ctx.arbiter.raise(
                make_fault_report(ctx.plan, ft::DetectClass::arrival_timeout,
                                  a.channel, a.cycle, a.packet),
                ctx.detect.abort_on_fault);
        }
        return DeliverOutcome::skipped;
    }
    if (d.packet != a.packet || d.seq != a.seq) [[unlikely]] {
        ++stats.channel_faults;
        if (ctx.detecting) {
            ctx.arbiter.raise(
                make_fault_report(ctx.plan, ft::DetectClass::stream_mismatch,
                                  a.channel, a.cycle, a.packet),
                ctx.detect.abort_on_fault);
        }
        return DeliverOutcome::skipped;
    }
    if (ctx.plan.mode == DataMode::move) {
        // Copy-through hashes the arrived bytes (the hook may have
        // corrupted the staged copy); zero-copy compares the descriptor's
        // digest word — O(1), no payload touched.
        const std::uint64_t digest =
            ctx.copy_through ? simd::checksum(d.data, blk) : d.checksum;
        if (digest != ctx.plan.packet_digest[a.packet]) [[unlikely]] {
            ++stats.checksum_failures;
            if (ctx.detecting) {
                ctx.arbiter.raise(
                    make_fault_report(ctx.plan,
                                      ft::DetectClass::checksum_mismatch,
                                      a.channel, a.cycle, a.packet),
                    ctx.detect.abort_on_fault);
            }
        }
        // Delivery proceeds even when flagged (mirrors real hardware: the
        // corrupt block lands, the fault layer decides what to do).
        if (ctx.copy_through) {
            std::memcpy(ctx.memory + std::size_t{a.slot} * blk, d.data,
                        blk * sizeof(double));
            stats.bytes_copied += blk * sizeof(double);
        } else {
            ctx.views[a.slot] = d.data;
        }
    } else {
        simd::accumulate(ctx.memory + std::size_t{a.slot} * blk, d.data,
                         blk);
    }
    ctx.channels.pop_front(a.channel);
    ++stats.blocks_delivered;
    if (ctx.trace != nullptr) {
        ctx.trace->record(worker, TraceKind::recv, t0,
                          TraceRecorder::clock::now(), a.channel, a.packet,
                          a.cycle);
    }
    return DeliverOutcome::delivered;
}

#undef HCUBE_DELIVERY_INLINE

} // namespace hcube::rt
