#include "net/net_player.hpp"

#include "common/check.hpp"
#include "rt/delivery.hpp"

#include <chrono>

namespace hcube::net {

NetPlayer::NetPlayer(const rt::Plan& plan, std::uint32_t rank,
                     SocketChannelBank& bank, ft::DetectConfig detect,
                     ft::TransportClass transport)
    : plan_(plan), rank_(rank), bank_(bank), detect_(detect),
      transport_(transport),
      views_(static_cast<std::size_t>(plan.total_slots), nullptr),
      memory_(static_cast<std::size_t>(plan.total_slots) * plan.block_elems,
              0.0) {
    HCUBE_ENSURE_MSG(rank < plan.workers,
                     "rank outside the plan's worker range");
    // Detection is never off over a wire: an absent peer must become a
    // bounded, reported arrival timeout, not a hang.
    if (!detect_.enabled()) {
        detect_ = ft::DetectConfig::for_transport(transport);
    }
    // Copy-through always: seed every slot and point the views at the
    // local memory image, exactly like the AsyncPlayer's copy-through
    // prepare_views() — the precondition for byte-identical finals.
    seed_plan_memory(plan_, memory_);
    for (std::uint64_t s = 0; s < plan_.total_slots; ++s) {
        views_[static_cast<std::size_t>(s)] =
            memory_.data() + static_cast<std::size_t>(s) * plan_.block_elems;
    }
}

NetPlayStats NetPlayer::play() {
    arbiter_.reset();
    rt::PlayStats stats;
    const rt::RunContextT<SocketChannelBank> ctx{
        plan_,    bank_,    views_.data(),
        memory_.data(),     detect_,
        arbiter_, nullptr,  /*detecting=*/true,
        /*copy_through=*/true};

    const auto start = std::chrono::steady_clock::now();
    for (std::uint32_t cycle = 0; cycle < plan_.cycles; ++cycle) {
        if (arbiter_.aborted()) {
            break;
        }
        // The cycle's hops in lowered order, each half run by the rank
        // that owns its node: this cycle's sends, then its receives.
        const std::uint32_t lo = plan_.flat_cycle_begin[cycle];
        const std::uint32_t hi = plan_.flat_cycle_begin[cycle + 1];
        for (std::uint32_t i = lo; i < hi; ++i) {
            const rt::ActionFields a = plan_.lowered_send(i);
            if (!owns(plan_.slot_node[a.slot])) {
                continue;
            }
            rt::send_block(ctx, {a.channel, a.slot, a.packet, a.seq, cycle},
                           rank_, stats);
        }
        for (std::uint32_t i = lo; i < hi; ++i) {
            const rt::ActionFields a = plan_.lowered_recv(i);
            if (!owns(plan_.slot_node[a.slot])) {
                continue;
            }
            // In-order reliable delivery restores the exact push order,
            // so each head carries the plan's sequence stamp.
            const rt::DeliverOutcome out = rt::deliver_block(
                ctx, {a.channel, a.slot, a.packet, a.seq, cycle}, rank_,
                stats);
            if (out == rt::DeliverOutcome::drained ||
                (out == rt::DeliverOutcome::skipped &&
                 arbiter_.aborted())) {
                break;
            }
        }
    }
    const auto stop = std::chrono::steady_clock::now();

    stats.cycles = plan_.cycles;
    stats.mode = rt::ExecMode::serial; // one walk in hop order, no steals
    stats.transport = transport_;
    stats.seconds = std::chrono::duration<double>(stop - start).count();
    stats.payload_bytes =
        stats.blocks_delivered * plan_.block_elems * sizeof(double);
    return {stats, arbiter_.report()};
}

std::span<const double> NetPlayer::block(node_t node,
                                         packet_t packet) const {
    const std::uint64_t slot = plan_.slot_of(node, packet);
    if (slot == rt::Plan::kNoSlot) {
        return {};
    }
    const double* view = views_[static_cast<std::size_t>(slot)];
    if (view == nullptr) {
        return {};
    }
    return {view, plan_.block_elems};
}

} // namespace hcube::net
