#include "net/socket_bank.hpp"

#include "common/check.hpp"
#include "rt/simd.hpp"

#include <algorithm>

namespace hcube::net {

SocketChannelBank::SocketChannelBank(const rt::Plan& plan,
                                     std::uint32_t rank, PeerBus& bus)
    : bus_(bus),
      inner_(plan.channel_count, kRingDepth, plan.block_elems,
             /*inline_payload=*/true),
      route_(plan.channel_count,
             static_cast<std::uint8_t>(Route::foreign)),
      dest_(plan.channel_count, 0), send_seq_(plan.channel_count, 0) {
    HCUBE_ENSURE_MSG(rank < plan.workers,
                     "rank outside the plan's worker range");
    for (std::uint32_t c = 0; c < plan.channel_count; ++c) {
        const std::uint32_t from = plan.owner_of(plan.channel_from(c));
        const std::uint32_t to = plan.owner_of(plan.channel_to(c));
        dest_[c] = to;
        Route r = Route::foreign;
        if (from == rank && to == rank) {
            r = Route::local;
        } else if (from == rank) {
            r = Route::egress;
        } else if (to == rank) {
            r = Route::ingress;
        }
        route_[c] = static_cast<std::uint8_t>(r);
    }
}

bool SocketChannelBank::try_push(std::uint32_t channel, std::uint32_t packet,
                                 std::span<const double> block,
                                 std::uint64_t checksum) noexcept {
    switch (route(channel)) {
    case Route::local:
        return inner_.try_push(channel, packet, block, checksum);
    case Route::egress: {
        // The frame digest is always the digest of the bytes being sent:
        // move-mode pushes pass the canonical expectation (identical for a
        // healthy block), but combine-mode partial sums pass 0 — the wire
        // check needs the real one.
        const std::uint64_t digest =
            rt::simd::checksum(block.data(), block.size());
        return bus_.send_data(dest_[channel], channel, send_seq_[channel]++,
                              packet, digest, block);
    }
    case Route::ingress:
    case Route::foreign:
        // A compute-side push on a channel this rank does not produce is a
        // plan/ownership bug; surface it as a channel fault.
        return false;
    }
    return false;
}

void SocketChannelBank::reset() noexcept {
    inner_.reset();
    std::ranges::fill(send_seq_, 0u);
}

} // namespace hcube::net
