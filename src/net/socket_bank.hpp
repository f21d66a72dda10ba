// net::SocketChannelBank — the socket-backed implementation of the
// rt::Transport concept (rt/transport.hpp).
//
// One instance lives in each rank process. It wraps an in-process
// rt::ChannelBank (inline staging always on — inbound payloads arrive in
// transient wire buffers, so delivery must run the copy-through protocol)
// and routes each channel by the plan's link endpoints:
//
//   local   — both endpoints owned by this rank: a plain ring push, the
//             unchanged in-process fast path.
//   egress  — produced here, consumed remotely: the push re-digests the
//             block (combine-mode descriptors carry no expectation, and
//             the wire check needs the digest of what was actually sent)
//             and hands it to the PeerBus with the channel's next wire
//             sequence number.
//   ingress — produced remotely: the io thread publishes verified
//             in-order blocks through push_received(); the engine's pops
//             see exactly the ring it would see in-process.
//   foreign — neither endpoint here; never pushed or popped by this rank.
//
// Every inner ring is kRingDepth slots deep whatever the plan. A local
// channel holds at most one block (the rank's walk in hop order pops each
// push in the cycle that made it), and an ingress burst that finds its ring
// full waits in the PeerBus overflow queue (push_received reports the full
// ring and the bus retries) — wire pressure is queued, not lost. Inline
// storage is allocated eagerly (channels x depth x block doubles), so the
// depth stays small (docs/NETWORK.md § Ring depth).
#pragma once

#include "net/peer.hpp"
#include "rt/channel.hpp"
#include "rt/plan.hpp"
#include "rt/transport.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace hcube::net {

class SocketChannelBank {
public:
    using Desc = rt::ChannelBank::Desc;

    /// `owner_of_node(node) == rank` decides locality; the plan's workers
    /// field must equal `procs` so plan.owner_of is that mapping.
    SocketChannelBank(const rt::Plan& plan, std::uint32_t rank,
                      PeerBus& bus);

    // ---- rt::Transport surface (engine side) -------------------------
    [[nodiscard]] bool try_push(std::uint32_t channel, std::uint32_t packet,
                                std::span<const double> block,
                                std::uint64_t checksum) noexcept;
    [[nodiscard]] bool front(std::uint32_t channel, Desc& d) const noexcept {
        return inner_.front(channel, d);
    }
    void pop_front(std::uint32_t channel) noexcept {
        inner_.pop_front(channel);
    }
    void reset() noexcept;
    [[nodiscard]] std::uint32_t channel_count() const noexcept {
        return inner_.channel_count();
    }
    [[nodiscard]] std::size_t block_elems() const noexcept {
        return inner_.block_elems();
    }
    /// Always true: inbound wire payloads live in transient buffers, so
    /// the engine must run the copy-through delivery protocol.
    [[nodiscard]] bool inline_active() const noexcept { return true; }

    // ---- wire side (io thread) ---------------------------------------
    /// Publishes a verified in-order wire block into the inner ring;
    /// false when the ring is momentarily full (the bus retries).
    [[nodiscard]] bool push_received(std::uint32_t channel,
                                     std::uint32_t packet,
                                     std::span<const double> block,
                                     std::uint64_t checksum) noexcept {
        return inner_.push_received(channel, packet, block, checksum);
    }

    enum class Route : std::uint8_t { local, egress, ingress, foreign };
    [[nodiscard]] Route route(std::uint32_t channel) const noexcept {
        return static_cast<Route>(route_[channel]);
    }
    [[nodiscard]] std::uint32_t dest_rank(std::uint32_t channel) const noexcept {
        return dest_[channel];
    }
    /// Ring slots per channel, whatever the plan.
    static constexpr std::uint32_t kRingDepth = 2;

private:
    PeerBus& bus_;
    rt::ChannelBank inner_;
    std::vector<std::uint8_t> route_;  ///< Route per channel
    std::vector<std::uint32_t> dest_;  ///< consumer rank per egress channel
    std::vector<std::uint32_t> send_seq_; ///< next wire seq per channel
};

static_assert(rt::Transport<SocketChannelBank>,
              "SocketChannelBank must satisfy the transport concept");

} // namespace hcube::net
