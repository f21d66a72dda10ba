// The transport interface of the threaded runtime, extracted from
// rt/channel.hpp.
//
// Everything the execution engines (and the shared delivery path in
// rt/delivery.hpp) demand of a channel backend is this compile-time
// interface: publish a block descriptor on a directed link (send side),
// observe and retire the oldest undelivered descriptor (arrival wait and
// drain on the receive side), and rewind between runs. Two backends
// implement it:
//
//   rt::ChannelBank        — the in-process SPSC descriptor rings (nodes
//                            are threads; the original backend, and the
//                            differential oracle for every other one);
//   net::SocketChannelBank — the multi-process backend (hcube::net): local
//                            links stay in-process rings, links whose
//                            endpoints live in different processes cross a
//                            Unix-domain or TCP socket through a
//                            reliability sublayer (src/net/).
//
// The interface is a C++20 concept rather than a virtual base on purpose:
// the per-block hot path (docs/PERFORMANCE.md) is a pointer publish plus a
// digest-word compare, and a virtual dispatch per hop would be measurable.
// Each engine's translation unit instantiates the delivery helpers against
// the one concrete bank it drives, so both backends get fully inlined
// channel operations.
#pragma once

#include "ft/fault_model.hpp"
#include "rt/channel.hpp"

#include <concepts>
#include <cstdint>
#include <span>

namespace hcube::rt {

/// The transport medium enum lives in ft (fault_model.hpp) so detection
/// policy can scale with it without ft depending on rt; alias it into rt,
/// where the runtime-facing surface (PlayStats, ExecStats, bench JSON) uses it.
using ft::TransportClass;

/// What an execution engine requires of a channel backend. `Desc` is the
/// descriptor every backend hands to consumers (rt::ChannelBank::Desc).
template <class B>
concept Transport = requires(B& bank, const B& cbank, std::uint32_t channel,
                             std::uint32_t packet,
                             std::span<const double> block,
                             std::uint64_t checksum, ChannelBank::Desc& d) {
    // Send side: publish `block`'s descriptor on `channel`; false only on
    // a full ring (or a dead remote link).
    { bank.try_push(channel, packet, block, checksum) } -> std::same_as<bool>;
    // Receive side: observe the oldest undelivered descriptor (the arrival
    // wait in rt/detect.hpp polls this), then retire it.
    { cbank.front(channel, d) } -> std::same_as<bool>;
    { bank.pop_front(channel) };
    // Rewind counters between runs (valid only while quiescent).
    { bank.reset() };
    // Geometry the engines size their loops against.
    { cbank.channel_count() } -> std::convertible_to<std::uint32_t>;
    { cbank.block_elems() } -> std::convertible_to<std::size_t>;
    // True when pushes copy payload through backend-owned staging (the
    // engines pick the copy-through delivery protocol accordingly).
    { cbank.inline_active() } -> std::same_as<bool>;
};

static_assert(Transport<ChannelBank>,
              "the in-process ring bank must satisfy the transport concept");

/// True when a push on backend `B` is published on the pushing thread, so
/// the AsyncPlayer's ordering (program order on its serial walk, the
/// push → pop dependency edge when it steals) makes it visible before the
/// matching pop runs. An empty channel at pop time then means the block
/// is never coming, and the receive side checks the head once instead of
/// waiting (rt/delivery.hpp). The default is false: a backend whose
/// arrivals are published asynchronously — net::SocketChannelBank's I/O
/// thread, after a wire crossing — keeps the bounded arrival wait.
template <class B>
inline constexpr bool publishes_before_pop = false;

template <>
inline constexpr bool publishes_before_pop<ChannelBank> = true;

} // namespace hcube::rt
