// Canonical payload generation and block checksums for the threaded runtime.
//
// Every abstract packet id maps to one deterministic block of doubles, so a
// receiver can verify a delivered block against the id alone — no reference
// copy travels with the data. Element values are small exact integers:
// elementwise sums over as many as 2^26 contributions stay exactly
// representable in a double, which lets the combining (reduce) path be
// checked for bit-exact equality rather than within a tolerance.
//
// A block is keyed by its packet (canonical) or by its node and packet
// (a reduction's contribution), and one splitmix64 output supplies eight
// consecutive elements: element `e` is byte `e mod 8`, least significant
// first, of mix64(key ^ (e / 8)). canonical_element and
// contribution_element state that definition one element at a time (the
// tests compare against them); the fills produce whole rows through the
// out-of-line kernel simd::fill_bytes, which generates a block in about
// half the time the digest below takes to hash it (docs/PERFORMANCE.md
// § The runtime's per-block hot path).
//
// The digest itself is the lane-parallel scalar xxHash64 in rt/simd.hpp,
// hashing the doubles' bit patterns. All payloads the runtime
// generates are small non-negative integers, so every value has exactly one
// representation and bit-pattern hashing is as canonical as value hashing.
#pragma once

#include "rt/simd.hpp"

#include <cstdint>
#include <span>

namespace hcube::rt {

namespace detail {

/// splitmix64 finalizer: cheap, well-mixed, and stateless.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Element `elem` of the block keyed `key`: byte `elem mod 8` of
/// mix64(key ^ (elem / 8)), as a double.
[[nodiscard]] constexpr double payload_element(std::uint64_t key,
                                               std::size_t elem) noexcept {
    const std::uint64_t h = mix64(key ^ (elem / 8));
    return static_cast<double>((h >> (8 * (elem % 8))) & 0xffu);
}

[[nodiscard]] constexpr std::uint64_t
canonical_key(std::uint32_t packet) noexcept {
    return std::uint64_t{packet} << 32;
}

[[nodiscard]] constexpr std::uint64_t
contribution_key(std::uint32_t node, std::uint32_t packet) noexcept {
    return (std::uint64_t{node} << 40) ^ (std::uint64_t{packet} << 20);
}

} // namespace detail

/// Element `elem` of the canonical block for packet `packet`: an integer in
/// [0, 256).
[[nodiscard]] constexpr double canonical_element(std::uint32_t packet,
                                                 std::size_t elem) noexcept {
    return detail::payload_element(detail::canonical_key(packet), elem);
}

/// Element `elem` of node `node`'s *contribution* to packet `packet` in a
/// combining reduction: an integer in [0, 256).
[[nodiscard]] constexpr double
contribution_element(std::uint32_t node, std::uint32_t packet,
                     std::size_t elem) noexcept {
    return detail::payload_element(detail::contribution_key(node, packet),
                                   elem);
}

inline void fill_canonical(std::span<double> block,
                           std::uint32_t packet) noexcept {
    simd::fill_bytes(block.data(), block.size(),
                     detail::canonical_key(packet));
}

inline void fill_contribution(std::span<double> block, std::uint32_t node,
                              std::uint32_t packet) noexcept {
    simd::fill_bytes(block.data(), block.size(),
                     detail::contribution_key(node, packet));
}

/// 64-bit digest of a block's contents (simd::checksum).
[[nodiscard]] inline std::uint64_t
block_checksum(std::span<const double> block) noexcept {
    return simd::checksum(block.data(), block.size());
}

/// Checksum the canonical block for `packet` would have, derived from the
/// packet id alone: materializes the block into thread-local scratch so
/// the digest comes from the exact same kernel as block_checksum — one
/// algorithm definition, no drift. This is the verification rule's
/// independent derivation (rt/expected.hpp); a compiled plan hashes its
/// arena into Plan::packet_digest instead, and a replayed plan derives
/// nothing. Every call counts one in the obs counter rt.canonical_digests.
[[nodiscard]] std::uint64_t canonical_checksum(std::uint32_t packet,
                                               std::size_t block_elems);

} // namespace hcube::rt
