// Per-block byte kernels of the threaded runtime: a lane-parallel 64-bit
// block checksum (xxHash64 with seed 0, four independent accumulator lanes
// over the doubles' bit patterns) and the elementwise accumulation of
// combine-mode delivery.
//
// The checksum is scalar everywhere: the four independent lanes already
// keep the hardware 64-bit multiplier busy, and an AVX2 transliteration
// (which must emulate the 64x64 multiply from 32-bit partial products)
// never beat it at any block size from 8 to 8192 doubles
// (docs/PERFORMANCE.md § The runtime's per-block hot path). The
// accumulate is the one vector kernel: on x86-64 it dispatches once, at
// first use, to an AVX2 loop when the CPU has AVX2 (pure adds — a clear
// win), unless the build sets HCUBE_CHECKSUM_SCALAR, which compiles it
// out.
//
// Elementwise double addition is performed in the same element order on
// both paths (no reassociation), so combine-mode reductions stay bit-exact
// across engines regardless of which path ran.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hcube::rt::simd {

/// 64-bit digest of `n` doubles (their bit patterns): xxHash64, seed 0.
[[nodiscard]] std::uint64_t checksum(const double* data,
                                     std::size_t n) noexcept;

/// Portable reference path of accumulate(); identical element order.
void accumulate_scalar(double* dst, const double* src, std::size_t n) noexcept;

/// Dispatched elementwise dst[i] += src[i] over `n` doubles. `dst` and
/// `src` must not overlap.
void accumulate(double* dst, const double* src, std::size_t n) noexcept;

/// Active accumulate() kernel: "avx2" or "scalar".
[[nodiscard]] const char* dispatch_name() noexcept;

} // namespace hcube::rt::simd
