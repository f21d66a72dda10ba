// Runtime-dispatched SIMD kernels for the per-block byte work of the
// threaded runtime: a lane-parallel 64-bit block checksum (xxHash64-style,
// four independent accumulator lanes over the doubles' bit patterns) and
// the elementwise accumulation of combine-mode delivery.
//
// Dispatch happens once, at first use. The vector accumulate engages
// whenever the CPU has AVX2 (pure adds — a clear win); the vector *hash*
// must additionally beat the scalar hash in a one-shot micro-probe, since
// AVX2 lacks a 64x64 multiply and the emulated one can lose to the
// hardware scalar multiplier on xxHash64's serial per-lane chain. Both
// paths implement the same integer algorithm, so they produce bit-identical
// digests — the property the forced-scalar CI leg (HCUBE_CHECKSUM_SCALAR)
// and the checksum unit tests pin down. HCUBE_CHECKSUM=scalar|avx2 forces
// either hash path at runtime for A/B measurement.
//
// Elementwise double addition is performed in the same element order on
// both paths (no reassociation), so combine-mode reductions stay bit-exact
// across engines regardless of which path ran.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hcube::rt::simd {

/// Portable reference path: the algorithm's definition. Exposed so tests
/// can pin the dispatched path against it bit for bit.
[[nodiscard]] std::uint64_t checksum_scalar(const double* data,
                                            std::size_t n) noexcept;

/// Dispatched 64-bit digest of `n` doubles (their bit patterns).
[[nodiscard]] std::uint64_t checksum(const double* data,
                                     std::size_t n) noexcept;

/// Portable reference path of accumulate(); identical element order.
void accumulate_scalar(double* dst, const double* src, std::size_t n) noexcept;

/// Dispatched elementwise dst[i] += src[i] over `n` doubles. `dst` and
/// `src` must not overlap.
void accumulate(double* dst, const double* src, std::size_t n) noexcept;

/// Active dispatch target: "avx2" (vector hash + vector reduce),
/// "avx2-reduce" (scalar hash won the probe, vector reduce), or "scalar".
[[nodiscard]] const char* dispatch_name() noexcept;

} // namespace hcube::rt::simd
