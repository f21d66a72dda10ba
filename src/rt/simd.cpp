#include "rt/simd.hpp"

#include "rt/checksum.hpp"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace hcube::rt::simd {
namespace {

// xxHash64 over the block's bytes with seed 0, specialized to inputs that
// are whole 64-bit words (a block of doubles always is). The four
// accumulator lanes per 32-byte stripe are independent, so the hardware
// multiplier pipelines them.
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

constexpr std::uint64_t rotl64(std::uint64_t x, int r) noexcept {
    return (x << r) | (x >> (64 - r));
}

constexpr std::uint64_t round64(std::uint64_t acc,
                                std::uint64_t lane) noexcept {
    return rotl64(acc + lane * kP2, 31) * kP1;
}

std::uint64_t lane_word(const double* data, std::size_t i) noexcept {
    std::uint64_t bits;
    std::memcpy(&bits, data + i, sizeof(bits));
    return bits;
}

/// Merge + tail + avalanche: everything after the stripe loop.
std::uint64_t finish(std::uint64_t h, const double* data, std::size_t i,
                     std::size_t n) noexcept {
    h += static_cast<std::uint64_t>(n) * sizeof(double);
    for (; i < n; ++i) {
        h ^= round64(0, lane_word(data, i));
        h = rotl64(h, 27) * kP1 + kP4;
    }
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
}

std::uint64_t merge_accumulators(const std::uint64_t acc[4]) noexcept {
    std::uint64_t h = rotl64(acc[0], 1) + rotl64(acc[1], 7) +
                      rotl64(acc[2], 12) + rotl64(acc[3], 18);
    for (int k = 0; k < 4; ++k) {
        h = (h ^ round64(0, acc[k])) * kP1 + kP4;
    }
    return h;
}

/// Writes the low `count` bytes of `h`, least significant first, as
/// doubles.
void widen_bytes_portable(double* dst, std::uint64_t h,
                          std::size_t count) noexcept {
    for (std::size_t j = 0; j < count; ++j, h >>= 8) {
        dst[j] = static_cast<double>(h & 0xffu);
    }
}

#if defined(__x86_64__) && !defined(HCUBE_FORCE_SCALAR_CHECKSUM)
#define HCUBE_HAVE_X86_KERNELS 1

/// widen_bytes_portable for all eight bytes: zero-extend them to 32-bit
/// lanes with two unpacks, then convert two lanes per store. SSE2 only,
/// which every x86-64 CPU has.
void widen_bytes_sse2(double* dst, std::uint64_t h) noexcept {
    const __m128i zero = _mm_setzero_si128();
    const __m128i words = _mm_unpacklo_epi8(
        _mm_cvtsi64_si128(static_cast<long long>(h)), zero);
    const __m128i lo = _mm_unpacklo_epi16(words, zero);
    const __m128i hi = _mm_unpackhi_epi16(words, zero);
    _mm_storeu_pd(dst, _mm_cvtepi32_pd(lo));
    _mm_storeu_pd(dst + 2, _mm_cvtepi32_pd(_mm_unpackhi_epi64(lo, lo)));
    _mm_storeu_pd(dst + 4, _mm_cvtepi32_pd(hi));
    _mm_storeu_pd(dst + 6, _mm_cvtepi32_pd(_mm_unpackhi_epi64(hi, hi)));
}

__attribute__((target("avx2"))) void
accumulate_avx2(double* dst, const double* src, std::size_t n) noexcept {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256d a0 = _mm256_loadu_pd(dst + i);
        const __m256d a1 = _mm256_loadu_pd(dst + i + 4);
        const __m256d b0 = _mm256_loadu_pd(src + i);
        const __m256d b1 = _mm256_loadu_pd(src + i + 4);
        _mm256_storeu_pd(dst + i, _mm256_add_pd(a0, b0));
        _mm256_storeu_pd(dst + i + 4, _mm256_add_pd(a1, b1));
    }
    for (; i < n; ++i) {
        dst[i] += src[i];
    }
}
#endif // x86_64 && !HCUBE_FORCE_SCALAR_CHECKSUM

struct Dispatch {
    void (*accumulate)(double*, const double*, std::size_t) noexcept;
    const char* name;
};

const Dispatch& dispatch() noexcept {
    static const Dispatch d = [] {
#if defined(HCUBE_HAVE_X86_KERNELS)
        if (__builtin_cpu_supports("avx2")) {
            return Dispatch{&accumulate_avx2, "avx2"};
        }
#endif
        return Dispatch{&accumulate_scalar, "scalar"};
    }();
    return d;
}

} // namespace

std::uint64_t checksum(const double* data, std::size_t n) noexcept {
    std::size_t i = 0;
    std::uint64_t h;
    if (n >= 4) {
        std::uint64_t acc[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
        for (; i + 4 <= n; i += 4) {
            acc[0] = round64(acc[0], lane_word(data, i));
            acc[1] = round64(acc[1], lane_word(data, i + 1));
            acc[2] = round64(acc[2], lane_word(data, i + 2));
            acc[3] = round64(acc[3], lane_word(data, i + 3));
        }
        h = merge_accumulators(acc);
    } else {
        h = kP5;
    }
    return finish(h, data, i, n);
}

void fill_bytes(double* dst, std::size_t n, std::uint64_t key) noexcept {
    const std::size_t rows = n / 8;
    for (std::size_t g = 0; g < rows; ++g) {
        const std::uint64_t h = rt::detail::mix64(key ^ g);
#if defined(HCUBE_HAVE_X86_KERNELS)
        widen_bytes_sse2(dst + 8 * g, h);
#else
        widen_bytes_portable(dst + 8 * g, h, 8);
#endif
    }
    if (n % 8 != 0) {
        widen_bytes_portable(dst + 8 * rows, rt::detail::mix64(key ^ rows),
                             n % 8);
    }
}

void accumulate_scalar(double* dst, const double* src,
                       std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] += src[i];
    }
}

void accumulate(double* dst, const double* src, std::size_t n) noexcept {
    dispatch().accumulate(dst, src, n);
}

const char* dispatch_name() noexcept { return dispatch().name; }

} // namespace hcube::rt::simd
