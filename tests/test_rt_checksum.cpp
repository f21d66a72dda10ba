// Pins the runtime's block checksum to an independent xxHash64 reference
// implementation, bit for bit — over randomized sizes including the
// sub-stripe (< 4 words) and non-lane-multiple tails — and the dispatched
// reduce (AVX2 where present) to the portable scalar reduce.
//
// The reference below is a straight transliteration of the xxHash64
// specification (seed 0) over raw bytes, written independently from
// src/rt/simd.cpp: it keeps the byte-oriented 8/4/1-byte tail handling the
// kernel specializes away, so agreement is evidence the kernel implements
// the algorithm rather than merely agreeing with itself.
//
// Suites are named Rt* so the sanitizer CI jobs (ctest -R '^(Rt|Ft|Svc)')
// include them.
#include "rt/simd.hpp"

#include "rt/checksum.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

namespace hcube::rt {
namespace {

// --------------------------------------------------------------------------
// Independent xxHash64 reference (seed 0), byte-oriented, per the spec.
// Little-endian reads match the kernel's memcpy of whole words on every
// platform this repo targets.
// --------------------------------------------------------------------------

constexpr std::uint64_t kRefP1 = 11400714785074694791ULL;
constexpr std::uint64_t kRefP2 = 14029467366897019727ULL;
constexpr std::uint64_t kRefP3 = 1609587929392839161ULL;
constexpr std::uint64_t kRefP4 = 9650029242287828579ULL;
constexpr std::uint64_t kRefP5 = 2870177450012600261ULL;

std::uint64_t ref_rotl(std::uint64_t x, unsigned r) {
    return (x << r) | (x >> (64u - r));
}

std::uint64_t ref_read64(const unsigned char* p) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

std::uint32_t ref_read32(const unsigned char* p) {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

std::uint64_t ref_round(std::uint64_t acc, std::uint64_t input) {
    acc += input * kRefP2;
    acc = ref_rotl(acc, 31);
    acc *= kRefP1;
    return acc;
}

std::uint64_t ref_merge_round(std::uint64_t acc, std::uint64_t val) {
    acc ^= ref_round(0, val);
    acc = acc * kRefP1 + kRefP4;
    return acc;
}

std::uint64_t xxh64_reference(const void* input, std::size_t len,
                              std::uint64_t seed) {
    const auto* p = static_cast<const unsigned char*>(input);
    const unsigned char* const end = p + len;
    std::uint64_t h;
    if (len >= 32) {
        std::uint64_t v1 = seed + kRefP1 + kRefP2;
        std::uint64_t v2 = seed + kRefP2;
        std::uint64_t v3 = seed;
        std::uint64_t v4 = seed - kRefP1;
        do {
            v1 = ref_round(v1, ref_read64(p));
            v2 = ref_round(v2, ref_read64(p + 8));
            v3 = ref_round(v3, ref_read64(p + 16));
            v4 = ref_round(v4, ref_read64(p + 24));
            p += 32;
        } while (p + 32 <= end);
        h = ref_rotl(v1, 1) + ref_rotl(v2, 7) + ref_rotl(v3, 12) +
            ref_rotl(v4, 18);
        h = ref_merge_round(h, v1);
        h = ref_merge_round(h, v2);
        h = ref_merge_round(h, v3);
        h = ref_merge_round(h, v4);
    } else {
        h = seed + kRefP5;
    }
    h += static_cast<std::uint64_t>(len);
    while (p + 8 <= end) {
        h ^= ref_round(0, ref_read64(p));
        h = ref_rotl(h, 27) * kRefP1 + kRefP4;
        p += 8;
    }
    if (p + 4 <= end) {
        h ^= static_cast<std::uint64_t>(ref_read32(p)) * kRefP1;
        h = ref_rotl(h, 23) * kRefP2 + kRefP3;
        p += 4;
    }
    while (p < end) {
        h ^= static_cast<std::uint64_t>(*p) * kRefP5;
        h = ref_rotl(h, 11) * kRefP1;
        ++p;
    }
    h ^= h >> 33;
    h *= kRefP2;
    h ^= h >> 29;
    h *= kRefP3;
    h ^= h >> 32;
    return h;
}

/// Random doubles whose *bit patterns* cover the full 64-bit space (NaNs
/// and denormals included — the checksum hashes bits, not values).
std::vector<double> random_block(std::mt19937_64& rng, std::size_t n) {
    std::vector<double> block(n);
    for (double& d : block) {
        const std::uint64_t bits = rng();
        std::memcpy(&d, &bits, sizeof(d));
    }
    return block;
}

TEST(RtChecksum, EmptyInputIsTheKnownXxh64Vector) {
    // xxh64("", seed 0) — the published test vector.
    EXPECT_EQ(simd::checksum(nullptr, 0), 0xEF46DB3751D8E999ULL);
}

TEST(RtChecksum, ScalarMatchesIndependentReference) {
    std::mt19937_64 rng(0x9E3779B97F4A7C15ULL);
    // Every size 0..67 hits all stripe/tail phases; the larger sizes add
    // multi-stripe coverage including non-multiple-of-4 tails.
    for (std::size_t n = 0; n <= 67; ++n) {
        const std::vector<double> block = random_block(rng, n);
        EXPECT_EQ(simd::checksum(block.data(), n),
                  xxh64_reference(block.data(), n * sizeof(double), 0))
            << "n=" << n;
    }
    for (const std::size_t n : {255u, 256u, 257u, 1021u, 4096u}) {
        const std::vector<double> block = random_block(rng, n);
        EXPECT_EQ(simd::checksum(block.data(), n),
                  xxh64_reference(block.data(), n * sizeof(double), 0))
            << "n=" << n;
    }
}

TEST(RtChecksum, EveryBitFlipChangesTheDigest) {
    std::mt19937_64 rng(42);
    std::vector<double> block = random_block(rng, 37);
    const std::uint64_t base = simd::checksum(block.data(), block.size());
    for (const std::size_t word : {0u, 3u, 4u, 35u, 36u}) {
        for (const unsigned bit : {0u, 31u, 63u}) {
            std::uint64_t bits;
            std::memcpy(&bits, &block[word], sizeof(bits));
            bits ^= std::uint64_t{1} << bit;
            std::memcpy(&block[word], &bits, sizeof(bits));
            EXPECT_NE(simd::checksum(block.data(), block.size()), base)
                << "word=" << word << " bit=" << bit;
            bits ^= std::uint64_t{1} << bit;
            std::memcpy(&block[word], &bits, sizeof(bits));
        }
    }
    EXPECT_EQ(simd::checksum(block.data(), block.size()), base);
}

TEST(RtChecksum, DispatchNameIsAKnownTarget) {
    const std::string name = simd::dispatch_name();
    EXPECT_TRUE(name == "avx2" || name == "scalar") << name;
}

TEST(RtChecksum, BlockAndCanonicalChecksumsUseTheSameAlgorithm) {
    // canonical_checksum must equal the digest of the materialized
    // canonical block — the property that lets a receiver's O(1)
    // descriptor compare stand in for hashing the bytes.
    for (const std::size_t elems : {1u, 3u, 8u, 33u, 256u}) {
        std::vector<double> block(elems);
        fill_canonical(block, 7);
        EXPECT_EQ(block_checksum(block), canonical_checksum(7, elems))
            << "elems=" << elems;
        EXPECT_EQ(block_checksum(block),
                  simd::checksum(block.data(), elems));
    }
}

TEST(RtSimd, AccumulateIsBitExactAcrossPaths) {
    // Elementwise double addition must not be reassociated: the dispatched
    // path, the scalar path, and a plain loop must agree bit for bit on
    // every element — lane-multiple and ragged sizes alike.
    std::mt19937_64 rng(0x165667B19E3779F9ULL);
    std::uniform_real_distribution<double> dist(-1e12, 1e12);
    // n = 0 is exercised separately against null-safe no-op semantics.
    simd::accumulate(nullptr, nullptr, 0);
    for (const std::size_t n : {1u, 5u, 8u, 9u, 16u, 31u, 257u, 1024u}) {
        std::vector<double> dst(n), src(n);
        for (std::size_t i = 0; i < n; ++i) {
            dst[i] = dist(rng);
            src[i] = dist(rng);
        }
        std::vector<double> via_dispatch = dst;
        std::vector<double> via_scalar = dst;
        std::vector<double> via_loop = dst;
        simd::accumulate(via_dispatch.data(), src.data(), n);
        simd::accumulate_scalar(via_scalar.data(), src.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            via_loop[i] += src[i];
        }
        EXPECT_EQ(std::memcmp(via_dispatch.data(), via_loop.data(),
                              n * sizeof(double)),
                  0)
            << "dispatched diverges at n=" << n;
        EXPECT_EQ(std::memcmp(via_scalar.data(), via_loop.data(),
                              n * sizeof(double)),
                  0)
            << "scalar diverges at n=" << n;
    }
}

} // namespace
} // namespace hcube::rt
