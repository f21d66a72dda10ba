// Pins the runtime's block checksum to an independent xxHash64 reference
// implementation, bit for bit — over randomized sizes including the
// sub-stripe (< 4 words) and non-lane-multiple tails — the payload
// generator's row fills to its per-element definition and to an
// independent splitmix64 reference, and the dispatched reduce (AVX2 where
// present) to the portable scalar reduce.
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

/// Sizes that cover every row phase: 0..67 (empty, sub-row, whole rows,
/// every ragged tail), then multi-row blocks around 256 and two larger
/// ones.
std::vector<std::size_t> fill_sizes() {
    std::vector<std::size_t> sizes;
    for (std::size_t n = 0; n <= 67; ++n) {
        sizes.push_back(n);
    }
    for (const std::size_t n : {255u, 256u, 257u, 1021u, 4096u}) {
        sizes.push_back(n);
    }
    return sizes;
}

TEST(RtChecksum, FillMatchesElementDefinition) {
    // Both row fills (the unpack body and the ragged tail alike) equal the
    // per-element definition at every index, write nothing past the
    // block, and produce integers in [0, 256).
    constexpr double kGuard = -1.0;
    for (const std::size_t n : fill_sizes()) {
        SCOPED_TRACE("n=" + std::to_string(n));
        std::vector<double> canon(n + 1, kGuard);
        std::vector<double> contrib(n + 1, kGuard);
        fill_canonical({canon.data(), n}, 9);
        fill_contribution({contrib.data(), n}, 5, 3);
        EXPECT_EQ(canon[n], kGuard);
        EXPECT_EQ(contrib[n], kGuard);
        for (std::size_t e = 0; e < n; ++e) {
            ASSERT_EQ(canon[e], canonical_element(9, e)) << "e=" << e;
            ASSERT_EQ(contrib[e], contribution_element(5, 3, e))
                << "e=" << e;
            for (const double v : {canon[e], contrib[e]}) {
                ASSERT_GE(v, 0.0);
                ASSERT_LT(v, 256.0);
                ASSERT_EQ(v, static_cast<double>(static_cast<int>(v)));
            }
        }
    }
}

/// splitmix64 as its reference states it: a generator whose state
/// advances by the golden gamma before each output is mixed. Element `e`
/// of the block keyed `key` is byte `e mod 8` of the first output of the
/// generator seeded with `key ^ (e / 8)`.
class SplitMix64Reference {
public:
    explicit SplitMix64Reference(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

private:
    std::uint64_t state_;
};

double reference_element(std::uint64_t key, std::size_t e) {
    std::uint64_t word = SplitMix64Reference(key ^ (e / 8)).next();
    unsigned char bytes[8];
    // Least significant byte first.
    for (unsigned char& b : bytes) {
        b = static_cast<unsigned char>(word % 256);
        word /= 256;
    }
    return bytes[e % 8];
}

TEST(RtChecksum, PayloadGeneratorIsPinned) {
    // The published first output of splitmix64 seeded with 0 is
    // 0xE220A8397B1DCDAF: packet 0's canonical row 0 is its bytes.
    const double row0[8] = {0xAF, 0xCD, 0x1D, 0x7B, 0x39, 0xA8, 0x20, 0xE2};
    for (std::size_t e = 0; e < 8; ++e) {
        EXPECT_EQ(canonical_element(0, e), row0[e]) << "e=" << e;
    }
    // Golden elements pin the key layouts (packet << 32 for a canonical
    // block, node << 40 ^ packet << 20 for a contribution).
    EXPECT_EQ(canonical_element(0, 8), 0xC1);
    EXPECT_EQ(canonical_element(7, 1021), 19.0);
    EXPECT_EQ(contribution_element(3, 5, 13), 202.0);
    EXPECT_EQ(contribution_element(255, 1023, 4095), 187.0);
    // And every element of a few blocks matches the reference generator.
    for (const std::size_t n : {1u, 13u, 64u, 1021u}) {
        std::vector<double> canon(n);
        std::vector<double> contrib(n);
        fill_canonical(canon, 77);
        fill_contribution(contrib, 42, 6);
        for (std::size_t e = 0; e < n; ++e) {
            ASSERT_EQ(canon[e],
                      reference_element(std::uint64_t{77} << 32, e))
                << "n=" << n << " e=" << e;
            ASSERT_EQ(contrib[e],
                      reference_element((std::uint64_t{42} << 40) ^
                                            (std::uint64_t{6} << 20),
                                        e))
                << "n=" << n << " e=" << e;
        }
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
