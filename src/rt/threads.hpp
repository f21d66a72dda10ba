// Shared worker-count policy for the threaded runtime.
//
// One documented clamp, used by svc::Session, ft::ResilientComm and the
// benchmarks and examples: a request of 0 means auto, and auto resolves to
// max(2, hardware_concurrency()) — `hardware_concurrency()` is allowed to
// return 0 when the host cannot be probed, and a silent single-threaded
// default would hide every cross-thread bug the runtime exists to catch —
// then any request is clamped to the 2^n cube nodes, since a worker owns a
// contiguous non-empty node range.
#pragma once

#include "hc/types.hpp"

#include <algorithm>
#include <cstdint>
#include <thread>

namespace hcube::rt {

/// Deterministic core: `hardware` stands in for
/// std::thread::hardware_concurrency() so the 0-cores and many-cores paths
/// are unit-testable.
[[nodiscard]] constexpr std::uint32_t
pick_worker_threads(hc::dim_t n, std::uint32_t requested,
                    std::uint32_t hardware) noexcept {
    const std::uint32_t nodes = std::uint32_t{1} << n;
    if (requested == 0) {
        requested = std::max(2u, hardware);
    }
    return std::min(requested, nodes);
}

/// The production overload: probes the host.
[[nodiscard]] inline std::uint32_t
pick_worker_threads(hc::dim_t n, std::uint32_t requested) {
    return pick_worker_threads(n, requested,
                               std::thread::hardware_concurrency());
}

} // namespace hcube::rt
