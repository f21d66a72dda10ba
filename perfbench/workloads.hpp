// The four benchmark workloads. Each drives one front door in closed
// loops, checks every response, and fills a Report with every end-to-end
// metric (from untraced phases) and every per-layer metric (obs deltas
// from untraced phases, span timings from traced phases).
#pragma once

#include "bench.hpp"

#include <string>
#include <vector>

namespace perfbench {

/// Names accepted by --workload, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs `opt.workload`; throws std::invalid_argument for an unknown name.
[[nodiscard]] Report run_workload(const Options& opt);

} // namespace perfbench
