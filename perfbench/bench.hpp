// Shared pieces of the repository benchmark (perfbench): run options, the
// fixed-memory latency sample, the run report every workload fills, and
// the correctness gates every response and every run ledger passes
// through. See README.md for the workloads and metric definitions.
#pragma once

#include "common/prng.hpp"
#include "ft/resilient.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "svc/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t ns_between(Clock::time_point a,
                                              Clock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /// Directory for the netd socket and the trace file.
    std::string work_dir = ".";
};

/// Uniform fixed-size sample of a stream (Vitter's algorithm R). The
/// storage is allocated and touched up front, so the benchmark's own
/// memory does not grow with throughput and peak_rss_mib measures the
/// program, not the sample; values are kept exact (no bucketing).
template <class T>
class Reservoir {
  public:
    Reservoir(std::size_t capacity, std::uint64_t seed)
        : slots_(capacity, T{}), rng_(seed) {}

    void add(T v) {
        if (seen_ < slots_.size()) {
            slots_[seen_] = v;
        } else {
            const std::uint64_t j = rng_.next_below(seen_ + 1);
            if (j < slots_.size()) {
                slots_[j] = v;
            }
        }
        ++seen_;
    }

    /// Starts a new sample (the storage stays allocated).
    void clear() noexcept { seen_ = 0; }
    [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }
    /// The kept sample (all values when fewer than capacity were seen).
    [[nodiscard]] std::vector<T> sample() const {
        const std::size_t kept =
            static_cast<std::size_t>(std::min<std::uint64_t>(
                seen_, slots_.size()));
        return {slots_.begin(),
                slots_.begin() + static_cast<std::ptrdiff_t>(kept)};
    }

  private:
    std::vector<T> slots_;
    hcube::SplitMix64 rng_;
    std::uint64_t seen_ = 0;
};

/// Nearest-rank percentile (rank ceil(p * n), the convention
/// obs::HistogramSnapshot::percentile uses); 0 for an empty sample.
template <class T>
[[nodiscard]] double percentile(std::vector<T> values, double p) {
    if (values.empty()) {
        return 0.0;
    }
    const auto n = values.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     values.end());
    return static_cast<double>(values[rank - 1]);
}

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

struct Gate {
    std::string name;
    bool ok = true;
    std::string detail;
};

/// Everything one run reports: operation counts, metrics, gate verdicts
/// and free-form lines for the human-readable part of the output.
struct Report {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<Gate> gates;
    std::vector<std::string> lines;

    void metric(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    /// Records a gate verdict; a broken gate marks the whole run failed.
    /// Verdicts under one name (one per round) fold into a single gate.
    void gate(const std::string& name, bool ok, const std::string& detail) {
        for (Gate& g : gates) {
            if (g.name == name) {
                if (!ok) {
                    g.ok = false;
                    g.detail += (g.detail.empty() ? "" : "; ") + detail;
                }
                return;
            }
        }
        gates.push_back({name, ok, ok ? "" : detail});
    }
    void line(std::string text) { lines.push_back(std::move(text)); }

    [[nodiscard]] bool gates_ok() const {
        return std::all_of(gates.begin(), gates.end(),
                           [](const Gate& g) { return g.ok; });
    }
};

// ---- correctness gates ---------------------------------------------------
//
// Pure functions of what the front doors return, so the self-check can
// feed them forged inputs and prove they trip.

/// An in-process service response passes when it executed and verified.
[[nodiscard]] inline bool response_ok(const hcube::svc::Response& r) {
    return r.status == hcube::svc::Status::ok && r.stats.verified;
}

/// The admission ledger conserves: every admitted request either ran or
/// rode along on another's execution, and nothing bounced or failed.
[[nodiscard]] inline bool
ledger_conserves(const hcube::svc::Service::Counters& c) {
    return c.submitted == c.executed + c.batched && c.rejected == 0 &&
           c.failed == 0;
}

/// A wire response passes when netd executed and verified it.
[[nodiscard]] inline bool wire_response_ok(const hcube::net::OpResponseMsg& r) {
    return r.status == static_cast<std::uint8_t>(hcube::svc::Status::ok) &&
           r.verified;
}

/// A self-healing op passes when its final run matched the oracle.
[[nodiscard]] inline bool recovery_ok(const hcube::ft::RecoveryResult& r) {
    return r.delivered;
}

/// Tenant billing matches what each client sent: the delta count of
/// svc.tenant.<id>.op_ns equals the requests client <id> issued.
[[nodiscard]] bool tenant_counts_match(
    const hcube::obs::RegistrySnapshot& delta,
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& sent,
    std::string& detail);

/// Runs every gate on forged inputs and checks each one trips (and passes
/// on the matching honest input). Returns false if any gate misbehaves.
[[nodiscard]] bool gate_self_check(std::string& detail);

// ---- registry helpers ----------------------------------------------------

/// Merges every histogram whose name starts with `prefix` and ends with
/// `suffix` (e.g. all svc.tenant.*.op_ns cells).
[[nodiscard]] hcube::obs::HistogramSnapshot
merged_hist(const hcube::obs::RegistrySnapshot& snap, std::string_view prefix,
            std::string_view suffix);

[[nodiscard]] hcube::obs::HistogramSnapshot
hist(const hcube::obs::RegistrySnapshot& snap, std::string_view name);

/// Registry delta between two snapshots of this process.
[[nodiscard]] hcube::obs::RegistrySnapshot
delta(hcube::obs::RegistrySnapshot after,
      const hcube::obs::RegistrySnapshot& before);

/// CPU time the host took from the machine's virtual CPUs (the `steal`
/// column of /proc/stat) and the time they wanted to run (every column but
/// idle and iowait, steal included), in clock ticks since boot; both 0 where
/// the kernel does not report them. steal / wanted is the share of the
/// vCPUs' demand the host withheld: unlike steal over all time, it does
/// not fall when the benchmark itself leaves vCPUs idle.
struct CpuTicks {
    std::uint64_t steal = 0;
    std::uint64_t wanted = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();

/// Keeps every CPU this process may run on from going idle while it
/// lives: one thread pinned to each CPU at the lowest priority (SCHED_IDLE)
/// that spins and hands the CPU over at once. On a virtual machine a vCPU with nothing
/// to run halts, and a thread woken on it then waits until the host runs
/// the vCPU again; on a loaded host those waits stalled every hand-off of
/// the program's threads and made one run read several times slower than
/// the next. A waking program thread preempts a spinner at once, and the
/// scheduler counts a CPU that runs only a spinner as idle when it places
/// woken threads. A thread that cannot lower its priority exits instead
/// of competing with the program.
class IdleSpinners {
  public:
    IdleSpinners();
    ~IdleSpinners();
    IdleSpinners(const IdleSpinners&) = delete;
    IdleSpinners& operator=(const IdleSpinners&) = delete;

    /// Spinners running at the lowest priority.
    [[nodiscard]] int running() const noexcept { return running_.load(); }

  private:
    std::atomic<bool> stop_{false};
    std::atomic<int> running_{0};
    std::vector<std::thread> threads_;
};

/// Peak resident set of this process so far [MiB] (getrusage).
[[nodiscard]] double peak_rss_mib();

/// The machine and build a run measured on, as (key, value) pairs: CPU
/// model, nproc, allowed CPU set, HCUBE_NO_PIN, compiler, build type.
[[nodiscard]] std::vector<std::pair<std::string, std::string>>
machine_context();

} // namespace perfbench
