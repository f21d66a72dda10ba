#include "bench.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

/// Count of a histogram in a registry delta (0 when absent).
std::uint64_t hist_count(const hcube::obs::RegistrySnapshot& snap,
                         std::string_view name) {
    const hcube::obs::MetricSnapshot* m = snap.find(name);
    return m == nullptr ? 0 : m->hist.count;
}

} // namespace

bool tenant_counts_match(
    const hcube::obs::RegistrySnapshot& delta,
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& sent,
    std::string& detail) {
    bool ok = true;
    for (const auto& [id, requests] : sent) {
        const std::uint64_t billed = hist_count(
            delta, "svc.tenant." + std::to_string(id) + ".op_ns");
        if (billed != requests) {
            ok = false;
            detail += "tenant " + std::to_string(id) + " billed " +
                      std::to_string(billed) + " of " +
                      std::to_string(requests) + " sent; ";
        }
    }
    return ok;
}

bool gate_self_check(std::string& detail) {
    bool ok = true;
    const auto expect = [&](bool cond, const char* what) {
        if (!cond) {
            ok = false;
            detail += what;
            detail += "; ";
        }
    };

    hcube::svc::Response response;
    response.stats.verified = true;
    expect(response_ok(response), "honest response rejected");
    response.stats.verified = false;
    expect(!response_ok(response), "forged unverified response passed");
    response.stats.verified = true;
    response.status = hcube::svc::Status::failed;
    expect(!response_ok(response), "forged failed response passed");

    hcube::net::OpResponseMsg wire;
    wire.verified = true;
    expect(wire_response_ok(wire), "honest wire response rejected");
    wire.verified = false;
    expect(!wire_response_ok(wire), "forged unverified wire response passed");

    hcube::ft::RecoveryResult healed;
    healed.delivered = true;
    expect(recovery_ok(healed), "honest recovery rejected");
    healed.delivered = false;
    expect(!recovery_ok(healed), "forged undelivered recovery passed");

    hcube::svc::Service::Counters ledger{10, 8, 2, 0, 0};
    expect(ledger_conserves(ledger), "conserving ledger rejected");
    ledger.executed = 7;
    expect(!ledger_conserves(ledger), "forged ledger mismatch passed");

    hcube::obs::RegistrySnapshot snap;
    hcube::obs::MetricSnapshot cell;
    cell.name = "svc.tenant.1.op_ns";
    cell.kind = hcube::obs::Kind::histogram;
    cell.hist.count = 5;
    snap.metrics.push_back(cell);
    std::string ignored;
    expect(tenant_counts_match(snap, {{1, 5}}, ignored),
           "matching tenant count rejected");
    expect(!tenant_counts_match(snap, {{1, 6}}, ignored),
           "forged tenant count mismatch passed");
    expect(!tenant_counts_match(snap, {{2, 1}}, ignored),
           "missing tenant histogram passed");
    return ok;
}

hcube::obs::HistogramSnapshot
merged_hist(const hcube::obs::RegistrySnapshot& snap, std::string_view prefix,
            std::string_view suffix) {
    hcube::obs::HistogramSnapshot out;
    for (const hcube::obs::MetricSnapshot& m : snap.metrics) {
        const std::string_view name = m.name;
        if (m.kind == hcube::obs::Kind::histogram &&
            name.size() >= prefix.size() + suffix.size() &&
            name.substr(0, prefix.size()) == prefix &&
            name.substr(name.size() - suffix.size()) == suffix) {
            out.merge(m.hist);
        }
    }
    return out;
}

hcube::obs::HistogramSnapshot hist(const hcube::obs::RegistrySnapshot& snap,
                                   std::string_view name) {
    const hcube::obs::MetricSnapshot* m = snap.find(name);
    return m == nullptr ? hcube::obs::HistogramSnapshot{} : m->hist;
}

hcube::obs::RegistrySnapshot delta(hcube::obs::RegistrySnapshot after,
                                   const hcube::obs::RegistrySnapshot& before) {
    after.subtract(before);
    return after;
}

CpuTicks cpu_ticks() {
    CpuTicks out;
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    if (cpu != "cpu") {
        return out;
    }
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    for (int field = 0; field < 8; ++field) {
        std::uint64_t v = 0;
        if (!(stat >> v)) {
            return CpuTicks{};
        }
        if (field != 3 && field != 4) {
            out.wanted += v;
        }
        if (field == 7) {
            out.steal = v;
        }
    }
    return out;
}

IdleSpinners::IdleSpinners() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
        return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed)) {
            continue;
        }
        threads_.emplace_back([this, cpu] {
            // Pinned so that every CPU gets one (left alone, the scheduler
            // may stack idle-priority threads on a few CPUs).
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            const sched_param lowest{};
            if (pthread_setaffinity_np(pthread_self(), sizeof one, &one) !=
                    0 ||
                pthread_setschedparam(pthread_self(), SCHED_IDLE, &lowest) !=
                    0) {
                return;
            }
            running_.fetch_add(1);
            while (!stop_.load(std::memory_order_relaxed)) {
                // Yield every 20 us: rarely enough to spare an SMT sibling
                // the system calls, often enough to bound the wait of a
                // program thread the scheduler ranks behind a spinner.
                const Clock::time_point until =
                    Clock::now() + std::chrono::microseconds(20);
                while (Clock::now() < until) {
#if defined(__x86_64__) || defined(__i386__)
                    __builtin_ia32_pause();
#endif
                }
                sched_yield();
            }
        });
    }
}

IdleSpinners::~IdleSpinners() {
    stop_.store(true);
    for (std::thread& t : threads_) {
        t.join();
    }
}

double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::vector<std::pair<std::string, std::string>> machine_context() {
    std::vector<std::pair<std::string, std::string>> out;

    std::string cpu = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t value = line.find_first_not_of(
                " \t", line.find(':') == std::string::npos
                           ? line.size()
                           : line.find(':') + 1);
            if (value != std::string::npos) {
                cpu = line.substr(value);
            }
            break;
        }
    }
    out.emplace_back("cpu_model", cpu);
    out.emplace_back("nproc",
                     std::to_string(std::thread::hardware_concurrency()));

    std::string allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        // Compress the set into ranges ("0-3,6").
        int start = -1;
        for (int c = 0; c <= CPU_SETSIZE; ++c) {
            const bool in = c < CPU_SETSIZE && CPU_ISSET(c, &set);
            if (in && start < 0) {
                start = c;
            } else if (!in && start >= 0) {
                if (!allowed.empty()) {
                    allowed += ',';
                }
                allowed += std::to_string(start);
                if (c - 1 > start) {
                    allowed += '-' + std::to_string(c - 1);
                }
                start = -1;
            }
        }
    }
    out.emplace_back("allowed_cpus", allowed.empty() ? "unknown" : allowed);
    const char* no_pin = std::getenv("HCUBE_NO_PIN");
    out.emplace_back("hcube_no_pin", no_pin == nullptr ? "unset" : no_pin);
#if defined(__clang__)
    out.emplace_back("compiler", "clang " __VERSION__);
#else
    out.emplace_back("compiler", "gcc " __VERSION__);
#endif
    out.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
    return out;
}

} // namespace perfbench
