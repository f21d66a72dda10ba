#include "workloads.hpp"

#include "trace.hpp"

#include "ft/resilient.hpp"
#include "net/netd.hpp"
#include "rt/async_player.hpp"
#include "rt/plan.hpp"
#include "rt/player.hpp"
#include "rt/pool.hpp"
#include "sim/cycle.hpp"
#include "svc/service.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

using hcube::SplitMix64;
using hcube::hc::dim_t;
using hcube::hc::node_t;
using hcube::sim::packet_t;
using hcube::svc::Family;
using hcube::svc::Op;
using hcube::svc::Signature;
namespace obs = hcube::obs;
namespace svc = hcube::svc;
namespace net = hcube::net;
namespace ft = hcube::ft;
namespace rt = hcube::rt;

/// Every workload measures in windows of this length [s], and the host
/// steal share of each window decides whether it counts (see steal_cut).
/// The windows are short so that a run on a host whose load comes and goes
/// still holds enough quiet ones.
constexpr double kWindowSeconds = 0.25;
/// The hot workloads build their front door afresh for every round of this
/// length [s], which they measure as consecutive windows: the rt tuner
/// locks each plan serial or stealing from one sample, so one build's
/// throughput is bimodal, and only many independent builds make a run
/// repeatable. svc_churn and ft_heal build once and cut their single round
/// into windows: their requests rarely replay a tuned plan, and every extra
/// svc_churn build leaves the previous build's heap fragments resident,
/// which made peak_rss_mib depend on the round count more than on the
/// program.
constexpr double kRoundSeconds = 1.0;
/// The end-to-end rate and percentiles come from the windows in which the
/// host withheld the least of the vCPUs' demand (a descheduled vCPU stalls
/// every thread hand-off, and a window's p99 grows several-fold with a few
/// percent of it): the cleanest kPoolShare of the windows, widened until
/// they hold kPoolSamples latency samples, so that at least ten lie above
/// the p99. Windows that tie with the last one count too, so without steal
/// (bare metal) every window counts. The rate is the median of those
/// windows' rates; the percentiles come from their latency samples pooled.
constexpr double kPoolShare = 0.125;
constexpr std::size_t kPoolSamples = 1000;
/// Unmeasured closed-loop time before svc_churn and ft_heal measure: it
/// fills the plan cache and lets ft_heal meet every survivor view once, so
/// the first window is no colder than the rest.
constexpr double kWarmupSeconds = 2.0;
/// Set-ups timed per run, so setup_s is a median of at least this many:
/// the hot workloads add set-up-only rounds up front; the single-round
/// workloads time spare set-ups between their windows, spreading the
/// samples over the run.
constexpr int kSetupSamples = 21;
/// Latency samples kept per client and window (fixed memory; see
/// Reservoir). svc_churn and ft_heal keep every sample; on the hot
/// workloads the cap keeps a window in which the tuner locked every plan
/// serial, and which ran 4x faster, from outweighing the others in the
/// pooled percentiles.
constexpr std::size_t kReservoir = 512;

// ---- closed-loop clients -------------------------------------------------

/// The phases a client's operations fall in. Only untraced operations
/// give end-to-end metrics; every phase counts towards attempted and
/// failed.
constexpr int kUntraced = 0;
constexpr int kTraced = 1;
constexpr int kWarmup = 2;

/// What one client accumulates in one phase.
struct PhaseTally {
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::uint64_t sum_ns = 0;
};

/// One closed-loop caller: its own seeded request stream, its latency
/// sample (untraced phases only) and its span log (traced phases only).
struct Client {
    Client(std::uint64_t seed, std::uint32_t index)
        : rng(seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull * index),
          window_ns(kReservoir, seed ^ (0x9fb21c651e98df25ull * (index + 1))),
          model_ratio(4096, seed ^ (0x8cb92ba72f3d8dd7ull * (index + 1))) {}

    SplitMix64 rng;
    Reservoir<std::uint64_t> window_ns; ///< current window (untraced)
    /// svc_hot / wire_hot broadcast plays: measured over predicted.
    Reservoir<double> model_ratio;
    PhaseTally phase[3]; ///< indexed by kUntraced, kTraced, kWarmup
    SpanLog* log = nullptr;
    std::uint64_t round_requests = 0; ///< sent in this round's phases
    std::uint64_t next_request = 0;

    void record(int p, std::uint64_t ns, bool ok) {
        PhaseTally& t = phase[p];
        ++t.ops;
        t.sum_ns += ns;
        t.failed += ok ? 0 : 1;
        if (p == kUntraced) {
            window_ns.add(ns);
        }
        ++round_requests;
    }
    /// The span log to record into during phase `p` (none when untraced).
    [[nodiscard]] SpanLog* span_log(int p) const {
        return p == kTraced ? log : nullptr;
    }
};

std::vector<Client> make_clients(std::uint64_t seed, std::uint32_t count,
                                 Trace* trace) {
    std::vector<Client> clients;
    clients.reserve(count);
    for (std::uint32_t c = 0; c < count; ++c) {
        clients.emplace_back(seed, c);
        if (trace != nullptr) {
            clients.back().log = trace->add_log();
        }
    }
    return clients;
}

/// Runs body(c) in a loop on one thread per client until `seconds` have
/// elapsed, every client starting together; returns the wall time from
/// the start signal until the last client returned.
template <class Body>
double closed_loop(std::size_t clients, double seconds, const Body& body) {
    std::latch ready(static_cast<std::ptrdiff_t>(clients) + 1);
    std::atomic<bool> go{false};
    Clock::time_point deadline{};
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            ready.count_down();
            while (!go.load(std::memory_order_acquire)) {
                std::this_thread::yield();
            }
            while (Clock::now() < deadline) {
                body(c);
            }
        });
    }
    ready.arrive_and_wait();
    const Clock::time_point start = Clock::now();
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) {
        t.join();
    }
    return seconds_between(start, Clock::now());
}

/// Run-wide accumulators shared by every workload.
struct Totals {
    std::vector<double> setup_s;
    double elapsed[2] = {0, 0};
    /// Per untraced window: verified ops per second, the share of the
    /// vCPUs' demand the host took (see CpuTicks), and every client's
    /// latency sample.
    std::vector<double> window_rates;
    std::vector<double> window_steal;
    std::vector<std::vector<std::uint64_t>> window_ns;
    /// obs deltas of the untraced phases, merged across rounds.
    obs::RegistrySnapshot obs;
};

std::uint64_t ok_ops(const std::vector<Client>& clients, int p) {
    std::uint64_t n = 0;
    for (const Client& c : clients) {
        n += c.phase[p].ops - c.phase[p].failed;
    }
    return n;
}

/// Number of windows of about `length` seconds in `seconds` (at least one).
int window_count(double seconds, double length) {
    return std::max(1, static_cast<int>(std::lround(seconds / length)));
}

/// Measures phase `p` as `windows` back-to-back closed loops splitting
/// `seconds`, calling `between(w)` (if any) in the gap before window w,
/// outside the timed windows. Adds the wall time to the totals and, for the
/// untraced phase, each window's rate, steal share, latency sample and obs
/// delta; returns the phase's obs delta (empty for the traced phase).
template <class Body>
obs::RegistrySnapshot measure(std::vector<Client>& clients, int p,
                              double seconds, int windows, Totals& t,
                              const Body& body,
                              const std::function<void(int)>& between = {}) {
    obs::RegistrySnapshot phase_obs;
    for (int w = 0; w < windows; ++w) {
        if (w > 0 && between) {
            between(w);
        }
        for (Client& c : clients) {
            c.window_ns.clear();
        }
        const std::uint64_t before = ok_ops(clients, p);
        const obs::RegistrySnapshot s0 =
            p == kUntraced ? obs::registry().snapshot()
                           : obs::RegistrySnapshot{};
        const CpuTicks k0 = cpu_ticks();
        const double elapsed =
            closed_loop(clients.size(), seconds / windows, body);
        const CpuTicks k1 = cpu_ticks();
        t.elapsed[p] += elapsed;
        if (p != kUntraced) {
            continue;
        }
        phase_obs.merge(delta(obs::registry().snapshot(), s0));
        t.window_rates.push_back(
            static_cast<double>(ok_ops(clients, p) - before) / elapsed);
        t.window_steal.push_back(
            k1.wanted > k0.wanted
                ? static_cast<double>(k1.steal - k0.steal) /
                      static_cast<double>(k1.wanted - k0.wanted)
                : 0.0);
        std::vector<std::uint64_t> lat;
        for (const Client& c : clients) {
            const std::vector<std::uint64_t> s = c.window_ns.sample();
            lat.insert(lat.end(), s.begin(), s.end());
        }
        t.window_ns.push_back(std::move(lat));
    }
    t.obs.merge(phase_obs);
    return phase_obs;
}

/// How a run splits its time: the untraced run measures one phase per
/// round; the traced run measures an untraced half (its ops/s is the
/// baseline of the tracing overhead, its obs deltas give the per-layer
/// numbers) and then a traced half (spans).
struct Phases {
    int rounds = 1;     ///< measured rounds
    int setup_only = 0; ///< extra rounds that only time the set-up
    int count = 1;
    double seconds = 0; ///< per phase per round
};

Phases plan_phases(const Options& opt, int rounds, int setup_only) {
    const double per_round = opt.seconds / rounds;
    return opt.trace ? Phases{rounds, setup_only, 2, per_round / 2}
                     : Phases{rounds, setup_only, 1, per_round};
}

/// Spare set-ups to time in the gap before window `w` of `windows`, spread
/// evenly so that a single-round workload times kSetupSamples set-ups in
/// all.
int spares_before(int w, int windows) {
    const int spares = kSetupSamples - 1;
    return w * spares / (windows - 1) - (w - 1) * spares / (windows - 1);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The end-to-end figures of a set of windows: the median of their rates
/// and the percentiles of their latency samples pooled.
struct Pooled {
    std::size_t windows = 0;
    double ops_per_s = 0;
    double p50_us = 0;
    double p99_us = 0;
    std::size_t samples = 0;
};

/// The host steal share at or below which an untraced window counts: the
/// share of the cleanest kPoolShare of the windows, raised until the
/// windows at or below it hold kPoolSamples latency samples (or all).
double steal_cut(const Totals& t) {
    std::vector<std::size_t> order(t.window_steal.size());
    for (std::size_t w = 0; w < order.size(); ++w) {
        order[w] = w;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return t.window_steal[a] < t.window_steal[b];
                     });
    const auto min_windows = static_cast<std::size_t>(
        std::ceil(kPoolShare * static_cast<double>(order.size())));
    std::size_t samples = 0;
    for (std::size_t k = 0; k < order.size(); ++k) {
        samples += t.window_ns[order[k]].size();
        if (k + 1 >= min_windows && samples >= kPoolSamples) {
            return t.window_steal[order[k]];
        }
    }
    return 1.0;
}

/// Pools the untraced windows whose host steal share is at most `cut`.
Pooled pool_windows(const Totals& t, double cut) {
    Pooled out;
    std::vector<double> rates;
    std::vector<std::uint64_t> lat;
    for (std::size_t w = 0; w < t.window_rates.size(); ++w) {
        if (t.window_steal[w] <= cut) {
            rates.push_back(t.window_rates[w]);
            lat.insert(lat.end(), t.window_ns[w].begin(),
                       t.window_ns[w].end());
        }
    }
    out.windows = rates.size();
    out.ops_per_s = median(std::move(rates));
    out.p50_us = percentile(lat, 0.50) / 1e3;
    out.p99_us = percentile(lat, 0.99) / 1e3;
    out.samples = lat.size();
    return out;
}

/// setup_s, ops_per_s, lat_p50_us, lat_p99_us, peak_rss_mib — from the
/// untraced phases only — plus attempted/failed over every phase and the
/// tracing overhead when there was a traced phase. The same figures over
/// every window, steal or not, print as *.all_windows for comparison.
void emit_end_to_end(Report& r, const std::vector<Client>& clients,
                     const Totals& t, const Phases& phases) {
    std::uint64_t ops[3] = {0, 0, 0};
    std::uint64_t failed[3] = {0, 0, 0};
    for (const Client& c : clients) {
        for (int p = 0; p < 3; ++p) {
            ops[p] += c.phase[p].ops;
            failed[p] += c.phase[p].failed;
        }
    }
    r.attempted = ops[kUntraced] + ops[kTraced] + ops[kWarmup];
    r.failed = failed[kUntraced] + failed[kTraced] + failed[kWarmup];
    const double cut = steal_cut(t);
    const Pooled clean = pool_windows(t, cut);
    const Pooled all = pool_windows(t, 1.0);
    r.metric("setup_s", median(t.setup_s), "s");
    r.metric("ops_per_s", clean.ops_per_s, "ops/s");
    r.metric("lat_p50_us", clean.p50_us, "us");
    r.metric("lat_p99_us", clean.p99_us, "us");
    r.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    r.metric("ops_per_s.all_windows", all.ops_per_s, "ops/s");
    r.metric("lat_p50_us.all_windows", all.p50_us, "us");
    r.metric("lat_p99_us.all_windows", all.p99_us, "us");
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "untraced: %llu ops in %zu windows (%d rounds); %zu at or "
                  "below host steal %.2f%%: %.1f ops/s, "
                  "p50 %.2f us and p99 %.2f us from %zu latency samples; "
                  "%zu set-ups",
                  static_cast<unsigned long long>(ops[kUntraced]),
                  t.window_rates.size(), phases.rounds, clean.windows,
                  100 * cut, clean.ops_per_s, clean.p50_us,
                  clean.p99_us, clean.samples, t.setup_s.size());
    r.line(buf);
    std::string windows = "windows (ops/s, p99 us, host steal %):";
    for (std::size_t w = 0; w < t.window_rates.size(); ++w) {
        std::snprintf(buf, sizeof buf, " %.0f/%.0f/%.1f", t.window_rates[w],
                      percentile(t.window_ns[w], 0.99) / 1e3,
                      100 * t.window_steal[w]);
        windows += buf;
    }
    r.line(windows);
    if (phases.count == 2) {
        const double ok_per_s =
            static_cast<double>(ops[kUntraced] - failed[kUntraced]) /
            t.elapsed[kUntraced];
        const double traced_per_s =
            static_cast<double>(ops[kTraced] - failed[kTraced]) /
            t.elapsed[kTraced];
        r.metric("trace.overhead_share", 1.0 - ratio(traced_per_s, ok_per_s),
                 "ratio");
        r.line("tracing overhead: " + std::to_string(ok_per_s) +
               " ops/s untraced vs " + std::to_string(traced_per_s) +
               " ops/s traced");
    }
}

/// Mean client latency [ns] over the untraced phases.
double mean_client_ns(const std::vector<Client>& clients) {
    std::uint64_t ops = 0;
    std::uint64_t sum = 0;
    for (const Client& c : clients) {
        ops += c.phase[kUntraced].ops;
        sum += c.phase[kUntraced].sum_ns;
    }
    return ops == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(ops);
}

double p_us(const obs::HistogramSnapshot& h, double p) {
    return static_cast<double>(h.percentile(p)) / 1e3;
}

/// Every per-layer metric the program's own obs cells answer, from the
/// merged untraced-phase deltas. `ops` is the number of client operations
/// those deltas cover.
void emit_obs_layers(Report& r, const obs::RegistrySnapshot& d,
                     std::uint64_t ops) {
    r.metric("svc.queue_wait_p50_us", p_us(hist(d, "svc.queue_wait_ns"), 0.5),
             "us");
    r.metric("svc.queue_wait_p99_us",
             p_us(hist(d, "svc.queue_wait_ns"), 0.99), "us");
    r.metric("svc.execute_p50_us", p_us(hist(d, "svc.execute_ns"), 0.5),
             "us");
    r.metric("svc.op_p50_us",
             p_us(merged_hist(d, "svc.tenant.", ".op_ns"), 0.5), "us");
    const auto submitted = static_cast<double>(d.counter("svc.submitted"));
    const auto executed = static_cast<double>(d.counter("svc.executed"));
    r.metric("svc.batched_share",
             ratio(static_cast<double>(d.counter("svc.batched")), submitted),
             "ratio");

    const obs::HistogramSnapshot play = hist(d, "rt.play_ns");
    r.metric("rt.play_p50_us", p_us(play, 0.5), "us");
    r.metric("rt.play_p99_us", p_us(play, 0.99), "us");
    const auto serial = static_cast<double>(d.counter("rt.plays_serial"));
    const auto stealing =
        static_cast<double>(d.counter("rt.plays_stealing"));
    r.metric("rt.serial_share", ratio(serial, serial + stealing), "ratio");
    r.metric("rt.exec_fallbacks",
             static_cast<double>(d.counter("rt.exec_fallbacks")), "count");
    r.metric("rt.steals_per_play",
             ratio(static_cast<double>(d.counter("rt.steals")),
                   serial + stealing),
             "steals/play");
    r.metric("rt.bytes_copied_per_op",
             ratio(static_cast<double>(d.counter("rt.bytes_copied")),
                   executed),
             "B/op");
    r.metric("net.frame_bytes_per_op",
             ratio(static_cast<double>(d.counter("net.frame_bytes_in") +
                                       d.counter("net.frame_bytes_out")),
                   static_cast<double>(ops)),
             "B/op");
    r.metric("ft.detect_p50_us", p_us(hist(d, "ft.detect_ns"), 0.5), "us");
}

/// The stage-sum check of a service workload: mean client latency L
/// against mean queue wait Q + mean execute E + the part of the client's
/// call outside the service's enqueue-to-fulfilled window W = L - S
/// (client wake-up in process; the wire round trip's overhead over a
/// socket). What S leaves uncovered by Q + E prints as unaccounted_us.
void emit_stage_sum(Report& r, const obs::RegistrySnapshot& d, double l_ns,
                    bool wire) {
    const double q = hist(d, "svc.queue_wait_ns").mean();
    const double e = hist(d, "svc.execute_ns").mean();
    const double s = merged_hist(d, "svc.tenant.", ".op_ns").mean();
    const double w = l_ns - s;
    r.metric("unaccounted_us", (s - q - e) / 1e3, "us");
    r.metric("net.wire_overhead_us", wire ? w / 1e3 : 0.0, "us");
    if (s == 0) {
        return; // no service on this workload
    }
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "stage sum: client %.2f us = queue_wait %.2f + execute "
                  "%.2f + %s %.2f + unaccounted %.2f (svc.op %.2f)",
                  l_ns / 1e3, q / 1e3, e / 1e3,
                  wire ? "wire_overhead" : "client_wakeup", w / 1e3,
                  (s - q - e) / 1e3, s / 1e3);
    r.line(buf);
}

double span_p50_us(const std::map<std::string, SpanStats, std::less<>>& spans,
                   const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0
                             : percentile(it->second.durations, 0.5) / 1e3;
}

/// Per-layer numbers the benchmark measures from outside (front-door
/// return values, its own timers, replay spans). Zero where the workload
/// gives the layer no work.
struct Outside {
    double cache_hit_rate = 0;
    double evictions = 0;
    double epoch_evictions = 0;
    double resident_mib = 0;
    std::vector<double> transition_us;
    double evicted_per_transition = 0;
    std::vector<double> connect_ms;
    double ft_oracle_ms = 0;
    std::vector<double> ft_final_us;
    std::vector<double> ft_recovery_ms;
    double ft_attempts_per_op = 0;
    double ft_healed_share = 0;
    std::vector<double> model_ratio;
    double replay_sends_per_op = 0;
};

void emit_outside_layers(Report& r, const Outside& o, const Trace* trace) {
    const auto spans = trace != nullptr
                           ? trace->merged()
                           : std::map<std::string, SpanStats, std::less<>>{};
    r.metric("svc.cache_hit_rate", o.cache_hit_rate, "ratio");
    r.metric("svc.evictions", o.evictions, "count");
    r.metric("svc.epoch_evictions", o.epoch_evictions, "count");
    r.metric("svc.resident_mib", o.resident_mib, "MiB");
    r.metric("rt.compile_p50_us", span_p50_us(spans, "rt.compile_plan"), "us");
    r.metric("rt.oracle_p50_us", span_p50_us(spans, "rt.Player::play"), "us");
    r.metric("routing.generate_p50_us",
             span_p50_us(spans, "routing.make_schedule"), "us");
    r.metric("routing.sends_per_op", o.replay_sends_per_op, "sends/op");
    r.metric("sim.validate_p50_us",
             span_p50_us(spans, "sim.execute_schedule"), "us");
    r.metric("mbr.transition_p50_us", median(o.transition_us), "us");
    r.metric("mbr.transition_max_us", percentile(o.transition_us, 1.0),
             "us");
    r.metric("mbr.evicted_per_transition", o.evicted_per_transition,
             "count");
    r.metric("net.connect_ms", median(o.connect_ms), "ms");
    r.metric("ft.oracle_ms", o.ft_oracle_ms, "ms");
    r.metric("ft.final_p50_us", median(o.ft_final_us), "us");
    r.metric("ft.recovery_p50_ms", median(o.ft_recovery_ms), "ms");
    r.metric("ft.attempts_per_op", o.ft_attempts_per_op, "attempts/op");
    r.metric("ft.healed_share", o.ft_healed_share, "ratio");
    r.metric("model.play_over_predicted", median(o.model_ratio), "ratio");
}

/// Measured play time over the paper's prediction for one broadcast:
/// sim_makespan routing steps of (tau + B * t_c) each, with the session's
/// calibrated constants.
double model_ratio(double seconds, std::uint32_t makespan,
                   std::uint32_t block, const hcube::model::CommParams& c) {
    const double predicted =
        static_cast<double>(makespan) *
        (c.tau + static_cast<double>(block) * c.tc);
    return predicted > 0 ? seconds / predicted : 0.0;
}

/// Merges the ratio samples of every client.
std::vector<double> model_ratios(const std::vector<Client>& clients) {
    std::vector<double> out;
    for (const Client& c : clients) {
        const std::vector<double> s = c.model_ratio.sample();
        out.insert(out.end(), s.begin(), s.end());
    }
    return out;
}

/// Emits every metric of a finished run (end-to-end from the untraced
/// windows, per-layer from obs deltas and the benchmark's own timers and
/// spans) and, when traced, writes the trace file and the self times.
void finish_report(Report& r, const Options& opt,
                   const std::vector<Client>& clients, const Totals& t,
                   const Outside& o, const Phases& phases, const Trace* trace,
                   bool wire) {
    emit_end_to_end(r, clients, t, phases);
    std::uint64_t ops0 = 0;
    for (const Client& c : clients) {
        ops0 += c.phase[kUntraced].ops;
    }
    emit_obs_layers(r, t.obs, ops0);
    emit_stage_sum(r, t.obs, mean_client_ns(clients), wire);
    emit_outside_layers(r, o, trace);
    if (trace != nullptr) {
        const std::string path =
            opt.work_dir + "/trace-" + opt.workload + ".json";
        r.gate("trace_file_written", trace->write_chrome(path),
               "cannot write " + path);
        r.line("trace: " + path);
        for (std::string& line : trace->self_time_lines()) {
            r.line(std::move(line));
        }
    }
}

/// The admission ledger and plan-cache accounting of one round's service
/// (absolute: every round builds a fresh one), and tenant billing over
/// the round's measured window.
void check_service_round(Report& r, const svc::Service& service,
                         const obs::RegistrySnapshot& window,
                         const std::vector<std::pair<std::uint32_t,
                                                     std::uint64_t>>& sent) {
    const svc::Service::Counters c = service.counters();
    r.gate("svc_ledger_conserves", ledger_conserves(c),
           "submitted " + std::to_string(c.submitted) + " != executed " +
               std::to_string(c.executed) + " + batched " +
               std::to_string(c.batched) + " (rejected " +
               std::to_string(c.rejected) + ", failed " +
               std::to_string(c.failed) + ")");
    const hcube::CacheStats cs = service.session().cache_stats();
    r.gate("plan_cache_lookups_match_executions",
           cs.hits + cs.misses == c.executed,
           "hits " + std::to_string(cs.hits) + " + misses " +
               std::to_string(cs.misses) + " != executed " +
               std::to_string(c.executed));
    std::string detail;
    r.gate("tenant_op_counts_match", tenant_counts_match(window, sent, detail),
           detail);
}

// ---- svc_hot and wire_hot ------------------------------------------------

/// The hot mix: one signature per collective kind, small blocks, 1-2
/// packets (MSBT: n), every one resident in the default plan cache. The
/// shapes are fixed so that every seed costs the same work per request;
/// the seed picks the roots and each client's request order.
std::vector<Signature> hot_mix(std::uint64_t seed) {
    struct Shape {
        Op op;
        Family family;
        dim_t n;
        packet_t packets;
        std::uint32_t block;
    };
    static constexpr Shape kShapes[] = {
        {Op::broadcast, Family::sbt, 6, 2, 32},
        {Op::broadcast, Family::msbt, 5, 5, 16},
        {Op::scatter, Family::bst, 5, 1, 8},
        {Op::scatter, Family::sbt, 4, 2, 64},
        {Op::gather, Family::bst, 4, 2, 16},
        {Op::gather, Family::sbt, 5, 1, 32},
        {Op::reduce, Family::sbt, 6, 1, 64},
        {Op::allgather, Family::sbt, 4, 1, 8},
        {Op::alltoall, Family::sbt, 4, 1, 8},
    };
    SplitMix64 rng(seed ^ 0x243f6a8885a308d3ull);
    std::vector<Signature> mix;
    for (const Shape& s : kShapes) {
        Signature sig;
        sig.op = s.op;
        sig.family = s.family;
        sig.n = s.n;
        sig.root = static_cast<node_t>(rng.next_below(node_t{1} << s.n));
        sig.packets = s.packets;
        sig.block_elems = s.block;
        mix.push_back(sig);
    }
    return mix;
}

constexpr dim_t kHotCube = 6;
constexpr std::uint32_t kHotClients = 4;

/// The front door of a hot workload: an in-process Service, or a Netd
/// serving one over a Unix-domain socket with one NetClient per client.
class HotDoor {
  public:
    HotDoor(bool wire, const std::string& socket_path, std::uint32_t clients,
            std::vector<double>& connect_ms) {
        if (!wire) {
            service_ = std::make_unique<svc::Service>(kHotCube);
            return;
        }
        net::NetdParams params;
        params.endpoint = net::Endpoint::unix_path(socket_path);
        netd_ = std::make_unique<net::Netd>(kHotCube, params);
        for (std::uint32_t c = 0; c < clients; ++c) {
            const Clock::time_point t0 = Clock::now();
            conns_.push_back(
                std::make_unique<net::NetClient>(netd_->endpoint()));
            connect_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
        }
    }

    [[nodiscard]] bool wire() const noexcept { return netd_ != nullptr; }
    [[nodiscard]] svc::Service& service() {
        return wire() ? netd_->service() : *service_;
    }
    [[nodiscard]] const char* span_name() const {
        return wire() ? "net.NetClient::run" : "svc.Service::run";
    }
    /// Tenant id client `c` is billed to: its own in process; over the
    /// wire every request bills tenant 0 (OP_REQUEST carries no tenant).
    [[nodiscard]] std::uint32_t tenant(std::size_t c) const {
        return wire() ? 0 : static_cast<std::uint32_t>(c + 1);
    }
    [[nodiscard]] std::uint64_t served() const {
        return wire() ? netd_->served() : 0;
    }

    struct Outcome {
        bool ok = false;
        double seconds = 0;
        std::uint32_t makespan = 0;
    };
    /// One blocking request as client `c`; throws what the door throws.
    Outcome call(std::size_t c, const Signature& sig) {
        if (wire()) {
            const net::OpResponseMsg m = conns_[c]->run(sig);
            return {wire_response_ok(m), m.seconds, m.sim_makespan};
        }
        const svc::Response resp =
            service_->run(svc::Request{sig, tenant(c)});
        return {response_ok(resp), resp.stats.seconds,
                resp.stats.sim_makespan};
    }

  private:
    std::unique_ptr<svc::Service> service_;
    std::unique_ptr<net::Netd> netd_;
    std::vector<std::unique_ptr<net::NetClient>> conns_; ///< after netd_
};

/// svc_hot (wire == false) and wire_hot (wire == true): the same seeded
/// mix and client count through the in-process or the socket front door.
Report run_hot(const Options& opt, bool wire) {
    Report r;
    const int rounds = window_count(opt.seconds, kRoundSeconds);
    const Phases phases =
        plan_phases(opt, rounds, std::max(0, kSetupSamples - rounds));
    const std::vector<Signature> mix = hot_mix(opt.seed);
    for (const Signature& sig : mix) {
        r.line("signature " + sig.to_string());
    }
    std::unique_ptr<Trace> trace =
        opt.trace ? std::make_unique<Trace>() : nullptr;
    std::vector<Client> clients =
        make_clients(opt.seed, kHotClients, trace.get());
    const std::string socket_path =
        opt.work_dir + "/netd-" + std::to_string(::getpid()) + ".sock";
    Totals t;
    Outside o;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    for (int round = -phases.setup_only; round < phases.rounds; ++round) {
        const Clock::time_point t0 = Clock::now();
        HotDoor door(wire, socket_path, kHotClients, o.connect_ms);
        bool warm_ok = true;
        for (const Signature& sig : mix) {
            warm_ok = door.call(0, sig).ok && warm_ok;
        }
        t.setup_s.push_back(seconds_between(t0, Clock::now()));
        r.gate("warm_set_verified", warm_ok, "a warm-set request failed");
        if (round < 0) {
            continue;
        }
        svc::Service& service = door.service();
        const hcube::model::CommParams comm =
            service.session().selector().comm_params();

        for (Client& c : clients) {
            c.round_requests = 0;
        }
        const obs::RegistrySnapshot s0 = obs::registry().snapshot();
        const hcube::CacheStats c0 = service.session().cache_stats();
        obs::RegistrySnapshot round_obs;
        double round_rate = 0;
        for (int p = 0; p < phases.count; ++p) {
            const int windows = window_count(phases.seconds, kWindowSeconds);
            const obs::RegistrySnapshot d = measure(
                clients, p, phases.seconds, windows, t, [&](std::size_t ci) {
                    Client& c = clients[ci];
                    const Signature& sig =
                        mix[c.rng.next_below(mix.size())];
                    const std::uint64_t req = c.next_request++;
                    const Clock::time_point a = Clock::now();
                    HotDoor::Outcome out;
                    try {
                        const SpanLog::Scope span(c.span_log(p),
                                                  door.span_name(), req);
                        out = door.call(ci, sig);
                    } catch (const std::exception&) {
                        out.ok = false;
                    }
                    c.record(p, ns_between(a, Clock::now()), out.ok);
                    if (out.ok && p == kUntraced &&
                        sig.op == Op::broadcast) {
                        c.model_ratio.add(model_ratio(out.seconds,
                                                      out.makespan,
                                                      sig.block_elems, comm));
                    }
                });
            if (p == kUntraced) {
                round_obs = d;
                round_rate = std::accumulate(t.window_rates.end() - windows,
                                             t.window_rates.end(), 0.0) /
                             windows;
                const hcube::CacheStats c1 = service.session().cache_stats();
                hits += c1.hits - c0.hits;
                misses += c1.misses - c0.misses;
            }
        }
        service.drain();

        std::uint64_t sent = 0;
        std::vector<std::pair<std::uint32_t, std::uint64_t>> billed;
        for (std::size_t ci = 0; ci < clients.size(); ++ci) {
            sent += clients[ci].round_requests;
            if (!wire) {
                billed.emplace_back(door.tenant(ci),
                                    clients[ci].round_requests);
            }
        }
        if (wire) {
            billed.emplace_back(0, sent);
            r.gate("netd_served_matches_sent",
                   door.served() == sent + mix.size(),
                   "netd served " + std::to_string(door.served()) +
                       " of " + std::to_string(sent + mix.size()) +
                       " wire requests");
        }
        check_service_round(r, service,
                            delta(obs::registry().snapshot(), s0), billed);

        const double serial =
            static_cast<double>(round_obs.counter("rt.plays_serial"));
        const double plays =
            serial +
            static_cast<double>(round_obs.counter("rt.plays_stealing"));
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "round %d: setup %.2f ms, %.0f ops/s, serial share "
                      "%.3f, tau %.3g s, t_c %.3g s",
                      round, t.setup_s.back() * 1e3, round_rate,
                      ratio(serial, plays), comm.tau, comm.tc);
        r.line(buf);
    }
    if (wire) {
        std::remove(socket_path.c_str()); // Netd leaves its socket file
    }

    o.cache_hit_rate = ratio(static_cast<double>(hits),
                             static_cast<double>(hits + misses));
    o.model_ratio = model_ratios(clients);

    finish_report(r, opt, clients, t, o, phases, trace.get(), wire);
    return r;
}

// ---- svc_churn -------------------------------------------------------------

constexpr dim_t kChurnCube = 8;
constexpr std::uint32_t kChurnClients = 2;
constexpr std::size_t kChurnPopulation = 2000;
/// Zipf exponent of signature popularity.
constexpr double kChurnZipf = 0.9;
/// Plan-cache byte budget: well below the population's resident size, so
/// most requests miss.
constexpr std::uint64_t kChurnCacheBytes = std::uint64_t{8} << 20;
/// Requests (over both clients) between membership transitions.
constexpr std::uint64_t kTransitionEvery = 50;

/// The addresses that leave and rejoin, one per height 6, 7 and 8: each
/// transition re-keys only the sub-cubes that contain its address.
std::vector<node_t> churn_movers(std::uint64_t seed) {
    SplitMix64 rng(seed ^ 0x13198a2e03707344ull);
    return {static_cast<node_t>(32 + rng.next_below(32)),
            static_cast<node_t>(64 + rng.next_below(64)),
            static_cast<node_t>(128 + rng.next_below(128))};
}

/// The churn population: 2000 distinct signatures over n = 3..8, SBT-family
/// broadcast, scatter, gather and reduce with packets and block size
/// (8-1024 doubles) varied. Signature i's shape is a fixed function of i
/// and only its root is seeded, so every seed asks for the same amount of
/// work and runs stay comparable; the seed also picks the movers and the
/// request stream. MSBT and BST appear only for n <= 5, below every mover,
/// because an incomplete view refuses them by design, and no root is ever
/// a mover, so no request is ever legitimately rejected.
std::vector<Signature> churn_population(std::uint64_t seed,
                                        const std::vector<node_t>& movers) {
    static constexpr Op kOps[] = {Op::broadcast, Op::scatter, Op::gather,
                                  Op::reduce};
    SplitMix64 rng(seed ^ 0xa4093822299f31d0ull);
    std::set<Signature> seen;
    std::vector<Signature> pop;
    for (std::size_t i = 0; i < kChurnPopulation; ++i) {
        const std::size_t v = i / 24; // variant of this (op, n) pair
        Signature sig;
        sig.op = kOps[i % 4];
        sig.n = static_cast<dim_t>(3 + (i / 4) % 6);
        const bool alternate =
            sig.n <= 5 && sig.op != Op::reduce && v % 2 == 1;
        sig.family = !alternate ? Family::sbt
                     : sig.op == Op::broadcast ? Family::msbt
                                               : Family::bst;
        const auto step = static_cast<packet_t>(v / 2);
        if (sig.family == Family::msbt) {
            sig.packets = static_cast<packet_t>(sig.n) * (1 + step % 2);
        } else if (sig.op == Op::broadcast) {
            sig.packets = 1 + step % 4;
        } else {
            sig.packets = 1 + step % 2;
        }
        sig.block_elems = 8u << ((v / 8) % 8); // 8 .. 1024
        do {
            sig.root =
                static_cast<node_t>(rng.next_below(node_t{1} << sig.n));
        } while (std::find(movers.begin(), movers.end(), sig.root) !=
                     movers.end() ||
                 seen.count(sig) != 0);
        seen.insert(sig);
        pop.push_back(sig);
    }
    return pop;
}

/// Cumulative Zipf(kChurnZipf) weights over popularity ranks.
std::vector<double> zipf_cdf(std::size_t n) {
    std::vector<double> cdf(n);
    double sum = 0;
    for (std::size_t r = 0; r < n; ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r + 1), kChurnZipf);
        cdf[r] = sum;
    }
    for (double& v : cdf) {
        v /= sum;
    }
    return cdf;
}

/// Replays the cold path of a missed signature one layer at a time, each
/// step in its own span: generate, validate, compile, barrier oracle play,
/// async play. Returns the schedule's send count; false in `clean` when a
/// replayed play did not deliver cleanly.
std::uint64_t replay_cold_path(const Signature& sig, const hcube::mbr::View& view,
                               std::uint32_t threads, rt::WorkerPool* pool,
                               SpanLog* log, std::uint64_t req, bool& clean) {
    const SpanLog::Scope whole(log, "bench.replay_cold_path", req);
    const hcube::mbr::View sub = view.restricted(sig.n);
    svc::GeneratedSchedule gen;
    {
        const SpanLog::Scope span(log, "routing.make_schedule", req);
        gen = sub.full() ? svc::make_schedule(sig)
                         : svc::make_schedule(sig, sub);
    }
    {
        const SpanLog::Scope span(log, "sim.execute_schedule", req);
        (void)hcube::sim::execute_schedule(gen.feasibility, sig.model);
    }
    const std::vector<node_t> members =
        sub.full() ? std::vector<node_t>{} : sub.members();
    std::optional<rt::Plan> plan;
    {
        const SpanLog::Scope span(log, "rt.compile_plan", req);
        plan.emplace(rt::compile_plan(gen.exec, gen.mode, sig.block_elems,
                                      std::min(threads, sub.count()), 8,
                                      rt::PlanLayout::automatic, members));
    }
    rt::Player oracle(*plan);
    rt::PlayStats stats;
    {
        const SpanLog::Scope span(log, "rt.Player::play", req);
        stats = oracle.play(pool);
    }
    clean = clean && stats.clean() &&
            stats.blocks_delivered == gen.exec.sends.size();
    rt::AsyncPlayer player(*plan);
    {
        const SpanLog::Scope span(log, "rt.AsyncPlayer::play", req);
        stats = player.play(pool);
    }
    clean = clean && stats.clean() &&
            stats.blocks_delivered == gen.exec.sends.size();
    return gen.exec.sends.size();
}

Report run_svc_churn(const Options& opt) {
    Report r;
    const Phases phases = plan_phases(opt, 1, 0);
    const std::vector<node_t> movers = churn_movers(opt.seed);
    const std::vector<Signature> population =
        churn_population(opt.seed, movers);
    // Popularity order: a fixed shuffle of the population, the same for
    // every seed, so the shapes at the head of the Zipf curve (which
    // decide most of the cost) do not change with the seed.
    std::vector<std::size_t> by_rank(population.size());
    for (std::size_t i = 0; i < by_rank.size(); ++i) {
        by_rank[i] = i;
    }
    SplitMix64(0x082efa98ec4e6c89ull).shuffle(by_rank);
    const std::vector<double> cdf = zipf_cdf(population.size());
    r.line("population: " + std::to_string(population.size()) +
           " signatures, zipf " + std::to_string(kChurnZipf) +
           ", movers " + std::to_string(movers[0]) + " " +
           std::to_string(movers[1]) + " " + std::to_string(movers[2]) +
           ", cache budget " + std::to_string(kChurnCacheBytes >> 20) +
           " MiB");

    std::unique_ptr<Trace> trace =
        opt.trace ? std::make_unique<Trace>() : nullptr;
    std::vector<Client> clients =
        make_clients(opt.seed, kChurnClients, trace.get());
    Totals t;
    Outside o;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evicted_total = 0;
    std::uint64_t replay_sends = 0;
    std::uint64_t replays = 0;
    bool replay_clean = true;
    bool transitions_ok = true;

    svc::ServiceParams params;
    params.session.plan_cache_bytes = kChurnCacheBytes;
    // svc_churn's set-up is construction only.
    const auto build = [&] {
        const Clock::time_point t0 = Clock::now();
        auto built = std::make_unique<svc::Service>(kChurnCube, params);
        t.setup_s.push_back(seconds_between(t0, Clock::now()));
        return built;
    };
    const int windows = window_count(phases.seconds, kWindowSeconds);
    const std::function<void(int)> spare_setups = [&](int w) {
        for (int i = 0; i < spares_before(w, windows); ++i) {
            (void)build();
        }
    };
    const std::unique_ptr<svc::Service> owned = build();
    svc::Service& service = *owned;
    svc::Session& session = service.session();
    // The traced replays play on a pool of their own (the session keeps its
    // pool private), unpinned, with as many workers as the session's.
    std::unique_ptr<rt::WorkerPool> replay_pool =
        opt.trace ? std::make_unique<rt::WorkerPool>(session.threads(), false)
                  : nullptr;

    std::atomic<std::uint64_t> requests{0};
    std::mutex transition_mutex; // guards the transition tallies
    std::uint64_t transitions = 0;
    /// A traced miss, replayed once the traced phase has ended.
    struct Miss {
        Signature sig;
        hcube::mbr::View view;
        std::uint64_t req;
    };
    std::vector<std::vector<Miss>> missed(clients.size());

    const auto request = [&](std::size_t ci, int p) {
        Client& c = clients[ci];
        const std::uint64_t req = c.next_request++;
        if ((requests.fetch_add(1) + 1) % kTransitionEvery == 0) {
            // Alternate leave and join of one mover at a time, so at most
            // one address is ever dead.
            const std::lock_guard<std::mutex> lock(transition_mutex);
            const std::uint64_t k = transitions++;
            const node_t v = movers[(k / 2) % movers.size()];
            const bool leave = k % 2 == 0;
            const Clock::time_point a = Clock::now();
            try {
                const SpanLog::Scope span(
                    c.span_log(p),
                    leave ? "mbr.Session::leave" : "mbr.Session::join", req);
                evicted_total += leave ? session.leave(v) : session.join(v);
            } catch (const std::exception&) {
                transitions_ok = false;
            }
            o.transition_us.push_back(
                static_cast<double>(ns_between(a, Clock::now())) / 1e3);
        }
        const double u = static_cast<double>(c.rng.next() >> 11) * 0x1.0p-53;
        const std::size_t rank = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        const Signature& sig =
            population[by_rank[std::min(rank, cdf.size() - 1)]];
        const Clock::time_point a = Clock::now();
        svc::Response resp;
        bool ok = false;
        try {
            const SpanLog::Scope span(c.span_log(p), "svc.Service::run", req);
            resp = service.run(
                svc::Request{sig, static_cast<std::uint32_t>(ci + 1)});
            ok = response_ok(resp);
        } catch (const std::exception&) {
            ok = false;
        }
        c.record(p, ns_between(a, Clock::now()), ok);
        if (p == kTraced && ok && !resp.stats.cache_hit) {
            missed[ci].push_back({sig, session.view(), req});
        }
    };

    const obs::RegistrySnapshot s0 = obs::registry().snapshot();
    (void)closed_loop(clients.size(), kWarmupSeconds,
                      [&](std::size_t ci) { request(ci, kWarmup); });
    for (int p = 0; p < phases.count; ++p) {
        const hcube::CacheStats c0 = session.cache_stats();
        const std::uint64_t e0 = session.epoch_evictions();
        measure(
            clients, p, phases.seconds, windows, t,
            [&](std::size_t ci) { request(ci, p); },
            p == kUntraced ? spare_setups : std::function<void(int)>{});
        if (p == kUntraced) {
            const hcube::CacheStats c1 = session.cache_stats();
            hits += c1.hits - c0.hits;
            misses += c1.misses - c0.misses;
            o.evictions += static_cast<double>(c1.evictions - c0.evictions);
            o.epoch_evictions +=
                static_cast<double>(session.epoch_evictions() - e0);
        }
    }
    // Replayed after the traced phase, so that neither the replays' time
    // nor their competition for the cores counts in its ops/s.
    for (std::size_t ci = 0; ci < clients.size(); ++ci) {
        for (const Miss& m : missed[ci]) {
            bool clean = true;
            replay_sends +=
                replay_cold_path(m.sig, m.view, session.threads(),
                                 replay_pool.get(), clients[ci].log, m.req,
                                 clean);
            ++replays;
            replay_clean = replay_clean && clean;
        }
    }
    service.drain();
    std::vector<std::pair<std::uint32_t, std::uint64_t>> billed;
    for (std::size_t ci = 0; ci < clients.size(); ++ci) {
        billed.emplace_back(static_cast<std::uint32_t>(ci + 1),
                            clients[ci].round_requests);
    }
    check_service_round(r, service, delta(obs::registry().snapshot(), s0),
                        billed);
    o.resident_mib =
        static_cast<double>(session.cache_resident_bytes()) / 1048576.0;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "end of run: %llu transitions, %zu plans resident (%.2f "
                  "MiB)",
                  static_cast<unsigned long long>(transitions),
                  session.cached_plans(), o.resident_mib);
    r.line(buf);
    r.gate("transitions_succeeded", transitions_ok,
           "a membership transition threw");
    r.gate("replayed_cold_path_clean", replay_clean,
           "a replayed play did not deliver cleanly");
    o.cache_hit_rate = ratio(static_cast<double>(hits),
                             static_cast<double>(hits + misses));
    o.evicted_per_transition =
        ratio(static_cast<double>(evicted_total),
              static_cast<double>(o.transition_us.size()));
    o.replay_sends_per_op = ratio(static_cast<double>(replay_sends),
                                  static_cast<double>(replays));

    finish_report(r, opt, clients, t, o, phases, trace.get(), false);
    return r;
}

// ---- ft_heal ---------------------------------------------------------------

constexpr dim_t kFtCube = 5;

/// The four self-healing ops ft_heal cycles through.
enum class FtKind { broadcast_sbt, broadcast_msbt, scatter_sbt, members };
constexpr const char* kFtSpan[] = {"ft.broadcast_sbt", "ft.broadcast_msbt",
                                   "ft.scatter_sbt", "ft.broadcast_members"};
constexpr packet_t kFtBroadcastPackets = 2 * kFtCube; // MSBT: divisible by n
constexpr packet_t kFtScatterPerDest = 2;

ft::RecoveryResult ft_call(ft::ResilientComm& comm, int kind, node_t root,
                           const ft::FaultPlan& faults) {
    switch (static_cast<FtKind>(kind)) {
    case FtKind::broadcast_sbt:
        return comm.broadcast_sbt(root, kFtBroadcastPackets, faults);
    case FtKind::broadcast_msbt:
        return comm.broadcast_msbt(root, kFtBroadcastPackets, faults);
    case FtKind::scatter_sbt:
        return comm.scatter_sbt(root, kFtScatterPerDest, faults);
    case FtKind::members:
        return comm.broadcast_members(root, kFtBroadcastPackets, faults);
    }
    throw std::logic_error("unknown ft op");
}

/// The directed links a schedule uses, with the number of blocks each
/// carries.
std::vector<std::pair<ft::DirectedLink, std::uint32_t>>
used_links(const hcube::sim::Schedule& schedule) {
    std::map<std::pair<node_t, node_t>, std::uint32_t> counts;
    for (const hcube::sim::ScheduledSend& send : schedule.sends) {
        ++counts[{send.from, send.to}];
    }
    std::vector<std::pair<ft::DirectedLink, std::uint32_t>> out;
    for (const auto& [link, pushes] : counts) {
        out.push_back({{link.first, link.second}, pushes});
    }
    return out;
}

Report run_ft_heal(const Options& opt) {
    Report r;
    const Phases phases = plan_phases(opt, 1, 0);
    SplitMix64 roots_rng(opt.seed ^ 0xbe5466cf34e90c6cull);
    node_t roots[4];
    for (node_t& root : roots) {
        root = static_cast<node_t>(roots_rng.next_below(node_t{1} << kFtCube));
    }
    r.line("roots: sbt " + std::to_string(roots[0]) + ", msbt " +
           std::to_string(roots[1]) + ", scatter " +
           std::to_string(roots[2]) + ", members " +
           std::to_string(roots[3]));
    std::unique_ptr<Trace> trace =
        opt.trace ? std::make_unique<Trace>() : nullptr;
    std::vector<Client> clients = make_clients(opt.seed, 1, trace.get());
    Client& c = clients[0];
    Totals t;
    Outside o;
    std::uint64_t measured = 0;
    std::uint64_t attempts = 0;
    std::uint64_t fired = 0;
    std::uint64_t healed = 0;
    std::uint64_t silent_kills = 0;
    double oracle_s = 0;

    // A built front door: the comm plus the links each op's fault-free
    // schedule uses (where its kills go).
    struct FtDoor {
        std::unique_ptr<ft::ResilientComm> comm;
        std::vector<std::pair<ft::DirectedLink, std::uint32_t>> links[4];
    };
    const auto build = [&] {
        FtDoor door;
        const Clock::time_point t0 = Clock::now();
        door.comm = std::make_unique<ft::ResilientComm>(kFtCube);
        bool warm_ok = true;
        for (int k = 0; k < 4; ++k) {
            const ft::RecoveryResult w = ft_call(*door.comm, k, roots[k], {});
            warm_ok = recovery_ok(w) && warm_ok;
            oracle_s += w.oracle_seconds;
            door.links[k] = used_links(w.final_schedule);
        }
        t.setup_s.push_back(seconds_between(t0, Clock::now()));
        r.gate("warm_set_verified", warm_ok, "a warm-set op failed");
        return door;
    };
    const int windows = window_count(phases.seconds, kWindowSeconds);
    const std::function<void(int)> spare_setups = [&](int w) {
        for (int i = 0; i < spares_before(w, windows); ++i) {
            (void)build();
        }
    };
    const FtDoor door = build();
    ft::ResilientComm& comm = *door.comm;

    std::uint64_t op = 0;
    std::uint64_t faulted_slot = 0;
    const auto request = [&](int p) {
        const int kind = static_cast<int>(op % 4);
        if (kind == 0) {
            faulted_slot = c.rng.next_below(4); // one op in four
        }
        ft::FaultPlan faults;
        const bool armed = static_cast<std::uint64_t>(kind) == faulted_slot;
        if (armed) {
            const auto& [link, pushes] =
                door.links[kind][c.rng.next_below(door.links[kind].size())];
            faults.kill_link(link.from, link.to, pushes / 2);
        }
        const std::uint64_t req = c.next_request++;
        ++op;
        const Clock::time_point a = Clock::now();
        ft::RecoveryResult res;
        bool ok = false;
        try {
            const SpanLog::Scope span(c.span_log(p), kFtSpan[kind], req);
            res = ft_call(comm, kind, roots[kind], faults);
            ok = recovery_ok(res);
        } catch (const std::exception&) {
            ok = false;
        }
        c.record(p, ns_between(a, Clock::now()), ok);
        for (const node_t v : res.dead_nodes) {
            comm.readmit(v); // the dead member comes back
        }
        if (armed && res.reports.empty()) {
            ++silent_kills;
        }
        if (static_cast<FtKind>(kind) == FtKind::members) {
            // Member ops report oracle time only when they built one (a
            // survivor view seen for the first time).
            oracle_s += res.oracle_seconds;
        }
        if (p != kUntraced) {
            return;
        }
        ++measured;
        attempts += res.attempts;
        o.ft_final_us.push_back(res.final_seconds * 1e6);
        if (!res.reports.empty()) {
            ++fired;
            healed += res.recovered && res.delivered ? 1 : 0;
            o.ft_recovery_ms.push_back(res.recovery_seconds * 1e3);
        }
    };

    (void)closed_loop(1, kWarmupSeconds,
                      [&](std::size_t) { request(kWarmup); });
    for (int p = 0; p < phases.count; ++p) {
        measure(
            clients, p, phases.seconds, windows, t,
            [&](std::size_t) { request(p); },
            p == kUntraced ? spare_setups : std::function<void(int)>{});
    }
    r.gate("every_kill_fired", silent_kills == 0,
           std::to_string(silent_kills) + " armed kills never fired");
    o.ft_oracle_ms = oracle_s * 1e3 / static_cast<double>(t.setup_s.size());
    o.ft_attempts_per_op = ratio(static_cast<double>(attempts),
                                 static_cast<double>(measured));
    o.ft_healed_share =
        ratio(static_cast<double>(healed), static_cast<double>(fired));

    finish_report(r, opt, clients, t, o, phases, trace.get(), false);
    return r;
}

} // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {"svc_hot", "wire_hot",
                                                   "svc_churn", "ft_heal"};
    return names;
}

Report run_workload(const Options& opt) {
    if (opt.workload == "svc_hot" || opt.workload == "wire_hot") {
        return run_hot(opt, opt.workload == "wire_hot");
    }
    if (opt.workload == "svc_churn") {
        return run_svc_churn(opt);
    }
    if (opt.workload == "ft_heal") {
        return run_ft_heal(opt);
    }
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

} // namespace perfbench
