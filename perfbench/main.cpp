// perfbench — the repository benchmark's binary. One invocation
// runs one workload in its own process (so peak RSS, set-up time and obs
// deltas belong to that workload alone), checks every response and the
// service ledgers, and prints a human-readable report followed by one JSON
// line with every metric it measured. perfbench/run.py builds this binary
// and turns that line into the benchmark's result.
//
//   perfbench --workload svc_hot|wire_hot|svc_churn|ft_heal --seed <n>
//             --seconds <s> --trace 0|1 [--work-dir <dir>]
//             [--commit <id>] [--held-out-seed <n>]
#include "bench.hpp"
#include "workloads.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

namespace {

/// JSON string literal with the characters the report can contain escaped.
std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            out += ' ';
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed "
                 "<n> --seconds <s> --trace 0|1 [--work-dir <dir>] "
                 "[--commit <id>] [--held-out-seed <n>]\n",
                 why);
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    perfbench::Options opt;
    std::string commit = "unknown";
    std::string held_out = "none";
    bool have_workload = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (i + 1 >= argc) {
                return usage(("missing value for " + arg).c_str());
            }
            const std::string value = argv[++i];
            if (arg == "--workload") {
                opt.workload = value;
                have_workload = true;
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value);
            } else if (arg == "--trace") {
                opt.trace = value == "1";
            } else if (arg == "--work-dir") {
                opt.work_dir = value;
            } else if (arg == "--commit") {
                commit = value;
            } else if (arg == "--held-out-seed") {
                held_out = value;
            } else {
                return usage(("unknown argument " + arg).c_str());
            }
        }
    } catch (const std::exception&) {
        return usage("malformed numeric argument");
    }

    if (!have_workload || !(opt.seconds > 0)) {
        return usage("--workload and a positive --seconds are required");
    }
    std::string gate_detail;
    const bool gates_sound = perfbench::gate_self_check(gate_detail);

    perfbench::Report report;
    int spinners = 0;
    try {
        const perfbench::IdleSpinners keep_cpus_busy;
        report = perfbench::run_workload(opt);
        spinners = keep_cpus_busy.running();
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opt.workload.c_str(), ex.what());
        return 1;
    }
    report.gate("gate_self_check", gates_sound, gate_detail);
    for (perfbench::Metric& m : report.metrics) {
        if (!std::isfinite(m.value)) {
            report.gate("metrics_finite", false, m.name + " is not finite");
            m.value = 0;
        }
    }

    auto context = perfbench::machine_context();
    context.emplace_back("idle_spinners", std::to_string(spinners));
    std::printf("== perfbench %s  seed %" PRIu64 "  trace %d  %.1f s ==\n",
                opt.workload.c_str(), opt.seed, opt.trace ? 1 : 0,
                opt.seconds);
    std::printf("context: commit %s, held-out seed %s", commit.c_str(),
                held_out.c_str());
    for (const auto& [key, value] : context) {
        std::printf(", %s %s", key.c_str(), value.c_str());
    }
    std::printf("\n");
    for (const std::string& line : report.lines) {
        std::printf("%s\n", line.c_str());
    }
    for (const perfbench::Metric& m : report.metrics) {
        std::printf("metric %-28s %14.4f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    for (const perfbench::Gate& g : report.gates) {
        std::printf("gate   %-36s %s%s%s\n", g.name.c_str(),
                    g.ok ? "ok" : "BROKEN", g.ok ? "" : ": ",
                    g.detail.c_str());
    }
    std::printf("ops: %" PRIu64 " attempted, %" PRIu64 " failed\n",
                report.attempted, report.failed);

    // The machine-readable line run.py consumes; always the last line.
    std::string json = "{\"workload\":" + quoted(opt.workload) +
                       ",\"seed\":" + std::to_string(opt.seed) +
                       ",\"trace\":" + (opt.trace ? "1" : "0") +
                       ",\"correct\":" +
                       (report.gates_ok() && report.failed == 0 ? "true"
                                                                : "false") +
                       ",\"attempted\":" + std::to_string(report.attempted) +
                       ",\"failed\":" + std::to_string(report.failed) +
                       ",\"metrics\":{";
    char num[64];
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const perfbench::Metric& m = report.metrics[i];
        std::snprintf(num, sizeof num, "%.17g", m.value);
        json += (i ? "," : "") + quoted(m.name) + ":{\"value\":" + num +
                ",\"unit\":" + quoted(m.unit) + "}";
    }
    json += "},\"gates\":{";
    for (std::size_t i = 0; i < report.gates.size(); ++i) {
        json += (i ? "," : "") + quoted(report.gates[i].name) + ":" +
                (report.gates[i].ok ? "true" : "false");
    }
    json += "},\"context\":{\"commit\":" + quoted(commit) +
            ",\"held_out_seed\":" + quoted(held_out);
    for (const auto& [key, value] : context) {
        json += "," + quoted(key) + ":" + quoted(value);
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
