#include "trace.hpp"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

namespace {

/// Exact durations kept per span name; enough for stable percentiles,
/// bounded so a long traced run cannot exhaust memory.
constexpr std::size_t kMaxDurations = std::size_t{1} << 20;

std::string_view layer_of(std::string_view name) {
    const std::size_t dot = name.find('.');
    return dot == std::string_view::npos ? name : name.substr(0, dot);
}

} // namespace

SpanLog::SpanLog(Clock::time_point epoch, std::uint32_t tid,
                 std::size_t keep)
    : epoch_(epoch), tid_(tid), keep_(keep) {
    stack_.reserve(16);
}

void SpanLog::begin(const char* name, std::uint64_t request) {
    const Clock::time_point now = Clock::now();
    std::int64_t index = -1;
    if (kept_.size() < keep_) {
        index = static_cast<std::int64_t>(kept_.size());
        const std::int64_t parent =
            stack_.empty() ? -1 : stack_.back().index;
        kept_.push_back({name, ns_between(epoch_, now), 0, request, parent});
    }
    stack_.push_back({name, now, request, 0, index});
}

void SpanLog::end() {
    const Clock::time_point now = Clock::now();
    const Open open = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = ns_between(open.start, now);
    if (open.index >= 0) {
        kept_[static_cast<std::size_t>(open.index)].dur_ns = dur;
    }
    SpanStats& s = stats_[open.name];
    ++s.count;
    s.total_ns += dur;
    s.self_ns += dur > open.child_ns ? dur - open.child_ns : 0;
    if (s.durations.size() < kMaxDurations) {
        s.durations.push_back(dur);
    }
    if (!stack_.empty()) {
        stack_.back().child_ns += dur;
    }
}

Trace::Trace(std::size_t keep_per_thread)
    : epoch_(Clock::now()), keep_(keep_per_thread) {}

SpanLog* Trace::add_log() {
    logs_.push_back(std::make_unique<SpanLog>(
        epoch_, static_cast<std::uint32_t>(logs_.size()), keep_));
    return logs_.back().get();
}

std::map<std::string, SpanStats, std::less<>> Trace::merged() const {
    std::map<std::string, SpanStats, std::less<>> out;
    for (const auto& log : logs_) {
        for (const auto& [name, s] : log->stats()) {
            SpanStats& m = out[name];
            m.count += s.count;
            m.total_ns += s.total_ns;
            m.self_ns += s.self_ns;
            m.durations.insert(m.durations.end(), s.durations.begin(),
                               s.durations.end());
        }
    }
    return out;
}

bool Trace::write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::fputs("[\n", f);
    bool first = true;
    for (const auto& log : logs_) {
        for (std::size_t i = 0; i < log->kept_.size(); ++i) {
            const SpanLog::Span& s = log->kept_[i];
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                         "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                         "\"args\":{\"req\":%" PRIu64 ",\"span\":%zu,"
                         "\"parent\":%" PRId64 "}}",
                         first ? "" : ",\n", s.name,
                         static_cast<int>(layer_of(s.name).size()),
                         layer_of(s.name).data(),
                         static_cast<double>(s.start_ns) / 1e3,
                         static_cast<double>(s.dur_ns) / 1e3, log->tid_,
                         s.request, i, s.parent);
            first = false;
        }
    }
    std::fputs("\n]\n", f);
    return std::fclose(f) == 0;
}

std::vector<std::string> Trace::self_time_lines() const {
    const auto all = merged();
    std::map<std::string, std::uint64_t, std::less<>> by_layer;
    std::uint64_t total = 0;
    for (const auto& [name, s] : all) {
        by_layer[std::string(layer_of(name))] += s.self_ns;
        total += s.self_ns;
    }
    std::vector<std::string> lines;
    char buf[256];
    for (const auto& [layer, ns] : by_layer) {
        std::snprintf(buf, sizeof buf, "self time  %-8s %10.3f ms  %5.1f%%",
                      layer.c_str(), static_cast<double>(ns) / 1e6,
                      total > 0 ? 100.0 * static_cast<double>(ns) /
                                      static_cast<double>(total)
                                : 0.0);
        lines.emplace_back(buf);
    }
    for (const auto& [name, s] : all) {
        std::snprintf(buf, sizeof buf,
                      "  span %-28s n=%-8" PRIu64
                      " mean %10.2f us  self mean %10.2f us",
                      name.c_str(), s.count,
                      static_cast<double>(s.total_ns) / 1e3 /
                          static_cast<double>(s.count),
                      static_cast<double>(s.self_ns) / 1e3 /
                          static_cast<double>(s.count));
        lines.emplace_back(buf);
    }
    return lines;
}

} // namespace perfbench
