// In-memory spans for the traced run. The benchmark records a span around
// every public call it makes into a layer (and, on svc_churn misses,
// around each step of the replayed cold path); each span carries its name,
// start, end, parent and request id. Spans stay in memory while the run
// measures and are written out as one Trace Event Format file at exit,
// together with each layer's self time (span time not covered by child
// spans).
#pragma once

#include "bench.hpp"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Per-name totals: count, wall time, self time, and the exact durations
/// (for percentiles).
struct SpanStats {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::vector<std::uint64_t> durations;
};

/// The spans of one thread. Never shared between threads: each client
/// thread owns one, so recording takes no lock.
class SpanLog {
  public:
    SpanLog(Clock::time_point epoch, std::uint32_t tid, std::size_t keep);

    /// Opens a span nested in the innermost open one.
    void begin(const char* name, std::uint64_t request);
    /// Closes the innermost open span.
    void end();

    /// RAII form of begin()/end(); a null log records nothing.
    class Scope {
      public:
        Scope(SpanLog* log, const char* name, std::uint64_t request)
            : log_(log) {
            if (log_ != nullptr) {
                log_->begin(name, request);
            }
        }
        ~Scope() {
            if (log_ != nullptr) {
                log_->end();
            }
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        SpanLog* log_;
    };

    [[nodiscard]] const std::map<std::string, SpanStats, std::less<>>&
    stats() const noexcept {
        return stats_;
    }

  private:
    friend class Trace;
    struct Span {
        const char* name;
        std::uint64_t start_ns;
        std::uint64_t dur_ns;
        std::uint64_t request;
        std::int64_t parent; ///< index in kept_, -1 for a root span
    };
    struct Open {
        const char* name;
        Clock::time_point start;
        std::uint64_t request;
        std::uint64_t child_ns;
        std::int64_t index; ///< slot in kept_, -1 when over the cap
    };

    Clock::time_point epoch_;
    std::uint32_t tid_;
    std::size_t keep_;
    std::vector<Open> stack_;
    std::vector<Span> kept_; ///< the first keep_ spans, for the file
    std::map<std::string, SpanStats, std::less<>> stats_;
};

/// Owner of every thread's SpanLog in one traced run.
class Trace {
  public:
    explicit Trace(std::size_t keep_per_thread = 50'000);

    /// A new log for one recording thread.
    [[nodiscard]] SpanLog* add_log();

    /// Stats of every span name, merged across threads.
    [[nodiscard]] std::map<std::string, SpanStats, std::less<>>
    merged() const;

    /// Writes every kept span as a Trace Event Format JSON array
    /// (load it in chrome://tracing or Perfetto). Returns false when the
    /// file cannot be written.
    bool write_chrome(const std::string& path) const;

    /// Self time per layer (the name's prefix before the first '.') as
    /// human-readable lines.
    [[nodiscard]] std::vector<std::string> self_time_lines() const;

  private:
    Clock::time_point epoch_;
    std::size_t keep_;
    std::vector<std::unique_ptr<SpanLog>> logs_;
};

} // namespace perfbench
