// Per-worker execution tracing for the threaded runtime, exported as
// chrome://tracing JSON.
//
// When a TraceRecorder is attached to an engine, every executed action
// (push into a channel, drain out of it) is stamped with begin/end times on
// the worker thread that ran it. Lanes are strictly per-worker — worker w
// writes only lanes_[w], and the caller reads after join — so recording
// needs no synchronization and costs two clock reads per action, paid only
// while a recorder is attached (the hot path tests one pointer otherwise).
//
// Export reuses common/json.hpp: each event becomes one flat "Complete"
// ("ph":"X") event object with ts/dur in microseconds, tid = worker and a
// caller-chosen pid, which is exactly the subset of the Trace Event Format
// that chrome://tracing and Perfetto render as a per-worker timeline.
// Multiple runs (e.g. two players back to back, or the attempts of a
// fault-recovery sequence) can share one recorder epoch and land in one
// timeline.
#pragma once

#include "common/json.hpp"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hcube::rt {

enum class TraceKind : std::uint8_t {
    send, ///< push into a link channel
    recv, ///< drain / verify / combine out of a link channel
};

struct TraceEvent {
    std::uint64_t t0_ns = 0; ///< begin, relative to the recorder epoch
    std::uint64_t t1_ns = 0; ///< end
    std::uint32_t channel = 0;
    std::uint32_t packet = 0;
    std::uint32_t cycle = 0; ///< logical schedule cycle of the action
    TraceKind kind = TraceKind::send;
};

class TraceRecorder {
public:
    using clock = std::chrono::steady_clock;

    explicit TraceRecorder(std::uint32_t workers);

    /// Drops all events and restarts the epoch at "now". Only valid while
    /// no worker thread is recording.
    void reset();

    [[nodiscard]] std::uint32_t workers() const noexcept {
        return static_cast<std::uint32_t>(lanes_.size());
    }

    /// Records one executed action on `worker`'s lane. Called from worker
    /// threads; each worker must only ever pass its own index.
    void record(std::uint32_t worker, TraceKind kind, clock::time_point t0,
                clock::time_point t1, std::uint32_t channel,
                std::uint32_t packet, std::uint32_t cycle) {
        lanes_[worker].events.push_back(
            {to_ns(t0), to_ns(t1), channel, packet, cycle, kind});
    }

    [[nodiscard]] std::size_t event_count() const;
    [[nodiscard]] const std::vector<TraceEvent>&
    lane(std::uint32_t worker) const {
        return lanes_[worker].events;
    }

    /// Appends every recorded event to `json` as chrome-trace "X" events:
    /// tid = worker, pid = `pid` (use distinct pids to separate engines or
    /// recovery attempts in one file), cat = `category`. The caller owns
    /// the surrounding array (begin/close), so several recorders can merge
    /// into one trace.
    void append_chrome_events(JsonArrayWriter& json, std::uint32_t pid,
                              const std::string& category) const;

    /// Writes a complete standalone chrome trace (own array, own file) of
    /// everything recorded so far. Returns false if the file could not be
    /// written. Safe to call after workers have joined, even mid-run when
    /// an abort left the schedule unfinished.
    bool write_chrome_trace(const std::string& path, std::uint32_t pid,
                            const std::string& category) const;

    /// Arms abort salvage: when an engine's run ends with the arbiter in
    /// the aborted state, it calls flush_abort() and whatever was recorded
    /// up to the fault lands at `path` as a valid chrome trace instead of
    /// dying with the run. Empty path disarms.
    void set_abort_path(std::string path) { abort_path_ = std::move(path); }
    [[nodiscard]] const std::string& abort_path() const noexcept {
        return abort_path_;
    }

    /// Engine hook: no-op unless an abort path is armed. Returns true if a
    /// partial trace was written.
    bool flush_abort() const;

private:
    [[nodiscard]] std::uint64_t to_ns(clock::time_point t) const {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
                .count());
    }

    /// One worker's event list, padded so two workers appending
    /// concurrently never false-share the vector headers.
    struct alignas(64) Lane {
        std::vector<TraceEvent> events;
    };

    clock::time_point epoch_;
    std::vector<Lane> lanes_;
    std::string abort_path_;
};

} // namespace hcube::rt
