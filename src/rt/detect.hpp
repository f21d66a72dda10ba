// Fault-detection machinery of the runtime's engines (the AsyncPlayer and
// the net runtime's rank walk).
//
// Detection turns the runtime's silent failure counters into the
// structured abort the recovery layer needs: the first worker to observe a
// failure claims the engine's single FaultReport slot (an exchange on one
// atomic flag — first wins, every later claim is a no-op) and raises the
// abort flag; every other worker polls the flag at its next natural
// boundary and drains out without executing further payload work.
//
// Arrival detection rests on an engine invariant: by the time a pop runs,
// any block that *was* published on its channel is already visible (the
// AsyncPlayer orders the pop after the push action: in program order on
// its serial walk, through an acq_rel dependency edge when it steals).
// On the in-process ring bank a push publishes on the pushing thread, so
// this holds for every push, injected delays included (they stall the
// producer before publication, and so before the pop may run): an empty
// channel at pop time means the block is never coming, and the pop
// reports the arrival timeout at once, with no wait at all
// (rt::publishes_before_pop, rt/transport.hpp). The bounded wait below is
// for backends that publish asynchronously — the socket transport's I/O
// thread — where it gives a wire crossing room to land and caps how long a
// dead link can stall a run.
#pragma once

#include "ft/fault_model.hpp"
#include "obs/metrics.hpp"
#include "rt/channel.hpp"
#include "rt/plan.hpp"

#include <atomic>
#include <chrono>
#include <span>
#include <string>
#include <thread>

namespace hcube::rt {

/// Fills a FaultReport from the plan's channel diagnostics: the directed
/// link behind `channel`, the logical schedule `cycle` of the receive, and
/// the `packet` it expected.
[[nodiscard]] inline ft::FaultReport
make_fault_report(const Plan& plan, ft::DetectClass cls,
                  std::uint32_t channel, std::uint32_t cycle,
                  packet_t packet) {
    ft::FaultReport report;
    report.cls = cls;
    report.from = plan.channel_from(channel);
    report.to = plan.channel_to(channel);
    report.channel = channel;
    report.cycle = cycle;
    report.packet = packet;
    return report;
}

/// First-wins fault report slot plus the abort flag the workers poll.
/// reset() between runs; raise() from any worker; report() after join.
class FaultArbiter {
public:
    /// Only valid while no worker thread is active.
    void reset() noexcept {
        claimed_.store(false, std::memory_order_relaxed);
        abort_.store(false, std::memory_order_relaxed);
        report_ = {};
    }

    [[nodiscard]] bool aborted() const noexcept {
        return abort_.load(std::memory_order_acquire);
    }

    /// Claims the report slot for `report` if no fault was claimed yet and
    /// (if `abort` is set) raises the abort flag. The report fields are
    /// written only by the winning claimer, before the abort release-store,
    /// so the post-join reader sees them complete.
    void raise(const ft::FaultReport& report, bool abort) noexcept {
        if (claimed_.exchange(true, std::memory_order_acq_rel)) {
            return;
        }
        report_ = report;
        // Winning claim only — one registry lookup per detected fault, off
        // the clean-run path entirely.
        obs::registry()
            .counter(std::string("ft.report.") + ft::to_string(report.cls))
            .inc();
        if (abort) {
            abort_.store(true, std::memory_order_release);
        }
    }

    /// The first claimed fault (cls == none if the run was clean). Only
    /// valid after the worker pool has been joined.
    [[nodiscard]] const ft::FaultReport& report() const noexcept {
        return report_;
    }

private:
    std::atomic<bool> claimed_{false};
    std::atomic<bool> abort_{false};
    ft::FaultReport report_{};
};

/// Polls `channels.front(channel)` until a descriptor appears, the arbiter
/// aborts, or `timeout_us` elapses. Returns false on timeout/abort. The
/// caller re-checks packet/seq itself. Used only on backends without
/// publishes_before_pop: on the socket transport this is the wait that
/// gives a wire crossing — and its ack-timeout retransmits — room to land.
template <class Bank>
[[nodiscard]] inline bool
await_front(const Bank& channels, std::uint32_t channel,
            ChannelBank::Desc& d, std::uint32_t timeout_us,
            const FaultArbiter& arbiter) {
    using clock = std::chrono::steady_clock;
    const clock::time_point deadline =
        clock::now() + std::chrono::microseconds(timeout_us);
    for (;;) {
        if (channels.front(channel, d)) {
            return true;
        }
        if (arbiter.aborted() || clock::now() >= deadline) {
            return false;
        }
        std::this_thread::yield();
    }
}

} // namespace hcube::rt
