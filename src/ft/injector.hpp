// Maps a FaultPlan onto a compiled rt::Plan's channels and applies it from
// inside ChannelBank's push hook.
//
// The injector counts *logical* pushes per channel itself (the k-th block
// the schedule ever offers to the link, whether or not an earlier one was
// dropped): the bank's own sequence counter stamps publications only, so it
// falls behind the logical count as soon as a block is swallowed — which is
// precisely the desynchronization the detection layer later observes as an
// arrival timeout or a stream mismatch. The per-channel counters are plain
// (non-atomic) uint32: pushes on one channel are serialized by the
// AsyncPlayer's ring-order dependency edges (or run on its one serial
// thread), and the hook runs on the pushing thread.
#pragma once

#include "ft/fault_model.hpp"
#include "rt/plan.hpp"

#include <atomic>
#include <cstdint>
#include <vector>

namespace hcube::ft {

/// The ChannelFaultHook implementation behind every injected scenario.
/// Lifecycle: construct from a FaultPlan, arm() against each compiled
/// rt::Plan it will run under, install via the engine's set_fault_hook
/// unless inert(), rewind() between runs of the same plan.
class FaultInjector final : public ChannelFaultHook {
public:
    explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

    /// Resolves the fault plan's directed links against `plan`'s channel
    /// table and rewinds the logical push counters. Faults on links the
    /// schedule never uses stay unmatched (inert); unmatched() reports how
    /// many, so a test can assert its fault actually landed.
    void arm(const rt::Plan& plan);

    /// Rewinds the logical push counters for a re-run of the armed plan.
    /// Only valid while no worker thread is active.
    void rewind() noexcept;

    [[nodiscard]] PushVerdict on_push(std::uint32_t channel,
                                      std::uint32_t seq,
                                      std::span<double> payload)
        noexcept override;

    [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
    [[nodiscard]] std::size_t unmatched() const noexcept {
        return unmatched_;
    }
    /// True when arm() matched no spec to the plan's channels: the hook
    /// could never fire there, so a run need not install it.
    [[nodiscard]] bool inert() const noexcept {
        return unmatched_ == plan_.specs().size();
    }
    [[nodiscard]] std::uint64_t dropped() const noexcept {
        return dropped_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t corrupted() const noexcept {
        return corrupted_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t delayed() const noexcept {
        return delayed_.load(std::memory_order_relaxed);
    }

private:
    FaultPlan plan_;
    /// Per channel: the specs armed on it (almost always 0 or 1 entries).
    std::vector<std::vector<FaultSpec>> armed_;
    /// Per channel: logical pushes seen so far this run.
    std::vector<std::uint32_t> pushes_;
    std::size_t unmatched_ = 0;
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> corrupted_{0};
    std::atomic<std::uint64_t> delayed_{0};
};

} // namespace hcube::ft
