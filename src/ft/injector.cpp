#include "ft/injector.hpp"

#include <chrono>
#include <thread>

namespace hcube::ft {

void FaultInjector::arm(const rt::Plan& plan) {
    armed_.assign(plan.channel_count, {});
    pushes_.assign(plan.channel_count, 0);
    unmatched_ = 0;
    dropped_.store(0, std::memory_order_relaxed);
    corrupted_.store(0, std::memory_order_relaxed);
    delayed_.store(0, std::memory_order_relaxed);
    for (const FaultSpec& spec : plan_.specs()) {
        bool matched = false;
        for (std::uint32_t c = 0; c < plan.channel_count; ++c) {
            if (plan.channel_from(c) == spec.link.from &&
                plan.channel_to(c) == spec.link.to) {
                armed_[c].push_back(spec);
                matched = true;
                break; // channel ids are unique per directed link
            }
        }
        if (!matched) {
            ++unmatched_;
        }
    }
}

void FaultInjector::rewind() noexcept {
    for (std::uint32_t& count : pushes_) {
        count = 0;
    }
}

PushVerdict FaultInjector::on_push(std::uint32_t channel,
                                   std::uint32_t /*seq*/,
                                   std::span<double> payload) noexcept {
    const std::uint32_t k = pushes_[channel]++;
    for (const FaultSpec& spec : armed_[channel]) {
        if (k < spec.at_push || k - spec.at_push >= spec.pushes) {
            continue;
        }
        switch (spec.cls) {
        case InjectClass::kill_link:
        case InjectClass::transient_drop:
            dropped_.fetch_add(1, std::memory_order_relaxed);
            return PushVerdict::drop;
        case InjectClass::corrupt_payload:
            // The canonical payload holds exact small integers; a
            // half-integer perturbation is guaranteed to change the
            // receiver's checksum of the block.
            payload[k % payload.size()] +=
                0.5 + static_cast<double>(spec.param);
            corrupted_.fetch_add(1, std::memory_order_relaxed);
            break;
        case InjectClass::delay_delivery:
            // Stalls the producer *before* publication. The engines run
            // the consumer's pop only after this push returns, so the
            // delay is absorbed, never seen as a missing block.
            std::this_thread::sleep_for(
                std::chrono::microseconds(spec.param));
            delayed_.fetch_add(1, std::memory_order_relaxed);
            break;
        }
    }
    return PushVerdict::deliver;
}

} // namespace hcube::ft
