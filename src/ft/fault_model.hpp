// The runtime fault model (hcube::ft): what can go wrong on a link, how a
// failure is described once detected, and the narrow hook through which
// faults are injected into the channel layer.
//
// The paper's reliability dividend — the MSBT is log N *edge-disjoint*
// ERSBTs — only pays off if the runtime can experience a link failure,
// notice it, and route around it. This header defines the shared vocabulary
// of that loop:
//
//   inject   FaultPlan + ChannelFaultHook — a deterministic, PRNG-seedable
//            list of per-directed-link faults applied inside ChannelBank at
//            the instant a block is pushed, so the AsyncPlayer's serial
//            and work-stealing walks feel byte-identical failures;
//   detect   DetectConfig + FaultReport — an arrival check on pops (a
//            bounded wait on the socket transports) plus the existing
//            per-block checksum, promoted from a counter into a structured
//            report (which directed link, which logical cycle, which fault
//            class) that aborts an in-flight plan;
//   recover  ft::ResilientComm (resilient.hpp) — replans around the dead
//            link and re-executes idempotently.
//
// This header is deliberately free of rt/ includes: rt/channel.hpp includes
// it for the hook interface, while the ft library's .cpps link against
// hypercoll_rt — dependency edges point one way at each level.
#pragma once

#include "hc/types.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace hcube::ft {

using hc::dim_t;
using hc::node_t;

// ---------------------------------------------------------------------------
// Injection side
// ---------------------------------------------------------------------------

/// A directed cube link, the unit at which faults are injected and links
/// are declared dead (a channel is directed; the reverse direction is a
/// different channel and may be healthy).
struct DirectedLink {
    node_t from = 0;
    node_t to = 0;

    friend bool operator==(const DirectedLink&,
                           const DirectedLink&) = default;
};

/// What a fault does to a block crossing the link.
enum class InjectClass : std::uint8_t {
    kill_link,       ///< every push from `at_push` onwards is swallowed
    transient_drop,  ///< `pushes` consecutive pushes are swallowed
    corrupt_payload, ///< the block's payload is perturbed before delivery
    delay_delivery,  ///< delivery is delayed by `param` microseconds
};

[[nodiscard]] constexpr const char* to_string(InjectClass c) noexcept {
    switch (c) {
    case InjectClass::kill_link: return "kill-link";
    case InjectClass::transient_drop: return "transient-drop";
    case InjectClass::corrupt_payload: return "corrupt-payload";
    case InjectClass::delay_delivery: return "delay-delivery";
    }
    return "?";
}

/// One injected fault: on the directed link `link`, affect the logical
/// pushes numbered [at_push, at_push + pushes) (the k-th block the schedule
/// ever sends across that link, whether or not earlier ones were dropped).
struct FaultSpec {
    DirectedLink link;
    InjectClass cls = InjectClass::kill_link;
    std::uint32_t at_push = 0;
    std::uint32_t pushes = ~std::uint32_t{0};
    /// corrupt_payload: perturbation salt; delay_delivery: microseconds.
    std::uint32_t param = 0;
};

/// A deterministic fault scenario: a list of FaultSpecs, built either by
/// the fluent helpers or PRNG-seeded via `random`. The plan is pure data —
/// it is mapped onto a compiled rt::Plan's channels by ft::FaultInjector.
class FaultPlan {
public:
    FaultPlan() = default;

    /// The link dies permanently before its `at_push`-th block crosses.
    FaultPlan& kill_link(node_t from, node_t to, std::uint32_t at_push = 0);

    /// `pushes` consecutive blocks from `at_push` vanish; later ones pass.
    FaultPlan& drop(node_t from, node_t to, std::uint32_t at_push,
                    std::uint32_t pushes = 1);

    /// The payload of `pushes` blocks from `at_push` is perturbed (the
    /// receiver's checksum catches it); `salt` varies the perturbation.
    FaultPlan& corrupt(node_t from, node_t to, std::uint32_t at_push,
                       std::uint32_t pushes = 1, std::uint32_t salt = 1);

    /// `pushes` blocks from `at_push` arrive `microseconds` late. On the
    /// in-process ring bank any delay is absorbed: the producer stalls
    /// before publication, and the pop runs only after it publishes.
    FaultPlan& delay(node_t from, node_t to, std::uint32_t at_push,
                     std::uint32_t microseconds, std::uint32_t pushes = 1);

    [[nodiscard]] const std::vector<FaultSpec>& specs() const noexcept {
        return specs_;
    }
    [[nodiscard]] bool empty() const noexcept { return specs_.empty(); }

    /// PRNG-seeded scenario: `count` faults on distinct random directed
    /// links of the n-cube, classes cycled through kill / drop / corrupt /
    /// delay. Deterministic for a given seed.
    [[nodiscard]] static FaultPlan random(dim_t n, std::uint64_t seed,
                                          std::uint32_t count);

private:
    std::vector<FaultSpec> specs_;
};

/// Verdict of the injection hook for one push.
enum class PushVerdict : std::uint8_t {
    deliver, ///< publish the block (possibly after mutation / delay)
    drop,    ///< swallow it: the producer sees success, nothing arrives
};

/// The narrow hook ChannelBank consults on every push while a hook is
/// installed. Called on the producer's thread with the payload already
/// copied into the ring slot but before publication, so the hook may
/// mutate the payload in place (corruption), sleep (delay), or veto the
/// publication (drop). `seq` is the channel's publication counter; an
/// injector that must count *logical* pushes across drops keeps its own
/// per-channel counter (pushes on one channel are serialized by the
/// engines' ordering guarantees).
class ChannelFaultHook {
public:
    virtual ~ChannelFaultHook() = default;
    virtual PushVerdict on_push(std::uint32_t channel, std::uint32_t seq,
                                std::span<double> payload) noexcept = 0;
};

// ---------------------------------------------------------------------------
// Detection side
// ---------------------------------------------------------------------------

/// How a failure manifested at the receiver.
enum class DetectClass : std::uint8_t {
    none,             ///< no fault detected
    arrival_timeout,  ///< the expected block never arrived in bound
    checksum_mismatch,///< the block arrived with a corrupted payload
    stream_mismatch,  ///< wrong packet or sequence stamp at the ring head
};

[[nodiscard]] constexpr const char* to_string(DetectClass c) noexcept {
    switch (c) {
    case DetectClass::none: return "none";
    case DetectClass::arrival_timeout: return "arrival-timeout";
    case DetectClass::checksum_mismatch: return "checksum-mismatch";
    case DetectClass::stream_mismatch: return "stream-mismatch";
    }
    return "?";
}

/// Structured failure description raised by an execution engine: which
/// directed link failed, during which logical schedule cycle, and how the
/// failure manifested. The first fault of a run wins; the engine then
/// aborts and drains the in-flight plan.
struct FaultReport {
    DetectClass cls = DetectClass::none;
    node_t from = 0;           ///< sending endpoint of the failed link
    node_t to = 0;             ///< receiving endpoint
    std::uint32_t channel = 0; ///< compiled channel id (diagnostics)
    std::uint32_t cycle = 0;   ///< logical schedule cycle of the receive
    std::uint32_t packet = 0;  ///< packet the receive expected

    [[nodiscard]] bool faulted() const noexcept {
        return cls != DetectClass::none;
    }
};

/// The physical medium a plan's blocks travel over. `ring` is the
/// in-process SPSC descriptor ring bank (nodes are threads); `uds` and
/// `tcp` are the hcube::net socket transports (nodes are processes on one
/// host / across hosts). Detection bounds, retry pacing, and the bench
/// JSON's `transport` column are all keyed on this.
enum class TransportClass : std::uint8_t {
    ring,
    uds,
    tcp,
};

[[nodiscard]] constexpr const char* to_string(TransportClass t) noexcept {
    switch (t) {
    case TransportClass::ring: return "ring";
    case TransportClass::uds: return "uds";
    case TransportClass::tcp: return "tcp";
    }
    return "?";
}

/// Detection policy for an execution engine. Disabled by default (timeout
/// 0): pops keep the legacy behavior of counting a channel fault and
/// moving on, so existing fault-free workloads are untouched.
struct DetectConfig {
    /// Nonzero switches detection (and the abort path) on; 0 disables it
    /// entirely. On the socket transports it also bounds how long a pop
    /// waits for its block before declaring the link dead: an I/O thread
    /// publishes arrivals asynchronously. On the in-process ring bank
    /// nothing waits — every push is published before its pop runs
    /// (program order or the dependency edge provides the
    /// happens-before), so an empty ring at pop time is reported at once
    /// (rt/detect.hpp).
    std::uint32_t arrival_timeout_us = 0;
    /// Abort and drain the plan on the first detected fault (the recovery
    /// path); false keeps counting faults to the end of the run.
    bool abort_on_fault = true;

    [[nodiscard]] bool enabled() const noexcept {
        return arrival_timeout_us > 0;
    }

    /// Default arrival bound per transport. The ring value only switches
    /// detection on (nothing waits on the ring bank); socket transports
    /// wait orders of magnitude longer than any ring hop because an
    /// expected block's arrival is asynchronous (an I/O thread publishes
    /// it after a wire crossing, possibly after ack-timeout retransmits) —
    /// the happens-before invariant that makes the ring check final does
    /// not hold there.
    [[nodiscard]] static constexpr std::uint32_t
    default_arrival_timeout_us(TransportClass t) noexcept {
        switch (t) {
        case TransportClass::ring: return 2'000;
        case TransportClass::uds: return 500'000;
        case TransportClass::tcp: return 2'000'000;
        }
        return 2'000;
    }

    /// A detection policy scaled for `t`, with abort-and-drain on.
    [[nodiscard]] static constexpr DetectConfig
    for_transport(TransportClass t) noexcept {
        return {.arrival_timeout_us = default_arrival_timeout_us(t),
                .abort_on_fault = true};
    }
};

} // namespace hcube::ft
