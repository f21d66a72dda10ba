// Continuous-time, event-driven network simulator — the iPSC/d7 stand-in.
//
// The paper's measurements (Figures 5-8) are wall-clock times on an Intel
// iPSC/d7 whose behaviour the paper's own analysis reduces to: a message of
// m elements on one link costs τ + m·t_c, messages longer than the internal
// packet size B are split into packets (each paying its own τ), nodes obey a
// port model, and communication actions on *different ports* of a node can
// overlap by a small fraction (~20%, §5.2's explanation of Figure 8).
//
// This engine models exactly those mechanisms:
//  * every node runs a Protocol (a distributed routing program): it gets
//    on_start() once, on_receive() per delivered message, and issues sends;
//  * sends from one node drain in FIFO order per sending resource;
//  * a transfer occupies the sender, the receiver and the link for its whole
//    duration; consecutive operations on the *same* resource may overlap by
//    `overlap` fraction of the earlier operation when they use different
//    ports (0 disables overlap);
//  * under one_port_half_duplex a busy receiver delays the transfer, which
//    back-pressures the sender — the cascade the paper blames for the SBT's
//    measured disadvantage in Figure 8.
#pragma once

#include "hc/types.hpp"
#include "sim/port_model.hpp"

#include <cstdint>
#include <memory>
#include <vector>

namespace hcube::sim {

using hc::dim_t;
using hc::node_t;

/// Machine/communication parameters (defaults: our iPSC/d7 approximation;
/// see DESIGN.md — shapes matter, not absolute numbers).
struct EventParams {
    double tau = 1.7e-3;      ///< start-up time per packet [s]
    double tc = 2.86e-6;      ///< transfer time per element (byte) [s]
    double packet_capacity = 1024; ///< internal max packet size B [elements]
    double overlap = 0.0;     ///< cross-port overlap fraction in [0, 1)
    PortModel model = PortModel::one_port_full_duplex;
    bool record_trace = false; ///< collect per-transfer records in the stats
};

/// A message as seen by protocols. `size` is in elements; `dest` is the
/// final destination (== receiving node for broadcast data); `tag`
/// distinguishes streams (e.g. MSBT subtree index or scatter packet index).
/// A message carries a size, never data: real bytes move only through the
/// threaded runtime, which plays the cycle schedules (rt/expected.hpp).
struct Message {
    node_t dest = 0;
    double size = 0;
    std::uint64_t tag = 0;
};

class EventEngine;

/// Handle protocols use to issue sends from a node.
class NodeContext {
public:
    NodeContext(EventEngine& engine, node_t node) noexcept
        : engine_(&engine), node_(node) {}

    /// This node's address.
    [[nodiscard]] node_t self() const noexcept { return node_; }

    /// Current simulation time [s].
    [[nodiscard]] double now() const noexcept;

    /// Enqueues `message` for transmission to neighbor `to`. Messages from
    /// one node drain in enqueue order (per port under all_port).
    void send(node_t to, const Message& message);

private:
    EventEngine* engine_;
    node_t node_;
};

/// A distributed routing program: one instance serves all nodes (node
/// identity arrives via the context). Implementations must be stateless or
/// keep per-node state keyed by ctx.self().
class Protocol {
public:
    virtual ~Protocol() = default;

    /// Called once per node at time 0 (sources enqueue their initial sends).
    virtual void on_start(NodeContext& ctx) { (void)ctx; }

    /// Called when a complete message has been delivered to ctx.self().
    virtual void on_receive(NodeContext& ctx, const Message& message) = 0;
};

/// One committed physical packet transfer (recorded when
/// EventParams::record_trace is set).
struct TransferRecord {
    node_t from = 0;
    node_t to = 0;
    double start = 0; ///< [s]
    double end = 0;   ///< [s]
    double size = 0;  ///< elements
};

/// Simulation results.
struct EventStats {
    double completion_time = 0;   ///< time of the last delivery [s]
    std::uint64_t transfers = 0;  ///< physical packet transfers
    std::uint64_t messages = 0;   ///< protocol-level messages delivered
    double total_busy_time = 0;   ///< sum of link busy time [s·links]
    /// Per-transfer records, in commit order (empty unless
    /// EventParams::record_trace).
    std::vector<TransferRecord> trace;
};

/// Runs `protocol` on an n-cube until no work remains.
class EventEngine {
public:
    EventEngine(dim_t n, EventParams params);
    ~EventEngine();

    EventEngine(const EventEngine&) = delete;
    EventEngine& operator=(const EventEngine&) = delete;

    /// Runs to quiescence; callable once per engine instance.
    EventStats run(Protocol& protocol);

private:
    friend class NodeContext;

    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace hcube::sim
