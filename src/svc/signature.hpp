// The operation signature — the identity the service layer keys everything
// on: the compiled-plan cache, request batching, and the per-signature
// verification history.
//
// A signature pins down one executable collective completely: the
// operation, the tree family routing it, the cube dimension, the root, the
// packet count, the internal packet (block) size B_int, and the port model
// the schedule is generated for. Two requests with equal signatures compile
// to byte-identical schedules (the generators are deterministic), which is
// what makes plan reuse and request coalescing sound.
#pragma once

#include "mbr/view.hpp"
#include "rt/plan.hpp"
#include "sim/cycle.hpp"
#include "sim/port_model.hpp"

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>

namespace hcube::svc {

using hc::dim_t;
using hc::node_t;
using sim::packet_t;

/// Collective operations the service executes (routing/schedule_export.hpp).
enum class Op : std::uint8_t {
    broadcast,
    scatter,
    gather,
    reduce,
    allgather,
    alltoall,
};

/// Spanning-tree families the request can be routed over (paper §3-5).
enum class Family : std::uint8_t {
    sbt,  ///< spanning binomial tree
    msbt, ///< n rotated edge-disjoint SBTs (broadcast only)
    bst,  ///< balanced spanning tree (scatter/gather only)
};

[[nodiscard]] constexpr std::string_view to_string(Op op) noexcept {
    switch (op) {
    case Op::broadcast: return "broadcast";
    case Op::scatter: return "scatter";
    case Op::gather: return "gather";
    case Op::reduce: return "reduce";
    case Op::allgather: return "allgather";
    case Op::alltoall: return "alltoall";
    }
    return "?";
}

[[nodiscard]] constexpr std::string_view to_string(Family f) noexcept {
    switch (f) {
    case Family::sbt: return "sbt";
    case Family::msbt: return "msbt";
    case Family::bst: return "bst";
    }
    return "?";
}

struct Signature {
    Op op = Op::broadcast;
    Family family = Family::sbt;
    dim_t n = 0;
    node_t root = 0;
    /// Total packets (broadcast/reduce), packets per destination
    /// (scatter/gather), packets per (src, dest) pair (alltoall); ignored
    /// by allgather (always one packet per node).
    packet_t packets = 1;
    /// Elements (doubles) per packet — the internal packet size B_int.
    std::uint32_t block_elems = 256;
    sim::PortModel model = sim::PortModel::one_port_full_duplex;
    /// Epoch of the signature's sub-cube member set (mbr::View::
    /// epoch_of_subcube(n)). 0 — the default, and the epoch of a view
    /// that never transitioned — reproduces the pre-membership identity
    /// bit-for-bit. Session::execute stamps the current epoch before the
    /// cache lookup, so a membership transition re-keys exactly the
    /// signatures whose sub-cube changed; clients leave it 0.
    std::uint64_t view_epoch = 0;

    friend bool operator==(const Signature&, const Signature&) = default;
    friend auto operator<=>(const Signature&, const Signature&) = default;

    [[nodiscard]] std::string to_string() const;
};

/// A signature lowered to something the runtime can execute.
struct GeneratedSchedule {
    /// The schedule the engines execute (for reduce: the time-reversed
    /// combining schedule, which the cycle executor cannot validate).
    sim::Schedule exec;
    /// The schedule the cycle executor proves feasible and whose makespan
    /// a run's cycle count must match (== exec except for reduce, where
    /// it is the forward broadcast).
    sim::Schedule feasibility;
    rt::DataMode mode = rt::DataMode::move;
};

/// Deterministically generates the schedule for `sig` via the
/// routing/schedule_export.hpp hooks. Validates the signature (e.g. the
/// MSBT needs packets divisible by n, the BST only routes scatter/gather);
/// throws check_error on violation.
[[nodiscard]] GeneratedSchedule make_schedule(const Signature& sig);

/// As above over the live members of `view` (whose dimension must equal
/// sig.n). A full view takes the exact full-cube path — byte-identical
/// schedules for every family. An incomplete view routes broadcast /
/// scatter / gather / reduce over the member tree (Family::sbt only —
/// the MSBT's edge-disjoint rotations and the BST's balanced relabelling
/// assume the full address space, and allgather/alltoall's recursive
/// exchanges pair every address); unsupported combinations throw
/// check_error.
[[nodiscard]] GeneratedSchedule make_schedule(const Signature& sig,
                                              const mbr::View& view);

} // namespace hcube::svc
