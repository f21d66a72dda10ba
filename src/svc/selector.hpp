// Cost-model algorithm selection (satellite of the hcube::svc tentpole).
//
// The paper's central practical result is that no single spanning tree wins
// everywhere: under the one-port model the SBT broadcast costs n routing
// steps of the whole message (T = n·(τ + M·t_c) at B_opt = M), while the
// MSBT splits the message across n rotated edge-disjoint trees and pipelines
// it (T = (M/B + n - 1)·(τ + B·t_c), minimized at B_opt = √(M·τ/(n·t_c))).
// The crossover point depends on the machine constants τ and t_c — so the
// selector carries a model::CommParams, the paper's iPSC constants unless
// the Session is given others (tests inject synthetic ones), and evaluates
// model::broadcast_time at each family's optimal internal packet size to
// pick the cheaper tree.
#pragma once

#include "model/broadcast_model.hpp"
#include "svc/signature.hpp"

#include <cstdint>

namespace hcube::svc {

/// What the selector decided for one request, with the model numbers that
/// justify it (surfaced in bench rows and the selector tests).
struct Selection {
    Family family = Family::sbt;
    /// Packets the message is split into (MSBT: a multiple of n).
    packet_t packets = 1;
    /// Internal packet size B_int in elements (block_elems of the plan).
    std::uint32_t block_elems = 1;
    /// Predicted wall-clock of the chosen family at its B_opt [s].
    double predicted_seconds = 0.0;
    /// Predicted wall-clock of the best rejected alternative [s].
    double rejected_seconds = 0.0;
};

/// Picks the tree family and internal packet size B_int for a request given
/// the machine constants. Stateless apart from the CommParams; safe to call
/// concurrently.
class AlgorithmSelector {
  public:
    explicit AlgorithmSelector(model::CommParams params) noexcept
        : params_(params) {}

    [[nodiscard]] const model::CommParams& comm_params() const noexcept {
        return params_;
    }

    /// Chooses the family + packetization for moving `message_elems`
    /// elements (broadcast: SBT vs MSBT at each family's B_opt;
    /// scatter/gather: SBT vs BST — identical step counts one-port, BST
    /// chosen for its balanced subtree depth; reduce/allgather/alltoall have
    /// a single family). `model` is the port model the schedule targets.
    [[nodiscard]] Selection select(Op op, dim_t n, std::uint64_t message_elems,
                                   sim::PortModel model) const;

    /// The message size in elements at which the MSBT broadcast (at its
    /// B_opt) becomes cheaper than the SBT broadcast (at B = M) under these
    /// machine constants — found by bisection over select(). Exposed so the
    /// selector tests can assert SBT below / MSBT above the crossover.
    [[nodiscard]] std::uint64_t broadcast_crossover(dim_t n,
                                                    sim::PortModel model)
        const;

  private:
    model::CommParams params_;
};

} // namespace hcube::svc
