#include "rt/expected.hpp"

#include "obs/metrics.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace hcube::rt {

std::uint64_t canonical_checksum(std::uint32_t packet,
                                 std::size_t block_elems) {
    static obs::Counter& m_derived =
        obs::registry().counter("rt.canonical_digests");
    m_derived.inc();
    thread_local std::vector<double> scratch;
    if (scratch.size() < block_elems) {
        scratch.resize(block_elems);
    }
    fill_canonical({scratch.data(), block_elems}, packet);
    return simd::checksum(scratch.data(), block_elems);
}

bool slots_are_holdings(const Plan& plan, const sim::CycleStats& sim) {
    const sim::DeliveryMap& held = sim.delivery_cycle;
    if (held.entry_count() != plan.total_slots) {
        return false;
    }
    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        const node_t node = plan.slot_node[s];
        const packet_t packet = plan.slot_packet[s];
        if (node >= held.nodes() || packet >= held.packets() ||
            !sim.holds(node, packet)) {
            return false;
        }
    }
    return true;
}

bool arena_is_canonical(const Plan& plan) {
    if (plan.mode != DataMode::move ||
        plan.packet_digest.size() != plan.packet_count) {
        return false;
    }
    for (packet_t p = 0; p < plan.packet_count; ++p) {
        const std::uint64_t digest = canonical_checksum(p, plan.block_elems);
        if (plan.packet_digest[p] != digest ||
            block_checksum({plan.arena_block(p), plan.block_elems}) !=
                digest) {
            return false;
        }
    }
    return true;
}

std::optional<std::vector<double>>
combine_image(const Plan& plan, const sim::Schedule& schedule) {
    const std::size_t blk = plan.block_elems;
    std::vector<double> image(plan.total_slots * blk);
    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        fill_contribution({image.data() + s * blk, blk}, plan.slot_node[s],
                          plan.slot_packet[s]);
    }
    // The schedule lists its sends in any order; walk them cycle by cycle.
    const std::vector<sim::ScheduledSend>& sends = schedule.sends;
    std::vector<std::uint32_t> order(sends.size());
    std::iota(order.begin(), order.end(), 0u);
    std::ranges::stable_sort(order, {}, [&sends](std::uint32_t i) {
        return sends[i].cycle;
    });
    std::vector<double> staged;
    std::vector<std::uint64_t> targets;
    for (std::size_t begin = 0; begin < order.size();) {
        std::size_t end = begin;
        while (end < order.size() &&
               sends[order[end]].cycle == sends[order[begin]].cycle) {
            ++end;
        }
        // Every send of the cycle reads its source before any of the
        // cycle's receives accumulates.
        staged.resize((end - begin) * blk);
        targets.resize(end - begin);
        for (std::size_t k = begin; k < end; ++k) {
            const sim::ScheduledSend& send = sends[order[k]];
            const std::uint64_t from = plan.slot_of(send.from, send.packet);
            const std::uint64_t to = plan.slot_of(send.to, send.packet);
            if (from == Plan::kNoSlot || to == Plan::kNoSlot) {
                return std::nullopt;
            }
            std::copy_n(image.data() + from * blk, blk,
                        staged.data() + (k - begin) * blk);
            targets[k - begin] = to;
        }
        for (std::size_t k = 0; k < end - begin; ++k) {
            double* acc = image.data() + targets[k] * blk;
            const double* add = staged.data() + k * blk;
            for (std::size_t e = 0; e < blk; ++e) {
                acc[e] += add[e];
            }
        }
        begin = end;
    }
    return image;
}

struct CheckedPlan::Proof {
    explicit Proof(sim::CycleStats proven) : sim(std::move(proven)) {}

    sim::CycleStats sim;         ///< move: the holdings the run must match
    sim::Schedule schedule;      ///< combine: evaluated into the image
    std::vector<node_t> members; ///< combine: whose sums reach the root
};

CheckedPlan::CheckedPlan(sim::Schedule exec, const sim::Schedule& proof,
                         DataMode mode, sim::PortModel model,
                         std::size_t block_elems, std::uint32_t workers,
                         std::vector<node_t> members)
    : proof_(std::make_unique<Proof>(sim::execute_schedule(proof, model))),
      makespan_(proof_->sim.makespan), sends_(exec.sends.size()),
      plan_(compile_plan(exec, mode, block_elems, workers, 8,
                         PlanLayout::automatic, members)),
      player_(plan_) {
    if (mode == DataMode::combine) {
        proof_->sim.delivery_cycle = {};
        proof_->schedule = std::move(exec);
        proof_->members = std::move(members);
    }
}

CheckedPlan::~CheckedPlan() = default;

CheckedRun CheckedPlan::play(WorkerPool* pool) {
    CheckedRun run;
    run.stats = player_.play(pool);
    run.full_check = proof_ != nullptr;
    run.verified = run.stats.clean() &&
                   run.stats.blocks_delivered == sends_ &&
                   (run.full_check ? judge_first() : judge_steady());
    return run;
}

bool CheckedPlan::judge_first() {
    if (plan_.mode == DataMode::combine) {
        const sim::Schedule& schedule = proof_->schedule;
        std::optional<std::vector<double>> image =
            check_combine_run(plan_, schedule, schedule.initial_holder[0],
                              proof_->members, player_);
        if (!image) {
            return false;
        }
        image_ = std::move(*image);
    } else {
        if (!check_move_run(plan_, proof_->sim, player_)) {
            return false;
        }
    }
    proof_.reset();
    return true;
}

bool CheckedPlan::judge_steady() const {
    if (plan_.mode == DataMode::combine) {
        return matches_image(plan_, player_, image_);
    }
    return matches_arena(plan_, player_);
}

std::uint64_t CheckedPlan::resident_bytes() const noexcept {
    return plan_.resident_bytes() + player_.resident_bytes() +
           std::uint64_t{image_.capacity()} * sizeof(double);
}

} // namespace hcube::rt
