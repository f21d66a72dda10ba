// The runtime's one verification rule: a run's final memory is checked
// against the state the schedule alone implies, never against a second
// engine's run of the same plan.
//
// The cycle executor (sim::execute_schedule) proves a schedule and records
// which node holds which packet, and every payload is a known function of
// its packet id (move mode) or an exact integer sum of known contributions
// (combine mode). So the expected final state needs no reference run:
//
//   move    — the plan's slots are exactly the (node, packet) pairs the
//             executor records as held; every arena block, and its entry
//             in the plan's digest table, agrees with its packet's
//             canonical digest derived from the packet id alone (one
//             derivation per packet, not per pair); and every slot's final
//             block is its packet's arena block — the same pointer on the
//             zero-copy path, equal bytes under copy-through.
//   combine — the root holds the exact elementwise sums of the live
//             members' contributions (built a row at a time: each
//             member's whole contribution block is generated and added),
//             and every slot equals, byte for byte, the image of
//             evaluating the schedule (not the lowered plan) cycle by
//             cycle in exact arithmetic from contribution-seeded slots, a
//             cycle's sends reading before its receives accumulate. That
//             image is what a cached plan's later runs are compared
//             against.
//
// Every run of every engine answers to this rule, and a run's cycle count
// (its PlayStats::cycles, the plan's logical depth) must equal the
// executor's makespan, which callers compare (docs/RUNTIME.md
// § Verification). rt::CheckedPlan, at the end of this
// file, is the one resident run that applies the rule, and every run
// plays through it: a one-shot run builds one and plays it once, the
// svc::Session caches one per signature, and ft::ResilientComm keeps one
// per op signature for its fault-free attempts and builds one per healing
// attempt.
#pragma once

#include "rt/async_player.hpp"
#include "rt/checksum.hpp"
#include "rt/plan.hpp"
#include "sim/cycle.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace hcube::rt {

/// True when the plan's slots are exactly the pairs `sim` records as held:
/// the counts agree and every slot's (node, packet) is held.
[[nodiscard]] bool slots_are_holdings(const Plan& plan,
                                      const sim::CycleStats& sim);

/// True when, for every packet of the move plan, the canonical digest
/// derived from the packet id alone (canonical_checksum) equals both the
/// hash of its arena block and its entry in Plan::packet_digest — so the
/// table the engines trust is proven once.
[[nodiscard]] bool arena_is_canonical(const Plan& plan);

/// The final image (slot order, block_elems doubles per slot) a run of the
/// combine plan `plan` must leave: `schedule` evaluated cycle by cycle in
/// exact arithmetic from contribution-seeded slots, a cycle's sends reading
/// before its receives accumulate. nullopt when a send's endpoint has no
/// slot in the plan. The image keeps that per-cycle snapshot even for a
/// plan marked Plan::in_place, and never reads the flag: a plan wrongly
/// marked in place then leaves memory this image rejects, instead of
/// agreeing with a walk that made the same mistake.
[[nodiscard]] std::optional<std::vector<double>>
combine_image(const Plan& plan, const sim::Schedule& schedule);

/// True when `block` is `packet`'s arena block: the same view, or the same
/// bytes.
[[nodiscard]] inline bool is_arena_block(const Plan& plan,
                                         std::span<const double> block,
                                         packet_t packet) noexcept {
    if (block.size() != plan.block_elems || packet >= plan.packet_count) {
        return false;
    }
    const double* canon = plan.arena_block(packet);
    return block.data() == canon ||
           std::memcmp(block.data(), canon,
                       plan.block_elems * sizeof(double)) == 0;
}

/// Every slot's final block is its packet's arena block (move mode).
template <class P>
[[nodiscard]] bool matches_arena(const Plan& plan, const P& player) {
    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        if (!is_arena_block(plan, player.slot_block(s),
                            plan.slot_packet[s])) {
            return false;
        }
    }
    return true;
}

/// Every slot's final block equals its stretch of `image`, byte for byte.
template <class P>
[[nodiscard]] bool matches_image(const Plan& plan, const P& player,
                                 std::span<const double> image) {
    const std::size_t blk = plan.block_elems;
    if (image.size() != plan.total_slots * blk) {
        return false;
    }
    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        const std::span<const double> b = player.slot_block(s);
        if (b.size() != blk ||
            std::memcmp(b.data(), image.data() + s * blk,
                        blk * sizeof(double)) != 0) {
            return false;
        }
    }
    return true;
}

/// The root's block for every packet of `schedule` equals the exact
/// elementwise integer sum of every member's contribution (`members`
/// empty = all 2^n nodes of the schedule's cube), built a row at a time.
template <class P>
[[nodiscard]] bool root_sums_match(const P& player,
                                   const sim::Schedule& schedule,
                                   node_t root, std::size_t block_elems,
                                   std::span<const node_t> members) {
    const node_t count = node_t{1} << schedule.n;
    std::vector<double> expected(block_elems);
    std::vector<double> row(block_elems);
    const auto add = [&](node_t node, packet_t packet) {
        fill_contribution(row, node, packet);
        simd::accumulate(expected.data(), row.data(), block_elems);
    };
    for (packet_t p = 0; p < schedule.packet_count; ++p) {
        const std::span<const double> block = player.block(root, p);
        if (block.size() != block_elems) {
            return false;
        }
        std::ranges::fill(expected, 0.0);
        if (members.empty()) {
            for (node_t i = 0; i < count; ++i) {
                add(i, p);
            }
        } else {
            for (const node_t i : members) {
                add(i, p);
            }
        }
        if (!std::ranges::equal(block, expected)) {
            return false;
        }
    }
    return true;
}

/// The rule for a move-mode run of `plan`, whose schedule the cycle
/// executor proved into `sim`.
template <class P>
[[nodiscard]] bool check_move_run(const Plan& plan,
                                  const sim::CycleStats& sim,
                                  const P& player) {
    return slots_are_holdings(plan, sim) && arena_is_canonical(plan) &&
           matches_arena(plan, player);
}

/// The rule for a combine-mode run of `plan`, compiled from `schedule` and
/// reducing into `root` over `members` (empty = the full cube). Returns the
/// expected image on acceptance, nullopt on rejection.
template <class P>
[[nodiscard]] std::optional<std::vector<double>>
check_combine_run(const Plan& plan, const sim::Schedule& schedule,
                  node_t root, std::span<const node_t> members,
                  const P& player) {
    if (!root_sums_match(player, schedule, root, plan.block_elems,
                         members)) {
        return std::nullopt;
    }
    std::optional<std::vector<double>> image = combine_image(plan, schedule);
    if (!image || !matches_image(plan, player, *image)) {
        return std::nullopt;
    }
    return image;
}

/// One play of a CheckedPlan and its verdict.
struct CheckedRun {
    PlayStats stats;
    /// Clean, one delivery per scheduled send, and a final memory the
    /// check of this run accepted.
    bool verified = false;
    /// This run was judged by the rule above (the plan's first run, or a
    /// repeat of one that failed); false on the steady-state path.
    bool full_check = false;
};

/// A schedule proven, compiled and kept resident with its AsyncPlayer,
/// verifying every run it plays. Construction proves the schedule with
/// the cycle executor (throwing check_error when it is infeasible). The
/// first run, and any repeat of one that failed, is judged by
/// check_move_run / check_combine_run; once one passes, the schedule and
/// the executor's holdings are dropped and later runs take the
/// steady-state checks: a combine plan byte-compares against the image
/// the first check computed, and a move plan compares every slot's block
/// with its packet's immutable arena block (pointer identity on the
/// zero-copy path), so no second copy of the arena exists and a
/// steady-state run derives no canonical digest.
/// One play at a time; the player holds a reference to the plan, so a
/// CheckedPlan never moves.
class CheckedPlan {
public:
    /// Proves `proof` under `model`, then compiles `exec`, the schedule
    /// the engine plays (== proof except for a reduction, whose proof is
    /// the forward broadcast), in `mode` with `block_elems`-double blocks
    /// on `workers` workers over `members` (ascending live addresses;
    /// empty = the full cube).
    CheckedPlan(sim::Schedule exec, const sim::Schedule& proof,
                DataMode mode, sim::PortModel model, std::size_t block_elems,
                std::uint32_t workers, std::vector<node_t> members = {});
    ~CheckedPlan();
    CheckedPlan(const CheckedPlan&) = delete;
    CheckedPlan& operator=(const CheckedPlan&) = delete;

    /// Plays the plan (on `pool`, as AsyncPlayer::play) and judges the run.
    [[nodiscard]] CheckedRun play(WorkerPool* pool = nullptr);

    /// The compiled plan (FaultInjector::arm resolves its faults against
    /// the plan's channels).
    [[nodiscard]] const Plan& plan() const noexcept { return plan_; }
    /// The player, for its between-run settings (set_detection,
    /// set_fault_hook, set_trace) and fault_report() only: every run goes
    /// through play() above, so the rule judges every run.
    [[nodiscard]] AsyncPlayer& player() noexcept { return player_; }

    /// The cycle executor's makespan of the proven schedule.
    [[nodiscard]] std::uint32_t makespan() const noexcept {
        return makespan_;
    }
    /// Exact heap bytes kept resident once a run passed: the compiled
    /// plan, the player's run state and the combine image.
    [[nodiscard]] std::uint64_t resident_bytes() const noexcept;

private:
    /// What the first check reads: the executor's holdings (move), or the
    /// schedule and its members (combine). Dropped once a run passes.
    struct Proof;

    [[nodiscard]] bool judge_first();
    [[nodiscard]] bool judge_steady() const;

    std::unique_ptr<Proof> proof_; ///< until a run passes
    std::uint32_t makespan_ = 0;
    std::uint64_t sends_ = 0;
    Plan plan_;
    AsyncPlayer player_;
    std::vector<double> image_; ///< combine: the expected image
};

} // namespace hcube::rt
