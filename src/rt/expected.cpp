#include "rt/expected.hpp"

#include <algorithm>
#include <numeric>

namespace hcube::rt {

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
    if (plan.mode != DataMode::move) {
        return false;
    }
    for (packet_t p = 0; p < plan.packet_count; ++p) {
        if (block_checksum({plan.arena_block(p), plan.block_elems}) !=
            canonical_checksum(p, plan.block_elems)) {
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

} // namespace hcube::rt
