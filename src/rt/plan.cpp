#include "rt/plan.hpp"

#include "common/check.hpp"
#include "rt/checksum.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <unordered_map>
#include <utility>

namespace hcube::rt {

namespace {

[[noreturn]] [[gnu::cold]] [[gnu::noinline]] void
fail_send(const char* what, const sim::ScheduledSend& send) {
    throw check_error(std::string("plan violation: ") + what + " (cycle " +
                      std::to_string(send.cycle) + ", " +
                      std::to_string(send.from) + " -> " +
                      std::to_string(send.to) + ", packet " +
                      std::to_string(send.packet) + ")");
}

template <typename T>
std::uint64_t vec_bytes(const std::vector<T>& v) noexcept {
    return std::uint64_t{v.capacity()} * sizeof(T);
}

} // namespace

PlanFootprint Plan::footprint() const noexcept {
    PlanFootprint f;
    f.actions = vec_bytes(act_channel) + vec_bytes(act_slot) +
                vec_bytes(act_packet) + vec_bytes(act_seq);
    f.dep_graph =
        vec_bytes(dep_count) + vec_bytes(succ_begin) + vec_bytes(succ);
    f.cycle_csr = vec_bytes(flat_cycle_begin);
    f.slots = vec_bytes(slot_packet) + vec_bytes(slot_node) +
              vec_bytes(seeded_slots) + vec_bytes(slot_keys) +
              vec_bytes(slot_vals);
    f.channels = vec_bytes(channel_ep) + vec_bytes(node_out_ports) +
                 vec_bytes(node_in_ports) + vec_bytes(node_owner);
    f.arena = vec_bytes(arena);
    f.digests = vec_bytes(packet_digest);
    return f;
}

Plan compile_plan(const sim::Schedule& schedule, DataMode mode,
                  std::size_t block_elems, std::uint32_t workers,
                  std::uint32_t async_depth, PlanLayout,
                  std::span<const node_t> members) {
    HCUBE_ENSURE(schedule.n >= 1 && schedule.n <= hc::kMaxDimension);
    HCUBE_ENSURE(block_elems >= 1);
    HCUBE_ENSURE(async_depth >= 1);
    const node_t count = node_t{1} << schedule.n;
    HCUBE_ENSURE(workers >= 1 && workers <= count);
    HCUBE_ENSURE(schedule.initial_holder.size() == schedule.packet_count);
    HCUBE_ENSURE(schedule.sends.size() < (std::size_t{1} << 31));

    Plan plan;
    plan.n = schedule.n;
    plan.packet_count = schedule.packet_count;
    plan.block_elems = block_elems;
    plan.mode = mode;
    plan.workers = workers;
    plan.async_depth = std::bit_ceil(async_depth);

    // ---- member partition (incomplete cubes) --------------------------
    // A full member span compiles exactly like no span at all: node_owner
    // stays empty and owner_of keeps its arithmetic split, so full-view
    // member plans are bit-for-bit the plans of the static world.
    std::vector<char> live;
    if (!members.empty() && members.size() < count) {
        HCUBE_ENSURE_MSG(workers <= members.size(),
                         "more workers than live members");
        live.assign(count, 0);
        plan.node_owner.assign(count, 0);
        std::uint32_t owner = 0;
        for (std::size_t r = 0; r < members.size(); ++r) {
            const node_t v = members[r];
            HCUBE_ENSURE_MSG(v < count, "member address outside the cube");
            HCUBE_ENSURE_MSG(r == 0 || members[r - 1] < v,
                             "member span must be ascending and unique");
            live[v] = 1;
            // Live rank r belongs to worker (r * workers) / N_live —
            // contiguous balanced ranges over the members; the absent
            // addresses in between inherit the current worker so the
            // table is total (they own no actions either way).
            owner = static_cast<std::uint32_t>(
                r * std::uint64_t{workers} / members.size());
            plan.node_owner[v] = owner;
        }
        owner = 0;
        for (node_t v = 0; v < count; ++v) {
            if (live[v] != 0) {
                owner = plan.node_owner[v];
            } else {
                plan.node_owner[v] = owner;
            }
        }
    }

    std::vector<sim::ScheduledSend> sends = schedule.sends;
    std::ranges::stable_sort(sends, {}, &sim::ScheduledSend::cycle);
    if (!sends.empty()) {
        const std::uint32_t last = sends.back().cycle;
        if (last + 1 == 0) [[unlikely]] {
            fail_send("cycle index too large", sends.back());
        }
        plan.cycles = last + 1;
    }

    // ---- slot assignment with availability / duplicate checks ---------
    /// Cycle from which each slot's block may be forwarded (0 = initially
    /// held). Only consulted in move mode; combine slots are all available
    /// from the start (they hold the node's own contribution).
    std::vector<std::uint32_t> slot_acquire;
    /// Lowered index of the receive that writes each slot, kNoProducer for
    /// seeds (move mode — a slot has at most one writer there).
    static constexpr std::uint32_t kNoProducer = ~std::uint32_t{0};
    std::vector<std::uint32_t> slot_producer;
    /// Combine mode: receives into / sends from each slot lowered so far,
    /// in cycle order (slots are written repeatedly there).
    std::vector<std::vector<std::uint32_t>> slot_recvs;
    std::vector<std::vector<std::uint32_t>> slot_sends;
    /// Compile-time slot index; flattened into the plan's sorted
    /// slot_keys / slot_vals tables once the slot set is final.
    std::unordered_map<std::uint64_t, std::uint64_t> slot_index;
    const auto find_slot = [&](node_t node, packet_t packet) {
        const auto it = slot_index.find(Plan::slot_key(node, packet));
        return it == slot_index.end() ? Plan::kNoSlot : it->second;
    };
    const auto create_slot = [&](node_t node, packet_t packet,
                                 std::uint32_t acquire) {
        const std::uint64_t id = plan.total_slots++;
        slot_index.emplace(Plan::slot_key(node, packet), id);
        plan.slot_packet.push_back(packet);
        plan.slot_node.push_back(node);
        slot_acquire.push_back(acquire);
        slot_producer.push_back(kNoProducer);
        if (mode == DataMode::combine) {
            slot_recvs.emplace_back();
            slot_sends.emplace_back();
        }
        return id;
    };

    if (mode == DataMode::move) {
        for (packet_t p = 0; p < schedule.packet_count; ++p) {
            const node_t holder = schedule.initial_holder[p];
            HCUBE_ENSURE(holder < count);
            HCUBE_ENSURE_MSG(live.empty() || live[holder] != 0,
                             "initial holder is not a live member");
            plan.seeded_slots.push_back(
                static_cast<std::uint32_t>(create_slot(holder, p, 0)));
        }
    }

    // ---- channel numbering + lowering ---------------------------------
    // Channels are numbered in first-use order. For cubes up to n = 16 a
    // dense (node, dimension) table replaces the hash map — the validated
    // sends below guarantee from ^ to is a single bit, so a directed link
    // is exactly (from, countr_zero(from ^ to)): the packed channel_ep
    // word the plan keeps.
    const auto dims = static_cast<std::size_t>(schedule.n);
    const bool dense_links = schedule.n <= 16;
    std::vector<std::uint32_t> link_table; ///< channel + 1; 0 = unseen
    if (dense_links) {
        link_table.assign(std::size_t{count} * dims, 0);
    }
    std::unordered_map<std::uint64_t, std::uint32_t> link_map;
    /// Last cycle each channel carried a block (one packet per directed
    /// link per cycle, the link-capacity rule).
    std::vector<std::uint64_t> channel_last_cycle;
    static constexpr std::uint64_t kIdle = ~std::uint64_t{0};
    /// Per channel: lowered send indices in sequence order (send l and
    /// recv l share the index, so this doubles as the pop order).
    std::vector<std::vector<std::uint32_t>> chan_sends;

    // Port bitmaps are built as links are numbered — they are primary
    // lowering data (cross-checked against the channel table below), not a
    // diagnostics afterthought.
    plan.node_out_ports.assign(count, 0);
    plan.node_in_ports.assign(count, 0);

    struct Lowered {
        std::uint32_t cycle;
        ActionFields action;
    };
    std::vector<Lowered> low_sends;
    std::vector<Lowered> low_recvs;
    low_sends.reserve(sends.size());
    low_recvs.reserve(sends.size());

    // Dependency edges over lowered indices; recv endpoints are tagged
    // with kRecvBit and decoded to interleaved action ids at CSR build.
    static constexpr std::uint32_t kRecvBit = std::uint32_t{1} << 31;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(sends.size() * 3);

    for (const sim::ScheduledSend& send : sends) {
        if (send.from >= count || send.to >= count) [[unlikely]] {
            fail_send("node out of range", send);
        }
        if (!std::has_single_bit(send.from ^ send.to)) [[unlikely]] {
            fail_send("send between non-neighbors", send);
        }
        if (!live.empty() &&
            (live[send.from] == 0 || live[send.to] == 0)) [[unlikely]] {
            fail_send("send endpoint is not a live member", send);
        }
        if (send.packet >= schedule.packet_count) [[unlikely]] {
            fail_send("unknown packet", send);
        }
        const auto dim = static_cast<std::uint32_t>(
            std::countr_zero(send.from ^ send.to));

        std::uint32_t channel;
        bool inserted;
        if (dense_links) {
            std::uint32_t& entry =
                link_table[std::size_t{send.from} * dims + dim];
            inserted = entry == 0;
            if (inserted) {
                entry =
                    static_cast<std::uint32_t>(plan.channel_ep.size()) + 1;
            }
            channel = entry - 1;
        } else {
            const std::uint64_t link_key =
                (std::uint64_t{send.from} << 32) | send.to;
            const auto [it, fresh] = link_map.emplace(
                link_key,
                static_cast<std::uint32_t>(plan.channel_ep.size()));
            inserted = fresh;
            channel = it->second;
        }
        if (inserted) {
            channel_last_cycle.push_back(kIdle);
            plan.channel_ep.push_back(
                (send.from << Plan::kChannelDimBits) | dim);
            plan.node_out_ports[send.from] |= std::uint32_t{1} << dim;
            plan.node_in_ports[send.to] |= std::uint32_t{1} << dim;
            chan_sends.emplace_back();
        }
        if (channel_last_cycle[channel] == send.cycle) [[unlikely]] {
            fail_send("two packets on one directed link in one cycle", send);
        }
        channel_last_cycle[channel] = send.cycle;

        std::uint64_t src_slot = find_slot(send.from, send.packet);
        if (src_slot == Plan::kNoSlot) {
            if (mode == DataMode::move) [[unlikely]] {
                fail_send("sender never holds the packet", send);
            }
            src_slot = create_slot(send.from, send.packet, 0);
        } else if (mode == DataMode::move &&
                   slot_acquire[src_slot] > send.cycle) [[unlikely]] {
            fail_send("sender does not hold the packet yet", send);
        }

        std::uint64_t dst_slot = find_slot(send.to, send.packet);
        if (dst_slot == Plan::kNoSlot) {
            dst_slot = create_slot(send.to, send.packet, send.cycle + 1);
        } else if (mode == DataMode::move) [[unlikely]] {
            fail_send("receiver already holds the packet", send);
        }

        // ---- dependency edges for hop l (send 2l / recv 2l+1) ---------
        const auto l = static_cast<std::uint32_t>(low_sends.size());
        const auto seq =
            static_cast<std::uint32_t>(chan_sends[channel].size());
        if (seq > 0) {
            // Ring order: pushes and pops on one channel stay serialized
            // (the SPSC protocol's one-producer / one-consumer guarantee,
            // recovered by edges once work-stealing removes ownership).
            const std::uint32_t prev = chan_sends[channel].back();
            edges.emplace_back(prev, l);
            edges.emplace_back(prev | kRecvBit, l | kRecvBit);
        }
        if (seq >= plan.async_depth) {
            // Capacity: the seq-th push needs the (seq-depth)-th pop to
            // have freed its ring slot.
            edges.emplace_back(
                chan_sends[channel][seq - plan.async_depth] | kRecvBit, l);
        }
        if (mode == DataMode::move) {
            // Availability: forwarding waits on the receive that produced
            // the source slot; seeds have no producer.
            if (slot_producer[src_slot] != kNoProducer) {
                edges.emplace_back(slot_producer[src_slot] | kRecvBit, l);
            }
        } else {
            // A combining send transmits the partial sum of its own seed
            // plus every strictly-earlier arrival (a cycle's sends read
            // before its receives accumulate, as the schedule prescribes).
            // Receives into one slot are chained in lowered order (below),
            // so a single edge from the latest strictly-earlier receive
            // orders every older arrival transitively. Same-cycle receives
            // already lowered must instead wait for this send — it reads
            // the slot's pre-accumulation value — and one edge to the
            // earliest of them orders the rest through the same chain.
            const std::vector<std::uint32_t>& arrivals =
                slot_recvs[src_slot];
            std::size_t a = arrivals.size();
            while (a > 0 && low_recvs[arrivals[a - 1]].cycle == send.cycle) {
                --a;
            }
            if (a < arrivals.size()) {
                edges.emplace_back(l, arrivals[a] | kRecvBit);
            }
            if (a > 0) {
                edges.emplace_back(arrivals[a - 1] | kRecvBit, l);
            }
        }
        // Data: the receive drains exactly its channel's seq-th push.
        edges.emplace_back(l, l | kRecvBit);
        if (mode == DataMode::combine) {
            // Accumulation into one slot happens in channel-sequence
            // (lowered) order, and only after every send that reads the
            // slot's pre-accumulation value has gone out. Sends lowered
            // before the previous receive are ordered through it, so only
            // those since then need direct edges — drained here, which
            // keeps total edge emission linear in the schedule size.
            if (!slot_recvs[dst_slot].empty()) {
                edges.emplace_back(slot_recvs[dst_slot].back() | kRecvBit,
                                   l | kRecvBit);
            }
            for (const std::uint32_t s2 : slot_sends[dst_slot]) {
                edges.emplace_back(s2, l | kRecvBit);
            }
            slot_sends[dst_slot].clear();
            slot_recvs[dst_slot].push_back(l);
            slot_sends[src_slot].push_back(l);
        } else {
            slot_producer[dst_slot] = l;
        }

        low_sends.push_back(
            {send.cycle,
             {channel, static_cast<std::uint32_t>(src_slot), send.packet,
              seq}});
        low_recvs.push_back(
            {send.cycle,
             {channel, static_cast<std::uint32_t>(dst_slot), send.packet,
              seq}});
        chan_sends[channel].push_back(l);
    }
    plan.channel_count = static_cast<std::uint32_t>(plan.channel_ep.size());
    HCUBE_ENSURE(plan.total_slots <= ~std::uint32_t{0});

    // Port cross-check: every channel is a distinct (origin, port) pair,
    // so the port bitmaps must account for each channel exactly once at
    // both endpoints — this is what certifies the packed channel_ep words
    // lost nothing.
    std::uint64_t out_links = 0;
    std::uint64_t in_links = 0;
    for (node_t v = 0; v < count; ++v) {
        out_links += static_cast<std::uint32_t>(
            std::popcount(plan.node_out_ports[v]));
        in_links += static_cast<std::uint32_t>(
            std::popcount(plan.node_in_ports[v]));
    }
    HCUBE_ENSURE(out_links == plan.channel_count);
    HCUBE_ENSURE(in_links == plan.channel_count);

    if (mode == DataMode::combine) {
        plan.seeded_slots.resize(plan.total_slots);
        for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
            plan.seeded_slots[s] = static_cast<std::uint32_t>(s);
        }
    }

    // ---- read-only lookup tables --------------------------------------
    std::vector<std::pair<std::uint64_t, std::uint64_t>> lookup(
        slot_index.begin(), slot_index.end());
    std::ranges::sort(lookup, {},
                      &std::pair<std::uint64_t, std::uint64_t>::first);
    plan.slot_keys.reserve(lookup.size());
    plan.slot_vals.reserve(lookup.size());
    for (const auto& [key, slot] : lookup) {
        plan.slot_keys.push_back(key);
        plan.slot_vals.push_back(static_cast<std::uint32_t>(slot));
    }

    // ---- immutable block arena + digest table (move mode) -------------
    if (mode == DataMode::move) {
        plan.arena_stride = (block_elems + 7) & ~std::size_t{7};
        plan.arena.resize(
            std::size_t{schedule.packet_count} * plan.arena_stride + 7);
        plan.packet_digest.resize(schedule.packet_count);
        const auto raw = reinterpret_cast<std::uintptr_t>(plan.arena.data());
        double* base =
            reinterpret_cast<double*>(raw + ((0u - raw) & 63u));
        for (packet_t p = 0; p < schedule.packet_count; ++p) {
            const std::span<double> block{
                base + std::size_t{p} * plan.arena_stride, block_elems};
            fill_canonical(block, p);
            plan.packet_digest[p] = block_checksum(block);
        }
    }

    // ---- lowered actions: SoA streams + dependency CSR ----------------
    const auto S = static_cast<std::uint32_t>(low_sends.size());

    // Cycle CSR over lowered indices (lowered order is cycle-sorted).
    plan.flat_cycle_begin.assign(std::size_t{plan.cycles} + 1, 0);
    for (const Lowered& l : low_sends) {
        ++plan.flat_cycle_begin[std::size_t{l.cycle} + 1];
    }
    for (std::size_t c = 1; c <= plan.cycles; ++c) {
        plan.flat_cycle_begin[c] += plan.flat_cycle_begin[c - 1];
    }

    // SoA streams indexed by interleaved action id: hop l's send is id 2l,
    // its receive 2l+1, so the dependency counters and successor lists
    // below are laid out in execution order.
    plan.act_channel.resize(std::size_t{2} * S);
    plan.act_slot.resize(std::size_t{2} * S);
    plan.act_packet.resize(std::size_t{2} * S);
    plan.act_seq.resize(std::size_t{2} * S);
    for (std::uint32_t l = 0; l < S; ++l) {
        const ActionFields& snd = low_sends[l].action;
        const ActionFields& rcv = low_recvs[l].action;
        const std::size_t sid = std::size_t{2} * l;
        plan.act_channel[sid] = snd.channel;
        plan.act_slot[sid] = snd.slot;
        plan.act_packet[sid] = snd.packet;
        plan.act_seq[sid] = snd.seq;
        plan.act_channel[sid + 1] = rcv.channel;
        plan.act_slot[sid + 1] = rcv.slot;
        plan.act_packet[sid + 1] = rcv.packet;
        plan.act_seq[sid + 1] = rcv.seq;
    }

    HCUBE_ENSURE(edges.size() < ~std::uint32_t{0});
    const auto decode = [](std::uint32_t id) {
        return (id & kRecvBit) != 0 ? ((id & ~kRecvBit) << 1) | 1u
                                    : id << 1;
    };
    plan.dep_count.assign(std::size_t{2} * S, 0);
    plan.succ_begin.assign(std::size_t{2} * S + 1, 0);
    for (const auto& [from, to] : edges) {
        ++plan.dep_count[decode(to)];
        ++plan.succ_begin[decode(from) + 1];
    }
    for (std::size_t a = 1; a <= std::size_t{2} * S; ++a) {
        plan.succ_begin[a] += plan.succ_begin[a - 1];
    }
    plan.succ.resize(edges.size());
    std::vector<std::uint32_t> cursor(plan.succ_begin.begin(),
                                      plan.succ_begin.end() - 1);
    for (const auto& [from, to] : edges) {
        plan.succ[cursor[decode(from)]++] = decode(to);
    }

    // Trim push_back growth slack so footprint() reports what the plan
    // actually needs, not what the growth policy left behind.
    plan.slot_packet.shrink_to_fit();
    plan.slot_node.shrink_to_fit();
    plan.seeded_slots.shrink_to_fit();
    plan.channel_ep.shrink_to_fit();
    return plan;
}

void seed_plan_memory(const Plan& plan, std::span<double> memory) {
    HCUBE_ENSURE(memory.size() ==
                 static_cast<std::size_t>(plan.total_slots) *
                     plan.block_elems);
    std::fill(memory.begin(), memory.end(), 0.0);
    for (const std::uint64_t slot : plan.seeded_slots) {
        const std::span<double> block =
            memory.subspan(static_cast<std::size_t>(slot) * plan.block_elems,
                           plan.block_elems);
        if (plan.mode == DataMode::move) {
            fill_canonical(block, plan.slot_packet[slot]);
        } else {
            fill_contribution(block, plan.slot_node[slot],
                              plan.slot_packet[slot]);
        }
    }
}

std::uint64_t schedule_fingerprint(const sim::Schedule& schedule) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    mix(static_cast<std::uint64_t>(schedule.n));
    mix(schedule.packet_count);
    for (const node_t holder : schedule.initial_holder) {
        mix(holder);
    }
    for (const sim::ScheduledSend& s : schedule.sends) {
        mix((std::uint64_t{s.cycle} << 32) | s.packet);
        mix((std::uint64_t{s.from} << 32) | s.to);
    }
    return h;
}

} // namespace hcube::rt
