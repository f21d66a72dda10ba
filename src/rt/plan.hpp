// Compiles a sim::Schedule into a flat execution plan for the threaded
// runtime.
//
// The cycle simulator works with abstract packet ids; the runtime moves real
// blocks of `block_elems` doubles. The compiler assigns every (node, packet)
// the node will ever hold a node-local block slot, numbers every directed
// link the schedule uses as an SPSC channel, and lowers each scheduled send
// into two actions — a producer-side push and a consumer-side pop — in
// cycle order, indexed by a per-cycle CSR so a walk touches contiguous
// arrays with no allocation or locking on the hot path.
//
// For the dataflow AsyncPlayer the compiler stamps every action with its
// channel sequence number (the k-th push/pop on a channel) and emits an
// explicit dependency graph over the 2·S actions of the
// lowered schedule: a send waits on the receive that produced its source
// slot (or nothing, if seeded), on the previous push of its channel (ring
// order), and on the pop that frees its ring slot (capacity); a receive
// waits on its channel's k-th push and on the previous pop of its channel;
// combine mode adds the slot-ordering edges that serialize elementwise
// accumulation in channel-sequence order and run every same-cycle send
// before the accumulations it must not observe. Every edge points forward in
// (cycle, send-before-receive, lowered index) order, so a plan that
// compiles is a DAG — executable without deadlock by any engine that runs
// ready actions eventually.
//
// Plan encoding: four parallel u32 SoA streams (channel/slot/packet/seq)
// indexed by action id, with send and receive of hop l interleaved as ids
// 2l and 2l+1 so the dependency CSR and its counters are laid out in
// execution order; channel endpoints pack to one u32
// (node·2^5 | dimension — the CubeRoute idiom: a directed cube link is its
// origin plus a port number); per-hop cycle stamps are dropped (the cycle
// CSR recovers them on the cold diagnostics paths). The packed channel
// word is the only field whose width depends on n, so the encoding covers
// every cube up to hc::kMaxDimension.
//
// Two data modes:
//   move    — a block travels verbatim; a second delivery of the same packet
//             to the same node is rejected at compile time (the executor's
//             duplicate-delivery rule). The plan owns each packet's
//             canonical block (the arena) and that block's digest (the
//             digest table), both written once here: every engine verifies
//             deliveries against the table, so a replayed plan hashes no
//             canonical block again.
//   combine — duplicate arrivals accumulate elementwise into the slot, and
//             every node's slot is pre-seeded with its own contribution:
//             the reduction semantics of a reversed broadcast schedule.
#pragma once

#include "hc/types.hpp"
#include "sim/cycle.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace hcube::rt {

using hc::dim_t;
using hc::node_t;
using sim::packet_t;

enum class DataMode {
    move,
    combine,
};

/// A one-value tag kept so callers that pass it positionally to
/// compile_plan still compile; the plan has a single encoding.
enum class PlanLayout : std::uint8_t {
    automatic,
};

/// The four hot fields of one lowered action — delivery's ActionRef minus
/// the diagnostics-only cycle — as the plan's accessors hand them to the
/// engines. For a send: copy the node-local block at `slot` into
/// `channel`. For a receive: drain `channel` into `slot` (verifying or
/// combining), expecting `packet` with sequence stamp `seq` (the action is
/// its channel's seq-th push / pop).
struct ActionFields {
    std::uint32_t channel;
    std::uint32_t slot;
    std::uint32_t packet;
    std::uint32_t seq;
};

/// Exact heap footprint of one compiled plan, itemized by concern. Every
/// count is in bytes and accounts vector capacity (compile_plan trims the
/// growth slack), so the total is what the plan actually pins resident —
/// the quantity the byte-budgeted svc plan cache charges per entry.
struct PlanFootprint {
    std::uint64_t actions = 0;   ///< SoA streams
    std::uint64_t dep_graph = 0; ///< dep counters + successor CSR
    std::uint64_t cycle_csr = 0; ///< per-cycle offsets into the hops
    std::uint64_t slots = 0;     ///< slot tables, lookup keys, seed list
    std::uint64_t channels = 0;  ///< packed endpoints + port bitmaps
    std::uint64_t arena = 0;     ///< immutable canonical blocks
    std::uint64_t digests = 0;   ///< one canonical digest per packet

    [[nodiscard]] std::uint64_t total() const noexcept {
        return actions + dep_graph + cycle_csr + slots + channels + arena +
               digests;
    }
};

struct Plan {
    dim_t n = 0;
    std::uint32_t cycles = 0; ///< 1 + largest scheduled cycle, 0 if no sends
    packet_t packet_count = 0;
    std::size_t block_elems = 0;
    DataMode mode = DataMode::move;
    std::uint32_t workers = 1;

    /// Per-node owning worker for plans compiled over a member subset
    /// (contiguous balanced ranges over the *live* nodes, so no worker is
    /// left idle by the holes). Empty for full-cube plans, where the
    /// arithmetic split below is exact.
    std::vector<std::uint32_t> node_owner;

    /// Worker that owns `node` (contiguous balanced ranges; member plans
    /// read the lookup table, full-cube plans stay arithmetic).
    [[nodiscard]] std::uint32_t owner_of(node_t node) const noexcept {
        return node_owner.empty()
                   ? static_cast<std::uint32_t>(
                         (std::uint64_t{node} * workers) >> n)
                   : node_owner[node];
    }

    // ---- node-local memory layout -------------------------------------
    std::uint64_t total_slots = 0;
    std::vector<packet_t> slot_packet; ///< per slot: the packet it holds
    std::vector<node_t> slot_node;     ///< per slot: the owning node
    /// Slots the player seeds before cycle 0: in move mode the initial
    /// holders' canonical blocks, in combine mode every slot (each node's
    /// own contribution).
    std::vector<std::uint32_t> seeded_slots;

    // ---- immutable block arena (move mode) ----------------------------
    /// One canonical block per packet, written once at compile time and
    /// immutable thereafter: the backing store every zero-copy descriptor
    /// in a move-mode run points into. Blocks are padded to `arena_stride`
    /// elements so consecutive blocks never share a cache line. Empty in
    /// combine mode (slots there are mutable accumulators, not views).
    std::vector<double> arena;
    std::size_t arena_stride = 0; ///< block_elems rounded up to 8 doubles

    /// 64-byte-aligned start of packet 0's block (the vector is over-
    /// allocated by up to 7 doubles of alignment slack).
    [[nodiscard]] const double* arena_base() const noexcept {
        const auto p = reinterpret_cast<std::uintptr_t>(arena.data());
        return reinterpret_cast<const double*>(p + ((0u - p) & 63u));
    }
    /// The canonical arena block for `packet` (move mode only).
    [[nodiscard]] const double* arena_block(packet_t packet) const noexcept {
        return arena_base() + std::size_t{packet} * arena_stride;
    }
    /// Per packet: the digest (block_checksum) of its arena block, hashed
    /// once as compile_plan fills the arena. The only copy: the engines
    /// compare every delivery against it, and the first check
    /// (arena_is_canonical) re-derives each entry from the packet id alone.
    /// Empty in combine mode.
    std::vector<std::uint64_t> packet_digest;

    // ---- channels ------------------------------------------------------
    std::uint32_t channel_count = 0;
    /// Per channel: the directed cube link packed into one word,
    /// (from << kChannelDimBits) | dimension. The receiving endpoint is
    /// recovered by flipping the dimension bit — whole route tables in a
    /// few bytes per link instead of a pair of node ids.
    std::vector<std::uint32_t> channel_ep;
    static constexpr std::uint32_t kChannelDimBits = 5;
    [[nodiscard]] node_t channel_from(std::uint32_t c) const noexcept {
        return channel_ep[c] >> kChannelDimBits;
    }
    [[nodiscard]] dim_t channel_dim(std::uint32_t c) const noexcept {
        return static_cast<dim_t>(channel_ep[c] &
                                  ((1u << kChannelDimBits) - 1));
    }
    [[nodiscard]] node_t channel_to(std::uint32_t c) const noexcept {
        return channel_from(c) ^ (node_t{1} << channel_dim(c));
    }
    [[nodiscard]] std::pair<node_t, node_t>
    channel_endpoints(std::uint32_t c) const noexcept {
        return {channel_from(c), channel_to(c)};
    }

    /// Per node: the cube dimensions it sends across / receives on, one bit
    /// per dimension (n <= 26 fits any node's route set in one word — the
    /// raikv CubeRoute idiom). Built during lowering and used to cross-
    /// check the packed channel table at compile time; the footprint and
    /// fault reports read them too.
    std::vector<std::uint32_t> node_out_ports;
    std::vector<std::uint32_t> node_in_ports;

    // ---- lowered actions + dataflow dependency graph ------------------
    /// Action ids interleave the two halves of each lowered hop in
    /// execution order: the send of hop l is id 2l, its receive 2l+1 (hops
    /// are cycle-sorted). The SoA streams, the dependency counters, and
    /// the successor CSR are all indexed by this id, so the dataflow
    /// engine's dep walk touches adjacent memory for actions that retire
    /// together.
    std::vector<std::uint32_t> act_channel;
    std::vector<std::uint32_t> act_slot;
    std::vector<packet_t> act_packet;
    std::vector<std::uint32_t> act_seq;
    /// CSR offsets of size cycles + 1 over the lowered hop indices: hops of
    /// cycle c are [flat_cycle_begin[c], flat_cycle_begin[c+1]). This is
    /// the serial fast path's and the net rank walk's entire schedule
    /// walk, and the cycle recovery for diagnostics. Offsets fit u32:
    /// S < 2^31 by construction.
    std::vector<std::uint32_t> flat_cycle_begin;
    /// Ring slots per channel the capacity edges were emitted for; an
    /// asynchronous engine must run with at least this many (a producer may
    /// run up to async_depth logical cycles ahead of its consumer).
    std::uint32_t async_depth = 0;
    /// Per action id: number of incoming dependency edges (0 = initially
    /// ready), and the CSR successor lists the engine decrements on
    /// completion.
    std::vector<std::uint32_t> dep_count;
    std::vector<std::uint32_t> succ_begin; ///< size 2·S + 1
    std::vector<std::uint32_t> succ;

    [[nodiscard]] std::uint32_t action_count() const noexcept {
        return static_cast<std::uint32_t>(dep_count.size());
    }
    [[nodiscard]] std::uint32_t lowered_count() const noexcept {
        return action_count() / 2;
    }
    [[nodiscard]] bool is_send_action(std::uint32_t id) const noexcept {
        return (id & 1u) == 0;
    }
    /// Lowered hop behind an action id (both halves map to the same hop).
    [[nodiscard]] static std::uint32_t
    lowered_of(std::uint32_t id) noexcept {
        return id >> 1;
    }

    /// Hot fields of an action id, straight from the SoA streams.
    [[nodiscard]] ActionFields fields(std::uint32_t id) const noexcept {
        return {act_channel[id], act_slot[id], act_packet[id], act_seq[id]};
    }
    /// Node an action runs on: the owner of its slot (a send reads the
    /// sender's slot, a receive writes the receiver's).
    [[nodiscard]] node_t action_node(std::uint32_t id) const noexcept {
        return slot_node[act_slot[id]];
    }

    /// Hop-ordered accessors for the cycle-CSR walks: hop l's send and
    /// receive halves are the adjacent SoA entries 2l and 2l+1.
    [[nodiscard]] ActionFields lowered_send(std::uint32_t l) const noexcept {
        return fields(l << 1);
    }
    [[nodiscard]] ActionFields lowered_recv(std::uint32_t l) const noexcept {
        return fields((l << 1) | 1u);
    }

    /// Scheduled cycle of lowered hop `l` — diagnostics only (fault
    /// reports, trace export), recovered from the cycle CSR with a binary
    /// search.
    [[nodiscard]] std::uint32_t
    cycle_of_lowered(std::uint32_t l) const noexcept {
        const auto it = std::ranges::upper_bound(flat_cycle_begin, l);
        return static_cast<std::uint32_t>(it - flat_cycle_begin.begin() - 1);
    }

    /// The slot_keys word of (node, packet): packet-major, so the sorted
    /// keys order the slots by packet, then node.
    [[nodiscard]] static constexpr std::uint64_t
    slot_key(node_t node, packet_t packet) noexcept {
        return (std::uint64_t{packet} << 32) | node;
    }

    /// Slot of (node, packet), or kNoSlot if the node never holds it.
    /// Binary search over a sorted key array with a parallel u32 slot
    /// array — compact, cache friendly, read-only after compilation.
    static constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};
    [[nodiscard]] std::uint64_t slot_of(node_t node, packet_t packet) const {
        const std::uint64_t key = slot_key(node, packet);
        const auto it = std::ranges::lower_bound(slot_keys, key);
        return it == slot_keys.end() || *it != key
                   ? kNoSlot
                   : slot_vals[static_cast<std::size_t>(
                         it - slot_keys.begin())];
    }

    /// Sorted (packet<<32|node) keys and their slots; built once by the
    /// compiler.
    std::vector<std::uint64_t> slot_keys;
    std::vector<std::uint32_t> slot_vals;

    /// Exact heap bytes this plan keeps resident, itemized / in total.
    [[nodiscard]] PlanFootprint footprint() const noexcept;
    [[nodiscard]] std::uint64_t resident_bytes() const noexcept {
        return footprint().total();
    }
};

// The packed channel word is the only field whose width depends on the
// cube dimension; slot and hop counts past u32 are rejected by
// compile_plan.
static_assert(hc::kMaxDimension + Plan::kChannelDimBits <= 32,
              "packed channel word must hold every node and dimension");

/// Lowers `schedule` for `workers` threads. Performs the store-and-forward
/// availability and (in move mode) duplicate-delivery checks while
/// lowering, and rejects two packets on one directed link in one cycle —
/// so a plan that compiles is executable without deadlock by construction.
/// `async_depth` is the ring depth the dependency graph's capacity edges
/// assume (rounded up to a power of two). `layout` is ignored (one
/// encoding). `members` (ascending live addresses) compiles the plan for an
/// incomplete cube: every schedule endpoint must be a member, and workers
/// are balanced over the live nodes via the node_owner table instead of
/// the arithmetic address split (empty or full member span = full-cube
/// behavior, bit-for-bit). Throws check_error on violation.
[[nodiscard]] Plan compile_plan(const sim::Schedule& schedule, DataMode mode,
                                std::size_t block_elems,
                                std::uint32_t workers,
                                std::uint32_t async_depth = 8,
                                PlanLayout layout = PlanLayout::automatic,
                                std::span<const node_t> members = {});

/// Seeds `memory` (total_slots x block_elems doubles) with the plan's
/// initial holdings: canonical packet blocks in move mode, every node's own
/// contribution in combine mode. Shared by the in-process engine and the
/// net rank walk so their initial states are bit-identical.
void seed_plan_memory(const Plan& plan, std::span<double> memory);

/// FNV-1a fingerprint over a schedule's full content (dimension, packet
/// count, initial holders, and every send) — the identity net::run_job
/// stamps on a job. Two schedules with equal fingerprints execute
/// identically.
[[nodiscard]] std::uint64_t
schedule_fingerprint(const sim::Schedule& schedule) noexcept;

} // namespace hcube::rt
