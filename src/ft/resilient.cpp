#include "ft/resilient.hpp"

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "routing/schedule_export.hpp"
#include "rt/expected.hpp"
#include "rt/threads.hpp"
#include "trees/fault.hpp"
#include "trees/sbt.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>

namespace hcube::ft {

namespace {

using sim::Schedule;

/// Attempts run on the in-process ring bank, where a receive never waits
/// (rt/detect.hpp): the timeout only switches detection on.
constexpr DetectConfig kDetect =
    DetectConfig::for_transport(TransportClass::ring);

/// Seed for the permuted-SBT search when replanning tree collectives.
constexpr std::uint64_t kReplanSeed = 42;

/// Fault-free attempts kept resident. Each holds a compiled plan and a
/// player, so the bound is on memory: eight holds the five ops at one root
/// and view each, with room for a few more roots or member views.
constexpr std::uint64_t kResidentAttempts = 8;

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/// Member broadcast contract: every *live* member ends up holding every
/// packet — the contract contracts with the view.
std::vector<std::uint64_t> member_broadcast_contract(const mbr::View& view,
                                                     packet_t packets) {
    const std::vector<node_t> members = view.members();
    std::vector<std::uint64_t> contract;
    contract.reserve(members.size() * static_cast<std::size_t>(packets));
    for (const node_t v : members) {
        for (packet_t p = 0; p < packets; ++p) {
            contract.push_back(rt::Plan::slot_key(v, p));
        }
    }
    std::ranges::sort(contract);
    return contract;
}

/// Broadcast contract: every node ends up holding every packet.
std::vector<std::uint64_t> broadcast_contract(dim_t n, packet_t packets) {
    return member_broadcast_contract(mbr::View(n), packets);
}

/// Scatter contract: each packet's terminal destination (the target of its
/// last scheduled hop — a scatter routes every packet down one path) plus
/// the source's seeded copy. Relay transits are route artifacts and are
/// deliberately excluded: any replacement tree delivers the same contract.
std::vector<std::uint64_t> scatter_contract(const Schedule& schedule) {
    std::vector<std::uint32_t> last_cycle(schedule.packet_count, 0);
    std::vector<node_t> dest(schedule.initial_holder);
    for (const sim::ScheduledSend& send : schedule.sends) {
        if (send.cycle >= last_cycle[send.packet]) {
            last_cycle[send.packet] = send.cycle + 1;
            dest[send.packet] = send.to;
        }
    }
    std::vector<std::uint64_t> contract;
    contract.reserve(2 * schedule.packet_count);
    for (packet_t p = 0; p < schedule.packet_count; ++p) {
        contract.push_back(rt::Plan::slot_key(schedule.initial_holder[p], p));
        if (dest[p] != schedule.initial_holder[p]) {
            contract.push_back(rt::Plan::slot_key(dest[p], p));
        }
    }
    std::ranges::sort(contract);
    return contract;
}

/// The links of `dead` as undirected tree links, for the tree replanners.
std::vector<trees::Link> failed_links(std::span<const DirectedLink> dead) {
    std::vector<trees::Link> failed;
    failed.reserve(dead.size());
    for (const DirectedLink& link : dead) {
        failed.push_back(trees::make_link(link.from, link.to));
    }
    return failed;
}

} // namespace

struct ResilientComm::Attempt {
    /// Proves and compiles `s` (see rt::CheckedPlan) and checks that every
    /// `contract` pair is one of the plan's slots. The slots are the
    /// executor's holdings once the plan's first clean run passes the
    /// rule, so that run holds the canonical block at every contract pair.
    Attempt(Schedule s, const Contract& contract, std::size_t block_elems,
            std::uint32_t workers, std::vector<node_t> members)
        : schedule(std::move(s)),
          checked(schedule, schedule, rt::DataMode::move,
                  sim::PortModel::one_port_full_duplex, block_elems, workers,
                  std::move(members)) {
        HCUBE_ENSURE_MSG(
            std::ranges::includes(checked.plan().slot_keys, contract),
            "contract pair the schedule never delivers");
    }

    Schedule schedule;
    rt::CheckedPlan checked;
};

ResilientComm::ResilientComm(dim_t n, ResilientParams params)
    : n_(n), params_(params),
      threads_(rt::pick_worker_threads(n, params.threads)),
      residents_(kResidentAttempts), view_(n) {
    HCUBE_ENSURE(n >= 1 && n <= hc::kMaxDimension);
    HCUBE_ENSURE(params_.block_elems >= 1);
}

ResilientComm::~ResilientComm() = default;

std::shared_ptr<ResilientComm::Attempt>
ResilientComm::build(Schedule schedule, const Contract& contract,
                     bool on_members) const {
    return std::make_shared<Attempt>(
        std::move(schedule), contract, params_.block_elems,
        on_members ? std::min(threads_, view_.count()) : threads_,
        on_members ? view_.members() : std::vector<node_t>{});
}

bool ResilientComm::play_attempt(Attempt& attempt, FaultInjector& injector,
                                 clock::time_point start,
                                 RecoveryResult& out) {
    injector.arm(attempt.checked.plan());
    rt::AsyncPlayer& player = attempt.checked.player();
    player.set_detection(kDetect);
    player.set_fault_hook(injector.inert() ? nullptr : &injector);
    player.set_trace(trace_);
    const rt::CheckedRun run = attempt.checked.play();
    ++out.attempts;
    if (!run.stats.clean() ||
        run.stats.blocks_delivered != attempt.schedule.sends.size()) {
        out.reports.push_back(player.fault_report());
        // Detection latency: attempt start to the failed run's join — how
        // long the fault took to surface and drain.
        static obs::Histogram& m_detect =
            obs::registry().histogram("ft.detect_ns");
        m_detect.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                clock::now() - start)
                .count()));
        return false;
    }
    out.delivered = run.verified;
    out.stats = run.stats;
    out.final_seconds = run.stats.seconds;
    return true;
}

RecoveryResult ResilientComm::run(const Op& op, const FaultPlan& faults) {
    const bool on_members = op.on_members();
    HCUBE_ENSURE_MSG(!on_members || view_.contains(op.root),
                     "collective root is not a live member");
    RecoveryResult out;
    // The first attempt replays the op's resident fault-free attempt (of
    // the call's view, for member ops), built on a miss.
    const std::shared_ptr<Attempt> resident = residents_.get_or_create(
        on_members ? op.key + "/" + std::to_string(view_.fingerprint())
                   : op.key,
        [&] {
            const clock::time_point t0 = clock::now();
            Schedule schedule = op.make();
            const Contract contract = op.contract_of(schedule);
            std::shared_ptr<Attempt> built =
                build(std::move(schedule), contract, on_members);
            out.oracle_seconds = seconds_since(t0);
            return built;
        });
    FaultInjector injector(faults);
    std::shared_ptr<Attempt> attempt = resident;

    for (;;) {
        const clock::time_point start = clock::now();
        if (play_attempt(*attempt, injector, start, out)) {
            break;
        }
        // Declare the reported link dead (a member op: its non-root
        // endpoint too, which leaves the view). A timeout/mismatch with no
        // claimed report (cannot happen with abort_on_fault, but cheap to
        // guard) aborts recovery.
        const FaultReport& report = out.reports.back();
        HCUBE_ENSURE_MSG(report.faulted(),
                         "attempt failed without a fault report");
        out.dead_links.push_back({report.from, report.to});
        out.recovered = true;
        if (on_members) {
            // The root's own death is unrecoverable (no one else holds
            // the data).
            const node_t victim =
                report.to == op.root ? report.from : report.to;
            HCUBE_ENSURE_MSG(victim != op.root,
                             "the collective root died — unrecoverable");
            out.dead_nodes.push_back(victim);
            view_.leave(victim);
        }
        if (out.attempts == kMaxAttempts) {
            // Budget spent: report the schedule the last attempt ran and
            // build nothing it cannot run.
            out.recovery_seconds += seconds_since(start);
            break;
        }
        // Heal: a link op replans around the whole dead set and keeps its
        // contract; a member op rebuilds tree and contract over the
        // survivors.
        Schedule next =
            on_members ? op.make() : op.replan(out.dead_links, out);
        const Contract contract =
            op.contract_of(on_members ? next : resident->schedule);
        out.recovery_seconds += seconds_since(start);
        attempt = build(std::move(next), contract, on_members);
    }
    out.final_schedule = attempt->schedule;
    if (on_members) {
        out.view_epoch = view_.epoch();
    }
    return out;
}

RecoveryResult ResilientComm::broadcast_sbt(node_t root, packet_t packets,
                                            const FaultPlan& faults) {
    return run(
        {.key = "bcast_sbt/" + std::to_string(root) + "/" +
                std::to_string(packets),
         .root = root,
         .make =
             [this, root, packets] {
                 return routing::make_tree_broadcast(
                     trees::build_sbt(n_, root),
                     routing::BroadcastDiscipline::paced, packets,
                     sim::PortModel::one_port_full_duplex);
             },
         .contract_of =
             [this, packets](const Schedule&) {
                 return broadcast_contract(n_, packets);
             },
         .replan =
             [this, root, packets](std::span<const DirectedLink> dead,
                                   RecoveryResult&) {
                 return routing::make_tree_broadcast(
                     trees::build_broadcast_tree_avoiding(
                         n_, root, failed_links(dead), kReplanSeed),
                     routing::BroadcastDiscipline::paced, packets,
                     sim::PortModel::one_port_full_duplex);
             }},
        faults);
}

RecoveryResult ResilientComm::broadcast_msbt(node_t root, packet_t packets,
                                             const FaultPlan& faults) {
    HCUBE_ENSURE_MSG(packets % static_cast<packet_t>(n_) == 0,
                     "MSBT broadcast needs packets divisible by n");
    const packet_t pps = packets / static_cast<packet_t>(n_);
    return run(
        {.key = "bcast_msbt/" + std::to_string(root) + "/" +
                std::to_string(packets),
         .root = root,
         .make =
             [this, root, packets] {
                 return routing::make_msbt_broadcast(
                     n_, root, packets, sim::PortModel::one_port_full_duplex);
             },
         .contract_of =
             [this, packets](const Schedule&) {
                 return broadcast_contract(n_, packets);
             },
         .replan =
             [this, root, pps](std::span<const DirectedLink> dead,
                               RecoveryResult& out) {
                 SurvivorMsbt survivor =
                     make_msbt_survivor_broadcast(n_, root, pps, dead);
                 out.dropped_trees = std::move(survivor.dropped_trees);
                 return std::move(survivor.schedule);
             }},
        faults);
}

RecoveryResult ResilientComm::scatter_sbt(node_t root,
                                          packet_t packets_per_dest,
                                          const FaultPlan& faults) {
    return run(
        {.key = "scatter_sbt/" + std::to_string(root) + "/" +
                std::to_string(packets_per_dest),
         .root = root,
         .make =
             [this, root, packets_per_dest] {
                 return routing::make_tree_scatter(
                     trees::build_sbt(n_, root),
                     routing::ScatterPolicy::descending, packets_per_dest,
                     sim::PortModel::one_port_full_duplex);
             },
         .contract_of = scatter_contract,
         // scatter_one_port's packet ids depend only on dest ^ root, so
         // any replacement spanning tree delivers the identical contract.
         .replan =
             [this, root, packets_per_dest](
                 std::span<const DirectedLink> dead, RecoveryResult&) {
                 return routing::make_tree_scatter(
                     trees::build_broadcast_tree_avoiding(
                         n_, root, failed_links(dead), kReplanSeed),
                     routing::ScatterPolicy::descending, packets_per_dest,
                     sim::PortModel::one_port_full_duplex);
             }},
        faults);
}

RecoveryResult ResilientComm::broadcast_members(node_t root,
                                                packet_t packets,
                                                const FaultPlan& faults) {
    return run(
        {.key = "bcast_members/" + std::to_string(root) + "/" +
                std::to_string(packets),
         .root = root,
         .make =
             [this, root, packets] {
                 return routing::make_member_broadcast(
                     view_, root, routing::BroadcastDiscipline::paced,
                     packets, sim::PortModel::one_port_full_duplex);
             },
         .contract_of =
             [this, packets](const Schedule&) {
                 return member_broadcast_contract(view_, packets);
             },
         .replan = nullptr},
        faults);
}

RecoveryResult ResilientComm::scatter_members(node_t root,
                                              packet_t packets_per_dest,
                                              const FaultPlan& faults) {
    // The generic terminal-destination walk already speaks member scatter:
    // packet ids are dense over live destinations.
    return run({.key = "scatter_members/" + std::to_string(root) + "/" +
                       std::to_string(packets_per_dest),
                .root = root,
                .make =
                    [this, root, packets_per_dest] {
                        return routing::make_member_scatter(
                            view_, root, packets_per_dest);
                    },
                .contract_of = scatter_contract,
                .replan = nullptr},
               faults);
}

} // namespace hcube::ft
