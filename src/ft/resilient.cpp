#include "ft/resilient.hpp"

#include "common/check.hpp"
#include "common/lru_cache.hpp"
#include "obs/metrics.hpp"
#include "routing/schedule_export.hpp"
#include "rt/async_player.hpp"
#include "rt/expected.hpp"
#include "rt/threads.hpp"
#include "sim/cycle.hpp"
#include "trees/fault.hpp"
#include "trees/sbt.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

namespace hcube::ft {

namespace {

using sim::Schedule;

/// The op's contract `contract_of(schedule)`, checked against the cycle
/// executor's holdings of that fault-free schedule: the executor proves
/// the schedule feasible, and every contract pair must be one it delivers
/// — otherwise no run could ever satisfy the contract. The time both take
/// is added to `oracle_seconds`.
template <class ContractOf>
std::vector<std::pair<node_t, packet_t>>
checked_contract(const Schedule& schedule, const ContractOf& contract_of,
                 double& oracle_seconds) {
    using clock = std::chrono::steady_clock;
    const clock::time_point t0 = clock::now();
    std::vector<std::pair<node_t, packet_t>> contract = contract_of(schedule);
    const sim::CycleStats sim_stats = sim::execute_schedule(
        schedule, sim::PortModel::one_port_full_duplex);
    const sim::DeliveryMap& held = sim_stats.delivery_cycle;
    for (const auto& [node, packet] : contract) {
        HCUBE_ENSURE_MSG(node < held.nodes() && packet < held.packets() &&
                             sim_stats.holds(node, packet),
                         "contract pair the fault-free schedule never "
                         "delivers");
    }
    oracle_seconds +=
        std::chrono::duration<double>(clock::now() - t0).count();
    return contract;
}

/// Member broadcast contract: every *live* member ends up holding every
/// packet — the contract contracts with the view.
std::vector<std::pair<node_t, packet_t>>
member_broadcast_contract(const mbr::View& view, packet_t packets) {
    std::vector<std::pair<node_t, packet_t>> contract;
    contract.reserve(static_cast<std::size_t>(view.count()) *
                     static_cast<std::size_t>(packets));
    for (const node_t v : view.members()) {
        for (packet_t p = 0; p < packets; ++p) {
            contract.emplace_back(v, p);
        }
    }
    return contract;
}

/// Broadcast contract: every node ends up holding every packet.
std::vector<std::pair<node_t, packet_t>>
broadcast_contract(dim_t n, packet_t packets) {
    std::vector<std::pair<node_t, packet_t>> contract;
    contract.reserve((std::size_t{1} << n) *
                     static_cast<std::size_t>(packets));
    for (node_t i = 0; i < (node_t{1} << n); ++i) {
        for (packet_t p = 0; p < packets; ++p) {
            contract.emplace_back(i, p);
        }
    }
    return contract;
}

/// Scatter contract: each packet's terminal destination (the target of its
/// last scheduled hop — a scatter routes every packet down one path) plus
/// the source's seeded copy. Relay transits are route artifacts and are
/// deliberately excluded: any replacement tree delivers the same contract.
std::vector<std::pair<node_t, packet_t>>
scatter_contract(const Schedule& schedule) {
    std::vector<std::uint32_t> last_cycle(schedule.packet_count, 0);
    std::vector<node_t> dest(schedule.packet_count);
    for (packet_t p = 0; p < schedule.packet_count; ++p) {
        dest[p] = schedule.initial_holder[p];
    }
    for (const sim::ScheduledSend& send : schedule.sends) {
        if (send.cycle >= last_cycle[send.packet]) {
            last_cycle[send.packet] = send.cycle + 1;
            dest[send.packet] = send.to;
        }
    }
    std::vector<std::pair<node_t, packet_t>> contract;
    contract.reserve(2 * schedule.packet_count);
    for (packet_t p = 0; p < schedule.packet_count; ++p) {
        contract.emplace_back(schedule.initial_holder[p], p);
        if (dest[p] != schedule.initial_holder[p]) {
            contract.emplace_back(dest[p], p);
        }
    }
    return contract;
}

/// `schedule` compiled for an attempt: over the full cube on `threads`
/// workers, or (member ops) over `view`'s live members.
rt::Plan compile_attempt(const Schedule& schedule,
                         const ResilientParams& params,
                         std::uint32_t threads, const mbr::View* view) {
    if (view == nullptr) {
        return compile_plan(schedule, rt::DataMode::move, params.block_elems,
                            threads);
    }
    const std::vector<node_t> members = view->members();
    return compile_plan(
        schedule, rt::DataMode::move, params.block_elems,
        std::min(threads, static_cast<std::uint32_t>(members.size())), 8,
        rt::PlanLayout::automatic, members);
}

/// Fault-free attempts kept resident. Each holds a compiled plan and a
/// player, so the bound is on memory: eight holds the five ops at one root
/// and view each, with room for a few more roots or member views.
constexpr std::uint64_t kResidentAttempts = 8;

} // namespace

struct ResilientComm::Attempt {
    /// Compiles `schedule` (see compile_attempt) and allocates its player.
    Attempt(const Schedule& schedule, const ResilientParams& params,
            std::uint32_t threads, const mbr::View* view)
        : plan(compile_attempt(schedule, params, threads, view)),
          player(plan) {}
    // The player holds a reference to plan, so an Attempt never moves.
    Attempt(const Attempt&) = delete;
    Attempt& operator=(const Attempt&) = delete;

    /// Every contract pair of the last play holds its packet's canonical
    /// block, byte for byte (the recovered plan may hold extra relay
    /// copies; only the contract is demanded). The first check also proves
    /// the plan's arena and digest table against independently derived
    /// canonical digests, so the comparison never trusts anything the run
    /// produced. The arena is immutable (fault hooks stage copies and
    /// never write it), so once proven a resident attempt's later plays
    /// check only the contract pairs.
    [[nodiscard]] bool holds(const Contract& contract) {
        if (!arena_proven) {
            if (!rt::arena_is_canonical(plan)) {
                return false;
            }
            arena_proven = true;
        }
        for (const auto& [node, packet] : contract) {
            if (!rt::is_arena_block(plan, player.block(node, packet),
                                    packet)) {
                return false;
            }
        }
        return true;
    }

    rt::Plan plan;
    rt::AsyncPlayer player;
    bool arena_proven = false; ///< arena_is_canonical accepted this plan
};

struct ResilientComm::Resident {
    Resident(Schedule s, Contract c, const ResilientParams& params,
             std::uint32_t threads, const mbr::View* view)
        : schedule(std::move(s)), contract(std::move(c)),
          attempt(schedule, params, threads, view) {}

    Schedule schedule;
    Contract contract;
    Attempt attempt;
};

struct ResilientComm::Cache {
    LruCache<std::string, std::shared_ptr<Resident>> residents{
        kResidentAttempts};
    /// Checked contracts of healing attempts, keyed by op and survivor
    /// view: a sweep of fault positions pays for each view's check once.
    std::map<std::string, Contract> contracts;
};

std::shared_ptr<ResilientComm::Resident>
ResilientComm::resident(const std::string& key,
                        const std::function<Schedule()>& make,
                        const ContractOf& contract_of, const mbr::View* view,
                        RecoveryResult& out) {
    return cache_->residents.get_or_create(key, [&] {
        Schedule schedule = make();
        Contract contract =
            checked_contract(schedule, contract_of, out.oracle_seconds);
        return std::make_shared<Resident>(std::move(schedule),
                                          std::move(contract), params_,
                                          threads_, view);
    });
}

const ResilientComm::Contract&
ResilientComm::expected_state(const std::string& key,
                              const Schedule& schedule,
                              const ContractOf& contract_of,
                              RecoveryResult& out) {
    auto cached = cache_->contracts.find(key);
    if (cached == cache_->contracts.end()) {
        cached = cache_->contracts
                     .emplace(key, checked_contract(schedule, contract_of,
                                                    out.oracle_seconds))
                     .first;
    }
    return cached->second;
}

ResilientComm::ResilientComm(dim_t n, ResilientParams params)
    : n_(n), params_(params),
      threads_(rt::pick_worker_threads(n, params.threads)),
      cache_(std::make_unique<Cache>()), view_(n) {
    HCUBE_ENSURE(n >= 1 && n <= hc::kMaxDimension);
    HCUBE_ENSURE(params_.block_elems >= 1);
    HCUBE_ENSURE_MSG(params_.detect.enabled(),
                     "resilient execution requires a nonzero arrival "
                     "timeout — detection is the trigger for recovery");
    HCUBE_ENSURE(params_.max_attempts >= 1);
}

ResilientComm::~ResilientComm() = default;

bool ResilientComm::play_attempt(Attempt& attempt, const Schedule& schedule,
                                 const Contract& expected,
                                 FaultInjector& injector,
                                 clock::time_point start,
                                 RecoveryResult& out) {
    injector.arm(attempt.plan);
    rt::AsyncPlayer& player = attempt.player;
    player.set_detection(params_.detect);
    player.set_fault_hook(injector.inert() ? nullptr : &injector);
    player.set_trace(trace_);
    const rt::PlayStats stats = player.play();
    ++out.attempts;
    if (!stats.clean() || stats.blocks_delivered != schedule.sends.size()) {
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
    out.delivered = attempt.holds(expected);
    out.stats = stats;
    out.final_seconds = stats.seconds;
    return true;
}

RecoveryResult ResilientComm::run_resilient(
    const std::string& key, const std::function<Schedule()>& make_initial,
    const ContractOf& contract_of, const FaultPlan& faults,
    const Replanner& replan) {
    RecoveryResult out;
    const std::shared_ptr<Resident> entry =
        resident(key, make_initial, contract_of, nullptr, out);
    FaultInjector injector(faults);
    Schedule schedule; // the replanned schedule of the next attempt

    for (std::uint32_t attempt = 0; attempt < params_.max_attempts;
         ++attempt) {
        const clock::time_point attempt_start = clock::now();
        // The first attempt replays the resident fault-free plan; a
        // healing attempt compiles its replanned schedule. The contract
        // is the op's, whatever the route.
        std::optional<Attempt> healing;
        if (attempt > 0) {
            healing.emplace(schedule, params_, threads_, nullptr);
        }
        const Schedule& ran = healing ? schedule : entry->schedule;
        if (play_attempt(healing ? *healing : entry->attempt, ran,
                         entry->contract, injector, attempt_start, out)) {
            out.final_schedule = ran;
            return out;
        }

        // Heal: declare the reported link dead and replan around the whole
        // dead set. A timeout/mismatch with no claimed report (cannot
        // happen with abort_on_fault, but cheap to guard) aborts recovery.
        const FaultReport& report = out.reports.back();
        HCUBE_ENSURE_MSG(report.faulted(),
                         "attempt failed without a fault report");
        out.dead_links.push_back({report.from, report.to});
        out.recovered = true;
        schedule = replan(out.dead_links, out);
        out.recovery_seconds +=
            std::chrono::duration<double>(clock::now() - attempt_start)
                .count();
    }
    // Attempt budget exhausted without a clean run.
    out.final_schedule = std::move(schedule);
    return out;
}

RecoveryResult ResilientComm::broadcast_sbt(node_t root, packet_t packets,
                                            const FaultPlan& faults) {
    const Replanner replan = [this, root, packets](
                                 std::span<const DirectedLink> dead,
                                 RecoveryResult&) {
        std::vector<trees::Link> failed;
        failed.reserve(dead.size());
        for (const DirectedLink& link : dead) {
            failed.push_back(trees::make_link(link.from, link.to));
        }
        return routing::make_tree_broadcast(
            trees::build_broadcast_tree_avoiding(n_, root, failed,
                                                 params_.replan_seed),
            routing::BroadcastDiscipline::paced, packets,
            sim::PortModel::one_port_full_duplex);
    };
    return run_resilient(
        "bcast_sbt/" + std::to_string(root) + "/" + std::to_string(packets),
        [this, root, packets] {
            return routing::make_tree_broadcast(
                trees::build_sbt(n_, root),
                routing::BroadcastDiscipline::paced, packets,
                sim::PortModel::one_port_full_duplex);
        },
        [this, packets](const Schedule&) {
            return broadcast_contract(n_, packets);
        },
        faults, replan);
}

RecoveryResult ResilientComm::broadcast_msbt(node_t root, packet_t packets,
                                             const FaultPlan& faults) {
    HCUBE_ENSURE_MSG(packets % static_cast<packet_t>(n_) == 0,
                     "MSBT broadcast needs packets divisible by n");
    const packet_t pps = packets / static_cast<packet_t>(n_);
    const Replanner replan = [this, root,
                              pps](std::span<const DirectedLink> dead,
                                   RecoveryResult& out) {
        SurvivorMsbt survivor =
            make_msbt_survivor_broadcast(n_, root, pps, dead);
        out.dropped_trees = std::move(survivor.dropped_trees);
        return std::move(survivor.schedule);
    };
    return run_resilient(
        "bcast_msbt/" + std::to_string(root) + "/" + std::to_string(packets),
        [this, root, packets] {
            return routing::make_msbt_broadcast(
                n_, root, packets, sim::PortModel::one_port_full_duplex);
        },
        [this, packets](const Schedule&) {
            return broadcast_contract(n_, packets);
        },
        faults, replan);
}

RecoveryResult ResilientComm::run_member_resilient(
    const std::string& op_key, node_t root, const FaultPlan& faults,
    const std::function<Schedule()>& make, const ContractOf& contract_of) {
    HCUBE_ENSURE_MSG(view_.contains(root),
                     "collective root is not a live member");
    const auto key = [&] {
        return op_key + "/" + std::to_string(view_.fingerprint());
    };
    RecoveryResult out;
    const std::shared_ptr<Resident> entry =
        resident(key(), make, contract_of, &view_, out);
    FaultInjector injector(faults);

    for (std::uint32_t attempt = 0; attempt < params_.max_attempts;
         ++attempt) {
        const clock::time_point attempt_start = clock::now();
        // The first attempt replays the resident plan of the call's view.
        // A healing attempt runs on a survivor view: its schedule and
        // contract are both functions of the shrunk member set, so it
        // builds and compiles them, caching only the checked contract
        // (keyed by the view fingerprint).
        Schedule schedule;
        const Contract* expected = &entry->contract;
        std::optional<Attempt> healing;
        if (attempt > 0) {
            schedule = make();
            expected = &expected_state(key(), schedule, contract_of, out);
            healing.emplace(schedule, params_, threads_, &view_);
        }
        const Schedule& ran = healing ? schedule : entry->schedule;
        if (play_attempt(healing ? *healing : entry->attempt, ran, *expected,
                         injector, attempt_start, out)) {
            out.final_schedule = ran;
            out.view_epoch = view_.epoch();
            return out;
        }

        // Heal: the fault is a node death, not a wire break. The non-root
        // endpoint of the reported link leaves the view; the next attempt
        // rebuilds tree and contract over the survivors. The
        // root's own death is unrecoverable (no one else holds the data).
        const FaultReport& report = out.reports.back();
        HCUBE_ENSURE_MSG(report.faulted(),
                         "attempt failed without a fault report");
        const node_t victim = report.to == root ? report.from : report.to;
        HCUBE_ENSURE_MSG(victim != root,
                         "the collective root died — unrecoverable");
        out.dead_links.push_back({report.from, report.to});
        out.dead_nodes.push_back(victim);
        view_.leave(victim);
        out.recovered = true;
        out.recovery_seconds +=
            std::chrono::duration<double>(clock::now() - attempt_start)
                .count();
    }
    // Attempt budget exhausted without a clean run.
    out.final_schedule = make();
    out.view_epoch = view_.epoch();
    return out;
}

RecoveryResult ResilientComm::broadcast_members(node_t root,
                                                packet_t packets,
                                                const FaultPlan& faults) {
    return run_member_resilient(
        "bcast_members/" + std::to_string(root) + "/" +
            std::to_string(packets),
        root, faults,
        [this, root, packets] {
            return routing::make_member_broadcast(
                view_, root, routing::BroadcastDiscipline::paced, packets,
                sim::PortModel::one_port_full_duplex);
        },
        [this, packets](const Schedule&) {
            return member_broadcast_contract(view_, packets);
        });
}

RecoveryResult ResilientComm::scatter_members(node_t root,
                                              packet_t packets_per_dest,
                                              const FaultPlan& faults) {
    // The generic terminal-destination walk already speaks member scatter:
    // packet ids are dense over live destinations.
    return run_member_resilient(
        "scatter_members/" + std::to_string(root) + "/" +
            std::to_string(packets_per_dest),
        root, faults,
        [this, root, packets_per_dest] {
            return routing::make_member_scatter(view_, root,
                                                packets_per_dest);
        },
        scatter_contract);
}

RecoveryResult ResilientComm::scatter_sbt(node_t root,
                                          packet_t packets_per_dest,
                                          const FaultPlan& faults) {
    const Replanner replan = [this, root, packets_per_dest](
                                 std::span<const DirectedLink> dead,
                                 RecoveryResult&) {
        std::vector<trees::Link> failed;
        failed.reserve(dead.size());
        for (const DirectedLink& link : dead) {
            failed.push_back(trees::make_link(link.from, link.to));
        }
        // scatter_one_port's packet ids depend only on dest ^ root, so any
        // replacement spanning tree delivers the identical contract.
        return routing::make_tree_scatter(
            trees::build_broadcast_tree_avoiding(n_, root, failed,
                                                 params_.replan_seed),
            routing::ScatterPolicy::descending, packets_per_dest,
            sim::PortModel::one_port_full_duplex);
    };
    return run_resilient("scatter_sbt/" + std::to_string(root) + "/" +
                             std::to_string(packets_per_dest),
                         [this, root, packets_per_dest] {
                             return routing::make_tree_scatter(
                                 trees::build_sbt(n_, root),
                                 routing::ScatterPolicy::descending,
                                 packets_per_dest,
                                 sim::PortModel::one_port_full_duplex);
                         },
                         scatter_contract, faults, replan);
}

} // namespace hcube::ft
