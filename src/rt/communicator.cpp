#include "rt/communicator.hpp"

#include "common/check.hpp"
#include "rt/async_player.hpp"
#include "rt/expected.hpp"
#include "rt/player.hpp"
#include "rt/pool.hpp"
#include "rt/threads.hpp"
#include "sim/cycle.hpp"

namespace hcube::rt {

namespace {

using sim::packet_t;
using sim::Schedule;

/// The per-run numbers every operation reports identically, including the
/// fault counters the ft layer (and bench JSON) watches.
void copy_play_stats(Result& result, const PlayStats& stats) {
    result.rt_cycles = stats.cycles;
    result.blocks_delivered = stats.blocks_delivered;
    result.payload_bytes = stats.payload_bytes;
    result.bytes_copied = stats.bytes_copied;
    result.seconds = stats.seconds;
    result.steals = stats.steals;
    result.exec_mode = stats.mode;
    result.transport = stats.transport;
    result.checksum_failures = stats.checksum_failures;
    result.channel_faults = stats.channel_faults;
    result.timeouts = stats.timeouts;
}

/// Plays `plan` on `params.engine` and verifies the run: clean stats,
/// `sends` deliveries, a final memory `check(player)` accepts (the
/// expected-state rule), and under Engine::barrier cycles == `makespan`.
template <class Check>
Result play_checked(const Plan& plan, const Params& params,
                    WorkerPool* pool, std::uint32_t threads,
                    std::size_t sends, std::uint32_t makespan,
                    const Check& check) {
    Result result;
    result.engine = params.engine;
    result.threads = threads;
    result.pool_reused = pool != nullptr || threads == 1;
    result.sim_makespan = makespan;
    const auto finish = [&](const auto& player, const PlayStats& stats) {
        copy_play_stats(result, stats);
        result.verified = stats.clean() && stats.blocks_delivered == sends &&
                          check(player);
    };
    if (params.engine == Engine::barrier) {
        Player player(plan, params.channel_capacity);
        const PlayStats stats = player.play(pool);
        finish(player, stats);
        result.verified = result.verified && stats.cycles == makespan;
    } else {
        AsyncPlayer player(plan);
        finish(player, player.play(pool));
    }
    return result;
}

} // namespace

Communicator::Communicator(hc::dim_t n, Params params)
    : n_(n), params_(params),
      threads_(pick_worker_threads(n, params.threads)),
      pool_(threads_ > 1 ? std::make_unique<WorkerPool>(threads_)
                         : nullptr) {
    HCUBE_ENSURE(n >= 1 && n <= hc::kMaxDimension);
    HCUBE_ENSURE(params_.block_elems >= 1);
}

Communicator::~Communicator() = default;

Result Communicator::run_move(const Schedule& schedule) {
    // The cycle executor proves the schedule feasible under the port model
    // and records the holdings the run's final memory must reproduce.
    const sim::CycleStats sim_stats =
        sim::execute_schedule(schedule, params_.model);
    const Plan plan = compile_plan(schedule, DataMode::move,
                                   params_.block_elems, threads_);
    return play_checked(plan, params_, pool_.get(), threads_,
                        schedule.sends.size(), sim_stats.makespan,
                        [&](const auto& player) {
                            return check_move_run(plan, sim_stats, player);
                        });
}

Result Communicator::broadcast(const trees::SpanningTree& tree,
                               routing::BroadcastDiscipline discipline,
                               packet_t packets) {
    HCUBE_ENSURE(tree.n == n_);
    return run_move(routing::make_tree_broadcast(tree, discipline, packets,
                                                 params_.model));
}

Result Communicator::broadcast_msbt(hc::node_t root, packet_t packets) {
    return run_move(
        routing::make_msbt_broadcast(n_, root, packets, params_.model));
}

Result Communicator::scatter(const trees::SpanningTree& tree,
                             routing::ScatterPolicy policy,
                             packet_t packets_per_dest) {
    HCUBE_ENSURE(tree.n == n_);
    return run_move(routing::make_tree_scatter(tree, policy,
                                               packets_per_dest,
                                               params_.model));
}

Result Communicator::gather(const trees::SpanningTree& tree,
                            routing::ScatterPolicy policy,
                            packet_t packets_per_dest) {
    HCUBE_ENSURE(tree.n == n_);
    return run_move(routing::make_tree_gather(tree, policy, packets_per_dest,
                                              params_.model));
}

Result Communicator::allgather() {
    return run_move(routing::make_allgather_schedule(n_));
}

Result Communicator::alltoall(packet_t packets_per_pair) {
    return run_move(routing::make_alltoall_schedule(n_, packets_per_pair));
}

Result Communicator::reduce(const trees::SpanningTree& tree,
                            packet_t packets) {
    HCUBE_ENSURE(tree.n == n_);
    // The forward broadcast provides the feasibility proof and the
    // makespan; time reversal preserves both (every constraint the
    // executor checks is symmetric under reversal).
    const Schedule forward = routing::make_tree_broadcast(
        tree, routing::BroadcastDiscipline::port_oriented, packets,
        params_.model);
    const sim::CycleStats sim_stats =
        sim::execute_schedule(forward, params_.model);
    const Schedule reduction =
        routing::reverse_broadcast_for_reduce(forward, tree.root);

    const Plan plan = compile_plan(reduction, DataMode::combine,
                                   params_.block_elems, threads_);
    return play_checked(plan, params_, pool_.get(), threads_,
                        reduction.sends.size(), sim_stats.makespan,
                        [&](const auto& player) {
                            return check_combine_run(plan, reduction,
                                                     tree.root, {}, player)
                                .has_value();
                        });
}

} // namespace hcube::rt
