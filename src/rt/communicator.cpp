#include "rt/communicator.hpp"

#include "common/check.hpp"
#include "rt/expected.hpp"
#include "rt/pool.hpp"
#include "rt/threads.hpp"

namespace hcube::rt {

using sim::packet_t;
using sim::Schedule;

Communicator::Communicator(hc::dim_t n, Params params)
    : n_(n), params_(params),
      threads_(pick_worker_threads(n, params.threads)),
      pool_(threads_ > 1 ? std::make_unique<WorkerPool>(threads_)
                         : nullptr) {
    HCUBE_ENSURE(n >= 1 && n <= hc::kMaxDimension);
    HCUBE_ENSURE(params_.block_elems >= 1);
}

Communicator::~Communicator() = default;

Result Communicator::run(CheckedPlan& checked) {
    const CheckedRun run = checked.play(pool_.get());
    const PlayStats& stats = run.stats;
    Result result;
    result.rt_cycles = stats.cycles;
    result.sim_makespan = checked.makespan();
    result.blocks_delivered = stats.blocks_delivered;
    result.payload_bytes = stats.payload_bytes;
    result.bytes_copied = stats.bytes_copied;
    result.seconds = stats.seconds;
    result.steals = stats.steals;
    result.checksum_failures = stats.checksum_failures;
    result.channel_faults = stats.channel_faults;
    result.timeouts = stats.timeouts;
    result.verified = run.verified;
    result.pool_reused = pool_ != nullptr || threads_ == 1;
    result.exec_mode = stats.mode;
    result.transport = stats.transport;
    result.threads = threads_;
    return result;
}

Result Communicator::run_move(const Schedule& schedule) {
    CheckedPlan checked(schedule, schedule, DataMode::move, params_.model,
                        params_.block_elems, threads_);
    return run(checked);
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
    // The forward broadcast is the feasibility proof; time reversal
    // preserves it (every constraint the executor checks is symmetric
    // under reversal).
    const Schedule forward = routing::make_tree_broadcast(
        tree, routing::BroadcastDiscipline::port_oriented, packets,
        params_.model);
    CheckedPlan checked(
        routing::reverse_broadcast_for_reduce(forward, tree.root), forward,
        DataMode::combine, params_.model, params_.block_elems, threads_);
    return run(checked);
}

} // namespace hcube::rt
