// A persistent worker pool the execution engine can replay plans on.
//
// The AsyncPlayer would otherwise create and join plan.workers
// std::threads inside every stealing play() call — measurable at tens of
// microseconds per operation, which dominates small collectives and is pure
// waste for a service executing thousands of cached plans. A WorkerPool
// keeps the threads alive across operations: play(pool) dispatches the
// per-worker body onto the resident threads and blocks until the job
// retires, so steady-state operations pay two condition-variable rounds
// instead of thread creation.
//
// Synchronization contract: run() publishes everything the caller wrote
// before the call (plan memory seeds, channel rewinds, detection config) to
// every participating thread via the job mutex, and the completion wait
// publishes everything the workers wrote back to the caller — the same
// happens-before edges thread creation/join used to provide, which is what
// keeps the channel bank's "caller's thread creation provides the
// publication" comments true under pooling. Concurrent run() calls
// serialize on an admission mutex: the pool is one machine. svc::Service
// plays cache hits on its callers' threads, so stealing plays of different
// callers take turns here rather than timeslicing the workers; serial
// plays, which are every zero-copy hit, never reach the pool.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hcube::rt {

class WorkerPool {
public:
    /// Body of one job: called once per participating worker with the
    /// worker index in [0, workers).
    using Job = std::function<void(std::uint32_t)>;

    /// Starts `threads` resident worker threads (at least 1). With `pin`
    /// (the default) each thread is pinned round-robin onto the process's
    /// allowed CPU set so a resident worker keeps its cache-hot state on
    /// one core across plays; best-effort, Linux-only, and disabled by the
    /// HCUBE_NO_PIN=1 environment variable.
    explicit WorkerPool(std::uint32_t threads, bool pin = true);
    ~WorkerPool();
    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    [[nodiscard]] std::uint32_t size() const noexcept {
        return static_cast<std::uint32_t>(threads_.size());
    }

    /// Jobs dispatched so far (each play() on the pool is one job).
    [[nodiscard]] std::uint64_t jobs_run() const;

    /// Runs `job(w)` for every w in [0, workers) on the resident threads
    /// and blocks until all of them returned. `workers` must not exceed
    /// size(). Concurrent callers serialize (one job at a time).
    void run(std::uint32_t workers, const Job& job);

private:
    void thread_main(std::uint32_t index);

    std::vector<std::thread> threads_;
    std::mutex admission_; ///< serializes concurrent run() callers

    mutable std::mutex mutex_;
    std::condition_variable work_cv_; ///< workers wait for a generation bump
    std::condition_variable done_cv_; ///< the caller waits for remaining_ = 0
    const Job* job_ = nullptr;
    std::uint32_t active_workers_ = 0;
    std::uint32_t remaining_ = 0;
    std::uint64_t generation_ = 0;
    std::uint64_t jobs_ = 0;
    bool stop_ = false;
};

} // namespace hcube::rt
