#include "svc/service.hpp"

#include "common/check.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hcube::svc {

namespace {

/// Process-wide mirrors of the per-instance Service counters, plus the
/// queue/latency instruments. Looked up once; the registry hands back
/// stable references.
struct ServiceMetrics {
    obs::Counter& submitted = obs::registry().counter("svc.submitted");
    obs::Counter& executed = obs::registry().counter("svc.executed");
    obs::Counter& batched = obs::registry().counter("svc.batched");
    obs::Counter& rejected = obs::registry().counter("svc.rejected");
    obs::Counter& failed = obs::registry().counter("svc.failed");
    obs::Gauge& queue_depth = obs::registry().gauge("svc.queue_depth");
    obs::Histogram& queue_wait_ns =
        obs::registry().histogram("svc.queue_wait_ns");
    obs::Histogram& execute_ns =
        obs::registry().histogram("svc.execute_ns");
};

ServiceMetrics& metrics() {
    static ServiceMetrics m;
    return m;
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - since)
            .count());
}

} // namespace

Service::Service(dim_t n, ServiceParams params)
    : session_(n, params.session), params_(params),
      dispatcher_([this] { dispatch_loop(); }) {
    HCUBE_ENSURE(params_.queue_depth >= 1);
}

Service::~Service() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        paused_ = false; // a paused service still drains on shutdown
    }
    admit_cv_.notify_all();
    dispatch_cv_.notify_all();
    dispatcher_.join();
}

std::future<Response> Service::submit(const Request& req) {
    Pending pending;
    pending.sig = req.sig;
    pending.client_id = req.client_id;
    std::future<Response> future = pending.promise.get_future();

    std::unique_lock<std::mutex> lock(mutex_);
    HCUBE_ENSURE_MSG(!stopping_, "submit() on a stopping service");
    if (queue_.size() >= params_.queue_depth) {
        if (params_.admission == Admission::reject) {
            c_rejected_.inc();
            metrics().rejected.inc();
            lock.unlock();
            Response response;
            response.status = Status::rejected;
            fulfill(pending, std::move(response));
            return future;
        }
        admit_cv_.wait(lock, [this] {
            return stopping_ || queue_.size() < params_.queue_depth;
        });
        HCUBE_ENSURE_MSG(!stopping_, "submit() raced service shutdown");
    }
    c_submitted_.inc();
    metrics().submitted.inc();
    pending.enqueued = std::chrono::steady_clock::now();
    queue_.push_back(std::move(pending));
    metrics().queue_depth.set(static_cast<std::int64_t>(queue_.size()));
    lock.unlock();
    dispatch_cv_.notify_one();
    return future;
}

void Service::drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock,
                  [this] { return queue_.empty() && !busy_ && !paused_; });
}

void Service::pause() {
    const std::lock_guard<std::mutex> lock(mutex_);
    paused_ = true;
}

void Service::resume() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        paused_ = false;
    }
    dispatch_cv_.notify_all();
    idle_cv_.notify_all(); // a drain() waiter may now satisfy its predicate
}

Service::Counters Service::counters() const noexcept {
    Counters c;
    c.submitted = c_submitted_.value();
    c.executed = c_executed_.value();
    c.batched = c_batched_.value();
    c.rejected = c_rejected_.value();
    c.failed = c_failed_.value();
    return c;
}

namespace {

/// The tenant's latency histogram, memoized per thread: registry cells
/// are stable and the registry is leaked, so caching the reference skips
/// the name build + shared-lock lookup on every fulfilled request.
obs::Histogram& tenant_histogram(std::uint32_t client_id) {
    thread_local std::unordered_map<std::uint32_t, obs::Histogram*> cache;
    auto [it, fresh] = cache.try_emplace(client_id, nullptr);
    if (fresh) {
        it->second = &obs::registry().histogram(
            "svc.tenant." + std::to_string(client_id) + ".op_ns");
    }
    return *it->second;
}

} // namespace

void Service::fulfill(Pending& p, Response response) {
    // End-to-end tenant latency: admission to fulfilled promise, so queue
    // wait, batching and execution all land on the tenant that paid them.
    // Rejected submits never set `enqueued` and bill zero wait.
    const std::uint64_t ns =
        p.enqueued == std::chrono::steady_clock::time_point{}
            ? 0
            : elapsed_ns(p.enqueued);
    tenant_histogram(p.client_id).record(ns);
    p.promise.set_value(std::move(response));
}

void Service::dispatch_loop() {
    for (;;) {
        std::unique_lock<std::mutex> lock(mutex_);
        dispatch_cv_.wait(lock, [this] {
            return stopping_ || (!paused_ && !queue_.empty());
        });
        if (queue_.empty()) {
            if (stopping_) {
                idle_cv_.notify_all();
                return;
            }
            continue;
        }
        // FIFO head picks the signature; batching coalesces every queued
        // request with the same signature into this execution.
        Pending head = std::move(queue_.front());
        queue_.pop_front();
        std::vector<Pending> riders;
        for (auto it = queue_.begin(); it != queue_.end();) {
            if (it->sig == head.sig) {
                riders.push_back(std::move(*it));
                it = queue_.erase(it);
            } else {
                ++it;
            }
        }
        busy_ = true;
        c_batched_.inc(riders.size());
        metrics().batched.inc(riders.size());
        metrics().queue_depth.set(static_cast<std::int64_t>(queue_.size()));
        lock.unlock();
        admit_cv_.notify_all(); // slots freed

        metrics().queue_wait_ns.record(elapsed_ns(head.enqueued));
        for (const Pending& rider : riders) {
            metrics().queue_wait_ns.record(elapsed_ns(rider.enqueued));
        }

        Response response;
        {
            const obs::ScopedTimer timer(&metrics().execute_ns);
            try {
                response.stats = session_.execute(head.sig);
                response.status = Status::ok;
            } catch (const rejected_error& ex) {
                response.status = Status::failed;
                response.error = ex.what();
                response.rejection = ex.rejection();
            } catch (const std::exception& ex) {
                response.status = Status::failed;
                response.error = ex.what();
            }
        }

        lock.lock();
        c_executed_.inc();
        metrics().executed.inc();
        if (response.status == Status::failed) {
            c_failed_.inc(1 + riders.size());
            metrics().failed.inc(1 + riders.size());
        }
        busy_ = false;
        const bool idle = queue_.empty();
        lock.unlock();

        fulfill(head, response);
        for (Pending& rider : riders) {
            Response ride = response;
            ride.batched = true;
            ride.stats.cache_hit = true; // rode on the executed plan
            fulfill(rider, std::move(ride));
        }
        if (idle) {
            idle_cv_.notify_all();
        }
    }
}

} // namespace hcube::svc
