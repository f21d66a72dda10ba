#include "svc/service.hpp"

#include "common/check.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

namespace hcube::svc {

namespace {

/// Process-wide mirrors of the per-instance Service counters, plus the
/// admission/latency instruments. Looked up once; the registry hands back
/// stable references.
struct ServiceMetrics {
    obs::Counter& submitted = obs::registry().counter("svc.submitted");
    obs::Counter& executed = obs::registry().counter("svc.executed");
    obs::Counter& batched = obs::registry().counter("svc.batched");
    obs::Counter& rejected = obs::registry().counter("svc.rejected");
    obs::Counter& failed = obs::registry().counter("svc.failed");
    obs::Counter& builder_runs = obs::registry().counter("svc.builder_runs");
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

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(Clock::time_point since,
                         Clock::time_point until = Clock::now()) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(until - since)
            .count());
}

/// The tenant's latency histogram, memoized per thread: registry cells
/// are stable and the registry is leaked, so caching the reference skips
/// the name build + shared-lock lookup on every answered request.
obs::Histogram& tenant_histogram(std::uint32_t client_id) {
    thread_local std::unordered_map<std::uint32_t, obs::Histogram*> cache;
    auto [it, fresh] = cache.try_emplace(client_id, nullptr);
    if (fresh) {
        it->second = &obs::registry().histogram(
            "svc.tenant." + std::to_string(client_id) + ".op_ns");
    }
    return *it->second;
}

/// Status::failed carrying what the session threw.
void fail(Response& response, const std::exception& ex) {
    response.status = Status::failed;
    response.error = ex.what();
    if (const auto* rejected = dynamic_cast<const rejected_error*>(&ex)) {
        response.rejection = rejected->rejection();
    }
}

} // namespace

struct Service::Flight {
    Flight(const Signature& s, Clock::time_point at) : sig(s), admitted(at) {}

    const Signature sig;
    const Clock::time_point admitted; ///< the executing request's admission
    // The members below are guarded by the service's mutex_.
    std::uint32_t riders = 0; ///< requests that joined this run
    std::condition_variable done_cv;
    std::optional<Response> response; ///< set once, by finish()
};

Service::Service(dim_t n, ServiceParams params)
    : session_(n, params.session), params_(params),
      builder_([this] { builder_loop(); }) {
    HCUBE_ENSURE(params_.queue_depth >= 1);
}

Service::~Service() {
    resume();
    drain();
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        builder_stop_ = true;
    }
    builder_cv_.notify_all();
    builder_.join();
}

bool Service::admit(std::unique_lock<std::mutex>& lock) {
    if (in_flight_ >= params_.queue_depth) {
        if (params_.admission == Admission::reject) {
            return false;
        }
        ++blocked_;
        gate_cv_.wait(lock,
                      [this] { return in_flight_ < params_.queue_depth; });
        --blocked_;
    }
    ++in_flight_;
    return true;
}

void Service::drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    gate_cv_.wait(lock, [this] { return in_flight_ == 0 && blocked_ == 0; });
}

void Service::pause() {
    const std::lock_guard<std::mutex> lock(mutex_);
    paused_ = true;
}

void Service::resume() {
    const std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
    gate_cv_.notify_all();
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

void Service::finish(Flight& f, const Response& response,
                     bool caller_waits) {
    // Unregistered here, a request arriving from now on starts a run of
    // its own instead of riding one that has already ended.
    const auto it = std::ranges::find_if(
        flights_, [&f](const std::shared_ptr<Flight>& g) {
            return g.get() == &f;
        });
    std::swap(*it, flights_.back());
    flights_.pop_back();
    if (f.riders > 0 || caller_waits) {
        f.response = response;
        f.done_cv.notify_all();
    }
}

Response Service::await(std::unique_lock<std::mutex>& lock, Flight& f) {
    f.done_cv.wait(lock, [&f] { return f.response.has_value(); });
    return *f.response;
}

void Service::count_execution(Clock::time_point start) {
    metrics().execute_ns.record(elapsed_ns(start));
    c_executed_.inc();
    metrics().executed.inc();
}

Response Service::run(const Request& req) {
    Response response;
    std::unique_lock<std::mutex> lock(mutex_);
    if (!admit(lock)) {
        lock.unlock();
        c_rejected_.inc();
        metrics().rejected.inc();
        response.status = Status::rejected;
        tenant_histogram(req.client_id).record(0); // never admitted
        return response;
    }
    const Clock::time_point admitted = Clock::now();
    // Counted together with the join or registration below, so a reader
    // that sees a request counted sees it registered or riding.
    c_submitted_.inc();
    metrics().queue_depth.add(1);

    // Join the run of an equal signature in flight, or register this one.
    std::shared_ptr<Flight> own; // this request's run while it is registered
    const auto it = std::ranges::find_if(
        flights_, [&req](const std::shared_ptr<Flight>& f) {
            return f->sig == req.sig;
        });
    if (it != flights_.end()) {
        // The run this request rides has already started: its wait for
        // execution ended at admission.
        const std::shared_ptr<Flight> ridden = *it;
        ++ridden->riders;
        c_batched_.inc();
        response = await(lock, *ridden);
        lock.unlock();
        metrics().submitted.inc();
        metrics().batched.inc();
        metrics().queue_wait_ns.record(0);
        response.batched = true;
        response.stats.cache_hit = true; // rode on the executed plan
    } else {
        own = std::make_shared<Flight>(req.sig, admitted);
        flights_.push_back(own);
        gate_cv_.wait(lock, [this] { return !paused_; });
        lock.unlock();
        metrics().submitted.inc();
        const Clock::time_point start = Clock::now();
        bool resident = true;
        try {
            std::optional<ExecStats> stats =
                session_.execute_resident(req.sig);
            if (stats) {
                response.stats = *stats;
            } else {
                resident = false;
            }
        } catch (const std::exception& ex) {
            fail(response, ex);
        }
        if (resident) {
            metrics().queue_wait_ns.record(elapsed_ns(admitted, start));
            count_execution(start);
        } else {
            lock.lock();
            misses_.push_back(own);
            builder_cv_.notify_one();
            response = await(lock, *own);
            lock.unlock();
            own.reset(); // the builder unregistered it
        }
    }
    if (response.status == Status::failed) {
        c_failed_.inc();
        metrics().failed.inc();
    }
    // End-to-end tenant latency: admission to answer, so the wait to
    // execute, riding and execution all land on the tenant that paid them.
    tenant_histogram(req.client_id).record(elapsed_ns(admitted));
    lock.lock();
    if (own) {
        finish(*own, response, false); // a hit: answer the riders it has
    }
    --in_flight_;
    metrics().queue_depth.add(-1);
    gate_cv_.notify_all();
    return response;
}

void Service::builder_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        builder_cv_.wait(lock, [this] {
            return builder_stop_ || !misses_.empty();
        });
        if (misses_.empty()) {
            return; // stopping, and every miss has been answered
        }
        const std::shared_ptr<Flight> flight = std::move(misses_.front());
        misses_.pop_front();
        lock.unlock();
        metrics().builder_runs.inc();
        metrics().queue_wait_ns.record(elapsed_ns(flight->admitted));
        const Clock::time_point start = Clock::now();
        Response response;
        try {
            response.stats = session_.execute(flight->sig);
        } catch (const std::exception& ex) {
            fail(response, ex);
        }
        count_execution(start);
        lock.lock();
        finish(*flight, response, true);
    }
}

} // namespace hcube::svc
