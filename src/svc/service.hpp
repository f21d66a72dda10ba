// svc::Service — the concurrent front door of the collective service: a
// bounded admission queue feeding one dispatcher thread that executes
// requests on a persistent svc::Session.
//
// Clients submit() a Signature from any thread and receive a
// std::future<Response>. Admission is bounded: when the queue holds
// `queue_depth` pending requests, submit() either blocks until a slot
// frees (Admission::block, the default) or completes the future
// immediately with Status::rejected (Admission::reject) — the two
// backpressure policies a long-running service needs.
//
// Dispatch is FIFO by arrival of the *head* request; requests elsewhere in
// the queue whose signature equals the head's are coalesced into the same
// execution (batching): the schedule runs once on the session and every
// coalesced future receives the same verified Response with
// `batched = true` on the riders. Coalescing is sound because a collective
// is idempotent over the canonical payloads — equal signatures produce
// byte-identical verified final states, which is precisely what the plan
// cache already guarantees (docs/SERVICE.md § Batching).
#pragma once

#include "obs/metrics.hpp"
#include "svc/session.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

namespace hcube::svc {

/// What submit() does when the admission queue is full.
enum class Admission : std::uint8_t {
    block,  ///< caller blocks until a slot frees (backpressure by waiting)
    reject, ///< future completes immediately with Status::rejected
};

enum class Status : std::uint8_t {
    ok,       ///< executed (see Response::verified for the integrity bit)
    rejected, ///< bounced by admission control; never executed
    failed,   ///< schedule generation/validation threw (Response::error)
};

[[nodiscard]] constexpr std::string_view to_string(Status s) noexcept {
    switch (s) {
    case Status::ok: return "ok";
    case Status::rejected: return "rejected";
    case Status::failed: return "failed";
    }
    return "?";
}

struct Response {
    Status status = Status::ok;
    /// Execution report (meaningful when status == ok).
    ExecStats stats;
    /// This request rode along on another request's execution (equal
    /// signatures coalesced into one run).
    bool batched = false;
    /// check_error text when status == failed.
    std::string error;
    /// Structured preflight verdict when the session refused the
    /// signature (status == failed with a Rejection cause): the reason
    /// as data plus, for a dead root, the nearest live member to
    /// retarget to. Status::rejected stays reserved for admission-queue
    /// bounces, which never reach the session.
    std::optional<Rejection> rejection;
};

/// A submitted operation: the collective signature plus the tenant it is
/// billed to. client_id deliberately lives *outside* the Signature — it
/// must not fragment the plan cache or defeat batching (two tenants
/// submitting the same collective coalesce into one execution) — so it
/// rides next to the signature and only the metrics plane keys on it
/// (svc.tenant.<id>.op_ns).
struct Request {
    Signature sig;
    std::uint32_t client_id = 0;
};

struct ServiceParams {
    SessionParams session;
    /// Pending requests admitted before backpressure engages.
    std::size_t queue_depth = 64;
    Admission admission = Admission::block;
};

class Service {
  public:
    explicit Service(dim_t n, ServiceParams params = {});
    /// Drains every admitted request, then stops the dispatcher.
    ~Service();
    Service(const Service&) = delete;
    Service& operator=(const Service&) = delete;

    /// Thread-safe. Enqueues the request (applying the admission policy)
    /// and returns the future its Response will arrive on.
    [[nodiscard]] std::future<Response> submit(const Request& req);
    [[nodiscard]] std::future<Response> submit(const Signature& sig) {
        return submit(Request{sig, 0});
    }

    /// submit() + wait: the synchronous convenience wrapper.
    [[nodiscard]] Response run(const Request& req) {
        return submit(req).get();
    }
    [[nodiscard]] Response run(const Signature& sig) {
        return submit(sig).get();
    }

    /// Blocks until the queue is empty and the dispatcher is idle.
    void drain();

    /// Gates the dispatcher (tests use this to fill the queue
    /// deterministically before any request executes). Admission control
    /// keeps applying while paused.
    void pause();
    void resume();

    struct Counters {
        std::uint64_t submitted = 0; ///< admitted into the queue
        std::uint64_t executed = 0;  ///< schedule executions run
        std::uint64_t batched = 0;   ///< requests that rode along
        std::uint64_t rejected = 0;  ///< bounced by admission control
        std::uint64_t failed = 0;    ///< completed with Status::failed
    };
    /// Wait-free: reads five relaxed atomics (obs::Counter cells), never
    /// touching the admission mutex — a monitoring thread can poll it
    /// while the dispatcher is mid-batch.
    [[nodiscard]] Counters counters() const noexcept;

    /// The persistent execution context (selector, plan cache, pool).
    [[nodiscard]] Session& session() noexcept { return session_; }
    [[nodiscard]] const Session& session() const noexcept {
        return session_;
    }

  private:
    struct Pending {
        Signature sig;
        std::uint32_t client_id = 0;
        std::chrono::steady_clock::time_point enqueued;
        std::promise<Response> promise;
    };

    void dispatch_loop();
    /// Completes `p` with `response`, stamping the tenant's end-to-end op
    /// latency (enqueue → promise fulfilled) into svc.tenant.<id>.op_ns.
    void fulfill(Pending& p, Response response);

    Session session_;
    ServiceParams params_;

    mutable std::mutex mutex_;
    std::condition_variable admit_cv_;    ///< queue has room / stopping
    std::condition_variable dispatch_cv_; ///< work available / unpaused
    std::condition_variable idle_cv_;     ///< queue empty and idle
    std::deque<Pending> queue_;
    bool paused_ = false;
    bool stopping_ = false;
    bool busy_ = false; ///< dispatcher is executing a batch

    /// Per-instance counter cells behind counters(). Mirrored into the
    /// process-wide registry (svc.*) for the telemetry plane.
    obs::Counter c_submitted_;
    obs::Counter c_executed_;
    obs::Counter c_batched_;
    obs::Counter c_rejected_;
    obs::Counter c_failed_;

    std::thread dispatcher_; ///< last member: starts after state is ready
};

} // namespace hcube::svc
