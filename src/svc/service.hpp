// svc::Service — the concurrent front door of the collective service:
// requests execute on the threads that call run(), on a persistent
// svc::Session, behind a bounded admission.
//
// Admission bounds the requests in flight at `queue_depth`: past it, run()
// either waits for a slot (Admission::block, the default) or returns
// Status::rejected at once (Admission::reject) — the two backpressure
// policies a long-running service needs.
//
// A cache hit plays on the calling thread: no thread hand-off, and the
// service's one mutex is held only to admit and register a request and to
// release it, never across a play. A miss (schedule, proof, compile and
// first checked play) goes to the one builder thread in FIFO order, so every
// resident plan is allocated by one thread (docs/SERVICE.md § Admission,
// backpressure, batching). A request whose signature is already executing
// joins that run instead of starting another (batching): it waits for the
// run and receives the same verified Response with `batched = true`.
// Coalescing is sound because a collective is idempotent over the
// canonical payloads — equal signatures produce byte-identical verified
// final states, which is precisely what the plan cache already guarantees.
#pragma once

#include "obs/metrics.hpp"
#include "svc/session.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace hcube::svc {

/// What run() does when `queue_depth` requests are already in flight.
enum class Admission : std::uint8_t {
    block,  ///< caller blocks until a slot frees (backpressure by waiting)
    reject, ///< run() returns Status::rejected at once
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
    /// This request rode along on another request's execution (it arrived
    /// while a request with an equal signature was executing).
    bool batched = false;
    /// check_error text when status == failed.
    std::string error;
    /// Structured preflight verdict when the session refused the
    /// signature (status == failed with a Rejection cause): the reason
    /// as data plus, for a dead root, the nearest live member to
    /// retarget to. Status::rejected stays reserved for admission
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
    /// Requests in flight (admitted and not yet answered) before
    /// backpressure engages.
    std::size_t queue_depth = 64;
    Admission admission = Admission::block;
};

class Service {
  public:
    explicit Service(dim_t n, ServiceParams params = {});
    /// Releases callers parked by pause(), answers every admitted request,
    /// then stops the builder thread. No caller may enter run() once
    /// destruction has begun.
    ~Service();
    Service(const Service&) = delete;
    Service& operator=(const Service&) = delete;

    /// Thread-safe. Admits the request (applying the admission policy),
    /// executes it on the calling thread (a miss waits for the builder
    /// thread), and returns its Response.
    [[nodiscard]] Response run(const Request& req);
    [[nodiscard]] Response run(const Signature& sig) {
        return run(Request{sig, 0});
    }

    /// Blocks until no request is in flight and no caller waits for
    /// admission.
    void drain();

    /// Parks every admitted request before it executes (tests use this to
    /// hold requests in flight deterministically); a request that joins
    /// one already registered waits for it as usual. Admission control
    /// keeps applying while paused.
    void pause();
    void resume();

    struct Counters {
        std::uint64_t submitted = 0; ///< admitted and registered or riding
        std::uint64_t executed = 0;  ///< schedule executions run
        std::uint64_t batched = 0;   ///< requests that rode along
        std::uint64_t rejected = 0;  ///< bounced by admission control
        std::uint64_t failed = 0;    ///< completed with Status::failed
    };
    /// Wait-free: reads five relaxed atomics (obs::Counter cells), never
    /// touching a lock — a monitoring thread can poll it while requests
    /// are parked or executing.
    [[nodiscard]] Counters counters() const noexcept;

    /// The persistent execution context (selector, plan cache, pool).
    [[nodiscard]] Session& session() noexcept { return session_; }
    [[nodiscard]] const Session& session() const noexcept {
        return session_;
    }

  private:
    /// One execution in progress, which requests with an equal signature
    /// join.
    struct Flight;

    /// Takes an admission slot, waiting for one under Admission::block;
    /// false when Admission::reject bounces the request. `lock` holds
    /// mutex_.
    [[nodiscard]] bool admit(std::unique_lock<std::mutex>& lock);
    /// Unregisters `f` and answers its riders and, when `caller_waits`,
    /// the caller that handed it to the builder. Caller holds mutex_.
    void finish(Flight& f, const Response& response, bool caller_waits);
    /// The response published on `f`, waited for under `lock`.
    [[nodiscard]] static Response await(std::unique_lock<std::mutex>& lock,
                                        Flight& f);
    /// Counts one execution and records its time since `start`.
    void count_execution(std::chrono::steady_clock::time_point start);
    void builder_loop();

    Session session_;
    ServiceParams params_;

    /// Guards the admission state, the runs in flight and the builder's
    /// queue. Held to admit and register a request and to release it,
    /// never across a play or a build.
    std::mutex mutex_;
    std::condition_variable gate_cv_;    ///< a slot freed / resumed
    std::condition_variable builder_cv_; ///< a miss queued / stopping
    std::size_t in_flight_ = 0;          ///< admitted, not yet answered
    std::size_t blocked_ = 0;            ///< callers waiting for admission
    bool paused_ = false;
    bool builder_stop_ = false;
    std::vector<std::shared_ptr<Flight>> flights_; ///< runs in progress
    std::deque<std::shared_ptr<Flight>> misses_;   ///< FIFO, for the builder

    /// Per-instance counter cells behind counters(). Mirrored into the
    /// process-wide registry (svc.*) for the telemetry plane.
    obs::Counter c_submitted_;
    obs::Counter c_executed_;
    obs::Counter c_batched_;
    obs::Counter c_rejected_;
    obs::Counter c_failed_;

    std::thread builder_; ///< last member: starts after state is ready
};

} // namespace hcube::svc
