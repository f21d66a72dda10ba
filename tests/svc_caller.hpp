// Test helpers for svc::Service: a request run on a client thread of its
// own, and a bounded poll for a state other threads reach.
#pragma once

#include "svc/service.hpp"

#include <atomic>
#include <chrono>
#include <thread>

namespace hcube::svc {

/// Runs one request on a thread of its own, as a client of `service`
/// would, and keeps its Response. Joins on destruction.
class Caller {
  public:
    Caller(Service& service, const Request& req)
        : thread_([this, &service, req] {
              response_ = service.run(req);
              done_.store(true);
          }) {}
    Caller(Service& service, const Signature& sig)
        : Caller(service, Request{sig, 0}) {}

    /// Waits for the request's answer.
    Response get() {
        thread_.join();
        return response_;
    }
    [[nodiscard]] bool done() const { return done_.load(); }

  private:
    Response response_;
    std::atomic<bool> done_{false};
    std::jthread thread_; ///< last member: starts after the others exist
};

/// Resumes `service` on scope exit. Declared after the Callers of a test
/// that pauses, it runs before they join, so a failed assertion ends the
/// test instead of leaving them parked.
class ResumeOnExit {
  public:
    explicit ResumeOnExit(Service& service) : service_(service) {}
    ~ResumeOnExit() { service_.resume(); }
    ResumeOnExit(const ResumeOnExit&) = delete;
    ResumeOnExit& operator=(const ResumeOnExit&) = delete;

  private:
    Service& service_;
};

/// Polls `pred` until it holds (true) or 10 s pass (false).
template <class Pred>
bool eventually(Pred pred) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pred()) {
        if (std::chrono::steady_clock::now() > deadline) {
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

} // namespace hcube::svc
