#include "net/netd.hpp"

#include "common/check.hpp"
#include "net/frame.hpp"

#include <sys/socket.h>
#include <unistd.h>

namespace hcube::net {

Netd::Netd(dim_t n, NetdParams params)
    : service_(n, params.service), endpoint_(std::move(params.endpoint)),
      transport_(endpoint_.kind) {
    listen_fd_ = listen_endpoint(endpoint_);
    if (endpoint_.kind == ft::TransportClass::tcp && endpoint_.port == 0) {
        endpoint_.port = local_port(listen_fd_);
    }
    acceptor_ = std::thread([this] { accept_loop(); });
}

Netd::~Netd() {
    running_.store(false, std::memory_order_release);
    // Closing the listener kicks accept_peer's poll out with an error.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    if (acceptor_.joinable()) {
        acceptor_.join();
    }
    std::vector<int> clients;
    std::vector<std::thread> threads;
    {
        const std::lock_guard<std::mutex> lock(m_);
        clients.swap(clients_);
        threads.swap(threads_);
    }
    for (const int fd : clients) {
        ::shutdown(fd, SHUT_RDWR); // unblocks a serve thread mid-read
    }
    for (std::thread& t : threads) {
        if (t.joinable()) {
            t.join();
        }
    }
    for (const int fd : clients) {
        ::close(fd);
    }
}

void Netd::accept_loop() {
    while (running_.load(std::memory_order_acquire)) {
        const int fd = accept_peer(listen_fd_, 200);
        if (fd < 0) {
            continue; // timeout or shutdown; the flag decides
        }
        const std::lock_guard<std::mutex> lock(m_);
        if (!running_.load(std::memory_order_acquire)) {
            ::close(fd);
            return;
        }
        clients_.push_back(fd);
        threads_.emplace_back([this, fd] { serve(fd); });
    }
}

void Netd::serve(int fd) {
    std::vector<std::uint8_t> frame;
    std::vector<std::uint8_t> reply;
    while (running_.load(std::memory_order_acquire)) {
        if (read_frame(fd, frame) != IoStatus::ok) {
            return; // client hung up (or teardown shut the socket)
        }
        if (frame_type(frame) == MsgType::metrics && frame.size() == 1) {
            // A bare METRICS frame is a scrape: answer with the process
            // registry (counters the in-process side and every serve
            // thread share), not with an OP_RESPONSE. A metrics frame
            // *with* a body is not a request at all — it falls through
            // to the garbage path below like any other malformed frame.
            encode_metrics(reply, obs::registry().snapshot());
            if (write_frame(fd, reply) != IoStatus::ok) {
                return;
            }
            continue;
        }
        OpResponseMsg resp;
        resp.transport = static_cast<std::uint8_t>(transport_);
        OpRequestMsg req;
        if (frame_type(frame) == MsgType::op_request &&
            decode_op_request(frame, req)) {
            resp.req_id = req.req_id;
            const svc::Response r = service_.run(req.sig);
            resp.status = static_cast<std::uint8_t>(r.status);
            resp.verified = r.stats.verified;
            resp.full_check = r.stats.full_check;
            resp.cache_hit = r.stats.cache_hit;
            resp.batched = r.batched;
            resp.rt_cycles = r.stats.rt_cycles;
            resp.sim_makespan = r.stats.sim_makespan;
            resp.blocks_delivered = r.stats.blocks_delivered;
            resp.payload_bytes = r.stats.payload_bytes;
            resp.seconds = r.stats.seconds;
            resp.error = r.error;
        } else {
            resp.status = static_cast<std::uint8_t>(svc::Status::failed);
            resp.error = "bad request frame";
        }
        served_.fetch_add(1, std::memory_order_relaxed);
        encode_op_response(reply, resp);
        if (write_frame(fd, reply) != IoStatus::ok) {
            return;
        }
    }
}

NetClient::NetClient(const Endpoint& endpoint, int timeout_ms) {
    fd_ = connect_endpoint(endpoint, timeout_ms);
}

NetClient::~NetClient() {
    if (fd_ >= 0) {
        ::close(fd_);
    }
}

obs::RegistrySnapshot NetClient::scrape() {
    std::vector<std::uint8_t> frame;
    encode_bare(frame, MsgType::metrics);
    HCUBE_ENSURE_MSG(write_frame(fd_, frame) == IoStatus::ok,
                     "netd connection lost on scrape request");
    obs::RegistrySnapshot snap;
    HCUBE_ENSURE_MSG(read_frame(fd_, frame) == IoStatus::ok &&
                         decode_metrics(frame, snap),
                     "netd connection lost on scrape response");
    return snap;
}

OpResponseMsg NetClient::run(const svc::Signature& sig) {
    OpRequestMsg req;
    req.req_id = next_req_++;
    req.sig = sig;
    std::vector<std::uint8_t> frame;
    encode_op_request(frame, req);
    HCUBE_ENSURE_MSG(write_frame(fd_, frame) == IoStatus::ok,
                     "netd connection lost on request");
    OpResponseMsg resp;
    HCUBE_ENSURE_MSG(read_frame(fd_, frame) == IoStatus::ok &&
                         decode_op_response(frame, resp),
                     "netd connection lost on response");
    HCUBE_ENSURE_MSG(resp.req_id == req.req_id,
                     "netd response out of sequence");
    return resp;
}

} // namespace hcube::net
