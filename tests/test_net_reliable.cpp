// Tests of the reliability sublayer (net/reliable.hpp): ack-priority
// queueing, bounded duplicate suppression, the wire-fault verdict
// machinery, the ack/retransmit state machine over a real socketpair —
// and the per-transport detection-timeout defaults (the ft knob this
// subsystem made transport-aware, with a regression pin on the original
// in-process value).
#include "net/reliable.hpp"

#include "ft/fault_model.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "rt/plan.hpp"
#include "svc/signature.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

namespace hcube::net {
namespace {

using hc::dim_t;

svc::Signature broadcast_sig(dim_t n) {
    svc::Signature s;
    s.op = svc::Op::broadcast;
    s.family = svc::Family::sbt;
    s.n = n;
    s.root = 0;
    s.packets = 2;
    s.block_elems = 8;
    return s;
}

rt::Plan small_plan(dim_t n = 3, std::uint32_t workers = 1) {
    const svc::GeneratedSchedule gen = svc::make_schedule(broadcast_sig(n));
    return rt::compile_plan(gen.exec, gen.mode, 8, workers);
}

struct SocketPair {
    int fd[2] = {-1, -1};
    SocketPair() {
        EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fd));
    }
    ~SocketPair() {
        for (const int f : fd) {
            if (f >= 0) {
                ::close(f);
            }
        }
    }
};

// --------------------------------------------------------------- OutQueue

TEST(NetReliable, AcksDrainBeforeData) {
    OutQueue q;
    q.push_data({1});
    q.push_ack({2});
    q.push_data({3});
    q.push_ack({4});
    std::vector<std::uint8_t> f;
    ASSERT_TRUE(q.pop(f));
    EXPECT_EQ(f[0], 2);
    ASSERT_TRUE(q.pop(f));
    EXPECT_EQ(f[0], 4);
    ASSERT_TRUE(q.pop(f));
    EXPECT_EQ(f[0], 1);
    ASSERT_TRUE(q.pop(f));
    EXPECT_EQ(f[0], 3);
    EXPECT_FALSE(q.pop(f));
    EXPECT_TRUE(q.empty());
}

// -------------------------------------------------------------- RecentSet

TEST(NetReliable, RecentSetSuppressesAndEvictsFifo) {
    RecentSet recent(3);
    EXPECT_TRUE(recent.insert(RecentSet::key(0, 1)));
    EXPECT_TRUE(recent.insert(RecentSet::key(0, 2)));
    EXPECT_TRUE(recent.insert(RecentSet::key(1, 1)));
    EXPECT_FALSE(recent.insert(RecentSet::key(0, 1))); // duplicate
    EXPECT_TRUE(recent.insert(RecentSet::key(2, 9))); // evicts (0,1)
    EXPECT_TRUE(recent.insert(RecentSet::key(0, 1))); // forgotten again
}

TEST(NetReliable, RecentSetKeySeparatesChannels) {
    EXPECT_NE(RecentSet::key(1, 0), RecentSet::key(0, 1));
    EXPECT_EQ(RecentSet::key(3, 7), (std::uint64_t{3} << 32) | 7);
}

// ------------------------------------------------------------- WireFaults

TEST(NetReliable, WireFaultsMapLinkSpecsToChannels) {
    const rt::Plan plan = small_plan();
    ASSERT_GT(plan.channel_count, 0u);
    const auto [from, to] = plan.channel_endpoints(0);

    ft::FaultPlan fp;
    fp.drop(from, to, /*at_push=*/0, /*pushes=*/1);
    WireFaults faults(plan, {fp, /*duplicate_percent=*/0, /*seed=*/1});
    ASSERT_TRUE(faults.armed());

    std::vector<std::uint8_t> payload(16, 0);
    EXPECT_EQ(faults.on_first_send(0, payload), WireFaults::Verdict::drop);
    EXPECT_EQ(faults.on_first_send(0, payload),
              WireFaults::Verdict::deliver); // window of one push expired
}

TEST(NetReliable, WireFaultsCorruptPerturbsPayload) {
    const rt::Plan plan = small_plan();
    const auto [from, to] = plan.channel_endpoints(0);
    ft::FaultPlan fp;
    fp.corrupt(from, to, 0, 1, /*salt=*/3);
    WireFaults faults(plan, {fp, 0, 1});

    std::vector<std::uint8_t> payload(16, 0);
    const std::vector<std::uint8_t> before = payload;
    EXPECT_EQ(faults.on_first_send(0, payload),
              WireFaults::Verdict::corrupt);
    EXPECT_NE(payload, before);
}

TEST(NetReliable, WireFaultsKillIsForever) {
    const rt::Plan plan = small_plan();
    const auto [from, to] = plan.channel_endpoints(0);
    ft::FaultPlan fp;
    fp.kill_link(from, to, /*at_push=*/1);
    WireFaults faults(plan, {fp, 0, 1});

    std::vector<std::uint8_t> payload(8, 0);
    EXPECT_EQ(faults.on_first_send(0, payload),
              WireFaults::Verdict::deliver); // push 0 precedes the kill
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(faults.on_first_send(0, payload),
                  WireFaults::Verdict::kill);
    }
}

TEST(NetReliable, WireFaultsDuplicatePercentIsDeterministic) {
    const rt::Plan plan = small_plan();
    WireFaults a(plan, {{}, /*duplicate_percent=*/100, /*seed=*/7});
    WireFaults b(plan, {{}, /*duplicate_percent=*/100, /*seed=*/7});
    std::vector<std::uint8_t> payload(8, 0);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(a.on_first_send(0, payload),
                  WireFaults::Verdict::duplicate);
        EXPECT_EQ(b.on_first_send(0, payload),
                  WireFaults::Verdict::duplicate);
    }
}

// ----------------------------------------------------------- ReliableLink

ReliableConfig fast_cfg() {
    ReliableConfig cfg;
    cfg.window = 4;
    cfg.max_attempts = 3;
    cfg.backoff_base_us = 1'000;
    cfg.backoff_cap_us = 8'000;
    return cfg;
}

TEST(NetReliable, SendThenAckDrains) {
    SocketPair sp;
    ReliableLink link(sp.fd[0], fast_cfg(), nullptr);
    const double block[2] = {1.0, 2.0};
    ASSERT_TRUE(link.send_data(7, /*channel=*/0, /*seq=*/0, /*packet=*/0,
                               /*checksum=*/5, {block, 2}));
    EXPECT_FALSE(link.drained());

    std::vector<std::uint8_t> frame;
    ASSERT_EQ(read_frame(sp.fd[1], frame), IoStatus::ok);
    DataView v;
    ASSERT_TRUE(decode_data(frame, v));
    EXPECT_EQ(v.plan_fp, 7u);
    EXPECT_EQ(v.seq, 0u);

    link.on_ack({0, 0});
    EXPECT_TRUE(link.drained());
    const WireCounters c = link.counters();
    EXPECT_EQ(c.data_sent, 1u);
    EXPECT_EQ(c.acks_received, 1u);
    EXPECT_EQ(c.retransmits, 0u);
}

TEST(NetReliable, UnackedFrameRetransmitsCleanThenLinkFails) {
    SocketPair sp;
    const ReliableConfig cfg = fast_cfg(); // 3 attempts total
    ReliableLink link(sp.fd[0], cfg, nullptr);
    const double block[2] = {4.0, 8.0};
    ASSERT_TRUE(link.send_data(1, 0, 0, 0, 2, {block, 2}));

    // Never ack; march time far past every deadline. Each tick may fire
    // at most one retransmit per pending frame.
    auto now = ReliableLink::clock::now();
    int guard = 0;
    while (!link.failed() && ++guard < 100) {
        now += std::chrono::milliseconds(100); // >> backoff cap
        link.tick(now);
    }
    EXPECT_TRUE(link.failed());

    const WireCounters c = link.counters();
    EXPECT_EQ(c.data_sent, 1u);
    EXPECT_EQ(c.retransmits, cfg.max_attempts - 1);
    EXPECT_EQ(c.link_failures, 1u);

    // Every wire copy is the identical clean frame.
    std::vector<std::uint8_t> first;
    ASSERT_EQ(read_frame(sp.fd[1], first), IoStatus::ok);
    for (std::uint32_t i = 1; i < cfg.max_attempts; ++i) {
        std::vector<std::uint8_t> again;
        ASSERT_EQ(read_frame(sp.fd[1], again), IoStatus::ok);
        EXPECT_EQ(again, first);
    }

    // A failed link rejects new work instead of blocking forever.
    EXPECT_FALSE(link.send_data(1, 0, 1, 0, 2, {block, 2}));
}

TEST(NetReliable, BackoffDeadlinesAreBoundedAndGrow) {
    SocketPair sp;
    ReliableConfig cfg = fast_cfg();
    cfg.max_attempts = 10;
    ReliableLink link(sp.fd[0], cfg, nullptr);
    const double block[1] = {1.0};
    const auto t0 = ReliableLink::clock::now();
    ASSERT_TRUE(link.send_data(1, 0, 0, 0, 0, {block, 1}));

    // attempt k's deadline gap is base*2^(k-1)+jitter, capped at 2*cap:
    // every observed gap must stay under that bound.
    auto now = t0;
    for (int i = 0; i < 6; ++i) {
        const auto deadline = link.next_deadline();
        ASSERT_NE(deadline, ReliableLink::clock::time_point::max());
        const auto gap =
            std::chrono::duration_cast<std::chrono::microseconds>(deadline -
                                                                  now);
        EXPECT_GT(gap.count(), 0);
        EXPECT_LE(gap.count(), 2 * std::int64_t{cfg.backoff_cap_us});
        now = deadline;
        link.tick(deadline); // fire exactly this retransmit
    }
    EXPECT_FALSE(link.failed());
}

TEST(NetReliable, WindowBlocksUntilAcked) {
    SocketPair sp;
    ReliableConfig cfg = fast_cfg();
    cfg.window = 2;
    ReliableLink link(sp.fd[0], cfg, nullptr);
    const double block[1] = {0.5};
    ASSERT_TRUE(link.send_data(1, 0, 0, 0, 0, {block, 1}));
    ASSERT_TRUE(link.send_data(1, 0, 1, 0, 0, {block, 1}));

    // Window full: the third send must block until an ack opens it.
    std::atomic<bool> sent{false};
    std::thread sender([&] {
        EXPECT_TRUE(link.send_data(1, 0, 2, 0, 0, {block, 1}));
        sent.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(sent.load());
    link.on_ack({0, 0});
    sender.join();
    EXPECT_TRUE(sent.load());
}

TEST(NetReliable, KillVerdictBlackholesRetransmits) {
    const rt::Plan plan = small_plan();
    const auto [from, to] = plan.channel_endpoints(0);
    ft::FaultPlan fp;
    fp.kill_link(from, to);
    WireFaults faults(plan, {fp, 0, 1});

    SocketPair sp;
    ReliableLink link(sp.fd[0], fast_cfg(), &faults);
    const double block[1] = {9.0};
    ASSERT_TRUE(link.send_data(1, 0, 0, 0, 0, {block, 1}));

    auto now = ReliableLink::clock::now();
    int guard = 0;
    while (!link.failed() && ++guard < 100) {
        now += std::chrono::milliseconds(100);
        link.tick(now);
    }
    EXPECT_TRUE(link.failed());

    // Nothing ever reached the wire: the peer-side socket is empty.
    ::close(sp.fd[0]);
    sp.fd[0] = -1;
    std::vector<std::uint8_t> frame;
    EXPECT_EQ(read_frame(sp.fd[1], frame), IoStatus::closed);
    const WireCounters c = link.counters();
    EXPECT_EQ(c.injected_drop, 1u);
    EXPECT_EQ(c.link_failures, 1u);
}

// ------------------------------------------------- per-transport timeouts

TEST(NetReliable, DetectTimeoutScalesWithTransportClass) {
    // Regression pin: the in-process default predates this subsystem and
    // must not move underneath the thread-backend tests.
    EXPECT_EQ(ft::DetectConfig::default_arrival_timeout_us(
                  ft::TransportClass::ring),
              2'000u);
    EXPECT_EQ(ft::DetectConfig::default_arrival_timeout_us(
                  ft::TransportClass::uds),
              500'000u);
    EXPECT_EQ(ft::DetectConfig::default_arrival_timeout_us(
                  ft::TransportClass::tcp),
              2'000'000u);
    EXPECT_LT(ft::DetectConfig::default_arrival_timeout_us(
                  ft::TransportClass::ring),
              ft::DetectConfig::default_arrival_timeout_us(
                  ft::TransportClass::uds));
    EXPECT_LT(ft::DetectConfig::default_arrival_timeout_us(
                  ft::TransportClass::uds),
              ft::DetectConfig::default_arrival_timeout_us(
                  ft::TransportClass::tcp));

    const ft::DetectConfig uds =
        ft::DetectConfig::for_transport(ft::TransportClass::uds);
    EXPECT_EQ(uds.arrival_timeout_us, 500'000u);
    EXPECT_TRUE(uds.abort_on_fault);
}

} // namespace
} // namespace hcube::net
