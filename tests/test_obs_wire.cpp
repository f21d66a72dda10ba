// The telemetry plane on the wire: METRICS codec round-trips, decoder
// survival on truncated/garbage frames, a live netd scraped over a bare
// METRICS frame (exact counter match against the in-process registry),
// and a multi-rank net::run_job whose per-rank snapshot deltas merge into
// the job-level report.
#include "net/job.hpp"
#include "net/netd.hpp"

#include "model/broadcast_model.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "svc/signature.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <unistd.h>
#include <vector>

namespace hcube::net {
namespace {

using hc::node_t;

svc::Signature broadcast_sig(dim_t n, node_t root = 0) {
    svc::Signature s;
    s.op = svc::Op::broadcast;
    s.family = svc::Family::sbt;
    s.n = n;
    s.root = root;
    s.packets = 2;
    s.block_elems = 16;
    return s;
}

NetdParams uds_params(const std::string& path) {
    NetdParams p;
    p.service.session.threads = 2;
    p.service.session.comm = model::CommParams{1.0, 1e-6};
    p.endpoint = Endpoint::unix_path(path);
    return p;
}

std::string temp_sock(const char* tag) {
    const char* base = std::getenv("TMPDIR");
    return std::string(base != nullptr ? base : "/tmp") + "/hcobs-" + tag +
           "-" + std::to_string(::getpid()) + ".sock";
}

obs::RegistrySnapshot sample_snapshot() {
    obs::Registry reg;
    reg.counter("a.count").inc(42);
    reg.gauge("b.level").set(-7);
    obs::Histogram& h = reg.histogram("c.lat_ns");
    h.record(3);
    h.record(1'000);
    h.record(123'456'789);
    return reg.snapshot();
}

TEST(ObsWire, MetricsRoundTripIsExact) {
    const obs::RegistrySnapshot snap = sample_snapshot();
    std::vector<std::uint8_t> frame;
    encode_metrics(frame, snap);
    EXPECT_EQ(frame_type(frame), MsgType::metrics);

    obs::RegistrySnapshot back;
    ASSERT_TRUE(decode_metrics(frame, back));
    ASSERT_EQ(back.metrics.size(), snap.metrics.size());
    EXPECT_EQ(back.counter("a.count"), 42u);
    EXPECT_EQ(back.gauge("b.level"), -7);
    const obs::MetricSnapshot* h = back.find("c.lat_ns");
    ASSERT_NE(h, nullptr);
    const obs::MetricSnapshot* ref = snap.find("c.lat_ns");
    EXPECT_EQ(h->hist.count, ref->hist.count);
    EXPECT_EQ(h->hist.sum, ref->hist.sum);
    EXPECT_EQ(h->hist.max, ref->hist.max);
    for (const double p : {0.5, 0.95, 0.99}) {
        EXPECT_EQ(h->hist.percentile(p), ref->hist.percentile(p));
    }
}

TEST(ObsWire, DecoderRejectsTruncationAndGarbage) {
    const obs::RegistrySnapshot snap = sample_snapshot();
    std::vector<std::uint8_t> frame;
    encode_metrics(frame, snap);

    // Every truncation of a valid frame must fail cleanly (the bare
    // 1-byte frame is the scrape *request*, not a snapshot).
    obs::RegistrySnapshot out;
    for (std::size_t len = 1; len < frame.size(); ++len) {
        EXPECT_FALSE(decode_metrics(
            std::span<const std::uint8_t>(frame.data(), len), out))
            << "len=" << len;
    }
    // Wrong type byte.
    std::vector<std::uint8_t> wrong = frame;
    wrong[0] = static_cast<std::uint8_t>(MsgType::report);
    EXPECT_FALSE(decode_metrics(wrong, out));
    // Absurd metric count.
    std::vector<std::uint8_t> bloat = {
        static_cast<std::uint8_t>(MsgType::metrics), 0xff, 0xff, 0xff,
        0xff};
    EXPECT_FALSE(decode_metrics(bloat, out));
    // Histogram bucket index out of range.
    obs::RegistrySnapshot bad_bucket;
    obs::MetricSnapshot m;
    m.name = "h";
    m.kind = obs::Kind::histogram;
    m.hist.count = 1;
    m.hist.counts.assign(1, 1);
    bad_bucket.metrics.push_back(m);
    std::vector<std::uint8_t> hframe;
    encode_metrics(hframe, bad_bucket);
    // Patch the (single) bucket index to an impossible value: it is the
    // u32 right after type + count + name(len-prefixed) + kind + 3 u64s +
    // pair count.
    const std::size_t idx_off = 1 + 4 + (4 + 1) + 1 + 8 * 3 + 4;
    ASSERT_LT(idx_off + 4, hframe.size() + 1);
    hframe[idx_off] = 0xff;
    hframe[idx_off + 1] = 0xff;
    EXPECT_FALSE(decode_metrics(hframe, out));
}

TEST(ObsScrape, NetdScrapeMatchesInProcessRegistry) {
    const std::string path = temp_sock("scrape");
    Netd daemon(4, uds_params(path));
    NetClient client(daemon.endpoint());
    for (int i = 0; i < 3; ++i) {
        const OpResponseMsg r = client.run(broadcast_sig(4));
        ASSERT_EQ(r.status, static_cast<std::uint8_t>(svc::Status::ok));
        ASSERT_TRUE(r.verified);
    }
    daemon.service().drain();

    const obs::RegistrySnapshot scraped = client.scrape();
    const obs::RegistrySnapshot local = obs::registry().snapshot();
    // The daemon runs in this process: the scraped svc.*/rt.* counters
    // must match the in-process registry exactly. (net.frame_* counters
    // move during the scrape exchange itself, so they are compared as
    // presence, not equality.)
    for (const char* name :
         {"svc.submitted", "svc.executed", "svc.failed",
          "svc.plan_cache.hits", "svc.plan_cache.misses", "rt.cycles",
          "rt.checksum_bytes"}) {
        EXPECT_EQ(scraped.counter(name), local.counter(name)) << name;
    }
    EXPECT_GE(scraped.counter("svc.executed"), 3u);
    EXPECT_GT(scraped.counter("net.frame_bytes_in"), 0u);
    EXPECT_GT(scraped.counter("net.frame_bytes_out"), 0u);
    const obs::MetricSnapshot* tenant =
        scraped.find("svc.tenant.0.op_ns");
    ASSERT_NE(tenant, nullptr);
    EXPECT_GE(tenant->hist.count, 3u);
    ::unlink(path.c_str());
}

TEST(ObsScrape, DaemonSurvivesGarbageThenScrapes) {
    const std::string path = temp_sock("garbage");
    Netd daemon(3, uds_params(path));
    {
        // A hand-rolled connection speaking garbage: the daemon answers
        // failed per frame and never tears down.
        const int fd = connect_endpoint(daemon.endpoint(), 5'000);
        const std::vector<std::uint8_t> junk = {0x00, 0xde, 0xad, 0xbe};
        ASSERT_EQ(write_frame(fd, junk), IoStatus::ok);
        std::vector<std::uint8_t> reply;
        ASSERT_EQ(read_frame(fd, reply), IoStatus::ok);
        OpResponseMsg resp;
        ASSERT_TRUE(decode_op_response(reply, resp));
        EXPECT_EQ(resp.status,
                  static_cast<std::uint8_t>(svc::Status::failed));
        // A truncated METRICS body (not the bare scrape request) is also
        // garbage, answered with failed, never a torn snapshot.
        const std::vector<std::uint8_t> half_metrics = {
            static_cast<std::uint8_t>(MsgType::metrics), 0x01};
        ASSERT_EQ(write_frame(fd, half_metrics), IoStatus::ok);
        ASSERT_EQ(read_frame(fd, reply), IoStatus::ok);
        ASSERT_TRUE(decode_op_response(reply, resp));
        EXPECT_EQ(resp.status,
                  static_cast<std::uint8_t>(svc::Status::failed));
        ::close(fd);
    }
    NetClient client(daemon.endpoint());
    const OpResponseMsg ok = client.run(broadcast_sig(3));
    EXPECT_EQ(ok.status, static_cast<std::uint8_t>(svc::Status::ok));
    const obs::RegistrySnapshot scraped = client.scrape();
    EXPECT_GE(scraped.counter("svc.executed"), 1u);
    ::unlink(path.c_str());
}

TEST(ObsJob, RankSnapshotsMergeIntoJobReport) {
    JobSpec spec;
    spec.sig = broadcast_sig(3);
    spec.procs = 2;
    spec.transport = ft::TransportClass::uds;
    const JobResult result = run_job(spec);
    ASSERT_TRUE(result.ok) << result.error;

    // Every rank shipped a snapshot delta with wire activity in it.
    ASSERT_EQ(result.ranks.size(), 2u);
    for (const RankReport& rr : result.ranks) {
        EXPECT_FALSE(rr.metrics.metrics.empty())
            << "rank " << rr.rank << " sent no metrics";
        EXPECT_GT(rr.metrics.counter("net.frame_bytes_out"), 0u)
            << "rank " << rr.rank;
    }
    // The job-level report is exactly the merge of the rank snapshots.
    obs::RegistrySnapshot manual = result.ranks[0].metrics;
    manual.merge(result.ranks[1].metrics);
    ASSERT_EQ(result.metrics.metrics.size(), manual.metrics.size());
    for (std::size_t i = 0; i < manual.metrics.size(); ++i) {
        const obs::MetricSnapshot& a = result.metrics.metrics[i];
        const obs::MetricSnapshot& b = manual.metrics[i];
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.counter_value, b.counter_value) << a.name;
        EXPECT_EQ(a.hist.count, b.hist.count) << a.name;
        EXPECT_EQ(a.hist.sum, b.hist.sum) << a.name;
    }
    EXPECT_EQ(result.metrics.counter("net.frame_bytes_out"),
              result.ranks[0].metrics.counter("net.frame_bytes_out") +
                  result.ranks[1].metrics.counter("net.frame_bytes_out"));
}

} // namespace
} // namespace hcube::net
