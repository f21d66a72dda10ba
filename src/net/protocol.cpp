#include "net/protocol.hpp"

#include <algorithm>

namespace hcube::net {

namespace {

/// Strips and checks the leading type byte; latches the reader on
/// mismatch so the caller's final ok()/done() check fails.
[[nodiscard]] bool expect_type(ByteReader& r, MsgType want) noexcept {
    return r.u8() == static_cast<std::uint8_t>(want) && r.ok();
}

} // namespace

std::optional<MsgType>
frame_type(std::span<const std::uint8_t> payload) noexcept {
    if (payload.empty()) {
        return std::nullopt;
    }
    const std::uint8_t b = payload[0];
    if (b < static_cast<std::uint8_t>(MsgType::hello) ||
        b > static_cast<std::uint8_t>(MsgType::metrics)) {
        return std::nullopt;
    }
    return static_cast<MsgType>(b);
}

// ---- data plane -------------------------------------------------------

void encode_data(std::vector<std::uint8_t>& out, std::uint64_t plan_fp,
                 std::uint32_t channel, std::uint32_t seq,
                 std::uint32_t packet, std::uint64_t checksum,
                 std::span<const double> block) {
    out.clear();
    out.reserve(1 + 8 + 4 + 4 + 4 + 8 + block.size() * sizeof(double));
    ByteWriter w(out);
    w.u8(static_cast<std::uint8_t>(MsgType::data));
    w.u64(plan_fp);
    w.u32(channel);
    w.u32(seq);
    w.u32(packet);
    w.u64(checksum);
    w.blocks(block);
}

bool decode_data(std::span<const std::uint8_t> frame,
                 DataView& view) noexcept {
    ByteReader r(frame);
    if (!expect_type(r, MsgType::data)) {
        return false;
    }
    view.plan_fp = r.u64();
    view.channel = r.u32();
    view.seq = r.u32();
    view.packet = r.u32();
    view.checksum = r.u64();
    const std::size_t rest = r.remaining();
    if (rest % sizeof(double) != 0) {
        return false;
    }
    view.payload = r.bytes(rest);
    return r.done();
}

void encode_ack(std::vector<std::uint8_t>& out, const AckMsg& msg) {
    out.clear();
    ByteWriter w(out);
    w.u8(static_cast<std::uint8_t>(MsgType::ack));
    w.u32(msg.channel);
    w.u32(msg.seq);
}

bool decode_ack(std::span<const std::uint8_t> frame, AckMsg& msg) noexcept {
    ByteReader r(frame);
    if (!expect_type(r, MsgType::ack)) {
        return false;
    }
    msg.channel = r.u32();
    msg.seq = r.u32();
    return r.done();
}

// ---- control plane ----------------------------------------------------

void encode_hello(std::vector<std::uint8_t>& out, const HelloMsg& msg) {
    out.clear();
    ByteWriter w(out);
    w.u8(static_cast<std::uint8_t>(MsgType::hello));
    w.u32(kMagic);
    w.u16(kVersion);
    w.u32(msg.rank);
    w.u64(msg.plan_fp);
}

bool decode_hello(std::span<const std::uint8_t> frame,
                  HelloMsg& msg) noexcept {
    ByteReader r(frame);
    if (!expect_type(r, MsgType::hello)) {
        return false;
    }
    if (r.u32() != kMagic || r.u16() != kVersion) {
        return false;
    }
    msg.rank = r.u32();
    msg.plan_fp = r.u64();
    return r.done();
}

void encode_bare(std::vector<std::uint8_t>& out, MsgType type) {
    out.clear();
    out.push_back(static_cast<std::uint8_t>(type));
}

void encode_dump(std::vector<std::uint8_t>& out, std::uint64_t slot,
                 std::span<const double> block) {
    out.clear();
    out.reserve(1 + 8 + block.size() * sizeof(double));
    ByteWriter w(out);
    w.u8(static_cast<std::uint8_t>(MsgType::dump));
    w.u64(slot);
    w.blocks(block);
}

bool decode_dump(std::span<const std::uint8_t> frame,
                 DumpView& view) noexcept {
    ByteReader r(frame);
    if (!expect_type(r, MsgType::dump)) {
        return false;
    }
    view.slot = r.u64();
    const std::size_t rest = r.remaining();
    if (rest % sizeof(double) != 0) {
        return false;
    }
    view.payload = r.bytes(rest);
    return r.done();
}

WireCounters& WireCounters::operator+=(const WireCounters& o) noexcept {
    data_sent += o.data_sent;
    data_received += o.data_received;
    acks_sent += o.acks_sent;
    acks_received += o.acks_received;
    retransmits += o.retransmits;
    dup_suppressed += o.dup_suppressed;
    corrupt_dropped += o.corrupt_dropped;
    stashed += o.stashed;
    injected_drop += o.injected_drop;
    injected_corrupt += o.injected_corrupt;
    injected_dup += o.injected_dup;
    link_failures += o.link_failures;
    flush_timeouts += o.flush_timeouts;
    return *this;
}

void encode_report(std::vector<std::uint8_t>& out, const ReportMsg& msg) {
    out.clear();
    ByteWriter w(out);
    w.u8(static_cast<std::uint8_t>(MsgType::report));
    w.u32(msg.rank);
    // PlayStats (steals omitted: the per-process engine never steals).
    w.u32(msg.play.cycles);
    w.u64(msg.play.blocks_sent);
    w.u64(msg.play.blocks_delivered);
    w.u64(msg.play.payload_bytes);
    w.u64(msg.play.bytes_copied);
    w.u64(msg.play.checksum_failures);
    w.u64(msg.play.channel_faults);
    w.u64(msg.play.timeouts);
    w.f64(msg.play.seconds);
    w.u8(static_cast<std::uint8_t>(msg.play.mode));
    w.u8(static_cast<std::uint8_t>(msg.play.transport));
    // WireCounters.
    w.u64(msg.wire.data_sent);
    w.u64(msg.wire.data_received);
    w.u64(msg.wire.acks_sent);
    w.u64(msg.wire.acks_received);
    w.u64(msg.wire.retransmits);
    w.u64(msg.wire.dup_suppressed);
    w.u64(msg.wire.corrupt_dropped);
    w.u64(msg.wire.stashed);
    w.u64(msg.wire.injected_drop);
    w.u64(msg.wire.injected_corrupt);
    w.u64(msg.wire.injected_dup);
    w.u64(msg.wire.link_failures);
    w.u64(msg.wire.flush_timeouts);
    // First detected fault.
    w.u8(static_cast<std::uint8_t>(msg.fault.cls));
    w.u32(msg.fault.from);
    w.u32(msg.fault.to);
    w.u32(msg.fault.channel);
    w.u32(msg.fault.cycle);
    w.u32(msg.fault.packet);
}

bool decode_report(std::span<const std::uint8_t> frame,
                   ReportMsg& msg) noexcept {
    ByteReader r(frame);
    if (!expect_type(r, MsgType::report)) {
        return false;
    }
    msg.rank = r.u32();
    msg.play.cycles = r.u32();
    msg.play.blocks_sent = r.u64();
    msg.play.blocks_delivered = r.u64();
    msg.play.payload_bytes = r.u64();
    msg.play.bytes_copied = r.u64();
    msg.play.checksum_failures = r.u64();
    msg.play.channel_faults = r.u64();
    msg.play.timeouts = r.u64();
    msg.play.seconds = r.f64();
    const std::uint8_t mode = r.u8();
    const std::uint8_t transport = r.u8();
    msg.wire.data_sent = r.u64();
    msg.wire.data_received = r.u64();
    msg.wire.acks_sent = r.u64();
    msg.wire.acks_received = r.u64();
    msg.wire.retransmits = r.u64();
    msg.wire.dup_suppressed = r.u64();
    msg.wire.corrupt_dropped = r.u64();
    msg.wire.stashed = r.u64();
    msg.wire.injected_drop = r.u64();
    msg.wire.injected_corrupt = r.u64();
    msg.wire.injected_dup = r.u64();
    msg.wire.link_failures = r.u64();
    msg.wire.flush_timeouts = r.u64();
    const std::uint8_t cls = r.u8();
    msg.fault.from = r.u32();
    msg.fault.to = r.u32();
    msg.fault.channel = r.u32();
    msg.fault.cycle = r.u32();
    msg.fault.packet = r.u32();
    if (!r.done() ||
        mode > static_cast<std::uint8_t>(rt::ExecMode::stealing) ||
        transport > static_cast<std::uint8_t>(ft::TransportClass::tcp) ||
        cls > static_cast<std::uint8_t>(ft::DetectClass::stream_mismatch)) {
        return false;
    }
    msg.play.mode = static_cast<rt::ExecMode>(mode);
    msg.play.transport = static_cast<ft::TransportClass>(transport);
    msg.fault.cls = static_cast<ft::DetectClass>(cls);
    return true;
}

// ---- service plane ----------------------------------------------------

void encode_op_request(std::vector<std::uint8_t>& out,
                       const OpRequestMsg& msg) {
    out.clear();
    ByteWriter w(out);
    w.u8(static_cast<std::uint8_t>(MsgType::op_request));
    w.u32(msg.req_id);
    w.u8(static_cast<std::uint8_t>(msg.sig.op));
    w.u8(static_cast<std::uint8_t>(msg.sig.family));
    w.u8(static_cast<std::uint8_t>(msg.sig.n));
    w.u32(msg.sig.root);
    w.u32(msg.sig.packets);
    w.u32(msg.sig.block_elems);
    w.u8(static_cast<std::uint8_t>(msg.sig.model));
}

bool decode_op_request(std::span<const std::uint8_t> frame,
                       OpRequestMsg& msg) noexcept {
    ByteReader r(frame);
    if (!expect_type(r, MsgType::op_request)) {
        return false;
    }
    msg.req_id = r.u32();
    const std::uint8_t op = r.u8();
    const std::uint8_t family = r.u8();
    msg.sig.n = r.u8();
    msg.sig.root = r.u32();
    msg.sig.packets = r.u32();
    msg.sig.block_elems = r.u32();
    const std::uint8_t model = r.u8();
    if (!r.done() || op > static_cast<std::uint8_t>(svc::Op::alltoall) ||
        family > static_cast<std::uint8_t>(svc::Family::bst) ||
        model > static_cast<std::uint8_t>(sim::PortModel::all_port)) {
        return false;
    }
    msg.sig.op = static_cast<svc::Op>(op);
    msg.sig.family = static_cast<svc::Family>(family);
    msg.sig.model = static_cast<sim::PortModel>(model);
    return true;
}

void encode_op_response(std::vector<std::uint8_t>& out,
                        const OpResponseMsg& msg) {
    out.clear();
    ByteWriter w(out);
    w.u8(static_cast<std::uint8_t>(MsgType::op_response));
    w.u32(msg.req_id);
    w.u8(msg.status);
    w.u8(msg.verified ? 1 : 0);
    w.u8(msg.full_check ? 1 : 0);
    w.u8(msg.cache_hit ? 1 : 0);
    w.u8(msg.batched ? 1 : 0);
    w.u32(msg.rt_cycles);
    w.u32(msg.sim_makespan);
    w.u64(msg.blocks_delivered);
    w.u64(msg.payload_bytes);
    w.f64(msg.seconds);
    w.u8(msg.transport);
    w.str(msg.error);
}

bool decode_op_response(std::span<const std::uint8_t> frame,
                        OpResponseMsg& msg) noexcept {
    ByteReader r(frame);
    if (!expect_type(r, MsgType::op_response)) {
        return false;
    }
    msg.req_id = r.u32();
    msg.status = r.u8();
    msg.verified = r.u8() != 0;
    msg.full_check = r.u8() != 0;
    msg.cache_hit = r.u8() != 0;
    msg.batched = r.u8() != 0;
    msg.rt_cycles = r.u32();
    msg.sim_makespan = r.u32();
    msg.blocks_delivered = r.u64();
    msg.payload_bytes = r.u64();
    msg.seconds = r.f64();
    msg.transport = r.u8();
    msg.error = r.str();
    return r.done();
}

// ---- telemetry plane --------------------------------------------------

namespace {

/// Sanity bounds a decoder enforces on a peer's snapshot: far above any
/// real registry, far below anything that could balloon memory.
constexpr std::uint32_t kMaxWireMetrics = 65536;
constexpr std::uint32_t kMaxWireBuckets = 4096;

} // namespace

void encode_metrics(std::vector<std::uint8_t>& out,
                    const obs::RegistrySnapshot& snap) {
    out.clear();
    ByteWriter w(out);
    w.u8(static_cast<std::uint8_t>(MsgType::metrics));
    w.u32(static_cast<std::uint32_t>(snap.metrics.size()));
    for (const obs::MetricSnapshot& m : snap.metrics) {
        w.str(m.name);
        w.u8(static_cast<std::uint8_t>(m.kind));
        switch (m.kind) {
        case obs::Kind::counter: w.u64(m.counter_value); break;
        case obs::Kind::gauge:
            w.u64(static_cast<std::uint64_t>(m.gauge_value));
            break;
        case obs::Kind::histogram: {
            w.u64(m.hist.count);
            w.u64(m.hist.sum);
            w.u64(m.hist.max);
            std::uint32_t nonzero = 0;
            for (const std::uint64_t c : m.hist.counts) {
                if (c != 0) {
                    ++nonzero;
                }
            }
            w.u32(nonzero);
            for (std::uint32_t b = 0; b < m.hist.counts.size(); ++b) {
                if (m.hist.counts[b] != 0) {
                    w.u32(b);
                    w.u64(m.hist.counts[b]);
                }
            }
            break;
        }
        }
    }
}

bool decode_metrics(std::span<const std::uint8_t> frame,
                    obs::RegistrySnapshot& snap) {
    ByteReader r(frame);
    if (!expect_type(r, MsgType::metrics)) {
        return false;
    }
    const std::uint32_t count = r.u32();
    if (!r.ok() || count > kMaxWireMetrics) {
        return false;
    }
    snap.metrics.clear();
    snap.metrics.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        obs::MetricSnapshot m;
        m.name = r.str();
        const std::uint8_t kind = r.u8();
        if (!r.ok() ||
            kind > static_cast<std::uint8_t>(obs::Kind::histogram)) {
            return false;
        }
        m.kind = static_cast<obs::Kind>(kind);
        switch (m.kind) {
        case obs::Kind::counter: m.counter_value = r.u64(); break;
        case obs::Kind::gauge:
            m.gauge_value = static_cast<std::int64_t>(r.u64());
            break;
        case obs::Kind::histogram: {
            m.hist.count = r.u64();
            m.hist.sum = r.u64();
            m.hist.max = r.u64();
            const std::uint32_t pairs = r.u32();
            if (!r.ok() || pairs > kMaxWireBuckets) {
                return false;
            }
            for (std::uint32_t p = 0; p < pairs; ++p) {
                const std::uint32_t bucket = r.u32();
                const std::uint64_t c = r.u64();
                if (!r.ok() || bucket >= obs::Histogram::kBuckets) {
                    return false;
                }
                if (m.hist.counts.size() <= bucket) {
                    m.hist.counts.resize(bucket + 1, 0);
                }
                m.hist.counts[bucket] = c;
            }
            break;
        }
        }
        snap.metrics.push_back(std::move(m));
    }
    if (!r.done()) {
        return false;
    }
    // merge()/find() assume name order; don't trust the peer to have
    // sorted.
    std::sort(snap.metrics.begin(), snap.metrics.end(),
              [](const obs::MetricSnapshot& a,
                 const obs::MetricSnapshot& b) { return a.name < b.name; });
    return true;
}

} // namespace hcube::net
