// Tests of the net transport's wire basement: little-endian primitives
// and the bounds-checked ByteWriter/ByteReader (common/endian.hpp), the
// length-prefixed frame reader/writer with its short-read/short-write and
// EINTR discipline (net/frame.hpp), and every protocol codec
// (net/protocol.hpp) — round trips plus truncation/garbage rejection.
#include "net/frame.hpp"

#include "common/endian.hpp"
#include "net/protocol.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

namespace hcube::net {
namespace {

// ---------------------------------------------------------------- endian

TEST(NetFrame, ScalarLittleEndianRoundTrip) {
    std::uint8_t buf[8];
    store_le16(buf, 0xbeef);
    EXPECT_EQ(load_le16(buf), 0xbeef);
    EXPECT_EQ(buf[0], 0xef); // low byte first: the format, not the host
    store_le32(buf, 0xdead'beef);
    EXPECT_EQ(load_le32(buf), 0xdead'beef);
    store_le64(buf, 0x0123'4567'89ab'cdefULL);
    EXPECT_EQ(load_le64(buf), 0x0123'4567'89ab'cdefULL);
    EXPECT_EQ(buf[0], 0xef);
    EXPECT_EQ(buf[7], 0x01);
}

TEST(NetFrame, WriterReaderRoundTrip) {
    std::vector<std::uint8_t> buf;
    ByteWriter w(buf);
    w.u8(7);
    w.u16(513);
    w.u32(70'000);
    w.u64(1ULL << 40);
    w.f64(-2.5);
    w.str("hello");
    const double blocks[3] = {1.0, -0.0, 3.25};
    w.blocks({blocks, 3});

    ByteReader r(buf);
    EXPECT_EQ(r.u8(), 7);
    EXPECT_EQ(r.u16(), 513);
    EXPECT_EQ(r.u32(), 70'000u);
    EXPECT_EQ(r.u64(), 1ULL << 40);
    EXPECT_EQ(r.f64(), -2.5);
    EXPECT_EQ(r.str(), "hello");
    double out[3] = {};
    r.blocks(out, 3);
    EXPECT_EQ(0, std::memcmp(blocks, out, sizeof(blocks)));
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.done());
}

TEST(NetFrame, ReaderLatchesOnOverrun) {
    std::vector<std::uint8_t> buf;
    ByteWriter w(buf);
    w.u16(99);
    ByteReader r(buf);
    (void)r.u32(); // asks for more than the buffer holds
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.u8(), 0); // latched: every later read is a safe zero
    EXPECT_FALSE(r.ok());
}

TEST(NetFrame, ReaderRejectsOversizeString) {
    std::vector<std::uint8_t> buf(4);
    store_le32(buf.data(), 0xffff'ffff); // length prefix >> buffer
    ByteReader r(buf);
    EXPECT_EQ(r.str(), "");
    EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------- frames

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

TEST(NetFrame, FrameRoundTripOverSocketpair) {
    SocketPair sp;
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
    ASSERT_EQ(write_frame(sp.fd[0], payload), IoStatus::ok);
    std::vector<std::uint8_t> got;
    ASSERT_EQ(read_frame(sp.fd[1], got), IoStatus::ok);
    EXPECT_EQ(got, payload);
}

TEST(NetFrame, EmptyFrameRoundTrips) {
    SocketPair sp;
    ASSERT_EQ(write_frame(sp.fd[0], {}), IoStatus::ok);
    std::vector<std::uint8_t> got = {9, 9};
    ASSERT_EQ(read_frame(sp.fd[1], got), IoStatus::ok);
    EXPECT_TRUE(got.empty());
}

TEST(NetFrame, LargeFrameCrossesShortWrites) {
    // A tiny send buffer forces write_frame through many partial writes
    // while the reader drains concurrently — the short-write loop.
    SocketPair sp;
    const int small = 4096;
    (void)::setsockopt(sp.fd[0], SOL_SOCKET, SO_SNDBUF, &small,
                       sizeof(small));
    std::vector<std::uint8_t> payload(1u << 20);
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
    }
    std::vector<std::uint8_t> got;
    IoStatus read_status = IoStatus::failed;
    std::thread reader(
        [&] {
            read_status = read_frame(
                sp.fd[1], got,
                static_cast<std::uint32_t>(payload.size()));
        });
    EXPECT_EQ(write_frame(sp.fd[0], payload), IoStatus::ok);
    reader.join();
    ASSERT_EQ(read_status, IoStatus::ok);
    EXPECT_EQ(got, payload);
}

TEST(NetFrame, CleanEofIsClosedMidFrameIsFailed) {
    {
        SocketPair sp;
        ::close(sp.fd[0]);
        sp.fd[0] = -1;
        std::vector<std::uint8_t> got;
        EXPECT_EQ(read_frame(sp.fd[1], got), IoStatus::closed);
    }
    {
        SocketPair sp;
        const std::uint8_t half_prefix[2] = {42, 0}; // 2 of 4 length bytes
        ASSERT_EQ(2, ::write(sp.fd[0], half_prefix, 2));
        ::close(sp.fd[0]);
        sp.fd[0] = -1;
        std::vector<std::uint8_t> got;
        EXPECT_EQ(read_frame(sp.fd[1], got), IoStatus::failed);
    }
    {
        SocketPair sp;
        std::uint8_t prefix[4];
        store_le32(prefix, 100); // promises 100 bytes, delivers none
        ASSERT_EQ(4, ::write(sp.fd[0], prefix, 4));
        ::close(sp.fd[0]);
        sp.fd[0] = -1;
        std::vector<std::uint8_t> got;
        EXPECT_EQ(read_frame(sp.fd[1], got), IoStatus::failed);
    }
}

TEST(NetFrame, OversizePrefixRejectedWithoutAllocating) {
    SocketPair sp;
    std::uint8_t prefix[4];
    store_le32(prefix, 1u << 30);
    ASSERT_EQ(4, ::write(sp.fd[0], prefix, 4));
    std::vector<std::uint8_t> got;
    EXPECT_EQ(read_frame(sp.fd[1], got, /*max_payload=*/1u << 16),
              IoStatus::failed);
}

// -------------------------------------------------------------- protocol

TEST(NetProtocol, DataRoundTripAndHeaderLayout) {
    const double block[4] = {1.5, -2.0, 0.0, 1e300};
    std::vector<std::uint8_t> frame;
    encode_data(frame, 0xfeed'f00d'dead'beefULL, 17, 99, 3,
                0xabcdef01'23456789ULL, {block, 4});
    ASSERT_EQ(frame.size(), kDataHeaderBytes + 4 * sizeof(double));
    EXPECT_EQ(frame_type(frame), MsgType::data);

    DataView v;
    ASSERT_TRUE(decode_data(frame, v));
    EXPECT_EQ(v.plan_fp, 0xfeed'f00d'dead'beefULL);
    EXPECT_EQ(v.channel, 17u);
    EXPECT_EQ(v.seq, 99u);
    EXPECT_EQ(v.packet, 3u);
    EXPECT_EQ(v.checksum, 0xabcdef01'23456789ULL);
    ASSERT_EQ(v.payload.size(), 4 * sizeof(double));
    double out[4] = {};
    ByteReader r(v.payload);
    r.blocks(out, 4);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(0, std::memcmp(block, out, sizeof(block)));
}

TEST(NetProtocol, DataRejectsRaggedPayload) {
    const double block[2] = {1.0, 2.0};
    std::vector<std::uint8_t> frame;
    encode_data(frame, 1, 0, 0, 0, 2, {block, 2});
    frame.pop_back(); // payload no longer a multiple of sizeof(double)
    DataView v;
    EXPECT_FALSE(decode_data(frame, v));
}

TEST(NetProtocol, SmallMessagesRoundTrip) {
    std::vector<std::uint8_t> frame;
    encode_ack(frame, {5, 1234});
    EXPECT_EQ(frame_type(frame), MsgType::ack);
    AckMsg ack;
    ASSERT_TRUE(decode_ack(frame, ack));
    EXPECT_EQ(ack.channel, 5u);
    EXPECT_EQ(ack.seq, 1234u);

    encode_hello(frame, {3, 0x1122'3344'5566'7788ULL});
    EXPECT_EQ(frame_type(frame), MsgType::hello);
    HelloMsg hello;
    ASSERT_TRUE(decode_hello(frame, hello));
    EXPECT_EQ(hello.rank, 3u);
    EXPECT_EQ(hello.plan_fp, 0x1122'3344'5566'7788ULL);

    encode_bare(frame, MsgType::go);
    EXPECT_EQ(frame_type(frame), MsgType::go);
    EXPECT_EQ(frame.size(), 1u);

    const double block[2] = {4.5, 6.5};
    encode_dump(frame, 77, {block, 2});
    DumpView dump;
    ASSERT_TRUE(decode_dump(frame, dump));
    EXPECT_EQ(dump.slot, 77u);
    EXPECT_EQ(dump.payload.size(), 2 * sizeof(double));
}

TEST(NetProtocol, HelloRejectsWrongMagic) {
    std::vector<std::uint8_t> frame;
    encode_hello(frame, {0, 1});
    frame[1] ^= 0xff; // the magic lives right after the type byte
    HelloMsg hello;
    EXPECT_FALSE(decode_hello(frame, hello));
}

TEST(NetProtocol, ReportRoundTrip) {
    ReportMsg msg;
    msg.rank = 2;
    msg.play.cycles = 9;
    msg.play.blocks_delivered = 31;
    msg.play.payload_bytes = 31 * 64;
    msg.play.bytes_copied = 1984;
    msg.play.checksum_failures = 1;
    msg.play.channel_faults = 2;
    msg.play.timeouts = 3;
    msg.play.seconds = 0.125;
    msg.play.mode = rt::ExecMode::stealing;
    msg.play.transport = ft::TransportClass::uds;
    msg.wire.data_sent = 10;
    msg.wire.retransmits = 4;
    msg.wire.dup_suppressed = 2;
    msg.wire.link_failures = 1;
    msg.fault.cls = ft::DetectClass::arrival_timeout;
    msg.fault.from = 1;
    msg.fault.to = 3;
    msg.fault.cycle = 5;
    msg.fault.packet = 7;

    std::vector<std::uint8_t> frame;
    encode_report(frame, msg);
    EXPECT_EQ(frame_type(frame), MsgType::report);
    ReportMsg got;
    ASSERT_TRUE(decode_report(frame, got));
    EXPECT_EQ(got.rank, 2u);
    EXPECT_EQ(got.play.cycles, 9u);
    EXPECT_EQ(got.play.blocks_delivered, 31u);
    EXPECT_EQ(got.play.seconds, 0.125);
    EXPECT_EQ(got.play.mode, rt::ExecMode::stealing);
    EXPECT_EQ(got.play.transport, ft::TransportClass::uds);
    EXPECT_EQ(got.wire.data_sent, 10u);
    EXPECT_EQ(got.wire.retransmits, 4u);
    EXPECT_EQ(got.wire.link_failures, 1u);
    EXPECT_EQ(got.fault.cls, ft::DetectClass::arrival_timeout);
    EXPECT_EQ(got.fault.from, 1u);
    EXPECT_EQ(got.fault.to, 3u);
}

TEST(NetProtocol, OpMessagesRoundTrip) {
    OpRequestMsg req;
    req.req_id = 41;
    req.sig.op = svc::Op::reduce;
    req.sig.family = svc::Family::sbt;
    req.sig.n = 4;
    req.sig.root = 6;
    req.sig.packets = 2;
    req.sig.block_elems = 32;
    std::vector<std::uint8_t> frame;
    encode_op_request(frame, req);
    EXPECT_EQ(frame_type(frame), MsgType::op_request);
    OpRequestMsg rgot;
    ASSERT_TRUE(decode_op_request(frame, rgot));
    EXPECT_EQ(rgot.req_id, 41u);
    EXPECT_EQ(rgot.sig.op, svc::Op::reduce);
    EXPECT_EQ(rgot.sig.n, 4);
    EXPECT_EQ(rgot.sig.root, 6u);
    EXPECT_EQ(rgot.sig.block_elems, 32u);

    OpResponseMsg resp;
    resp.req_id = 41;
    resp.status = 0;
    resp.verified = true;
    resp.cache_hit = true;
    resp.rt_cycles = 12;
    resp.blocks_delivered = 99;
    resp.seconds = 0.5;
    resp.transport = static_cast<std::uint8_t>(ft::TransportClass::tcp);
    resp.error = "";
    encode_op_response(frame, resp);
    OpResponseMsg pgot;
    ASSERT_TRUE(decode_op_response(frame, pgot));
    EXPECT_EQ(pgot.req_id, 41u);
    EXPECT_TRUE(pgot.verified);
    EXPECT_TRUE(pgot.cache_hit);
    EXPECT_EQ(pgot.rt_cycles, 12u);
    EXPECT_EQ(pgot.blocks_delivered, 99u);
    EXPECT_EQ(pgot.transport,
              static_cast<std::uint8_t>(ft::TransportClass::tcp));
}

TEST(NetProtocol, DecodersRejectTruncationEverywhere) {
    // Every codec must refuse every strict prefix of its encoding —
    // a mid-frame cut can never produce a "valid" message.
    const double block[2] = {1.0, 2.0};
    std::vector<std::vector<std::uint8_t>> frames;
    frames.emplace_back();
    encode_data(frames.back(), 1, 2, 3, 4, 5, {block, 2});
    frames.emplace_back();
    encode_ack(frames.back(), {1, 2});
    frames.emplace_back();
    encode_hello(frames.back(), {1, 2});
    frames.emplace_back();
    encode_dump(frames.back(), 3, {block, 2});
    frames.emplace_back();
    encode_report(frames.back(), ReportMsg{});
    frames.emplace_back();
    encode_op_request(frames.back(), OpRequestMsg{});
    frames.emplace_back();
    encode_op_response(frames.back(), OpResponseMsg{});

    for (const auto& full : frames) {
        for (std::size_t cut = 1; cut + 1 < full.size(); ++cut) {
            const std::span<const std::uint8_t> part{full.data(), cut};
            DataView dv;
            AckMsg am;
            HelloMsg hm;
            DumpView du;
            ReportMsg rm;
            OpRequestMsg qm;
            OpResponseMsg pm;
            switch (*frame_type(full)) {
            case MsgType::data:
                // The payload is "rest of frame": a cut landing on an
                // 8-byte payload boundary is still shape-valid (the bus
                // cross-checks the size against block_elems) — every
                // other cut must be rejected.
                if (cut < kDataHeaderBytes ||
                    (cut - kDataHeaderBytes) % sizeof(double) != 0) {
                    EXPECT_FALSE(decode_data(part, dv));
                } else {
                    EXPECT_TRUE(decode_data(part, dv));
                    EXPECT_EQ(dv.payload.size(), cut - kDataHeaderBytes);
                }
                break;
            case MsgType::ack: EXPECT_FALSE(decode_ack(part, am)); break;
            case MsgType::hello:
                EXPECT_FALSE(decode_hello(part, hm));
                break;
            case MsgType::dump: {
                const std::size_t header = 1 + sizeof(std::uint64_t);
                if (cut < header || (cut - header) % sizeof(double) != 0) {
                    EXPECT_FALSE(decode_dump(part, du));
                } else {
                    EXPECT_TRUE(decode_dump(part, du));
                }
                break;
            }
            case MsgType::report:
                EXPECT_FALSE(decode_report(part, rm));
                break;
            case MsgType::op_request:
                EXPECT_FALSE(decode_op_request(part, qm));
                break;
            case MsgType::op_response:
                EXPECT_FALSE(decode_op_response(part, pm));
                break;
            default: break;
            }
        }
    }
}

} // namespace
} // namespace hcube::net
