// The wire message set of the net transport (docs/NETWORK.md § Protocol).
//
// Every message is one frame (net/frame.hpp): byte 0 is the MsgType, the
// rest is the little-endian field encoding (common/endian.hpp). Three
// message groups share the format:
//
//   data plane (peer <-> peer)  — DATA carries one block with the plan
//     fingerprint, channel (directed-link) id, per-channel sequence number,
//     packet id, and the xxHash-class payload digest; ACK confirms one
//     {channel, seq}. These two are the entire reliability vocabulary.
//
//   control plane (launcher <-> rank) — HELLO announces a rank and its
//     locally compiled plan fingerprint, GO releases the ranks into play(),
//     DUMP returns one owned slot's final bytes, REPORT returns the rank's
//     PlayStats + wire counters, FIN/BYE sequence the teardown so no io
//     thread dies while a peer still drains retransmits.
//
//   service plane (client <-> netd) — OP_REQUEST carries a svc::Signature,
//     OP_RESPONSE the svc::Response summary, so a remote client drives a
//     collective service over the same framing the data plane uses.
//
// Decoders never trust the peer: every field is bounds-checked through
// ByteReader and a failed decode returns false instead of tearing.
#pragma once

#include "common/endian.hpp"
#include "ft/fault_model.hpp"
#include "obs/metrics.hpp" // RegistrySnapshot
#include "rt/async_player.hpp" // PlayStats
#include "svc/signature.hpp"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace hcube::net {

enum class MsgType : std::uint8_t {
    hello = 1,
    go = 2,
    data = 3,
    ack = 4,
    dump = 5,
    report = 6,
    fin = 7,
    bye = 8,
    op_request = 9,
    op_response = 10,
    metrics = 11,
};

/// Protocol magic ("HCN1") carried in HELLO — a wrong-port connect fails
/// the handshake instead of feeding garbage into the data plane.
inline constexpr std::uint32_t kMagic = 0x3148'434E;
inline constexpr std::uint16_t kVersion = 1;

/// Peeks the MsgType of a decoded frame payload (nullopt on empty frame).
[[nodiscard]] std::optional<MsgType>
frame_type(std::span<const std::uint8_t> payload) noexcept;

// ---- data plane -------------------------------------------------------

/// Bytes of a DATA frame before its block payload (type + plan_fp +
/// channel + seq + packet + checksum) — where a wire-fault corruption
/// perturbs and where the payload slice starts.
inline constexpr std::size_t kDataHeaderBytes = 1 + 8 + 4 + 4 + 4 + 8;

/// Decoded view of a DATA frame; `payload` aliases the frame buffer.
struct DataView {
    std::uint64_t plan_fp = 0;
    std::uint32_t channel = 0;
    std::uint32_t seq = 0;
    std::uint32_t packet = 0;
    std::uint64_t checksum = 0; ///< digest of the block as sent
    std::span<const std::uint8_t> payload; ///< block_elems LE doubles
};

void encode_data(std::vector<std::uint8_t>& out, std::uint64_t plan_fp,
                 std::uint32_t channel, std::uint32_t seq,
                 std::uint32_t packet, std::uint64_t checksum,
                 std::span<const double> block);
[[nodiscard]] bool decode_data(std::span<const std::uint8_t> frame,
                               DataView& view) noexcept;

struct AckMsg {
    std::uint32_t channel = 0;
    std::uint32_t seq = 0;
};

void encode_ack(std::vector<std::uint8_t>& out, const AckMsg& msg);
[[nodiscard]] bool decode_ack(std::span<const std::uint8_t> frame,
                              AckMsg& msg) noexcept;

// ---- control plane ----------------------------------------------------

struct HelloMsg {
    std::uint32_t rank = 0;
    std::uint64_t plan_fp = 0;
};

void encode_hello(std::vector<std::uint8_t>& out, const HelloMsg& msg);
[[nodiscard]] bool decode_hello(std::span<const std::uint8_t> frame,
                                HelloMsg& msg) noexcept;

/// GO / FIN / BYE are bare type bytes.
void encode_bare(std::vector<std::uint8_t>& out, MsgType type);

/// One owned slot's final block bytes.
struct DumpView {
    std::uint64_t slot = 0;
    std::span<const std::uint8_t> payload; ///< block_elems LE doubles
};

void encode_dump(std::vector<std::uint8_t>& out, std::uint64_t slot,
                 std::span<const double> block);
[[nodiscard]] bool decode_dump(std::span<const std::uint8_t> frame,
                               DumpView& view) noexcept;

/// Receive- and send-side counters of one rank's reliability layer —
/// the wire analogue of PlayStats' fault counters.
struct WireCounters {
    std::uint64_t data_sent = 0;       ///< first transmissions written
    std::uint64_t data_received = 0;   ///< DATA frames decoded
    std::uint64_t acks_sent = 0;
    std::uint64_t acks_received = 0;
    std::uint64_t retransmits = 0;     ///< ack-timeout re-sends
    std::uint64_t dup_suppressed = 0;  ///< recent-set hits, re-acked only
    std::uint64_t corrupt_dropped = 0; ///< digest-failed frames, not acked
    std::uint64_t stashed = 0;         ///< out-of-order arrivals held back
    std::uint64_t injected_drop = 0;   ///< wire faults applied on send
    std::uint64_t injected_corrupt = 0;
    std::uint64_t injected_dup = 0;
    std::uint64_t link_failures = 0;   ///< retry budget exhausted
    std::uint64_t flush_timeouts = 0;  ///< post-play ack drain expired

    WireCounters& operator+=(const WireCounters& o) noexcept;
};

/// A rank's end-of-play report to the launcher.
struct ReportMsg {
    std::uint32_t rank = 0;
    rt::PlayStats play;
    WireCounters wire;
    ft::FaultReport fault;
};

void encode_report(std::vector<std::uint8_t>& out, const ReportMsg& msg);
[[nodiscard]] bool decode_report(std::span<const std::uint8_t> frame,
                                 ReportMsg& msg) noexcept;

// ---- service plane ----------------------------------------------------

struct OpRequestMsg {
    std::uint32_t req_id = 0;
    svc::Signature sig;
};

void encode_op_request(std::vector<std::uint8_t>& out,
                       const OpRequestMsg& msg);
[[nodiscard]] bool decode_op_request(std::span<const std::uint8_t> frame,
                                     OpRequestMsg& msg) noexcept;

/// svc::Response flattened for the wire (status + the ExecStats summary).
struct OpResponseMsg {
    std::uint32_t req_id = 0;
    std::uint8_t status = 0; ///< svc::Status
    bool verified = false;
    bool full_check = false; ///< svc::ExecStats::full_check
    bool cache_hit = false;
    bool batched = false;
    std::uint32_t rt_cycles = 0;
    std::uint32_t sim_makespan = 0;
    std::uint64_t blocks_delivered = 0;
    std::uint64_t payload_bytes = 0;
    double seconds = 0;
    std::uint8_t transport = 0; ///< ft::TransportClass of the serving endpoint
    std::string error;
};

void encode_op_response(std::vector<std::uint8_t>& out,
                        const OpResponseMsg& msg);
[[nodiscard]] bool decode_op_response(std::span<const std::uint8_t> frame,
                                      OpResponseMsg& msg) noexcept;

// ---- telemetry plane --------------------------------------------------

/// METRICS is dual-use by direction: a *bare* METRICS frame (the type byte
/// alone, encode_bare) is a scrape request — netd answers with a framed
/// registry snapshot; a rank in net::run_job pushes its snapshot to the
/// launcher unprompted before FIN. Histograms travel sparsely: count / sum
/// / max plus only the non-zero (bucket, count) pairs, so an idle registry
/// costs bytes proportional to what it measured, not to kBuckets.
void encode_metrics(std::vector<std::uint8_t>& out,
                    const obs::RegistrySnapshot& snap);
[[nodiscard]] bool decode_metrics(std::span<const std::uint8_t> frame,
                                  obs::RegistrySnapshot& snap);

} // namespace hcube::net
