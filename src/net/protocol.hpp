#pragma once

// usne wire protocol v1: length-prefixed, checksummed binary frames.
//
// The serving daemon (net/server.hpp) and its clients speak a minimal
// request/response protocol over TCP. Every message is one frame:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------
//        0     4  magic            0x55534E45 ("USNE"), little-endian
//        4     1  version          kProtocolVersion (1)
//        5     1  type             MsgType
//        6     2  flags            per-type modifier bits (kFlagFullVector)
//        8     4  payload_len      bytes following the header (<= 1 MiB)
//       12     4  payload_checksum FNV-1a/32 over the payload bytes
//       16     8  request_id       echoed verbatim in the response frame
//       24     -  payload
//
// All integers are little-endian, serialized byte-by-byte (no struct
// punning, no host-order assumptions). request_id lets clients pipeline:
// responses are matched by id, never by arrival order. The checksum turns
// silent payload corruption into an explicit kBadChecksum rejection.
//
// Request types and payloads (responses echo request_id, set the reply
// type, and are themselves framed and checksummed):
//
//   kPing          ()                     -> kPong (payload echoed)
//   kPair          (u32 u, u32 v)         -> kPairReply (i64 dist)
//   kSingleSource  (u32 source)           -> kSingleSourceReply:
//                                            i64 checksum_fold, or with
//                                            kFlagFullVector the full
//                                            (u32 n, n x i64) vector
//   kBatch         (u32 count, count x (u8 all, u32 u, u32 v))
//                                         -> kBatchReply (u32 count,
//                                            count x i64; `all` slots hold
//                                            checksum_fold — identical to
//                                            serve::BatchResult::answers)
//   kStats         ()                     -> kStatsReply (UTF-8 JSON)
//   kMetrics       ()                     -> kMetricsReply (UTF-8 Prometheus
//                                            text exposition of the global
//                                            obs::Registry)
//
// Error responses: kBusy (admission control rejected the request — retry
// later) and kError (protocol/payload problem), both carrying
// (u16 ErrorCode, UTF-8 message).
//
// decode_frame and the parse_* helpers are pure functions over byte
// buffers: tests/test_net.cpp exercises every malformed-frame path without
// a socket or an engine in sight, which is what makes "malformed frames
// never touch the engine" a provable property rather than a hope.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "serve/workload.hpp"

namespace usne::net {

inline constexpr std::uint32_t kMagic = 0x55534E45u;  // "USNE"
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;
inline constexpr std::size_t kHeaderBytes = 24;
inline constexpr std::uint32_t kMaxBatchItems = 65536;

/// Frame types. Requests have the high bit clear; responses set it.
enum class MsgType : std::uint8_t {
  kPing = 0x01,
  kPair = 0x02,
  kSingleSource = 0x03,
  kBatch = 0x04,
  kStats = 0x05,
  kMetrics = 0x06,

  kPong = 0x81,
  kPairReply = 0x82,
  kSingleSourceReply = 0x83,
  kBatchReply = 0x84,
  kStatsReply = 0x85,
  kMetricsReply = 0x86,
  kBusy = 0xEB,
  kError = 0xEE,
};

/// True for the six request types a server accepts.
bool is_request_type(std::uint8_t raw) noexcept;
/// True for any type byte defined by this protocol version.
bool is_known_type(std::uint8_t raw) noexcept;
const char* msg_type_name(MsgType type) noexcept;

/// kSingleSource flag: respond with the full distance vector instead of
/// the folded checksum.
inline constexpr std::uint16_t kFlagFullVector = 0x1;

/// Error codes carried by kBusy / kError payloads.
enum class ErrorCode : std::uint16_t {
  kNone = 0,
  kBadType = 1,       ///< well-framed but not a request type
  kMalformed = 2,     ///< payload didn't parse / vertex out of range
  kBusy = 3,          ///< admission control: queue or in-flight cap hit
  kShuttingDown = 4,  ///< server is draining
};
const char* error_code_name(ErrorCode code) noexcept;

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kPing;
  std::uint16_t flags = 0;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;
};

/// FNV-1a/32 over the payload bytes.
std::uint32_t payload_checksum(std::span<const std::uint8_t> payload) noexcept;

/// Appends one complete frame (header + payload) to `out`.
void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  std::uint64_t request_id,
                  std::span<const std::uint8_t> payload,
                  std::uint16_t flags = 0);

enum class DecodeStatus {
  kNeedMore,     ///< not enough bytes buffered yet — read more
  kFrame,        ///< one frame decoded; offset advanced past it
  kBadMagic,     ///< stream is not speaking this protocol — close it
  kBadVersion,   ///< header intact but wrong protocol version
  kBadType,      ///< type byte not defined by this version
  kOversized,    ///< payload_len exceeds kMaxPayloadBytes
  kBadChecksum,  ///< payload bytes do not match payload_checksum
};
const char* decode_status_name(DecodeStatus status) noexcept;

/// Attempts to decode one frame from buf[offset..). On kFrame, fills
/// `frame` and advances `offset` past it; on kNeedMore, leaves offset
/// untouched; on any error, offset is left at the bad frame (the caller
/// should reject and close — resynchronizing a corrupt byte stream is not
/// attempted).
DecodeStatus decode_frame(std::span<const std::uint8_t> buf,
                          std::size_t& offset, Frame& frame);

// --- typed payload encoding / parsing --------------------------------------
// Parsers return false on any size/count mismatch without touching `out`
// beyond clearing it; they never throw and never read out of bounds.

std::vector<std::uint8_t> encode_pair_request(Vertex u, Vertex v);
bool parse_pair_request(std::span<const std::uint8_t> payload, Vertex& u,
                        Vertex& v);

std::vector<std::uint8_t> encode_single_source_request(Vertex source);
bool parse_single_source_request(std::span<const std::uint8_t> payload,
                                 Vertex& source);

std::vector<std::uint8_t> encode_batch_request(
    std::span<const serve::Query> queries);
bool parse_batch_request(std::span<const std::uint8_t> payload,
                         std::vector<serve::Query>& out);
/// True when a kBatch payload holds a single-source (`all`) item. Reads
/// only the item flag bytes; the server routes point-only batches with it.
bool batch_has_single_source(std::span<const std::uint8_t> payload) noexcept;

std::vector<std::uint8_t> encode_dist_reply(Dist d);
bool parse_dist_reply(std::span<const std::uint8_t> payload, Dist& d);

std::vector<std::uint8_t> encode_dist_vector_reply(
    std::span<const Dist> dist);
bool parse_dist_vector_reply(std::span<const std::uint8_t> payload,
                             std::vector<Dist>& out);

std::vector<std::uint8_t> encode_batch_reply(std::span<const Dist> answers);
bool parse_batch_reply(std::span<const std::uint8_t> payload,
                       std::vector<Dist>& out);

std::vector<std::uint8_t> encode_error(ErrorCode code,
                                       std::string_view message);
bool parse_error(std::span<const std::uint8_t> payload, ErrorCode& code,
                 std::string& message);

}  // namespace usne::net
