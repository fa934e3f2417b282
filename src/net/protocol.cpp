#include "net/protocol.hpp"

#include <cstring>

namespace usne::net {
namespace {

constexpr std::uint32_t kFnv32Seed = 2166136261u;
constexpr std::uint32_t kFnv32Prime = 16777619u;

// Little-endian scalar writers/readers over raw byte vectors. Byte-by-byte
// on purpose: the wire format must not depend on host endianness or struct
// layout, and the compiler folds these into single moves on x86 anyway.
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(p[0]) |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

bool is_request_type(std::uint8_t raw) noexcept {
  return raw >= static_cast<std::uint8_t>(MsgType::kPing) &&
         raw <= static_cast<std::uint8_t>(MsgType::kMetrics);
}

bool is_known_type(std::uint8_t raw) noexcept {
  if (is_request_type(raw)) return true;
  switch (static_cast<MsgType>(raw)) {
    case MsgType::kPong:
    case MsgType::kPairReply:
    case MsgType::kSingleSourceReply:
    case MsgType::kBatchReply:
    case MsgType::kStatsReply:
    case MsgType::kMetricsReply:
    case MsgType::kBusy:
    case MsgType::kError:
      return true;
    default:
      return false;
  }
}

const char* msg_type_name(MsgType type) noexcept {
  switch (type) {
    case MsgType::kPing: return "ping";
    case MsgType::kPair: return "pair";
    case MsgType::kSingleSource: return "single_source";
    case MsgType::kBatch: return "batch";
    case MsgType::kStats: return "stats";
    case MsgType::kMetrics: return "metrics";
    case MsgType::kPong: return "pong";
    case MsgType::kPairReply: return "pair_reply";
    case MsgType::kSingleSourceReply: return "single_source_reply";
    case MsgType::kBatchReply: return "batch_reply";
    case MsgType::kStatsReply: return "stats_reply";
    case MsgType::kMetricsReply: return "metrics_reply";
    case MsgType::kBusy: return "busy";
    case MsgType::kError: return "error";
  }
  return "?";
}

const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kBadType: return "bad_type";
    case ErrorCode::kMalformed: return "malformed";
    case ErrorCode::kBusy: return "busy";
    case ErrorCode::kShuttingDown: return "shutting_down";
  }
  return "?";
}

const char* decode_status_name(DecodeStatus status) noexcept {
  switch (status) {
    case DecodeStatus::kNeedMore: return "need_more";
    case DecodeStatus::kFrame: return "frame";
    case DecodeStatus::kBadMagic: return "bad_magic";
    case DecodeStatus::kBadVersion: return "bad_version";
    case DecodeStatus::kBadType: return "bad_type";
    case DecodeStatus::kOversized: return "oversized";
    case DecodeStatus::kBadChecksum: return "bad_checksum";
  }
  return "?";
}

std::uint32_t payload_checksum(std::span<const std::uint8_t> payload) noexcept {
  std::uint32_t h = kFnv32Seed;
  for (std::uint8_t b : payload) {
    h ^= b;
    h *= kFnv32Prime;
  }
  return h;
}

void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  std::uint64_t request_id,
                  std::span<const std::uint8_t> payload,
                  std::uint16_t flags) {
  out.reserve(out.size() + kHeaderBytes + payload.size());
  put_u32(out, kMagic);
  out.push_back(kProtocolVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  put_u16(out, flags);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, payload_checksum(payload));
  put_u64(out, request_id);
  out.insert(out.end(), payload.begin(), payload.end());
}

DecodeStatus decode_frame(std::span<const std::uint8_t> buf,
                          std::size_t& offset, Frame& frame) {
  if (buf.size() - offset < kHeaderBytes) return DecodeStatus::kNeedMore;
  const std::uint8_t* h = buf.data() + offset;
  if (get_u32(h) != kMagic) return DecodeStatus::kBadMagic;
  if (h[4] != kProtocolVersion) return DecodeStatus::kBadVersion;
  if (!is_known_type(h[5])) return DecodeStatus::kBadType;
  const std::uint32_t payload_len = get_u32(h + 8);
  if (payload_len > kMaxPayloadBytes) return DecodeStatus::kOversized;
  if (buf.size() - offset < kHeaderBytes + payload_len) {
    return DecodeStatus::kNeedMore;
  }
  const std::uint8_t* payload = h + kHeaderBytes;
  if (payload_checksum({payload, payload_len}) != get_u32(h + 12)) {
    return DecodeStatus::kBadChecksum;
  }
  frame.type = static_cast<MsgType>(h[5]);
  frame.flags = get_u16(h + 6);
  frame.request_id = get_u64(h + 16);
  frame.payload.assign(payload, payload + payload_len);
  offset += kHeaderBytes + payload_len;
  return DecodeStatus::kFrame;
}

std::vector<std::uint8_t> encode_pair_request(Vertex u, Vertex v) {
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(u));
  put_u32(out, static_cast<std::uint32_t>(v));
  return out;
}

bool parse_pair_request(std::span<const std::uint8_t> payload, Vertex& u,
                        Vertex& v) {
  if (payload.size() != 8) return false;
  u = static_cast<Vertex>(get_u32(payload.data()));
  v = static_cast<Vertex>(get_u32(payload.data() + 4));
  return true;
}

std::vector<std::uint8_t> encode_single_source_request(Vertex source) {
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(source));
  return out;
}

bool parse_single_source_request(std::span<const std::uint8_t> payload,
                                 Vertex& source) {
  if (payload.size() != 4) return false;
  source = static_cast<Vertex>(get_u32(payload.data()));
  return true;
}

std::vector<std::uint8_t> encode_batch_request(
    std::span<const serve::Query> queries) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + queries.size() * 9);
  put_u32(out, static_cast<std::uint32_t>(queries.size()));
  for (const serve::Query& q : queries) {
    out.push_back(q.all ? 1 : 0);
    put_u32(out, static_cast<std::uint32_t>(q.u));
    put_u32(out, static_cast<std::uint32_t>(q.v));
  }
  return out;
}

bool parse_batch_request(std::span<const std::uint8_t> payload,
                         std::vector<serve::Query>& out) {
  out.clear();
  if (payload.size() < 4) return false;
  const std::uint32_t count = get_u32(payload.data());
  if (count > kMaxBatchItems) return false;
  if (payload.size() != 4 + static_cast<std::size_t>(count) * 9) return false;
  out.reserve(count);
  const std::uint8_t* p = payload.data() + 4;
  for (std::uint32_t i = 0; i < count; ++i, p += 9) {
    if (p[0] > 1) {
      out.clear();
      return false;
    }
    serve::Query q;
    q.all = (p[0] == 1);
    q.u = static_cast<Vertex>(get_u32(p + 1));
    q.v = static_cast<Vertex>(get_u32(p + 5));
    out.push_back(q);
  }
  return true;
}

bool batch_has_single_source(std::span<const std::uint8_t> payload) noexcept {
  for (std::size_t at = 4; at < payload.size(); at += 9) {
    if (payload[at] == 1) return true;
  }
  return false;
}

std::vector<std::uint8_t> encode_dist_reply(Dist d) {
  std::vector<std::uint8_t> out;
  put_u64(out, static_cast<std::uint64_t>(d));
  return out;
}

bool parse_dist_reply(std::span<const std::uint8_t> payload, Dist& d) {
  if (payload.size() != 8) return false;
  d = static_cast<Dist>(get_u64(payload.data()));
  return true;
}

std::vector<std::uint8_t> encode_dist_vector_reply(
    std::span<const Dist> dist) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + dist.size() * 8);
  put_u32(out, static_cast<std::uint32_t>(dist.size()));
  for (Dist d : dist) put_u64(out, static_cast<std::uint64_t>(d));
  return out;
}

bool parse_dist_vector_reply(std::span<const std::uint8_t> payload,
                             std::vector<Dist>& out) {
  out.clear();
  if (payload.size() < 4) return false;
  const std::uint32_t count = get_u32(payload.data());
  if (payload.size() != 4 + static_cast<std::size_t>(count) * 8) return false;
  out.reserve(count);
  const std::uint8_t* p = payload.data() + 4;
  for (std::uint32_t i = 0; i < count; ++i, p += 8) {
    out.push_back(static_cast<Dist>(get_u64(p)));
  }
  return true;
}

std::vector<std::uint8_t> encode_batch_reply(std::span<const Dist> answers) {
  return encode_dist_vector_reply(answers);
}

bool parse_batch_reply(std::span<const std::uint8_t> payload,
                       std::vector<Dist>& out) {
  return parse_dist_vector_reply(payload, out);
}

std::vector<std::uint8_t> encode_error(ErrorCode code,
                                       std::string_view message) {
  std::vector<std::uint8_t> out;
  out.reserve(2 + message.size());
  put_u16(out, static_cast<std::uint16_t>(code));
  // push_back, not insert: GCC 12's -Warray-bounds misfires on the
  // memcpy inside vector::insert here (bugzilla 105329 family).
  for (char ch : message) out.push_back(static_cast<std::uint8_t>(ch));
  return out;
}

bool parse_error(std::span<const std::uint8_t> payload, ErrorCode& code,
                 std::string& message) {
  if (payload.size() < 2) return false;
  code = static_cast<ErrorCode>(get_u16(payload.data()));
  message.assign(reinterpret_cast<const char*>(payload.data()) + 2,
                 payload.size() - 2);
  return true;
}

}  // namespace usne::net
