// Wire protocol for the key-value serving path: length-prefixed binary
// frames over a byte stream (TCP), designed for pipelining.
//
// A client may write any number of request frames back to back without
// waiting; the server replies with exactly one response frame per
// request, in request order. That pipelining contract is what lets the
// server coalesce a connection's in-flight reads into one grouped
// FindBatch descent (net/server.cc) — the wire-level twin of the
// level-wise batch traversal (DESIGN.md "Batched traversal").
//
// Frame layout (all integers little-endian, no alignment):
//
//   [u32 length] [payload: length bytes]
//
// `length` counts the payload only, and is capped at kMaxFrameBytes —
// a frame claiming more is unrecoverable (the stream cannot be resynced)
// and the server replies kStatusTooLarge and closes.
//
// Request payload:   [u8 opcode] [u32 request_id] [body]
// Response payload:  [u8 opcode] [u8 status] [u32 request_id] [body]
//
// The request_id is an opaque client token echoed verbatim; clients use
// it to match pipelined replies (and the trace flight recorder records
// it, so a slow wire request can be joined against its descent trace).
//
// Bodies per opcode (request -> OK response):
//   GET          u64 key               -> u8 found [, u64 value]
//   MGET         u32 n, n x u64 keys   -> u32 n, n x (u8 found, u64 value)
//   LOWER_BOUND  u64 key               -> u8 found [, u64 key, u64 value]
//   PUT          u64 key, u64 value    -> (empty)
//   DEL          u64 key               -> u8 erased
//   STATS        (empty)               -> JSON text (rest of payload)
//
// Error responses (status != kStatusOk) carry an empty body; the opcode
// echoes the request's opcode when it was parseable, kOpNone otherwise.
// MGET responses encode absent keys as found=0, value=0 — fixed 9-byte
// elements keep the decoder branch-free.

#ifndef SIMDTREE_NET_PROTOCOL_H_
#define SIMDTREE_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace simdtree::net {

// Hard cap on one frame's payload. Large enough for an MGET of
// kMaxMgetKeys and a STATS JSON dump; small enough that a hostile
// length prefix cannot balloon a connection's read buffer.
inline constexpr size_t kMaxFrameBytes = 1u << 20;  // 1 MiB

// Elements per MGET. Bounded separately from the byte cap so the
// server's coalescing scratch arrays stay modest.
inline constexpr uint32_t kMaxMgetKeys = 65536;

inline constexpr uint8_t kOpNone = 0;  // error replies to unparseable frames
inline constexpr uint8_t kOpGet = 1;
inline constexpr uint8_t kOpMget = 2;
inline constexpr uint8_t kOpLowerBound = 3;
inline constexpr uint8_t kOpPut = 4;
inline constexpr uint8_t kOpDel = 5;
inline constexpr uint8_t kOpStats = 6;

inline constexpr uint8_t kStatusOk = 0;
inline constexpr uint8_t kStatusMalformed = 1;    // body/opcode violations
inline constexpr uint8_t kStatusUnknownOp = 2;    // opcode outside the table
inline constexpr uint8_t kStatusTooLarge = 3;     // frame over kMaxFrameBytes
inline constexpr uint8_t kStatusShuttingDown = 4; // server draining
inline constexpr uint8_t kStatusNoSpace = 5;      // write found no room

inline const char* OpName(uint8_t op) {
  switch (op) {
    case kOpGet: return "get";
    case kOpMget: return "mget";
    case kOpLowerBound: return "lower_bound";
    case kOpPut: return "put";
    case kOpDel: return "del";
    case kOpStats: return "stats";
    default: return "none";
  }
}

inline const char* StatusName(uint8_t status) {
  switch (status) {
    case kStatusOk: return "ok";
    case kStatusMalformed: return "malformed";
    case kStatusUnknownOp: return "unknown_op";
    case kStatusTooLarge: return "too_large";
    case kStatusShuttingDown: return "shutting_down";
    case kStatusNoSpace: return "no_space";
    default: return "unknown";
  }
}

// --- little-endian scalar append/read (unaligned-safe) ---------------------

inline void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

inline void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  uint8_t b[4];
  std::memcpy(b, &v, 4);  // x86 is little-endian; memcpy keeps it UB-free
  out->insert(out->end(), b, b + 4);
}

inline void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  uint8_t b[8];
  std::memcpy(b, &v, 8);
  out->insert(out->end(), b, b + 8);
}

inline uint32_t ReadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t ReadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// --- parsed request --------------------------------------------------------

// One decoded request frame. For MGET the keys live in `keys`; every
// single-key op uses `key` (PUT also `value`).
struct Request {
  uint8_t opcode = kOpNone;
  uint32_t request_id = 0;
  uint64_t key = 0;
  uint64_t value = 0;
  std::vector<uint64_t> keys;  // MGET only
};

// Outcome of decoding one complete frame payload.
enum class DecodeResult {
  kOk,
  kMalformed,   // body length inconsistent with the opcode
  kUnknownOp,   // opcode not in the table
};

// Decodes a complete request payload (the bytes after the u32 length
// prefix). On kMalformed/kUnknownOp, req->request_id is still filled
// when the header was readable, so the error reply can echo it.
inline DecodeResult DecodeRequest(const uint8_t* p, size_t n, Request* req) {
  *req = Request{};
  if (n < 5) return DecodeResult::kMalformed;  // opcode + request_id
  req->opcode = p[0];
  req->request_id = ReadU32(p + 1);
  const uint8_t* body = p + 5;
  const size_t body_len = n - 5;
  switch (req->opcode) {
    case kOpGet:
    case kOpLowerBound:
    case kOpDel:
      if (body_len != 8) return DecodeResult::kMalformed;
      req->key = ReadU64(body);
      return DecodeResult::kOk;
    case kOpPut:
      if (body_len != 16) return DecodeResult::kMalformed;
      req->key = ReadU64(body);
      req->value = ReadU64(body + 8);
      return DecodeResult::kOk;
    case kOpMget: {
      if (body_len < 4) return DecodeResult::kMalformed;
      const uint32_t count = ReadU32(body);
      if (count > kMaxMgetKeys) return DecodeResult::kMalformed;
      if (body_len != 4 + static_cast<size_t>(count) * 8) {
        return DecodeResult::kMalformed;
      }
      req->keys.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        req->keys[i] = ReadU64(body + 4 + static_cast<size_t>(i) * 8);
      }
      return DecodeResult::kOk;
    }
    case kOpStats:
      if (body_len != 0) return DecodeResult::kMalformed;
      return DecodeResult::kOk;
    default:
      return DecodeResult::kUnknownOp;
  }
}

// --- request encoding (client side) ----------------------------------------

// Appends [length][opcode][request_id][body] to `out`. The body writer
// is a callback so each op encodes in place without a temp copy.
template <typename BodyFn>
inline void AppendRequestFrame(std::vector<uint8_t>* out, uint8_t opcode,
                               uint32_t request_id, size_t body_len,
                               BodyFn&& body) {
  PutU32(out, static_cast<uint32_t>(5 + body_len));
  PutU8(out, opcode);
  PutU32(out, request_id);
  const size_t before = out->size();
  body(out);
  (void)before;
  // The caller-declared body_len keeps the length prefix honest.
}

inline void AppendGet(std::vector<uint8_t>* out, uint32_t id, uint64_t key) {
  AppendRequestFrame(out, kOpGet, id, 8,
                     [key](std::vector<uint8_t>* o) { PutU64(o, key); });
}

inline void AppendLowerBound(std::vector<uint8_t>* out, uint32_t id,
                             uint64_t key) {
  AppendRequestFrame(out, kOpLowerBound, id, 8,
                     [key](std::vector<uint8_t>* o) { PutU64(o, key); });
}

inline void AppendDel(std::vector<uint8_t>* out, uint32_t id, uint64_t key) {
  AppendRequestFrame(out, kOpDel, id, 8,
                     [key](std::vector<uint8_t>* o) { PutU64(o, key); });
}

inline void AppendPut(std::vector<uint8_t>* out, uint32_t id, uint64_t key,
                      uint64_t value) {
  AppendRequestFrame(out, kOpPut, id, 16,
                     [key, value](std::vector<uint8_t>* o) {
                       PutU64(o, key);
                       PutU64(o, value);
                     });
}

inline void AppendMget(std::vector<uint8_t>* out, uint32_t id,
                       const uint64_t* keys, uint32_t n) {
  AppendRequestFrame(out, kOpMget, id, 4 + static_cast<size_t>(n) * 8,
                     [keys, n](std::vector<uint8_t>* o) {
                       PutU32(o, n);
                       for (uint32_t i = 0; i < n; ++i) PutU64(o, keys[i]);
                     });
}

inline void AppendStats(std::vector<uint8_t>* out, uint32_t id) {
  AppendRequestFrame(out, kOpStats, id, 0, [](std::vector<uint8_t>*) {});
}

// --- response encoding (server side) ---------------------------------------

// Appends [length][opcode][status][request_id][body].
template <typename BodyFn>
inline void AppendResponseFrame(std::vector<uint8_t>* out, uint8_t opcode,
                                uint8_t status, uint32_t request_id,
                                size_t body_len, BodyFn&& body) {
  PutU32(out, static_cast<uint32_t>(6 + body_len));
  PutU8(out, opcode);
  PutU8(out, status);
  PutU32(out, request_id);
  body(out);
}

inline void AppendErrorResponse(std::vector<uint8_t>* out, uint8_t opcode,
                                uint8_t status, uint32_t request_id) {
  AppendResponseFrame(out, opcode, status, request_id, 0,
                      [](std::vector<uint8_t>*) {});
}

// --- parsed response (client side) -----------------------------------------

struct MgetEntry {
  bool found = false;
  uint64_t value = 0;
};

struct Response {
  uint8_t opcode = kOpNone;
  uint8_t status = kStatusOk;
  uint32_t request_id = 0;
  bool found = false;        // GET / LOWER_BOUND / DEL (erased)
  uint64_t key = 0;          // LOWER_BOUND result key
  uint64_t value = 0;        // GET / LOWER_BOUND value
  std::vector<MgetEntry> entries;  // MGET
  std::string text;          // STATS JSON
};

// Decodes a complete response payload (bytes after the length prefix).
// Returns false when the payload does not match its opcode's shape.
inline bool DecodeResponse(const uint8_t* p, size_t n, Response* resp) {
  *resp = Response{};
  if (n < 6) return false;
  resp->opcode = p[0];
  resp->status = p[1];
  resp->request_id = ReadU32(p + 2);
  const uint8_t* body = p + 6;
  const size_t body_len = n - 6;
  if (resp->status != kStatusOk) return body_len == 0;
  switch (resp->opcode) {
    case kOpGet:
      if (body_len < 1) return false;
      resp->found = body[0] != 0;
      if (resp->found) {
        if (body_len != 9) return false;
        resp->value = ReadU64(body + 1);
      } else if (body_len != 1) {
        return false;
      }
      return true;
    case kOpLowerBound:
      if (body_len < 1) return false;
      resp->found = body[0] != 0;
      if (resp->found) {
        if (body_len != 17) return false;
        resp->key = ReadU64(body + 1);
        resp->value = ReadU64(body + 9);
      } else if (body_len != 1) {
        return false;
      }
      return true;
    case kOpDel:
      if (body_len != 1) return false;
      resp->found = body[0] != 0;
      return true;
    case kOpPut:
      return body_len == 0;
    case kOpMget: {
      if (body_len < 4) return false;
      const uint32_t count = ReadU32(body);
      if (count > kMaxMgetKeys ||
          body_len != 4 + static_cast<size_t>(count) * 9) {
        return false;
      }
      resp->entries.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        const uint8_t* e = body + 4 + static_cast<size_t>(i) * 9;
        resp->entries[i].found = e[0] != 0;
        resp->entries[i].value = ReadU64(e + 1);
      }
      return true;
    }
    case kOpStats:
      resp->text.assign(reinterpret_cast<const char*>(body), body_len);
      return true;
    default:
      return false;
  }
}

// --- incremental frame extraction ------------------------------------------

// Pulls the next complete frame out of buf[off..size). Returns:
//   1  frame complete: *payload/*payload_len point into buf, *consumed
//      is the total frame size (prefix + payload)
//   0  need more bytes
//  -1  unrecoverable framing violation (length over kMaxFrameBytes)
inline int ExtractFrame(const uint8_t* buf, size_t size, size_t off,
                        const uint8_t** payload, size_t* payload_len,
                        size_t* consumed) {
  if (size - off < 4) return 0;
  const uint32_t len = ReadU32(buf + off);
  if (len > kMaxFrameBytes) return -1;
  if (size - off < 4 + static_cast<size_t>(len)) return 0;
  *payload = buf + off + 4;
  *payload_len = len;
  *consumed = 4 + static_cast<size_t>(len);
  return 1;
}

}  // namespace simdtree::net

#endif  // SIMDTREE_NET_PROTOCOL_H_
