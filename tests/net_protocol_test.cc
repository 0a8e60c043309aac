// Wire-protocol unit tests (net/protocol.h): encode/decode round trips
// for every opcode, framing extraction, and the malformed-input paths
// the server's typed error replies depend on.

#include "net/protocol.h"

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"

namespace simdtree::net {
namespace {

// Strips the length prefix of the only frame in `buf` and decodes the
// payload as a request.
DecodeResult DecodeOnly(const std::vector<uint8_t>& buf, Request* req) {
  const uint8_t* payload = nullptr;
  size_t payload_len = 0, consumed = 0;
  EXPECT_EQ(ExtractFrame(buf.data(), buf.size(), 0, &payload,
                         &payload_len, &consumed),
            1);
  EXPECT_EQ(consumed, buf.size());
  return DecodeRequest(payload, payload_len, req);
}

TEST(NetProtocolTest, GetRoundTrip) {
  std::vector<uint8_t> buf;
  AppendGet(&buf, 7, 0xDEADBEEFCAFE0123ULL);
  Request req;
  ASSERT_EQ(DecodeOnly(buf, &req), DecodeResult::kOk);
  EXPECT_EQ(req.opcode, kOpGet);
  EXPECT_EQ(req.request_id, 7u);
  EXPECT_EQ(req.key, 0xDEADBEEFCAFE0123ULL);
}

TEST(NetProtocolTest, PutRoundTrip) {
  std::vector<uint8_t> buf;
  AppendPut(&buf, 42, 11, 22);
  Request req;
  ASSERT_EQ(DecodeOnly(buf, &req), DecodeResult::kOk);
  EXPECT_EQ(req.opcode, kOpPut);
  EXPECT_EQ(req.request_id, 42u);
  EXPECT_EQ(req.key, 11u);
  EXPECT_EQ(req.value, 22u);
}

TEST(NetProtocolTest, DelAndLowerBoundRoundTrip) {
  std::vector<uint8_t> buf;
  AppendDel(&buf, 1, 99);
  AppendLowerBound(&buf, 2, 100);

  const uint8_t* payload = nullptr;
  size_t payload_len = 0, consumed = 0;
  ASSERT_EQ(ExtractFrame(buf.data(), buf.size(), 0, &payload, &payload_len,
                         &consumed),
            1);
  Request req;
  ASSERT_EQ(DecodeRequest(payload, payload_len, &req), DecodeResult::kOk);
  EXPECT_EQ(req.opcode, kOpDel);
  EXPECT_EQ(req.key, 99u);

  size_t off = consumed;
  ASSERT_EQ(ExtractFrame(buf.data(), buf.size(), off, &payload,
                         &payload_len, &consumed),
            1);
  ASSERT_EQ(DecodeRequest(payload, payload_len, &req), DecodeResult::kOk);
  EXPECT_EQ(req.opcode, kOpLowerBound);
  EXPECT_EQ(req.request_id, 2u);
  EXPECT_EQ(req.key, 100u);
  EXPECT_EQ(off + consumed, buf.size());
}

TEST(NetProtocolTest, MgetRoundTrip) {
  const uint64_t keys[3] = {5, ~0ULL, 0};
  std::vector<uint8_t> buf;
  AppendMget(&buf, 9, keys, 3);
  Request req;
  ASSERT_EQ(DecodeOnly(buf, &req), DecodeResult::kOk);
  EXPECT_EQ(req.opcode, kOpMget);
  ASSERT_EQ(req.keys.size(), 3u);
  EXPECT_EQ(req.keys[0], 5u);
  EXPECT_EQ(req.keys[1], ~0ULL);
  EXPECT_EQ(req.keys[2], 0u);
}

TEST(NetProtocolTest, StatsRoundTrip) {
  std::vector<uint8_t> buf;
  AppendStats(&buf, 3);
  Request req;
  ASSERT_EQ(DecodeOnly(buf, &req), DecodeResult::kOk);
  EXPECT_EQ(req.opcode, kOpStats);
  EXPECT_EQ(req.request_id, 3u);
}

TEST(NetProtocolTest, ResponseRoundTrips) {
  // GET hit.
  std::vector<uint8_t> buf;
  AppendResponseFrame(&buf, kOpGet, kStatusOk, 4, 9,
                      [](std::vector<uint8_t>* o) {
                        PutU8(o, 1);
                        PutU64(o, 777);
                      });
  const uint8_t* payload = nullptr;
  size_t payload_len = 0, consumed = 0;
  ASSERT_EQ(ExtractFrame(buf.data(), buf.size(), 0, &payload, &payload_len,
                         &consumed),
            1);
  Response resp;
  ASSERT_TRUE(DecodeResponse(payload, payload_len, &resp));
  EXPECT_EQ(resp.opcode, kOpGet);
  EXPECT_EQ(resp.status, kStatusOk);
  EXPECT_EQ(resp.request_id, 4u);
  EXPECT_TRUE(resp.found);
  EXPECT_EQ(resp.value, 777u);

  // GET miss: 1-byte body.
  buf.clear();
  AppendResponseFrame(&buf, kOpGet, kStatusOk, 5, 1,
                      [](std::vector<uint8_t>* o) { PutU8(o, 0); });
  ASSERT_EQ(ExtractFrame(buf.data(), buf.size(), 0, &payload, &payload_len,
                         &consumed),
            1);
  ASSERT_TRUE(DecodeResponse(payload, payload_len, &resp));
  EXPECT_FALSE(resp.found);

  // LOWER_BOUND hit carries key and value.
  buf.clear();
  AppendResponseFrame(&buf, kOpLowerBound, kStatusOk, 6, 17,
                      [](std::vector<uint8_t>* o) {
                        PutU8(o, 1);
                        PutU64(o, 123);
                        PutU64(o, 456);
                      });
  ASSERT_EQ(ExtractFrame(buf.data(), buf.size(), 0, &payload, &payload_len,
                         &consumed),
            1);
  ASSERT_TRUE(DecodeResponse(payload, payload_len, &resp));
  EXPECT_TRUE(resp.found);
  EXPECT_EQ(resp.key, 123u);
  EXPECT_EQ(resp.value, 456u);

  // MGET: fixed 9-byte entries, absent keys as found=0.
  buf.clear();
  AppendResponseFrame(&buf, kOpMget, kStatusOk, 7, 4 + 2 * 9,
                      [](std::vector<uint8_t>* o) {
                        PutU32(o, 2);
                        PutU8(o, 1);
                        PutU64(o, 10);
                        PutU8(o, 0);
                        PutU64(o, 0);
                      });
  ASSERT_EQ(ExtractFrame(buf.data(), buf.size(), 0, &payload, &payload_len,
                         &consumed),
            1);
  ASSERT_TRUE(DecodeResponse(payload, payload_len, &resp));
  ASSERT_EQ(resp.entries.size(), 2u);
  EXPECT_TRUE(resp.entries[0].found);
  EXPECT_EQ(resp.entries[0].value, 10u);
  EXPECT_FALSE(resp.entries[1].found);
}

TEST(NetProtocolTest, ErrorResponseEchoesRequestId) {
  std::vector<uint8_t> buf;
  AppendErrorResponse(&buf, kOpGet, kStatusMalformed, 0xABCDu);
  const uint8_t* payload = nullptr;
  size_t payload_len = 0, consumed = 0;
  ASSERT_EQ(ExtractFrame(buf.data(), buf.size(), 0, &payload, &payload_len,
                         &consumed),
            1);
  Response resp;
  ASSERT_TRUE(DecodeResponse(payload, payload_len, &resp));
  EXPECT_EQ(resp.opcode, kOpGet);
  EXPECT_EQ(resp.status, kStatusMalformed);
  EXPECT_EQ(resp.request_id, 0xABCDu);
}

TEST(NetProtocolTest, ErrorResponseWithBodyIsRejected) {
  // Status != OK must carry an empty body.
  std::vector<uint8_t> payload;
  PutU8(&payload, kOpGet);
  PutU8(&payload, kStatusMalformed);
  PutU32(&payload, 1);
  PutU8(&payload, 0xFF);  // stray body byte
  Response resp;
  EXPECT_FALSE(DecodeResponse(payload.data(), payload.size(), &resp));
}

TEST(NetProtocolTest, TruncatedFrameNeedsMoreBytes) {
  std::vector<uint8_t> buf;
  AppendGet(&buf, 1, 42);
  const uint8_t* payload = nullptr;
  size_t payload_len = 0, consumed = 0;
  // Every strict prefix is incomplete, never an error.
  for (size_t n = 0; n < buf.size(); ++n) {
    EXPECT_EQ(ExtractFrame(buf.data(), n, 0, &payload, &payload_len,
                           &consumed),
              0)
        << "prefix length " << n;
  }
  EXPECT_EQ(ExtractFrame(buf.data(), buf.size(), 0, &payload, &payload_len,
                         &consumed),
            1);
}

TEST(NetProtocolTest, OversizedLengthPrefixIsUnrecoverable) {
  std::vector<uint8_t> buf;
  PutU32(&buf, static_cast<uint32_t>(kMaxFrameBytes) + 1);
  const uint8_t* payload = nullptr;
  size_t payload_len = 0, consumed = 0;
  EXPECT_EQ(ExtractFrame(buf.data(), buf.size(), 0, &payload, &payload_len,
                         &consumed),
            -1);
  // Exactly at the cap is still legal framing.
  buf.clear();
  PutU32(&buf, static_cast<uint32_t>(kMaxFrameBytes));
  EXPECT_EQ(ExtractFrame(buf.data(), buf.size(), 0, &payload, &payload_len,
                         &consumed),
            0);  // legal, just incomplete
}

TEST(NetProtocolTest, UnknownOpcode) {
  std::vector<uint8_t> payload;
  PutU8(&payload, 0x7F);
  PutU32(&payload, 31337);
  Request req;
  EXPECT_EQ(DecodeRequest(payload.data(), payload.size(), &req),
            DecodeResult::kUnknownOp);
  // The header was readable, so the id is available for the error reply.
  EXPECT_EQ(req.request_id, 31337u);
}

TEST(NetProtocolTest, BodyLengthMismatches) {
  Request req;
  // Too short for even the header.
  std::vector<uint8_t> p{kOpGet, 1, 0};
  EXPECT_EQ(DecodeRequest(p.data(), p.size(), &req),
            DecodeResult::kMalformed);

  // GET with a 7-byte key.
  p.clear();
  PutU8(&p, kOpGet);
  PutU32(&p, 2);
  for (int i = 0; i < 7; ++i) PutU8(&p, 0);
  EXPECT_EQ(DecodeRequest(p.data(), p.size(), &req),
            DecodeResult::kMalformed);
  EXPECT_EQ(req.request_id, 2u);

  // PUT with only a key.
  p.clear();
  PutU8(&p, kOpPut);
  PutU32(&p, 3);
  PutU64(&p, 9);
  EXPECT_EQ(DecodeRequest(p.data(), p.size(), &req),
            DecodeResult::kMalformed);

  // MGET whose count disagrees with the body length.
  p.clear();
  PutU8(&p, kOpMget);
  PutU32(&p, 4);
  PutU32(&p, 3);  // claims 3 keys
  PutU64(&p, 1);  // carries 1
  EXPECT_EQ(DecodeRequest(p.data(), p.size(), &req),
            DecodeResult::kMalformed);

  // MGET over the element cap.
  p.clear();
  PutU8(&p, kOpMget);
  PutU32(&p, 5);
  PutU32(&p, kMaxMgetKeys + 1);
  EXPECT_EQ(DecodeRequest(p.data(), p.size(), &req),
            DecodeResult::kMalformed);

  // STATS with a body.
  p.clear();
  PutU8(&p, kOpStats);
  PutU32(&p, 6);
  PutU8(&p, 1);
  EXPECT_EQ(DecodeRequest(p.data(), p.size(), &req),
            DecodeResult::kMalformed);
}

TEST(NetProtocolTest, PipelinedFramesExtractInOrder) {
  std::vector<uint8_t> buf;
  AppendGet(&buf, 1, 10);
  AppendPut(&buf, 2, 20, 200);
  const uint64_t keys[2] = {30, 40};
  AppendMget(&buf, 3, keys, 2);

  size_t off = 0;
  std::vector<uint8_t> ops;
  while (off < buf.size()) {
    const uint8_t* payload = nullptr;
    size_t payload_len = 0, consumed = 0;
    ASSERT_EQ(ExtractFrame(buf.data(), buf.size(), off, &payload,
                           &payload_len, &consumed),
              1);
    Request req;
    ASSERT_EQ(DecodeRequest(payload, payload_len, &req), DecodeResult::kOk);
    ops.push_back(req.opcode);
    off += consumed;
  }
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0], kOpGet);
  EXPECT_EQ(ops[1], kOpPut);
  EXPECT_EQ(ops[2], kOpMget);
}

TEST(NetProtocolTest, Names) {
  EXPECT_STREQ(OpName(kOpGet), "get");
  EXPECT_STREQ(OpName(0x55), "none");
  EXPECT_STREQ(StatusName(kStatusTooLarge), "too_large");
  EXPECT_STREQ(StatusName(kStatusNoSpace), "no_space");
  EXPECT_STREQ(StatusName(0x55), "unknown");
}

}  // namespace
}  // namespace simdtree::net
