// End-to-end KV server tests (net/server.h): a live KvServer on an
// ephemeral loopback port over a ShardedIndex<SegTree>, with every
// reply differentially verified against direct index calls — the
// acceptance gate for the serving path. Covers pipelined mixed
// read/write ordering, the coalesced read path, malformed/oversized/
// unknown-opcode frames, a PUT the backend has no room for, STATS,
// metrics registration, timeouts, graceful drain, and a multi-client
// concurrent soak (10x under SIMDTREE_STRESS=1).

#include "net/server.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/backend.h"
#include "net/client.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "segtree/segtree.h"
#include "util/rng.h"

namespace simdtree::net {
namespace {

using Tree = segtree::SegTree<uint64_t, uint64_t>;

bool StressMode() {
  const char* env = std::getenv("SIMDTREE_STRESS");
  return env != nullptr && env[0] == '1';
}

class KvServerTest : public ::testing::Test {
 protected:
  // Even keys 2..2n store value key*10; odd keys miss.
  void BuildIndex(size_t n) {
    keys_.resize(n);
    for (size_t i = 0; i < n; ++i) keys_[i] = 2 * (i + 1);
    index_ = std::make_unique<ShardedIndex<Tree>>(
        4, ShardedIndex<Tree>::SplittersFromSample(keys_.data(),
                                                   keys_.size(), 4));
    for (uint64_t k : keys_) index_->Insert(k, k * 10);
    backend_ = std::make_unique<ShardedKvBackend<Tree>>(index_.get());
  }

  void StartServer(KvServerOptions opts = {}) {
    server_ = std::make_unique<KvServer>(backend_.get());
    ASSERT_TRUE(server_->Start(opts)) << server_->error();
    ASSERT_NE(server_->port(), 0);
  }

  void Connect(KvClient* client) {
    ASSERT_TRUE(client->Connect("127.0.0.1", server_->port()))
        << client->error();
  }

  std::vector<uint64_t> keys_;
  std::unique_ptr<ShardedIndex<Tree>> index_;
  std::unique_ptr<ShardedKvBackend<Tree>> backend_;
  std::unique_ptr<KvServer> server_;
};

TEST_F(KvServerTest, GetDifferential) {
  BuildIndex(2000);
  StartServer();
  KvClient client;
  Connect(&client);

  Rng rng(1);
  for (int i = 0; i < 300; ++i) {
    const uint64_t key = rng.NextBounded(2 * keys_.size() + 10);
    const std::optional<uint64_t> direct = index_->Find(key);
    const std::optional<uint64_t> wire = client.Get(key);
    ASSERT_EQ(wire.has_value(), direct.has_value()) << "key " << key;
    if (direct.has_value()) {
      ASSERT_EQ(*wire, *direct) << "key " << key;
    }
  }
}

TEST_F(KvServerTest, MgetDifferential) {
  BuildIndex(1000);
  StartServer();
  KvClient client;
  Connect(&client);

  Rng rng(2);
  std::vector<uint64_t> probe(64);
  for (auto& k : probe) k = rng.NextBounded(2 * keys_.size() + 10);
  std::vector<MgetEntry> entries;
  ASSERT_TRUE(client.Mget(probe, &entries)) << client.error();
  ASSERT_EQ(entries.size(), probe.size());

  std::vector<std::optional<uint64_t>> direct(probe.size());
  index_->FindBatch(probe.data(), probe.size(), direct.data());
  for (size_t i = 0; i < probe.size(); ++i) {
    ASSERT_EQ(entries[i].found, direct[i].has_value()) << "slot " << i;
    if (direct[i].has_value()) {
      ASSERT_EQ(entries[i].value, *direct[i]) << "slot " << i;
    }
  }
}

TEST_F(KvServerTest, LowerBoundDifferential) {
  BuildIndex(1000);
  StartServer();
  KvClient client;
  Connect(&client);

  // Reference: binary search over the sorted stored keys.
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const uint64_t probe = rng.NextBounded(2 * keys_.size() + 20);
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), probe);
    uint64_t k = 0, v = 0;
    bool found = false;
    ASSERT_TRUE(client.LowerBound(probe, &k, &v, &found))
        << client.error();
    ASSERT_EQ(found, it != keys_.end()) << "probe " << probe;
    if (found) {
      ASSERT_EQ(k, *it) << "probe " << probe;
      ASSERT_EQ(v, *it * 10) << "probe " << probe;
    }
  }
  // Past the maximum stored key: no lower bound.
  uint64_t k = 0, v = 0;
  bool found = true;
  ASSERT_TRUE(client.LowerBound(keys_.back() + 1, &k, &v, &found));
  EXPECT_FALSE(found);
}

TEST_F(KvServerTest, PipelinedMixedReadWriteOrdering) {
  BuildIndex(100);
  StartServer();
  KvClient client;
  Connect(&client);

  // One pipeline: the write-barrier contract — GET after PUT of the same
  // key (and after DEL) must observe the earlier op of its own pipeline.
  const uint64_t fresh = 1000001;  // odd: not preloaded
  const uint32_t id_get0 = client.EnqueueGet(fresh);
  const uint32_t id_put = client.EnqueuePut(fresh, 555);
  const uint32_t id_get1 = client.EnqueueGet(fresh);
  const uint32_t id_del = client.EnqueueDel(fresh);
  const uint32_t id_get2 = client.EnqueueGet(fresh);
  ASSERT_TRUE(client.Flush()) << client.error();

  Response r;
  ASSERT_TRUE(client.ReadReply(&r));
  EXPECT_EQ(r.request_id, id_get0);
  EXPECT_FALSE(r.found);

  ASSERT_TRUE(client.ReadReply(&r));
  EXPECT_EQ(r.request_id, id_put);
  EXPECT_EQ(r.status, kStatusOk);

  ASSERT_TRUE(client.ReadReply(&r));
  EXPECT_EQ(r.request_id, id_get1);
  ASSERT_TRUE(r.found);  // sees its own pipelined write
  EXPECT_EQ(r.value, 555u);

  ASSERT_TRUE(client.ReadReply(&r));
  EXPECT_EQ(r.request_id, id_del);
  EXPECT_TRUE(r.found);  // erased

  ASSERT_TRUE(client.ReadReply(&r));
  EXPECT_EQ(r.request_id, id_get2);
  EXPECT_FALSE(r.found);  // sees its own pipelined delete

  // The server state matches the direct view afterwards.
  EXPECT_FALSE(index_->Find(fresh).has_value());
}

TEST_F(KvServerTest, DeepPipelineCoalescesAndMatchesDirect) {
  BuildIndex(4000);
  StartServer();
  KvClient client;
  Connect(&client);

  auto* hist =
      obs::MetricsRegistry::Global().GetHistogram("net.coalesced_batch");
  const uint64_t batches_before = hist->Count();

  // 512 GETs in one burst: the server should fold the run into few
  // FindBatch calls (one per read gulp), not 512 single lookups.
  Rng rng(4);
  std::vector<uint64_t> probe(512);
  std::vector<uint32_t> ids(probe.size());
  for (size_t i = 0; i < probe.size(); ++i) {
    probe[i] = rng.NextBounded(2 * keys_.size() + 10);
    ids[i] = client.EnqueueGet(probe[i]);
  }
  ASSERT_TRUE(client.Flush()) << client.error();

  std::vector<std::optional<uint64_t>> direct(probe.size());
  index_->FindBatch(probe.data(), probe.size(), direct.data());

  for (size_t i = 0; i < probe.size(); ++i) {
    Response r;
    ASSERT_TRUE(client.ReadReply(&r)) << client.error();
    ASSERT_EQ(r.request_id, ids[i]);  // replies in request order
    ASSERT_EQ(r.found, direct[i].has_value()) << "slot " << i;
    if (direct[i].has_value()) {
      ASSERT_EQ(r.value, *direct[i]);
    }
  }

  const uint64_t batches_after = hist->Count();
  ASSERT_GT(batches_after, batches_before);
  // Far fewer batches than requests proves the run coalesced.
  EXPECT_LT(batches_after - batches_before, probe.size() / 4);
}

TEST_F(KvServerTest, MalformedFrameGetsTypedErrorAndConnectionSurvives) {
  BuildIndex(100);
  StartServer();
  KvClient client;
  Connect(&client);

  // GET with a 7-byte key: parseable header, malformed body.
  std::vector<uint8_t> bad;
  PutU32(&bad, 5 + 7);
  PutU8(&bad, kOpGet);
  PutU32(&bad, 9001);
  for (int i = 0; i < 7; ++i) PutU8(&bad, 0);
  ASSERT_TRUE(client.SendRaw(bad.data(), bad.size()));

  Response r;
  ASSERT_TRUE(client.ReadReply(&r)) << client.error();
  EXPECT_EQ(r.status, kStatusMalformed);
  EXPECT_EQ(r.opcode, kOpGet);
  EXPECT_EQ(r.request_id, 9001u);

  // The stream is still framed: a valid request afterwards works.
  const std::optional<uint64_t> v = client.Get(2);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 20u);
}

TEST_F(KvServerTest, UnknownOpcodeGetsTypedError) {
  BuildIndex(10);
  StartServer();
  KvClient client;
  Connect(&client);

  std::vector<uint8_t> bad;
  PutU32(&bad, 5);
  PutU8(&bad, 0x7E);
  PutU32(&bad, 777);
  ASSERT_TRUE(client.SendRaw(bad.data(), bad.size()));

  Response r;
  ASSERT_TRUE(client.ReadReply(&r)) << client.error();
  EXPECT_EQ(r.status, kStatusUnknownOp);
  EXPECT_EQ(r.request_id, 777u);
}

TEST_F(KvServerTest, OversizedFrameRejectsAndCloses) {
  BuildIndex(10);
  StartServer();
  KvClient client;
  Connect(&client);

  std::vector<uint8_t> bad;
  PutU32(&bad, static_cast<uint32_t>(kMaxFrameBytes) + 1);
  ASSERT_TRUE(client.SendRaw(bad.data(), bad.size()));

  Response r;
  ASSERT_TRUE(client.ReadReply(&r)) << client.error();
  EXPECT_EQ(r.status, kStatusTooLarge);

  // The stream cannot be resynced, so the server hangs up.
  EXPECT_FALSE(client.ReadReply(&r));
}

// A backend whose writes always run out of node space, as a tree with
// exhausted arena refs does; everything else goes to the real index.
class NoSpaceBackend final : public KvBackend {
 public:
  explicit NoSpaceBackend(KvBackend* real) : real_(real) {}

  void FindBatch(const uint64_t* keys, size_t n,
                 std::optional<uint64_t>* out) override {
    real_->FindBatch(keys, n, out);
  }
  bool LowerBound(uint64_t key, uint64_t* out_key,
                  uint64_t* out_value) override {
    return real_->LowerBound(key, out_key, out_value);
  }
  void Put(uint64_t, uint64_t) override { throw std::bad_alloc(); }
  bool Del(uint64_t key) override { return real_->Del(key); }
  std::string StatsJson() override { return real_->StatsJson(); }

 private:
  KvBackend* real_;
};

TEST_F(KvServerTest, PutWithoutSpaceGetsTypedErrorAndConnectionSurvives) {
  BuildIndex(100);
  NoSpaceBackend no_space(backend_.get());
  KvServer server(&no_space);
  ASSERT_TRUE(server.Start({})) << server.error();
  KvClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  obs::Counter* errors =
      obs::MetricsRegistry::Global().GetCounter("net.malformed");
  const uint64_t errors_before = errors->Get();

  const uint32_t id = client.EnqueuePut(7, 70);
  ASSERT_TRUE(client.Flush()) << client.error();
  Response r;
  ASSERT_TRUE(client.ReadReply(&r)) << client.error();
  EXPECT_EQ(r.request_id, id);
  EXPECT_EQ(r.opcode, kOpPut);
  EXPECT_EQ(r.status, kStatusNoSpace);
  EXPECT_EQ(errors->Get() - errors_before, 1u);

  // The same connection keeps serving.
  const std::optional<uint64_t> v = client.Get(2);
  ASSERT_TRUE(v.has_value()) << client.error();
  EXPECT_EQ(*v, 20u);
  EXPECT_FALSE(client.Put(9, 90));
  EXPECT_FALSE(index_->Find(9).has_value());
}

TEST_F(KvServerTest, StatsReturnsRegistryJson) {
  BuildIndex(10);
  StartServer();
  KvClient client;
  Connect(&client);

  std::string json;
  ASSERT_TRUE(client.Stats(&json)) << client.error();
  EXPECT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("counters"), std::string::npos);
}

TEST_F(KvServerTest, NetMetricsRegistered) {
  BuildIndex(100);
  StartServer();
  auto& reg = obs::MetricsRegistry::Global();
  const uint64_t accepted_before = reg.GetCounter("net.accepted")->Get();
  const uint64_t requests_before = reg.GetCounter("net.requests")->Get();
  {
    KvClient client;
    Connect(&client);
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(client.Get(2).has_value());
  }
  EXPECT_GT(reg.GetCounter("net.accepted")->Get(), accepted_before);
  EXPECT_GE(reg.GetCounter("net.requests")->Get(), requests_before + 10);
  EXPECT_GT(reg.GetHistogram("net.op_get_ns")->Count(), 0u);
}

TEST_F(KvServerTest, GracefulDrainAnswersInFlightPipeline) {
  BuildIndex(1000);
  StartServer();
  KvClient client;
  Connect(&client);

  // A burst in flight when Stop() lands: every already-received request
  // must still be answered before the connection closes.
  std::vector<uint32_t> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(client.EnqueueGet(keys_[static_cast<size_t>(i)]));
  }
  ASSERT_TRUE(client.Flush()) << client.error();
  server_->Stop();

  for (uint32_t id : ids) {
    Response r;
    ASSERT_TRUE(client.ReadReply(&r)) << client.error();
    ASSERT_EQ(r.request_id, id);
    ASSERT_EQ(r.status, kStatusOk);
    ASSERT_TRUE(r.found);
  }
  // After the drain the port stops accepting.
  KvClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server_->port()));
}

TEST_F(KvServerTest, IdleTimeoutClosesConnection) {
  BuildIndex(10);
  KvServerOptions opts;
  opts.idle_timeout_ms = 150;
  StartServer(opts);
  KvClient client;
  Connect(&client);
  ASSERT_TRUE(client.Get(2).has_value());

  // Silence beyond the idle limit: the server hangs up.
  Response r;
  EXPECT_FALSE(client.ReadReply(&r, /*timeout_ms=*/2000));
  EXPECT_FALSE(client.connected());
  EXPECT_GT(obs::MetricsRegistry::Global().GetCounter("net.timeouts")->Get(),
            0u);
}

TEST_F(KvServerTest, StalledPartialFrameTimesOut) {
  BuildIndex(10);
  KvServerOptions opts;
  opts.request_timeout_ms = 150;
  StartServer(opts);
  KvClient client;
  Connect(&client);

  // Half a frame, then silence: the incomplete frame must not pin the
  // connection open past request_timeout_ms.
  std::vector<uint8_t> full;
  AppendGet(&full, 1, 42);
  ASSERT_TRUE(client.SendRaw(full.data(), full.size() / 2));
  Response r;
  EXPECT_FALSE(client.ReadReply(&r, /*timeout_ms=*/2000));
  EXPECT_FALSE(client.connected());
}

TEST_F(KvServerTest, ConcurrentClientsSoak) {
  const size_t preload = 4000;
  BuildIndex(preload);
  KvServerOptions opts;
  opts.num_workers = 2;
  StartServer(opts);

  const int kClients = 4;
  const int ops_per_client = StressMode() ? 20000 : 2000;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      KvClient client;
      if (!client.Connect("127.0.0.1", server_->port())) {
        failures[static_cast<size_t>(t)] = client.error();
        return;
      }
      // Each client owns a private fresh-key range for writes, so its
      // view is deterministic even with the other clients running.
      const uint64_t base =
          1000001 + static_cast<uint64_t>(t) * 1000000;
      Rng rng(100 + static_cast<uint64_t>(t));
      for (int i = 0; i < ops_per_client; ++i) {
        const int op = static_cast<int>(rng.NextBounded(10));
        if (op < 6) {  // preloaded read: always a hit
          const uint64_t k =
              keys_[rng.NextBounded(preload)];
          const std::optional<uint64_t> v = client.Get(k);
          if (!v.has_value() || *v != k * 10) {
            failures[static_cast<size_t>(t)] = "bad GET";
            return;
          }
        } else if (op < 8) {  // private write + readback
          const uint64_t k = base + rng.NextBounded(1000);
          if (!client.Put(k, k + 1)) {
            failures[static_cast<size_t>(t)] = "PUT failed";
            return;
          }
          const std::optional<uint64_t> v = client.Get(k);
          if (!v.has_value() || *v != k + 1) {
            failures[static_cast<size_t>(t)] = "readback mismatch";
            return;
          }
          client.Del(k);  // keep the private range from growing
        } else {  // pipelined burst of preloaded reads
          std::vector<uint32_t> ids;
          std::vector<uint64_t> probe;
          for (int j = 0; j < 32; ++j) {
            probe.push_back(keys_[rng.NextBounded(preload)]);
            ids.push_back(client.EnqueueGet(probe.back()));
          }
          if (!client.Flush()) {
            failures[static_cast<size_t>(t)] = "flush failed";
            return;
          }
          for (size_t j = 0; j < ids.size(); ++j) {
            Response r;
            if (!client.ReadReply(&r) || r.request_id != ids[j] ||
                !r.found || r.value != probe[j] * 10) {
              failures[static_cast<size_t>(t)] = "pipeline mismatch";
              return;
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kClients; ++t) {
    EXPECT_TRUE(failures[static_cast<size_t>(t)].empty())
        << "client " << t << ": " << failures[static_cast<size_t>(t)];
  }
}

}  // namespace
}  // namespace simdtree::net
