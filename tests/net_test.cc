#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/entity_matcher.h"
#include "net/fleet_router.h"
#include "net/match_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/json.h"
#include "pretrain/model_zoo.h"
#include "serve/matcher_engine.h"

namespace emx {
namespace net {
namespace {

using std::chrono::milliseconds;

// ---- Wire protocol ---------------------------------------------------------

TEST(WireTest, RequestRoundTrip) {
  MatchRequest req;
  req.trace_id = 0x1122334455667788ull;
  req.deadline_us = 250000;
  req.flags = kFlagHedge;
  req.text_a = "logitech wireless mouse m185";
  req.text_b = "logitech m185 mouse, wireless (grey)";

  std::string frame;
  EncodeRequest(req, &frame);

  FrameBuffer buf;
  buf.Append(frame.data(), frame.size());
  std::string_view payload;
  bool complete = false;
  ASSERT_TRUE(buf.Next(&payload, &complete).ok());
  ASSERT_TRUE(complete);

  auto decoded = DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().trace_id, req.trace_id);
  EXPECT_EQ(decoded.value().deadline_us, req.deadline_us);
  EXPECT_TRUE(decoded.value().is_hedge());
  EXPECT_FALSE(decoded.value().is_stats_probe());
  EXPECT_EQ(decoded.value().text_a, req.text_a);
  EXPECT_EQ(decoded.value().text_b, req.text_b);
}

TEST(WireTest, ResponseRoundTrip) {
  MatchResponse resp;
  resp.trace_id = 42;
  resp.code = StatusCode::kDeadlineExceeded;
  resp.message = "deadline passed while queued";
  resp.probability = 0.875;
  resp.is_match = true;
  resp.queue_us = 120.5;
  resp.infer_us = 3120.25;
  resp.server_us = 3200.75;
  resp.batch_size = 7;
  resp.stats_json = "{\"x\": 1}";

  std::string frame;
  EncodeResponse(resp, &frame);

  FrameBuffer buf;
  buf.Append(frame.data(), frame.size());
  std::string_view payload;
  bool complete = false;
  ASSERT_TRUE(buf.Next(&payload, &complete).ok());
  ASSERT_TRUE(complete);

  auto decoded = DecodeResponse(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().trace_id, 42u);
  EXPECT_EQ(decoded.value().code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(decoded.value().message, resp.message);
  EXPECT_DOUBLE_EQ(decoded.value().probability, 0.875);
  EXPECT_TRUE(decoded.value().is_match);
  EXPECT_DOUBLE_EQ(decoded.value().queue_us, 120.5);
  EXPECT_DOUBLE_EQ(decoded.value().infer_us, 3120.25);
  EXPECT_EQ(decoded.value().batch_size, 7u);
  EXPECT_EQ(decoded.value().stats_json, "{\"x\": 1}");
  EXPECT_EQ(decoded.value().ToStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(WireTest, IncrementalByteAtATimeParse) {
  MatchRequest req;
  req.trace_id = 7;
  req.text_a = "a";
  req.text_b = "b";
  std::string frame;
  EncodeRequest(req, &frame);

  FrameBuffer buf;
  std::string_view payload;
  bool complete = false;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    buf.Append(&frame[i], 1);
    ASSERT_TRUE(buf.Next(&payload, &complete).ok());
    ASSERT_FALSE(complete) << "complete after " << (i + 1) << " of "
                           << frame.size() << " bytes";
  }
  buf.Append(&frame[frame.size() - 1], 1);
  ASSERT_TRUE(buf.Next(&payload, &complete).ok());
  ASSERT_TRUE(complete);
  EXPECT_TRUE(DecodeRequest(payload).ok());
  EXPECT_FALSE(buf.has_partial());
}

TEST(WireTest, PipelinedFramesDrainInOrder) {
  std::string stream;
  for (uint64_t id = 1; id <= 3; ++id) {
    MatchRequest req;
    req.trace_id = id;
    req.text_a = "pair " + std::to_string(id);
    EncodeRequest(req, &stream);
  }
  FrameBuffer buf;
  buf.Append(stream.data(), stream.size());
  for (uint64_t id = 1; id <= 3; ++id) {
    std::string_view payload;
    bool complete = false;
    ASSERT_TRUE(buf.Next(&payload, &complete).ok());
    ASSERT_TRUE(complete);
    auto req = DecodeRequest(payload);
    ASSERT_TRUE(req.ok());
    EXPECT_EQ(req.value().trace_id, id);
  }
  EXPECT_FALSE(buf.has_partial());
}

TEST(WireTest, OversizedLengthPrefixPoisonsBuffer) {
  FrameBuffer buf;
  const uint32_t huge = kMaxFrameBytes + 1;
  char prefix[4];
  std::memcpy(prefix, &huge, 4);  // test hosts are little-endian
  buf.Append(prefix, 4);
  std::string_view payload;
  bool complete = false;
  Status st = buf.Next(&payload, &complete);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  // Poisoned: every later call reports the same damage, even after more
  // bytes arrive — a corrupt length-prefixed stream cannot be resynced.
  buf.Append("more", 4);
  st = buf.Next(&payload, &complete);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, GarbagePayloadRejected) {
  // A plausible length prefix followed by garbage: the frame assembles but
  // decode must fail (bad magic), not crash.
  std::string garbage(4, '\0');
  garbage[0] = '\x10';  // u32 LE length = 16
  garbage += std::string(16, '\xab');
  FrameBuffer buf;
  buf.Append(garbage.data(), garbage.size());
  std::string_view payload;
  bool complete = false;
  ASSERT_TRUE(buf.Next(&payload, &complete).ok());
  ASSERT_TRUE(complete);
  EXPECT_FALSE(DecodeRequest(payload).ok());
  EXPECT_FALSE(DecodeResponse(payload).ok());
}

TEST(WireTest, TruncatedInnerFieldRejected) {
  MatchRequest req;
  req.text_a = "some entity title";
  req.text_b = "another entity title";
  std::string frame;
  EncodeRequest(req, &frame);
  // Rewrite the outer length to chop the last 5 payload bytes: the frame
  // completes but text_b's declared length overruns the payload.
  const uint32_t shorter = static_cast<uint32_t>(frame.size() - 4 - 5);
  std::memcpy(frame.data(), &shorter, 4);
  frame.resize(4 + shorter);

  FrameBuffer buf;
  buf.Append(frame.data(), frame.size());
  std::string_view payload;
  bool complete = false;
  ASSERT_TRUE(buf.Next(&payload, &complete).ok());
  ASSERT_TRUE(complete);
  auto decoded = DecodeRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, TrailingBytesRejected) {
  MatchRequest req;
  req.text_a = "a";
  std::string frame;
  EncodeRequest(req, &frame);
  // Grow the payload by 3 junk bytes and fix up the prefix: strict decode
  // requires every payload byte to be consumed.
  frame += "xyz";
  const uint32_t longer = static_cast<uint32_t>(frame.size() - 4);
  std::memcpy(frame.data(), &longer, 4);

  FrameBuffer buf;
  buf.Append(frame.data(), frame.size());
  std::string_view payload;
  bool complete = false;
  ASSERT_TRUE(buf.Next(&payload, &complete).ok());
  ASSERT_TRUE(complete);
  EXPECT_FALSE(DecodeRequest(payload).ok());
}

// ---- Sockets ----------------------------------------------------------------

TEST(SocketTest, AcceptedConnectionIsNonBlockingWithNoDelay) {
  uint16_t port = 0;
  Result<Socket> listener = ListenTcp(0, &port);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const int listen_fd = listener.value().fd();
  // Nothing pending yet: the non-blocking listener says so instead of
  // blocking.
  EXPECT_EQ(AcceptTcp(listen_fd).status().code(), StatusCode::kUnavailable);

  Result<Socket> client = ConnectTcp(port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  pollfd pfd{listen_fd, POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
  Result<Socket> accepted = AcceptTcp(listen_fd);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();

  // Both ends of a shard connection push small frames out at once.
  for (int fd : {accepted.value().fd(), client.value().fd()}) {
    int nodelay = 0;
    socklen_t len = sizeof(nodelay);
    ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
    EXPECT_EQ(nodelay, 1) << "fd " << fd;
  }
  EXPECT_NE(::fcntl(accepted.value().fd(), F_GETFL, 0) & O_NONBLOCK, 0);
}

// ---- Synthetic shard backend for router unit tests -------------------------

/// Deterministic fake shard: answers every request after `delay_us` from a
/// private worker thread and records what it served.
class FakeShard : public ShardBackend {
 public:
  FakeShard(std::string name, int64_t delay_us, double probability = 0.9)
      : name_(std::move(name)),
        delay_us_(delay_us),
        probability_(probability),
        worker_(&FakeShard::Loop, this) {}

  ~FakeShard() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

  void Dispatch(const MatchRequest& req,
                std::function<void(MatchResponse)> done) override {
    in_flight_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back({req, std::move(done)});
      if (req.is_hedge()) ++hedges_received_;
      ++dispatched_;
    }
    cv_.notify_one();
  }

  int64_t in_flight() const override { return in_flight_.load(); }
  std::string StatsJson() override { return "{\"fake\": true}"; }
  std::string name() const override { return name_; }

  int64_t dispatched() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dispatched_;
  }
  int64_t hedges_received() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hedges_received_;
  }

 private:
  struct Item {
    MatchRequest req;
    std::function<void(MatchResponse)> done;
  };

  void Loop() {
    while (true) {
      Item item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return !queue_.empty() || stopping_; });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us_));
      MatchResponse resp;
      resp.trace_id = item.req.trace_id;
      resp.probability = probability_;
      resp.is_match = probability_ >= 0.5;
      resp.infer_us = static_cast<double>(delay_us_);
      resp.batch_size = 1;
      in_flight_.fetch_sub(1);
      item.done(std::move(resp));
    }
  }

  const std::string name_;
  const int64_t delay_us_;
  const double probability_;
  std::atomic<int64_t> in_flight_{0};
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  int64_t dispatched_ = 0;
  int64_t hedges_received_ = 0;
  bool stopping_ = false;
  std::thread worker_;
};

// ---- FleetRouter: routing, admission, hedging, deadlines -------------------

TEST(FleetRouterTest, ConsistentHashIsDeterministicPerPair) {
  RouterOptions opts;
  opts.policy = RoutePolicy::kConsistentHash;
  opts.hedging = false;
  FleetRouter router(opts);
  auto* a = new FakeShard("shard-a", 100);
  auto* b = new FakeShard("shard-b", 100);
  ASSERT_TRUE(router.AddShardForTest(std::unique_ptr<ShardBackend>(a)).ok());
  ASSERT_TRUE(router.AddShardForTest(std::unique_ptr<ShardBackend>(b)).ok());

  // The same pair always lands on the same shard.
  int first_shard = -1;
  for (int i = 0; i < 5; ++i) {
    RouteResult r = router.Match("canon eos r5 body", "canon r5 camera");
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    if (first_shard < 0) first_shard = r.shard;
    EXPECT_EQ(r.shard, first_shard);
  }
  // Distinct pairs spread across both shards.
  for (int i = 0; i < 24; ++i) {
    const std::string key = "product " + std::to_string(i * 7919);
    RouteResult r = router.Match(key, key + " (refurbished)");
    ASSERT_TRUE(r.status.ok());
  }
  EXPECT_GT(a->dispatched(), 0);
  EXPECT_GT(b->dispatched(), 0);
  router.Shutdown();
}

TEST(FleetRouterTest, LeastLoadedAvoidsBusyShard) {
  RouterOptions opts;
  opts.policy = RoutePolicy::kLeastLoaded;
  opts.hedging = false;
  FleetRouter router(opts);
  auto* slow = new FakeShard("slow", 150000);  // 150ms per request
  auto* fast = new FakeShard("fast", 1000);
  ASSERT_TRUE(
      router.AddShardForTest(std::unique_ptr<ShardBackend>(slow)).ok());
  ASSERT_TRUE(
      router.AddShardForTest(std::unique_ptr<ShardBackend>(fast)).ok());

  // First request ties (both idle) and goes to shard 0 (the slow one);
  // while it is in flight, everything else must pick the idle fast shard.
  // Each fast request is awaited before the next is submitted (the fake
  // shard drops its in-flight count before completing), so the router
  // always sees slow = 1, fast = 0 however loaded the host is.
  std::future<RouteResult> slow_result = router.Submit("pair 0", "x");
  for (int i = 1; i < 6; ++i) {
    RouteResult r = router.Submit("pair " + std::to_string(i), "x").get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  }
  RouteResult r = slow_result.get();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(slow->dispatched(), 1);
  EXPECT_EQ(fast->dispatched(), 5);
  router.Shutdown();
}

TEST(FleetRouterTest, AdmissionControlFailsFastAtBudget) {
  RouterOptions opts;
  opts.policy = RoutePolicy::kLeastLoaded;
  opts.hedging = false;
  opts.max_in_flight = 2;
  FleetRouter router(opts);
  ASSERT_TRUE(router
                  .AddShardForTest(std::make_unique<FakeShard>(
                      "slow", /*delay_us=*/200000))
                  .ok());

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<RouteResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(router.Submit("pair " + std::to_string(i), "y"));
  }
  int ok = 0;
  int rejected = 0;
  for (auto& f : futures) {
    RouteResult r = f.get();
    if (r.status.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(r.status.code(), StatusCode::kResourceExhausted)
          << r.status.ToString();
      EXPECT_EQ(r.shard, -1);
      ++rejected;
    }
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(rejected, 4);
  // The whole set resolves in ~2 serialized service times, proving the
  // rejections did not queue behind the slow shard.
  EXPECT_LT(wall_ms, 1500.0);
  EXPECT_EQ(router.registry()->GetCounter("router.rejected")->Value(), 4);
  router.Shutdown();
}

TEST(FleetRouterTest, HedgeRescuesStragglerShard) {
  RouterOptions opts;
  opts.policy = RoutePolicy::kConsistentHash;
  opts.hedging = true;
  // 60ms: far above what an OS scheduling hiccup can add to the healthy
  // shard's 2ms service (a false hedge would go *to* the straggler and
  // flip the assertions below), far below the straggler's 400ms.
  opts.hedge_min_us = 60000;
  opts.hedge_poll_us = 2000;
  FleetRouter router(opts);
  auto* straggler = new FakeShard("straggler", 400000);  // 400ms
  auto* healthy = new FakeShard("healthy", 2000);        // 2ms
  ASSERT_TRUE(
      router.AddShardForTest(std::unique_ptr<ShardBackend>(straggler)).ok());
  ASSERT_TRUE(
      router.AddShardForTest(std::unique_ptr<ShardBackend>(healthy)).ok());

  int hedged = 0;
  for (int i = 0; i < 12; ++i) {
    const std::string key = "entity " + std::to_string(i * 104729);
    RouteResult r = router.Match(key, key + " v2");
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    if (r.hedged) {
      ++hedged;
      EXPECT_TRUE(r.hedge_won);
      EXPECT_EQ(r.shard, 1)
          << "hedge must have been served by the healthy shard";
      // Rescued: ~hedge threshold + healthy delay, far under 400ms.
      EXPECT_LT(r.total_us, 200000.0);
    }
  }
  // The hash spreads some pairs onto the straggler; all of those must have
  // been hedged (400ms >> the 20ms threshold) and rescued.
  EXPECT_GT(hedged, 0);
  EXPECT_EQ(straggler->hedges_received(), 0);
  EXPECT_GT(healthy->hedges_received(), 0);
  EXPECT_GE(router.registry()->GetCounter("router.hedges")->Value(), hedged);
  EXPECT_GE(router.registry()->GetCounter("router.hedge_wins")->Value(),
            hedged);
  router.Shutdown();  // drains the straggler's late responses
  EXPECT_LE(router.registry()->GetCounter("router.hedge_wasted")->Value(),
            router.registry()->GetCounter("router.hedges")->Value());
}

TEST(FleetRouterTest, DeadlineBeatingBothHedgeLegsWastesOneResponse) {
  RouterOptions opts;
  opts.policy = RoutePolicy::kConsistentHash;
  opts.hedging = true;
  opts.hedge_min_us = 5000;
  opts.hedge_poll_us = 1000;
  FleetRouter router(opts);
  // Both shards answer long after the 40ms deadline: the hedge goes out at
  // ~5ms, the deadline scan completes the request at 40ms, and then the
  // primary and the hedge both arrive late.
  for (const char* name : {"slow-a", "slow-b"}) {
    ASSERT_TRUE(router
                    .AddShardForTest(std::make_unique<FakeShard>(
                        name, /*delay_us=*/150000))
                    .ok());
  }
  RouteResult r = router.Match("a", "b", /*timeout_us=*/40000);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
      << r.status.ToString();
  EXPECT_TRUE(r.hedged);
  router.Shutdown();  // drains both late responses

  obs::MetricsRegistry* reg = router.registry();
  EXPECT_EQ(reg->GetCounter("router.hedges")->Value(), 1);
  EXPECT_EQ(reg->GetCounter("router.hedge_wasted")->Value(), 1);
  EXPECT_EQ(reg->GetCounter("router.hedge_wins")->Value(), 0);
  EXPECT_EQ(reg->GetCounter("router.deadline_exceeded")->Value(), 1);
}

TEST(FleetRouterTest, DeadlinePropagatesAndFiresAtRouter) {
  RouterOptions opts;
  opts.hedging = false;
  FleetRouter router(opts);
  ASSERT_TRUE(router
                  .AddShardForTest(std::make_unique<FakeShard>(
                      "slow", /*delay_us=*/500000))
                  .ok());

  const auto t0 = std::chrono::steady_clock::now();
  RouteResult r = router.Match("a", "b", /*timeout_us=*/30000);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
      << r.status.ToString();
  EXPECT_LT(wall_ms, 250.0);  // nowhere near the shard's 500ms
  EXPECT_GE(router.registry()->GetCounter("router.deadline_exceeded")->Value(),
            1);
  router.Shutdown();
}

TEST(FleetRouterTest, FleetSnapshotIsStrictJson) {
  RouterOptions opts;
  opts.hedging = false;
  FleetRouter router(opts);
  ASSERT_TRUE(
      router.AddShardForTest(std::make_unique<FakeShard>("s0", 500)).ok());
  ASSERT_TRUE(
      router.AddShardForTest(std::make_unique<FakeShard>("s1", 500)).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(router.Match("x" + std::to_string(i), "y").status.ok());
  }

  const std::string snapshot = router.FleetSnapshotJson();
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::JsonParse(snapshot, &doc, &error))
      << error << "\n"
      << snapshot;
  const obs::JsonValue* router_obj = doc.Find("router");
  ASSERT_NE(router_obj, nullptr);
  const obs::JsonValue* completed = router_obj->Find("completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_DOUBLE_EQ(completed->number, 8.0);
  const obs::JsonValue* shards = doc.Find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_TRUE(shards->is_array());
  EXPECT_EQ(shards->array.size(), 2u);
  router.Shutdown();
}

TEST(FleetRouterTest, SubmitWithoutShardsFailsCleanly) {
  FleetRouter router;
  RouteResult r = router.Match("a", "b");
  EXPECT_FALSE(r.status.ok());
}

// ---- MatchServer over real sockets -----------------------------------------

/// Shared tiny matcher (random weights, trained tokenizer) — network
/// semantics do not need meaningful probabilities.
class NetServerFixture : public ::testing::Test {
 protected:
  static constexpr const char* kCacheDir = "/tmp/emx_zoo_net_test";
  static constexpr int64_t kSeqLen = 32;

  static core::EntityMatcher* Matcher() {
    static std::unique_ptr<core::EntityMatcher> matcher = [] {
      pretrain::ZooOptions zoo;
      zoo.cache_dir = kCacheDir;
      zoo.vocab_size = 500;
      zoo.corpus.num_documents = 150;
      zoo.skip_pretraining = true;
      auto bundle = pretrain::GetPretrained(models::Architecture::kBert, zoo);
      EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
      auto m = std::make_unique<core::EntityMatcher>(std::move(bundle).value());
      m->set_eval_max_seq_len(kSeqLen);
      return m;
    }();
    return matcher.get();
  }

  static serve::EngineOptions EngineOpts() {
    serve::EngineOptions opts;
    opts.max_seq_len = kSeqLen;
    opts.bucket_width = kSeqLen;
    return opts;
  }

  static void TearDownTestSuite() { std::filesystem::remove_all(kCacheDir); }
};

/// Blocking mini-client: sends one frame and reads one response with its
/// own FrameBuffer.
Result<MatchResponse> RoundTrip(uint16_t port, const MatchRequest& req,
                                int timeout_ms = 10000) {
  auto sock = ConnectTcp(port);
  EMX_RETURN_IF_ERROR(sock.status());
  std::string frame;
  EncodeRequest(req, &frame);
  EMX_RETURN_IF_ERROR(SendAll(sock.value().fd(), frame.data(), frame.size()));
  FrameBuffer frames;
  char buf[4096];
  while (true) {
    auto got = RecvSome(sock.value().fd(), buf, sizeof(buf), timeout_ms);
    EMX_RETURN_IF_ERROR(got.status());
    if (got.value() == 0) {
      return Status::Unavailable("server closed the connection");
    }
    frames.Append(buf, got.value());
    std::string_view payload;
    bool complete = false;
    EMX_RETURN_IF_ERROR(frames.Next(&payload, &complete));
    if (complete) return DecodeResponse(payload);
  }
}

TEST_F(NetServerFixture, ServesMatchRequestsOverSocket) {
  serve::MatcherEngine engine(Matcher(), EngineOpts());
  ServerOptions opts;
  opts.port = 0;  // ephemeral
  MatchServer server(&engine, opts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  MatchRequest req;
  req.trace_id = 99;
  req.text_a = "sony wh-1000xm4 wireless headphones";
  req.text_b = "sony wireless noise cancelling headphones wh1000xm4";
  auto resp = RoundTrip(server.port(), req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().trace_id, 99u);
  EXPECT_EQ(resp.value().code, StatusCode::kOk);
  EXPECT_GE(resp.value().probability, 0.0);
  EXPECT_LE(resp.value().probability, 1.0);
  EXPECT_GT(resp.value().infer_us, 0.0);
  EXPECT_GT(resp.value().server_us, 0.0);
  EXPECT_GE(resp.value().batch_size, 1u);
  EXPECT_EQ(server.registry()->GetCounter("net.requests")->Value(), 1);
  EXPECT_EQ(server.registry()->GetCounter("net.responses")->Value(), 1);
  server.Stop();
}

TEST_F(NetServerFixture, StatsProbeReturnsStrictJson) {
  serve::MatcherEngine engine(Matcher(), EngineOpts());
  MatchServer server(&engine);
  ASSERT_TRUE(server.Start().ok());

  MatchRequest probe;
  probe.trace_id = 1;
  probe.flags = kFlagStats;
  auto resp = RoundTrip(server.port(), probe);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::JsonParse(resp.value().stats_json, &doc, &error))
      << error << "\n"
      << resp.value().stats_json;
  EXPECT_NE(doc.Find("server"), nullptr);
  EXPECT_NE(doc.Find("engine"), nullptr);
}

TEST_F(NetServerFixture, GarbageBytesCloseConnectionNotServer) {
  serve::MatcherEngine engine(Matcher(), EngineOpts());
  MatchServer server(&engine);
  ASSERT_TRUE(server.Start().ok());

  {
    // Oversized length prefix.
    auto sock = ConnectTcp(server.port());
    ASSERT_TRUE(sock.ok());
    const uint32_t huge = kMaxFrameBytes * 2;
    char prefix[4];
    std::memcpy(prefix, &huge, 4);
    ASSERT_TRUE(SendAll(sock.value().fd(), prefix, 4).ok());
    char buf[16];
    auto got = RecvSome(sock.value().fd(), buf, sizeof(buf), 5000);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), 0u) << "server should close the connection";
  }
  {
    // Well-framed garbage payload (bad magic).
    std::string junk(4, '\0');
    junk[0] = '\x08';  // u32 LE length = 8
    junk += std::string(8, '\x5a');
    auto sock = ConnectTcp(server.port());
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(SendAll(sock.value().fd(), junk.data(), junk.size()).ok());
    char buf[16];
    auto got = RecvSome(sock.value().fd(), buf, sizeof(buf), 5000);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), 0u);
  }

  // The server is still healthy for well-behaved clients.
  MatchRequest req;
  req.trace_id = 5;
  req.text_a = "still";
  req.text_b = "alive";
  auto resp = RoundTrip(server.port(), req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().code, StatusCode::kOk);
  EXPECT_GE(server.registry()->GetCounter("net.bad_frames")->Value(), 2);
}

TEST_F(NetServerFixture, SlowLorisHitsReadTimeout) {
  serve::MatcherEngine engine(Matcher(), EngineOpts());
  ServerOptions opts;
  opts.read_timeout_ms = 150;
  opts.poll_interval_ms = 10;
  MatchServer server(&engine, opts);
  ASSERT_TRUE(server.Start().ok());

  MatchRequest req;
  req.text_a = "never";
  req.text_b = "finishes";
  std::string frame;
  EncodeRequest(req, &frame);

  auto sock = ConnectTcp(server.port());
  ASSERT_TRUE(sock.ok());
  // Trickle a few bytes of the frame, then stall mid-frame.
  ASSERT_TRUE(SendAll(sock.value().fd(), frame.data(), 6).ok());
  char buf[16];
  auto got = RecvSome(sock.value().fd(), buf, sizeof(buf), 5000);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), 0u) << "stalled connection should be reaped";
  EXPECT_GE(server.registry()->GetCounter("net.read_timeouts")->Value(), 1);

  // A prompt client is unaffected.
  MatchRequest ok_req;
  ok_req.trace_id = 3;
  ok_req.text_a = "prompt";
  ok_req.text_b = "client";
  auto resp = RoundTrip(server.port(), ok_req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().code, StatusCode::kOk);
}

TEST_F(NetServerFixture, TruncatedFrameThenCloseIsHarmless) {
  serve::MatcherEngine engine(Matcher(), EngineOpts());
  MatchServer server(&engine);
  ASSERT_TRUE(server.Start().ok());
  {
    auto sock = ConnectTcp(server.port());
    ASSERT_TRUE(sock.ok());
    MatchRequest req;
    req.text_a = "half";
    req.text_b = "a frame";
    std::string frame;
    EncodeRequest(req, &frame);
    ASSERT_TRUE(
        SendAll(sock.value().fd(), frame.data(), frame.size() / 2).ok());
    // Socket destructor closes with the frame incomplete.
  }
  std::this_thread::sleep_for(milliseconds(100));
  MatchRequest req;
  req.trace_id = 11;
  req.text_a = "full";
  req.text_b = "frame";
  auto resp = RoundTrip(server.port(), req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().code, StatusCode::kOk);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST_F(NetServerFixture, BindOnBusyPortReportsErrnoText) {
  serve::MatcherEngine engine(Matcher(), EngineOpts());
  MatchServer first(&engine);
  ASSERT_TRUE(first.Start().ok());

  ServerOptions opts;
  opts.port = first.port();  // already taken
  MatchServer second(&engine, opts);
  const Status st = second.Start();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.ToString().find("bind"), std::string::npos) << st.ToString();
  // strerror text ("Address already in use") is carried along.
  EXPECT_NE(st.ToString().find("in use"), std::string::npos) << st.ToString();
}

TEST_F(NetServerFixture, RouterDrivesRemoteFleetEndToEnd) {
  serve::MatcherEngine engine_a(Matcher(), EngineOpts());
  serve::MatcherEngine engine_b(Matcher(), EngineOpts());
  MatchServer server_a(&engine_a);
  MatchServer server_b(&engine_b);
  ASSERT_TRUE(server_a.Start().ok());
  ASSERT_TRUE(server_b.Start().ok());

  RouterOptions ropts;
  ropts.policy = RoutePolicy::kConsistentHash;
  ropts.hedging = true;
  ropts.hedge_min_us = 1000000;  // effectively off for this traffic
  FleetRouter router(ropts);
  ASSERT_TRUE(router.AddRemoteShard(server_a.port()).ok());
  ASSERT_TRUE(router.AddRemoteShard(server_b.port()).ok());

  std::vector<std::future<RouteResult>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(
        router.Submit("apple iphone 12 case " + std::to_string(i),
                      "iphone 12 protective case " + std::to_string(i)));
  }
  for (auto& f : futures) {
    RouteResult r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_GE(r.probability, 0.0);
    EXPECT_LE(r.probability, 1.0);
    EXPECT_GT(r.infer_us, 0.0);
  }

  // Both servers saw traffic (consistent hash spreads distinct pairs) and
  // the fleet snapshot aggregates their wire-fetched metrics strictly.
  EXPECT_GT(server_a.registry()->GetCounter("net.requests")->Value(), 0);
  EXPECT_GT(server_b.registry()->GetCounter("net.requests")->Value(), 0);
  const std::string snapshot = router.FleetSnapshotJson();
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::JsonParse(snapshot, &doc, &error)) << error;
  const obs::JsonValue* shards = doc.Find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->array.size(), 2u);
  for (const auto& shard : shards->array) {
    const obs::JsonValue* stats = shard.Find("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_TRUE(stats->is_object()) << "remote stats probe failed";
  }

  router.Shutdown();
  server_a.Stop();
  server_b.Stop();
}

TEST_F(NetServerFixture, LocalShardsServeThroughRouter) {
  serve::MatcherEngine engine_a(Matcher(), EngineOpts());
  serve::MatcherEngine engine_b(Matcher(), EngineOpts());
  RouterOptions ropts;
  ropts.policy = RoutePolicy::kLeastLoaded;
  ropts.hedging = false;
  FleetRouter router(ropts);
  ASSERT_TRUE(router.AddLocalShard(&engine_a).ok());
  ASSERT_TRUE(router.AddLocalShard(&engine_b).ok());

  std::vector<std::future<RouteResult>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(router.Submit("galaxy s21 ultra " + std::to_string(i),
                                    "samsung s21 ultra " + std::to_string(i)));
  }
  for (auto& f : futures) {
    RouteResult r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_GE(r.shard, 0);
    EXPECT_LE(r.shard, 1);
  }
  router.Shutdown();
}

}  // namespace
}  // namespace net
}  // namespace emx
