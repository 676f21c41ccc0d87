#include "serve/matcher_engine.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "models/config.h"
#include "nn/layers.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "tensor/variable.h"
#include "tokenizers/tokenizer.h"
#include "util/logging.h"

namespace emx {
namespace serve {
namespace {

double ElapsedUs(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Length buckets occupy the low bits of Request::bucket; the model
/// version is folded into the high bits so a micro-batch (formed by exact
/// bucket equality) can never span a hot swap.
constexpr int64_t kVersionBucketStride = 1ll << 32;

/// True when any quant target of the model carries a frozen int8 backend
/// (checked via the nn hooks only, so serve stays independent of emx_quant).
bool HasReadyInt8Backends(core::EntityMatcher* matcher) {
  nn::QuantTargets targets;
  matcher->classifier()->CollectQuantTargets("", &targets);
  for (auto& [name, linear] : targets.linears) {
    if (linear->backend() != nullptr && linear->backend()->ready()) {
      return true;
    }
  }
  for (auto& [name, ffn] : targets.ffns) {
    if (ffn->backend() != nullptr && ffn->backend()->ready()) return true;
  }
  return false;
}

}  // namespace

int64_t DefaultSplitLayer(int64_t num_layers) { return num_layers / 2; }

const std::string& PinnedQuery::text() const {
  EMX_CHECK(state_ != nullptr) << "PinnedQuery is empty (default-constructed "
                                  "instead of minted by PinQuery)";
  return state_->text;
}

Status ValidateEngineOptions(const EngineOptions& options) {
  if (options.max_batch_size <= 0) {
    return Status::InvalidArgument("max_batch_size must be positive, got " +
                                   std::to_string(options.max_batch_size));
  }
  if (options.queue_capacity <= 0) {
    return Status::InvalidArgument("queue_capacity must be positive, got " +
                                   std::to_string(options.queue_capacity));
  }
  if (options.max_seq_len <= 0) {
    return Status::InvalidArgument("max_seq_len must be positive, got " +
                                   std::to_string(options.max_seq_len));
  }
  if (options.bucket_width <= 0) {
    return Status::InvalidArgument("bucket_width must be positive, got " +
                                   std::to_string(options.bucket_width));
  }
  if (options.cache_capacity < 0) {
    return Status::InvalidArgument("cache_capacity must not be negative, "
                                   "got " +
                                   std::to_string(options.cache_capacity));
  }
  if (options.default_timeout_us < 0) {
    return Status::InvalidArgument(
        "default_timeout_us must not be negative, got " +
        std::to_string(options.default_timeout_us));
  }
  if (options.num_workers <= 0) {
    return Status::InvalidArgument("num_workers must be positive, got " +
                                   std::to_string(options.num_workers));
  }
  if (options.split_layer < -1) {
    return Status::InvalidArgument(
        "split_layer must be -1 (disabled) or >= 0, got " +
        std::to_string(options.split_layer));
  }
  if (options.split_layer >= 0 && options.max_seq_len < 4) {
    return Status::InvalidArgument(
        "split encoding needs max_seq_len >= 4 ([CLS] a [SEP] b [SEP])");
  }
  return Status::OK();
}

Result<std::unique_ptr<MatcherEngine>> MatcherEngine::Create(
    core::EntityMatcher* matcher, const EngineOptions& options) {
  if (matcher == nullptr) {
    return Status::InvalidArgument("matcher must not be null");
  }
  EMX_RETURN_IF_ERROR(ValidateEngineOptions(options));
  if (options.precision == Precision::kInt8 &&
      !HasReadyInt8Backends(matcher)) {
    return Status::InvalidArgument(
        "precision = kInt8 but the matcher has no frozen int8 backends; "
        "run quant::QuantizeMatcher (or LoadModelFileMapped) first");
  }
  if (options.split_layer >= 0) {
    models::TransformerModel* backbone = matcher->classifier()->backbone();
    if (!backbone->SupportsSplitEncode()) {
      return Status::InvalidArgument(
          std::string("split_layer set but the ") +
          models::ArchitectureName(backbone->config().arch) +
          " backbone does not support split encoding");
    }
    if (options.split_layer >= backbone->config().num_layers) {
      return Status::InvalidArgument(
          "split_layer must leave at least one cross-attention layer: got " +
          std::to_string(options.split_layer) + " with " +
          std::to_string(backbone->config().num_layers) + " layers");
    }
  }
  return std::make_unique<MatcherEngine>(matcher, options);
}

MatcherEngine::MatcherEngine(core::EntityMatcher* matcher,
                             const EngineOptions& options)
    : matcher_(matcher),
      options_(options),
      cache_(&matcher->tokenizer(), options.cache_capacity,
             options.max_seq_len),
      metrics_(options.max_batch_size),
      entity_tokens_(&matcher->tokenizer(), options.cache_capacity),
      prefix_cache_(
          options.activation_cache_bytes,
          metrics_.registry()->GetCounter("serve.prefix_cache.evictions"),
          metrics_.registry()->GetGauge("serve.prefix_cache.bytes")),
      paused_(options.start_paused) {
  EMX_CHECK(matcher != nullptr);
  {
    const Status valid = ValidateEngineOptions(options_);
    EMX_CHECK(valid.ok()) << valid.ToString()
                          << " (use MatcherEngine::Create for a "
                             "non-aborting Status)";
  }
  if (options_.precision == Precision::kInt8) {
    EMX_CHECK(HasReadyInt8Backends(matcher))
        << "EngineOptions::precision = kInt8 but the matcher has no frozen "
           "int8 backends; run quant::QuantizeMatcher (or "
           "LoadModelFileMapped) before constructing the engine";
  }
  if (options_.split_layer >= 0) {
    models::TransformerModel* backbone = matcher->classifier()->backbone();
    EMX_CHECK(backbone->SupportsSplitEncode())
        << models::ArchitectureName(backbone->config().arch)
        << " does not support split encoding (EngineOptions::split_layer)";
    EMX_CHECK_LT(options_.split_layer, backbone->config().num_layers)
        << "split_layer must leave at least one cross-attention layer";
  }
  // Version 1: the caller-owned matcher behind a no-op deleter, so the
  // initial model flows through the same snapshot path as swapped ones.
  model_.store(std::make_shared<const VersionedModel>(VersionedModel{
                   std::shared_ptr<core::EntityMatcher>(
                       matcher, [](core::EntityMatcher*) {}),
                   1}),
               std::memory_order_release);
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int64_t w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back(&MatcherEngine::WorkerLoop, this,
                          static_cast<uint64_t>(w));
  }
}

MatcherEngine::~MatcherEngine() { Shutdown(); }

std::future<MatchResult> MatcherEngine::Submit(std::string text_a,
                                               std::string text_b) {
  return Submit(std::move(text_a), std::move(text_b),
                options_.default_timeout_us);
}

std::future<MatchResult> MatcherEngine::Submit(std::string text_a,
                                               std::string text_b,
                                               int64_t timeout_us) {
  // A one-off pin. On the split path it tokenizes the query side through
  // the entity cache, and every request, pinned or not, takes the split
  // forward so batches stay homogeneous.
  return SubmitAgainst(PinQuery(std::move(text_a)), std::move(text_b),
                       timeout_us);
}

bool MatcherEngine::ShutdownSeen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_;
}

MatcherEngine::Request MatcherEngine::NewRequest(int64_t timeout_us) {
  Request req;
  req.enqueued = Clock::now();
  req.deadline = timeout_us > 0
                     ? req.enqueued + std::chrono::microseconds(timeout_us)
                     : Clock::time_point::max();
  return req;
}

void MatcherEngine::EnqueueOrReject(std::span<Request> reqs) {
  std::lock_guard<std::mutex> lock(mu_);
  bool queued = false;
  for (Request& req : reqs) {
    MatchResult r;
    if (shutdown_) {
      r.status = Status::Unavailable("engine is shut down");
    } else if (static_cast<int64_t>(queue_.size()) >=
               options_.queue_capacity) {
      metrics_.RecordRejected();
      r.status = Status::ResourceExhausted("request queue is full");
    } else {
      queue_.push_back(std::move(req));
      metrics_.RecordSubmitted(static_cast<int64_t>(queue_.size()));
      queued = true;
      continue;
    }
    r.cache_hit = req.cache_hit;
    r.prefix_hit_query = req.prefix_hit_q;
    r.prefix_hit_candidate = req.prefix_hit_c;
    req.promise.set_value(std::move(r));
  }
  if (queued) {
    obs::TraceCounterValue("serve.queue_depth",
                           static_cast<double>(queue_.size()));
    work_cv_.notify_all();
  }
}

MatchResult MatcherEngine::Match(std::string text_a, std::string text_b) {
  return Submit(std::move(text_a), std::move(text_b)).get();
}

PinnedQuery MatcherEngine::PinQuery(std::string text) {
  auto state = std::make_shared<PinnedQuery::State>();
  state->text = std::move(text);
  if (split_enabled()) {
    EMX_TRACE_SPAN("serve.tokenize");
    state->ids = *entity_tokens_.Get(state->text);
  }
  PinnedQuery pinned;
  pinned.state_ = std::move(state);
  return pinned;
}

std::future<MatchResult> MatcherEngine::SubmitAgainst(const PinnedQuery& query,
                                                      std::string candidate) {
  return SubmitAgainst(query, std::move(candidate),
                       options_.default_timeout_us);
}

std::future<MatchResult> MatcherEngine::SubmitAgainst(const PinnedQuery& query,
                                                      std::string candidate,
                                                      int64_t timeout_us) {
  return std::move(
      SubmitAgainst(query, std::span<const std::string>(&candidate, 1),
                    timeout_us)
          .front());
}

std::vector<std::future<MatchResult>> MatcherEngine::SubmitAgainst(
    const PinnedQuery& query, std::span<const std::string> candidates,
    int64_t timeout_us) {
  EMX_CHECK(query.valid()) << "SubmitAgainst needs a PinnedQuery from "
                              "PinQuery, not a default-constructed one";
  std::vector<Request> reqs;
  std::vector<std::future<MatchResult>> futures;
  reqs.reserve(candidates.size());
  futures.reserve(candidates.size());
  // Fail fast before paying for tokenization / prefix encoding; shutdown is
  // sticky, so EnqueueOrReject then answers every request Unavailable.
  const bool live = !ShutdownSeen();
  for (const std::string& candidate : candidates) {
    reqs.push_back(NewRequest(timeout_us));
    futures.push_back(reqs.back().promise.get_future());
    if (live) Prepare(*query.state_, candidate, &reqs.back());
  }
  EnqueueOrReject(reqs);
  return futures;
}

void MatcherEngine::Prepare(const PinnedQuery::State& query,
                            std::string_view candidate, Request* req) {
  // One snapshot covers the prefixes and the upper-layer forward, so a
  // swap landing mid-submit cannot feed version-N prefixes into version-
  // N+1 cross-attention layers.
  req->model = CurrentModel();
  int64_t length = 0;
  if (!split_enabled()) {
    EMX_TRACE_SPAN("serve.tokenize");
    req->enc = cache_.Get(query.text, candidate, &req->cache_hit);
    length = req->enc.length;
  } else {
    std::shared_ptr<const std::vector<int64_t>> c_ids;
    {
      EMX_TRACE_SPAN("serve.tokenize");
      c_ids = entity_tokens_.Get(candidate, &req->cache_hit);
    }
    // Longest-first truncation over the raw entity tokens — the exact
    // discipline EncodePair applies, so the concatenated layout (and with
    // it the k = 0 logits) matches the pair path token for token.
    std::vector<int64_t> a = query.ids;
    std::vector<int64_t> b = *c_ids;
    tokenizers::TruncatePair(&a, &b, options_.max_seq_len - 3);
    req->len_q = static_cast<int64_t>(a.size()) + 2;  // [CLS] a [SEP]
    req->len_c = static_cast<int64_t>(b.size()) + 1;  // b [SEP]
    req->prefix_q = PrefixFor(*req->model, query.text, a, /*query_side=*/true,
                              /*position_offset=*/0, &req->prefix_hit_q);
    req->prefix_c = PrefixFor(*req->model, candidate, b,
                              /*query_side=*/false,
                              /*position_offset=*/req->len_q,
                              &req->prefix_hit_c);
    length = req->len_q + req->len_c;
  }
  metrics_.RecordCacheLookup(req->cache_hit);
  metrics_.RecordTokenCacheBytes(cache_.resident_bytes() +
                                 entity_tokens_.resident_bytes());
  req->bucket =
      std::max<int64_t>(1, (length + options_.bucket_width - 1) /
                               options_.bucket_width) +
      static_cast<int64_t>(req->model->version) * kVersionBucketStride;
}

std::shared_ptr<const Tensor> MatcherEngine::PrefixFor(
    const VersionedModel& model, std::string_view text,
    const std::vector<int64_t>& ids, bool query_side, int64_t position_offset,
    bool* hit) {
  // The key carries everything the activation depends on besides the
  // engine-constant split_layer and precision: the model version that
  // produced it (the cache is also cleared on swap; the tag makes
  // staleness structurally impossible rather than timing-dependent),
  // which side the segment embeds as, the text, the truncated token
  // count, and (candidate side) the absolute position offset imposed by
  // the query's length.
  std::string key;
  key.reserve(text.size() + 24);
  key += std::to_string(model.version);
  key.push_back('\x1f');
  key.push_back(query_side ? 'q' : 'c');
  key.push_back('\x1f');
  key.append(text);
  key.push_back('\x1f');
  key += std::to_string(ids.size());
  if (!query_side) {
    key.push_back('\x1f');
    key += std::to_string(position_offset);
  }

  std::shared_ptr<const Tensor> cached = prefix_cache_.Get(key);
  const bool was_hit = cached != nullptr;
  if (hit != nullptr) *hit = was_hit;
  metrics_.RecordPrefixLookup(was_hit);
  if (was_hit) return cached;

  EMX_TRACE_SPAN("serve.prefix_encode", [&] {
    return obs::KeyValues(
        {{"tokens", static_cast<int64_t>(ids.size())},
         {"query_side", query_side ? int64_t{1} : int64_t{0}}});
  });
  const auto& specials = model.matcher->tokenizer().specials();
  models::Batch seg;
  seg.batch_size = 1;
  if (query_side) {
    seg.ids.reserve(ids.size() + 2);
    seg.ids.push_back(specials.cls);
    seg.ids.insert(seg.ids.end(), ids.begin(), ids.end());
    seg.ids.push_back(specials.sep);
  } else {
    seg.ids.reserve(ids.size() + 1);
    seg.ids = ids;
    seg.ids.push_back(specials.sep);
  }
  seg.seq_len = static_cast<int64_t>(seg.ids.size());
  seg.segment_ids.assign(seg.ids.size(), query_side ? 0 : 1);
  // No mask: the segment has no padding, and segment-locality is implied
  // by encoding it alone.
  NoGradGuard no_grad;
  nn::QuantModeGuard quant(options_.precision == Precision::kInt8);
  Rng rng(0);  // never drawn: the prefix forward runs dropout-free
  Variable prefix =
      model.matcher->classifier()->backbone()->EncodeSegmentPrefix(
          seg, options_.split_layer, position_offset, &rng);
  return prefix_cache_.Put(key, prefix.value());
}

bool MatcherEngine::WarmCandidate(std::string_view text,
                                  int64_t query_segment_len) {
  if (!split_enabled()) return false;
  EMX_CHECK_GE(query_segment_len, 2)
      << "query_segment_len counts [CLS] and [SEP]";
  if (ShutdownSeen()) return false;
  std::shared_ptr<const std::vector<int64_t>> c_ids = entity_tokens_.Get(text);
  // Replay EncodePair's longest-first truncation against a hypothetical
  // query of the given length, so the warmed key matches what a real
  // request of that shape will ask for.
  int64_t la = query_segment_len - 2;
  int64_t lb = static_cast<int64_t>(c_ids->size());
  const int64_t budget = options_.max_seq_len - 3;
  while (la + lb > budget) {
    if (la >= lb && la > 0) {
      --la;
    } else if (lb > 0) {
      --lb;
    } else {
      --la;
    }
  }
  std::vector<int64_t> b(c_ids->begin(), c_ids->begin() + lb);
  bool hit = false;
  PrefixFor(*CurrentModel(), text, b, /*query_side=*/false,
            /*position_offset=*/la + 2, &hit);
  return true;
}

Status MatcherEngine::SwapModel(std::shared_ptr<core::EntityMatcher> next) {
  if (next == nullptr) {
    return Status::InvalidArgument("SwapModel: next model must not be null");
  }
  // The version bump is read-modify-write over model_, so concurrent
  // swappers are serialized; Submit/RunBatch never take this lock.
  std::lock_guard<std::mutex> swap_lock(swap_mu_);
  const std::shared_ptr<const VersionedModel> cur = CurrentModel();
  core::EntityMatcher* old = cur->matcher.get();
  if (next->arch() != old->arch()) {
    return Status::InvalidArgument(
        std::string("SwapModel: architecture mismatch: serving ") +
        old->arch_name() + ", next is " + next->arch_name());
  }
  const models::TransformerConfig& nc =
      next->classifier()->backbone()->config();
  const models::TransformerConfig& oc =
      old->classifier()->backbone()->config();
  if (nc.hidden != oc.hidden || nc.num_layers != oc.num_layers) {
    return Status::InvalidArgument(
        "SwapModel: model geometry mismatch: serving hidden=" +
        std::to_string(oc.hidden) + "/layers=" +
        std::to_string(oc.num_layers) + ", next has hidden=" +
        std::to_string(nc.hidden) + "/layers=" +
        std::to_string(nc.num_layers));
  }
  if (options_.precision == Precision::kInt8 &&
      !HasReadyInt8Backends(next.get())) {
    return Status::InvalidArgument(
        "SwapModel: engine serves kInt8 but the next model has no frozen "
        "int8 backends");
  }
  if (split_enabled() &&
      !next->classifier()->backbone()->SupportsSplitEncode()) {
    return Status::InvalidArgument(
        "SwapModel: engine uses split encoding but the next model's "
        "backbone does not support it");
  }

  auto fresh = std::make_shared<const VersionedModel>(
      VersionedModel{std::move(next), cur->version + 1});
  model_.store(fresh, std::memory_order_release);
  // Drop old-version prefixes now rather than letting them age out of the
  // LRU: they can never be hit again (version-tagged keys) and would
  // otherwise squat on the byte budget.
  prefix_cache_.Clear();
  metrics_.RecordModelSwap(static_cast<int64_t>(fresh->version));
  return Status::OK();
}

uint64_t MatcherEngine::model_version() const {
  return CurrentModel()->version;
}

void MatcherEngine::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void MatcherEngine::Resume() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = false;
  work_cv_.notify_all();
}

void MatcherEngine::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    work_cv_.notify_all();
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

MetricsSnapshot MatcherEngine::Metrics() const {
  MetricsSnapshot s = metrics_.Snapshot(queue_depth());
  s.token_cache_bytes =
      cache_.resident_bytes() + entity_tokens_.resident_bytes();
  s.token_cache_evictions = cache_.evictions() + entity_tokens_.evictions();
  s.prefix_bytes = prefix_cache_.resident_bytes();
  s.prefix_evictions = prefix_cache_.evictions();
  return s;
}

std::string MatcherEngine::MetricsJson() const { return Metrics().ToJson(); }

int64_t MatcherEngine::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

void MatcherEngine::ExpireQueuedLocked(Clock::time_point now) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->deadline <= now) {
      MatchResult r;
      r.status = Status::DeadlineExceeded("deadline passed while queued");
      r.queue_us = ElapsedUs(it->enqueued, now);
      r.total_us = r.queue_us;
      r.cache_hit = it->cache_hit;
      r.prefix_hit_query = it->prefix_hit_q;
      r.prefix_hit_candidate = it->prefix_hit_c;
      metrics_.RecordTimeout();
      it->promise.set_value(std::move(r));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void MatcherEngine::WorkerLoop(uint64_t worker_id) {
  // Per-worker Rng (the eval forward never consumes randomness, but the
  // Logits API takes one).
  Rng rng(0x5e7e + worker_id);
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] {
      return shutdown_ || (!paused_ && !queue_.empty());
    });
    // The wait admits a paused engine only at shutdown, which overrides
    // pause: queued work is drained either way.
    ExpireQueuedLocked(Clock::now());
    if (queue_.empty()) {
      if (shutdown_) return;
      continue;
    }

    // Work-conserving: the oldest request defines the bucket, and the
    // batch is whatever of that bucket is queued right now. Nothing waits
    // for peers; batches grow under load because requests queue while
    // every worker is busy in a forward.
    const int64_t bucket = queue_.front().bucket;
    std::vector<Request> batch;
    batch.reserve(static_cast<size_t>(std::min<int64_t>(
        options_.max_batch_size, static_cast<int64_t>(queue_.size()))));
    for (auto it = queue_.begin();
         it != queue_.end() &&
         static_cast<int64_t>(batch.size()) < options_.max_batch_size;) {
      if (it->bucket == bucket) {
        batch.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    lock.unlock();
    RunBatch(std::move(batch), &rng);
    lock.lock();
  }
}

void MatcherEngine::RunBatch(std::vector<Request> batch, Rng* rng) {
  if (split_enabled()) {
    RunBatchSplit(std::move(batch), rng);
    return;
  }
  const Clock::time_point formed = Clock::now();
  const int64_t b = static_cast<int64_t>(batch.size());
  EMX_TRACE_SPAN("serve.batch", [&] {
    return obs::KeyValues(
        {{"size", b},
         {"bucket", batch.empty() ? 0 : batch.front().bucket}});
  });

  // Pad only to the bucket top (rounded up from the longest member), not to
  // the engine-wide max_seq_len: short pairs never pay for long ones.
  int64_t longest = 1;
  for (const Request& r : batch) longest = std::max(longest, r.enc.length);
  const int64_t target_len = std::min(
      options_.max_seq_len,
      (longest + options_.bucket_width - 1) / options_.bucket_width *
          options_.bucket_width);

  models::Batch mb;
  mb.batch_size = b;
  mb.seq_len = target_len;
  mb.ids.reserve(static_cast<size_t>(b * target_len));
  mb.segment_ids.reserve(static_cast<size_t>(b * target_len));
  std::vector<float> pad_flags;
  pad_flags.reserve(static_cast<size_t>(b * target_len));
  for (const Request& r : batch) {
    // Cached encodings are padded to max_seq_len; the batch keeps only the
    // first target_len positions (>= every member's real length, so only
    // pad tokens are dropped and masked attention is unchanged).
    const auto& enc = r.enc.enc;
    mb.ids.insert(mb.ids.end(), enc.ids.begin(), enc.ids.begin() + target_len);
    mb.segment_ids.insert(mb.segment_ids.end(), enc.segment_ids.begin(),
                          enc.segment_ids.begin() + target_len);
    pad_flags.insert(pad_flags.end(), enc.attention_mask.begin(),
                     enc.attention_mask.begin() + target_len);
  }
  mb.attention_mask = models::Batch::MakeMask(pad_flags, b, target_len);

  // Every member snapshotted the same model (version is part of the
  // bucket); the batch holds it alive even if a swap lands mid-forward.
  const VersionedModel& model = *batch.front().model;
  NoGradGuard no_grad;
  // QuantMode is thread-local, so each worker pins the engine's precision
  // for the duration of its own forward.
  nn::QuantModeGuard quant(options_.precision == Precision::kInt8);
  Variable logits =
      model.matcher->classifier()->Logits(mb, /*train=*/false, rng);
  Tensor probs = ops::Softmax(logits.value());
  const Clock::time_point done = Clock::now();

  metrics_.RecordBatch(b);
  for (int64_t i = 0; i < b; ++i) {
    Request& r = batch[static_cast<size_t>(i)];
    MatchResult result;
    result.status = Status::OK();
    result.probability = probs[i * 2 + 1];
    result.is_match = result.probability >= 0.5;
    result.queue_us = ElapsedUs(r.enqueued, formed);
    result.total_us = ElapsedUs(r.enqueued, done);
    result.batch_size = b;
    result.cache_hit = r.cache_hit;
    result.model_version = model.version;
    metrics_.RecordCompletion(result.total_us);
    r.promise.set_value(std::move(result));
  }
}

void MatcherEngine::RunBatchSplit(std::vector<Request> batch, Rng* rng) {
  const Clock::time_point formed = Clock::now();
  const int64_t b = static_cast<int64_t>(batch.size());
  EMX_TRACE_SPAN("serve.batch_split", [&] {
    return obs::KeyValues(
        {{"size", b},
         {"bucket", batch.empty() ? 0 : batch.front().bucket}});
  });

  // Pad to the bucket top like the pair path. Pad positions hold zero
  // vectors instead of pad-token embeddings — both are blocked by the mask,
  // so real rows (and the CLS logits) never see the difference.
  int64_t longest = 1;
  for (const Request& r : batch) {
    longest = std::max(longest, r.len_q + r.len_c);
  }
  const int64_t target_len = std::min(
      options_.max_seq_len,
      (longest + options_.bucket_width - 1) / options_.bucket_width *
          options_.bucket_width);

  const VersionedModel& model = *batch.front().model;
  const int64_t h = model.matcher->classifier()->config().hidden;
  Tensor input = Tensor::Zeros({b, target_len, h});
  std::vector<float> pad_flags(static_cast<size_t>(b * target_len), 1.0f);
  for (int64_t i = 0; i < b; ++i) {
    const Request& r = batch[static_cast<size_t>(i)];
    float* row = input.data() + i * target_len * h;
    std::memcpy(row, r.prefix_q->data(),
                static_cast<size_t>(r.len_q * h) * sizeof(float));
    std::memcpy(row + r.len_q * h, r.prefix_c->data(),
                static_cast<size_t>(r.len_c * h) * sizeof(float));
    std::fill(pad_flags.begin() + i * target_len,
              pad_flags.begin() + i * target_len + r.len_q + r.len_c, 0.0f);
  }
  const Tensor mask = models::Batch::MakeMask(pad_flags, b, target_len);

  NoGradGuard no_grad;
  nn::QuantModeGuard quant(options_.precision == Precision::kInt8);
  Variable hidden = Variable::Constant(std::move(input));
  Variable logits = model.matcher->classifier()->LogitsFromHidden(
      hidden, mask, options_.split_layer, /*train=*/false, rng);
  Tensor probs = ops::Softmax(logits.value());
  const Clock::time_point done = Clock::now();

  metrics_.RecordBatch(b);
  for (int64_t i = 0; i < b; ++i) {
    Request& r = batch[static_cast<size_t>(i)];
    MatchResult result;
    result.status = Status::OK();
    result.probability = probs[i * 2 + 1];
    result.is_match = result.probability >= 0.5;
    result.queue_us = ElapsedUs(r.enqueued, formed);
    result.total_us = ElapsedUs(r.enqueued, done);
    result.batch_size = b;
    result.cache_hit = r.cache_hit;
    result.prefix_hit_query = r.prefix_hit_q;
    result.prefix_hit_candidate = r.prefix_hit_c;
    result.model_version = model.version;
    metrics_.RecordCompletion(result.total_us);
    r.promise.set_value(std::move(result));
  }
}

}  // namespace serve
}  // namespace emx
