// catalog_churn: 1-vs-N lookup with writes beside reads.
//
// A CatalogMatcher over a generated product catalog re-ranks with int8
// split serving at DefaultSplitLayer. Closed-loop clients (kClients, each
// waiting for its FindMatches) send Zipf-skewed queries while a paced
// writer streams AddBatch ingests of further records.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/entity_matcher.h"
#include "data/generators.h"
#include "harness.h"
#include "obs/trace.h"
#include "quant/quantize_matcher.h"
#include "retrieval/catalog_matcher.h"
#include "serve/matcher_engine.h"

namespace perfbench {
namespace {

constexpr int64_t kRecords = 100000;
constexpr int64_t kQueries = 2000;
constexpr double kZipfExponent = 1.0;
/// Writer pacing: records per second, in batches of kIngestBatch. The
/// catalog grows by kIngestRate x window, 15% of kRecords in a 30 s run. A
/// faster writer grows it enough that TopK slows over the window (60% at
/// 2000 rec/s), and a run's quiet p50 then depends on when its quiet
/// slices fall.
constexpr double kIngestRate = 500;
constexpr int64_t kIngestBatch = 25;
constexpr int64_t kMaxSeqLen = 48;
constexpr int kSetupRepeats = 3;
constexpr int64_t kRecallSample = 100;
constexpr double kRecallFloor = 0.95;
constexpr int64_t kRerankCheckQueries = 16;
constexpr double kProbTolerance = 1e-5;
/// Two clients keep about 2.2 of 4 cores busy. A third saturates the
/// machine, so any co-tenant load slows every query of the window (the
/// run-to-run spread of the quiet p50 passes 0.3).
constexpr int kClients = 2;

struct Inputs {
  emx::data::Catalog catalog;
  /// Records the writer streams in during the window (distractors).
  std::vector<std::string> stream;
  /// Query index per client request, Zipf-skewed over a seeded ranking.
  std::vector<int64_t> query_order;
};

Inputs MakeInputs(uint64_t seed, double seconds) {
  Inputs in;
  emx::data::CatalogSpec spec;
  spec.seed = seed;
  spec.num_records = kRecords;
  spec.num_queries = kQueries;
  in.catalog = emx::data::GenerateCatalog(spec);

  emx::data::CatalogSpec more;
  more.seed = seed ^ 0xc47a10ull;
  more.num_records =
      static_cast<int64_t>(kIngestRate * seconds * 1.6) + kIngestBatch;
  more.num_queries = 1;
  in.stream = emx::data::GenerateCatalog(more).records;

  emx::Rng rng(seed ^ 0x21bfull);
  std::vector<size_t> rank_to_query = rng.Permutation(kQueries);
  const ZipfSampler zipf(kQueries, kZipfExponent);
  in.query_order.resize(20000);
  for (int64_t& q : in.query_order) {
    q = static_cast<int64_t>(rank_to_query[static_cast<size_t>(zipf.Sample(&rng))]);
  }
  return in;
}

uint64_t InputDigest(const Inputs& in) {
  uint64_t h = Fnv1a("catalog_churn");
  for (const auto& r : in.catalog.records) h = Fnv1a(r, h);
  for (const auto& q : in.catalog.queries) h = Fnv1a(q, h);
  for (const auto& r : in.stream) h = Fnv1a(r, h);
  for (int64_t q : in.query_order) h = Fnv1a(std::to_string(q), h);
  return h;
}

struct Stack {
  std::unique_ptr<emx::core::EntityMatcher> matcher;
  std::unique_ptr<emx::serve::MatcherEngine> engine;
  std::unique_ptr<emx::retrieval::CatalogMatcher> catalog;
  ~Stack() {
    catalog.reset();
    if (engine) engine->Shutdown();
  }
};

emx::serve::EngineOptions EngineOpts(int64_t split_layer) {
  emx::serve::EngineOptions eopts;
  eopts.precision = emx::serve::Precision::kInt8;
  eopts.split_layer = split_layer;
  eopts.max_seq_len = kMaxSeqLen;
  eopts.max_batch_size = emx::retrieval::CatalogOptions{}.rerank_k;
  return eopts;
}

/// Builds the serving stack and ingests the initial catalog, then answers
/// one query: the time until the first request can be served.
std::unique_ptr<Stack> StartStack(const emx::pretrain::ZooOptions& zoo,
                                  const Inputs& in, Results* out) {
  auto stack = std::make_unique<Stack>();
  auto bundle =
      emx::pretrain::GetPretrained(emx::models::Architecture::kBert, zoo);
  if (!bundle.ok()) {
    out->Check(false, "zoo: " + bundle.status().ToString());
    return nullptr;
  }
  stack->matcher =
      std::make_unique<emx::core::EntityMatcher>(std::move(bundle).value());
  stack->matcher->set_eval_max_seq_len(kMaxSeqLen);
  emx::quant::CalibrationData calib;
  for (size_t i = 0; i < 16; ++i) {
    calib.texts_a.push_back(in.catalog.queries[i]);
    calib.texts_b.push_back(in.catalog.records[static_cast<size_t>(
        in.catalog.truth[i])]);
  }
  if (auto report = emx::quant::QuantizeMatcher(stack->matcher.get(), calib);
      !report.ok()) {
    out->Check(false, "quantize: " + report.status().ToString());
    return nullptr;
  }
  const int64_t layers = stack->matcher->classifier()->config().num_layers;
  stack->engine = std::make_unique<emx::serve::MatcherEngine>(
      stack->matcher.get(),
      EngineOpts(emx::serve::DefaultSplitLayer(layers)));
  stack->catalog = std::make_unique<emx::retrieval::CatalogMatcher>(
      stack->engine.get());
  {
    EMX_TRACE_SPAN("bench.add_batch");
    stack->catalog->AddBatch(in.catalog.records);
  }
  if (!stack->catalog->FindMatches(in.catalog.queries[0]).ok()) {
    out->Check(false, "first query failed");
    return nullptr;
  }
  return stack;
}

struct ChurnRun {
  std::vector<double> query_ms;
  std::vector<double> ingest_ms;
  /// Completion time of each query, seconds from the window start.
  std::vector<double> query_done_s;
  int64_t queries = 0, failed = 0, ingested = 0;
  double seconds = 0;
  /// Queries per second: median over the window's whole seconds.
  double qps = 0;
  /// FindMatches p50 on the window's quieter one-second slices (QuietP50).
  double quiet_query_p50_ms = 0;
  /// Process CPU time per answered query, ingest included (the paced
  /// writer's share is a few percent).
  double cpu_ms_per_query = 0;
  double cores_busy = 0;
  std::set<int64_t> distinct_queries;
};

ChurnRun Churn(Stack* stack, const Inputs& in, size_t* stream_pos,
               size_t* order_pos, double seconds) {
  ChurnRun run;
  const int clients = std::max(
      1, std::min(kClients,
                  static_cast<int>(std::thread::hardware_concurrency()) - 1));
  std::atomic<bool> stop{false};
  std::atomic<size_t> next_query{*order_pos};
  std::mutex mu;
  CpuWindow cpu;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      std::vector<double> lat, done;
      std::vector<int64_t> asked;
      int64_t failed = 0;
      while (Clock::now() < deadline) {
        const size_t i = next_query.fetch_add(1) % in.query_order.size();
        const int64_t q = in.query_order[i];
        const auto t0 = Clock::now();
        bool ok;
        {
          EMX_TRACE_SPAN("bench.find_matches");
          ok = stack->catalog
                   ->FindMatches(in.catalog.queries[static_cast<size_t>(q)])
                   .ok();
        }
        lat.push_back(1e3 * SecondsSince(t0));
        done.push_back(SecondsSince(start));
        asked.push_back(q);
        failed += ok ? 0 : 1;
      }
      std::lock_guard<std::mutex> lock(mu);
      run.query_ms.insert(run.query_ms.end(), lat.begin(), lat.end());
      run.query_done_s.insert(run.query_done_s.end(), done.begin(),
                              done.end());
      run.distinct_queries.insert(asked.begin(), asked.end());
      run.failed += failed;
    });
  }
  // Paced writer: batch k is due at k * batch / rate; AddBatch returning
  // means the new records are queryable.
  threads.emplace_back([&] {
    for (int64_t k = 0;; ++k) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(k * kIngestBatch) / kIngestRate));
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
      if (*stream_pos + kIngestBatch > in.stream.size()) break;
      std::vector<std::string> batch(
          in.stream.begin() + static_cast<std::ptrdiff_t>(*stream_pos),
          in.stream.begin() +
              static_cast<std::ptrdiff_t>(*stream_pos + kIngestBatch));
      *stream_pos += kIngestBatch;
      const auto t0 = Clock::now();
      {
        EMX_TRACE_SPAN("bench.add_batch");
        stack->catalog->AddBatch(std::move(batch));
      }
      run.ingest_ms.push_back(1e3 * SecondsSince(t0));
      run.ingested += kIngestBatch;
    }
  });
  for (auto& t : threads) t.join();
  run.seconds = SecondsSince(start);
  run.qps = MedianRatePerSecond(run.query_done_s, 0, seconds);
  run.quiet_query_p50_ms =
      QuietP50(SliceP50s(run.query_ms, run.query_done_s, 1.0));
  run.cores_busy = cpu.CoresBusy();
  run.queries = static_cast<int64_t>(run.query_ms.size());
  run.cpu_ms_per_query =
      run.queries > 0 ? 1e3 * (CpuSeconds() - cpu.cpu0) / run.queries : 0;
  *order_pos = next_query.load();
  return run;
}

/// Planted-truth recall of the index at retrieve_k on a query sample.
double RecallAtK(const emx::retrieval::CatalogMatcher& catalog,
                 const emx::data::Catalog& cat) {
  const int64_t k = catalog.options().retrieve_k;
  int64_t hits = 0;
  for (int64_t q = 0; q < kRecallSample; ++q) {
    for (const auto& s : catalog.index().TopK(cat.queries[q], k)) {
      if (s.id == cat.truth[static_cast<size_t>(q)]) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(kRecallSample);
}

/// Re-derives FindMatches from its parts: a direct TopK, the rerank_k best
/// candidates scored one by one on a cache-free engine with the same int8
/// split configuration, sorted the way CatalogMatcher documents. Returns
/// the worst probability gap; sets *same_ids when the top_k ids agree.
double CheckRerank(Stack* stack, const Inputs& in, bool* same_ids) {
  auto& catalog = *stack->catalog;
  emx::serve::EngineOptions ref_opts =
      EngineOpts(stack->engine->options().split_layer);
  ref_opts.activation_cache_bytes = 0;
  ref_opts.cache_capacity = 0;
  emx::serve::MatcherEngine ref(stack->matcher.get(), ref_opts);
  const auto& opts = catalog.options();
  double worst = 0;
  *same_ids = true;
  for (int64_t c = 0; c < kRerankCheckQueries; ++c) {
    const std::string& query =
        in.catalog.queries[static_cast<size_t>(in.query_order[static_cast<size_t>(c)])];
    auto got = catalog.FindMatches(query);
    if (!got.ok()) {
      *same_ids = false;
      continue;
    }
    auto cands = catalog.index().TopK(query, opts.retrieve_k);
    if (static_cast<int64_t>(cands.size()) > opts.rerank_k) {
      cands.resize(static_cast<size_t>(opts.rerank_k));
    }
    struct Scored {
      int64_t id;
      double score, prob;
    };
    std::vector<Scored> scored;
    for (const auto& s : cands) {
      const auto r = ref.Match(query, catalog.Text(s.id));
      scored.push_back({s.id, s.score, r.status.ok() ? r.probability : NAN});
    }
    std::stable_sort(scored.begin(), scored.end(),
                     [](const Scored& x, const Scored& y) {
                       if (x.prob != y.prob) return x.prob > y.prob;
                       if (x.score != y.score) return x.score > y.score;
                       return x.id < y.id;
                     });
    const auto& matches = got.value();
    if (matches.size() !=
        std::min<size_t>(scored.size(), static_cast<size_t>(opts.top_k))) {
      *same_ids = false;
      continue;
    }
    for (size_t i = 0; i < matches.size(); ++i) {
      if (matches[i].id != scored[i].id) *same_ids = false;
      const double d = std::fabs(matches[i].probability - scored[i].prob);
      worst = std::isnan(d) ? INFINITY : std::max(worst, d);
    }
  }
  ref.Shutdown();
  return worst;
}

}  // namespace

int RunCatalogChurn(const Args& args, Results* out) {
  const emx::pretrain::ZooOptions zoo = BenchZoo(args.work_dir);
  const Inputs in = MakeInputs(args.seed, args.seconds);
  out->NoteText("input_digest", Hex64(InputDigest(in)));
  if (args.self_test) {
    const uint64_t d = InputDigest(in);
    out->Check(InputDigest(MakeInputs(args.seed, args.seconds)) == d,
               "self-test: same seed gives identical catalog inputs");
    out->Check(InputDigest(MakeInputs(args.seed + 1, args.seconds)) != d,
               "self-test: different seed gives different catalog inputs");
    return 0;
  }
  // Untimed: train or load the cached tokenizer.
  if (!emx::pretrain::GetTokenizer(emx::models::Architecture::kBert, zoo).ok()) {
    out->Check(false, "tokenizer cache");
    return 1;
  }

  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack.reset();
    const auto t0 = Clock::now();
    stack = StartStack(zoo, in, out);
    if (!stack) return 1;
    setup_s.push_back(SecondsSince(t0));
  }
  const double recall = RecallAtK(*stack->catalog, in.catalog);
  out->Note("check.recall_at_retrieve_k", recall);
  out->Check(recall >= kRecallFloor,
             "planted-truth recall@retrieve_k >= 0.95 on 100 queries");

  size_t stream_pos = 0, order_pos = 0;
  ChurnRun run;
  if (args.trace) {
    std::vector<std::string> as, bs;
    for (size_t i = 0; i < 256; ++i) {
      as.push_back(in.catalog.queries[i % in.catalog.queries.size()]);
      bs.push_back(in.catalog.records[static_cast<size_t>(
          in.catalog.truth[i % in.catalog.truth.size()])]);
    }
    RunLayerProbes(zoo, as, bs, kMaxSeqLen, out);
    const ChurnRun plain =
        Churn(stack.get(), in, &stream_pos, &order_pos, 0.5 * args.seconds);
    BeginTracedWindow();
    run = Churn(stack.get(), in, &stream_pos, &order_pos, 0.5 * args.seconds);
    EndTracedWindow(args, out);
    out->Set("trace.overhead_frac",
             run.quiet_query_p50_ms / plain.quiet_query_p50_ms - 1.0, "frac");
  } else {
    run = Churn(stack.get(), in, &stream_pos, &order_pos, args.seconds);
  }

  bool same_ids = false;
  const double worst = CheckRerank(stack.get(), in, &same_ids);
  out->Note("check.rerank_max_abs_dprob", worst);
  out->Check(same_ids && worst <= kProbTolerance,
             "FindMatches == direct TopK + reference re-rank (ids, |dp| <= "
             "1e-5) on 16 queries");
  out->AddAttempted(run.queries + static_cast<int64_t>(run.ingest_ms.size()));
  out->AddFailed(run.failed);
  out->Check(run.failed == 0, "every FindMatches succeeded");

  out->Set("setup_s", Pct(setup_s, 0.5), "s");
  out->Set("p50_ms", run.quiet_query_p50_ms, "ms");
  out->Set("cpu_ms_per_op", run.cpu_ms_per_query, "ms");
  out->Set("peak_rss_mb", PeakRssMb(), "MB");

  const auto m = stack->engine->Metrics();
  auto* reg = stack->catalog->registry();
  std::vector<double> tokens;
  for (size_t i = 0; i < 500; ++i) {
    tokens.push_back(RealTokens(
        stack->matcher->tokenizer(),
        in.catalog.queries[i % in.catalog.queries.size()],
        in.catalog.records[i * 97 % in.catalog.records.size()], kMaxSeqLen));
  }
  out->Set("tokenizers.tokens_per_pair", Mean(tokens), "count");
  out->Set("serve.batch_size_mean", m.mean_batch_size, "count");
  out->Set("serve.token_cache_hit_rate", m.cache_hit_rate, "frac");
  out->Set("serve.prefix_hit_rate", m.prefix_hit_rate, "frac");
  out->Set("retrieval.candidates",
           reg->GetHistogram("catalog.candidates", {})->mean(), "count");
  out->Set("retrieval.add_batch_us_per_record",
           1e3 * Mean(run.ingest_ms) / static_cast<double>(kIngestBatch),
           "us");
  out->Set("catalog.rerank_failures",
           static_cast<double>(
               reg->GetCounter("catalog.rerank_failures")->Value()),
           "count");
  out->Set("proc.cpu_cores_busy", run.cores_busy, "count");

  out->Named("query_p50_ms", run.quiet_query_p50_ms, "ms");
  out->Named("query_p99_ms", Pct(run.query_ms, 0.99), "ms");
  out->Named("query_qps", run.qps, "1/s");
  out->NoteJson("query_latency_ms", DistributionJson(run.query_ms));
  out->NoteJson("ingest_latency_ms", DistributionJson(run.ingest_ms));
  out->Named("ingest_p50_ms", Pct(run.ingest_ms, 0.5), "ms");
  out->Named("ingest_p99_ms", Pct(run.ingest_ms, 0.99), "ms");
  out->Named("setup_s", Pct(setup_s, 0.5), "s");
  out->NoteJson("setup_s.samples", JsonArray(setup_s));
  out->Note("input.catalog_records", static_cast<double>(kRecords));
  out->Note("input.catalog_records_after_churn",
            static_cast<double>(stack->catalog->size()));
  out->Note("input.zipf_exponent", kZipfExponent);
  out->Note("input.query_pool", static_cast<double>(kQueries));
  out->Note("input.repeated_query_share",
            run.queries > 0
                ? 1.0 - static_cast<double>(run.distinct_queries.size()) /
                            static_cast<double>(run.queries)
                : 0);
  out->NoteJson("input.tokens_per_pair", DistributionJson(tokens));
  out->Note("input.ingest_rate_rps", kIngestRate);
  return 0;
}

}  // namespace perfbench
