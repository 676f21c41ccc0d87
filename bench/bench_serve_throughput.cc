// Serving throughput sweep: how many entity pairs per second the
// MatcherEngine sustains across micro-batching configurations, against two
// one-pair-at-a-time baselines:
//
//   seed_taped_loop  — the pre-serve prediction path: one pair per forward,
//                      full autograd tape built and thrown away (what
//                      EntityMatcher::Match cost at the seed).
//   gradfree_loop    — one pair per forward under NoGradGuard (the tape tax
//                      removed, but still unbatched and uncached).
//
// Results are printed and written to BENCH_serve.json in the working
// directory. Environment knobs:
//
//   EMX_SERVE_PAIRS     total requests per engine config   (default 512)
//   EMX_SERVE_LOOP_PAIRS pairs per baseline loop           (default 128)
//   EMX_SERVE_THREADS   client threads per engine config   (default 4)
//   EMX_SERVE_WORKERS   engine workers for the _k rows     (default nproc)
//   EMX_CACHE_DIR       tokenizer cache                    (default /tmp/emx_zoo_bench)

#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/entity_matcher.h"
#include "data/generators.h"
#include "serve/matcher_engine.h"
#include "tensor/tensor_ops.h"
#include "tensor/variable.h"
#include "util/timer.h"

namespace emx {
namespace {

struct SweepRow {
  std::string name;
  int64_t batch_size = 0;
  int64_t num_workers = 1;
  double pairs_per_sec = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0;
  double mean_batch = 0;
  double cache_hit_rate = 0;
};

/// Serialized record pairs from a generated EM dataset — realistic text
/// lengths, and repeated entities so the tokenization cache sees hits.
std::vector<std::pair<std::string, std::string>> MakeWorkload(int64_t n) {
  data::GeneratorOptions gen;
  gen.scale = 0.05;
  auto dataset = data::GenerateDataset(data::DatasetId::kWalmartAmazon, gen);
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(static_cast<size_t>(n));
  const auto& pool = dataset.train;
  for (int64_t i = 0; i < n; ++i) {
    const auto& p = pool[static_cast<size_t>(i) % pool.size()];
    pairs.emplace_back(dataset.SerializeA(p), dataset.SerializeB(p));
  }
  return pairs;
}

double TapedLoopPairsPerSec(
    core::EntityMatcher* matcher,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  Rng rng(3);
  Timer timer;
  for (const auto& [a, b] : pairs) {
    // The seed path: batch of one, training forward, tape discarded.
    models::Batch batch =
        matcher->BuildBatch({a}, {b}, matcher->eval_max_seq_len());
    Variable logits = matcher->classifier()->Logits(batch, /*train=*/false,
                                                    &rng);
    (void)ops::Softmax(logits.value());
  }
  return static_cast<double>(pairs.size()) / timer.ElapsedSeconds();
}

double GradFreeLoopPairsPerSec(
    core::EntityMatcher* matcher,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  Timer timer;
  for (const auto& [a, b] : pairs) (void)matcher->MatchProbability(a, b);
  return static_cast<double>(pairs.size()) / timer.ElapsedSeconds();
}

double BatchedGradFreePairsPerSec(
    core::EntityMatcher* matcher,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::vector<std::string> as, bs;
  as.reserve(pairs.size());
  bs.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    as.push_back(a);
    bs.push_back(b);
  }
  Timer timer;
  (void)matcher->MatchProbabilities(as, bs);
  return static_cast<double>(pairs.size()) / timer.ElapsedSeconds();
}

SweepRow RunEngineConfig(
    core::EntityMatcher* matcher, int64_t batch_size, int64_t num_workers, int64_t client_threads,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  serve::EngineOptions opts;
  opts.max_batch_size = batch_size;
  opts.num_workers = num_workers;
  opts.max_seq_len = matcher->eval_max_seq_len();
  opts.queue_capacity = static_cast<int64_t>(pairs.size()) + 16;
  serve::MatcherEngine engine(matcher, opts);

  Timer timer;
  std::vector<std::thread> clients;
  for (int64_t t = 0; t < client_threads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<std::future<serve::MatchResult>> futures;
      for (size_t i = static_cast<size_t>(t); i < pairs.size();
           i += static_cast<size_t>(client_threads)) {
        futures.push_back(engine.Submit(pairs[i].first, pairs[i].second));
      }
      for (auto& f : futures) (void)f.get();
    });
  }
  for (auto& c : clients) c.join();
  const double seconds = timer.ElapsedSeconds();

  serve::MetricsSnapshot m = engine.Metrics();
  SweepRow row;
  row.name = "engine_b" + std::to_string(batch_size) + "_k" +
             std::to_string(num_workers);
  row.batch_size = batch_size;
  row.num_workers = num_workers;
  row.pairs_per_sec = static_cast<double>(pairs.size()) / seconds;
  row.p50_us = m.p50_latency_us;
  row.p95_us = m.p95_latency_us;
  row.p99_us = m.p99_latency_us;
  row.mean_batch = m.mean_batch_size;
  row.cache_hit_rate = m.cache_hit_rate;
  return row;
}

}  // namespace
}  // namespace emx

int main() {
  using namespace emx;

  pretrain::ZooOptions zoo = bench::BenchZoo();
  // Throughput does not depend on weight quality; random weights keep the
  // bench self-contained (the tokenizer is still trained and cached).
  zoo.skip_pretraining = true;
  auto bundle = pretrain::GetPretrained(models::Architecture::kBert, zoo);
  if (!bundle.ok()) {
    std::printf("error: %s\n", bundle.status().ToString().c_str());
    return 1;
  }
  core::EntityMatcher matcher(std::move(bundle).value());
  matcher.set_eval_max_seq_len(48);

  const int64_t engine_pairs = bench::EnvInt("EMX_SERVE_PAIRS", 512);
  const int64_t loop_pairs = bench::EnvInt("EMX_SERVE_LOOP_PAIRS", 128);
  const int64_t threads = bench::EnvInt("EMX_SERVE_THREADS", 4);
  auto workload = MakeWorkload(engine_pairs);
  auto loop_workload = std::vector<std::pair<std::string, std::string>>(
      workload.begin(), workload.begin() + static_cast<size_t>(std::min(
                                                loop_pairs, engine_pairs)));

  std::printf("bench_serve_throughput — %lld engine pairs, %zu loop pairs, "
              "%lld client threads\n\n",
              static_cast<long long>(engine_pairs), loop_workload.size(),
              static_cast<long long>(threads));

  const double taped = TapedLoopPairsPerSec(&matcher, loop_workload);
  std::printf("%-24s %10.1f pairs/s   (seed one-at-a-time, full tape)\n",
              "seed_taped_loop", taped);
  const double gradfree = GradFreeLoopPairsPerSec(&matcher, loop_workload);
  std::printf("%-24s %10.1f pairs/s   (%.2fx vs seed)\n", "gradfree_loop",
              gradfree, gradfree / taped);
  const double batched = BatchedGradFreePairsPerSec(&matcher, loop_workload);
  std::printf("%-24s %10.1f pairs/s   (%.2fx vs seed)\n\n",
              "gradfree_batched", batched, batched / taped);

  // Batch-size sweep with one worker, then the full-machine configuration:
  // one batch worker per hardware thread, overlapping micro-batches the
  // small kernels cannot parallelize internally. EMX_SERVE_WORKERS forces
  // the worker count (e.g. to exercise the multi-worker path on a 1-core
  // box, or to pin bench runs).
  const int64_t machine_workers = bench::EnvInt(
      "EMX_SERVE_WORKERS",
      std::max<int64_t>(
          1, static_cast<int64_t>(std::thread::hardware_concurrency())));
  std::vector<SweepRow> rows;
  for (int64_t batch : {1, 4, 8, 16, 32}) {
    rows.push_back(RunEngineConfig(&matcher, batch, /*num_workers=*/1,
                                   threads, workload));
  }
  if (machine_workers > 1) {
    for (int64_t batch : {8, 16, 32}) {
      rows.push_back(RunEngineConfig(&matcher, batch, machine_workers,
                                     threads, workload));
    }
  }
  for (const SweepRow& row : rows) {
    std::printf(
        "%-24s %10.1f pairs/s   (%.2fx vs seed; mean batch %.1f, p50 %.0fus, "
        "p99 %.0fus, cache %.0f%%)\n",
        row.name.c_str(), row.pairs_per_sec, row.pairs_per_sec / taped,
        row.mean_batch, row.p50_us, row.p99_us, row.cache_hit_rate * 100);
  }

  FILE* out = std::fopen("BENCH_serve.json", "w");
  if (out == nullptr) {
    std::printf("error: cannot write BENCH_serve.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"seed_taped_loop_pairs_per_sec\": %.2f,\n", taped);
  std::fprintf(out, "  \"gradfree_loop_pairs_per_sec\": %.2f,\n", gradfree);
  std::fprintf(out, "  \"gradfree_batched_pairs_per_sec\": %.2f,\n", batched);
  std::fprintf(out, "  \"client_threads\": %lld,\n",
               static_cast<long long>(threads));
  std::fprintf(out, "  \"engine_configs\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"max_batch_size\": %lld, "
                 "\"num_workers\": %lld, "
                 "\"pairs_per_sec\": %.2f, "
                 "\"speedup_vs_seed\": %.3f, \"mean_batch_size\": %.2f, "
                 "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f, "
                 "\"cache_hit_rate\": %.3f}%s\n",
                 r.name.c_str(), static_cast<long long>(r.batch_size),
                 static_cast<long long>(r.num_workers), r.pairs_per_sec,
                 r.pairs_per_sec / taped, r.mean_batch, r.p50_us, r.p95_us,
                 r.p99_us, r.cache_hit_rate,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote BENCH_serve.json\n");
  return 0;
}
