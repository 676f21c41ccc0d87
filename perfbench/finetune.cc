// finetune: the paper's Table 6 path. EntityMatcher::FineTune runs one
// epoch on generated Walmart-Amazon at the bench scale for BERT and XLNet
// (the encoder and the two-stream code paths), each round on freshly
// initialized matchers so every round does identical work; then offline
// bulk MatchProbabilities scores the held-out pairs with both models.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/entity_matcher.h"
#include "data/generators.h"
#include "harness.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using emx::models::Architecture;

constexpr double kScale = 0.05;  // the bench zoo's Walmart-Amazon scale
constexpr int64_t kMaxSeqLen = 56;
/// Every round times setup (both matchers built from the zoo) this many
/// times, trains, then scores kScoreOpsPerRound operations, so that the
/// samples of each metric spread over the whole window instead of landing
/// in one spell of the host.
constexpr int kSetupPerRound = 5;
constexpr int kScoreOpsPerRound = 20;
constexpr int kMinRounds = 2;
constexpr size_t kScoreSmall = 16, kScoreLarge = 64;
/// |loss(N threads) - loss(1 thread)| allowed for the same inputs. Only
/// the order of floating-point reductions may differ between the two.
constexpr double kLossTolerance = 1e-4;

emx::data::EmDataset MakeDataset(uint64_t seed) {
  emx::data::GeneratorOptions gen;
  gen.seed = seed * 7919ull + 11;
  gen.scale = kScale;
  return emx::data::GenerateDataset(emx::data::DatasetId::kWalmartAmazon, gen);
}

uint64_t DatasetDigest(const emx::data::EmDataset& ds) {
  uint64_t h = Fnv1a("finetune");
  for (const auto* split : {&ds.train, &ds.valid, &ds.test}) {
    for (const auto& p : *split) {
      h = Fnv1a(ds.SerializeB(p), Fnv1a(ds.SerializeA(p), h));
      h = Fnv1a(std::to_string(p.label), h);
    }
  }
  return h;
}

emx::core::FineTuneOptions Recipe() {
  emx::core::FineTuneOptions ft;
  ft.epochs = 1;
  ft.batch_size = 16;
  ft.learning_rate = 1e-3f;
  ft.max_seq_len = kMaxSeqLen;
  return ft;
}

std::unique_ptr<emx::core::EntityMatcher> Fresh(
    Architecture arch, const emx::pretrain::ZooOptions& zoo) {
  auto bundle = emx::pretrain::GetPretrained(arch, zoo);
  if (!bundle.ok()) return nullptr;
  return std::make_unique<emx::core::EntityMatcher>(std::move(bundle).value());
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

struct Epoch {
  Architecture arch;
  emx::core::EpochRecord record;
  double wall_s = 0;
};

struct FinetuneRun {
  std::vector<double> setup_s;
  std::vector<Epoch> epochs;
  double train_s = 0;
  int64_t train_pairs = 0;
  /// Train pairs per second of each round (one BERT and one XLNet epoch).
  std::vector<double> round_pairs_per_s;
  /// Process CPU ms per train pair of each round: the training cost, which
  /// unlike the rate does not fall when a co-tenant takes cores away.
  std::vector<double> round_cpu_ms_per_pair;
  std::vector<double> score_small_ms, score_large_ms;
  double score_s = 0;
  int64_t scored_pairs = 0;
  double cores_busy = 0;
};

FinetuneRun Measure(const emx::data::EmDataset& ds,
                    const emx::pretrain::ZooOptions& zoo, double seconds,
                    Results* out) {
  FinetuneRun run;
  std::vector<std::string> as, bs;
  for (const auto* split : {&ds.valid, &ds.test}) {
    for (const auto& p : *split) {
      as.push_back(ds.SerializeA(p));
      bs.push_back(ds.SerializeB(p));
    }
  }
  size_t pos = 0;
  CpuWindow cpu;
  const auto start = Clock::now();
  double last_round_s = 0;
  // Rounds go on while the next one ends nearer the window's end than not.
  for (int round = 0; round < kMinRounds ||
                      SecondsSince(start) + 0.5 * last_round_s < seconds;
       ++round) {
    const auto round0 = Clock::now();
    for (int i = 0; i < kSetupPerRound; ++i) {
      const auto t0 = Clock::now();
      auto bert = Fresh(Architecture::kBert, zoo);
      auto xlnet = Fresh(Architecture::kXlnet, zoo);
      if (!bert || !xlnet) {
        out->Check(false, "zoo model");
        return run;
      }
      run.setup_s.push_back(SecondsSince(t0));
    }
    std::unique_ptr<emx::core::EntityMatcher> trained[2];
    int slot = 0;
    double train_s = 0;
    const double train_cpu0 = CpuSeconds();
    for (Architecture arch : {Architecture::kBert, Architecture::kXlnet}) {
      auto m = Fresh(arch, zoo);
      if (!m) {
        out->Check(false, "zoo model");
        return run;
      }
      const auto t0 = Clock::now();
      std::vector<emx::core::EpochRecord> records;
      {
        EMX_TRACE_SPAN("bench.fine_tune");
        records = m->FineTune(ds, Recipe());
      }
      const double wall = SecondsSince(t0);
      train_s += wall;
      run.train_s += wall;
      run.train_pairs += static_cast<int64_t>(ds.train.size());
      run.epochs.push_back({arch, records.back(), wall});
      trained[slot++] = std::move(m);
    }
    run.round_pairs_per_s.push_back(2.0 * ds.train.size() / train_s);
    run.round_cpu_ms_per_pair.push_back(1e3 * (CpuSeconds() - train_cpu0) /
                                        (2.0 * ds.train.size()));

    // Offline bulk scoring of the held-out pairs with this round's models:
    // each operation scores one slice with both.
    const auto score0 = Clock::now();
    for (int op = 0; op < kScoreOpsPerRound; ++op) {
      const size_t n = op % 2 == 0 ? kScoreSmall : kScoreLarge;
      std::vector<std::string> sa, sb;
      for (size_t i = 0; i < n; ++i, ++pos) {
        sa.push_back(as[pos % as.size()]);
        sb.push_back(bs[pos % bs.size()]);
      }
      const auto t0 = Clock::now();
      for (auto& m : trained) {
        EMX_TRACE_SPAN("bench.match_probabilities");
        (void)m->MatchProbabilities(sa, sb);
      }
      (n == kScoreSmall ? run.score_small_ms : run.score_large_ms)
          .push_back(1e3 * SecondsSince(t0));
      run.scored_pairs += static_cast<int64_t>(2 * n);
    }
    run.score_s += SecondsSince(score0);
    last_round_s = SecondsSince(round0);
  }
  run.cores_busy = cpu.CoresBusy();
  return run;
}

}  // namespace

int RunFinetune(const Args& args, Results* out) {
  const emx::pretrain::ZooOptions zoo = BenchZoo(args.work_dir);
  const emx::data::EmDataset ds = MakeDataset(args.seed);
  if (args.self_test) {
    const uint64_t d = DatasetDigest(ds);
    out->NoteText("input_digest", Hex64(d));
    out->Check(DatasetDigest(MakeDataset(args.seed)) == d,
               "self-test: same seed gives identical Walmart-Amazon pairs");
    out->Check(DatasetDigest(MakeDataset(args.seed + 1)) != d,
               "self-test: different seed gives different pairs");
    return 0;
  }
  // Untimed: train or load both cached tokenizers.
  for (Architecture arch : {Architecture::kBert, Architecture::kXlnet}) {
    if (!emx::pretrain::GetTokenizer(arch, zoo).ok()) {
      out->Check(false, "tokenizer cache");
      return 1;
    }
  }
  if (args.reference_only) {
    auto m = Fresh(Architecture::kBert, zoo);
    if (!m) return 1;
    const auto records = m->FineTune(ds, Recipe());
    std::printf("%.17g\n", records.back().train_loss);
    return 0;
  }
  out->NoteText("input_digest", Hex64(DatasetDigest(ds)));

  // Untimed warm-up: the first epoch of a process pays for page faults and
  // allocator growth; one short epoch per architecture absorbs it.
  {
    emx::data::EmDataset small = ds;
    small.train.resize(std::min<size_t>(small.train.size(), 48));
    for (Architecture arch : {Architecture::kBert, Architecture::kXlnet}) {
      if (auto m = Fresh(arch, zoo)) m->FineTune(small, Recipe());
    }
  }

  FinetuneRun run;
  if (args.trace) {
    std::vector<std::string> as, bs;
    for (const auto& p : ds.train) {
      as.push_back(ds.SerializeA(p));
      bs.push_back(ds.SerializeB(p));
    }
    RunLayerProbes(zoo, as, bs, kMaxSeqLen, out);
    const FinetuneRun plain = Measure(ds, zoo, 0.5 * args.seconds, out);
    BeginTracedWindow();
    run = Measure(ds, zoo, 0.5 * args.seconds, out);
    EndTracedWindow(args, out);
    out->Set("trace.overhead_frac",
             (run.train_s / run.train_pairs) /
                     (plain.train_s / plain.train_pairs) -
                 1.0,
             "frac");
  } else {
    run = Measure(ds, zoo, args.seconds, out);
  }
  if (run.epochs.empty()) return 1;
  const std::vector<double>& setup_s = run.setup_s;

  // ---- Correctness ---------------------------------------------------------
  bool finite = true, repeatable = true;
  double first_loss[2] = {NAN, NAN};
  for (const Epoch& e : run.epochs) {
    const int slot = e.arch == Architecture::kBert ? 0 : 1;
    const double loss = e.record.train_loss;
    finite = finite && std::isfinite(loss);
    if (std::isnan(first_loss[slot])) {
      first_loss[slot] = loss;
    } else if (!SameBits(loss, first_loss[slot])) {
      repeatable = false;
    }
  }
  out->Check(finite, "every epoch loss is finite");
  if (args.ref_loss) {
    const double gap = std::fabs(first_loss[0] - *args.ref_loss);
    out->Note("check.loss_gap_vs_1_thread", gap);
    out->Check(gap <= kLossTolerance,
               "BERT epoch loss within 1e-4 of the 1-thread reference");
  }
  out->AddAttempted(static_cast<int64_t>(run.epochs.size() +
                                         run.score_small_ms.size() +
                                         run.score_large_ms.size()));

  // Median over rounds: a slow spell of the host costs one round, not the
  // run's figure.
  const double train_pps = Pct(run.round_pairs_per_s, 0.5);
  const double score_pps = static_cast<double>(run.scored_pairs) / run.score_s;
  out->Set("setup_s", Pct(setup_s, 0.5), "s");
  // Each scoring operation is its own slice.
  out->Set("p50_ms", QuietP50(run.score_small_ms), "ms");
  out->Set("cpu_ms_per_op", Pct(run.round_cpu_ms_per_pair, 0.5), "ms");
  out->Set("peak_rss_mb", PeakRssMb(), "MB");

  double tok = 0, fwd = 0, bwd = 0, opt = 0;
  for (const Epoch& e : run.epochs) {
    tok += e.record.tokenize_seconds;
    fwd += e.record.forward_seconds;
    bwd += e.record.backward_seconds;
    opt += e.record.optimizer_seconds;
  }
  const double n = static_cast<double>(run.epochs.size());
  out->Set("core.tokenize_s", tok / n, "s");
  out->Set("core.forward_s", fwd / n, "s");
  out->Set("core.backward_s", bwd / n, "s");
  out->Set("core.optimizer_s", opt / n, "s");
  out->Set("proc.cpu_cores_busy", run.cores_busy, "count");
  out->Set("finetune.loss_bitwise_repeatable", repeatable ? 1 : 0, "bool");

  out->Named("train_pairs_per_s", train_pps, "1/s");
  out->Named("setup_s", Pct(setup_s, 0.5), "s");
  out->Named("score16_p99_ms", Pct(run.score_small_ms, 0.99), "ms");
  out->Named("score64_p99_ms", Pct(run.score_large_ms, 0.99), "ms");
  out->NoteJson("score16_latency_ms", DistributionJson(run.score_small_ms));
  out->NoteJson("score64_latency_ms", DistributionJson(run.score_large_ms));
  out->Named("score_pairs_per_s", score_pps, "1/s");
  std::string epochs = "[";
  for (const Epoch& e : run.epochs) {
    if (epochs.size() > 1) epochs += ", ";
    epochs += "{\"arch\": " +
              JsonString(emx::models::ArchitectureName(e.arch)) +
              ", \"loss\": " + JsonNumber(e.record.train_loss) +
              ", \"seconds\": " + JsonNumber(e.record.seconds) +
              ", \"wall_s\": " + JsonNumber(e.wall_s) + "}";
  }
  out->NoteJson("epochs", epochs + "]");
  out->NoteJson("setup_s.samples", JsonArray(setup_s));
  out->Note("input.train_pairs", static_cast<double>(ds.train.size()));
  out->Note("input.scored_pairs",
            static_cast<double>(ds.valid.size() + ds.test.size()));
  std::vector<double> tokens;
  {
    auto m = Fresh(Architecture::kBert, zoo);
    for (const auto& p : ds.train) {
      tokens.push_back(RealTokens(m->tokenizer(), ds.SerializeA(p),
                                  ds.SerializeB(p), kMaxSeqLen));
    }
    out->Set("tokenizers.tokens_per_pair", Mean(tokens), "count");
  }
  out->NoteJson("input.tokens_per_pair", DistributionJson(tokens));
  return 0;
}

}  // namespace perfbench
