#ifndef EMX_BENCH_BENCH_COMMON_H_
#define EMX_BENCH_BENCH_COMMON_H_

// Shared configuration for the paper-reproduction bench harness. Every
// table/figure binary uses the same model zoo (pre-trained once, cached on
// disk) and the same per-dataset generation scales, so results are
// comparable across binaries.
//
// Environment knobs:
//   EMX_CACHE_DIR    zoo cache location   (default /tmp/emx_zoo_bench)
//   EMX_SCALE        multiplier on the per-dataset pair scales (default 1)
//   EMX_EPOCHS       fine-tuning epochs for figure benches (default 5)
//   EMX_RUNS         runs to average (paper uses 5; default 1)
//   EMX_PRETRAIN_STEPS  pre-training steps (default 1200)

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/experiment.h"
#include "data/record.h"
#include "pretrain/model_zoo.h"

namespace emx {
namespace bench {

inline double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atof(v);
}

inline int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atoll(v);
}

inline std::string EnvString(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::string(v);
}

/// The shared zoo: scaled-down models pre-trained on the synthetic corpus.
inline pretrain::ZooOptions BenchZoo() {
  pretrain::ZooOptions zoo;
  zoo.cache_dir = EnvString("EMX_CACHE_DIR", "/tmp/emx_zoo_bench");
  zoo.vocab_size = 1000;
  zoo.corpus.num_documents = 2000;
  zoo.pretrain.steps = EnvInt("EMX_PRETRAIN_STEPS", 1200);
  zoo.pretrain.batch_size = 16;
  zoo.pretrain.data.max_seq_len = 32;
  zoo.pretrain.learning_rate = 1e-3f;
  return zoo;
}

/// Pair-generation scale per dataset: chosen so CPU fine-tuning of all four
/// architectures stays tractable while every dataset keeps hundreds of
/// pairs. iTunes-Amazon is small enough to run at full paper size.
inline double DatasetScale(data::DatasetId id) {
  const double mult = EnvDouble("EMX_SCALE", 1.0);
  switch (id) {
    case data::DatasetId::kAbtBuy:
      return 0.05 * mult;
    case data::DatasetId::kItunesAmazon:
      return 1.0 * mult;
    case data::DatasetId::kWalmartAmazon:
      return 0.05 * mult;
    case data::DatasetId::kDblpAcm:
      return 0.04 * mult;
    case data::DatasetId::kDblpScholar:
      return 0.02 * mult;
  }
  return 0.05 * mult;
}

/// Token budget per dataset ("empirically defined based on the longest
/// data rows", paper Section 5.2.2). Abt-Buy's long descriptions are
/// capped at the models' position-table size (64); longest-first pair
/// truncation keeps the head of both entities.
inline int64_t DatasetSeqLen(data::DatasetId id) {
  return id == data::DatasetId::kAbtBuy ? 64 : 56;
}

/// Fine-tuning recipe shared by the figure/table benches.
inline core::FineTuneOptions BenchFineTune(data::DatasetId id) {
  core::FineTuneOptions ft;
  ft.epochs = EnvInt("EMX_EPOCHS", 5);
  ft.batch_size = 16;
  ft.learning_rate = 1e-3f;
  ft.max_seq_len = DatasetSeqLen(id);
  return ft;
}

inline core::ExperimentOptions BenchExperiment(data::DatasetId id) {
  core::ExperimentOptions opts;
  opts.dataset.scale = DatasetScale(id);
  opts.zoo = BenchZoo();
  opts.fine_tune = BenchFineTune(id);
  opts.runs = EnvInt("EMX_RUNS", 1);
  return opts;
}

/// Runs one paper figure (F1-vs-epoch for all four architectures) and
/// prints it as an aligned table.
inline void RunFigureBench(const char* figure_name, data::DatasetId id) {
  const auto& spec = data::SpecFor(id);
  core::ExperimentOptions opts = BenchExperiment(id);
  std::printf("%s — dataset %s (scale %.3f, %lld epochs, %lld run(s))\n",
              figure_name, spec.name, opts.dataset.scale,
              static_cast<long long>(opts.fine_tune.epochs),
              static_cast<long long>(opts.runs));
  std::fflush(stdout);
  auto series = core::RunAllArchitectures(id, opts);
  std::printf("%s\n", core::FormatFigure(
                          std::string("F1 (test set, %) vs fine-tuning epoch"),
                          series)
                          .c_str());
  std::printf("Paper reference: transformers reach within ~5%% of peak after "
              "1 epoch (except iTunes-Amazon)\nand converge by epoch 3-5; "
              "RoBERTa best on average, DistilBERT lowest-but-close.\n");
}

}  // namespace bench
}  // namespace emx

#endif  // EMX_BENCH_BENCH_COMMON_H_
