#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared plumbing for the end-to-end benchmark: arguments, the
// result sink (metrics + correctness checks + report fields), percentile
// helpers, process accounting and seeded input samplers.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pretrain/model_zoo.h"
#include "tokenizers/tokenizer.h"
#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  /// Working directory inside the checkout (zoo cache, model file, trace).
  std::string work_dir = ".bench_build/perfbench";
  /// finetune: BERT epoch loss of the same inputs at 1 thread.
  std::optional<double> ref_loss;
  /// finetune: print the 1-thread reference loss and exit.
  bool reference_only = false;
  /// Generate inputs for this seed and seed + 1 twice each and check that
  /// equal seeds give equal inputs and different seeds different ones.
  bool self_test = false;
};

/// Collects everything one run reports. Metric values keep full precision;
/// report fields are pre-rendered JSON values.
class Results {
 public:
  struct Metric {
    double value;
    std::string unit;
  };

  void Set(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& key, double value);
  void NoteText(const std::string& key, std::string_view value);
  /// Raw JSON value (array/object) under `key`.
  void NoteJson(const std::string& key, std::string json);
  /// A workload metric under its own name (see metric_map.json),
  /// with its unit, reported under "named" whether or not it is gated.
  void Named(const std::string& name, double value, const std::string& unit);

  /// Records a correctness check; a failing check makes the run incorrect.
  void Check(bool ok, const std::string& what);

  void AddAttempted(int64_t n) { attempted_ += n; }
  void AddFailed(int64_t n) { failed_ += n; }

  /// One JSON object: correct/attempted/failed/metrics/report.
  std::string ToJson() const;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, Metric> named_;
  std::map<std::string, std::string> report_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t checks_ = 0;
};

/// Full-precision JSON number ("null" for non-finite values).
std::string JsonNumber(double v);
std::string JsonString(std::string_view s);
std::string JsonArray(const std::vector<double>& v);

/// Linear-interpolated percentile (q in [0, 1]); sorts a copy. Infinite
/// samples (failed requests) sort last. Empty input returns 0.
double Pct(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);

/// The gated latencies are read on the host's quieter stretches: the window
/// is cut into short slices, each slice's p50 is taken, and the fastest
/// tenth of the slices gives the figure. A slow spell of a shared host
/// moves it only when it covers nine tenths of the slices, while a change
/// to the program moves every slice.
double QuietP50(const std::vector<double>& slice_p50s);

/// p50 of `values` within each `slice_s`-second slice of the window, by
/// the matching entries of `times_s`; slices with fewer than 10 values
/// are left out.
std::vector<double> SliceP50s(const std::vector<double>& values,
                              const std::vector<double>& times_s,
                              double slice_s);

/// Events per second over [from_s, to_s), as the median over its whole
/// one-second intervals: a slow spell of the host shorter than half the
/// window moves it less than a plain mean would. Falls back to
/// count / span when the window holds fewer than two whole seconds.
double MedianRatePerSecond(const std::vector<double>& times_s, double from_s,
                           double to_s);

/// Summary {p50, p90, p99, max, mean, n} of a sample as a JSON object.
std::string DistributionJson(const std::vector<double>& v);

/// User + system CPU seconds of this process so far.
double CpuSeconds();
/// Peak resident set size of this process, MB.
double PeakRssMb();

double SecondsSince(Clock::time_point t0);

/// FNV-1a over a byte string, chained through `h`.
uint64_t Fnv1a(std::string_view s, uint64_t h = 1469598103934665603ull);
std::string Hex64(uint64_t v);

/// Samples ranks 0..n-1 with P(r) proportional to 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double s);
  int64_t Sample(emx::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Exponential inter-arrival offsets (seconds) of a Poisson process at
/// `rate` per second over [0, seconds).
std::vector<double> PoissonArrivals(double rate, double seconds, emx::Rng* rng);

/// The bench-zoo geometry shared by every workload: the paper
/// architectures at 2 layers x 64 hidden with a 1000-token vocabulary,
/// random weights (speed does not depend on weight quality), tokenizers
/// trained once and cached under `work_dir`.
emx::pretrain::ZooOptions BenchZoo(const std::string& work_dir);

/// Real (unpadded) tokens of the pair as the serving and training paths
/// encode it under a `max_len` budget.
double RealTokens(const emx::tokenizers::Tokenizer& tokenizer,
                  std::string_view a, std::string_view b, int64_t max_len);

/// CPU seconds / wall seconds since construction: how many cores the
/// process kept busy over a window (getrusage-based).
struct CpuWindow {
  Clock::time_point wall0 = Clock::now();
  double cpu0 = CpuSeconds();
  double CoresBusy() const;
};

int RunPairStream(const Args& args, Results* out);
int RunCatalogChurn(const Args& args, Results* out);
int RunFinetune(const Args& args, Results* out);

/// Per-layer probes shared by every traced run: tokenizer, fp32 and int8
/// model forwards on the workload's own pairs, and the tensor / quant
/// kernels at the model's own shapes.
void RunLayerProbes(const emx::pretrain::ZooOptions& zoo,
                    const std::vector<std::string>& texts_a,
                    const std::vector<std::string>& texts_b,
                    int64_t max_seq_len, Results* out);

/// Starts span recording and marks the beginning of the measured window.
void BeginTracedWindow();
/// Marks the end of the window, stops recording and exports the Perfetto
/// JSON to `<work_dir>/trace_<workload>.json` (reported as "trace_file").
void EndTracedWindow(const Args& args, Results* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
