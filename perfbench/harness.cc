#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "obs/trace.h"

namespace perfbench {

void Results::Set(const std::string& name, double value,
                  const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Results::Note(const std::string& key, double value) {
  report_[key] = JsonNumber(value);
}

void Results::NoteText(const std::string& key, std::string_view value) {
  report_[key] = JsonString(value);
}

void Results::NoteJson(const std::string& key, std::string json) {
  report_[key] = std::move(json);
}

void Results::Named(const std::string& name, double value,
                    const std::string& unit) {
  named_[name] = Metric{value, unit};
}

void Results::Check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) failures_.push_back(what);
  std::fprintf(stderr, "check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
}

namespace {

std::string MetricsJson(const std::map<std::string, Results::Metric>& m) {
  std::string s = "{";
  for (const auto& [name, metric] : m) {
    if (s.size() > 1) s += ", ";
    s += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
         ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return s + "}";
}

}  // namespace

std::string Results::ToJson() const {
  std::map<std::string, Metric> named = named_;
  named["error_frac"] = Metric{
      attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 0, "frac"};
  named["peak_rss_mb"] = Metric{PeakRssMb(), "MB"};
  std::string s = "{\"correct\": ";
  s += failures_.empty() && checks_ > 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted_);
  s += ", \"failed\": " + std::to_string(failed_);
  s += ", \"metrics\": " + MetricsJson(metrics_);
  s += ", \"report\": {\"named\": " + MetricsJson(named);
  for (const auto& [key, json] : report_) {
    s += ", " + JsonString(key) + ": " + json;
  }
  s += ", \"checks\": " + std::to_string(checks_);
  s += ", \"check_failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) s += ", ";
    s += JsonString(failures_[i]);
  }
  s += "]}}";
  return s;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonArray(const std::vector<double>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ", ";
    s += JsonNumber(v[i]);
  }
  return s + "]";
}

double Pct(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  // Written so an infinite sample (a failed request) yields inf, not nan.
  if (frac == 0 || v[hi] == v[lo]) return v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double QuietP50(const std::vector<double>& slice_p50s) {
  return Pct(slice_p50s, 0.1);
}

std::vector<double> SliceP50s(const std::vector<double>& values,
                              const std::vector<double>& times_s,
                              double slice_s) {
  std::map<int64_t, std::vector<double>> slices;
  for (size_t i = 0; i < values.size() && i < times_s.size(); ++i) {
    slices[static_cast<int64_t>(std::floor(times_s[i] / slice_s))].push_back(
        values[i]);
  }
  std::vector<double> p50s;
  for (const auto& [slice, v] : slices) {
    if (v.size() >= 10) p50s.push_back(Pct(v, 0.5));
  }
  return p50s;
}

double MedianRatePerSecond(const std::vector<double>& times_s, double from_s,
                           double to_s) {
  const int64_t bins = static_cast<int64_t>(to_s - from_s);
  if (bins < 2) {
    int64_t n = 0;
    for (double t : times_s) n += t >= from_s && t < to_s ? 1 : 0;
    return to_s > from_s ? static_cast<double>(n) / (to_s - from_s) : 0;
  }
  std::vector<double> counts(static_cast<size_t>(bins), 0.0);
  for (double t : times_s) {
    const double k = std::floor(t - from_s);
    if (k >= 0 && k < static_cast<double>(bins)) {
      counts[static_cast<size_t>(k)] += 1;
    }
  }
  return Pct(counts, 0.5);
}

std::string DistributionJson(const std::vector<double>& v) {
  return "{\"n\": " + std::to_string(v.size()) +
         ", \"mean\": " + JsonNumber(Mean(v)) +
         ", \"p50\": " + JsonNumber(Pct(v, 0.5)) +
         ", \"p90\": " + JsonNumber(Pct(v, 0.9)) +
         ", \"p99\": " + JsonNumber(Pct(v, 0.99)) +
         ", \"max\": " + JsonNumber(Pct(v, 1.0)) + "}";
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double CpuWindow::CoresBusy() const {
  const double wall = SecondsSince(wall0);
  return wall > 0 ? (CpuSeconds() - cpu0) / wall : 0;
}

double RealTokens(const emx::tokenizers::Tokenizer& tokenizer,
                  std::string_view a, std::string_view b, int64_t max_len) {
  const auto enc = tokenizer.EncodePair(a, b, max_len);
  double real = 0;
  for (float padded : enc.attention_mask) real += padded == 0 ? 1 : 0;
  return real;
}

uint64_t Fnv1a(std::string_view s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  // Separator so ("ab","c") and ("a","bc") chain differently.
  h ^= 0xff;
  h *= 1099511628211ull;
  return h;
}

std::string Hex64(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

ZipfSampler::ZipfSampler(int64_t n, double s) {
  cdf_.resize(static_cast<size_t>(n));
  double total = 0;
  for (int64_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[static_cast<size_t>(r)] = total;
  }
  for (double& c : cdf_) c /= total;
}

int64_t ZipfSampler::Sample(emx::Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<int64_t>(static_cast<int64_t>(it - cdf_.begin()),
                           static_cast<int64_t>(cdf_.size()) - 1);
}

std::vector<double> PoissonArrivals(double rate, double seconds,
                                    emx::Rng* rng) {
  std::vector<double> t;
  double now = 0;
  while (true) {
    now += -std::log(1.0 - rng->NextDouble()) / rate;
    if (now >= seconds) break;
    t.push_back(now);
  }
  return t;
}

emx::pretrain::ZooOptions BenchZoo(const std::string& work_dir) {
  emx::pretrain::ZooOptions zoo;
  zoo.cache_dir = work_dir + "/zoo";
  zoo.vocab_size = 1000;
  zoo.corpus.num_documents = 2000;
  zoo.pretrain.batch_size = 16;
  zoo.pretrain.data.max_seq_len = 32;
  zoo.skip_pretraining = true;
  return zoo;
}

namespace {
double g_window_cpu0 = 0;
}  // namespace

void BeginTracedWindow() {
  g_window_cpu0 = CpuSeconds();
  emx::obs::ClearTrace();
  emx::obs::ObsOptions options;
  // ~38 MB per recording thread; holds a traced window of every workload
  // (finetune's main thread records ~40k kernel spans per second).
  options.max_events_per_thread = size_t{1} << 19;
  emx::obs::StartProfiling(options);
  emx::obs::TraceInstant("bench.window_begin");
}

void EndTracedWindow(const Args& args, Results* out) {
  emx::obs::TraceInstant("bench.window_end");
  emx::obs::StopProfiling();
  out->Note("window_cpu_s", CpuSeconds() - g_window_cpu0);
  const std::string path = args.work_dir + "/trace_" + args.workload + ".json";
  out->Check(emx::obs::WriteChromeTrace(path), "trace export to " + path);
  out->NoteText("trace_file", path);
  out->Note("trace_events", static_cast<double>(emx::obs::TraceEventCount()));
  out->Note("trace_dropped_events",
            static_cast<double>(emx::obs::TraceDroppedCount()));
}

}  // namespace perfbench
