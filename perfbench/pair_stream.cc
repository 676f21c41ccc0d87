// pair_stream: the online pairwise path a matcher_server user waits on.
//
// An open-loop generator sends Poisson arrivals over loopback sockets to a
// FleetRouter (defaults: consistent hash, hedging on) in front of two
// MatchServer shards, each wrapping an fp32 MatcherEngine with split
// caching off. Pairs mix all five generated EM datasets and are recombined
// across records, so nearly every pair is unique and the token LRU mostly
// misses. (With the bench zoo's 1000-token vocabulary nearly every pair
// fills the 64-token budget; the report line carries the measured
// tokens-per-pair distribution.)

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/entity_matcher.h"
#include "data/generators.h"
#include "harness.h"
#include "net/fleet_router.h"
#include "net/match_server.h"
#include "obs/trace.h"
#include "quant/model_file.h"
#include "serve/matcher_engine.h"

namespace perfbench {
namespace {

using emx::net::RouteResult;

constexpr int kShards = 2;
constexpr int64_t kMaxSeqLen = 64;
constexpr int kSetupRepeats = 25;
// Offered rates are fixed so that runs and commits compare like for like.
// Sized on a 4-core Xeon where the closed-loop saturation phase measures
// about kCapacity pairs/s: light is 1/4 of that, heavy 0.4 (at 3/4 the
// host's slow spells, which cost it up to half its capacity, push the
// queue past the knee and the heavy figures turn bimodal). The ladder
// probes goodput from above heavy up to where the slow spells saturate.
constexpr double kCapacity = 1000;
constexpr double kLightRate = 0.25 * kCapacity;
constexpr double kHeavyRate = 0.4 * kCapacity;
constexpr double kLadder[] = {0.56 * kCapacity, 0.68 * kCapacity,
                              0.8 * kCapacity};
/// Shares of the window: light and heavy (alternating in kSlices slices
/// each), the fixed-rate ladder, and the closed-loop saturation phase.
constexpr double kLoadShare = 0.65;
constexpr double kLadderShare = 0.1;
constexpr double kSaturationShare = 0.25;
constexpr int kSlices = 16;
constexpr double kWarmupSeconds = 1.5;
/// Requests the saturation phase keeps in flight: enough to fill both
/// shards' micro-batches, well under the router's admission limit.
constexpr size_t kSaturationOutstanding = 64;
/// Latency limit: a rung counts towards goodput only with p99 within it.
constexpr double kLatencyLimitMs = 50;
/// A rung stops sending once this many requests are outstanding: the
/// backlog is growing, and going on would only run into the router's
/// admission limit and turn the probe into failed requests.
constexpr int64_t kBacklogAbort = 64;
/// Pairs checked against the grad-free EntityMatcher reference.
constexpr size_t kCheckPairs = 64;
constexpr double kProbTolerance = 1e-5;

/// Per-dataset generation scale: the bench zoo's sizes (hundreds of pairs
/// per dataset, iTunes-Amazon at full size).
double DatasetScale(emx::data::DatasetId id) {
  switch (id) {
    case emx::data::DatasetId::kAbtBuy:
      return 0.05;
    case emx::data::DatasetId::kItunesAmazon:
      return 1.0;
    case emx::data::DatasetId::kWalmartAmazon:
      return 0.05;
    case emx::data::DatasetId::kDblpAcm:
      return 0.04;
    case emx::data::DatasetId::kDblpScholar:
      return 0.02;
  }
  return 0.05;
}

/// Serialized left/right records of every generated pair, per dataset.
struct PairPool {
  std::vector<std::string> names;
  std::vector<std::vector<std::string>> a, b;
};

PairPool BuildPool(uint64_t seed) {
  PairPool pool;
  for (const auto& spec : emx::data::AllDatasetSpecs()) {
    emx::data::GeneratorOptions gen;
    gen.seed = seed * 1000003ull + static_cast<uint64_t>(spec.id);
    gen.scale = DatasetScale(spec.id);
    const emx::data::EmDataset ds = emx::data::GenerateDataset(spec.id, gen);
    pool.names.push_back(spec.name);
    pool.a.emplace_back();
    pool.b.emplace_back();
    for (const auto* split : {&ds.train, &ds.valid, &ds.test}) {
      for (const auto& p : *split) {
        pool.a.back().push_back(ds.SerializeA(p));
        pool.b.back().push_back(ds.SerializeB(p));
      }
    }
  }
  return pool;
}

struct Request {
  const std::string* a;
  const std::string* b;
  int dataset;
};

/// Request i draws a dataset uniformly, then a left and a right record of
/// that dataset independently: same length profile as the labeled pairs,
/// but almost never a repeated pair.
std::vector<Request> BuildStream(const PairPool& pool, size_t n,
                                 uint64_t seed) {
  emx::Rng rng(seed ^ 0x9a1157ull);
  std::vector<Request> stream;
  stream.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int d = static_cast<int>(rng.NextUint64(pool.a.size()));
    const auto& as = pool.a[static_cast<size_t>(d)];
    const auto& bs = pool.b[static_cast<size_t>(d)];
    stream.push_back(
        {&as[rng.NextUint64(as.size())], &bs[rng.NextUint64(bs.size())], d});
  }
  return stream;
}

uint64_t StreamDigest(const std::vector<Request>& stream) {
  uint64_t h = Fnv1a("pair_stream");
  for (const Request& r : stream) h = Fnv1a(*r.b, Fnv1a(*r.a, h));
  return h;
}

/// Two socket shards behind a router. Destruction order matters: the
/// router goes first, then the servers, then the engines they wrap.
struct Fleet {
  std::unique_ptr<emx::core::EntityMatcher> matcher;
  std::vector<std::unique_ptr<emx::serve::MatcherEngine>> engines;
  std::vector<std::unique_ptr<emx::net::MatchServer>> servers;
  std::unique_ptr<emx::net::FleetRouter> router;
  double model_open_ms = 0;

  ~Fleet() {
    if (router) router->Shutdown();
    router.reset();
    for (auto& s : servers) s->Stop();
    servers.clear();
    for (auto& e : engines) e->Shutdown();
    engines.clear();
  }
};

/// Everything a user of matcher_server --model waits for before the first
/// answer: build the matcher, map the model container, start the shards,
/// connect the router, serve one pair.
std::unique_ptr<Fleet> StartFleet(const emx::pretrain::ZooOptions& zoo,
                                  const std::string& model_path,
                                  const Request& first, Results* out) {
  auto fleet = std::make_unique<Fleet>();
  auto bundle =
      emx::pretrain::GetPretrained(emx::models::Architecture::kBert, zoo);
  if (!bundle.ok()) {
    out->Check(false, "zoo: " + bundle.status().ToString());
    return nullptr;
  }
  fleet->matcher =
      std::make_unique<emx::core::EntityMatcher>(std::move(bundle).value());
  fleet->matcher->set_eval_max_seq_len(kMaxSeqLen);
  const auto open0 = Clock::now();
  {
    EMX_TRACE_SPAN("bench.model_open");
    auto info =
        emx::quant::LoadModelFileMapped(fleet->matcher.get(), model_path);
    if (!info.ok()) {
      out->Check(false, "model open: " + info.status().ToString());
      return nullptr;
    }
  }
  fleet->model_open_ms = 1e3 * SecondsSince(open0);

  emx::serve::EngineOptions eopts;
  eopts.max_seq_len = kMaxSeqLen;
  auto router = std::make_unique<emx::net::FleetRouter>();
  for (int i = 0; i < kShards; ++i) {
    fleet->engines.push_back(std::make_unique<emx::serve::MatcherEngine>(
        fleet->matcher.get(), eopts));
    fleet->servers.push_back(std::make_unique<emx::net::MatchServer>(
        fleet->engines.back().get()));
    emx::Status st = fleet->servers.back()->Start();
    if (st.ok()) st = router->AddRemoteShard(fleet->servers.back()->port());
    if (!st.ok()) {
      out->Check(false, "shard start: " + st.ToString());
      return nullptr;
    }
  }
  fleet->router = std::move(router);
  const RouteResult r = fleet->router->Match(*first.a, *first.b);
  if (!r.status.ok()) {
    out->Check(false, "first request: " + r.status.ToString());
    return nullptr;
  }
  return fleet;
}

/// One open-loop phase at a fixed offered rate.
struct Phase {
  double rate = 0;
  double seconds = 0;
  int64_t sent = 0;
  int64_t failed = 0;
  /// Scheduled-send to completion, ms, in send order; inf when failed.
  std::vector<double> latency_ms;
  /// How late the generator sent each request, µs.
  std::vector<double> late_us;
  std::vector<double> queue_us, compute_us, wire_us, server_overhead_us;
  int64_t repeats = 0;  // requests whose exact pair was sent before
  bool aborted = false;  // stopped early on a growing backlog
  /// p50 of each appended slice, ms.
  std::vector<double> slice_p50_ms;

  double P(double q) const { return Pct(latency_ms, q); }
  double QuietP50() const { return perfbench::QuietP50(slice_p50_ms); }
  void Append(const Phase& o) {
    slice_p50_ms.push_back(o.P(0.5));
    rate = o.rate;
    seconds += o.seconds;
    aborted = aborted || o.aborted;
    sent += o.sent;
    failed += o.failed;
    repeats += o.repeats;
    for (auto [to, from] : {std::pair{&latency_ms, &o.latency_ms},
                            {&late_us, &o.late_us},
                            {&queue_us, &o.queue_us},
                            {&compute_us, &o.compute_us},
                            {&wire_us, &o.wire_us},
                            {&server_overhead_us, &o.server_overhead_us}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
  }
  /// The later requests waited much longer than the early ones: arrivals
  /// outpace service and the queue grows without bound.
  bool BacklogGrowing() const {
    const size_t n = latency_ms.size(), k = n / 5;
    if (aborted) return true;
    if (k < 5) return false;
    const std::vector<double> head(latency_ms.begin(), latency_ms.begin() + k);
    const std::vector<double> tail(latency_ms.end() - k, latency_ms.end());
    return Pct(tail, 0.5) > std::max(2 * Pct(head, 0.5), kLatencyLimitMs);
  }
};

Phase RunOpenLoop(emx::net::FleetRouter* router,
                  const std::vector<Request>& stream, size_t* cursor,
                  std::set<std::pair<const std::string*, const std::string*>>*
                      seen,
                  double rate, double seconds, uint64_t seed) {
  Phase ph;
  ph.rate = rate;
  emx::Rng rng(seed);
  const std::vector<double> arrivals = PoissonArrivals(rate, seconds, &rng);

  struct Pending {
    Clock::time_point scheduled, submitted;
    std::future<RouteResult> fut;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool sending_done = false;

  // Harvests in send order; each latency comes from the router's own
  // completion timestamp, so waiting in order does not inflate it.
  std::thread collector([&] {
    while (true) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || sending_done; });
        if (pending.empty()) return;
        p = std::move(pending.front());
        pending.pop_front();
      }
      const RouteResult r = p.fut.get();
      const double late_us =
          std::chrono::duration<double, std::micro>(p.submitted - p.scheduled)
              .count();
      ph.late_us.push_back(late_us);
      if (!r.status.ok()) {
        ++ph.failed;
        ph.latency_ms.push_back(INFINITY);
        continue;
      }
      ph.latency_ms.push_back((late_us + r.total_us) / 1e3);
      ph.queue_us.push_back(r.queue_us);
      ph.compute_us.push_back(r.infer_us - r.queue_us);
      ph.wire_us.push_back(r.total_us - r.server_us);
      ph.server_overhead_us.push_back(r.server_us - r.infer_us);
    }
  });

  const Clock::time_point start = Clock::now();
  for (double t : arrivals) {
    const auto scheduled =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(t));
    std::this_thread::sleep_until(scheduled);
    if (router->in_flight() >= kBacklogAbort) {
      ph.aborted = true;
      break;
    }
    const Request& req = stream[(*cursor)++ % stream.size()];
    if (!seen->insert({req.a, req.b}).second) ++ph.repeats;
    Pending p;
    p.scheduled = scheduled;
    p.submitted = Clock::now();
    {
      EMX_TRACE_SPAN("bench.router_submit");
      p.fut = router->Submit(*req.a, *req.b);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back(std::move(p));
    }
    cv.notify_one();
  }
  ph.seconds = std::max(seconds, SecondsSince(start));
  {
    std::lock_guard<std::mutex> lock(mu);
    sending_done = true;
  }
  cv.notify_one();
  collector.join();
  ph.sent = static_cast<int64_t>(ph.latency_ms.size());
  std::fprintf(stderr,
               "phase rate %6.0f/s sent %6lld failed %4lld p50 %8.2fms p99 "
               "%8.2fms late_p99 %7.0fus wire_p50 %6.0fus queue_p50 %7.0fus "
               "compute_p50 %7.0fus backlog %d\n",
               rate, static_cast<long long>(ph.sent),
               static_cast<long long>(ph.failed), ph.P(0.5), ph.P(0.99),
               Pct(ph.late_us, 0.99), Pct(ph.wire_us, 0.5),
               Pct(ph.queue_us, 0.5), Pct(ph.compute_us, 0.5),
               ph.BacklogGrowing() ? 1 : 0);
  return ph;
}

/// Closed loop: keeps kSaturationOutstanding requests in flight for
/// `seconds`. After the first kWarmupSeconds it measures the answer rate
/// (median over whole seconds), the fleet's capacity on this host, and the
/// process CPU time per answered pair, its cost; unlike the rate, the cost
/// does not fall when a co-tenant takes cores away. The uncounted start
/// lets the router's hedge threshold (a percentile of recent latencies)
/// adapt to saturation latency; before it does, most requests get hedged
/// and the duplicates eat the capacity being measured.
struct Saturation {
  double rps = 0;
  double cpu_ms_per_pair = 0;
  int64_t sent = 0, failed = 0;
};

Saturation RunSaturation(emx::net::FleetRouter* router,
                         const std::vector<Request>& stream, size_t* cursor,
                         double seconds) {
  Saturation sat;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::future<RouteResult>> pending;
  bool sending_done = false;
  std::vector<double> answered_s;  // seconds from start, per answer
  const Clock::time_point start = Clock::now();
  double warm_cpu_s = CpuSeconds();
  size_t warm_answers = 0;
  bool warm = false;
  std::thread collector([&] {
    while (true) {
      std::future<RouteResult> fut;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || sending_done; });
        if (pending.empty()) return;
        fut = std::move(pending.front());
        pending.pop_front();
      }
      const bool ok = fut.get().status.ok();
      std::lock_guard<std::mutex> lock(mu);
      if (ok) {
        answered_s.push_back(SecondsSince(start));
      } else {
        ++sat.failed;
      }
      cv.notify_all();
    }
  });
  while (SecondsSince(start) < seconds) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return pending.size() < kSaturationOutstanding; });
      if (!warm && SecondsSince(start) >= kWarmupSeconds) {
        warm = true;
        warm_cpu_s = CpuSeconds();
        warm_answers = answered_s.size();
      }
    }
    const Request& req = stream[(*cursor)++ % stream.size()];
    std::future<RouteResult> fut;
    {
      EMX_TRACE_SPAN("bench.router_submit");
      fut = router->Submit(*req.a, *req.b);
    }
    ++sat.sent;
    std::lock_guard<std::mutex> lock(mu);
    pending.push_back(std::move(fut));
    cv.notify_all();
  }
  const double end_s = SecondsSince(start);
  {
    std::lock_guard<std::mutex> lock(mu);
    sending_done = true;
  }
  cv.notify_all();
  collector.join();
  sat.rps = MedianRatePerSecond(answered_s, std::min(kWarmupSeconds, end_s / 2),
                                end_s);
  const size_t answers = answered_s.size() - warm_answers;
  sat.cpu_ms_per_pair =
      answers > 0 ? 1e3 * (CpuSeconds() - warm_cpu_s) / answers : 0;
  std::fprintf(stderr,
               "saturation %lld outstanding: %.1f answers/s, %.3f CPU ms "
               "per pair\n",
               static_cast<long long>(kSaturationOutstanding), sat.rps,
               sat.cpu_ms_per_pair);
  return sat;
}

struct StreamRun {
  Phase light, heavy;
  std::vector<Phase> ladder;
  double goodput_rps = 0;
  Saturation saturation;
  double cores_busy = 0;
  int64_t submitted = 0, hedges = 0, hedge_wasted = 0;

  std::vector<const Phase*> all() const {
    std::vector<const Phase*> v = {&light, &heavy};
    for (const Phase& p : ladder) v.push_back(&p);
    return v;
  }
};

/// Goodput: the highest rate, climbing in order, whose p99 meets the limit
/// with no growing backlog. A failed request has infinite latency, so it
/// counts as missing the limit.
double Goodput(const std::vector<Phase>& rungs) {
  double rate = 0;
  for (const Phase& p : rungs) {
    if (p.P(0.99) > kLatencyLimitMs || p.BacklogGrowing()) break;
    rate = p.rate;
  }
  return rate;
}

StreamRun Measure(Fleet* fleet, const std::vector<Request>& stream,
                  size_t* cursor,
                  std::set<std::pair<const std::string*, const std::string*>>*
                      seen,
                  double seconds, uint64_t seed) {
  StreamRun run;
  auto* router = fleet->router.get();
  auto counter = [&](const char* name) {
    return router->registry()->GetCounter(name)->Value();
  };
  const int64_t submitted0 = counter("router.submitted");
  const int64_t hedges0 = counter("router.hedges");
  const int64_t wasted0 = counter("router.hedge_wasted");
  // Warm-up at the heavy rate, not counted: the first second of load pays
  // for thread wake-ups, page faults and an empty hedge-latency window.
  RunOpenLoop(router, stream, cursor, seen, kHeavyRate, kWarmupSeconds,
              seed * 131 + 99);
  CpuWindow cpu;
  // Light and heavy alternate in short slices so that a slow spell of the
  // host lands on both instead of skewing one.
  for (int slice = 0; slice < kSlices; ++slice) {
    const double slice_s = kLoadShare * seconds / (2 * kSlices);
    run.light.Append(RunOpenLoop(router, stream, cursor, seen, kLightRate,
                                 slice_s, seed * 131 + 2 * slice));
    run.heavy.Append(RunOpenLoop(router, stream, cursor, seen, kHeavyRate,
                                 slice_s, seed * 131 + 2 * slice + 1));
  }
  const double rung_s = kLadderShare * seconds / std::size(kLadder);
  int rung = 0;
  for (double rate : kLadder) {
    run.ladder.push_back(RunOpenLoop(router, stream, cursor, seen, rate,
                                     rung_s, seed * 131 + 100 + rung++));
    const Phase& p = run.ladder.back();
    if (p.BacklogGrowing()) break;
  }
  run.saturation =
      RunSaturation(router, stream, cursor, kSaturationShare * seconds);
  run.cores_busy = cpu.CoresBusy();
  // The light and heavy load points are the ladder's lowest rungs.
  std::vector<Phase> rungs = {run.light, run.heavy};
  rungs.insert(rungs.end(), run.ladder.begin(), run.ladder.end());
  run.goodput_rps = Goodput(rungs);
  run.submitted = counter("router.submitted") - submitted0;
  run.hedges = counter("router.hedges") - hedges0;
  run.hedge_wasted = counter("router.hedge_wasted") - wasted0;
  return run;
}

}  // namespace

int RunPairStream(const Args& args, Results* out) {
  const emx::pretrain::ZooOptions zoo = BenchZoo(args.work_dir);

  // ---- Inputs (from the seed only) ---------------------------------------
  const PairPool pool = BuildPool(args.seed);
  const size_t stream_len = static_cast<size_t>(
      (kLoadShare / 2 * (kLightRate + kHeavyRate) +
       kLadderShare * kLadder[std::size(kLadder) - 1] +
       kSaturationShare * 1.5 * kCapacity) *
          args.seconds * 1.5 +
      kCheckPairs + 1000);
  const std::vector<Request> stream = BuildStream(pool, stream_len, args.seed);
  out->NoteText("input_digest", Hex64(StreamDigest(stream)));
  if (args.self_test) {
    const PairPool again = BuildPool(args.seed);
    const PairPool other = BuildPool(args.seed + 1);
    const uint64_t d = StreamDigest(stream);
    out->Check(StreamDigest(BuildStream(again, stream_len, args.seed)) == d,
               "self-test: same seed gives identical pair stream");
    out->Check(StreamDigest(BuildStream(other, stream_len, args.seed + 1)) != d,
               "self-test: different seed gives a different pair stream");
    return 0;
  }

  // ---- Untimed preparation: tokenizer cache and the model container ------
  const std::string model_path = args.work_dir + "/pair_stream_model.emxm";
  {
    auto bundle =
        emx::pretrain::GetPretrained(emx::models::Architecture::kBert, zoo);
    if (!bundle.ok()) {
      out->Check(false, "zoo: " + bundle.status().ToString());
      return 1;
    }
    emx::core::EntityMatcher m(std::move(bundle).value());
    const emx::Status st = emx::quant::SaveModelFile(&m, model_path);
    if (!st.ok()) {
      out->Check(false, "model save: " + st.ToString());
      return 1;
    }
  }

  // ---- Setup, repeated; the last fleet stays up --------------------------
  std::vector<double> setup_s, open_ms;
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fleet.reset();
    const auto t0 = Clock::now();
    fleet = StartFleet(zoo, model_path, stream[0], out);
    if (!fleet) return 1;
    setup_s.push_back(SecondsSince(t0));
    open_ms.push_back(fleet->model_open_ms);
  }

  // ---- Correctness: fleet answers == grad-free reference -----------------
  {
    std::vector<std::string> as, bs;
    std::vector<double> served;
    for (size_t i = 0; i < kCheckPairs; ++i) {
      as.push_back(*stream[i].a);
      bs.push_back(*stream[i].b);
      const RouteResult r = fleet->router->Match(as.back(), bs.back());
      served.push_back(r.status.ok() ? r.probability : NAN);
    }
    const std::vector<double> ref = fleet->matcher->MatchProbabilities(as, bs);
    double worst = 0;
    for (size_t i = 0; i < kCheckPairs; ++i) {
      const double d = std::fabs(served[i] - ref[i]);
      worst = std::isnan(d) ? INFINITY : std::max(worst, d);
    }
    out->Note("check.max_abs_dprob", worst);
    out->Check(worst <= kProbTolerance,
               "fleet probabilities match EntityMatcher::MatchProbabilities "
               "within 1e-5 on " + std::to_string(kCheckPairs) + " pairs");
  }

  // ---- Measured window(s) ------------------------------------------------
  size_t cursor = kCheckPairs;
  std::set<std::pair<const std::string*, const std::string*>> seen;
  StreamRun run;
  if (args.trace) {
    std::vector<std::string> as, bs;
    for (size_t i = 0; i < 256; ++i) {
      as.push_back(*stream[i].a);
      bs.push_back(*stream[i].b);
    }
    RunLayerProbes(zoo, as, bs, kMaxSeqLen, out);
    const StreamRun plain =
        Measure(fleet.get(), stream, &cursor, &seen, 0.5 * args.seconds,
                args.seed + 7);
    BeginTracedWindow();
    run = Measure(fleet.get(), stream, &cursor, &seen, 0.5 * args.seconds,
                  args.seed);
    EndTracedWindow(args, out);
    out->Set("trace.overhead_frac",
             run.light.QuietP50() / plain.light.QuietP50() - 1.0, "frac");
  } else {
    run = Measure(fleet.get(), stream, &cursor, &seen, args.seconds, args.seed);
  }

  // ---- Aggregate ---------------------------------------------------------
  int64_t open_loop_sent = 0, failed = run.saturation.failed, repeats = 0;
  std::vector<double> late_us;
  for (const Phase* p : run.all()) {
    open_loop_sent += p->sent;
    failed += p->failed;
    repeats += p->repeats;
    late_us.insert(late_us.end(), p->late_us.begin(), p->late_us.end());
  }
  const int64_t sent = open_loop_sent + run.saturation.sent;
  out->AddAttempted(sent + static_cast<int64_t>(kCheckPairs));
  out->AddFailed(failed);
  out->Check(failed == 0, "every measured request was served");

  out->Set("setup_s", Pct(setup_s, 0.5), "s");
  out->Set("p50_ms", run.light.QuietP50(), "ms");
  out->Set("cpu_ms_per_op", run.saturation.cpu_ms_per_pair, "ms");
  out->Set("peak_rss_mb", PeakRssMb(), "MB");

  std::vector<double> tokens;
  for (size_t i = 0; i < 2000 && i < stream.size(); ++i) {
    tokens.push_back(RealTokens(fleet->matcher->tokenizer(), *stream[i].a,
                                *stream[i].b, kMaxSeqLen));
  }
  double batches = 0, batch_mean = 0, hits = 0, lookups = 0, phits = 0,
         plookups = 0;
  for (const auto& e : fleet->engines) {
    const auto m = e->Metrics();
    batches += static_cast<double>(m.batches);
    batch_mean += m.mean_batch_size * static_cast<double>(m.batches);
    hits += static_cast<double>(m.cache_hits);
    lookups += static_cast<double>(m.cache_hits + m.cache_misses);
    phits += static_cast<double>(m.prefix_hits);
    plookups += static_cast<double>(m.prefix_hits + m.prefix_misses);
  }
  out->Set("tokenizers.tokens_per_pair", Mean(tokens), "count");
  out->Set("serve.queue_us_p50", Pct(run.heavy.queue_us, 0.5), "us");
  out->Set("serve.queue_us_p99", Pct(run.heavy.queue_us, 0.99), "us");
  out->Set("serve.infer_us_p50", Pct(run.light.compute_us, 0.5), "us");
  out->Set("serve.batch_size_mean", batches > 0 ? batch_mean / batches : 0,
           "count");
  out->Set("serve.token_cache_hit_rate", lookups > 0 ? hits / lookups : 0,
           "frac");
  out->Set("serve.prefix_hit_rate", plookups > 0 ? phits / plookups : 0,
           "frac");
  out->Set("net.wire_us_p50", Pct(run.light.wire_us, 0.5), "us");
  out->Set("net.server_overhead_us", Pct(run.light.server_overhead_us, 0.5),
           "us");
  out->Set("net.hedge_frac",
           run.submitted > 0 ? static_cast<double>(run.hedges) / run.submitted
                             : 0,
           "frac");
  out->Set("net.hedge_wasted_frac",
           run.hedges > 0 ? static_cast<double>(run.hedge_wasted) / run.hedges
                          : 0,
           "frac");
  out->Set("io.model_open_ms", Pct(open_ms, 0.5), "ms");
  out->Set("gen.late_us_p99", Pct(late_us, 0.99), "us");
  out->Set("proc.cpu_cores_busy", run.cores_busy, "count");

  // ---- Report: the workload's own names and input properties ------------
  out->Named("pair_p50_ms.light", run.light.QuietP50(), "ms");
  out->Named("pair_p99_ms.light", run.light.P(0.99), "ms");
  out->Named("pair_p50_ms.heavy", run.heavy.QuietP50(), "ms");
  out->Named("pair_p99_ms.heavy", run.heavy.P(0.99), "ms");
  out->Named("pair_goodput_rps", run.goodput_rps, "1/s");
  out->Named("pair_saturation_rps", run.saturation.rps, "1/s");
  out->Named("setup_s", Pct(setup_s, 0.5), "s");
  out->NoteJson("pair_latency_ms.light", DistributionJson(run.light.latency_ms));
  out->NoteJson("pair_latency_ms.heavy", DistributionJson(run.heavy.latency_ms));
  out->NoteJson("setup_s.samples", JsonArray(setup_s));
  std::string ladder = "[";
  for (const Phase& p : run.ladder) {
    if (ladder.size() > 1) ladder += ", ";
    ladder += "{\"rate\": " + JsonNumber(p.rate) +
              ", \"p99_ms\": " + JsonNumber(p.P(0.99)) +
              ", \"backlog_growing\": " +
              (p.BacklogGrowing() ? "true" : "false") + "}";
  }
  out->NoteJson("goodput_ladder", ladder + "]");
  out->NoteJson("input.rates_rps",
                "{\"light\": " + JsonNumber(kLightRate) +
                    ", \"heavy\": " + JsonNumber(kHeavyRate) +
                    ", \"latency_limit_ms\": " + JsonNumber(kLatencyLimitMs) +
                    "}");
  out->NoteJson("input.tokens_per_pair", DistributionJson(tokens));
  out->Note("input.repeated_pair_share",
            open_loop_sent > 0
                ? static_cast<double>(repeats) / open_loop_sent
                : 0);
  std::string names = "[";
  for (const auto& n : pool.names) {
    names += (names.size() > 1 ? ", " : "") + JsonString(n);
  }
  out->NoteJson("input.datasets", names + "]");
  out->Note("input.requests", static_cast<double>(sent));
  return 0;
}

}  // namespace perfbench
