#include "retrieval/qgram_index.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <functional>
#include <unordered_set>

#include "io/emxm.h"
#include "obs/trace.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace emx {
namespace retrieval {
namespace {

// Ingest batches are chunked so AddBatch never materializes the feature
// lists of more than this many records at once (a million-record batch
// would otherwise hold ~10 GB of transient feature strings).
constexpr int64_t kIngestChunk = 4096;

/// Idf weight of a feature seen in `df` of `n` records. The +1 smoothing
/// keeps unseen features finite and df = n features positive.
double IdfWeight(int64_t n, int64_t df) {
  return std::log(1.0 + static_cast<double>(n) /
                            (1.0 + static_cast<double>(df)));
}

bool ScoreOrder(const ScoredId& a, const ScoredId& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

/// Per-thread scratch of one TopK shard task: a dense score accumulator
/// indexed by local id (id / num_shards), the local ids it touched in
/// first-seen order, and room for the k-th-best check. `acc` is all zeros
/// between tasks; only touched entries are reset, so a query pays for its
/// candidates, not for the shard size. The buffers only grow, to
/// 8 B x records / num_shards for `acc`.
struct ShardScratch {
  std::vector<double> acc;
  std::vector<uint32_t> touched;
  std::vector<double> floor;

  /// Restores the all-zero invariant when a shard task ends, however it
  /// ends.
  struct Release {
    ShardScratch* scratch;
    ~Release() {
      for (uint32_t local_id : scratch->touched) scratch->acc[local_id] = 0;
      scratch->touched.clear();
    }
  };
};

ShardScratch& LocalShardScratch() {
  thread_local ShardScratch scratch;
  return scratch;
}

/// The k-th best of the touched accumulators (requires touched.size() >= k).
double KthBestScore(const std::vector<double>& acc,
                    const std::vector<uint32_t>& touched, int64_t k,
                    std::vector<double>* scratch) {
  scratch->clear();
  for (uint32_t local_id : touched) scratch->push_back(acc[local_id]);
  std::nth_element(scratch->begin(), scratch->begin() + (k - 1),
                   scratch->end(), std::greater<double>());
  return (*scratch)[static_cast<size_t>(k - 1)];
}

}  // namespace

QGramIndex::QGramIndex(IndexOptions options) : options_(options) {
  options_.num_shards = std::max<int64_t>(1, options_.num_shards);
  options_.qgram = std::max<int64_t>(0, options_.qgram);
  options_.max_postings = std::max<int64_t>(1, options_.max_postings);
  shards_ = std::make_unique<Shard[]>(static_cast<size_t>(options_.num_shards));
}

QGramIndex::QGramIndex(QGramIndex&& other) noexcept
    : options_(other.options_), shards_(std::move(other.shards_)) {
  next_id_.store(other.next_id_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
}

QGramIndex& QGramIndex::operator=(QGramIndex&& other) noexcept {
  options_ = other.options_;
  shards_ = std::move(other.shards_);
  next_id_.store(other.next_id_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  return *this;
}

QGramIndex::~QGramIndex() = default;

int64_t QGramIndex::per_shard_cap() const {
  return std::max<int64_t>(1, options_.max_postings / options_.num_shards);
}

namespace {

std::string StripNonAlnum(const std::string& token) {
  std::string out;
  out.reserve(token.size());
  for (char c : token) {
    if (std::isalnum(static_cast<unsigned char>(c))) out.push_back(c);
  }
  return out;
}

}  // namespace

std::vector<std::string> QGramIndex::Features(std::string_view text) const {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  auto emit = [&](std::string f) {
    if (seen.insert(f).second) out.push_back(std::move(f));
  };
  const std::string lowered = ToLower(text);
  const std::vector<std::string> tokens = SplitWhitespace(lowered);
  for (size_t t = 0; t < tokens.size(); ++t) {
    const std::string& token = tokens[t];
    if (options_.index_tokens) {
      emit(token);
      // Punctuation-stripped alias: "zx-55" and "zx55" become the same
      // rare exact-token feature, which q-grams alone cannot guarantee.
      std::string alnum = StripNonAlnum(token);
      if (!alnum.empty() && alnum != token) emit(std::move(alnum));
      // Adjacent-token join: a model number split across tokens
      // ("zx 55") re-fuses to match the unsplit rendering's token.
      // Common-word joins cross the posting cap and stop out.
      if (t + 1 < tokens.size()) {
        std::string join = StripNonAlnum(token) + StripNonAlnum(tokens[t + 1]);
        if (!join.empty()) emit(std::move(join));
      }
    }
    if (options_.qgram > 0) {
      // Boundary-padded grams: "^zx55$" and "^zx-55$" share their edges.
      const std::string padded = "^" + token + "$";
      const size_t q = static_cast<size_t>(options_.qgram);
      if (padded.size() <= q) {
        emit(padded);
      } else {
        for (size_t i = 0; i + q <= padded.size(); ++i) {
          emit(padded.substr(i, q));
        }
      }
    }
  }
  return out;
}

void QGramIndex::Insert(int64_t id, const std::vector<std::string>& features) {
  Shard& shard = shards_[static_cast<size_t>(id % options_.num_shards)];
  const int64_t cap = per_shard_cap();
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  for (const std::string& f : features) {
    PostingList& pl = shard.features[f];
    ++pl.df;
    if (pl.stopped) continue;
    if (pl.df > cap) {
      // Crossed the cap: demote to a stop feature and free its postings.
      pl.stopped = true;
      ++shard.stop_count;
      pl.ids.clear();
      pl.ids.shrink_to_fit();
      continue;
    }
    pl.ids.push_back(static_cast<uint32_t>(id));
  }
}

int64_t QGramIndex::AddRecord(std::string_view text) {
  const int64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Insert(id, Features(text));
  return id;
}

int64_t QGramIndex::AddBatch(const std::vector<std::string>& texts) {
  const int64_t n = static_cast<int64_t>(texts.size());
  const int64_t base = next_id_.fetch_add(n, std::memory_order_relaxed);
  std::vector<std::vector<std::string>> features(
      static_cast<size_t>(std::min(n, kIngestChunk)));
  for (int64_t chunk = 0; chunk < n; chunk += kIngestChunk) {
    const int64_t end = std::min(n, chunk + kIngestChunk);
    {
      EMX_TRACE_SPAN("retrieval.extract");
      ParallelFor(end - chunk, 64, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          features[static_cast<size_t>(i)] =
              Features(texts[static_cast<size_t>(chunk + i)]);
        }
      });
    }
    EMX_TRACE_SPAN("retrieval.insert");
    // One task per shard: every record of the chunk belongs to exactly one
    // shard, so shard tasks touch disjoint state.
    ParallelFor(options_.num_shards, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t s = lo; s < hi; ++s) {
        for (int64_t i = chunk; i < end; ++i) {
          if ((base + i) % options_.num_shards != s) continue;
          Insert(base + i, features[static_cast<size_t>(i - chunk)]);
        }
      }
    });
  }
  return base;
}

int64_t QGramIndex::size() const {
  return next_id_.load(std::memory_order_relaxed);
}

int64_t QGramIndex::num_features() const {
  int64_t total = 0;
  for (int64_t s = 0; s < options_.num_shards; ++s) {
    Shard& shard = shards_[static_cast<size_t>(s)];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    total += static_cast<int64_t>(shard.features.size()) - shard.stop_count;
  }
  return total;
}

int64_t QGramIndex::num_stop_features() const {
  int64_t total = 0;
  for (int64_t s = 0; s < options_.num_shards; ++s) {
    Shard& shard = shards_[static_cast<size_t>(s)];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    total += shard.stop_count;
  }
  return total;
}

std::vector<ScoredId> QGramIndex::TopK(std::string_view query,
                                       int64_t k) const {
  const int64_t n = size();
  if (k <= 0 || n == 0) return {};
  std::vector<std::string> features;
  {
    EMX_TRACE_SPAN("retrieval.features");
    features = Features(query);
  }
  if (features.empty()) return {};

  // Pass 1: global document frequency per feature (summed across shards)
  // fixes one idf weight per feature, so candidates in different shards are
  // scored on the same scale.
  std::vector<double> weights(features.size(), 0);
  {
    EMX_TRACE_SPAN("retrieval.weights");
    std::vector<int64_t> df(features.size(), 0);
    for (int64_t s = 0; s < options_.num_shards; ++s) {
      Shard& shard = shards_[static_cast<size_t>(s)];
      std::shared_lock<std::shared_mutex> lock(shard.mu);
      for (size_t i = 0; i < features.size(); ++i) {
        auto it = shard.features.find(features[i]);
        if (it != shard.features.end()) df[i] += it->second.df;
      }
    }
    for (size_t i = 0; i < features.size(); ++i) {
      weights[i] = IdfWeight(n, df[i]);
    }
  }

  // Max-score pruning bound: suffix[i] is the total idf weight of features
  // [i, end), i.e. the highest score a record first encountered at feature
  // i can still accumulate. Shared read-only across shard tasks.
  std::vector<double> suffix(features.size() + 1, 0.0);
  if (options_.prune_topk) {
    for (size_t i = features.size(); i-- > 0;) {
      suffix[i] = suffix[i + 1] + weights[i];
    }
  }

  // Pass 2: per-shard accumulation and local top-k, shards in parallel.
  // Each candidate's score is summed in fixed feature order, so results do
  // not depend on the thread count.
  std::vector<std::vector<ScoredId>> per_shard(
      static_cast<size_t>(options_.num_shards));
  {
    EMX_TRACE_SPAN("retrieval.score", [&] {
      return obs::KeyValues({{"features",
                              static_cast<int64_t>(features.size())},
                             {"k", k}});
    });
    // Posting ids are u32 and shard s holds ids s, s + S, s + 2S, ..., so
    // id / S is a dense local id within the shard.
    const uint32_t num_shards = static_cast<uint32_t>(options_.num_shards);
    ParallelFor(options_.num_shards, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t s = lo; s < hi; ++s) {
        Shard& shard = shards_[static_cast<size_t>(s)];
        ShardScratch& scratch = LocalShardScratch();
        const ShardScratch::Release release{&scratch};
        std::vector<double>& acc = scratch.acc;
        std::vector<uint32_t>& touched = scratch.touched;
        // Once `closed`, no NEW candidate ids are admitted; existing
        // accumulators keep updating, in the same feature order as the
        // unpruned path, so survivors score bit-identically.
        bool closed = false;
        // The k-th best partial score at the last check (feature `last`);
        // < 0 until the first check.
        double last_floor = -1;
        size_t last = 0;
        {
          std::shared_lock<std::shared_mutex> lock(shard.mu);
          // Sized under the lock, not from `n`: ingest bumps next_id_
          // before it takes the writer lock, so every id visible here is
          // below this load, however far ingest ran since TopK began.
          const size_t local_n =
              static_cast<size_t>(next_id_.load(std::memory_order_relaxed) /
                                  options_.num_shards) + 1;
          if (acc.size() < local_n) acc.resize(local_n, 0.0);
          for (size_t i = 0; i < features.size(); ++i) {
            if (options_.prune_topk && !closed &&
                static_cast<int64_t>(touched.size()) >= k) {
              // floor = current k-th best partial score in this shard.
              // Partials only grow, so it lower-bounds the final k-th best.
              // A record unseen so far finishes at most at suffix[i] (a
              // subset of the remaining weights); requiring floor to clear
              // it by a relative margin absorbs floating-point rounding
              // between the subset sum and the suffix sum, keeping the
              // strict comparison safe. Once it clears, at least k records
              // beat every future first-timer — stop admitting them.
              const double bar = suffix[i] * (1.0 + 1e-9);
              // Since the last check no partial (and no first-timer, which
              // starts at 0) gained more than the weight processed in
              // between, so the floor is at most last_floor + that weight.
              // Recompute only once that bound clears the bar. The bound
              // only decides when to look; the test above decides whether
              // to close, so a late look costs work, never a result.
              if (last_floor < 0 ||
                  last_floor + (suffix[last] - suffix[i]) > bar) {
                last_floor = KthBestScore(acc, touched, k, &scratch.floor);
                last = i;
                if (last_floor > bar) closed = true;
              }
            }
            auto it = shard.features.find(features[i]);
            if (it == shard.features.end() || it->second.stopped) continue;
            // Every idf weight is > 0, so a zero accumulator means "not
            // yet a candidate".
            const double w = weights[i];
            if (closed) {
              for (uint32_t id : it->second.ids) {
                double& score = acc[id / num_shards];
                if (score > 0) score += w;
              }
            } else {
              for (uint32_t id : it->second.ids) {
                const uint32_t local_id = id / num_shards;
                double& score = acc[local_id];
                if (score == 0) touched.push_back(local_id);
                score += w;
              }
            }
          }
        }
        std::vector<ScoredId>& local = per_shard[static_cast<size_t>(s)];
        local.reserve(touched.size());
        for (uint32_t local_id : touched) {
          local.push_back(
              {static_cast<int64_t>(local_id) * options_.num_shards + s,
               acc[local_id]});
        }
        if (static_cast<int64_t>(local.size()) > k) {
          std::nth_element(local.begin(), local.begin() + k, local.end(),
                           ScoreOrder);
          local.resize(static_cast<size_t>(k));
        }
        std::sort(local.begin(), local.end(), ScoreOrder);
      }
    });
  }

  EMX_TRACE_SPAN("retrieval.merge");
  std::vector<ScoredId> merged;
  for (const auto& local : per_shard) {
    merged.insert(merged.end(), local.begin(), local.end());
  }
  std::sort(merged.begin(), merged.end(), ScoreOrder);
  if (static_cast<int64_t>(merged.size()) > k) {
    merged.resize(static_cast<size_t>(k));
  }
  return merged;
}

void QGramIndex::AppendEmxm(io::EmxmWriter* writer) const {
  // Writer-exclude every shard for the duration: a save is a consistent
  // snapshot, not a racing reader.
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(static_cast<size_t>(options_.num_shards));
  for (int64_t s = 0; s < options_.num_shards; ++s) {
    locks.emplace_back(shards_[static_cast<size_t>(s)].mu);
  }

  std::vector<uint64_t> shard_features;
  std::vector<std::string_view> keys;
  std::vector<uint64_t> df;
  std::vector<uint32_t> ids;
  std::vector<const std::pair<const std::string, PostingList>*> entries;
  for (int64_t s = 0; s < options_.num_shards; ++s) {
    const Shard& shard = shards_[static_cast<size_t>(s)];
    shard_features.push_back(shard.features.size());
    // Canonical order: identical index states serialize to identical bytes
    // regardless of hash-map iteration order.
    entries.clear();
    for (const auto& entry : shard.features) entries.push_back(&entry);
    std::sort(entries.begin(), entries.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    for (const auto* entry : entries) {
      keys.push_back(entry->first);
      df.push_back(static_cast<uint64_t>(entry->second.df));
      ids.insert(ids.end(), entry->second.ids.begin(),
                 entry->second.ids.end());
    }
  }
  writer->AddVector("ridx:shards", io::SectionKind::kU64Vec,
                    std::move(shard_features),
                    {0, static_cast<uint64_t>(options_.qgram),
                     options_.index_tokens ? 1u : 0u,
                     static_cast<uint64_t>(options_.max_postings),
                     static_cast<uint64_t>(size()), 0});
  writer->AddStrings("ridx:keys", keys);
  writer->AddVector("ridx:df", io::SectionKind::kU64Vec, std::move(df));
  writer->AddVector("ridx:ids", io::SectionKind::kI32Vec, std::move(ids));
}

Status QGramIndex::Save(const std::string& path) const {
  io::EmxmWriter writer;
  AppendEmxm(&writer);
  return writer.WriteFile(path);
}

Result<QGramIndex> QGramIndex::FromEmxm(const io::EmxmReader& reader) {
  using io::SectionKind;
  EMX_ASSIGN_OR_RETURN(const io::Section* shards,
                       reader.FindVector("ridx:shards", SectionKind::kU64Vec));
  EMX_ASSIGN_OR_RETURN(std::vector<std::string_view> keys,
                       reader.FindStrings("ridx:keys"));
  EMX_ASSIGN_OR_RETURN(const io::Section* df,
                       reader.FindVector("ridx:df", SectionKind::kU64Vec));
  EMX_ASSIGN_OR_RETURN(const io::Section* ids,
                       reader.FindVector("ridx:ids", SectionKind::kI32Vec));
  auto corrupt = [&](const std::string& what) {
    return Status::InvalidArgument("index in " + reader.path() + ": " + what);
  };

  IndexOptions options;
  options.num_shards = static_cast<int64_t>(shards->aux[0]);
  options.qgram = static_cast<int64_t>(shards->aux[1]);
  options.index_tokens = shards->aux[2] != 0;
  options.max_postings = static_cast<int64_t>(shards->aux[3]);
  const uint64_t next_id = shards->aux[4];
  if (options.num_shards < 1 || options.num_shards > (1 << 20)) {
    return corrupt("implausible shard count " +
                   std::to_string(options.num_shards));
  }
  // Posting ids are u32, so no index can hold more records than that.
  if (next_id > (1ull << 32)) {
    return corrupt("record count " + std::to_string(next_id) +
                   " exceeds the u32 id space");
  }
  if (keys.size() != df->aux[0]) {
    return corrupt("key and df counts differ");
  }

  QGramIndex index(options);
  index.next_id_.store(static_cast<int64_t>(next_id),
                       std::memory_order_relaxed);
  const int64_t cap = index.per_shard_cap();
  const uint64_t* shard_features = shards->As<uint64_t>();
  const uint64_t* dfs = df->As<uint64_t>();
  const uint32_t* id_data = ids->As<uint32_t>();
  uint64_t feature = 0, id_pos = 0;
  for (int64_t s = 0; s < options.num_shards; ++s) {
    const uint64_t count = shard_features[s];
    if (count > keys.size() - feature) {
      return corrupt("shard " + std::to_string(s) + " claims " +
                     std::to_string(count) + " features beyond the " +
                     std::to_string(keys.size()) + " stored");
    }
    Shard& shard = index.shards_[static_cast<size_t>(s)];
    shard.features.reserve(static_cast<size_t>(count));
    for (uint64_t end = feature + count; feature < end; ++feature) {
      // Strictly ascending keys: canonical order, and no duplicates.
      if (feature + 1 < end && !(keys[feature] < keys[feature + 1])) {
        return corrupt("shard keys out of order");
      }
      PostingList pl;
      if (dfs[feature] > next_id) return corrupt("df exceeds record count");
      pl.df = static_cast<int64_t>(dfs[feature]);
      pl.stopped = pl.df > cap;
      if (pl.stopped) {
        ++shard.stop_count;
      } else {
        const uint64_t n = dfs[feature];
        if (n > ids->aux[0] - id_pos) return corrupt("posting ids truncated");
        pl.ids.assign(id_data + id_pos, id_data + id_pos + n);
        id_pos += n;
        for (uint32_t id : pl.ids) {
          if (id >= next_id) return corrupt("posting id out of range");
        }
      }
      shard.features.emplace(keys[feature], std::move(pl));
    }
  }
  if (feature != keys.size() || id_pos != ids->aux[0]) {
    return corrupt("sections hold more features or ids than the shards use");
  }
  return index;
}

Result<QGramIndex> QGramIndex::Load(const std::string& path) {
  EMX_ASSIGN_OR_RETURN(std::shared_ptr<const io::EmxmReader> reader,
                       io::EmxmReader::Open(path));
  return FromEmxm(*reader);
}

}  // namespace retrieval
}  // namespace emx
