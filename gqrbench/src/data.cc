// Inputs from the seed, exact neighbours, and the timed library set-up.
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <queue>
#include <random>
#include <thread>
#include <utility>

#include "bench.h"

namespace gqrbench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

namespace {
double CpuClock(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double ThreadCpuSeconds() { return CpuClock(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuSeconds() { return CpuClock(CLOCK_PROCESS_CPUTIME_ID); }

// Keeps the probe's result alive, so the compiler cannot drop its loop.
volatile float probe_sink;

double ComputeProbeSeconds() {
  // 2 MiB of floats, read 96 times as 64-dimensional rows.
  static const std::vector<float> table = [] {
    std::vector<float> t(size_t{1} << 19);
    std::mt19937 rng(7);
    for (float& x : t) x = static_cast<float>(rng() % 1000) / 500.0f;
    return t;
  }();
  const double t0 = ThreadCpuSeconds();
  float acc = 0.0f;
  for (size_t rep = 0; rep < 96; ++rep) {
    for (size_t i = 0; i + 64 <= table.size(); i += 64) {
      float sum = 0.0f;
      for (size_t j = 0; j < 64; ++j) {
        const float d = table[i + j] - table[j + rep];
        sum += d * d;
      }
      acc += std::sqrt(sum);
    }
  }
  probe_sink = acc;
  return ThreadCpuSeconds() - t0;
}

double FetchProbeSeconds(const gqr::Dataset& base) {
  // 100,000 corpus rows in a fixed random order, each compared with row
  // 0: the row fetches and distances of candidate evaluation.
  const double t0 = ThreadCpuSeconds();
  std::mt19937_64 rng(11);
  const float* first = base.Row(0);
  float acc = 0.0f;
  for (size_t n = 0; n < 100000; ++n) {
    const float* row = base.Row(static_cast<ItemId>(rng() % base.size()));
    float sum = 0.0f;
    for (size_t j = 0; j < base.dim(); ++j) {
      const float d = row[j] - first[j];
      sum += d * d;
    }
    acc += std::sqrt(sum);
  }
  probe_sink = acc;
  return ThreadCpuSeconds() - t0;
}

double ExactDistance(const float* a, const float* b, size_t dim) {
  double acc = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    const double d = static_cast<double>(a[j]) - static_cast<double>(b[j]);
    acc += d * d;
  }
  return std::sqrt(acc);
}

namespace {

constexpr uint64_t kMixtureSeed = 2018;

// Mixture of kClusters anisotropic Gaussians with Zipf-like weights
// (exponent 0.5): nearby items share codes and bucket occupancy is
// skewed, the two properties the querying methods depend on.
struct Mixture {
  std::vector<double> center;  // kClusters x kDim
  std::vector<double> stddev;  // kClusters x kDim
  std::discrete_distribution<size_t> pick;

  explicit Mixture(std::mt19937_64* rng) {
    std::normal_distribution<double> c(0.0, 3.0);
    std::uniform_real_distribution<double> s(0.5, 1.5);
    center.resize(kClusters * kDim);
    stddev.resize(kClusters * kDim);
    for (double& x : center) x = c(*rng);
    for (double& x : stddev) x = s(*rng);
    std::vector<double> w(kClusters);
    for (size_t i = 0; i < kClusters; ++i) {
      w[i] = 1.0 / std::sqrt(static_cast<double>(i + 1));
    }
    pick = std::discrete_distribution<size_t>(w.begin(), w.end());
  }

  gqr::Dataset Draw(size_t n, std::mt19937_64* rng) {
    std::normal_distribution<double> unit(0.0, 1.0);
    std::vector<float> data(n * kDim);
    for (size_t i = 0; i < n; ++i) {
      const size_t c = pick(*rng);
      for (size_t j = 0; j < kDim; ++j) {
        data[i * kDim + j] = static_cast<float>(
            center[c * kDim + j] + stddev[c * kDim + j] * unit(*rng));
      }
    }
    return gqr::Dataset(n, kDim, std::move(data));
  }
};

// Exact k-NN by brute force in double. Queries are taken kBlock at a time
// so each corpus row is read once per block, not once per query.
std::vector<std::vector<ItemId>> ExactNeighbours(const gqr::Dataset& base,
                                                 const gqr::Dataset& queries) {
  constexpr size_t kBlock = 16;
  const size_t nq = queries.size();
  std::vector<std::vector<ItemId>> truth(nq);
  const size_t num_blocks = (nq + kBlock - 1) / kBlock;
  auto work = [&](size_t t) {
    using Entry = std::pair<double, ItemId>;
    std::vector<double> qd(kBlock * kDim);
    for (size_t b = t; b < num_blocks; b += kThreads) {
      const size_t lo = b * kBlock;
      const size_t hi = std::min(nq, lo + kBlock);
      for (size_t q = lo; q < hi; ++q) {
        for (size_t j = 0; j < kDim; ++j) {
          qd[(q - lo) * kDim + j] = queries.Row(static_cast<ItemId>(q))[j];
        }
      }
      std::vector<std::priority_queue<Entry>> heaps(hi - lo);
      for (size_t i = 0; i < base.size(); ++i) {
        const float* row = base.Row(static_cast<ItemId>(i));
        for (size_t q = 0; q < hi - lo; ++q) {
          const double* x = &qd[q * kDim];
          double acc[4] = {0.0, 0.0, 0.0, 0.0};
          for (size_t j = 0; j < kDim; j += 4) {
            for (size_t u = 0; u < 4; ++u) {
              const double d = x[j + u] - static_cast<double>(row[j + u]);
              acc[u] += d * d;
            }
          }
          const double dist = (acc[0] + acc[1]) + (acc[2] + acc[3]);
          auto& h = heaps[q];
          const Entry e{dist, static_cast<ItemId>(i)};
          if (h.size() < kTruthK) {
            h.push(e);
          } else if (e < h.top()) {
            h.pop();
            h.push(e);
          }
        }
      }
      for (size_t q = lo; q < hi; ++q) {
        auto& h = heaps[q - lo];
        std::vector<ItemId>& out = truth[q];
        out.resize(h.size());
        for (size_t r = h.size(); r-- > 0;) {
          out[r] = h.top().second;
          h.pop();
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) threads.emplace_back(work, t);
  for (std::thread& th : threads) th.join();
  return truth;
}

}  // namespace

Inputs MakeInputs(uint64_t seed) {
  static_assert(kDim % 4 == 0, "ExactNeighbours unrolls by 4");
  // The mixture is one fixed distribution; the seed draws the corpus and
  // the queries from it, so every seed poses a workload of the same
  // difficulty.
  std::mt19937_64 shape(kMixtureSeed);
  Mixture mix(&shape);
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  Inputs in;
  in.base = mix.Draw(kN, &rng);
  in.queries = mix.Draw(kQueries, &rng);
  in.truth = ExactNeighbours(in.base, in.queries);
  return in;
}

Built RunSetup(const Inputs& in) {
  Built b;
  std::vector<double> train, hash, build, total;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Free the previous build before the next one starts, so the process
    // never holds two.
    b = Built();
    const double probe = ComputeProbeSeconds();
    const double t0 = ProcessCpuSeconds();
    gqr::ItqOptions itq;
    itq.code_length = kCodeLength;
    b.hasher = std::make_unique<gqr::LinearHasher>(gqr::TrainItq(in.base, itq));
    const double t1 = ProcessCpuSeconds();
    b.codes = b.hasher->HashDataset(in.base);
    const double t2 = ProcessCpuSeconds();
    b.table = std::make_unique<gqr::StaticHashTable>(b.codes, kCodeLength);
    b.index = std::make_unique<gqr::ShardedIndex>(kCodeLength, kShards);
    for (size_t id = 0; id < kN; ++id) {
      if (!b.index->Insert(static_cast<ItemId>(id), b.codes[id]).ok()) {
        std::fprintf(stderr, "setup: Insert(%zu) failed\n", id);
        std::exit(1);
      }
    }
    b.index->FreezeAll();
    const double t3 = ProcessCpuSeconds();
    train.push_back(ReferenceSeconds(t1 - t0, probe));
    hash.push_back(ReferenceSeconds(t2 - t1, probe));
    build.push_back(ReferenceSeconds(t3 - t2, probe));
    total.push_back(ReferenceSeconds(t3 - t0, probe));
  }
  b.mu = gqr::TheoremTwoMu(*b.hasher);
  b.train_s = Median(train);
  b.hash_corpus_s = Median(hash);
  b.build_index_s = Median(build);
  b.total_s = Median(total);
  return b;
}

}  // namespace gqrbench
