// End-to-end benchmark of the GQR library: shared declarations.
//
// The benchmark drives the library only through its public calls and
// measures every layer from outside, by timing those calls. Inputs are
// generated from the workload seed (data.cc), exact neighbours are
// computed here with double accumulation and never by the library, and
// every result the library returns is checked (checks.cc) before any
// number is printed. See README.md for the workloads and metrics.
#ifndef GQRBENCH_BENCH_H_
#define GQRBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gqr.h"

namespace gqrbench {

using gqr::Code;
using gqr::ItemId;
using Clock = std::chrono::steady_clock;

// Input make-up (README "Inputs"). One corpus shape for every workload.
inline constexpr size_t kN = 200000;       // corpus items
inline constexpr size_t kDim = 64;         // float dimensions
inline constexpr size_t kQueries = 2000;   // query pool
inline constexpr size_t kClusters = 256;   // Gaussian mixture components
inline constexpr int kCodeLength = 16;     // ITQ bits m
inline constexpr size_t kShards = 4;       // ShardedIndex shards
inline constexpr size_t kTruthK = 20;      // exact neighbours kept
inline constexpr size_t kThreads = 4;      // cores: exact neighbours, checks
inline constexpr int kSetupReps = 9;       // set-ups per run (median)

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// CPU time of the calling thread, and of the whole process, in seconds.
/// Time the hypervisor steals from the guest is not counted in either.
double ThreadCpuSeconds();
double ProcessCpuSeconds();

/// Host-speed probes: thread CPU seconds of a fixed kernel of the
/// benchmark's own, about 25–30 ms each. The reference host's speed
/// moves by a third or more within minutes, in CPU time as in wall time.
/// Each timed piece of work is therefore reported in reference seconds:
/// its CPU time scaled by kProbeReferenceSeconds over a probe run right
/// before it (README "Host-speed probe"). Set-up is scaled by the compute
/// probe (float distances over a 2 MiB table), queries by the fetch probe
/// (distances to 100,000 corpus rows in a fixed random order), the one
/// each tracks best.
double ComputeProbeSeconds();
double FetchProbeSeconds(const gqr::Dataset& base);
inline constexpr double kProbeReferenceSeconds = 0.025;
inline double ReferenceSeconds(double cpu_seconds, double probe_seconds) {
  return cpu_seconds * kProbeReferenceSeconds / probe_seconds;
}

/// Nearest-rank percentile, p in [0, 1]; sorts a copy. 0 when empty.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

// ---------------------------------------------------------------- inputs

/// Everything generated from the seed before set-up starts.
struct Inputs {
  gqr::Dataset base;
  gqr::Dataset queries;
  /// truth[q]: the kTruthK exact nearest corpus ids of query q,
  /// ascending by exact distance.
  std::vector<std::vector<ItemId>> truth;
};

/// Clustered Gaussian corpus and held-out queries from one mixture, plus
/// the exact k-NN of every query. Deterministic in `seed`.
Inputs MakeInputs(uint64_t seed);

/// Euclidean distance accumulated in double.
double ExactDistance(const float* a, const float* b, size_t dim);

// ----------------------------------------------------------------- setup

/// The library state every workload serves from: ITQ hasher, corpus
/// codes, a single static table, and a frozen kShards-shard index.
struct Built {
  std::unique_ptr<gqr::LinearHasher> hasher;
  std::vector<Code> codes;
  std::unique_ptr<gqr::StaticHashTable> table;
  std::unique_ptr<gqr::ShardedIndex> index;
  double mu = 0.0;  // Theorem 2 constant of the hasher.
  // Median over kSetupReps set-ups of each phase's process CPU time, in
  // reference seconds.
  double train_s = 0.0;
  double hash_corpus_s = 0.0;
  double build_index_s = 0.0;
  double total_s = 0.0;
};

/// Trains (ITQ with its default seed), hashes and builds kSetupReps
/// times, each after a compute probe; keeps the last build.
Built RunSetup(const Inputs& in);

// ---------------------------------------------------------------- checks

/// Result of one search as the benchmark recorded it.
struct Answer {
  std::vector<ItemId> ids;
  std::vector<float> distances;
};

/// Output checkers. Every failure is counted by check name and the first
/// few are printed; a run with any failure reports "correct": false.
class Checker {
 public:
  Checker(const Inputs& in, const Built& built);

  void Fail(const std::string& check, const std::string& detail);
  bool ok() const { return failures_ == 0; }
  size_t failures() const { return failures_; }

  /// k distinct in-range ids in ascending distance order, each distance
  /// equal to the exact one, and Theorem 2 for every returned item.
  void CheckAnswer(size_t q, size_t k, const Answer& a, const char* where);
  /// Same ids and distances, in the same order.
  void CheckSame(const char* check, size_t q, const Answer& want,
                 const Answer& got);
  /// |a ∩ truth[q][0..k)| / k.
  double Recall(size_t q, size_t k, const Answer& a) const;

 private:
  const Inputs* in_;
  const Built* built_;
  std::vector<gqr::QueryHashInfo> infos_;  // Query flip costs for QD.
  size_t failures_ = 0;
};

Answer ToAnswer(const gqr::SearchResult& r);

// ----------------------------------------------------------------- trace

/// In-memory span recorder: name, start, end, parent span and request
/// id. Thread-safe; written out once when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Records a finished span and returns its id (0 when disabled).
  uint64_t Record(const char* name, uint64_t request, uint64_t parent,
                  Clock::time_point start, Clock::time_point end);
  /// Writes all spans as JSON lines. Returns false on I/O failure.
  bool Write(const std::string& path) const;
  size_t size() const;

 private:
  struct Span {
    const char* name;
    uint64_t id, request, parent;
    Clock::time_point start, end;
  };
  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
};

// ------------------------------------------------------------- workloads

/// Which of the result corruptions of the self-test to apply (README
/// "Output checks"); kNone for real runs.
enum class Corrupt { kNone, kSwappedId, kPerturbedDistance, kDroppedCallback };

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Corrupt corrupt = Corrupt::kNone;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;  // End-to-end and per-layer, by name.
};

/// Runs the named workload against the built state, checking every
/// output into `checker` and recording spans into `tracer`.
RunResult RunWorkload(const RunConfig& cfg, const Inputs& in, Built* built,
                      Checker* checker, Tracer* tracer);

bool IsWorkload(const std::string& name);

}  // namespace gqrbench

#endif  // GQRBENCH_BENCH_H_
