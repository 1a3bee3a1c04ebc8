// gqrbench: one run of one workload. Prints progress on stderr and, as
// the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit status 0 when every output check passed.
//
// Usage: gqrbench --workload batch|serve|serve-hr|ingest --seed N
//                 --seconds S --trace 0|1
//                 [--corrupt swapped-id|perturbed-distance|dropped-callback]
// A traced run writes its spans to
// .bench_build/trace/<workload>-seed<N>.jsonl under the working directory.
#include <sys/resource.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace gqrbench {
namespace {

// The names BENCHMARK.json lists, in its order.
constexpr const char* kEndToEnd[] = {
    "setup_s",
    "query_cpu_us",
    "recall_at_k",
    "peak_rss_mb",
};
constexpr const char* kPerLayer[] = {
    "serve.queue_wait_us",
    "serve.exec_us",
    "serve.batch_fill",
    "serve.batches",
    "hash.us_per_query",
    "probe.setup_us",
    "probe.us_per_query",
    "probe.buckets_per_query",
    "probe.nonempty_share",
    "index.fetch_us_per_query",
    "index.union_us",
    "index.items_per_bucket",
    "index.insert_us",
    "index.remove_us",
    "index.freeze_ms",
    "index.freezes",
    "eval.us_per_query",
    "eval.ns_per_candidate",
    "eval.candidates_per_query",
    "eval.bytes_per_candidate",
    "eval.useful_share",
    "search.us_per_query",
    "search.layer_sum_gap",
    "setup.train_s",
    "setup.hash_corpus_s",
    "setup.build_index_s",
    "loadgen.late_us",
    "trace.query_cpu_us",
    "trace.throughput_qps",
    "trace.latency_p50_us",
    "trace.latency_p99_us",
    "trace.spans",
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "gqrbench: %s\nusage: gqrbench --workload "
               "batch|serve|serve-hr|ingest --seed N --seconds S --trace 0|1 "
               "[--corrupt swapped-id|perturbed-distance|"
               "dropped-callback]\n",
               why);
  std::exit(2);
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!IsWorkload(value)) Usage(("unknown workload " + value).c_str());
      cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
      if (!(cfg.seconds > 0.0 && cfg.seconds <= 600.0)) {
        Usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      cfg.trace = value == "1";
    } else if (flag == "--corrupt") {
      if (value == "swapped-id") {
        cfg.corrupt = Corrupt::kSwappedId;
      } else if (value == "perturbed-distance") {
        cfg.corrupt = Corrupt::kPerturbedDistance;
      } else if (value == "dropped-callback") {
        cfg.corrupt = Corrupt::kDroppedCallback;
      } else {
        Usage(("unknown corruption " + value).c_str());
      }
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (cfg.corrupt == Corrupt::kDroppedCallback && cfg.workload == "batch") {
    Usage("dropped-callback applies to the served workloads only");
  }
  return cfg;
}

// The process's resident set now, from /proc/self/statm, in MiB.
double ResidentMb() {
  unsigned long long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  if (std::fscanf(f, "%llu %llu", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// The process's peak resident set so far, in MiB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string Number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

int Main(int argc, char** argv) {
  const RunConfig cfg = ParseArgs(argc, argv);

  Clock::time_point t0 = Clock::now();
  const Inputs in = MakeInputs(cfg.seed);
  // peak_rss_mb counts what the process holds beyond its inputs.
  const double inputs_mb = ResidentMb();
  std::fprintf(stderr, "inputs resident: %.1f MiB (peak so far %.1f)\n",
               inputs_mb, PeakRssMb());
  std::fprintf(stderr, "inputs: %zu x %zu corpus, %zu queries, exact %zu-NN "
               "in %.2f s\n", in.base.size(), in.base.dim(), in.queries.size(),
               kTruthK, Seconds(Clock::now() - t0));
  t0 = Clock::now();
  Built built = RunSetup(in);
  std::fprintf(stderr, "setup: median %.3f reference s of %d (train %.3f, "
               "hash %.3f, build %.3f); %zu buckets in the static table\n",
               built.total_s, kSetupReps, built.train_s, built.hash_corpus_s,
               built.build_index_s, built.table->num_buckets());

  Checker checker(in, built);
  Tracer tracer(cfg.trace);
  RunResult r = RunWorkload(cfg, in, &built, &checker, &tracer);
  if (tracer.enabled()) {
    const std::filesystem::path dir = ".bench_build/trace";
    const std::filesystem::path path =
        dir / (cfg.workload + "-seed" + std::to_string(cfg.seed) + ".jsonl");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (!tracer.Write(path.string())) {
      std::fprintf(stderr, "could not write spans to %s\n", path.c_str());
    }
  }
  std::fprintf(stderr, "run: %.2f s including checks\n",
               Seconds(Clock::now() - t0));

  r.metrics.push_back({"setup_s", built.total_s, "s"});
  r.metrics.push_back({"peak_rss_mb", PeakRssMb() - inputs_mb, "MiB"});
  r.metrics.push_back({"setup.train_s", built.train_s, "s"});
  r.metrics.push_back({"setup.hash_corpus_s", built.hash_corpus_s, "s"});
  r.metrics.push_back({"setup.build_index_s", built.build_index_s, "s"});
  r.metrics.push_back(
      {"trace.spans", static_cast<double>(tracer.size()), "count"});

  // Print the names of the selected list, in order; each must have been
  // measured exactly once and be finite.
  std::string metrics;
  auto emit = [&](const char* name) {
    const Metric* found = nullptr;
    for (const Metric& m : r.metrics) {
      if (m.name == name) {
        if (found != nullptr) checker.Fail("metric", std::string(name) + " twice");
        found = &m;
      }
    }
    if (found == nullptr || !std::isfinite(found->value)) {
      checker.Fail("metric", std::string(name) + " missing or not finite");
      return;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + found->name + "\": {\"value\": " + Number(found->value) +
               ", \"unit\": \"" + found->unit + "\"}";
  };
  for (const Metric& m : r.metrics) {
    std::fprintf(stderr, "  %-26s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  if (cfg.trace) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name : kEndToEnd) emit(name);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      checker.ok() ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  if (!checker.ok()) {
    std::fprintf(stderr, "%zu check failures\n", checker.failures());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace gqrbench

int main(int argc, char** argv) { return gqrbench::Main(argc, argv); }
