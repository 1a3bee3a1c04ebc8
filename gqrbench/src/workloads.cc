// The four workloads: batch, serve, serve-hr and ingest (README
// "Workloads"). Each times the library's public calls from outside,
// checks every result it gets back, and reports its metrics by name.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <random>
#include <thread>

#include "bench.h"

namespace gqrbench {

namespace {

using namespace std::chrono_literals;
using gqr::QueryMethod;

// batch: offline k-NN with GQR on the static table, near 0.9 recall@20.
constexpr size_t kBatchK = 20;
constexpr size_t kBatchBudget = 700;  // candidate budget N
constexpr size_t kBatchBlock = 100;    // queries per BatchSearch call
constexpr size_t kBatchHashFill = 64;  // BatchSearch hashes 64-query tiles

// Served workloads: one query per request, small budget.
constexpr size_t kServeK = 10;
constexpr size_t kServeBudget = 300;
constexpr double kServeRate = 1000.0;  // offered queries/s (open loop)
constexpr size_t kServeWorkers = 1;
constexpr size_t kMaxBatch = 64;
constexpr auto kLinger = 200us;
constexpr size_t kMaxQueue = 8192;
constexpr auto kDeadline = 2s;  // open-loop requests only
constexpr size_t kDrainRound = 1024;     // requests per submit-and-drain
constexpr size_t kMinDrainRounds = 3;
constexpr double kOpenLoopShare = 0.5;   // of --seconds; drains get the rest
constexpr auto kWindow = 100ms;          // latency window (see Serve)
constexpr auto kWaitLimit = 20s;         // a drain slower than this fails

// ingest: paced Remove+Insert pairs and a round-robin FreezeShard.
constexpr double kWritePairRate = 250.0;  // pairs/s
constexpr auto kFreezeEvery = 100ms;

// Idle write probe of the other workloads, and the union timing.
constexpr size_t kIdleWritePairs = 4096;
constexpr int kIdleFreezesPerShard = 8;
constexpr int kUnionCalls = 16;

// Load generation: sleep until kSpinAhead before a due time, then spin.
constexpr auto kSpinAhead = 250us;
// A window is on schedule when no arrival in it was later than this; a
// run with fewer than half its windows on schedule is marked LATE.
constexpr double kWindowLateLimitUs = 500.0;

// Span request ids: pool query q is q + 1; hash blocks, served requests
// and batch calls each number from their own base.
constexpr uint64_t kHashBlockIds = uint64_t{1} << 20;
constexpr uint64_t kServedIds = uint64_t{2} << 20;
constexpr uint64_t kBatchCallIds = uint64_t{3} << 20;

struct Spec {
  bool served;
  bool ingest;
  QueryMethod method;
  size_t k;
  size_t budget;
};

Spec SpecOf(const std::string& name) {
  if (name == "batch") {
    return {false, false, QueryMethod::kGQR, kBatchK, kBatchBudget};
  }
  if (name == "serve-hr") {
    return {true, false, QueryMethod::kHR, kServeK, kServeBudget};
  }
  return {true, name == "ingest", QueryMethod::kGQR, kServeK, kServeBudget};
}

Clock::time_point At(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

// Sleeps until kSpinAhead before `due`, then spins to it. Returns how
// late the caller is on return, in microseconds.
double PaceTo(Clock::time_point due) {
  if (Clock::now() < due - kSpinAhead) {
    std::this_thread::sleep_until(due - kSpinAhead);
  }
  Clock::time_point now = Clock::now();
  while (now < due) now = Clock::now();
  return Micros(now - due);
}

// Median of the better half of `v` (its 75th percentile): the rate a
// repeated, identical round of work reaches when the host lets it run.
double UpperHalfMedian(const std::vector<double>& v) {
  return Percentile(v, 0.75);
}

struct Sink {
  RunResult* out;
  void Add(const char* name, double value, const char* unit) {
    out->metrics.push_back(Metric{name, value, unit});
  }
};

// Self-test corruptions of one recorded answer: two ids trade places
// (each then carries the other's distance), or one distance is off by 1%.
void CorruptAnswer(Corrupt corrupt, Answer* a) {
  if (corrupt == Corrupt::kSwappedId) {
    std::swap(a->ids.front(), a->ids.back());
  } else if (corrupt == Corrupt::kPerturbedDistance) {
    a->distances.back() *= 1.01f;
  }
}

// ------------------------------------------------------------- layers

// Totals over one pass of the query pool through the layer calls.
struct Layers {
  double hash_us = 0, setup_us = 0, next_us = 0, fetch_us = 0, eval_us = 0;
  double search_us = 0;
  uint64_t buckets = 0, nonempty = 0, items = 0, to_last = 0;
};

// Runs every pool query twice: as one direct search (prober
// construction + SearchInto) and as the layer calls one by one — batched
// hashing at `fill` queries per block, prober construction, exactly
// buckets_probed Next() calls, the bucket fetches, and the rerank of the
// fetched candidate list. Checks that both give the same top-k and
// returns the direct answers.
std::vector<Answer> ReplayLayers(const Inputs& in, const Built& b,
                                 const gqr::Searcher& searcher,
                                 const Spec& spec, bool sharded, size_t fill,
                                 Tracer* tr, Checker* ck, Layers* t) {
  gqr::SearchOptions opt;
  opt.k = spec.k;
  opt.max_candidates = spec.budget;
  gqr::SearchOptions unlimited = opt;
  unlimited.max_candidates = 0;
  std::vector<Code> bucket_union;
  if (sharded && gqr::MethodNeedsBucketUnion(spec.method)) {
    bucket_union = b.index->BucketCodeUnion();
  }
  const size_t nq = in.queries.size();
  std::vector<gqr::QueryHashInfo> infos(nq);
  fill = std::clamp<size_t>(fill, 1, nq);
  for (size_t lo = 0; lo < nq; lo += fill) {
    const size_t count = std::min(fill, nq - lo);
    const Clock::time_point t0 = Clock::now();
    gqr::BatchHashQueries(*b.hasher, in.queries.Row(static_cast<ItemId>(lo)),
                          count, kDim, &infos[lo]);
    const Clock::time_point t1 = Clock::now();
    tr->Record("hash", kHashBlockIds + lo / fill, 0, t0, t1);
    t->hash_us += Micros(t1 - t0);
  }
  auto make = [&](const gqr::QueryHashInfo& info) {
    return sharded ? gqr::MakeShardedProber(spec.method, info, bucket_union,
                                            kCodeLength)
                   : gqr::MakeProber(spec.method, info, *b.table);
  };

  // Pass 1: direct searches. Pass 2: the same queries through the layer
  // calls. The whole pool runs between two visits of one query, so both
  // passes find that query's data equally cold.
  std::vector<Answer> direct_answers(nq);
  std::vector<gqr::SearchStats> stats(nq);
  gqr::SearchResult result;
  for (size_t q = 0; q < nq; ++q) {
    const float* query = in.queries.Row(static_cast<ItemId>(q));
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<gqr::BucketProber> p = make(infos[q]);
    if (sharded) {
      searcher.SearchInto(query, p.get(), *b.index, opt, nullptr, &result);
    } else {
      searcher.SearchInto(query, p.get(), *b.table, opt, nullptr, &result);
    }
    const Clock::time_point t1 = Clock::now();
    tr->Record("search.direct", q + 1, 0, t0, t1);
    t->search_us += Micros(t1 - t0);
    stats[q] = result.stats;
    direct_answers[q] = ToAnswer(result);
    t->buckets += result.stats.buckets_probed;
    t->nonempty += result.stats.buckets_nonempty;
    t->items += result.stats.items_evaluated;
    t->to_last += result.stats.items_to_last_improvement;
  }

  std::vector<ItemId> candidates;
  std::vector<Code> probed;
  for (size_t q = 0; q < nq; ++q) {
    const float* query = in.queries.Row(static_cast<ItemId>(q));
    const size_t want = stats[q].buckets_probed;
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<gqr::BucketProber> p = make(infos[q]);
    const Clock::time_point t1 = Clock::now();
    probed.clear();
    gqr::ProbeTarget target;
    while (probed.size() < want && p->Next(&target)) {
      probed.push_back(target.bucket);
    }
    const Clock::time_point t2 = Clock::now();
    candidates.clear();
    size_t nonempty = 0;
    for (Code code : probed) {
      size_t got;
      if (sharded) {
        got = b.index->ProbeAll(code, &candidates);
      } else {
        std::span<const ItemId> items = b.table->Probe(code);
        candidates.insert(candidates.end(), items.begin(), items.end());
        got = items.size();
      }
      if (got > 0) ++nonempty;
    }
    const Clock::time_point t3 = Clock::now();
    searcher.RerankCandidatesInto(query, candidates, unlimited, nullptr,
                                  &result);
    const Clock::time_point t4 = Clock::now();
    const uint64_t req = q + 1;
    const uint64_t root = tr->Record("layers", req, 0, t0, t4);
    tr->Record("probe.setup", req, root, t0, t1);
    tr->Record("probe.next", req, root, t1, t2);
    tr->Record("index.fetch", req, root, t2, t3);
    tr->Record("eval.rerank", req, root, t3, t4);
    t->setup_us += Micros(t1 - t0);
    t->next_us += Micros(t2 - t1);
    t->fetch_us += Micros(t3 - t2);
    t->eval_us += Micros(t4 - t3);
    if (probed.size() != want || nonempty != stats[q].buckets_nonempty ||
        candidates.size() != stats[q].items_evaluated) {
      ck->Fail("replay-counts",
               "query " + std::to_string(q) + ": replay fetched " +
                   std::to_string(candidates.size()) + " items from " +
                   std::to_string(probed.size()) + " buckets, search " +
                   std::to_string(stats[q].items_evaluated) + " from " +
                   std::to_string(want));
    }
    ck->CheckSame("replay-topk", q, direct_answers[q], ToAnswer(result));
  }
  return direct_answers;
}

void AddLayerMetrics(const Layers& t, size_t nq, Sink* s) {
  const double n = static_cast<double>(nq);
  const double layer_sum = t.setup_us + t.next_us + t.fetch_us + t.eval_us;
  s->Add("hash.us_per_query", t.hash_us / n, "us");
  s->Add("probe.setup_us", t.setup_us / n, "us");
  s->Add("probe.us_per_query", t.next_us / n, "us");
  s->Add("probe.buckets_per_query", static_cast<double>(t.buckets) / n,
         "buckets");
  s->Add("probe.nonempty_share",
         static_cast<double>(t.nonempty) / static_cast<double>(t.buckets),
         "fraction");
  s->Add("index.fetch_us_per_query", t.fetch_us / n, "us");
  s->Add("index.items_per_bucket",
         static_cast<double>(t.items) / static_cast<double>(t.nonempty),
         "items");
  s->Add("eval.us_per_query", t.eval_us / n, "us");
  s->Add("eval.ns_per_candidate",
         1e3 * t.eval_us / static_cast<double>(t.items), "ns");
  s->Add("eval.candidates_per_query", static_cast<double>(t.items) / n,
         "items");
  s->Add("eval.bytes_per_candidate", static_cast<double>(kDim * 4), "B");
  s->Add("eval.useful_share",
         static_cast<double>(t.to_last) / static_cast<double>(t.items),
         "fraction");
  s->Add("search.us_per_query", t.search_us / n, "us");
  s->Add("search.layer_sum_gap", (layer_sum - t.search_us) / t.search_us,
         "fraction");
}

double UnionMicros(const gqr::ShardedIndex& index) {
  std::vector<double> us;
  for (int i = 0; i < kUnionCalls; ++i) {
    const Clock::time_point t0 = Clock::now();
    const std::vector<Code> bucket_union = index.BucketCodeUnion();
    us.push_back(Micros(Clock::now() - t0));
  }
  return Median(us);
}

// ------------------------------------------------------------- writes

struct Writes {
  std::vector<double> remove_us, insert_us, freeze_ms;
  uint64_t attempted = 0, failed = 0;

  void Status(const gqr::Status& st, const char* op, ItemId id,
              std::vector<std::string>* errors) {
    ++attempted;
    if (!st.ok()) {
      ++failed;
      if (errors->size() < 4) {
        errors->push_back(std::string(op) + "(" + std::to_string(id) +
                          ") failed");
      }
    }
  }
};

// Remove+Insert of one random item, then the same item back: the index
// holds the corpus again after every pair. Each call is timed on its own:
// timed from the schedule, the writer's own scheduling delay on this host
// swamped the index's lock waits (README "Load hygiene").
void WritePair(Built* b, ItemId id, Writes* w,
               std::vector<std::string>* errors) {
  const Clock::time_point t0 = Clock::now();
  const gqr::Status r = b->index->Remove(id, b->codes[id]);
  const Clock::time_point t1 = Clock::now();
  const gqr::Status i = b->index->Insert(id, b->codes[id]);
  const Clock::time_point t2 = Clock::now();
  w->remove_us.push_back(Micros(t1 - t0));
  w->insert_us.push_back(Micros(t2 - t1));
  w->Status(r, "Remove", id, errors);
  w->Status(i, "Insert", id, errors);
}

void Freeze(Built* b, size_t shard, Writes* w,
            std::vector<std::string>* errors) {
  const Clock::time_point t0 = Clock::now();
  const gqr::Status st = b->index->FreezeShard(shard);
  w->freeze_ms.push_back(1e3 * Seconds(Clock::now() - t0));
  w->Status(st, "FreezeShard", static_cast<ItemId>(shard), errors);
}

// Unpaced write probe on the idle index, for the workloads without an
// ingest stream.
void IdleWriteProbe(Built* b, uint64_t seed, Writes* w,
                    std::vector<std::string>* errors) {
  std::mt19937_64 rng(seed ^ 0x1d1e);
  std::uniform_int_distribution<ItemId> pick(0, kN - 1);
  for (size_t i = 0; i < kIdleWritePairs; ++i) {
    WritePair(b, pick(rng), w, errors);
  }
  for (int rep = 0; rep < kIdleFreezesPerShard; ++rep) {
    for (size_t s = 0; s < kShards; ++s) Freeze(b, s, w, errors);
  }
}

void AddWriteMetrics(const Writes& w, Sink* s) {
  // Median of the faster half: a freeze the hypervisor paused is slower,
  // never faster (README "Load hygiene").
  s->Add("index.freeze_ms", Percentile(w.freeze_ms, 0.25), "ms");
  s->Add("index.insert_us", Percentile(w.insert_us, 0.99), "us");
  s->Add("index.remove_us", Percentile(w.remove_us, 0.99), "us");
  s->Add("index.freezes", static_cast<double>(w.freeze_ms.size()), "count");
}

void CheckIndexHoldsCorpus(const Built& b, Checker* ck) {
  if (b.index->num_items() != kN) {
    ck->Fail("index-corpus", "index holds " +
                                 std::to_string(b.index->num_items()) +
                                 " items, corpus has " + std::to_string(kN));
  }
  for (size_t id = 0; id < kN; ++id) {
    if (!b.index->Contains(static_cast<ItemId>(id), b.codes[id])) {
      ck->Fail("index-corpus", "item " + std::to_string(id) + " missing");
    }
  }
}

// ------------------------------------------------------------- serving

struct Slot {
  uint64_t n = 0;  // Request number, in submission order.
  uint32_t q = 0;
  bool admitted = false;
  Clock::time_point sched, submit, done;
  double queue_us = 0.0;
  double cpu_s = 0.0;  // The worker's thread CPU clock at delivery.
  gqr::RequestStatus status = gqr::RequestStatus::kRejected;
  std::atomic<uint32_t> fired{0};
  Answer answer;
};

struct ServeOutcome {
  uint64_t submitted = 0, ok = 0, expired = 0, rejected = 0;
  size_t open_requests = 0;  // Open-loop requests: slots [0, this).
  double throughput_qps = 0, cpu_us = 0, p50_us = 0, p99_us = 0, recall = 0;
  double queue_us = 0, exec_us = 0, late_us = 0;
  double batch_fill = 0;
  uint64_t batches = 0;
  // First ok answer per pool query, for the idle equivalence check.
  std::vector<std::optional<Answer>> first;
};

double FillWeightedMean(const gqr::ServiceStats& a,
                        const gqr::ServiceStats& b) {
  double num = 0, den = 0;
  for (size_t f = 0; f < b.batch_fill.size(); ++f) {
    const double n = static_cast<double>(
        b.batch_fill[f] - (f < a.batch_fill.size() ? a.batch_fill[f] : 0));
    num += n * static_cast<double>(f) * static_cast<double>(f);
    den += n * static_cast<double>(f);
  }
  return den > 0 ? num / den : 0.0;
}

// Serves the workload's traffic for `seconds`: a warm-up drain, open-loop
// Poisson arrivals at kServeRate for kOpenLoopShare of the time, then
// submit-and-drain rounds. `start_side` starts what runs beside the
// traffic (the ingest writer) after the warm-up; `stop_side` stops it
// before the service shuts down.
void Serve(const Inputs& in, Built* b, const gqr::Searcher& searcher,
           const Spec& spec, double seconds, uint64_t seed, Corrupt corrupt,
           Checker* ck, std::vector<Slot>* slots_out, ServeOutcome* out,
           const std::function<void()>& start_side,
           const std::function<void()>& stop_side) {
  // The worker's thread CPU clock, read at each delivery, is the
  // service's CPU time only while one worker serves.
  static_assert(kServeWorkers == 1);
  gqr::QueryServiceOptions so;
  so.max_batch = kMaxBatch;
  so.max_linger = kLinger;
  so.max_queue = kMaxQueue;
  so.num_workers = kServeWorkers;
  so.method = spec.method;
  so.search.k = spec.k;
  so.search.max_candidates = spec.budget;

  // Open-loop requests keep their slots to the end of the run. Every
  // submit-and-drain round reuses the same kDrainRound slots after its
  // answers are checked, so the benchmark's own memory does not grow
  // with the number of rounds.
  const double open_s = seconds * kOpenLoopShare;
  const size_t open_cap = static_cast<size_t>(kServeRate * open_s * 1.5) + 64;
  std::vector<Slot>& slots = *slots_out;
  slots = std::vector<Slot>(open_cap + kDrainRound);
  std::atomic<uint64_t> callbacks{0};
  uint64_t admitted = 0;
  const uint64_t drop = 100;  // Request whose delivery the self-test drops.

  gqr::QueryService service(searcher, *b->hasher, *b->index, so);
  uint32_t cursor = 0;
  auto submit = [&](size_t i, Clock::time_point sched,
                    gqr::QueryService::Deadline deadline) {
    Slot* s = &slots[i];
    s->n = out->submitted++;
    s->q = cursor;
    cursor = static_cast<uint32_t>((cursor + 1) % in.queries.size());
    s->sched = sched;
    s->fired.store(0, std::memory_order_relaxed);
    s->submit = Clock::now();
    s->admitted = service.SubmitAsync(
        in.queries.Row(s->q), 0, deadline,
        [s, &callbacks, corrupt, drop](gqr::Response r) {
          const Clock::time_point done = Clock::now();
          const double cpu = ThreadCpuSeconds();
          if (!(corrupt == Corrupt::kDroppedCallback && s->n == drop)) {
            s->done = done;
            s->cpu_s = cpu;
            s->queue_us = r.queue_micros;
            s->status = r.status;
            s->answer.ids = std::move(r.result.ids);
            s->answer.distances = std::move(r.result.distances);
            s->fired.fetch_add(1, std::memory_order_relaxed);
          }
          callbacks.fetch_add(1, std::memory_order_release);
        });
    if (s->admitted) ++admitted;
  };
  auto wait_all = [&] {
    const Clock::time_point limit = Clock::now() + kWaitLimit;
    while (callbacks.load(std::memory_order_acquire) < admitted) {
      if (Clock::now() > limit) {
        ck->Fail("callback-wait", "callbacks did not arrive in time");
        return false;
      }
      std::this_thread::sleep_for(100us);
    }
    return true;
  };

  // Accounts for one delivered request and checks its answer: each
  // admitted request's callback fired exactly once, rejected ones never.
  // Recall is averaged per pool query first, so it does not depend on
  // how many times the run served each query.
  std::vector<double> recall_sum(in.queries.size(), 0.0);
  std::vector<uint32_t> recall_n(in.queries.size(), 0);
  out->first.assign(in.queries.size(), std::nullopt);
  bool corrupted = false;
  auto settle = [&](Slot& s) {
    const uint32_t fired = s.fired.load(std::memory_order_relaxed);
    if (!s.admitted) {
      ++out->rejected;
      if (fired != 0) ck->Fail("callback-once", "rejected request fired");
      return;
    }
    if (fired != 1) {
      ck->Fail("callback-once", "request " + std::to_string(s.n) + " fired " +
                                    std::to_string(fired) + " times");
      return;
    }
    if (s.status == gqr::RequestStatus::kExpired) {
      ++out->expired;
      return;
    }
    if (s.status != gqr::RequestStatus::kOk) {
      ck->Fail("status", "admitted request resolved as rejected");
      return;
    }
    ++out->ok;
    if (!corrupted && (corrupt == Corrupt::kSwappedId ||
                       corrupt == Corrupt::kPerturbedDistance)) {
      CorruptAnswer(corrupt, &s.answer);
      corrupted = true;
    }
    ck->CheckAnswer(s.q, spec.k, s.answer, "served");
    recall_sum[s.q] += ck->Recall(s.q, spec.k, s.answer);
    ++recall_n[s.q];
    if (!out->first[s.q]) out->first[s.q] = s.answer;
  };

  // The worker's CPU clock at the last delivery seen so far.
  double cpu_mark = 0.0;
  auto advance_cpu_mark = [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      if (slots[i].fired.load(std::memory_order_relaxed) == 1) {
        cpu_mark = std::max(cpu_mark, slots[i].cpu_s);
      }
    }
  };
  // One submit-and-drain round in the drain slots. Sets its rate in
  // queries/s and the worker's CPU time per request, in reference
  // microseconds.
  auto drain_round = [&](double* qps, double* cpu_us) {
    // The worker is idle here; the probe runs on this thread.
    const double probe = FetchProbeSeconds(in.base);
    const Clock::time_point t0 = Clock::now();
    for (size_t r = 0; r < kDrainRound; ++r) {
      submit(open_cap + r, Clock::now(), gqr::QueryService::NoDeadline());
    }
    if (!wait_all()) return false;
    Clock::time_point last = t0;
    for (size_t r = 0; r < kDrainRound; ++r) {
      last = std::max(last, slots[open_cap + r].done);
    }
    const double cpu_before = cpu_mark;
    advance_cpu_mark(open_cap, open_cap + kDrainRound);
    *qps = static_cast<double>(kDrainRound) / Seconds(last - t0);
    *cpu_us = 1e6 * ReferenceSeconds(cpu_mark - cpu_before, probe) /
              static_cast<double>(kDrainRound);
    for (size_t r = 0; r < kDrainRound; ++r) settle(slots[open_cap + r]);
    return true;
  };

  double unused_qps, unused_cpu;
  bool flowing = drain_round(&unused_qps, &unused_cpu);  // Warm-up.
  start_side();

  // Open loop: Poisson arrivals, each timed from its scheduled instant.
  const gqr::ServiceStats before = service.Stats();
  std::mt19937_64 rng(seed ^ 0xa77);
  std::exponential_distribution<double> gap(kServeRate);
  std::vector<double> late;
  size_t open_end = 0;
  const Clock::time_point start = Clock::now();
  double t = 0.0;
  for (;;) {
    t += gap(rng);
    if (t >= open_s) break;
    if (open_end == open_cap) {
      ck->Fail("slots", "open-loop request slots exhausted");
      break;
    }
    const Clock::time_point due = At(start, t);
    late.push_back(PaceTo(due));
    submit(open_end++, due, due + kDeadline);
  }
  out->open_requests = open_end;
  flowing = wait_all() && flowing;
  const gqr::ServiceStats after = service.Stats();
  advance_cpu_mark(0, open_end);

  // Submit-and-drain rounds for the rest of the time (whole rounds).
  std::vector<double> rates, cpu_us;
  const Clock::time_point end = At(start, seconds);
  while (flowing &&
         (rates.size() < kMinDrainRounds || Clock::now() < end)) {
    double qps, cpu;
    flowing = drain_round(&qps, &cpu);
    if (flowing) {
      rates.push_back(qps);
      cpu_us.push_back(cpu);
    }
  }
  stop_side();
  service.Shutdown();
  const gqr::ServiceStats stats = service.Stats();

  // Open-loop latency, from each request's scheduled arrival, pools ok
  // and expired requests (an expiry is the tail). The percentiles pool
  // the half of the kWindow windows in which the generator ran least
  // late: in the others the host's scheduler, not the offered load, set
  // the arrival times (README "Load hygiene").
  struct Window {
    std::vector<double> latency;
    double max_late = 0.0;
  };
  std::vector<Window> windows;
  std::vector<double> queue, exec;
  for (size_t i = 0; i < open_end; ++i) {
    const Slot& s = slots[i];
    if (s.fired.load(std::memory_order_relaxed) != 1) continue;
    const size_t w = static_cast<size_t>(Seconds(s.sched - start) /
                                         Seconds(kWindow));
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].latency.push_back(Micros(s.done - s.sched));
    windows[w].max_late = std::max(windows[w].max_late, late[i]);
    if (s.status == gqr::RequestStatus::kOk) {
      queue.push_back(s.queue_us);
      exec.push_back(Micros(s.done - s.submit) - s.queue_us);
    }
  }
  for (size_t i = 0; i < open_end; ++i) settle(slots[i]);

  // ok + expired + rejected == submitted, and the service agrees.
  if (out->ok + out->expired + out->rejected != out->submitted) {
    ck->Fail("status-accounting",
             std::to_string(out->ok) + " ok + " +
                 std::to_string(out->expired) + " expired + " +
                 std::to_string(out->rejected) + " rejected != " +
                 std::to_string(out->submitted) + " submitted");
  }
  if (stats.accepted != admitted || stats.rejected != out->rejected ||
      stats.completed != out->ok || stats.expired != out->expired) {
    ck->Fail("service-stats", "Stats() disagrees with delivered callbacks");
  }
  double recall = 0.0;
  size_t served_queries = 0;
  for (size_t q = 0; q < in.queries.size(); ++q) {
    if (recall_n[q] == 0) continue;
    recall += recall_sum[q] / recall_n[q];
    ++served_queries;
  }

  std::sort(windows.begin(), windows.end(),
            [](const Window& a, const Window& b) {
              return a.max_late < b.max_late;
            });
  std::vector<double> lat, all_lat;
  for (size_t w = 0; w < windows.size(); ++w) {
    const std::vector<double>& l = windows[w].latency;
    all_lat.insert(all_lat.end(), l.begin(), l.end());
    if (w < (windows.size() + 1) / 2) lat.insert(lat.end(), l.begin(), l.end());
  }
  const size_t on_time = static_cast<size_t>(std::count_if(
      windows.begin(), windows.end(),
      [](const Window& w) { return w.max_late <= kWindowLateLimitUs; }));
  out->late_us = Percentile(late, 0.99);
  if (on_time < (windows.size() + 1) / 2) {
    std::fprintf(stderr,
                 "LATE: the generator kept within %.0f us of its schedule in "
                 "only %zu of %zu windows\n",
                 kWindowLateLimitUs, on_time, windows.size());
  }
  out->throughput_qps = UpperHalfMedian(rates);
  out->cpu_us = Median(cpu_us);
  out->p50_us = Percentile(lat, 0.5);
  out->p99_us = Percentile(lat, 0.99);
  out->recall =
      served_queries > 0 ? recall / static_cast<double>(served_queries) : 0.0;
  out->queue_us = Percentile(queue, 0.5);
  out->exec_us = Percentile(exec, 0.5);
  out->batch_fill = FillWeightedMean(before, after);
  out->batches = after.batches - before.batches;
  std::fprintf(stderr,
               "serve: submitted %llu ok %llu expired %llu rejected %llu; "
               "%zu drain rounds; open-loop batch fill %.1f; generator late "
               "p99 %.1f us, on schedule in %zu of %zu windows (latency p99 "
               "over all windows %.1f us)\n",
               static_cast<unsigned long long>(out->submitted),
               static_cast<unsigned long long>(out->ok),
               static_cast<unsigned long long>(out->expired),
               static_cast<unsigned long long>(out->rejected), rates.size(),
               out->batch_fill, out->late_us, on_time, windows.size(),
               Percentile(all_lat, 0.99));
}

void AddServeLayerMetrics(const ServeOutcome& o, Sink* s) {
  s->Add("serve.queue_wait_us", o.queue_us, "us");
  s->Add("serve.exec_us", o.exec_us, "us");
  s->Add("serve.batch_fill", o.batch_fill, "queries");
  s->Add("serve.batches", static_cast<double>(o.batches), "count");
  s->Add("loadgen.late_us", o.late_us, "us");
}

// Idle equivalences: ShardedSearch over the index equals BatchSearch over
// a StaticHashTable of the same codes.
void CheckShardedEqualsStatic(const Inputs& in, const Built& b,
                              const gqr::Searcher& searcher, const Spec& spec,
                              gqr::ThreadPool* pool, Checker* ck) {
  gqr::SearchOptions opt;
  opt.k = spec.k;
  opt.max_candidates = spec.budget;
  const std::vector<gqr::SearchResult> sharded = gqr::ShardedSearch(
      searcher, *b.hasher, *b.index, in.queries, spec.method, opt, pool);
  const std::vector<gqr::SearchResult> single = gqr::BatchSearch(
      searcher, *b.hasher, *b.table, in.queries, spec.method, opt, pool);
  for (size_t q = 0; q < in.queries.size(); ++q) {
    ck->CheckSame("sharded-vs-static", q, ToAnswer(single[q]),
                  ToAnswer(sharded[q]));
  }
}

RunResult RunServed(const RunConfig& cfg, const Spec& spec, const Inputs& in,
                    Built* b, Checker* ck, Tracer* tracer) {
  RunResult res;
  Sink sink{&res};
  gqr::Searcher searcher(in.base);
  gqr::ThreadPool pool(kThreads - 1);
  std::vector<std::string> errors;

  // ingest: the writer thread is the fourth busy thread.
  Writes writes;
  std::atomic<bool> stop{false};
  std::thread writer;
  auto start_writer = [&] {
    if (!spec.ingest) return;
    writer = std::thread([&] {
      std::mt19937_64 rng(cfg.seed ^ 0x1e57);
      std::uniform_int_distribution<ItemId> pick(0, kN - 1);
      const Clock::time_point t0 = Clock::now();
      double next_pair = 0.0;
      Clock::time_point next_freeze = t0 + kFreezeEvery;
      size_t shard = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const Clock::time_point pair_due = At(t0, next_pair);
        if (next_freeze <= pair_due) {
          PaceTo(next_freeze);
          Freeze(b, shard, &writes, &errors);
          shard = (shard + 1) % kShards;
          next_freeze += kFreezeEvery;
          // The freeze occupies the writer; pairs that fell due meanwhile
          // are rescheduled after it rather than sent in a burst.
          next_pair = std::max(next_pair, Seconds(Clock::now() - t0));
        } else {
          PaceTo(pair_due);
          WritePair(b, pick(rng), &writes, &errors);
          next_pair += 1.0 / kWritePairRate;
        }
      }
    });
  };
  auto stop_writer = [&] {
    if (!spec.ingest) return;
    stop.store(true, std::memory_order_release);
    writer.join();
  };

  std::vector<Slot> slots;
  ServeOutcome o;
  Serve(in, b, searcher, spec, cfg.seconds, cfg.seed, cfg.corrupt, ck, &slots,
        &o, start_writer, stop_writer);

  if (spec.ingest) CheckIndexHoldsCorpus(*b, ck);
  const double union_us = UnionMicros(*b->index);

  // Replay on the index as the traffic left it: frozen shards for serve
  // and serve-hr, live ones after ingest.
  Layers layers;
  const size_t fill =
      static_cast<size_t>(std::lround(std::max(1.0, o.batch_fill)));
  const std::vector<Answer> direct = ReplayLayers(
      in, *b, searcher, spec, /*sharded=*/true, fill, tracer, ck, &layers);
  if (!spec.ingest) {
    for (size_t q = 0; q < in.queries.size(); ++q) {
      if (o.first[q]) {
        ck->CheckSame("served-vs-direct", q, direct[q], *o.first[q]);
      }
    }
  } else {
    // Back to serve's frozen state: the equivalence check below then
    // shows the quiesced results, and so their recall, equal serve's.
    b->index->FreezeAll();
  }
  CheckShardedEqualsStatic(in, *b, searcher, spec, &pool, ck);
  if (!spec.ingest) IdleWriteProbe(b, cfg.seed, &writes, &errors);
  for (const std::string& e : errors) ck->Fail("write-status", e);

  res.attempted = o.submitted + writes.attempted;
  res.failed = o.expired + o.rejected + writes.failed;

  // Spans of the served requests, from their recorded timestamps.
  if (tracer->enabled()) {
    for (size_t i = 0; i < o.open_requests; ++i) {
      const Slot& s = slots[i];
      if (s.status != gqr::RequestStatus::kOk) continue;
      const uint64_t req = kServedIds + i;
      const Clock::time_point claim =
          s.submit + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::micro>(s.queue_us));
      const uint64_t root =
          tracer->Record("serve.request", req, 0, s.sched, s.done);
      tracer->Record("serve.queue", req, root, s.submit, claim);
      tracer->Record("serve.exec", req, root, claim, s.done);
    }
  }

  sink.Add("query_cpu_us", o.cpu_us, "us");
  sink.Add("recall_at_k", o.recall, "fraction");
  AddWriteMetrics(writes, &sink);
  AddServeLayerMetrics(o, &sink);
  AddLayerMetrics(layers, in.queries.size(), &sink);
  sink.Add("index.union_us", union_us, "us");
  sink.Add("trace.query_cpu_us", o.cpu_us, "us");
  sink.Add("trace.throughput_qps", o.throughput_qps, "queries/s");
  sink.Add("trace.latency_p50_us", o.p50_us, "us");
  sink.Add("trace.latency_p99_us", o.p99_us, "us");
  return res;
}

// --------------------------------------------------------------- batch

RunResult RunBatch(const RunConfig& cfg, const Spec& spec, const Inputs& in,
                   Built* b, Checker* ck, Tracer* tracer) {
  RunResult res;
  Sink sink{&res};
  gqr::Searcher searcher(in.base);
  // One compute thread (README "Load hygiene"): BatchSearch on a
  // one-thread pool runs its queries on the calling thread.
  gqr::ThreadPool pool(1);
  gqr::SearchOptions opt;
  opt.k = spec.k;
  opt.max_candidates = spec.budget;

  const size_t nq = in.queries.size();
  std::vector<gqr::Dataset> blocks;
  for (size_t lo = 0; lo < nq; lo += kBatchBlock) {
    std::vector<ItemId> ids;
    for (size_t q = lo; q < std::min(nq, lo + kBatchBlock); ++q) {
      ids.push_back(static_cast<ItemId>(q));
    }
    blocks.push_back(in.queries.Gather(ids));
  }
  std::vector<std::vector<gqr::SearchResult>> results(blocks.size());
  auto lap = [&](std::vector<double>* call_us, uint64_t lap_id) {
    for (size_t i = 0; i < blocks.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      gqr::BatchSearchInto(searcher, *b->hasher, *b->table, blocks[i],
                           spec.method, opt, &results[i], &pool);
      const Clock::time_point t1 = Clock::now();
      tracer->Record("batch.call", kBatchCallIds + lap_id * blocks.size() + i,
                     0, t0, t1);
      if (call_us != nullptr) call_us->push_back(Micros(t1 - t0));
    }
  };

  // Warm-up lap: its answers are the reference every later lap must
  // reproduce.
  lap(nullptr, 0);
  std::vector<Answer> answers(nq);
  for (size_t q = 0; q < nq; ++q) {
    answers[q] = ToAnswer(results[q / kBatchBlock][q % kBatchBlock]);
  }
  // Every lap does identical work, so lap-to-lap variation is the
  // host's; latency pools the calls of the faster half of the laps.
  struct Lap {
    double seconds;
    double cpu_s;  // Thread CPU time: the one-thread pool runs here.
    double probe_s;  // Host-speed probe run right before the lap.
    std::vector<double> call_us;
  };
  std::vector<Lap> timed;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = At(start, cfg.seconds);
  uint64_t laps = 0;
  size_t mismatches = 0;
  while (laps == 0 || Clock::now() < end) {
    Lap l;
    l.probe_s = FetchProbeSeconds(in.base);
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = ThreadCpuSeconds();
    lap(&l.call_us, ++laps);
    l.cpu_s = ThreadCpuSeconds() - cpu0;
    l.seconds = Seconds(Clock::now() - t0);
    timed.push_back(std::move(l));
    for (size_t q = 0; q < nq; ++q) {
      const gqr::SearchResult& r = results[q / kBatchBlock][q % kBatchBlock];
      if (r.ids != answers[q].ids || r.distances != answers[q].distances) {
        ++mismatches;
      }
    }
  }
  if (mismatches > 0) {
    ck->Fail("batch-repeat", std::to_string(mismatches) +
                                 " answers differ from the first lap");
  }

  CorruptAnswer(cfg.corrupt, &answers[0]);
  double recall = 0.0;
  for (size_t q = 0; q < nq; ++q) {
    ck->CheckAnswer(q, spec.k, answers[q], "batch");
    recall += ck->Recall(q, spec.k, answers[q]);
  }

  Layers layers;
  const std::vector<Answer> direct = ReplayLayers(
      in, *b, searcher, spec, /*sharded=*/false, kBatchHashFill, tracer, ck,
      &layers);
  for (size_t q = 0; q < nq; ++q) {
    ck->CheckSame("batch-vs-direct", q, direct[q], answers[q]);
  }

  const double union_us = UnionMicros(*b->index);
  std::vector<std::string> errors;
  Writes writes;
  IdleWriteProbe(b, cfg.seed, &writes, &errors);

  for (const std::string& e : errors) ck->Fail("write-status", e);

  res.attempted = (laps + 1) * nq + writes.attempted;  // + warm-up lap
  res.failed = writes.failed;
  std::sort(timed.begin(), timed.end(),
            [](const Lap& a, const Lap& b) { return a.seconds < b.seconds; });
  std::vector<double> lap_qps, lap_cpu_us, call_us;
  for (size_t i = 0; i < timed.size(); ++i) {
    lap_qps.push_back(static_cast<double>(nq) / timed[i].seconds);
    lap_cpu_us.push_back(1e6 * ReferenceSeconds(timed[i].cpu_s,
                                                 timed[i].probe_s) /
                         static_cast<double>(nq));
    if (i < (timed.size() + 1) / 2) {
      call_us.insert(call_us.end(), timed[i].call_us.begin(),
                     timed[i].call_us.end());
    }
  }
  const double qps = UpperHalfMedian(lap_qps);
  const double cpu_us = Median(lap_cpu_us);
  const double p50 = Percentile(call_us, 0.5);
  sink.Add("query_cpu_us", cpu_us, "us");
  sink.Add("recall_at_k", recall / static_cast<double>(nq), "fraction");
  AddWriteMetrics(writes, &sink);
  // Nothing is served in batch: the serving layer's figures read 0.
  AddServeLayerMetrics(ServeOutcome{}, &sink);
  AddLayerMetrics(layers, nq, &sink);
  sink.Add("index.union_us", union_us, "us");
  sink.Add("trace.query_cpu_us", cpu_us, "us");
  sink.Add("trace.throughput_qps", qps, "queries/s");
  sink.Add("trace.latency_p50_us", p50, "us");
  sink.Add("trace.latency_p99_us", Percentile(call_us, 0.99), "us");
  std::fprintf(stderr, "batch: %llu laps of %zu queries; latency from the "
               "%zu calls of the faster half\n",
               static_cast<unsigned long long>(laps), nq, call_us.size());
  return res;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "batch" || name == "serve" || name == "serve-hr" ||
         name == "ingest";
}

RunResult RunWorkload(const RunConfig& cfg, const Inputs& in, Built* built,
                      Checker* checker, Tracer* tracer) {
  const Spec spec = SpecOf(cfg.workload);
  return spec.served ? RunServed(cfg, spec, in, built, checker, tracer)
                     : RunBatch(cfg, spec, in, built, checker, tracer);
}

}  // namespace gqrbench
