// Output checkers. Nothing here compares against a stored copy of an
// earlier run: every check recomputes what it needs from the inputs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <unordered_set>

#include "bench.h"

namespace gqrbench {

namespace {
// Failures printed per run; the rest are only counted.
constexpr size_t kMaxPrinted = 10;
// Library distances are float; the benchmark's are double.
constexpr double kDistanceTolerance = 1e-4;
}  // namespace

Answer ToAnswer(const gqr::SearchResult& r) {
  return Answer{r.ids, r.distances};
}

Checker::Checker(const Inputs& in, const Built& built)
    : in_(&in), built_(&built), infos_(in.queries.size()) {
  for (size_t q = 0; q < in.queries.size(); ++q) {
    infos_[q] = built.hasher->HashQuery(in.queries.Row(static_cast<ItemId>(q)));
  }
}

void Checker::Fail(const std::string& check, const std::string& detail) {
  if (failures_ < kMaxPrinted) {
    std::fprintf(stderr, "CHECK FAILED [%s] %s\n", check.c_str(),
                 detail.c_str());
  }
  ++failures_;
}

void Checker::CheckAnswer(size_t q, size_t k, const Answer& a,
                          const char* where) {
  std::ostringstream at;
  at << where << " query " << q;
  if (a.ids.size() != k || a.distances.size() != k) {
    Fail("result-size", at.str() + ": " + std::to_string(a.ids.size()) +
                            " ids, want " + std::to_string(k));
    return;
  }
  std::unordered_set<ItemId> seen;
  const float* query = in_->queries.Row(static_cast<ItemId>(q));
  const gqr::QueryHashInfo& info = infos_[q];
  for (size_t r = 0; r < k; ++r) {
    const ItemId id = a.ids[r];
    if (id >= in_->base.size()) {
      Fail("id-range", at.str() + ": id " + std::to_string(id));
      return;
    }
    if (!seen.insert(id).second) {
      Fail("id-distinct", at.str() + ": id " + std::to_string(id) + " twice");
    }
    if (r > 0 && a.distances[r] < a.distances[r - 1]) {
      Fail("ascending", at.str() + ": rank " + std::to_string(r));
    }
    const double exact = ExactDistance(query, in_->base.Row(id), kDim);
    const double got = a.distances[r];
    if (std::fabs(got - exact) > kDistanceTolerance * std::max(1.0, exact)) {
      std::ostringstream d;
      d << at.str() << ": id " << id << " distance " << got << " exact "
        << exact;
      Fail("exact-distance", d.str());
    }
    // Theorem 2: ||q - o|| >= mu * QD(q, code(o)), QD summed here from
    // the query's flipping costs.
    const Code diff = info.code ^ built_->codes[id];
    double qd = 0.0;
    for (int bit = 0; bit < info.code_length(); ++bit) {
      if ((diff >> bit) & 1u) qd += info.flip_costs[bit];
    }
    if (exact < built_->mu * qd * (1.0 - 1e-9) - 1e-9) {
      std::ostringstream d;
      d << at.str() << ": id " << id << " distance " << exact
        << " < mu*QD " << built_->mu * qd;
      Fail("theorem-2", d.str());
    }
  }
}

void Checker::CheckSame(const char* check, size_t q, const Answer& want,
                        const Answer& got) {
  if (want.ids != got.ids || want.distances != got.distances) {
    Fail(check, "query " + std::to_string(q) + ": results differ");
  }
}

double Checker::Recall(size_t q, size_t k, const Answer& a) const {
  const std::vector<ItemId>& t = in_->truth[q];
  size_t hit = 0;
  for (size_t r = 0; r < std::min(k, t.size()); ++r) {
    if (std::find(a.ids.begin(), a.ids.end(), t[r]) != a.ids.end()) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(k);
}

}  // namespace gqrbench
