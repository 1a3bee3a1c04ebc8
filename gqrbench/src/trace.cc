// In-memory span recorder, written out as JSON lines when the run ends.
#include <fstream>
#include <iomanip>

#include "bench.h"

namespace gqrbench {

uint64_t Tracer::Record(const char* name, uint64_t request, uint64_t parent,
                        Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{name, id, request, parent, start, end});
  return id;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << std::fixed << std::setprecision(3);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"request\":" << s.request << ",\"parent\":" << s.parent
        << ",\"start_us\":" << Micros(s.start - origin_)
        << ",\"end_us\":" << Micros(s.end - origin_) << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

}  // namespace gqrbench
