#include "bench.h"

#include <malloc.h>

#include <fstream>
#include <sstream>

namespace perfbench {

double Coverage(std::vector<std::pair<double, double>> intervals, double begin,
                double end) {
  if (end <= begin) return 0.0;
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cursor = begin;
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered / (end - begin);
}

std::vector<double> SpanLog::SelfTimes() const {
  std::vector<Span> spans = Snapshot();
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const double duration = spans[i].end - spans[i].start;
    const double covered =
        children[i].empty()
            ? 0.0
            : Coverage(children[i], spans[i].start, spans[i].end) * duration;
    self[i] = std::max(0.0, duration - covered);
  }
  return self;
}

double SpanLog::MeanSelf(const std::string& name, size_t* count) const {
  std::vector<Span> spans = Snapshot();
  std::vector<double> self = SelfTimes();
  std::vector<double> picked;
  for (size_t i = 0; i < spans.size() && i < self.size(); ++i) {
    if (spans[i].name == name) picked.push_back(self[i]);
  }
  if (count != nullptr) *count = picked.size();
  return Mean(picked);
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::vector<Span> spans = Snapshot();
  std::vector<double> self = SelfTimes();
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  char buf[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%d,"
                  "\"request\":%llu,\"self\":%.9f}%s\n",
                  s.name.c_str(), s.start, s.end, s.parent,
                  static_cast<unsigned long long>(s.request), self[i],
                  i + 1 < spans.size() ? "," : "");
    out << buf;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
