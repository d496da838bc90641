#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

// The layer a span belongs to: its name up to the first '.'.
std::string LayerOf(const char* name) {
  const std::string s(name);
  const size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace

std::map<std::string, double> SelfSecondsByLayer(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      int64_t cursor = s.start_ns;
      for (const auto& [start, end] : kids) {
        const int64_t lo = std::max(start, cursor);
        const int64_t hi = std::min(end, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    self[LayerOf(s.name)] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

bool WriteTrace(const std::string& path, const std::string& header,
                const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "%s\n", header.c_str());
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,\"request\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
