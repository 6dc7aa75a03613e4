#include "spans.hpp"

#include <cstdio>
#include <memory>

namespace perfbench {

Spans::Scope::Scope(Spans& spans, const char* name)
    : spans_{spans}, index_{static_cast<std::int32_t>(spans.spans_.size())} {
  Span s;
  s.name = name;
  s.parent = spans.open_.empty() ? -1 : spans.open_.back();
  s.request = spans.request_;
  s.start_ns = spans.now_ns();
  spans.spans_.push_back(s);
  spans.open_.push_back(index_);
}

Spans::Scope::~Scope() {
  spans_.spans_[static_cast<std::size_t>(index_)].end_ns = spans_.now_ns();
  spans_.open_.pop_back();
}

std::map<std::string, Spans::Stats> Spans::by_name() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Stats> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Stats& st = out[s.name];
    ++st.count;
    st.total_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    st.self_ms += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-6;
  }
  return out;
}

std::map<std::string, double> Spans::self_ms_by_layer() const {
  std::map<std::string, double> out;
  for (const auto& [name, st] : by_name()) {
    out[name.substr(0, name.find('.'))] += st.self_ms;
  }
  return out;
}

double Spans::request_ms(const std::string& name, std::uint32_t request) const {
  double ms = 0.0;
  for (const Span& s : spans_) {
    if (s.request == request && name == s.name) {
      ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    }
  }
  return ms;
}

bool Spans::write_jsonl(const std::string& path) const {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f{std::fopen(path.c_str(), "w"),
                                                          &std::fclose};
  if (f == nullptr) {
    return false;
  }
  for (const Span& s : spans_) {
    std::fprintf(f.get(),
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                 "\"request\":%u}\n",
                 s.name, static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 s.parent, s.request);
  }
  return std::fflush(f.get()) == 0 && std::ferror(f.get()) == 0;
}

}  // namespace perfbench
