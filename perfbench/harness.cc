#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <unordered_map>

namespace perfbench {

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0)) {
        std::fprintf(stderr, "--seconds must be a positive number\n");
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "--trace must be 0 or 1\n");
        return false;
      }
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_seed || args->workdir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n");
    return false;
  }
  return true;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t drop = values.size() / 4;
  double sum = 0.0;
  for (size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

bool ReadCounter(const std::string& name, int64_t* value) {
  for (const auto& [found, current] :
       hiergat::obs::MetricsRegistry::Global().CounterValues(name)) {
    if (found == name) {
      *value = current;
      return true;
    }
  }
  return false;
}

// -- Tracer -----------------------------------------------------------------

void Tracer::Add(const char* name, uint64_t trace_id, uint64_t start_ns,
                 uint64_t end_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  pending_.push_back({name, trace_id, start_ns, end_ns});
}

namespace {

struct ProgramSpan {
  std::string_view name;
  int tid = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t trace_id = 0;
};

uint64_t MicrosToNs(const char* text) {
  return static_cast<uint64_t>(std::llround(std::strtod(text, nullptr) * 1e3));
}

// Reads the complete ("ph":"X") events out of the library's Chrome
// trace export: name, tid, ts/dur (microseconds with ns digits) and the
// optional per-request "trace" arg. The export writes one flat object
// per event, so a positional scan is enough.
std::vector<ProgramSpan> ParseChromeTrace(const std::string& json) {
  std::vector<ProgramSpan> spans;
  static constexpr char kOpen[] = "{\"name\":\"";
  size_t pos = json.find(kOpen);
  while (pos != std::string::npos) {
    const size_t name_begin = pos + sizeof(kOpen) - 1;
    const size_t name_end = json.find('"', name_begin);
    const size_t next = json.find(kOpen, name_end);
    const std::string_view event(json.data() + name_end,
                                 (next == std::string::npos ? json.size() : next) -
                                     name_end);
    if (event.find("\"ph\":\"X\"") != std::string_view::npos) {
      ProgramSpan span;
      span.name = std::string_view(json.data() + name_begin,
                                   name_end - name_begin);
      const auto field = [&](const char* key) -> const char* {
        const size_t at = event.find(key);
        return at == std::string_view::npos ? nullptr
                                            : event.data() + at + std::strlen(key);
      };
      span.tid = std::atoi(field("\"tid\":"));
      span.start_ns = MicrosToNs(field("\"ts\":"));
      span.end_ns = span.start_ns + MicrosToNs(field("\"dur\":"));
      if (const char* trace = field("\"trace\":")) {
        span.trace_id = std::strtoull(trace, nullptr, 10);
      }
      spans.push_back(span);
    }
    pos = next;
  }
  return spans;
}

// Length of the union of `intervals` clipped to [lo, hi].
uint64_t CoveredNs(std::vector<std::pair<uint64_t, uint64_t>> intervals,
                   uint64_t lo, uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0, cursor = lo;
  for (auto [begin, end] : intervals) {
    begin = std::max(begin, cursor);
    end = std::min(end, hi);
    if (end > begin) {
      covered += end - begin;
      cursor = end;
    }
  }
  return covered;
}

}  // namespace

void Tracer::Drain() {
  if (!enabled_) return;
  auto& recorder = hiergat::obs::TraceRecorder::Global();
  const std::string json = recorder.ChromeTraceJson();
  recorder.Clear();
  std::vector<ProgramSpan> spans = ParseChromeTrace(json);

  // Program spans nest per thread (RAII), so a span's children are the
  // spans directly inside it on the same thread.
  std::sort(spans.begin(), spans.end(), [](const ProgramSpan& a, const ProgramSpan& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  std::vector<uint64_t> child_ns(spans.size(), 0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < spans.size(); ++i) {
    while (!stack.empty() &&
           (spans[stack.back()].tid != spans[i].tid ||
            spans[stack.back()].end_ns <= spans[i].start_ns)) {
      stack.pop_back();
    }
    if (!stack.empty()) child_ns[stack.back()] += spans[i].end_ns - spans[i].start_ns;
    stack.push_back(i);
  }
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> by_trace;
  for (size_t i = 0; i < spans.size(); ++i) {
    const ProgramSpan& span = spans[i];
    const uint64_t dur = span.end_ns - span.start_ns;
    SpanStats& stats = stats_[std::string(span.name)];
    ++stats.calls;
    stats.total_s += static_cast<double>(dur) * 1e-9;
    stats.self_s += static_cast<double>(dur - std::min(dur, child_ns[i])) * 1e-9;
    if (span.trace_id != 0) by_trace[span.trace_id].emplace_back(span.start_ns, span.end_ns);
  }

  std::vector<HarnessSpan> harness;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    harness.swap(pending_);
  }
  for (const HarnessSpan& span : harness) {
    const uint64_t dur = span.end_ns - span.start_ns;
    const auto it = by_trace.find(span.trace_id);
    const uint64_t covered =
        it == by_trace.end() ? 0 : CoveredNs(it->second, span.start_ns, span.end_ns);
    SpanStats& stats = stats_[std::string("bench:") + span.name];
    ++stats.calls;
    stats.total_s += static_cast<double>(dur) * 1e-9;
    stats.self_s += static_cast<double>(dur - covered) * 1e-9;
  }
}

// -- Counter snapshots --------------------------------------------------------

MetricsSnapshot MetricsSnapshot::Take() {
  auto& registry = hiergat::obs::MetricsRegistry::Global();
  MetricsSnapshot snapshot;
  for (const auto& [name, value] : registry.CounterValues("hiergat.")) {
    snapshot.counters[name] = value;
  }
  // Histograms are read from the registry's JSON export, which lists
  // every registered histogram as "name":{"count":N,"sum":S,...}; asking
  // the registry by name would register a missing one instead.
  const std::string json = registry.JsonDump();
  const size_t section = json.find("\"histograms\":{");
  size_t pos = section == std::string::npos ? std::string::npos
                                            : section + std::strlen("\"histograms\":{");
  while (pos != std::string::npos && pos < json.size() && json[pos] == '"') {
    const size_t name_end = json.find('"', pos + 1);
    const std::string name = json.substr(pos + 1, name_end - pos - 1);
    const size_t count_at = json.find("\"count\":", name_end);
    const size_t sum_at = json.find("\"sum\":", name_end);
    const size_t close = json.find('}', name_end);
    if (count_at == std::string::npos || sum_at == std::string::npos ||
        close == std::string::npos) {
      break;
    }
    snapshot.histograms[name] = {
        std::strtoll(json.c_str() + count_at + 8, nullptr, 10),
        std::strtod(json.c_str() + sum_at + 6, nullptr)};
    pos = close + 1;
    if (pos < json.size() && json[pos] == ',') ++pos;
  }
  return snapshot;
}

double CounterDelta::Counter(const std::string& name) {
  const auto after = after_.counters.find(name);
  if (after == after_.counters.end()) {
    missing_.insert(name);
    return 0.0;
  }
  const auto before = before_.counters.find(name);
  const int64_t base = before == before_.counters.end() ? 0 : before->second;
  return static_cast<double>(after->second - base);
}

double CounterDelta::HistogramCount(const std::string& name) {
  const auto after = after_.histograms.find(name);
  if (after == after_.histograms.end()) {
    missing_.insert(name);
    return 0.0;
  }
  const auto before = before_.histograms.find(name);
  const int64_t base = before == before_.histograms.end() ? 0 : before->second.first;
  return static_cast<double>(after->second.first - base);
}

double CounterDelta::HistogramSum(const std::string& name) {
  const auto after = after_.histograms.find(name);
  if (after == after_.histograms.end()) {
    missing_.insert(name);
    return 0.0;
  }
  const auto before = before_.histograms.find(name);
  const double base = before == before_.histograms.end() ? 0.0 : before->second.second;
  return after->second.second - base;
}

// -- Input properties -----------------------------------------------------

void InputStats::AddEntity(const hiergat::Entity& entity) {
  for (const auto& [key, value] : entity.attributes()) {
    ++values_;
    if (!seen_.insert(key + '\x1f' + value).second) ++repeated_;
    std::istringstream words(value);
    std::string word;
    while (words >> word) ++tokens_;
  }
}

double InputStats::ValueReuseShare() const {
  return values_ == 0 ? 0.0 : static_cast<double>(repeated_) / static_cast<double>(values_);
}

double InputStats::MeanAttributeTokens() const {
  return values_ == 0 ? 0.0 : static_cast<double>(tokens_) / static_cast<double>(values_);
}

double InputStats::CandidatesPerQuery() const {
  return queries_ == 0 ? 0.0 : static_cast<double>(candidates_) / static_cast<double>(queries_);
}

// -- Checks and report ----------------------------------------------------------

void Checks::Fail(const std::string& message) {
  ++failed;
  if (messages.size() < 8) messages.push_back(message);
}

bool Checks::CheckScores(const std::vector<float>& scores, size_t expected,
                         const char* what) {
  if (scores.size() != expected) {
    Fail(std::string(what) + ": " + std::to_string(scores.size()) +
         " scores for " + std::to_string(expected) + " items");
    return false;
  }
  for (const float score : scores) {
    if (!std::isfinite(score) || score < 0.0f || score > 1.0f) {
      Fail(std::string(what) + ": score " + std::to_string(score) +
           " is not a probability");
      return false;
    }
  }
  return true;
}

void PrintReport(const std::vector<Metric>& metrics, const Checks& checks,
                 bool correct) {
  for (const std::string& message : checks.messages) {
    std::printf("check failed: %s\n", message.c_str());
  }
  for (const Metric& metric : metrics) {
    std::printf("%-36s %16.6g %-6s %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.source.c_str());
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << checks.attempted
       << ", \"failed\": " << checks.failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
         << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
