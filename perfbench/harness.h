// Shared pieces of the end-to-end benchmark: command line, timing of
// public calls (harness spans), before/after snapshots of the counters
// the library exports through obs::MetricsRegistry, trace self time,
// and the report printed at the end of a run.
//
// The benchmark drives the library only through its public API and
// reads the program's own counters from outside; nothing here changes
// how the library runs.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "data/entity.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for checkpoints (inside the checkout).
  std::string workdir;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 --workdir D`.
/// Returns false (after printing why) on a malformed command line.
bool ParseArgs(int argc, char** argv, Args* args);

/// Independent 64-bit stream `stream` of `seed` (SplitMix64 finalizer),
/// so every round and table of a workload gets its own generator seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

inline uint64_t NowNs() { return hiergat::obs::MonotonicNowNs(); }
inline double SecondsBetween(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Mean of the middle half (the lowest and highest quarter dropped):
/// combines per-round values without letting a round hit by a stall of
/// the host, or a value sitting on a band edge, decide the result.
double InterquartileMean(std::vector<double> values);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Current value of the counter `name`, or false when the program does
/// not export it. Unlike MetricsRegistry::GetCounter this never
/// registers the name, so a renamed counter is noticed.
bool ReadCounter(const std::string& name, int64_t* value);

/// Time spent in one named span, summed over its calls. `self_s` is
/// the span's duration minus the part of it its child spans cover.
struct SpanStats {
  int64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Times the public calls the benchmark makes. With tracing on, each
/// call also becomes a harness span: it runs under a fresh trace root,
/// so every program span it causes (on any thread) carries its trace
/// id, and its self time is its duration minus the union of those
/// program spans. Harness spans live in this object's memory and are
/// never dropped; program spans are pulled out of the library's
/// per-thread rings by Drain().
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Runs `fn` as the span `name` (a string literal) and returns its
  /// wall time in seconds. Safe from several threads at once.
  template <typename Fn>
  double Time(const char* name, Fn&& fn) {
    if (!enabled_) {
      const uint64_t start = NowNs();
      fn();
      return SecondsBetween(start, NowNs());
    }
    hiergat::obs::ScopedTraceRoot root;
    const uint64_t start = NowNs();
    fn();
    const uint64_t end = NowNs();
    Add(name, root.context().trace_id, start, end);
    return SecondsBetween(start, end);
  }

  /// Moves the program's buffered spans into this tracer and clears the
  /// rings. Call it where the program is idle, so no span is in flight.
  void Drain();

  /// Per-span-name totals over everything drained so far. Harness spans
  /// are keyed "bench:<name>".
  const std::map<std::string, SpanStats>& stats() const { return stats_; }

 private:
  struct HarnessSpan {
    const char* name;
    uint64_t trace_id;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  void Add(const char* name, uint64_t trace_id, uint64_t start_ns,
           uint64_t end_ns);

  const bool enabled_;
  std::mutex mutex_;  // Guards pending_.
  std::vector<HarnessSpan> pending_;
  std::map<std::string, SpanStats> stats_;
};

/// Values of every `hiergat.*` counter and histogram (count, sum) at
/// one instant.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, std::pair<int64_t, double>> histograms;

  static MetricsSnapshot Take();
};

/// After-minus-before differences of named counters. A name the
/// program does not export is recorded in missing() instead of reading
/// as zero, so a renamed or removed counter surfaces as a missing
/// metric.
class CounterDelta {
 public:
  CounterDelta(MetricsSnapshot before, MetricsSnapshot after)
      : before_(std::move(before)), after_(std::move(after)) {}

  double Counter(const std::string& name);
  /// A counter the program registers only when its event first happens
  /// (errors, sheds): absent reads as zero, so it cannot be checked.
  double EventCounter(const std::string& name) {
    return after_.counters.count(name) != 0 ? Counter(name) : 0.0;
  }
  double HistogramCount(const std::string& name);
  double HistogramSum(const std::string& name);

  const std::set<std::string>& missing() const { return missing_; }

 private:
  MetricsSnapshot before_;
  MetricsSnapshot after_;
  std::set<std::string> missing_;
};

/// Input properties the program's behaviour depends on, computed from
/// the generated inputs in the order the program receives them.
class InputStats {
 public:
  /// Counts every attribute value of `entity`.
  void AddEntity(const hiergat::Entity& entity);
  void AddQueries(int64_t queries, int64_t candidates) {
    queries_ += queries;
    candidates_ += candidates;
  }

  /// Share of attribute values already seen earlier in the workload
  /// (the reuse a per-value summary cache can exploit).
  double ValueReuseShare() const;
  /// Mean whitespace-token length of an attribute value.
  double MeanAttributeTokens() const;
  double CandidatesPerQuery() const;

 private:
  std::set<std::string> seen_;
  int64_t values_ = 0;
  int64_t repeated_ = 0;
  int64_t tokens_ = 0;
  int64_t queries_ = 0;
  int64_t candidates_ = 0;
};

/// Correctness bookkeeping of one run: every operation the benchmark
/// attempts, and those that failed, were shed or returned a wrong
/// answer.
struct Checks {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> messages;  ///< First few violations.

  void Fail(const std::string& message);
  /// One score per item sent, each finite and in [0, 1].
  bool CheckScores(const std::vector<float>& scores, size_t expected,
                   const char* what);
};

/// One reported metric: value, unit, and where it comes from.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string source;
};

/// Prints every metric as a readable line, then the one-line JSON
/// result the benchmark's caller parses (always the last line).
void PrintReport(const std::vector<Metric>& metrics, const Checks& checks,
                 bool correct);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
