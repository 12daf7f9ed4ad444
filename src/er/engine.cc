#include "er/engine.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <thread>

#include "nn/introspection.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/threadpool.h"

namespace hiergat {

namespace {

// Engine metrics (DESIGN.md §8). Resolved once; hot paths touch only
// the metric atomics.
obs::Counter& JobsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("hiergat.engine.jobs");
  return counter;
}
obs::Counter& ItemsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("hiergat.engine.items");
  return counter;
}
obs::Counter& StealsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("hiergat.engine.steals");
  return counter;
}
obs::Histogram& BatchSecondsHistogram() {
  // Jobs run 100us (a handful of cached pairs) to tens of seconds (a
  // full evaluation sweep): doubling buckets over 1e-4s .. ~13s.
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "hiergat.engine.batch_seconds",
          obs::Histogram::ExponentialBounds(1e-4, 2.0, 18));
  return histogram;
}
obs::Histogram& QueueWaitSecondsHistogram() {
  // Queue waits are bimodal — ~1us uncontended pool dispatch or the
  // length of whole queued jobs — so a steep x4 ladder over 1us .. ~4s
  // resolves both ends with few buckets.
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "hiergat.engine.queue_wait_seconds",
          obs::Histogram::ExponentialBounds(1e-6, 4.0, 12));
  return histogram;
}
obs::Histogram& BatchItemsHistogram() {
  // Job sizes in items (pairs/queries), 1 .. 32768 doubling.
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "hiergat.engine.batch_items",
          obs::Histogram::ExponentialBounds(1.0, 2.0, 16));
  return histogram;
}

// Most items one ScoreBatch call sees: enough to amortize per-batch
// setup, small enough that a job of a few dozen pairs still fans out.
constexpr int kMaxGrain = 4;

}  // namespace

InferenceEngine::InferenceEngine(const EngineOptions& options)
    : owned_pool_(options.num_threads > 0
                      ? std::make_unique<ThreadPool>(options.num_threads)
                      : nullptr),
      pool_(owned_pool_ ? owned_pool_.get() : &ThreadPool::Global()) {}

InferenceEngine::~InferenceEngine() = default;

int InferenceEngine::num_threads() const { return pool_->num_threads(); }

void InferenceEngine::RunJob(int total,
                             const std::function<void(int, int)>& process) {
  if (total <= 0) return;
  // Each RunJob is one request: root a fresh trace context unless the
  // caller already carries one (e.g. a server wrapping several engine
  // calls in a single request context). The pool hands it to every
  // lane, so chunk spans carry the request's trace id.
  obs::ScopedTraceRoot trace_root;
  HG_TRACE_SPAN("InferenceEngine::RunJob");
  const uint64_t enqueue_ns = obs::MonotonicNowNs();
  // Spread the job over every lane before batching items: a grain fixed
  // at kMaxGrain would run a 3-pair serve batch on one thread.
  const int lanes = pool_->num_threads();
  const int grain = std::clamp((total + lanes - 1) / lanes, 1, kMaxGrain);
  JobsCounter().Increment();
  ItemsCounter().Increment(total);
  BatchItemsHistogram().Observe(static_cast<double>(total));
  obs::RecordFlightEvent(obs::FlightEventKind::kJobEnqueue, "engine.RunJob",
                         total, grain);
  const std::thread::id caller = std::this_thread::get_id();
  // queue_wait runs until the first chunk starts: the time spent behind
  // other callers' jobs on the pool.
  std::once_flag started;
  uint64_t start_ns = 0;
  pool_->ParallelFor(0, total, grain, [&](int64_t begin, int64_t end) {
    std::call_once(started, [&] {
      start_ns = obs::MonotonicNowNs();
      QueueWaitSecondsHistogram().Observe(
          static_cast<double>(start_ns - enqueue_ns) * 1e-9);
      obs::RecordFlightEvent(obs::FlightEventKind::kJobStart,
                             "engine.RunJob", total);
    });
    if (std::this_thread::get_id() != caller) StealsCounter().Increment();
    // The caller thread is a lane too, so the guard restores its
    // setting when the chunk ends.
    AttentionRecordingGuard no_attention(false);
    HG_TRACE_SPAN("engine.ScoreRange");
    process(static_cast<int>(begin), static_cast<int>(end));
  });
  BatchSecondsHistogram().Observe(
      static_cast<double>(obs::MonotonicNowNs() - start_ns) * 1e-9);
  obs::RecordFlightEvent(obs::FlightEventKind::kJobDone, "engine.RunJob",
                         total);
}

std::vector<float> InferenceEngine::Score(const PairwiseModel& model,
                                          std::span<const EntityPair> pairs) {
  std::vector<float> probabilities(pairs.size());
  RunJob(static_cast<int>(pairs.size()), [&](int begin, int end) {
    const std::vector<float> part = model.ScoreBatch(
        pairs.subspan(static_cast<size_t>(begin),
                      static_cast<size_t>(end - begin)));
    std::copy(part.begin(), part.end(),
              probabilities.begin() + begin);
  });
  return probabilities;
}

EvalResult InferenceEngine::Evaluate(const PairwiseModel& model,
                                     std::span<const EntityPair> pairs) {
  const std::vector<float> probabilities = Score(model, pairs);
  std::vector<int> labels;
  labels.reserve(pairs.size());
  for (const EntityPair& pair : pairs) labels.push_back(pair.label);
  return ComputeMetrics(probabilities, labels);
}

std::vector<std::vector<float>> InferenceEngine::ScoreQueries(
    const CollectiveModel& model, std::span<const CollectiveQuery> queries) {
  std::vector<std::vector<float>> results(queries.size());
  RunJob(static_cast<int>(queries.size()), [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      results[static_cast<size_t>(i)] =
          model.PredictQuery(queries[static_cast<size_t>(i)]);
    }
  });
  return results;
}

EvalResult InferenceEngine::Evaluate(const CollectiveModel& model,
                                     std::span<const CollectiveQuery> queries) {
  const std::vector<std::vector<float>> results = ScoreQueries(model, queries);
  std::vector<float> probabilities;
  std::vector<int> labels;
  for (size_t i = 0; i < queries.size(); ++i) {
    probabilities.insert(probabilities.end(), results[i].begin(),
                         results[i].end());
    labels.insert(labels.end(), queries[i].labels.begin(),
                  queries[i].labels.end());
  }
  return ComputeMetrics(probabilities, labels);
}

}  // namespace hiergat
