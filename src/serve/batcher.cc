#include "serve/batcher.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <iterator>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hiergat {
namespace serve {

namespace {

obs::Counter& BatchesCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("hiergat.serve.batch.batches");
  return counter;
}
obs::Counter& RequestsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.serve.batch.requests");
  return counter;
}
obs::Counter& PairsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("hiergat.serve.batch.pairs");
  return counter;
}
obs::Histogram& BatchPairsHistogram() {
  // Coalesced batch sizes in pairs, 1 .. 4096 doubling.
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "hiergat.serve.batch.size_pairs",
          obs::Histogram::ExponentialBounds(1.0, 2.0, 13));
  return histogram;
}
obs::Histogram& QueueWaitSecondsHistogram() {
  // Arrival until the request's batch starts scoring: the configured
  // delay budget (~1ms) down to an uncontended handoff (~1us).
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "hiergat.serve.batch.queue_wait_seconds",
          obs::Histogram::ExponentialBounds(1e-6, 4.0, 12));
  return histogram;
}

}  // namespace

/// One coalesced ScoreBatch call. Everything is guarded by the
/// batcher's mutex_ except `pairs` once the batch is closed (then only
/// the leader reads it) and the results once `done` is set.
struct DynamicBatcher::Batch {
  std::shared_ptr<Session> session;
  std::vector<EntityPair> pairs;  ///< Every member's pairs, in join order.
  int64_t requests = 0;
  bool closed = false;  ///< Out of open_; no more members can join.
  bool done = false;    ///< `scores` and the execution interval are set.
  std::vector<float> scores;
  uint64_t exec_start_ns = 0;
  uint64_t exec_dur_ns = 0;
  /// Wakes the leader when the batch closes and followers when it is
  /// done.
  std::condition_variable cv;
};

DynamicBatcher::DynamicBatcher(const BatcherOptions& options)
    : options_{std::max(1, options.max_batch_size),
               std::max(0, options.max_delay_us)} {}

void DynamicBatcher::CloseLocked(Batch* batch) {
  if (batch->closed) return;
  batch->closed = true;
  std::erase_if(open_, [&](const auto& open) { return open.get() == batch; });
  batch->cv.notify_all();
}

StatusOr<std::vector<float>> DynamicBatcher::Score(
    std::shared_ptr<Session> session, std::vector<EntityPair> pairs) {
  if (session == nullptr) {
    return Status::InvalidArgument("batcher: null session");
  }
  if (pairs.empty()) return std::vector<float>();
  const uint64_t enqueue_ns = obs::MonotonicNowNs();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(options_.max_delay_us);
  const size_t n = pairs.size();
  const size_t max_pairs = static_cast<size_t>(options_.max_batch_size);

  std::unique_lock<std::mutex> lock(mutex_);
  if (shutdown_) {
    return Status::Unavailable("batcher: shut down");
  }
  // Join the session's open batch if this request fits; never split a
  // request, so one that does not fit closes that batch and leads the
  // next.
  std::shared_ptr<Batch> batch;
  auto it = std::find_if(open_.begin(), open_.end(), [&](const auto& open) {
    return open->session == session;
  });
  if (it != open_.end()) {
    if ((*it)->pairs.size() + n <= max_pairs) {
      batch = *it;
    } else {
      CloseLocked(it->get());
    }
  }
  const bool leader = batch == nullptr;
  if (leader) {
    batch = std::make_shared<Batch>();
    batch->session = std::move(session);
    open_.push_back(batch);
  }
  const size_t offset = batch->pairs.size();
  batch->pairs.insert(batch->pairs.end(),
                      std::make_move_iterator(pairs.begin()),
                      std::make_move_iterator(pairs.end()));
  ++batch->requests;
  if (batch->pairs.size() >= max_pairs) CloseLocked(batch.get());

  if (leader) {
    batch->cv.wait_until(lock, deadline, [&] { return batch->closed; });
    CloseLocked(batch.get());
    lock.unlock();

    // The batch runs on the leader's thread, under its trace context.
    const size_t total = batch->pairs.size();
    const uint64_t exec_start_ns = obs::MonotonicNowNs();
    std::vector<float> scores;
    {
      HG_TRACE_SPAN("serve.batch.Dispatch");
      scores = batch->session->Score(batch->pairs);
    }
    const uint64_t exec_dur_ns = obs::MonotonicNowNs() - exec_start_ns;
    BatchesCounter().Increment();
    RequestsCounter().Increment(batch->requests);
    PairsCounter().Increment(static_cast<int64_t>(total));
    BatchPairsHistogram().Observe(static_cast<double>(total));

    lock.lock();
    requests_ += batch->requests;
    ++batches_;
    pairs_ += static_cast<int64_t>(total);
    batch->scores = std::move(scores);
    batch->exec_start_ns = exec_start_ns;
    batch->exec_dur_ns = exec_dur_ns;
    batch->done = true;
    batch->cv.notify_all();
  } else {
    batch->cv.wait(lock, [&] { return batch->done; });
  }
  lock.unlock();

  QueueWaitSecondsHistogram().Observe(
      static_cast<double>(batch->exec_start_ns - enqueue_ns) * 1e-9);
  // Per-request span: every coalesced request records the batch's
  // execution interval under its own trace id, so a request-scoped
  // Perfetto view shows when (and for how long) its scores were
  // computed even though the work was shared.
  if (obs::TraceRecorder::Global().enabled()) {
    obs::TraceRecorder::Global().Record(
        "serve.batch.Score", batch->exec_start_ns, batch->exec_dur_ns,
        obs::CurrentTraceContext().trace_id);
  }
  const auto first = batch->scores.begin() + static_cast<ptrdiff_t>(offset);
  return std::vector<float>(first, first + static_cast<ptrdiff_t>(n));
}

void DynamicBatcher::Shutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  shutdown_ = true;
  while (!open_.empty()) CloseLocked(open_.back().get());
}

DynamicBatcher::Stats DynamicBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Stats{requests_, batches_, pairs_};
}

}  // namespace serve
}  // namespace hiergat
