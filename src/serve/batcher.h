#ifndef HIERGAT_SERVE_BATCHER_H_
#define HIERGAT_SERVE_BATCHER_H_

/// Dynamic batching for the serving layer (DESIGN.md §14). Network
/// requests arrive as small pair lists (often a single pair); scoring
/// each one as its own engine job wastes the thread pool — a 1-pair job
/// keeps at most one of the engine's lanes busy, and per-job dispatch
/// overhead is paid per pair. The batcher coalesces concurrent
/// requests targeting the same Session into one ScoreBatch call under
/// a latency budget:
///
///   - a batch closes as soon as `max_batch_size` pairs are pending, or
///   - `max_delay_us` after its oldest request arrived, whichever is
///     first (so an idle server adds at most max_delay_us of latency).
///
/// Each request keeps its own obs::TraceContext across coalescing: the
/// batch executes under the oldest request's context (engine/graph
/// spans attach there), and every coalesced request additionally gets a
/// "serve.batch.Score" span stamped with its own trace id covering the
/// execution interval — so per-request traces survive batching.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/status.h"
#include "data/entity.h"
#include "er/session.h"
#include "obs/trace.h"

namespace hiergat {
namespace serve {

struct BatcherOptions {
  /// Pairs per dispatched ScoreBatch. A single request larger than this
  /// is dispatched alone (never split) — the engine handles any size.
  int max_batch_size = 32;
  /// How long the oldest pending request may wait for the batch to
  /// fill. 0 disables coalescing-by-time: every dispatch takes whatever
  /// is pending the moment the dispatcher wakes.
  int max_delay_us = 1000;
};

class DynamicBatcher {
 public:
  explicit DynamicBatcher(const BatcherOptions& options = BatcherOptions());
  ~DynamicBatcher();

  DynamicBatcher(const DynamicBatcher&) = delete;
  DynamicBatcher& operator=(const DynamicBatcher&) = delete;

  /// Scores `pairs` on `session`, blocking until the results are ready.
  /// Concurrent callers coalesce; results come back in the caller's
  /// pair order, bit-identical to session->Score(pairs) (ScoreBatch is
  /// split-invariant). The session shared_ptr is held until the batch
  /// completes, which is what lets the registry hot-swap drain
  /// in-flight batches. Returns Unavailable after Shutdown.
  StatusOr<std::vector<float>> Score(std::shared_ptr<Session> session,
                                     std::vector<EntityPair> pairs);

  /// Drains every pending request, then stops the dispatcher. Idempotent;
  /// also run by the destructor.
  void Shutdown();

  struct Stats {
    int64_t requests = 0;  ///< Score() calls completed.
    int64_t batches = 0;   ///< ScoreBatch dispatches issued.
    int64_t pairs = 0;     ///< Total pairs scored.
  };
  Stats stats() const;

 private:
  struct Pending {
    std::shared_ptr<Session> session;
    std::vector<EntityPair> pairs;
    obs::TraceContext context;
    uint64_t enqueue_ns = 0;

    std::vector<float> scores;  ///< Filled by the dispatcher.
    bool done = false;
  };

  void DispatcherLoop();
  /// Pops the next batch (all for one session) off queue_; call with
  /// mutex_ held. Empty result means "wait longer".
  std::vector<std::shared_ptr<Pending>> TakeBatchLocked();

  const BatcherOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;  ///< Wakes the dispatcher.
  std::condition_variable done_cv_;   ///< Wakes callers whose batch ran.
  std::deque<std::shared_ptr<Pending>> queue_;
  bool shutdown_ = false;

  int64_t requests_ = 0;
  int64_t batches_ = 0;
  int64_t pairs_ = 0;

  std::once_flag join_once_;
  std::thread dispatcher_;
};

}  // namespace serve
}  // namespace hiergat

#endif  // HIERGAT_SERVE_BATCHER_H_
