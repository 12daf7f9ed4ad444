#ifndef HIERGAT_SERVE_BATCHER_H_
#define HIERGAT_SERVE_BATCHER_H_

/// Dynamic batching for the serving layer (DESIGN.md §14). Network
/// requests arrive as small pair lists (often a single pair); scoring
/// each one as its own engine job pays per-job dispatch overhead per
/// pair. The batcher coalesces concurrent requests targeting the same
/// Session into one ScoreBatch call under a latency budget, with no
/// thread of its own (leader/follower):
///
///   - a caller that finds no open batch for its session, or no room in
///     it, opens one and becomes its leader; later callers append their
///     pairs and wait;
///   - the batch closes as soon as it holds `max_batch_size` pairs, or
///     `max_delay_us` after its leader arrived, whichever is first (so
///     an idle server adds at most max_delay_us of latency);
///   - the leader then scores the batch on its own thread and hands
///     every follower its slice. Batches run concurrently.
///
/// Each request keeps its own obs::TraceContext across coalescing: the
/// batch executes under the leader's context (engine/graph spans attach
/// there), and every coalesced request additionally gets a
/// "serve.batch.Score" span stamped with its own trace id covering the
/// execution interval — so per-request traces survive batching.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/status.h"
#include "data/entity.h"
#include "er/session.h"

namespace hiergat {
namespace serve {

struct BatcherOptions {
  /// Pairs per coalesced ScoreBatch. A single request larger than this
  /// is scored alone (never split) — the engine handles any size.
  int max_batch_size = 32;
  /// How long a batch's leader waits for the batch to fill. 0 disables
  /// coalescing: every request is scored as soon as it arrives.
  int max_delay_us = 1000;
};

class DynamicBatcher {
 public:
  explicit DynamicBatcher(const BatcherOptions& options = BatcherOptions());

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

  /// Closes every open batch, so its leader scores it now, and rejects
  /// later calls. Calls already inside Score still get their scores;
  /// the owner must let them return before destroying the batcher.
  /// Idempotent.
  void Shutdown();

  struct Stats {
    int64_t requests = 0;  ///< Score() calls completed.
    int64_t batches = 0;   ///< ScoreBatch calls issued.
    int64_t pairs = 0;     ///< Total pairs scored.
  };
  Stats stats() const;

 private:
  struct Batch;

  /// Takes `batch` out of open_ and wakes its leader; call with mutex_
  /// held.
  void CloseLocked(Batch* batch);

  const BatcherOptions options_;

  mutable std::mutex mutex_;
  /// Batches still accepting pairs, at most one per session.
  std::vector<std::shared_ptr<Batch>> open_;
  bool shutdown_ = false;

  int64_t requests_ = 0;
  int64_t batches_ = 0;
  int64_t pairs_ = 0;
};

}  // namespace serve
}  // namespace hiergat

#endif  // HIERGAT_SERVE_BATCHER_H_
