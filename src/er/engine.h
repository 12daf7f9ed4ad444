#ifndef HIERGAT_ER_ENGINE_H_
#define HIERGAT_ER_ENGINE_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "er/metrics.h"
#include "er/model.h"

namespace hiergat {

class ThreadPool;  // tensor/threadpool.h

struct EngineOptions {
  /// Lanes that score a job, the calling thread included. 0 shares
  /// ThreadPool::Global() (sized by HIERGAT_NUM_THREADS or hardware
  /// concurrency); > 0 gives the engine a ThreadPool of its own.
  int num_threads = 0;
};

/// Batched, multi-threaded inference over trained matchers.
///
/// A job is one ThreadPool::ParallelFor over the items (pairs, or
/// queries for collective models); the calling thread is one of the
/// lanes. Each chunk is scored through PairwiseModel::ScoreBatch, whose
/// contract (constness, determinism, split-invariance) makes the result
/// bit-identical for any thread count. Chunks score with attention
/// recording off, so the models' introspection caches are never raced;
/// call HierGatModel::InspectAttention outside the engine instead.
///
/// The engine is reusable across calls and models; it does not own the
/// models it scores. Score/Evaluate may be called from multiple caller
/// threads: the pool runs one job at a time, and each call blocks until
/// its own job completes.
class InferenceEngine {
 public:
  explicit InferenceEngine(const EngineOptions& options = EngineOptions());
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Lanes a job may run on, the calling thread included.
  int num_threads() const;

  /// P(match) per pair, in input order. Equivalent to (but faster than)
  /// model.ScoreBatch(pairs) on one thread.
  std::vector<float> Score(const PairwiseModel& model,
                           std::span<const EntityPair> pairs);

  /// P/R/F1 over the pairs, scored through the pool.
  EvalResult Evaluate(const PairwiseModel& model,
                      std::span<const EntityPair> pairs);

  /// Per-query candidate probabilities; queries are distributed across
  /// lanes (each query's candidate set stays whole — it is the unit of
  /// collective inference).
  std::vector<std::vector<float>> ScoreQueries(
      const CollectiveModel& model, std::span<const CollectiveQuery> queries);

  /// P/R/F1 over all candidates of all queries.
  EvalResult Evaluate(const CollectiveModel& model,
                      std::span<const CollectiveQuery> queries);

 private:
  /// Runs `process(begin, end)` over chunks of [0, total) on the pool
  /// and blocks until every item is processed.
  void RunJob(int total, const std::function<void(int, int)>& process);

  std::unique_ptr<ThreadPool> owned_pool_;  // Null when sharing Global().
  ThreadPool* pool_;
};

}  // namespace hiergat

#endif  // HIERGAT_ER_ENGINE_H_
