// The three workloads of the end-to-end benchmark (see README.md for
// why each exists and which layers it stresses).

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "data/synthetic.h"
#include "er/session.h"
#include "harness.h"

namespace perfbench {

/// Timings of one full set-up: everything before the first measured
/// operation.
struct SetupTimes {
  double setup_s = 0.0;
  double train_s = 0.0;  ///< Session::Train.
  double open_s = 0.0;   ///< Session::Open from the checkpoint.
  /// serve_online only: Server::Start until the first response.
  double first_scores_s = 0.0;
};

/// What one measured pass of a workload produced.
struct Pass {
  double records_per_s = 0.0;
  double first_scores_s = 0.0;
  double f1 = 0.0;
  double p50_ms_low = 0.0, p90_ms_low = 0.0, p99_ms_low = 0.0;
  double p50_ms_high = 0.0, p90_ms_high = 0.0, p99_ms_high = 0.0;
  double goodput_rps = 0.0;
  /// Peak RSS read after a fixed amount of work (so it does not depend
  /// on how much more work fitted in the time budget).
  double peak_rss_mb = 0.0;
  /// Harness-measured layer values (busy time in timed calls, ratios
  /// computed from the benchmark's own view of inputs and outputs),
  /// keyed by per-layer metric name.
  std::map<std::string, double> layer;
  /// Candidate pairs scored (query-candidate pairs for collective
  /// scoring): the base of every per-pair ratio.
  int64_t pairs_scored = 0;
  InputStats inputs;
  /// Counters the pass read that the program no longer exports.
  std::set<std::string> missing;
};

/// Reads the ANN search counters around one blocking call, so the
/// distance evaluations of searches are told apart from those of
/// inserts (the library counts both under one name).
class SearchWork {
 public:
  template <typename Fn>
  void Measure(Pass* pass, Fn&& fn) {
    // A counter is registered on first use, so it may be absent before
    // the first call; after a search it must exist.
    int64_t evals_before = 0, searches_before = 0, evals = 0, searches = 0;
    ReadCounter(kEvals, &evals_before);
    ReadCounter(kSearches, &searches_before);
    fn();
    if (!(ReadCounter(kEvals, &evals) & ReadCounter(kSearches, &searches))) {
      pass->missing.insert(std::string(kEvals) + " or " + kSearches);
      return;
    }
    evals_ += evals - evals_before;
    searches_ += searches - searches_before;
  }
  double EvalsPerSearch() const {
    return searches_ == 0 ? 0.0 : static_cast<double>(evals_) / static_cast<double>(searches_);
  }

 private:
  static constexpr const char* kEvals = "hiergat.blocking.ann.dist_evals";
  static constexpr const char* kSearches = "hiergat.blocking.ann.searches";
  int64_t evals_ = 0;
  int64_t searches_ = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual bool uses_blocking() const = 0;
  virtual bool uses_serving() const = 0;

  /// One complete set-up (generation, training, checkpoint save,
  /// Session::Open, and for serving Server::Start plus warm-up). Runs
  /// several times; the last one is the one measured.
  virtual SetupTimes Setup() = 0;

  /// Runs the measured operations for about `seconds` on fresh inputs.
  /// A second call continues with new inputs.
  virtual Pass Run(double seconds, Tracer& tracer, Checks& checks) = 0;
};

std::unique_ptr<Workload> MakeResolveBatch(const Args& args);
std::unique_ptr<Workload> MakeServeOnline(const Args& args);
std::unique_ptr<Workload> MakeCollectiveStream(const Args& args);

// -- Shared model set-up -------------------------------------------------------

/// The record distribution every workload draws from: the generator's
/// default product schema (4 attributes) and noise.
hiergat::SyntheticSpec RecordSpec(const std::string& name, uint64_t seed);

/// Trains a small pairwise HierGAT on a fixed-seed labelled set, saves
/// it to `checkpoint` and returns the training time.
double TrainPairwiseCheckpoint(const std::string& checkpoint);

/// Same for a small HierGAT+ collective model trained on a fixed-seed
/// multi-source corpus blocked with the embedding blocker.
double TrainCollectiveCheckpoint(const std::string& checkpoint);

/// Session::Open from `checkpoint` with every other option at its
/// shipped default. Aborts the run on failure.
std::unique_ptr<hiergat::Session> OpenCheckpoint(const std::string& checkpoint,
                                                 bool collective);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
