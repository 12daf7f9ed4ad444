// resolve_batch: offline two-table resolution over fresh data.
//
// Each round generates new tables (A:B = 1:4), indexes table B with
// EmbedBlocker::AddAll, streams progressive candidate bands for table A
// through ProgressiveCandidates::NextBatch, scores each band with
// Session::Score, and counts pair F1 against the generator's gold
// matches (blocking misses are false negatives). Every A record recurs
// in all of its top-N pairs, so the model's summary cache does real
// work here; the serving layer does none.

#include <unordered_set>

#include "blocking/embed_blocker.h"
#include "workload.h"

namespace perfbench {
namespace {

using hiergat::CandidatePair;
using hiergat::EntityPair;

constexpr int kTableA = 100;
constexpr int kTableB = 4 * kTableA;
// F1 and peak RSS are taken over the first rounds only, so they are a
// function of the seed alone and not of how many rounds fit in the time.
constexpr int kFixedRounds = 6;

// One band's Score call: when it ran (ms since round start) and how
// many items of interest its scores carried.
struct Emission {
  double start_ms;
  double end_ms;
  int64_t count;
};

// Time at which the share `q` of a round's items had been scored. A
// band's scores are only observable when its Score call returns, so the
// items of a band are spread evenly over that call; without this a
// quantile jumps between the four band-return instants whenever the
// counts shift by one item.
double EmissionQuantileMs(const std::vector<Emission>& emissions, double q) {
  int64_t total = 0;
  for (const Emission& e : emissions) total += e.count;
  const double target = q * static_cast<double>(total);
  double before = 0.0;
  for (const Emission& e : emissions) {
    if (e.count > 0 && before + static_cast<double>(e.count) >= target) {
      return e.start_ms + (target - before) / static_cast<double>(e.count) *
                              (e.end_ms - e.start_ms);
    }
    before += static_cast<double>(e.count);
  }
  return emissions.empty() ? 0.0 : emissions.back().end_ms;
}

class ResolveBatch : public Workload {
 public:
  explicit ResolveBatch(const Args& args)
      : args_(args), checkpoint_(args.workdir + "/resolve_batch.ckpt") {}

  bool uses_blocking() const override { return true; }
  bool uses_serving() const override { return false; }

  SetupTimes Setup() override {
    SetupTimes times;
    const uint64_t start = NowNs();
    session_.reset();
    times.train_s = TrainPairwiseCheckpoint(checkpoint_);
    const uint64_t open_start = NowNs();
    session_ = OpenCheckpoint(checkpoint_, false);
    times.open_s = SecondsBetween(open_start, NowNs());
    times.setup_s = SecondsBetween(start, NowNs());
    return times;
  }

  Pass Run(double seconds, Tracer& tracer, Checks& checks) override {
    const hiergat::EmbedBlockOptions options;  // Shipped defaults.

    Pass pass;
    std::vector<double> round_rates, first_scores;
    // Per-round latency percentiles, combined over rounds at the end.
    std::vector<double> p50_low, p90_low, p99_low, p50_high, p90_high, p99_high;
    int64_t tp = 0, fp = 0, fn = 0, goodput_tp = 0;
    int64_t gold_total = 0, gold_blocked = 0, candidates = 0;
    SearchWork search_work;
    double add_s = 0, search_s = 0, score_s = 0, wall_s = 0;

    const uint64_t pass_start = NowNs();
    for (int done = 0; done < kFixedRounds || SecondsBetween(pass_start, NowNs()) < seconds;
         ++done) {
      const hiergat::TwoTableDataset data = hiergat::GenerateTwoTable(
          RecordSpec("resolve", DeriveSeed(args_.seed, round_++)), kTableA, kTableB);
      for (const auto& entity : data.table_b) pass.inputs.AddEntity(entity);
      for (const auto& entity : data.table_a) pass.inputs.AddEntity(entity);
      std::unordered_set<int64_t> gold;
      for (const auto& [a, b] : data.matches) gold.insert(int64_t{a} * kTableB + b);

      int64_t round_tp = 0, round_pairs = 0, round_gold_blocked = 0;
      // Progress of the round: true matches and pairs scored per band.
      std::vector<Emission> matches, scored;
      const uint64_t t0 = NowNs();
      hiergat::EmbedBlocker blocker(options);
      add_s += tracer.Time("EmbedBlocker::AddAll", [&] { blocker.AddAll(data.table_b); });
      hiergat::ProgressiveCandidates stream(blocker, data.table_a, options);
      bool first = true;
      uint64_t last = t0;
      while (!stream.Done()) {
        std::vector<CandidatePair> band;
        search_work.Measure(&pass, [&] {
          search_s += tracer.Time("ProgressiveCandidates::NextBatch",
                                  [&] { band = stream.NextBatch(); });
        });
        if (band.empty()) continue;

        std::vector<EntityPair> pairs(band.size());
        std::vector<bool> is_gold(band.size());
        for (size_t i = 0; i < band.size(); ++i) {
          const CandidatePair& c = band[i];
          if (c.query < 0 || c.query >= kTableA || c.candidate < 0 ||
              c.candidate >= kTableB) {
            checks.Fail("NextBatch returned a pair outside the tables");
            return pass;
          }
          pairs[i].left = data.table_a[static_cast<size_t>(c.query)];
          pairs[i].right = data.table_b[static_cast<size_t>(c.candidate)];
          is_gold[i] = gold.count(int64_t{c.query} * kTableB + c.candidate) != 0;
        }
        std::vector<float> scores;
        ++checks.attempted;
        const double start_ms = SecondsBetween(t0, NowNs()) * 1e3;
        score_s += tracer.Time("Session::Score", [&] { scores = session_->Score(pairs); });
        last = NowNs();
        const double end_ms = SecondsBetween(t0, last) * 1e3;
        if (first) first_scores.push_back(SecondsBetween(t0, last));
        first = false;
        if (!checks.CheckScores(scores, pairs.size(), "Session::Score")) continue;
        int64_t band_tp = 0;
        for (size_t i = 0; i < band.size(); ++i) {
          const bool match = scores[i] >= 0.5f;
          round_gold_blocked += is_gold[i];
          band_tp += match && is_gold[i];
          if (done < kFixedRounds) fp += match && !is_gold[i];
        }
        round_tp += band_tp;
        matches.push_back({start_ms, end_ms, band_tp});
        scored.push_back({start_ms, end_ms, static_cast<int64_t>(band.size())});
        round_pairs += static_cast<int64_t>(band.size());
        tracer.Drain();
      }
      if (round_tp > 0) {
        p50_low.push_back(EmissionQuantileMs(matches, 0.50));
        p90_low.push_back(EmissionQuantileMs(matches, 0.90));
        p99_low.push_back(EmissionQuantileMs(matches, 0.99));
      }
      p50_high.push_back(EmissionQuantileMs(scored, 0.50));
      p90_high.push_back(EmissionQuantileMs(scored, 0.90));
      p99_high.push_back(EmissionQuantileMs(scored, 0.99));
      if (done + 1 == kFixedRounds) pass.peak_rss_mb = PeakRssMb();
      const double round_s = SecondsBetween(t0, last);
      round_rates.push_back((kTableA + kTableB) / round_s);
      wall_s += round_s;
      goodput_tp += round_tp;
      candidates += round_pairs;
      gold_total += static_cast<int64_t>(gold.size());
      gold_blocked += round_gold_blocked;
      pass.pairs_scored += round_pairs;
      pass.inputs.AddQueries(kTableA, round_pairs);
      if (done < kFixedRounds) {
        tp += round_tp;
        fn += static_cast<int64_t>(gold.size()) - round_tp;
      }
    }

    pass.records_per_s = InterquartileMean(round_rates);
    pass.first_scores_s = InterquartileMean(first_scores);
    pass.f1 = tp == 0 ? 0.0 : 2.0 * tp / (2.0 * tp + fp + fn);
    pass.p50_ms_low = InterquartileMean(p50_low);
    pass.p90_ms_low = InterquartileMean(p90_low);
    pass.p99_ms_low = InterquartileMean(p99_low);
    pass.p50_ms_high = InterquartileMean(p50_high);
    pass.p90_ms_high = InterquartileMean(p90_high);
    pass.p99_ms_high = InterquartileMean(p99_high);
    pass.goodput_rps = static_cast<double>(goodput_tp) / wall_s;
    pass.layer["blocking.add_s"] = add_s;
    pass.layer["blocking.search_s"] = search_s;
    pass.layer["blocking.dist_evals_per_search"] = search_work.EvalsPerSearch();
    pass.layer["blocking.recall"] =
        gold_total == 0 ? 0.0 : static_cast<double>(gold_blocked) / gold_total;
    pass.layer["blocking.candidates_per_match"] =
        gold_blocked == 0 ? 0.0 : static_cast<double>(candidates) / gold_blocked;
    pass.layer["er.score_s"] = score_s;
    return pass;
  }

 private:
  const Args args_;
  const std::string checkpoint_;
  std::unique_ptr<hiergat::Session> session_;
  uint64_t round_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeResolveBatch(const Args& args) {
  return std::make_unique<ResolveBatch>(args);
}

}  // namespace perfbench
