// collective_stream: multi-source records arrive one at a time.
//
// Each round streams a fresh GenerateMultiSource corpus in a seeded
// random order. Every arriving record is matched with EmbedBlocker::TopN
// against the records that arrived before it, then inserted with
// EmbedBlocker::Add, so index writes interleave with reads while the
// index grows. Queries are scored in groups by a HierGAT+
// Session::ScoreQueries (entity context, alignment, larger graphs), and
// query F1 is counted against the generator's cluster ids (earlier
// records of the same cluster that blocking missed are false
// negatives).

#include <algorithm>

#include "blocking/embed_blocker.h"
#include "workload.h"

namespace perfbench {
namespace {

using hiergat::CollectiveQuery;

constexpr int kSources = 6;
constexpr int kProducts = 60;
// Queries scored together by one ScoreQueries call.
constexpr size_t kGroup = 16;
// F1 and peak RSS are taken over the first rounds only, so they are a
// function of the seed alone and not of how many rounds fit in the time.
constexpr int kFixedRounds = 10;

class CollectiveStream : public Workload {
 public:
  explicit CollectiveStream(const Args& args)
      : args_(args), checkpoint_(args.workdir + "/collective_stream.ckpt") {}

  bool uses_blocking() const override { return true; }
  bool uses_serving() const override { return false; }

  SetupTimes Setup() override {
    SetupTimes times;
    const uint64_t start = NowNs();
    session_.reset();
    times.train_s = TrainCollectiveCheckpoint(checkpoint_);
    const uint64_t open_start = NowNs();
    session_ = OpenCheckpoint(checkpoint_, true);
    times.open_s = SecondsBetween(open_start, NowNs());
    times.setup_s = SecondsBetween(start, NowNs());
    return times;
  }

  Pass Run(double seconds, Tracer& tracer, Checks& checks) override {
    const hiergat::EmbedBlockOptions options;  // Shipped defaults.
    Pass pass;
    SearchWork search_work;
    std::vector<double> round_rates, first_scores, add_us;
    // Per-round latency percentiles, combined over rounds at the end.
    std::vector<double> p50_low, p90_low, p99_low, p50_high, p90_high, p99_high;
    int64_t tp = 0, fp = 0, fn = 0, goodput_tp = 0;
    int64_t gold_total = 0, gold_blocked = 0, candidates = 0;
    double add_s = 0, search_s = 0, score_s = 0, wall_s = 0;

    const uint64_t pass_start = NowNs();
    for (int done = 0; done < kFixedRounds || SecondsBetween(pass_start, NowNs()) < seconds;
         ++done) {
      const hiergat::MultiSourceDataset raw = hiergat::GenerateMultiSource(
          "stream", kSources, kProducts, DeriveSeed(args_.seed, round_++));
      const size_t n = raw.entities.size();
      std::vector<size_t> order(n);
      for (size_t i = 0; i < n; ++i) order[i] = i;
      uint64_t shuffle = DeriveSeed(args_.seed, ~round_);
      for (size_t i = n; i > 1; --i) {
        shuffle = DeriveSeed(shuffle, i);
        std::swap(order[i - 1], order[shuffle % i]);
      }

      struct Waiting {
        uint64_t arrived_ns;
        int64_t gold_prior;  ///< Earlier records of the same cluster.
      };
      std::vector<CollectiveQuery> group;
      std::vector<Waiting> waiting;
      std::vector<int> seen_per_cluster(static_cast<size_t>(kProducts), 0);
      int64_t round_tp = 0;
      // Time from each query's arrival until it is scored (match_ms: only
      // queries with an earlier record of their cluster).
      std::vector<double> match_ms, record_ms;
      bool first = true;
      const uint64_t t0 = NowNs();
      uint64_t last = t0;

      const auto score_group = [&] {
        if (group.empty()) return;
        std::vector<std::vector<float>> scores;
        ++checks.attempted;
        score_s += tracer.Time("Session::ScoreQueries",
                               [&] { scores = session_->ScoreQueries(group); });
        last = NowNs();
        if (first) first_scores.push_back(SecondsBetween(t0, last));
        first = false;
        tracer.Drain();
        if (scores.size() != group.size()) {
          checks.Fail("ScoreQueries returned " + std::to_string(scores.size()) +
                      " results for " + std::to_string(group.size()) + " queries");
          scores.assign(group.size(), {});
        }
        for (size_t q = 0; q < group.size(); ++q) {
          const CollectiveQuery& query = group[q];
          const bool ok = checks.CheckScores(scores[q], query.candidates.size(),
                                             "Session::ScoreQueries");
          const double ms = SecondsBetween(waiting[q].arrived_ns, last) * 1e3;
          record_ms.push_back(ms);
          if (waiting[q].gold_prior > 0) match_ms.push_back(ms);
          int64_t query_tp = 0, blocked = 0;
          for (size_t c = 0; c < query.candidates.size(); ++c) {
            const bool match = ok && scores[q][c] >= 0.5f;
            blocked += query.labels[c];
            query_tp += match && query.labels[c] == 1;
            if (done < kFixedRounds) fp += match && query.labels[c] == 0;
          }
          round_tp += query_tp;
          gold_blocked += blocked;
          if (done < kFixedRounds) {
            tp += query_tp;
            fn += waiting[q].gold_prior - query_tp;
          }
        }
        group.clear();
        waiting.clear();
      };

      hiergat::EmbedBlocker blocker(options);
      std::vector<bool> added(n, false);
      for (size_t arrival = 0; arrival < n; ++arrival) {
        const size_t id = order[arrival];
        const hiergat::Entity& record = raw.entities[id];
        const int cluster = raw.cluster_ids[id];
        pass.inputs.AddEntity(record);
        const uint64_t arrived = NowNs();
        std::vector<hiergat::AnnIndex::Hit> hits;
        search_work.Measure(&pass, [&] {
          search_s += tracer.Time("EmbedBlocker::TopN",
                                  [&] { hits = blocker.TopN(record, options.top_n); });
        });
        const double add = tracer.Time("EmbedBlocker::Add", [&] {
          blocker.Add(static_cast<int64_t>(id), record);
        });
        add_s += add;
        add_us.push_back(add * 1e6);
        added[id] = true;

        const int64_t gold_prior = seen_per_cluster[static_cast<size_t>(cluster)]++;
        gold_total += gold_prior;
        if (static_cast<int>(hits.size()) > options.top_n) {
          checks.Fail("TopN returned more than top_n hits");
        }
        CollectiveQuery query;
        query.query = record;
        for (const auto& hit : hits) {
          if (hit.id < 0 || static_cast<size_t>(hit.id) >= n ||
              !added[static_cast<size_t>(hit.id)]) {
            checks.Fail("TopN returned an id that was never added");
            continue;
          }
          query.candidates.push_back(raw.entities[static_cast<size_t>(hit.id)]);
          query.labels.push_back(raw.cluster_ids[static_cast<size_t>(hit.id)] == cluster);
        }
        if (query.candidates.empty()) {  // The first arrival of a round.
          if (done < kFixedRounds) fn += gold_prior;
          continue;
        }
        candidates += static_cast<int64_t>(query.candidates.size());
        pass.inputs.AddQueries(1, static_cast<int64_t>(query.candidates.size()));
        pass.pairs_scored += static_cast<int64_t>(query.candidates.size());
        group.push_back(std::move(query));
        waiting.push_back({arrived, gold_prior});
        if (group.size() == kGroup) score_group();
      }
      score_group();

      p50_low.push_back(Percentile(match_ms, 0.50));
      p90_low.push_back(Percentile(match_ms, 0.90));
      p99_low.push_back(Percentile(match_ms, 0.99));
      p50_high.push_back(Percentile(record_ms, 0.50));
      p90_high.push_back(Percentile(record_ms, 0.90));
      p99_high.push_back(Percentile(record_ms, 0.99));
      if (done + 1 == kFixedRounds) pass.peak_rss_mb = PeakRssMb();
      const double round_s = SecondsBetween(t0, last);
      round_rates.push_back(static_cast<double>(n) / round_s);
      wall_s += round_s;
      goodput_tp += round_tp;
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
    pass.layer["blocking.add_p99_us"] = Percentile(add_us, 0.99);
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

std::unique_ptr<Workload> MakeCollectiveStream(const Args& args) {
  return std::make_unique<CollectiveStream>(args);
}

}  // namespace perfbench
