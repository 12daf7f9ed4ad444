// serve_online: open-loop single-pair requests through serve::Server.
//
// Four serve::Client connections (one per thread, at most nproc) send
// on a fixed schedule; request k of a phase is due at t0 + k / rate and
// its latency runs from that due time, so a stall also charges the
// requests queued behind it. Phases: the named `low` and `high` rates,
// then a rate ladder (x1.5 steps, then three bisection steps) whose
// highest rung meeting the limits sets goodput_rps. Every request
// pairs two entities not seen before, so the summary cache only helps
// with attribute values that repeat by chance; blocking is not used.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>

#include "serve/client.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "workload.h"

namespace perfbench {
namespace {

using hiergat::EntityPair;
namespace serve = hiergat::serve;

constexpr size_t kClients = 4;
constexpr double kLowRate = 100.0;
constexpr double kHighRate = 300.0;
// The fixed latency limit: p99 and generator lateness must stay under
// it for a ladder rung to count.
constexpr double kLimitMs = 20.0;
constexpr double kLadderStart = 150.0;
constexpr double kLadderStep = 1.5;
constexpr double kLadderTop = 4000.0;
constexpr int kBisections = 3;
// Request counts are sized for a 15 s run and scale with --seconds.
// Each named rate runs as kSegments back-to-back segments, and each
// latency percentile is the interquartile mean of the segments' values,
// so a stall of the host that hits one segment does not decide it.
constexpr double kNominalSeconds = 15.0;
constexpr int kSegments = 6;
constexpr int kLowSegmentRequests = 80;
constexpr int kHighSegmentRequests = 150;
constexpr int kRungRequests = 250;
// Every kSampleEvery-th response of the low and high phases is checked
// bit for bit against Session::Score on the same pair.
constexpr int kSampleEvery = 8;
constexpr int kWarmupRequests = 400;
constexpr int kColdStarts = 5;

struct Phase {
  int64_t sent = 0, ok = 0, failed = 0;
  std::vector<double> latency_ms;
  double late_ms_max = 0.0;
  double achieved_rps = 0.0;
  std::vector<float> scores;  ///< Per request; NaN where it failed.
  /// Per segment of a named rate: p50, p90 and p99 latency.
  std::vector<double> segment_p50_ms, segment_p90_ms, segment_p99_ms;

  bool MeetsLimits() const {
    return failed == 0 && ok > 0 && Percentile(latency_ms, 0.99) <= kLimitMs &&
           late_ms_max <= kLimitMs;
  }
};

class ServeOnline : public Workload {
 public:
  explicit ServeOnline(const Args& args)
      : args_(args), checkpoint_(args.workdir + "/serve_online.ckpt") {}

  ~ServeOnline() override { Stop(); }

  bool uses_blocking() const override { return false; }
  bool uses_serving() const override { return true; }

  SetupTimes Setup() override {
    Stop();
    SetupTimes times;
    const uint64_t start = NowNs();
    times.train_s = TrainPairwiseCheckpoint(checkpoint_);

    // A cold start — Session::Open from the checkpoint, Server::Start,
    // first response — is short and jittery, so it is repeated and the
    // median kept; the last one stays up for the measured phase.
    const std::vector<EntityPair> warmup =
        hiergat::GeneratePairDataset(WarmupSpec()).train;
    std::vector<double> open_s, first_scores_s;
    for (int i = 0; i < kColdStarts; ++i) {
      Stop();
      registry_ = std::make_unique<serve::ModelRegistry>();
      hiergat::SessionOptions options;
      options.checkpoint_path = checkpoint_;
      const uint64_t open_start = NowNs();
      Require(registry_->LoadModel("bench", options), "ModelRegistry::LoadModel");
      open_s.push_back(SecondsBetween(open_start, NowNs()));

      const uint64_t server_start = NowNs();
      auto server = serve::Server::Start(registry_.get(), serve::ServerOptions());
      Require(server.status(), "Server::Start");
      server_ = std::move(server).value();
      auto client = serve::Client::Connect("127.0.0.1", server_->port());
      Require(client.status(), "Client::Connect");
      clients_.push_back(std::move(client).value());
      Require(clients_[0]->Score("", {warmup[0]}).status(), "first Client::Score");
      first_scores_s.push_back(SecondsBetween(server_start, NowNs()));
    }
    times.open_s = Median(open_s);
    times.first_scores_s = Median(first_scores_s);
    while (clients_.size() < kClients) {
      auto client = serve::Client::Connect("127.0.0.1", server_->port());
      Require(client.status(), "Client::Connect");
      clients_.push_back(std::move(client).value());
    }

    // Warm-up: lazy graph compiles and pool growth happen here, not in
    // the measured phases.
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = c; i < warmup.size(); i += kClients) {
          (void)clients_[c]->Score("", {warmup[i]});
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    times.setup_s = SecondsBetween(start, NowNs());
    return times;
  }

  Pass Run(double seconds, Tracer& tracer, Checks& checks) override {
    const double scale = seconds / kNominalSeconds;
    const auto count = [&](int nominal) {
      return std::max(40, static_cast<int>(std::lround(nominal * scale)));
    };
    Pass pass;

    // Named rates: latency, F1, and the bit-exact sample.
    std::vector<EntityPair> low_pairs, high_pairs;
    const Phase low = RunSegments(kLowRate, count(kLowSegmentRequests), &low_pairs, &pass,
                                  tracer, checks);
    const Phase high = RunSegments(kHighRate, count(kHighSegmentRequests), &high_pairs,
                                   &pass, tracer, checks);
    // Read before the ladder, whose length depends on the host: the
    // summary cache grows with every request served.
    pass.peak_rss_mb = PeakRssMb();

    // Rate ladder: x1.5 steps up to the first rung that misses the
    // limits, then bisection between the last rung met and that one. A
    // rung that misses is run once more before it counts as missed.
    double passed_rate = 0.0, failed_rate = 0.0;
    Phase best;
    const auto rung = [&](double rate) {
      for (int attempt = 0; attempt < 2; ++attempt) {
        Phase phase = RunPhase(rate, NextPairs(count(kRungRequests), &pass), tracer, checks);
        const bool meets = phase.MeetsLimits();
        std::printf("ladder rung %.0f/s: ok %lld/%lld p99 %.3f ms late max %.3f ms -> %s\n",
                    rate, static_cast<long long>(phase.ok),
                    static_cast<long long>(phase.sent), Percentile(phase.latency_ms, 0.99),
                    phase.late_ms_max, meets ? "meets limits" : "misses limits");
        if (meets) {
          passed_rate = rate;
          best = std::move(phase);
          return true;
        }
      }
      failed_rate = rate;
      return false;
    };
    for (double rate = kLadderStart; rate <= kLadderTop; rate *= kLadderStep) {
      if (!rung(rate)) break;
    }
    if (passed_rate > 0 && failed_rate > 0) {
      for (int i = 0; i < kBisections; ++i) rung(std::sqrt(passed_rate * failed_rate));
    }

    int64_t tp = 0, fp = 0, fn = 0;
    for (const auto* phase_pairs : {&low_pairs, &high_pairs}) {
      const Phase& phase = phase_pairs == &low_pairs ? low : high;
      for (size_t k = 0; k < phase_pairs->size(); ++k) {
        const bool gold = (*phase_pairs)[k].label == 1;
        const bool match = phase.scores[k] >= 0.5f;  // NaN (failed) is no match.
        tp += gold && match;
        fp += !gold && match;
        fn += gold && !match;
      }
    }
    pass.f1 = tp == 0 ? 0.0 : 2.0 * tp / (2.0 * tp + fp + fn);
    pass.p50_ms_low = InterquartileMean(low.segment_p50_ms);
    pass.p90_ms_low = InterquartileMean(low.segment_p90_ms);
    pass.p99_ms_low = InterquartileMean(low.segment_p99_ms);
    pass.p50_ms_high = InterquartileMean(high.segment_p50_ms);
    pass.p90_ms_high = InterquartileMean(high.segment_p90_ms);
    pass.p99_ms_high = InterquartileMean(high.segment_p99_ms);
    pass.records_per_s = 2.0 * high.achieved_rps;
    pass.goodput_rps = best.achieved_rps;
    for (const auto& [name, phase] :
         {std::pair<const char*, const Phase*>{"low", &low}, {"high", &high},
          {"goodput", &best}}) {
      pass.layer[std::string("load.sent.") + name] = static_cast<double>(phase->sent);
      pass.layer[std::string("load.ok.") + name] = static_cast<double>(phase->ok);
      pass.layer[std::string("load.late_ms_max.") + name] = phase->late_ms_max;
    }
    pass.inputs.AddQueries(pass.pairs_scored, pass.pairs_scored);
    return pass;
  }

 private:
  static hiergat::SyntheticSpec WarmupSpec() {
    hiergat::SyntheticSpec spec = RecordSpec("warmup", 99);
    spec.num_pairs = kWarmupRequests;
    return spec;
  }

  static void Require(const hiergat::Status& status, const char* what) {
    if (!status.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
      std::exit(2);
    }
  }

  void Stop() {
    clients_.clear();
    if (server_ != nullptr) server_->Shutdown();
    server_.reset();
    registry_.reset();
  }

  // The next `n` request pairs: fresh generator output, never reused.
  std::vector<EntityPair> NextPairs(int n, Pass* pass) {
    std::vector<EntityPair> pairs;
    while (static_cast<int>(pairs.size()) < n) {
      if (pool_.empty()) {
        hiergat::SyntheticSpec spec = RecordSpec("serve", DeriveSeed(args_.seed, block_++));
        spec.num_pairs = 2000;
        hiergat::PairDataset data = hiergat::GeneratePairDataset(spec);
        for (auto* split : {&data.train, &data.valid, &data.test}) {
          pool_.insert(pool_.end(), split->begin(), split->end());
        }
        std::reverse(pool_.begin(), pool_.end());
      }
      pairs.push_back(std::move(pool_.back()));
      pool_.pop_back();
      pass->inputs.AddEntity(pairs.back().left);
      pass->inputs.AddEntity(pairs.back().right);
    }
    pass->pairs_scored += n;
    return pairs;
  }

  // kSegments phases at `rate`, pooled; the pairs sent are appended to
  // `pairs` and each segment is checked against Session::Score.
  Phase RunSegments(double rate, int per_segment, std::vector<EntityPair>* pairs, Pass* pass,
                    Tracer& tracer, Checks& checks) {
    Phase pooled;
    for (int s = 0; s < kSegments; ++s) {
      const std::vector<EntityPair> segment_pairs = NextPairs(per_segment, pass);
      Phase segment = RunPhase(rate, segment_pairs, tracer, checks);
      CheckSample(segment_pairs, segment, checks);
      pooled.sent += segment.sent;
      pooled.ok += segment.ok;
      pooled.failed += segment.failed;
      pooled.late_ms_max = std::max(pooled.late_ms_max, segment.late_ms_max);
      pooled.achieved_rps += segment.achieved_rps / kSegments;
      pooled.segment_p50_ms.push_back(Percentile(segment.latency_ms, 0.50));
      pooled.segment_p90_ms.push_back(Percentile(segment.latency_ms, 0.90));
      pooled.segment_p99_ms.push_back(Percentile(segment.latency_ms, 0.99));
      std::printf("rate %.0f/s segment %d: ok %lld/%lld p50 %.3f ms p90 %.3f ms p99 %.3f ms "
                  "late max %.3f ms\n",
                  rate, s, static_cast<long long>(segment.ok),
                  static_cast<long long>(segment.sent), pooled.segment_p50_ms.back(),
                  pooled.segment_p90_ms.back(), pooled.segment_p99_ms.back(),
                  segment.late_ms_max);
      pooled.latency_ms.insert(pooled.latency_ms.end(), segment.latency_ms.begin(),
                               segment.latency_ms.end());
      pooled.scores.insert(pooled.scores.end(), segment.scores.begin(), segment.scores.end());
      pairs->insert(pairs->end(), segment_pairs.begin(), segment_pairs.end());
    }
    return pooled;
  }

  Phase RunPhase(double rate, const std::vector<EntityPair>& pairs, Tracer& tracer,
                 Checks& checks) {
    const size_t n = pairs.size();
    Phase phase;
    phase.scores.assign(n, std::nanf(""));
    std::vector<double> latency(n, -1.0), late(n, 0.0);
    std::vector<std::string> errors(n);
    const uint64_t t0 = NowNs() + 5'000'000;  // Let every thread reach its first slot.
    std::atomic<uint64_t> last_done{t0};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        serve::Client& client = *clients_[c];
        for (size_t k = c; k < n; k += kClients) {
          const uint64_t due = t0 + static_cast<uint64_t>(static_cast<double>(k) / rate * 1e9);
          const uint64_t now = NowNs();
          if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          late[k] = static_cast<double>(static_cast<int64_t>(NowNs() - due)) * 1e-6;
          std::optional<hiergat::StatusOr<std::vector<float>>> result;
          tracer.Time("serve::Client::Score",
                      [&] { result.emplace(client.Score("", {pairs[k]})); });
          const uint64_t done = NowNs();
          uint64_t seen = last_done.load();
          while (done > seen && !last_done.compare_exchange_weak(seen, done)) {
          }
          if (!result->ok()) {
            errors[k] = result->status().ToString();
            continue;
          }
          if (result->value().size() == 1) {
            phase.scores[k] = result->value()[0];
          } else {
            errors[k] = "wrong number of scores";
          }
          latency[k] = static_cast<double>(done - due) * 1e-6;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    tracer.Drain();

    for (size_t k = 0; k < n; ++k) {
      ++phase.sent;
      ++checks.attempted;
      phase.late_ms_max = std::max(phase.late_ms_max, late[k]);
      if (!errors[k].empty()) {
        ++phase.failed;
        checks.Fail("Client::Score: " + errors[k]);
        continue;
      }
      if (!checks.CheckScores({phase.scores[k]}, 1, "Client::Score")) {
        ++phase.failed;
        continue;
      }
      ++phase.ok;
      phase.latency_ms.push_back(latency[k]);
    }
    phase.achieved_rps =
        static_cast<double>(phase.ok) / SecondsBetween(t0, last_done.load());
    return phase;
  }

  // The batcher's contract: a response equals Session::Score on the same
  // pair, bit for bit, whatever batch it was scored in.
  void CheckSample(const std::vector<EntityPair>& pairs, const Phase& phase,
                   Checks& checks) {
    std::vector<EntityPair> sample;
    std::vector<float> served;
    for (size_t k = 0; k < pairs.size(); k += kSampleEvery) {
      if (std::isnan(phase.scores[k])) continue;
      sample.push_back(pairs[k]);
      served.push_back(phase.scores[k]);
    }
    const std::vector<float> reference = registry_->Get("bench")->Score(sample);
    if (reference.size() != served.size()) {
      checks.Fail("Session::Score returned the wrong number of scores");
      return;
    }
    for (size_t i = 0; i < served.size(); ++i) {
      if (std::memcmp(&served[i], &reference[i], sizeof(float)) != 0) {
        char message[96];
        std::snprintf(message, sizeof(message),
                      "served score %.9g differs from Session::Score %.9g",
                      static_cast<double>(served[i]), static_cast<double>(reference[i]));
        checks.Fail(message);
      }
    }
  }

  const Args args_;
  const std::string checkpoint_;
  std::unique_ptr<serve::ModelRegistry> registry_;
  std::unique_ptr<serve::Server> server_;
  std::vector<std::unique_ptr<serve::Client>> clients_;
  std::vector<EntityPair> pool_;
  uint64_t block_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServeOnline(const Args& args) {
  return std::make_unique<ServeOnline>(args);
}

}  // namespace perfbench
