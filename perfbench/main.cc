// End-to-end benchmark of the HierGAT entity-resolution pipeline.
//
//   perfbench_e2e --workload resolve_batch|serve_online|collective_stream
//                 --seed N --seconds S --trace 0|1 --workdir DIR
//
// Untraced (--trace 0): sets up several times, runs the workload for S
// seconds and prints every end-to-end metric. Traced (--trace 1): runs
// S/2 seconds untraced (per-layer counters and harness-timed calls),
// then S/2 seconds with obs::TraceRecorder on (per-layer self time), and
// prints every per-layer metric. Either way the last stdout line is one
// JSON object; the exit code is non-zero when a correctness check
// fails or a counter the metrics are built from is missing.

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "obs/log.h"
#include "workload.h"

namespace perfbench {
namespace {

// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetups = 3;

SetupTimes MedianSetup(Workload& workload) {
  std::vector<double> setup, train, open, first;
  for (int i = 0; i < kSetups; ++i) {
    const SetupTimes t = workload.Setup();
    setup.push_back(t.setup_s);
    train.push_back(t.train_s);
    open.push_back(t.open_s);
    first.push_back(t.first_scores_s);
  }
  return {Median(setup), Median(train), Median(open), Median(first)};
}

std::vector<Metric> EndToEndMetrics(const Workload& workload, const SetupTimes& setup,
                                    const Pass& pass) {
  const bool serving = workload.uses_serving();
  return {
      {"setup_s", setup.setup_s, "s", "median of the set-ups of this run"},
      {"peak_rss_mb", pass.peak_rss_mb, "MB",
       serving ? "ru_maxrss after set-up and the low and high rates"
               : "ru_maxrss after set-up and the first rounds"},
      {"records_per_s", pass.records_per_s, "1/s",
       serving ? "records answered per second at the high rate"
               : "per round: records / (first insert -> last score)"},
      {"first_scores_s", serving ? setup.first_scores_s : pass.first_scores_s, "s",
       serving ? "Server::Start -> first response (median of cold starts)"
               : "per round: first insert -> first scores back"},
      {"f1", pass.f1, "share", "F1 at 0.5 against the generator's gold"},
      {"p50_ms.low", pass.p50_ms_low, "ms",
       serving ? "per segment: open-loop latency at the low rate"
               : "per round: time to score true matches"},
      {"p50_ms.high", pass.p50_ms_high, "ms",
       serving ? "per segment: open-loop latency at the high rate"
               : "per round: time to score every item"},
      {"goodput_rps", pass.goodput_rps, "1/s",
       serving ? "highest ladder rate meeting the limits (achieved rate)"
               : "true matches found per second"},
  };
}

const char* const kTensorOps[] = {"Linear", "AttentionScores", "Gelu", "LayerNorm",
                                  "MatMul"};

// Every per-layer metric: a before/after difference of named program
// counters or histograms, a harness-timed call, or (for *_s self times)
// the traced pass. Layers a workload does not run report 0 and are not
// checked for missing counters.
std::vector<Metric> LayerMetrics(const Workload& workload, const SetupTimes& setup,
                                 const Pass& base, CounterDelta& counters,
                                 const Pass& traced, CounterDelta& traced_counters,
                                 const Tracer& tracer, const Checks& checks,
                                 std::set<std::string>* missing) {
  const bool blocking = workload.uses_blocking();
  const bool serving = workload.uses_serving();
  const auto self = [&](std::initializer_list<const char*> names) {
    double total = 0;
    for (const char* name : names) {
      const auto it = tracer.stats().find(name);
      if (it != tracer.stats().end()) total += it->second.self_s;
    }
    return total;
  };
  const auto mean_ms = [&](const char* name) {
    const auto it = tracer.stats().find(name);
    return it == tracer.stats().end() || it->second.calls == 0
               ? 0.0
               : 1e3 * it->second.total_s / static_cast<double>(it->second.calls);
  };
  const auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
  const auto layer = [&](const char* name) {
    const auto it = base.layer.find(name);
    return it == base.layer.end() ? 0.0 : it->second;
  };
  const double pairs = static_cast<double>(base.pairs_scored);

  std::vector<Metric> m;
  // A metric whose counter the program no longer exports is left out
  // of the result (and fails the run) instead of reading as 0.
  const auto add = [&](bool on, std::string name, auto value, const char* unit,
                       std::string source) {
    if (!on) {
      m.push_back({std::move(name), 0.0, unit, "layer not run by this workload"});
      return;
    }
    const size_t known = counters.missing().size() + traced_counters.missing().size();
    const double v = value();
    if (counters.missing().size() + traced_counters.missing().size() != known) return;
    m.push_back({std::move(name), v, unit, std::move(source)});
  };

  // blocking
  add(blocking, "blocking.add_s", [&] { return layer("blocking.add_s"); }, "s",
      "harness: time in EmbedBlocker::AddAll / Add");
  add(blocking, "blocking.search_s", [&] { return layer("blocking.search_s"); }, "s",
      "harness: time in ProgressiveCandidates::NextBatch / EmbedBlocker::TopN");
  add(blocking, "blocking.add_p99_us", [&] { return layer("blocking.add_p99_us"); }, "us",
      "harness: p99 of timed EmbedBlocker::Add calls (0 where only AddAll runs)");
  add(blocking, "blocking.dist_evals_per_search",
      [&] { return layer("blocking.dist_evals_per_search"); }, "count",
      "d hiergat.blocking.ann.dist_evals / d hiergat.blocking.ann.searches around search calls");
  add(blocking, "blocking.recall", [&] { return layer("blocking.recall"); }, "share",
      "harness: gold matches among candidates / gold matches");
  add(blocking, "blocking.candidates_per_match",
      [&] { return layer("blocking.candidates_per_match"); }, "count",
      "harness: candidates scored / gold matches among them");

  // er
  add(true, "er.score_s",
      [&] {
        return serving ? counters.HistogramSum("hiergat.engine.batch_seconds")
                       : layer("er.score_s");
      },
      "s",
      serving ? "sum of d hiergat.engine.batch_seconds (Session::Score runs in the server)"
              : "harness: time in Session::Score / ScoreQueries");
  add(true, "er.cache_hit_rate",
      [&] {
        const double hits = counters.Counter("hiergat.cache.hits");
        return ratio(hits, hits + counters.Counter("hiergat.cache.misses"));
      },
      "share", "d hiergat.cache.hits / (d hits + d hiergat.cache.misses)");
  add(true, "er.compiled_share",
      [&] {
        const double compiled = counters.Counter("hiergat.compiled.summarize_replays");
        return ratio(compiled,
                     compiled + counters.Counter("hiergat.aggregation.attribute_summaries"));
      },
      "share",
      "d hiergat.compiled.summarize_replays / (that + d hiergat.aggregation."
      "attribute_summaries)");
  add(true, "er.lm_encodes", [&] { return counters.Counter("hiergat.contextual.lm_encodes"); },
      "count", "d hiergat.contextual.lm_encodes");
  add(true, "er.graph_compiles", [&] { return counters.Counter("hiergat.graph.compiles"); },
      "count", "d hiergat.graph.compiles");
  add(true, "graph.hhg_build_s", [&] { return self({"Hhg::Build"}); }, "s",
      "traced self time of Hhg::Build");
  add(true, "er.contextual_s",
      [&] {
        return self({"ContextualEmbedder::Compute", "ContextualEmbedder::TokenLevelContext"});
      },
      "s", "traced self time of ContextualEmbedder::Compute + TokenLevelContext");
  add(true, "er.summarize_s",
      [&] { return self({"HierarchicalAggregator::SummarizeAttribute"}); }, "s",
      "traced self time of HierarchicalAggregator::SummarizeAttribute (eager path)");
  add(true, "er.compare_s",
      [&] {
        return self({"HierarchicalComparator::CompareAttribute",
                     "HierarchicalComparator::CombineViews"});
      },
      "s", "traced self time of HierarchicalComparator::* (eager path)");

  // er.engine
  add(true, "engine.items_per_job",
      [&] {
        return ratio(counters.Counter("hiergat.engine.items"),
                     counters.Counter("hiergat.engine.jobs"));
      },
      "count", "d hiergat.engine.items / d hiergat.engine.jobs");
  add(true, "engine.queue_wait_s",
      [&] { return counters.HistogramSum("hiergat.engine.queue_wait_seconds"); }, "s",
      "sum of d hiergat.engine.queue_wait_seconds");
  add(true, "engine.steals", [&] { return counters.Counter("hiergat.engine.steals"); },
      "count", "d hiergat.engine.steals");

  // tensor
  for (const char* op : kTensorOps) {
    const std::string prefix = std::string("hiergat.graph.node.") + op;
    add(true, std::string("tensor.node.") + op + ".flops_per_pair",
        [&] { return ratio(counters.Counter(prefix + ".est_flops"), pairs); }, "flop",
        "d " + prefix + ".est_flops (static estimate) / pairs scored");
    add(true, std::string("tensor.node.") + op + ".bytes_per_pair",
        [&] { return ratio(counters.Counter(prefix + ".est_bytes"), pairs); }, "B",
        "d " + prefix + ".est_bytes (computed from tensor sizes) / pairs scored");
    add(true, std::string("tensor.node.") + op + ".s",
        [&] {
          const auto it = tracer.stats().find(op);
          return it == tracer.stats().end() ? 0.0 : it->second.total_s;
        },
        "s", std::string("traced time of graph-node spans ") + op);
  }
  add(true, "tensor.pool_hit_rate",
      [&] {
        const double hits = counters.Counter("hiergat.tensor.pool.hits");
        return ratio(hits, hits + counters.Counter("hiergat.tensor.pool.misses"));
      },
      "share", "d hiergat.tensor.pool.hits / (d hits + d hiergat.tensor.pool.misses)");
  add(true, "tensor.threadpool_parks",
      [&] { return counters.Counter("hiergat.threadpool.parks"); }, "count",
      "d hiergat.threadpool.parks");

  // serve
  add(serving, "serve.batch_pairs_mean",
      [&] {
        return ratio(counters.Counter("hiergat.serve.batch.pairs"),
                     counters.Counter("hiergat.serve.batch.batches"));
      },
      "count", "d hiergat.serve.batch.pairs / d hiergat.serve.batch.batches");
  add(serving, "serve.batch_queue_wait_ms",
      [&] {
        const char* name = "hiergat.serve.batch.queue_wait_seconds";
        return 1e3 * ratio(counters.HistogramSum(name), counters.HistogramCount(name));
      },
      "ms", "mean of d hiergat.serve.batch.queue_wait_seconds");
  add(serving, "serve.server_request_ms", [&] { return mean_ms("serve.Request"); }, "ms",
      "traced mean duration of serve.Request spans");
  add(serving, "serve.client_request_ms",
      [&] { return mean_ms("bench:serve::Client::Score"); }, "ms",
      "traced mean of harness-timed Client::Score (minus server_request_ms = wire)");
  add(serving, "serve.shed",
      [&] { return counters.EventCounter("hiergat.serve.admission.rejected"); },
      "count", "d hiergat.serve.admission.rejected (registered on the first shed)");
  add(serving, "serve.errors", [&] { return counters.EventCounter("hiergat.serve.errors"); },
      "count", "d hiergat.serve.errors (registered on the first error)");

  // core
  add(true, "core.train_s", [&] { return setup.train_s; }, "s",
      "harness: Session::Train (median of set-ups)");
  add(true, "core.session_open_s", [&] { return setup.open_s; }, "s",
      "harness: Session::Open from the checkpoint (median of set-ups)");

  // load generator
  for (const char* rate : {"low", "high", "goodput"}) {
    const std::string suffix = std::string(".") + rate;
    add(serving, "load.sent" + suffix, [&] { return layer(("load.sent" + suffix).c_str()); },
        "count", std::string("harness: requests sent at the ") + rate + " rate");
    add(serving, "load.ok" + suffix, [&] { return layer(("load.ok" + suffix).c_str()); },
        "count", std::string("harness: requests answered at the ") + rate + " rate");
    add(serving, "load.late_ms_max" + suffix,
        [&] { return layer(("load.late_ms_max" + suffix).c_str()); }, "ms",
        std::string("harness: worst send lateness behind schedule at the ") + rate + " rate");
  }

  // obs
  add(true, "obs.trace_dropped_events",
      [&] { return traced_counters.EventCounter("hiergat.trace.dropped_events"); }, "count",
      "d hiergat.trace.dropped_events over the traced pass (registered on the first drop)");
  add(true, "obs.trace_overhead",
      [&] {
        return serving ? ratio(base.p50_ms_high, traced.p50_ms_high)
                       : ratio(traced.records_per_s, base.records_per_s);
      },
      "ratio",
      serving ? "untraced / traced p50_ms.high" : "traced / untraced records_per_s");

  // latency tails: per-layer only, as a stall of the host moves them by
  // more than any bound an end-to-end metric could carry
  add(true, "p90_ms.low", [&] { return base.p90_ms_low; }, "ms",
      serving ? "per segment: open-loop latency at the low rate"
              : "per round: time to score true matches");
  add(true, "p90_ms.high", [&] { return base.p90_ms_high; }, "ms",
      serving ? "per segment: open-loop latency at the high rate"
              : "per round: time to score every item");
  add(true, "p99_ms.low", [&] { return base.p99_ms_low; }, "ms",
      serving ? "per segment: open-loop latency at the low rate"
              : "per round: time to score true matches");
  add(true, "p99_ms.high", [&] { return base.p99_ms_high; }, "ms",
      serving ? "per segment: open-loop latency at the high rate"
              : "per round: time to score every item");

  // inputs and errors
  add(true, "input.value_reuse_share", [&] { return base.inputs.ValueReuseShare(); },
      "share", "harness: attribute values seen earlier in the workload");
  add(true, "input.attr_tokens_mean", [&] { return base.inputs.MeanAttributeTokens(); },
      "tokens", "harness: mean tokens per attribute value");
  add(true, "input.candidates_per_query", [&] { return base.inputs.CandidatesPerQuery(); },
      "count", "harness: candidates scored per query record");
  add(true, "error_rate",
      [&] { return ratio(static_cast<double>(checks.failed), static_cast<double>(checks.attempted)); },
      "share", "failed, shed or mismatched operations / operations attempted");

  missing->insert(counters.missing().begin(), counters.missing().end());
  missing->insert(traced_counters.missing().begin(), traced_counters.missing().end());
  return m;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  hiergat::obs::SetLogLevel(hiergat::obs::LogLevel::kWarn);
  std::filesystem::create_directories(args.workdir);

  std::unique_ptr<Workload> workload;
  if (args.workload == "resolve_batch") {
    workload = MakeResolveBatch(args);
  } else if (args.workload == "serve_online") {
    workload = MakeServeOnline(args);
  } else if (args.workload == "collective_stream") {
    workload = MakeCollectiveStream(args);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const SetupTimes setup = MedianSetup(*workload);
  std::printf("set-up (median of %d): setup_s=%.4f train_s=%.4f open_s=%.4f\n", kSetups,
              setup.setup_s, setup.train_s, setup.open_s);
  Checks checks;
  std::vector<Metric> metrics;
  std::set<std::string> missing;
  Pass pass;
  if (!args.trace) {
    Tracer untraced(false);
    pass = workload->Run(args.seconds, untraced, checks);
    metrics = EndToEndMetrics(*workload, setup, pass);
  } else {
    Tracer untraced(false);
    MetricsSnapshot before = MetricsSnapshot::Take();
    pass = workload->Run(args.seconds / 2, untraced, checks);
    CounterDelta counters(std::move(before), MetricsSnapshot::Take());

    Tracer tracer(true);
    auto& recorder = hiergat::obs::TraceRecorder::Global();
    recorder.Clear();
    MetricsSnapshot traced_before = MetricsSnapshot::Take();
    recorder.Start();
    const Pass traced = workload->Run(args.seconds / 2, tracer, checks);
    recorder.Stop();
    tracer.Drain();
    CounterDelta traced_counters(std::move(traced_before), MetricsSnapshot::Take());
    missing.insert(traced.missing.begin(), traced.missing.end());
    metrics = LayerMetrics(*workload, setup, pass, counters, traced, traced_counters, tracer,
                           checks, &missing);
    std::printf("traced self time by span (calls, total s, self s):\n");
    for (const auto& [name, stats] : tracer.stats()) {
      std::printf("  %-48s %9lld %12.6f %12.6f\n", name.c_str(),
                  static_cast<long long>(stats.calls), stats.total_s, stats.self_s);
    }
  }
  missing.insert(pass.missing.begin(), pass.missing.end());
  std::printf("inputs: value_reuse_share=%.4f attr_tokens_mean=%.3f "
              "candidates_per_query=%.3f\n",
              pass.inputs.ValueReuseShare(), pass.inputs.MeanAttributeTokens(),
              pass.inputs.CandidatesPerQuery());

  for (const std::string& name : missing) {
    std::printf("missing counter: %s\n", name.c_str());
  }
  if (checks.attempted == 0) {
    checks.attempted = 1;
    checks.Fail("no scoring operation ran");
  }
  bool finite = true;
  for (const Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      finite = false;
      checks.messages.push_back(metric.name + " is not a finite number");
    }
  }
  std::erase_if(metrics, [](const Metric& metric) { return !std::isfinite(metric.value); });
  const bool correct = checks.failed == 0 && finite;
  PrintReport(metrics, checks, correct);
  if (!missing.empty()) return 3;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
