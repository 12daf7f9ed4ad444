// Tensor-core micro-bench: throughput of the kernelized ops (GEMM,
// fused Linear, row-softmax, row-layernorm) at HierGAT-realistic shapes
// (token sequences of a few dozen rows, feature dims d in {64,128,256}),
// plus a head-to-head of the blocked SGEMM kernel against the seed
// i-k-j scalar loop it replaced and a 1..8-row GEMM sweep that exposes
// any per-row-count cliff in the register tile. Emits hiergat-bench-v1
// JSON via --json_out=PATH (validated by tools/check_bench_json.py).

#include <algorithm>
#include <chrono>
#include <functional>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/rng.h"
#include "tensor/backend.h"
#include "tensor/graph.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"

namespace hiergat {
namespace {

double Seconds(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The seed MatMul inner loop (pre-kernel ops.cc), kept verbatim as the
/// baseline the 2x acceptance bar is measured against.
void SeedGemmIkj(int m, int n, int k, const float* ad, const float* bd,
                 float* od) {
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float av = ad[static_cast<size_t>(i) * k + kk];
      if (av == 0.0f) continue;
      const float* brow = bd + static_cast<size_t>(kk) * n;
      float* orow = od + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

/// Median wall-seconds of `reps` timed calls to `fn` (after one warmup).
template <typename Fn>
std::vector<double> TimeReps(int reps, Fn fn) {
  fn();  // Warmup: page in buffers, prime the pool.
  std::vector<double> times;
  times.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    times.push_back(Seconds(start));
  }
  return times;
}

double Flops(int m, int n, int k) {
  return 2.0 * static_cast<double>(m) * n * k;
}

int main_impl(int argc, char** argv) {
  bench::PrintHeader(
      "Tensor op kernels",
      "blocked/unrolled SGEMM and fused Linear/softmax/layernorm kernels "
      "outperform the seed scalar loops at model-realistic shapes");

  const int reps = bench::IntEnv("HIERGAT_BENCH_TENSOR_REPS", 30);
  const int inner = bench::IntEnv("HIERGAT_BENCH_TENSOR_INNER", 8);
  Rng rng(42);

  bench::BenchResult result("tensor_ops");
  result.AddParam("reps", reps);
  result.AddParam("inner_iters", inner);
  result.AddParam("dims", "64,128,256");

  bench::Table table("Tensor op kernels (single thread)",
                     {"op", "shape", "p50 us/call", "GFLOP/s"});

  // -- Headline: kernel GEMM vs the seed i-k-j loop at [128x128]^2 ----
  const int kHead = 128;
  std::vector<float> a(static_cast<size_t>(kHead) * kHead);
  std::vector<float> b(a.size());
  std::vector<float> c(a.size(), 0.0f);
  for (float& v : a) v = rng.NextGaussian();
  for (float& v : b) v = rng.NextGaussian();

  const std::vector<double> seed_times = TimeReps(reps, [&] {
    for (int i = 0; i < inner; ++i)
      SeedGemmIkj(kHead, kHead, kHead, a.data(), b.data(), c.data());
  });
  const std::vector<double> kernel_times = TimeReps(reps, [&] {
    for (int i = 0; i < inner; ++i)
      kernels::GemmNN(kHead, kHead, kHead, 1.0f, a.data(), b.data(),
                      c.data());
  });
  const double seed_p50 = bench::PercentileOf(seed_times, 0.5) / inner;
  const double kern_p50 = bench::PercentileOf(kernel_times, 0.5) / inner;
  const double speedup = seed_p50 / kern_p50;
  const double kern_gflops = Flops(kHead, kHead, kHead) / kern_p50 / 1e9;
  table.AddRow({"gemm seed i-k-j", "[128,128]x[128,128]",
                bench::Fmt(seed_p50 * 1e6),
                bench::Fmt(Flops(kHead, kHead, kHead) / seed_p50 / 1e9, 2)});
  table.AddRow({"gemm kernel", "[128,128]x[128,128]",
                bench::Fmt(kern_p50 * 1e6), bench::Fmt(kern_gflops, 2)});
  table.AddSeparator();
  result.AddMetric("gemm128.seed_us", seed_p50 * 1e6);
  result.AddMetric("gemm128.kernel_us", kern_p50 * 1e6);
  result.AddMetric("gemm128.speedup_vs_seed", speedup);
  result.AddMetric("gemm128.kernel_gflops", kern_gflops);

  // Backward-shape variants at the same size.
  for (const char* variant : {"nt", "tn"}) {
    const bool nt = variant[0] == 'n';
    const std::vector<double> times = TimeReps(reps, [&] {
      for (int i = 0; i < inner; ++i) {
        if (nt) {
          kernels::GemmNT(kHead, kHead, kHead, 1.0f, a.data(), b.data(),
                          c.data());
        } else {
          kernels::GemmTN(kHead, kHead, kHead, 1.0f, a.data(), b.data(),
                          c.data());
        }
      }
    });
    const double p50 = bench::PercentileOf(times, 0.5) / inner;
    table.AddRow({std::string("gemm ") + variant + " (backward)",
                  "[128,128]x[128,128]", bench::Fmt(p50 * 1e6),
                  bench::Fmt(Flops(kHead, kHead, kHead) / p50 / 1e9, 2)});
    result.AddMetric(std::string("gemm128.") + variant + "_us", p50 * 1e6);
  }
  table.AddSeparator();

  // -- Row sweep at the scorer's tiny-M shapes ------------------------
  // Attribute values average ~5 tokens, so most scoring GEMMs have 1-11
  // rows. [m,32]x[32,64] for m = 1..8 through the active backend, in ns
  // per call. Each 4-row block is one register tile, so ns(m) should
  // track ceil(m/4) * ns(4); cliff_ratio is the worst per-block cost over
  // ns(4) and reads ~1 when no row count falls off the tile path.
  {
    const int kK = 32, kN = 64, kMaxRows = 8;
    const int calls = 256;
    std::vector<float> ra(static_cast<size_t>(kMaxRows) * kK);
    std::vector<float> rb(static_cast<size_t>(kK) * kN);
    std::vector<float> rc(static_cast<size_t>(kMaxRows) * kN, 0.0f);
    for (float& v : ra) v = rng.NextGaussian();
    for (float& v : rb) v = rng.NextGaussian();
    std::vector<double> row_ns(kMaxRows + 1, 0.0);
    for (int m = 1; m <= kMaxRows; ++m) {
      const std::vector<double> times = TimeReps(reps, [&] {
        for (int i = 0; i < calls; ++i)
          backend::GemmNN(m, kN, kK, 1.0f, ra.data(), rb.data(), rc.data());
      });
      row_ns[m] = bench::PercentileOf(times, 0.5) / calls * 1e9;
      table.AddRow({"gemm rows",
                    "[" + std::to_string(m) + ",32]x[32,64]",
                    bench::Fmt(row_ns[m] * 1e-3, 3),
                    bench::Fmt(Flops(m, kN, kK) / row_ns[m], 2)});
      result.AddMetric("gemm_rows.m" + std::to_string(m) + "_ns", row_ns[m]);
    }
    double worst_block_ns = 0.0;
    for (int m = 1; m <= kMaxRows; ++m) {
      worst_block_ns = std::max(worst_block_ns, row_ns[m] / ((m + 3) / 4));
    }
    result.AddMetric("gemm_rows.cliff_ratio", worst_block_ns / row_ns[4]);
    table.AddSeparator();
  }

  // -- Graph-level ops at HierGAT-realistic shapes --------------------
  // Sequences of tokens (rows ~ 24, one attribute value) against weight
  // matrices of d in {64, 128, 256}.
  const int kRows = 24;
  std::vector<double> all_latencies;
  for (int d : {64, 128, 256}) {
    Tensor x = Tensor::Randn({kRows, d}, rng);
    Tensor w = Tensor::Randn({d, d}, rng);
    Tensor bias = Tensor::Randn({d}, rng);
    Tensor gamma = Tensor::Full({d}, 1.0f);
    Tensor beta = Tensor::Zeros({d});
    Tensor q = Tensor::Randn({kRows, d}, rng);
    Tensor k = Tensor::Randn({kRows, d}, rng);
    NoGradGuard guard;  // Inference path: value-only nodes, pooled churn.
    const std::string shape =
        "[" + std::to_string(kRows) + "," + std::to_string(d) + "]";
    struct OpCase {
      const char* name;
      std::function<Tensor()> run;
      double flops;
    };
    const OpCase cases[] = {
        {"MatMul", [&] { return MatMul(x, w); }, Flops(kRows, d, d)},
        {"Linear (fused)", [&] { return LinearOp(x, w, bias); },
         Flops(kRows, d, d)},
        {"AttentionScores", [&] { return AttentionScores(q, k, 0.125f); },
         Flops(kRows, kRows, d)},
        {"Softmax", [&] { return Softmax(x); },
         static_cast<double>(kRows) * d * 3},
        {"LayerNorm", [&] { return LayerNorm(x, gamma, beta); },
         static_cast<double>(kRows) * d * 4},
    };
    for (const OpCase& op : cases) {
      const std::vector<double> times = TimeReps(reps, [&] {
        for (int i = 0; i < inner; ++i) {
          Tensor out = op.run();
          (void)out;
        }
      });
      const double p50 = bench::PercentileOf(times, 0.5) / inner;
      all_latencies.push_back(p50);
      table.AddRow({op.name, shape + "x[" + std::to_string(d) + "]",
                    bench::Fmt(p50 * 1e6),
                    bench::Fmt(op.flops / p50 / 1e9, 2)});
      std::string key = op.name;
      for (char& ch : key) {
        if (ch == ' ' || ch == '(' || ch == ')') ch = '_';
      }
      result.AddMetric(key + ".d" + std::to_string(d) + ".us", p50 * 1e6);
    }
    table.AddSeparator();
  }

  // -- Compiled graph replay vs eager (DESIGN.md §11) -----------------
  // The same NoGrad op chains the scoring path runs, captured once via
  // GraphCapture and replayed through the planned arena, against eager
  // re-execution with its per-op Tensor/pool/dispatch traffic. Two
  // chains: a [24,d] encoder block (compute-leaning) and a [1,d]
  // compare/classify row chain (overhead-bound — where the planner's
  // win is largest).
  bench::Table graph_table(
      "Compiled graph replay vs eager (single thread)",
      {"chain", "shape", "eager us", "replay us", "speedup"});
  {
    NoGradGuard guard;
    const int d = 64;

    // Encoder block at [24,64]: attention + residual + feed-forward,
    // with a constant position table the capture folds away and a CLS
    // readout the planner elides to a view.
    Tensor w1 = Tensor::Randn({d, d}, rng);
    Tensor b1 = Tensor::Randn({d}, rng);
    Tensor w2 = Tensor::Randn({d, d}, rng);
    Tensor b2 = Tensor::Randn({d}, rng);
    Tensor gamma = Tensor::Full({d}, 1.0f);
    Tensor beta = Tensor::Zeros({d});
    Tensor pos = Tensor::Randn({kRows, d}, rng);
    auto encoder = [&](const Tensor& in) {
      Tensor x0 = Add(in, Scale(pos, 0.125f));
      Tensor h = LinearOp(x0, w1, b1);
      Tensor attn = Softmax(AttentionScores(h, h, 0.125f));
      Tensor mixed = LayerNorm(Add(MatMul(attn, h), x0), gamma, beta);
      Tensor ff = Relu(LinearOp(mixed, w2, b2));
      Tensor out = LayerNorm(Add(ff, mixed), gamma, beta);
      return SliceRows(out, 0, 1);
    };

    // Compare/classify row chain at [1,64]: elementwise features over a
    // summary pair, concat, two-layer classifier head, softmax.
    Tensor wc1 = Tensor::Randn({4 * d, d}, rng);
    Tensor bc1 = Tensor::Randn({d}, rng);
    Tensor wc2 = Tensor::Randn({d, 2}, rng);
    Tensor bc2 = Tensor::Randn({2}, rng);
    auto compare = [&](const Tensor& left, const Tensor& right) {
      Tensor features =
          ConcatCols({left, right, Mul(left, right), Sub(left, right)});
      Tensor hidden = Relu(LinearOp(features, wc1, bc1));
      return Softmax(LinearOp(hidden, wc2, bc2));
    };

    struct GraphCase {
      const char* name;
      std::string shape;
      std::vector<Tensor> live_inputs;
      std::unique_ptr<graph::CompiledGraph> compiled;
      std::function<Tensor()> eager;
    };
    std::vector<GraphCase> graph_cases;

    {
      GraphCase gcase;
      gcase.name = "encoder block";
      gcase.shape = "[24," + std::to_string(d) + "]";
      gcase.live_inputs = {Tensor::Randn({kRows, d}, rng)};
      graph::GraphCapture capture;
      Tensor traced = Tensor::Zeros({kRows, d});
      capture.MarkInput(traced);
      Tensor out = encoder(traced);
      capture.MarkOutput(out);
      auto compiled_or = capture.Finish();
      if (!compiled_or.ok()) {
        std::fprintf(stderr, "encoder capture failed: %s\n",
                     compiled_or.status().ToString().c_str());
        return 1;
      }
      gcase.compiled = std::move(compiled_or).value();
      gcase.eager = [&, inputs = gcase.live_inputs] {
        return encoder(inputs[0]);
      };
      graph_cases.push_back(std::move(gcase));
    }
    {
      GraphCase gcase;
      gcase.name = "compare+classify";
      gcase.shape = "[1," + std::to_string(d) + "]x2";
      gcase.live_inputs = {Tensor::Randn({1, d}, rng),
                           Tensor::Randn({1, d}, rng)};
      graph::GraphCapture capture;
      Tensor left = Tensor::Zeros({1, d});
      Tensor right = Tensor::Zeros({1, d});
      capture.MarkInput(left);
      capture.MarkInput(right);
      Tensor out = compare(left, right);
      capture.MarkOutput(out);
      auto compiled_or = capture.Finish();
      if (!compiled_or.ok()) {
        std::fprintf(stderr, "compare capture failed: %s\n",
                     compiled_or.status().ToString().c_str());
        return 1;
      }
      gcase.compiled = std::move(compiled_or).value();
      gcase.eager = [&, inputs = gcase.live_inputs] {
        return compare(inputs[0], inputs[1]);
      };
      graph_cases.push_back(std::move(gcase));
    }

    for (GraphCase& gcase : graph_cases) {
      std::vector<const float*> in_ptrs;
      for (const Tensor& t : gcase.live_inputs) {
        in_ptrs.push_back(t.data().data());
      }
      std::vector<float> out_buf(
          static_cast<size_t>(gcase.compiled->output_size(0)));
      float* out_ptr = out_buf.data();

      // Correctness guard: replay must be bit-identical to eager.
      const Tensor reference = gcase.eager();
      gcase.compiled->Run(in_ptrs.data(), &out_ptr, nullptr);
      for (size_t i = 0; i < out_buf.size(); ++i) {
        if (out_buf[i] != reference.data()[i]) {
          std::fprintf(stderr, "%s: replay diverges from eager at %zu\n",
                       gcase.name, i);
          return 1;
        }
      }

      const std::vector<double> eager_times = TimeReps(reps, [&] {
        for (int i = 0; i < inner; ++i) {
          Tensor out = gcase.eager();
          (void)out;
        }
      });
      const std::vector<double> replay_times = TimeReps(reps, [&] {
        for (int i = 0; i < inner; ++i) {
          gcase.compiled->Run(in_ptrs.data(), &out_ptr, nullptr);
        }
      });
      const double eager_p50 = bench::PercentileOf(eager_times, 0.5) / inner;
      const double replay_p50 = bench::PercentileOf(replay_times, 0.5) / inner;
      all_latencies.push_back(replay_p50);
      graph_table.AddRow({gcase.name, gcase.shape,
                          bench::Fmt(eager_p50 * 1e6),
                          bench::Fmt(replay_p50 * 1e6),
                          bench::Fmt(eager_p50 / replay_p50, 2) + "x"});

      const graph::PlanStats& stats = gcase.compiled->stats();
      std::string key = gcase.name[0] == 'e' ? "graph.encoder" : "graph.compare";
      result.AddMetric(key + ".eager_us", eager_p50 * 1e6);
      result.AddMetric(key + ".replay_us", replay_p50 * 1e6);
      result.AddMetric(key + ".speedup_vs_eager", eager_p50 / replay_p50);
      result.AddMetric(key + ".plan_bytes",
                       static_cast<double>(stats.plan_bytes));
      result.AddMetric(key + ".eager_bytes",
                       static_cast<double>(stats.eager_bytes));
      result.AddMetric(key + ".arena_reuse",
                       1.0 - static_cast<double>(stats.plan_bytes) /
                                 static_cast<double>(stats.eager_bytes));
      result.AddMetric(key + ".folded_nodes",
                       static_cast<double>(stats.num_folded));
      result.AddMetric(key + ".view_values",
                       static_cast<double>(stats.num_views));
      result.AddMetric(key + ".nodes", static_cast<double>(stats.num_nodes));
    }
  }

  // Pool engagement during the loop above (thread-local stats).
  const auto& pool_stats =
      internal_tensor::BufferPool::ThreadLocal().stats();
  result.AddMetric("pool.hits", static_cast<double>(pool_stats.hits));
  result.AddMetric("pool.misses", static_cast<double>(pool_stats.misses));
  result.AddMetric("pool.bytes_reused",
                   static_cast<double>(pool_stats.bytes_reused));

  table.Print();
  graph_table.Print();
  std::printf(
      "\ngemm [128,128]x[128,128]: kernel %.1f us vs seed %.1f us "
      "(%.2fx)\npool: %lld hits / %lld misses\n",
      kern_p50 * 1e6, seed_p50 * 1e6, speedup,
      static_cast<long long>(pool_stats.hits),
      static_cast<long long>(pool_stats.misses));

  result.SetLatencies(all_latencies);
  result.set_throughput(Flops(kHead, kHead, kHead) / kern_p50);
  const std::string json_path = bench::JsonOutPath(argc, argv);
  if (!bench::WriteBenchJson(json_path, result)) return 1;
  return 0;
}

}  // namespace
}  // namespace hiergat

int main(int argc, char** argv) { return hiergat::main_impl(argc, argv); }
