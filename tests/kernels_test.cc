// Parity tests for the raw-pointer kernel layer against naive
// references, across the shapes that stress the blocking/unrolling
// (1x1, single row/col, tall/skinny, non-multiple-of-block), plus
// lifecycle tests for the pooled storage behind TensorImpl.

#include "tensor/kernels.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"

namespace hiergat {
namespace {

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.NextGaussian();
  return v;
}

// Naive references: straightforward triple loops, no blocking.
void NaiveGemmNN(int m, int n, int k, float alpha, const float* a,
                 const float* b, float* c) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      float sum = 0.0f;
      for (int kk = 0; kk < k; ++kk)
        sum += a[static_cast<size_t>(i) * k + kk] *
               b[static_cast<size_t>(kk) * n + j];
      c[static_cast<size_t>(i) * n + j] += alpha * sum;
    }
}

void NaiveGemmNT(int m, int n, int k, float alpha, const float* a,
                 const float* b, float* c) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      float sum = 0.0f;
      for (int kk = 0; kk < k; ++kk)
        sum += a[static_cast<size_t>(i) * k + kk] *
               b[static_cast<size_t>(j) * k + kk];
      c[static_cast<size_t>(i) * n + j] += alpha * sum;
    }
}

void NaiveGemmTN(int m, int n, int k, float alpha, const float* a,
                 const float* b, float* c) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      float sum = 0.0f;
      for (int kk = 0; kk < k; ++kk)
        sum += a[static_cast<size_t>(kk) * m + i] *
               b[static_cast<size_t>(kk) * n + j];
      c[static_cast<size_t>(i) * n + j] += alpha * sum;
    }
}

struct GemmShape {
  int m, n, k;
};

// Odd shapes: unit, single row/column, tall/skinny, and sizes that are
// deliberately not multiples of the 4x16 micro-tile or the unroll-by-8
// dot-product width. Every height of a short last row block (m % 4 of
// 1, 2 or 3) meets n >= 16, where it runs the row-clamped 4x16 tile:
// e.g. {1,33,12} and {17,64,5}; {2,16,8}, {6,16,32} and {10,33,64};
// {3,64,64} and {7,48,5}.
const GemmShape kShapes[] = {
    {1, 1, 1},  {1, 17, 1}, {1, 1, 9},   {5, 1, 7},   {1, 33, 12},
    {7, 5, 3},  {4, 16, 8}, {64, 3, 64}, {3, 64, 64}, {13, 31, 23},
    {33, 47, 19}, {17, 64, 5}, {2, 16, 8}, {6, 16, 32}, {7, 48, 5},
    {10, 33, 64},
};

class GemmParity : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmParity, NNMatchesNaive) {
  const auto [m, n, k] = GetParam();
  const auto a = RandomVec(static_cast<size_t>(m) * k, 1);
  const auto b = RandomVec(static_cast<size_t>(k) * n, 2);
  std::vector<float> got(static_cast<size_t>(m) * n, 0.5f);
  std::vector<float> want = got;  // Same non-zero start: += semantics.
  kernels::GemmNN(m, n, k, 1.3f, a.data(), b.data(), got.data());
  NaiveGemmNN(m, n, k, 1.3f, a.data(), b.data(), want.data());
  for (size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], want[i], 1e-4f) << "element " << i;
}

TEST_P(GemmParity, NTMatchesNaive) {
  const auto [m, n, k] = GetParam();
  const auto a = RandomVec(static_cast<size_t>(m) * k, 3);
  const auto b = RandomVec(static_cast<size_t>(n) * k, 4);
  std::vector<float> got(static_cast<size_t>(m) * n, -0.25f);
  std::vector<float> want = got;
  kernels::GemmNT(m, n, k, 0.7f, a.data(), b.data(), got.data());
  NaiveGemmNT(m, n, k, 0.7f, a.data(), b.data(), want.data());
  for (size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], want[i], 1e-4f) << "element " << i;
}

TEST_P(GemmParity, TNMatchesNaive) {
  const auto [m, n, k] = GetParam();
  const auto a = RandomVec(static_cast<size_t>(k) * m, 5);
  const auto b = RandomVec(static_cast<size_t>(k) * n, 6);
  std::vector<float> got(static_cast<size_t>(m) * n, 1.0f);
  std::vector<float> want = got;
  kernels::GemmTN(m, n, k, -1.1f, a.data(), b.data(), got.data());
  NaiveGemmTN(m, n, k, -1.1f, a.data(), b.data(), want.data());
  for (size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], want[i], 1e-4f) << "element " << i;
}

INSTANTIATE_TEST_SUITE_P(OddShapes, GemmParity,
                         ::testing::ValuesIn(kShapes));

// The documented NN/TN accumulation order (kernel_body.inc), spelled
// out as plain loops. Columns covered by full 16-wide tiles get
// C + (sum from 0, ascending k, of (alpha*a)*b); the trailing n % 16
// columns chain each product onto C directly. Separate statements keep
// every multiply and add individually rounded (this TU is built at the
// baseline ISA, which has no FMA to contract them into).
void OrderedGemm(bool trans_a, int m, int n, int k, float alpha,
                 const float* a, const float* b, float* c) {
  const int tiled = n - n % 16;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float* out = c + static_cast<size_t>(i) * n + j;
      float sum = 0.0f;
      for (int kk = 0; kk < k; ++kk) {
        const float av = alpha * (trans_a ? a[static_cast<size_t>(kk) * m + i]
                                          : a[static_cast<size_t>(i) * k + kk]);
        const float prod = av * b[static_cast<size_t>(kk) * n + j];
        if (j < tiled) {
          sum += prod;
        } else {
          *out += prod;
        }
      }
      if (j < tiled) *out += sum;
    }
  }
}

TEST(GemmOrderTest, NNAndTNMatchDocumentedOrderBitForBit) {
  for (int m = 1; m <= 9; ++m) {
    for (int n : {16, 17, 33, 48}) {
      for (int k : {1, 7, 32}) {
        const auto a = RandomVec(static_cast<size_t>(m) * k, 11 + m);
        const auto b = RandomVec(static_cast<size_t>(k) * n, 13 + n);
        const auto c0 = RandomVec(static_cast<size_t>(m) * n, 17 + k);
        for (bool trans_a : {false, true}) {
          std::vector<float> want = c0;
          OrderedGemm(trans_a, m, n, k, 0.75f, a.data(), b.data(),
                      want.data());
          std::vector<float> got = c0;
          if (trans_a) {
            kernels::GemmTN(m, n, k, 0.75f, a.data(), b.data(), got.data());
          } else {
            kernels::GemmNN(m, n, k, 0.75f, a.data(), b.data(), got.data());
          }
          for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], want[i])
                << (trans_a ? "TN" : "NN") << " m=" << m << " n=" << n
                << " k=" << k << " element " << i;
          }
        }
      }
    }
  }
}

TEST(KernelsTest, BackwardVariantsMatchMatMulGradients) {
  // The NT/TN kernels are exactly the two MatMul backward shapes:
  // dA = dOut * B^T and dB = A^T * dOut. Check against autograd.
  Tensor a = Tensor::FromVector({3, 5}, RandomVec(15, 7), true);
  Tensor b = Tensor::FromVector({5, 4}, RandomVec(20, 8), true);
  Tensor loss = Sum(MatMul(a, b));
  loss.Backward();

  std::vector<float> ones(12, 1.0f);  // dOut of Sum is all ones.
  std::vector<float> da(15, 0.0f), db(20, 0.0f);
  kernels::GemmNT(3, 5, 4, 1.0f, ones.data(), b.data().data(), da.data());
  kernels::GemmTN(5, 4, 3, 1.0f, a.data().data(), ones.data(), db.data());
  for (size_t i = 0; i < da.size(); ++i)
    EXPECT_NEAR(da[i], a.grad()[i], 1e-4f);
  for (size_t i = 0; i < db.size(); ++i)
    EXPECT_NEAR(db[i], b.grad()[i], 1e-4f);
}

TEST(KernelsTest, SoftmaxRowsMatchesOp) {
  const auto x = RandomVec(3 * 7, 9);
  std::vector<float> y(x.size());
  kernels::SoftmaxRows(3, 7, x.data(), y.data());
  Tensor ref = Softmax(Tensor::FromVector({3, 7}, x));
  for (size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], ref.data()[i]);
  // In-place application is allowed.
  std::vector<float> inplace = x;
  kernels::SoftmaxRows(3, 7, inplace.data(), inplace.data());
  for (size_t i = 0; i < y.size(); ++i) EXPECT_EQ(inplace[i], y[i]);
}

TEST(KernelsTest, LayerNormRowsMatchesOp) {
  const auto x = RandomVec(4 * 6, 10);
  const auto gamma = RandomVec(6, 11);
  const auto beta = RandomVec(6, 12);
  std::vector<float> y(x.size()), xhat(x.size()), inv_std(4);
  kernels::LayerNormRows(4, 6, 1e-5f, x.data(), gamma.data(), beta.data(),
                         y.data(), xhat.data(), inv_std.data());
  Tensor ref = LayerNorm(Tensor::FromVector({4, 6}, x),
                         Tensor::FromVector({6}, gamma),
                         Tensor::FromVector({6}, beta));
  for (size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], ref.data()[i], 1e-5f);
}

// -- BufferPool lifecycle -------------------------------------------------

using internal_tensor::BufferPool;

TEST(BufferPoolTest, RecyclesBySizeClassAndZeroFills) {
  BufferPool& pool = BufferPool::ThreadLocal();
  pool.Trim();
  const auto before = pool.stats();

  std::vector<float> buf = pool.Acquire(100);
  ASSERT_EQ(buf.size(), 100u);
  EXPECT_GE(buf.capacity(), 128u);  // Rounded up to the class capacity.
  for (float v : buf) EXPECT_EQ(v, 0.0f);
  buf.assign(buf.size(), 3.5f);  // Dirty it before returning.
  const float* prev_ptr = buf.data();
  pool.Release(std::move(buf));
  EXPECT_GT(pool.retained_bytes(), 0u);

  // Same size class: served from the recycled buffer, zero-filled.
  std::vector<float> again = pool.Acquire(120);
  EXPECT_EQ(again.data(), prev_ptr);
  for (float v : again) EXPECT_EQ(v, 0.0f);

  const auto after = pool.stats();
  EXPECT_EQ(after.hits - before.hits, 1);
  EXPECT_EQ(after.misses - before.misses, 1);
  EXPECT_EQ(after.bytes_reused - before.bytes_reused,
            static_cast<int64_t>(120 * sizeof(float)));
  pool.Trim();
  EXPECT_EQ(pool.retained_bytes(), 0u);
}

TEST(BufferPoolTest, LargerClassServesSmallerRequest) {
  BufferPool& pool = BufferPool::ThreadLocal();
  pool.Trim();
  std::vector<float> big = pool.Acquire(4096);
  const float* big_ptr = big.data();
  pool.Release(std::move(big));
  // A much smaller request may still reuse the big buffer rather than
  // allocating.
  const auto before = pool.stats();
  std::vector<float> small = pool.Acquire(64);
  EXPECT_EQ(small.data(), big_ptr);
  EXPECT_EQ(pool.stats().hits - before.hits, 1);
  pool.Trim();
}

TEST(BufferPoolTest, TensorChurnUnderNoGradHitsPool) {
  NoGradGuard guard;
  BufferPool& pool = BufferPool::ThreadLocal();
  pool.Trim();
  Rng rng(13);
  Tensor w = Tensor::Randn({32, 32}, rng);
  const auto before = pool.stats();
  for (int i = 0; i < 10; ++i) {
    Tensor x = Tensor::Randn({8, 32}, rng);
    Tensor y = LinearOp(Relu(MatMul(x, w)), w);
    ASSERT_EQ(y.dim(1), 32);
    // The iteration's intermediates die here and return their buffers.
  }
  const auto after = pool.stats();
  EXPECT_GT(after.hits - before.hits, 0)
      << "inference-style churn must recycle buffers";
}

TEST(BufferPoolTest, ReshapeAliasesParentStorage) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(a, {3, 2});
  Tensor f = Flatten(a);
  // Same underlying buffer: no copies on the view path.
  EXPECT_EQ(r.data().data(), a.data().data());
  EXPECT_EQ(f.data().data(), a.data().data());
  // A write through the view is visible in the parent (shared storage).
  r.set(0, 0, 42.0f);
  EXPECT_EQ(a.at(0, 0), 42.0f);
}

TEST(BufferPoolTest, ReshapeGradientsStaySeparate) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4}, true);
  Tensor r = Reshape(a, {4});
  Tensor loss = Sum(Mul(r, r));
  loss.Backward();
  ASSERT_EQ(a.grad().size(), 4u);
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);
  EXPECT_FLOAT_EQ(a.grad()[3], 8.0f);
}

}  // namespace
}  // namespace hiergat
