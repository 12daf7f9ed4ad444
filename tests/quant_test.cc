// Q8_0 codec tests plus backend-registry parity: every registered
// backend (scalar, avx2/neon where compiled) must produce *bit-
// identical* results for the dispatched kernels — the backends compile
// the same kernel bodies (tensor/kernel_body.inc) with vectorization
// confined to reassociation-free lanes, and golden-fixture bitwise
// identity depends on it.

#include "core/quant.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "tensor/backend.h"
#include "tensor/kernels.h"

namespace hiergat {
namespace {

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.NextGaussian();
  return v;
}

// -- Q8_0 codec ---------------------------------------------------------

TEST(QuantCodecTest, RoundTripErrorBoundedByHalfScale) {
  for (int cols : {1, 7, 32, 33, 64, 100}) {
    const auto x = RandomVec(static_cast<size_t>(cols), 17);
    std::vector<q8::Block> blocks(q8::BlocksPerRow(cols));
    q8::QuantizeRow(x.data(), cols, blocks.data());
    std::vector<float> dq(static_cast<size_t>(cols));
    q8::DequantizeRow(blocks.data(), cols, dq.data());
    for (int j = 0; j < cols; ++j) {
      const float scale = blocks[static_cast<size_t>(j) / q8::kBlockSize].scale;
      EXPECT_LE(std::abs(dq[static_cast<size_t>(j)] -
                         x[static_cast<size_t>(j)]),
                scale * 0.5f + 1e-7f)
          << "cols=" << cols << " j=" << j;
    }
  }
}

TEST(QuantCodecTest, AllZeroBlockStoresZeroScale) {
  std::vector<float> x(40, 0.0f);
  std::vector<q8::Block> blocks(q8::BlocksPerRow(40));
  q8::QuantizeRow(x.data(), 40, blocks.data());
  for (const q8::Block& b : blocks) {
    EXPECT_EQ(b.scale, 0.0f);
    for (int8_t q : b.q) EXPECT_EQ(q, 0);
  }
  std::vector<float> dq(40, 1.0f);
  q8::DequantizeRow(blocks.data(), 40, dq.data());
  for (float v : dq) EXPECT_EQ(v, 0.0f);
}

TEST(QuantCodecTest, ExtremaQuantizeToPlusMinus127) {
  std::vector<float> x(32, 0.25f);
  x[3] = 8.0f;    // Block amax.
  x[21] = -8.0f;  // Symmetric negative extremum.
  q8::Block block;
  q8::QuantizeRow(x.data(), 32, &block);
  EXPECT_FLOAT_EQ(block.scale, 8.0f / 127.0f);
  EXPECT_EQ(block.q[3], 127);
  EXPECT_EQ(block.q[21], -127);
}

TEST(QuantCodecTest, PartialBlockPaddingLanesAreZero) {
  // cols=35: the second block has 3 live lanes and 29 padding lanes,
  // which must be zeroed for a deterministic wire image.
  const auto x = RandomVec(35, 23);
  std::vector<q8::Block> blocks(q8::BlocksPerRow(35), q8::Block{1.0f, {}});
  for (auto& b : blocks) std::memset(b.q, 0x7f, sizeof(b.q));  // Dirty.
  q8::QuantizeRow(x.data(), 35, blocks.data());
  for (int lane = 3; lane < q8::kBlockSize; ++lane) {
    EXPECT_EQ(blocks[1].q[lane], 0) << "padding lane " << lane;
  }
}

TEST(QuantCodecTest, QuantizedTensorLifecycle) {
  q8::QuantizedTensor q;
  EXPECT_FALSE(q.active());
  const auto x = RandomVec(5 * 40, 29);
  q.QuantizeFrom(x.data(), 5, 40);
  EXPECT_TRUE(q.active());
  EXPECT_EQ(q.rows(), 5);
  EXPECT_EQ(q.cols(), 40);
  EXPECT_EQ(q.blocks_per_row(), 2);
  EXPECT_EQ(q.wire_bytes(), 5u * 2u * q8::kWireBytes);
  // 4x reduction in stored f32 bytes bound: 360 wire vs 800 dense.
  EXPECT_LT(q.wire_bytes(), 5u * 40u * sizeof(float));

  std::vector<float> dq(5 * 40);
  q.DequantizeTo(dq.data());
  // Row-independence: row 2 dequantizes identically via the row codec.
  std::vector<q8::Block> row(q8::BlocksPerRow(40));
  q8::QuantizeRow(x.data() + 2 * 40, 40, row.data());
  std::vector<float> row_dq(40);
  q8::DequantizeRow(row.data(), 40, row_dq.data());
  for (int j = 0; j < 40; ++j) {
    EXPECT_EQ(dq[static_cast<size_t>(2 * 40 + j)],
              row_dq[static_cast<size_t>(j)]);
  }

  q.Clear();
  EXPECT_FALSE(q.active());
  EXPECT_EQ(q.blocks().size(), 0u);
}

// -- Backend registry ---------------------------------------------------

TEST(BackendRegistryTest, ScalarIsAlwaysRegisteredFirst) {
  const auto& backends = backend::Registered();
  ASSERT_FALSE(backends.empty());
  EXPECT_STREQ(backends.front()->name, "scalar");
  for (const backend::Kernels* kr : backends) {
    ASSERT_NE(kr, nullptr);
    // Every entry of the dispatch table must be populated.
    EXPECT_NE(kr->gemm_nn, nullptr);
    EXPECT_NE(kr->gemm_nt, nullptr);
    EXPECT_NE(kr->gemm_tn, nullptr);
    EXPECT_NE(kr->gemv, nullptr);
    EXPECT_NE(kr->softmax_rows, nullptr);
    EXPECT_NE(kr->layer_norm_rows, nullptr);
  }
}

TEST(BackendRegistryTest, ActiveBackendIsRegistered) {
  const backend::Kernels& active = backend::Active();
  bool found = false;
  for (const backend::Kernels* kr : backend::Registered()) {
    if (kr == &active) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_STREQ(backend::ActiveName(), active.name);
}

struct GemmShape {
  int m, n, k;
};

// Mirrors the kernels_test odd-shape list: unit, single row/column,
// tall/skinny, and non-multiples of the micro-tile and unroll widths,
// including a clamped last row block of every height 1..3 with n >= 16.
const GemmShape kShapes[] = {
    {1, 1, 1},  {1, 17, 1}, {1, 1, 9},   {5, 1, 7},   {1, 33, 12},
    {7, 5, 3},  {4, 16, 8}, {64, 3, 64}, {3, 64, 64}, {13, 31, 23},
    {33, 47, 19}, {17, 64, 5}, {2, 16, 8}, {6, 16, 32}, {7, 48, 5},
    {10, 33, 64},
};

class BackendParity : public ::testing::TestWithParam<GemmShape> {};

// Every registered backend vs the scalar reference, exact equality.
TEST_P(BackendParity, GemmFamilyBitIdentical) {
  const auto [m, n, k] = GetParam();
  const auto a = RandomVec(static_cast<size_t>(m) * k, 61);
  const auto b = RandomVec(static_cast<size_t>(k) * n, 67);
  const auto bt = RandomVec(static_cast<size_t>(n) * k, 71);
  const auto at = RandomVec(static_cast<size_t>(k) * m, 73);
  const size_t out_size = static_cast<size_t>(m) * n;

  std::vector<float> want_nn(out_size, 0.5f), want_nt(out_size, 0.5f);
  std::vector<float> want_tn(out_size, 0.5f);
  kernels::GemmNN(m, n, k, 1.3f, a.data(), b.data(), want_nn.data());
  kernels::GemmNT(m, n, k, 0.7f, a.data(), bt.data(), want_nt.data());
  kernels::GemmTN(m, n, k, -1.1f, at.data(), b.data(), want_tn.data());

  for (const backend::Kernels* kr : backend::Registered()) {
    std::vector<float> got(out_size, 0.5f);
    kr->gemm_nn(m, n, k, 1.3f, a.data(), b.data(), got.data());
    for (size_t i = 0; i < out_size; ++i)
      ASSERT_EQ(got[i], want_nn[i]) << kr->name << " gemm_nn element " << i;

    got.assign(out_size, 0.5f);
    kr->gemm_nt(m, n, k, 0.7f, a.data(), bt.data(), got.data());
    for (size_t i = 0; i < out_size; ++i)
      ASSERT_EQ(got[i], want_nt[i]) << kr->name << " gemm_nt element " << i;

    got.assign(out_size, 0.5f);
    kr->gemm_tn(m, n, k, -1.1f, at.data(), b.data(), got.data());
    for (size_t i = 0; i < out_size; ++i)
      ASSERT_EQ(got[i], want_tn[i]) << kr->name << " gemm_tn element " << i;
  }
}

TEST_P(BackendParity, GemvBitIdentical) {
  const auto [m, n, k] = GetParam();
  (void)m;
  const auto x = RandomVec(static_cast<size_t>(k), 79);
  const auto b = RandomVec(static_cast<size_t>(k) * n, 83);
  std::vector<float> want(static_cast<size_t>(n), 0.25f);
  kernels::Gemv(n, k, 2.0f, x.data(), b.data(), want.data());
  for (const backend::Kernels* kr : backend::Registered()) {
    std::vector<float> got(static_cast<size_t>(n), 0.25f);
    kr->gemv(n, k, 2.0f, x.data(), b.data(), got.data());
    for (size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << kr->name << " gemv element " << i;
  }
}

TEST_P(BackendParity, SoftmaxAndLayerNormBitIdentical) {
  const auto [m, n, k] = GetParam();
  (void)k;
  const auto x = RandomVec(static_cast<size_t>(m) * n, 89);
  const auto gamma = RandomVec(static_cast<size_t>(n), 97);
  const auto beta = RandomVec(static_cast<size_t>(n), 101);
  const size_t size = x.size();

  std::vector<float> want_sm(size);
  kernels::SoftmaxRows(m, n, x.data(), want_sm.data());
  std::vector<float> want_ln(size), want_xhat(size);
  std::vector<float> want_inv(static_cast<size_t>(m));
  kernels::LayerNormRows(m, n, 1e-5f, x.data(), gamma.data(), beta.data(),
                         want_ln.data(), want_xhat.data(), want_inv.data());

  for (const backend::Kernels* kr : backend::Registered()) {
    std::vector<float> got(size);
    kr->softmax_rows(m, n, x.data(), got.data());
    for (size_t i = 0; i < size; ++i)
      ASSERT_EQ(got[i], want_sm[i]) << kr->name << " softmax element " << i;

    std::vector<float> ln(size), xhat(size), inv(static_cast<size_t>(m));
    kr->layer_norm_rows(m, n, 1e-5f, x.data(), gamma.data(), beta.data(),
                        ln.data(), xhat.data(), inv.data());
    for (size_t i = 0; i < size; ++i)
      ASSERT_EQ(ln[i], want_ln[i]) << kr->name << " layernorm element " << i;
    for (size_t i = 0; i < inv.size(); ++i)
      ASSERT_EQ(inv[i], want_inv[i]) << kr->name << " inv_std row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(OddShapes, BackendParity,
                         ::testing::ValuesIn(kShapes));

}  // namespace
}  // namespace hiergat
