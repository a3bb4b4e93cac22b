#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "simd/simd.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace plf::simd {
namespace {

TEST(Vec4fTest, LoadStoreRoundTrip) {
  aligned_vector<float> in{1.5f, -2.0f, 3.25f, 0.0f};
  aligned_vector<float> out(4);
  Vec4f::load(in.data()).store(out.data());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], in[static_cast<std::size_t>(i)]);
}

TEST(Vec4fTest, Arithmetic) {
  const Vec4f a(1, 2, 3, 4);
  const Vec4f b(10, 20, 30, 40);
  float r[4];
  (a + b).storeu(r);
  EXPECT_EQ(r[0], 11);
  EXPECT_EQ(r[3], 44);
  (a * b).storeu(r);
  EXPECT_EQ(r[1], 40);
  (b - a).storeu(r);
  EXPECT_EQ(r[2], 27);
}

TEST(Vec4fTest, Broadcast) {
  float r[4];
  Vec4f(7.0f).storeu(r);
  for (float v : r) EXPECT_EQ(v, 7.0f);
}

TEST(Vec4fTest, FmaMatchesMulAdd) {
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    float a[4], b[4], c[4], r[4];
    for (int i = 0; i < 4; ++i) {
      a[i] = static_cast<float>(rng.uniform(-2, 2));
      b[i] = static_cast<float>(rng.uniform(-2, 2));
      c[i] = static_cast<float>(rng.uniform(-2, 2));
    }
    Vec4f::fma(Vec4f::loadu(a), Vec4f::loadu(b), Vec4f::loadu(c)).storeu(r);
    for (int i = 0; i < 4; ++i) {
      EXPECT_NEAR(r[i], a[i] * b[i] + c[i], 1e-5f);
    }
  }
}

TEST(Vec4fTest, HorizontalSum) {
  EXPECT_FLOAT_EQ(Vec4f(1, 2, 3, 4).hsum(), 10.0f);
  EXPECT_FLOAT_EQ(Vec4f(-1, 1, -1, 1).hsum(), 0.0f);
}

TEST(Vec4fTest, HorizontalMax) {
  EXPECT_FLOAT_EQ(Vec4f(1, 9, 3, 4).hmax(), 9.0f);
  EXPECT_FLOAT_EQ(Vec4f(-5, -2, -9, -3).hmax(), -2.0f);
}

TEST(Vec4fTest, ElementwiseMax) {
  float r[4];
  Vec4f::max(Vec4f(1, 5, 2, 8), Vec4f(4, 3, 7, 6)).storeu(r);
  EXPECT_EQ(r[0], 4);
  EXPECT_EQ(r[1], 5);
  EXPECT_EQ(r[2], 7);
  EXPECT_EQ(r[3], 8);
}

TEST(Vec4fTest, Lane) {
  const Vec4f v(10, 20, 30, 40);
  EXPECT_EQ(v.lane(0), 10);
  EXPECT_EQ(v.lane(3), 40);
}

TEST(Vec4fTest, Transpose4) {
  Vec4f r0(0, 1, 2, 3), r1(4, 5, 6, 7), r2(8, 9, 10, 11), r3(12, 13, 14, 15);
  transpose4(r0, r1, r2, r3);
  EXPECT_EQ(r0.lane(0), 0);
  EXPECT_EQ(r0.lane(1), 4);
  EXPECT_EQ(r0.lane(2), 8);
  EXPECT_EQ(r0.lane(3), 12);
  EXPECT_EQ(r3.lane(0), 3);
  EXPECT_EQ(r3.lane(3), 15);
}

TEST(Vec4fTest, DefaultIsZero) {
  float r[4];
  Vec4f().storeu(r);
  for (float v : r) EXPECT_EQ(v, 0.0f);
}

TEST(Vec4fTest, CompoundAssignment) {
  Vec4f acc(1, 2, 3, 4);
  acc += Vec4f(10, 20, 30, 40);
  acc *= Vec4f(2, 0.5f, -1, 0);
  float r[4];
  acc.storeu(r);
  EXPECT_EQ(r[0], 22);
  EXPECT_EQ(r[1], 11);
  EXPECT_EQ(r[2], -33);
  EXPECT_EQ(r[3], 0);
}

TEST(BackendTest, NameIsNonEmpty) {
  EXPECT_FALSE(backend_name().empty());
}

TEST(BackendTest, NameFollowsCompiledIsa) {
#if defined(__AVX__) && defined(__FMA__)
  EXPECT_EQ(backend_name(), "avx+fma");
#elif defined(__AVX__)
  EXPECT_EQ(backend_name(), "avx");
#elif defined(PLF_SIMD_SSE)
  EXPECT_EQ(backend_name(), "sse2");
#else
  EXPECT_EQ(backend_name(), "scalar");
#endif
  EXPECT_EQ(has_hardware_vec4(), backend_name() != "scalar");
}

}  // namespace
}  // namespace plf::simd
