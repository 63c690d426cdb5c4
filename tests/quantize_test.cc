// Quantization tests: fp16 round-trip exactness, the int8 per-row error
// bound, gvexgcnq serialization, bundle-v2 fingerprint stability across
// fetch/re-publish, and the serve-level contracts — a quantized route
// answers byte-identically to a route hosting its dequantized fp32 twin,
// and an --exact-fp32 route refuses quantized installs outright.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "gvex/cluster/bundle.h"
#include "gvex/common/rng.h"
#include "gvex/explain/parallel.h"
#include "gvex/gnn/quantize.h"
#include "gvex/serve/protocol.h"
#include "gvex/serve/server.h"
#include "gvex/serve/view_registry.h"
#include "tests/test_util.h"

namespace gvex {
namespace {

using cluster::ViewBundle;
using serve::ExplanationServer;
using serve::Request;
using serve::RequestType;
using serve::Response;
using serve::ViewRegistry;
using testutil::MutagenicityContext;

// ---- fp16 -------------------------------------------------------------------

TEST(Fp16Test, RepresentableValuesRoundTripExactly) {
  const float exact[] = {0.0f,   -0.0f,  1.0f,     -1.0f,  0.5f,
                         -2.5f,  1024.0f, 0.09375f, 65504.0f /* fp16 max */,
                         6.1035156e-5f /* min normal */, 344.75f};
  for (float v : exact) {
    EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(v)), v) << v;
  }
  // Every half-integer in a couple of binades.
  for (int i = -64; i <= 64; ++i) {
    const float v = static_cast<float>(i) * 0.5f;
    EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(v)), v) << v;
  }
}

TEST(Fp16Test, RoundsToNearestEvenAndSaturates) {
  // 1 + 2^-11 sits exactly between 1.0 and the next fp16 (1 + 2^-10);
  // nearest-even picks 1.0 (even significand).
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(1.0f + 0.00048828125f)), 1.0f);
  // 1 + 3*2^-11 sits between (1 + 2^-10) and (1 + 2^-9); even is the latter.
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(1.0f + 3 * 0.00048828125f)),
            1.0f + 2 * 0.0009765625f);
  // Overflow saturates to infinity.
  EXPECT_TRUE(std::isinf(Fp16ToFp32(Fp32ToFp16(1e6f))));
  EXPECT_TRUE(std::isinf(Fp16ToFp32(Fp32ToFp16(-1e6f))));
  EXPECT_LT(Fp16ToFp32(Fp32ToFp16(-1e6f)), 0.0f);
  // Non-finite inputs survive.
  EXPECT_TRUE(std::isinf(
      Fp16ToFp32(Fp32ToFp16(std::numeric_limits<float>::infinity()))));
  EXPECT_TRUE(std::isnan(
      Fp16ToFp32(Fp32ToFp16(std::numeric_limits<float>::quiet_NaN()))));
  // Tiny values underflow through fp16 subnormals and round-trip within
  // half a subnormal step (2^-25).
  const float tiny = 3.1e-6f;
  EXPECT_NEAR(Fp16ToFp32(Fp32ToFp16(tiny)), tiny, 3.0e-8f);
}

TEST(Fp16Test, TensorRoundTripErrorIsRelative) {
  Rng rng(11);
  Matrix m(16, 16);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.NextDouble() * 4.0 - 2.0);
  }
  QuantizedTensor t = QuantizeTensor(m, WeightPrecision::kFp16);
  EXPECT_EQ(QuantizationErrorBound(t), 0.0f);  // bound is int8-only
  Matrix back = DequantizeTensor(t);
  for (size_t i = 0; i < m.size(); ++i) {
    // fp16 has 11 significand bits: relative error <= 2^-11.
    EXPECT_LE(std::fabs(back.data()[i] - m.data()[i]),
              std::fabs(m.data()[i]) * 0.00048828125f + 1e-12f);
  }
}

// ---- int8 -------------------------------------------------------------------

TEST(Int8Test, ErrorBoundHoldsPerRow) {
  Rng rng(23);
  for (int trial = 0; trial < 5; ++trial) {
    Matrix m(8, 24);
    for (size_t i = 0; i < m.size(); ++i) {
      m.data()[i] = static_cast<float>(rng.NextDouble() * 10.0 - 5.0);
    }
    QuantizedTensor t = QuantizeTensor(m, WeightPrecision::kInt8);
    Matrix back = DequantizeTensor(t);
    float worst = 0.0f;
    for (size_t r = 0; r < m.rows(); ++r) {
      const float row_bound = t.scales[r] * 0.5f;
      for (size_t c = 0; c < m.cols(); ++c) {
        const float err = std::fabs(back.At(r, c) - m.At(r, c));
        // Half a quantization step per row (tiny slack for the float
        // divide inside the quantizer).
        EXPECT_LE(err, row_bound * 1.001f + 1e-9f)
            << "row " << r << " col " << c;
        worst = std::max(worst, err);
      }
    }
    EXPECT_LE(worst, QuantizationErrorBound(t) * 1.001f + 1e-9f);
  }
}

TEST(Int8Test, ZeroRowsAndExtremesAreExact) {
  Matrix m(3, 4);
  // Row 0 all zero; row 1 constant; row 2 = ±max.
  for (size_t c = 0; c < 4; ++c) {
    m.At(0, c) = 0.0f;
    m.At(1, c) = 2.0f;
    m.At(2, c) = (c % 2 == 0) ? 8.0f : -8.0f;
  }
  QuantizedTensor t = QuantizeTensor(m, WeightPrecision::kInt8);
  EXPECT_EQ(t.scales[0], 0.0f);
  Matrix back = DequantizeTensor(t);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(back.At(0, c), 0.0f);
    // The row max itself always maps to ±127 and dequantizes to ±max.
    EXPECT_FLOAT_EQ(back.At(2, c), m.At(2, c));
  }
}

// ---- model serialization ----------------------------------------------------

TEST(QuantizedModelTest, SerializationRoundTripsBitExactly) {
  const auto& ctx = MutagenicityContext();
  for (WeightPrecision p : {WeightPrecision::kFp16, WeightPrecision::kInt8}) {
    auto qm = QuantizeModel(ctx.model, p);
    ASSERT_TRUE(qm.ok()) << qm.status().ToString();
    std::ostringstream out;
    ASSERT_TRUE(WriteQuantizedModel(*qm, &out).ok());
    std::istringstream in(out.str());
    auto back = ReadQuantizedModel(&in);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back->tensors.size(), qm->tensors.size());
    EXPECT_EQ(back->precision, qm->precision);
    for (size_t i = 0; i < qm->tensors.size(); ++i) {
      EXPECT_EQ(back->tensors[i].fp16, qm->tensors[i].fp16);
      EXPECT_EQ(back->tensors[i].int8, qm->tensors[i].int8);
      EXPECT_EQ(back->tensors[i].scales, qm->tensors[i].scales);
    }
    // Re-serializing the read-back payload reproduces identical bytes —
    // the property bundle fingerprints stand on.
    std::ostringstream again;
    ASSERT_TRUE(WriteQuantizedModel(*back, &again).ok());
    EXPECT_EQ(again.str(), out.str());

    // And the dequantized twin loads into a usable classifier.
    auto twin = DequantizeModel(*qm);
    ASSERT_TRUE(twin.ok()) << twin.status().ToString();
    EXPECT_EQ(twin->config().hidden_dim, ctx.model.config().hidden_dim);
  }
}

TEST(QuantizedModelTest, RejectsFp32AsTarget) {
  const auto& ctx = MutagenicityContext();
  EXPECT_TRUE(
      QuantizeModel(ctx.model, WeightPrecision::kFp32).status()
          .IsInvalidArgument());
  EXPECT_TRUE(ParseWeightPrecision("fp16").ok());
  EXPECT_TRUE(ParseWeightPrecision("bf16").status().IsInvalidArgument());
}

// ---- bundles ----------------------------------------------------------------

const ExplanationViewSet& TestViews() {
  static const ExplanationViewSet* views = [] {
    const auto& ctx = MutagenicityContext();
    Configuration config;
    config.theta = 0.08f;
    config.default_coverage = {0, 10};
    auto set = ParallelApproxExplain(ctx.model, ctx.db, ctx.assigned, {0, 1},
                                     config, {});
    EXPECT_TRUE(set.ok()) << set.status().ToString();
    return new ExplanationViewSet(std::move(*set));
  }();
  return *views;
}

ViewBundle QuantizedBundle(const std::string& route, WeightPrecision p) {
  const auto& ctx = MutagenicityContext();
  ViewBundle bundle;
  bundle.route = route;
  bundle.views = TestViews();
  auto qm = QuantizeModel(ctx.model, p);
  EXPECT_TRUE(qm.ok());
  bundle.qmodel = std::make_shared<const QuantizedModel>(*std::move(qm));
  auto twin = DequantizeModel(*bundle.qmodel);
  EXPECT_TRUE(twin.ok());
  bundle.model = std::make_shared<const GcnClassifier>(*std::move(twin));
  return bundle;
}

TEST(QuantizedBundleTest, V2RoundTripAndFingerprintStability) {
  ViewBundle bundle = QuantizedBundle("q", WeightPrecision::kFp16);
  auto encoded = cluster::EncodeBundle(bundle);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  EXPECT_EQ(encoded->rfind("gvexbundle-v2", 0), 0u);  // v2 magic

  auto decoded = cluster::DecodeBundle(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_NE(decoded->qmodel, nullptr);
  ASSERT_NE(decoded->model, nullptr);  // dequantized on load
  EXPECT_EQ(decoded->precision(), WeightPrecision::kFp16);

  // Fetch/re-publish: re-encoding the decoded bundle reproduces the
  // exact bytes, so the fingerprint survives the round trip.
  auto reencoded = cluster::EncodeBundle(*decoded);
  ASSERT_TRUE(reencoded.ok());
  EXPECT_EQ(*reencoded, *encoded);

  // fp32 bundles keep the v1 encoding (and their old fingerprints).
  ViewBundle fp32 = bundle;
  fp32.qmodel = nullptr;
  auto fp32_encoded = cluster::EncodeBundle(fp32);
  ASSERT_TRUE(fp32_encoded.ok());
  EXPECT_EQ(fp32_encoded->rfind("gvexbundle-v1", 0), 0u);
  auto fp32_fp = cluster::BundleFingerprint(fp32);
  auto v2_fp = cluster::BundleFingerprint(bundle);
  ASSERT_TRUE(fp32_fp.ok());
  ASSERT_TRUE(v2_fp.ok());
  EXPECT_NE(*fp32_fp, *v2_fp);  // precision is content, not metadata
}

TEST(QuantizedBundleTest, ExactFp32RouteRefusesQuantizedInstalls) {
  ViewRegistry registry;
  registry.SetExactFp32("exact", true);
  EXPECT_TRUE(registry.IsExactFp32("exact"));
  EXPECT_FALSE(registry.IsExactFp32("other"));

  ViewBundle quantized = QuantizedBundle("exact", WeightPrecision::kInt8);
  EXPECT_EQ(registry.InstallBundle(quantized).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.Snapshot("exact"), nullptr);  // nothing published

  // The same content ships fine as fp32, and fine quantized elsewhere.
  ViewBundle fp32 = quantized;
  fp32.qmodel = nullptr;
  ASSERT_TRUE(registry.InstallBundle(fp32).ok());
  EXPECT_EQ(registry.Snapshot("exact")->precision(), WeightPrecision::kFp32);

  quantized.route = "other";
  ASSERT_TRUE(registry.InstallBundle(quantized).ok());
  EXPECT_EQ(registry.Snapshot("other")->precision(), WeightPrecision::kInt8);

  // MakeBundle re-ships the quantized payload verbatim.
  auto fetched = registry.MakeBundle("other");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->qmodel, registry.Snapshot("other")->qmodel);
  auto fp = cluster::BundleFingerprint(*fetched);
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(*fp, registry.fingerprint("other"));
}

// The serve-level exactness contract: a route serving a quantized bundle
// answers byte-identically to an exact-fp32 route hosting the quantized
// model's dequantized fp32 twin — because dequantize-on-load IS the twin.
TEST(QuantizedBundleTest, QuantizedRouteMatchesFp32TwinByteIdentically) {
  ViewRegistry registry;
  registry.SetExactFp32("twin", true);

  ViewBundle quantized = QuantizedBundle("q", WeightPrecision::kInt8);
  ASSERT_TRUE(registry.InstallBundle(quantized).ok());

  ViewBundle twin;
  twin.route = "twin";
  twin.views = quantized.views;
  twin.model = quantized.model;  // the dequantized fp32 twin, shipped fp32
  ASSERT_TRUE(registry.InstallBundle(twin).ok());

  ExplanationServer server(&registry);
  ASSERT_TRUE(server.Start().ok());
  const auto& ctx = MutagenicityContext();
  for (size_t g = 0; g < 3; ++g) {
    Request req;
    req.type = RequestType::kClassifyExplain;
    req.id = 1;
    req.graph = ctx.db.graph(g);
    req.has_graph = true;
    req.route = "q";
    const Response from_quantized = server.Call(req);
    req.route = "twin";
    const Response from_twin = server.Call(req);
    ASSERT_TRUE(from_quantized.ok()) << from_quantized.message;
    ASSERT_TRUE(from_twin.ok()) << from_twin.message;
    EXPECT_EQ(serve::EncodeResponseBody(from_quantized),
              serve::EncodeResponseBody(from_twin))
        << "graph " << g;
  }
  server.Stop();
}

}  // namespace
}  // namespace gvex
