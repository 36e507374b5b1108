/**
 * @file
 * Tests for feature extraction: formula correctness on hand-checked
 * schedules, symbolic/concrete consistency, smoothing compatibility,
 * and the full feature pipeline on real sketches.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "expr/compiled.h"
#include "features/features.h"
#include "rewrite/smoothing.h"
#include "rewrite/transforms.h"
#include "support/logging.h"
#include "sketch/sampling.h"
#include "sketch/sketch.h"
#include "tir/ops.h"

namespace felix {
namespace features {
namespace {

using expr::Expr;

tir::SubgraphDef
denseAdd(int64_t n = 256, int64_t m = 256, int64_t k = 256)
{
    return tir::dense(n, m, k, /*bias=*/true);
}

std::vector<double>
featuresAt(const sketch::SymbolicSchedule &sched,
           const std::vector<double> &x)
{
    std::vector<std::string> names;
    for (const auto &domain : sched.vars)
        names.push_back(domain.name);
    return concreteFeatures(sched.program, names, x);
}

TEST(Names, EightyTwoDistinctNames)
{
    const auto &names = featureNames();
    EXPECT_EQ(names.size(), static_cast<size_t>(kNumFeatures));
    std::set<std::string> unique(names.begin(), names.end());
    EXPECT_EQ(unique.size(), names.size());
}

TEST(Names, OrderIsStableAcrossReleases)
{
    // Cached cost models index features by position: reordering or
    // renaming entries silently invalidates every saved model. This
    // snapshot pins the first/last entry of each feature family.
    const auto &names = featureNames();
    EXPECT_EQ(names[0], "float_mad");
    EXPECT_EQ(names[7], "int_add");
    EXPECT_EQ(names[8], "block_len");
    EXPECT_EQ(names[19], "unroll_applied");
    EXPECT_EQ(names[26], "global_load_traffic_bytes");
    EXPECT_EQ(names[38], "shared_bytes_total");
    EXPECT_EQ(names[46], "b0_unique_bytes");
    EXPECT_EQ(names[70], "loop_depth_root");
    EXPECT_EQ(names[81], "is_reduction");
}

TEST(Names, IndexLookupRoundTrips)
{
    EXPECT_EQ(featureIndex("float_mad"), 0);
    EXPECT_EQ(featureIndex("block_len"), 8);
    EXPECT_THROW(featureIndex("no_such_feature"), InternalError);
}

TEST(Extract, FlopCountMatchesWorkload)
{
    auto sketches = sketch::generateSketches(denseAdd());
    const auto &sched = sketches[1];   // simple sketch
    std::vector<double> ones(sched.vars.size(), 1.0);
    auto f = featuresAt(sched, ones);
    // float_mad: matmul N*M*K points (the bias stage adds float_add).
    EXPECT_NEAR(f[featureIndex("float_mad")],
                256.0 * 256.0 * 256.0, 1.0);
    EXPECT_NEAR(f[featureIndex("float_add")], 256.0 * 256.0, 1.0);
}

TEST(Extract, LaunchGeometryMatchesSchedule)
{
    auto sketches = sketch::generateSketches(denseAdd());
    const auto &sched = sketches[1];
    std::vector<double> x(sched.vars.size(), 1.0);
    x[sched.varIndex("f_th")] = 128.0;
    x[sched.varIndex("f_in")] = 4.0;
    ASSERT_TRUE(sketch::isValidAssignment(sched, x));
    auto f = featuresAt(sched, x);
    // Fused spatial = 65536; blocks = 65536/(128*4) = 128.
    EXPECT_NEAR(f[featureIndex("thread_len")], 128.0, 1e-9);
    EXPECT_NEAR(f[featureIndex("block_len")], 128.0, 1e-9);
    EXPECT_NEAR(f[featureIndex("total_threads")], 128.0 * 128.0,
                1e-9);
}

TEST(Extract, UnrollSelectDiscontinuity)
{
    // The int_add feature follows the paper: select(UNROLL > 1, 2, 5)
    // per point.
    auto sketches = sketch::generateSketches(denseAdd());
    const auto &sched = sketches[1];
    std::vector<double> x(sched.vars.size(), 1.0);
    auto fNoUnroll = featuresAt(sched, x);
    x[sched.varIndex("UNROLL")] = 16.0;
    auto fUnroll = featuresAt(sched, x);
    int idx = featureIndex("int_add");
    EXPECT_GT(fNoUnroll[idx], fUnroll[idx]);
    EXPECT_NEAR(fNoUnroll[idx] / fUnroll[idx], 2.5, 0.01);
}

TEST(Extract, PaperFig3FeatureTable)
{
    // The paper's feature table for the Dense-Add program p*_1:
    //   float ops  = N*M*K
    //   blockIdx   = N*M/TILE0 (our simple sketch: the f_th thread
    //                tile plays TILE0's role when f_in = 1)
    //   int_add    = N*M*K * select(UNROLL > 1, small, large)
    const int64_t N = 256, M = 256, K = 256;
    auto sketches = sketch::generateSketches(denseAdd(N, M, K));
    const auto &sched = sketches[1];   // gpu.simple_tiling
    std::vector<double> x(sched.vars.size(), 1.0);
    const double tile = 64.0;
    x[sched.varIndex("f_th")] = tile;
    ASSERT_TRUE(sketch::isValidAssignment(sched, x));
    auto f = featuresAt(sched, x);
    EXPECT_NEAR(f[featureIndex("float_mad")],
                static_cast<double>(N * M * K), 1.0);
    EXPECT_NEAR(f[featureIndex("block_len")],
                static_cast<double>(N * M) / tile, 1e-9);
    // int_add is proportional to N*M*K with the select() factor.
    double perPoint =
        f[featureIndex("int_add")] / f[featureIndex("points_total")];
    EXPECT_NEAR(perPoint, 5.0, 0.01);   // UNROLL == 1 branch
}

TEST(Extract, SharedMemoryFeaturesOnlyWithCacheStages)
{
    auto sketches = sketch::generateSketches(denseAdd());
    std::vector<double> onesFull(sketches[0].vars.size(), 1.0);
    auto fFull = featuresAt(sketches[0], onesFull);
    std::vector<double> onesSimple(sketches[1].vars.size(), 1.0);
    auto fSimple = featuresAt(sketches[1], onesSimple);
    EXPECT_GT(fFull[featureIndex("uses_shared")], 0.5);
    EXPECT_GT(fFull[featureIndex("shared_bytes_total")], 0.0);
    EXPECT_LT(fSimple[featureIndex("uses_shared")], 0.5);
    EXPECT_EQ(fSimple[featureIndex("shared_bytes_total")], 0.0);
}

TEST(Extract, ThreadTilingShrinksPerBlockFootprint)
{
    auto sketches = sketch::generateSketches(denseAdd());
    const auto &full = sketches[0];
    std::vector<double> small(full.vars.size(), 1.0);
    std::vector<double> big = small;
    // 16x16 thread tiles: each block covers a 16x16 output tile.
    big[full.varIndex("sp0_th")] = 16.0;
    big[full.varIndex("sp1_th")] = 16.0;
    ASSERT_TRUE(sketch::isValidAssignment(full, big));
    auto fSmall = featuresAt(full, small);
    auto fBig = featuresAt(full, big);
    int idx = featureIndex("footprint_per_block_bytes");
    EXPECT_GT(fBig[idx], fSmall[idx]);
    // Fewer blocks when each covers more work.
    EXPECT_LT(fBig[featureIndex("block_len")],
              fSmall[featureIndex("block_len")]);
}

TEST(Extract, GlobalTrafficDecreasesWithLargerTiles)
{
    // Bigger K-tiles => fewer refetches of A and B per block.
    auto sketches = sketch::generateSketches(denseAdd());
    const auto &full = sketches[0];
    std::vector<double> x(full.vars.size(), 1.0);
    x[full.varIndex("sp0_th")] = 16.0;
    x[full.varIndex("sp1_th")] = 16.0;
    std::vector<double> xk = x;
    xk[full.varIndex("r0_in")] = 16.0;
    ASSERT_TRUE(sketch::isValidAssignment(full, x));
    ASSERT_TRUE(sketch::isValidAssignment(full, xk));
    auto f1 = featuresAt(full, x);
    auto f2 = featuresAt(full, xk);
    // Same unique bytes either way.
    EXPECT_DOUBLE_EQ(f1[featureIndex("global_unique_bytes")],
                     f2[featureIndex("global_unique_bytes")]);
    // Buffers: A, B, the matmul output D, the final output E
    // (4 x 256x256 matrices) plus the 256-element bias C.
    EXPECT_EQ(f1[featureIndex("global_unique_bytes")],
              (256.0 * 256.0 * 4.0 + 256.0) * 4.0);
}

TEST(Extract, ConvFootprintUsesSlidingWindow)
{
    tir::Conv2dConfig config;
    config.c = 16;
    config.h = 32;
    config.w = 32;
    config.k = 16;
    auto subgraph = tir::conv2d(config);
    auto sketches = sketch::generateSketches(subgraph);
    const auto &full = sketches[0];
    std::vector<double> x(full.vars.size(), 1.0);
    auto f = featuresAt(full, x);
    // All features finite and footprints positive.
    for (int i = 0; i < kNumFeatures; ++i)
        EXPECT_TRUE(std::isfinite(f[i])) << featureNames()[i];
    EXPECT_GT(f[featureIndex("b0_footprint_block")], 0.0);
}

TEST(Extract, AllFeaturesFiniteAcrossRandomSchedules)
{
    Rng rng(11);
    for (auto *build : {+[] { return denseAdd(128, 128, 128); },
                        +[] { return tir::softmax(64, 512); },
                        +[] {
                            tir::ArithCounts a;
                            a.add = 1;
                            return tir::elementwise(1 << 16, 2, a);
                        }}) {
        auto subgraph = build();
        for (const auto &sched : sketch::generateSketches(subgraph)) {
            for (int i = 0; i < 5; ++i) {
                auto x = sketch::sampleValid(sched, rng);
                auto f = featuresAt(sched, x);
                for (int j = 0; j < kNumFeatures; ++j) {
                    EXPECT_TRUE(std::isfinite(f[j]))
                        << sched.desc << " " << featureNames()[j];
                    EXPECT_GE(f[j], 0.0)
                        << sched.desc << " " << featureNames()[j];
                }
            }
        }
    }
}

TEST(Pipeline, SmoothedFeaturesTrackRawOnes)
{
    // After smoothing + log + e^y substitution, evaluating at
    // y = ln(x) must approximate ln(raw_feature(x)).
    auto sketches = sketch::generateSketches(denseAdd());
    const auto &sched = sketches[1];
    std::vector<std::string> names;
    for (const auto &domain : sched.vars)
        names.push_back(domain.name);

    auto raw = extractFeatures(sched.program);
    std::vector<Expr> pipelined = rewrite::featurePipeline(raw, names);

    std::vector<double> x(sched.vars.size(), 1.0);
    x[sched.varIndex("f_th")] = 64.0;
    x[sched.varIndex("f_in")] = 4.0;
    x[sched.varIndex("r_in")] = 8.0;
    std::vector<double> y(x.size());
    for (size_t i = 0; i < x.size(); ++i)
        y[i] = std::log(x[i]);

    expr::CompiledExprs rawCompiled(raw, names);
    expr::CompiledExprs smoothCompiled(pipelined, names);
    auto rawVals = rawCompiled.eval(x);
    auto smoothVals = smoothCompiled.eval(y);

    int checked = 0;
    for (int i = 0; i < kNumFeatures; ++i) {
        if (rawVals[i] < 8.0)
            continue;    // smoothing error dominates tiny features
        EXPECT_NEAR(smoothVals[i], std::log(rawVals[i]),
                    0.35 + 0.05 * std::abs(std::log(rawVals[i])))
            << featureNames()[i];
        ++checked;
    }
    EXPECT_GE(checked, 25);
}

TEST(Pipeline, SmoothedFeaturesHaveGradients)
{
    auto sketches = sketch::generateSketches(denseAdd());
    const auto &sched = sketches[1];
    std::vector<std::string> names;
    for (const auto &domain : sched.vars)
        names.push_back(domain.name);
    auto raw = extractFeatures(sched.program);
    std::vector<Expr> pipelined = rewrite::featurePipeline(raw, names);
    expr::CompiledExprs compiled(pipelined, names);

    std::vector<double> y(names.size(), std::log(4.0));
    std::vector<double> out, grads;
    compiled.forward(y, out);
    std::vector<double> seed(out.size(), 1.0);
    compiled.backward(seed, grads);
    double norm = 0.0;
    for (double g : grads) {
        EXPECT_TRUE(std::isfinite(g));
        norm += g * g;
    }
    EXPECT_GT(norm, 1e-6);
}

TEST(SharedBytes, MatchesFeatureFormula)
{
    auto sketches = sketch::generateSketches(denseAdd());
    const auto &full = sketches[0];
    std::vector<std::string> names;
    for (const auto &domain : full.vars)
        names.push_back(domain.name);
    Expr shared = sharedBytesPerBlock(full.program);
    expr::CompiledExprs compiled({shared}, names);
    std::vector<double> x(full.vars.size(), 1.0);
    double bytes = compiled.eval(x)[0];
    auto f = featuresAt(full, x);
    EXPECT_NEAR(bytes, f[featureIndex("shared_bytes_total")], 1e-6);
}

} // namespace
} // namespace features
} // namespace felix
