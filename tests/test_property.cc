/**
 * @file
 * Cross-module property suites, parameterized over many operator
 * shapes: every sketch of every shape must produce a symbolic
 * program whose loop structure conserves the iteration domain, whose
 * features are finite/exact, and whose sampled schedules are valid;
 * the simulator must respect basic physical bounds on all of them.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "expr/compiled.h"
#include "features/features.h"
#include "rewrite/transforms.h"
#include "sim/gpu_model.h"
#include "sketch/sampling.h"
#include "sketch/sketch.h"
#include "support/logging.h"
#include "support/string_util.h"
#include "tir/ops.h"

namespace felix {
namespace {

/** A named workload shape for the parameterized sweeps. */
struct Shape
{
    std::string name;
    tir::SubgraphDef subgraph;
};

std::vector<Shape>
sweepShapes()
{
    std::vector<Shape> shapes;
    // Dense family, including awkward extents (primes, non-pow2).
    for (auto [n, m, k] :
         std::vector<std::tuple<int64_t, int64_t, int64_t>>{
             {64, 64, 64},
             {100, 11008, 4096},
             {1, 1000, 2048},
             {50, 2304, 768},
             {7, 13, 17},           // all primes
             {96, 384, 60}}) {
        shapes.push_back({strformat("dense_%lldx%lldx%lld",
                                    (long long)n, (long long)m,
                                    (long long)k),
                          tir::dense(n, m, k, true)});
    }
    // Convolutions.
    for (auto [c, hw, kk, r, stride, groups] :
         std::vector<std::array<int64_t, 6>>{
             {3, 224, 64, 7, 2, 1},
             {64, 56, 64, 3, 1, 1},
             {96, 14, 96, 3, 1, 96},   // depthwise
             {256, 7, 512, 1, 1, 1},
             {32, 30, 48, 5, 3, 1}}) {
        tir::Conv2dConfig config;
        config.c = c;
        config.h = config.w = hw;
        config.k = kk;
        config.r = config.s = r;
        config.stride = stride;
        config.pad = r / 2;
        config.groups = groups;
        config.bias = true;
        config.epilogue = tir::Epilogue::Relu;
        shapes.push_back({strformat("conv_%lldc_%lldhw_g%lld",
                                    (long long)c, (long long)hw,
                                    (long long)groups),
                          tir::conv2d(config)});
    }
    {
        tir::Conv3dConfig config;
        config.c = 64;
        config.d = 8;
        config.h = config.w = 28;
        config.k = 64;
        shapes.push_back({"conv3d", tir::conv3d(config)});
        tir::TConv2dConfig tconfig;
        tconfig.c = 128;
        tconfig.h = tconfig.w = 16;
        tconfig.k = 64;
        tconfig.stride = 2;
        tconfig.pad = 1;
        shapes.push_back({"tconv2d", tir::tconv2d(tconfig)});
    }
    shapes.push_back({"bmm", tir::batchMatmul(12, 50, 64, 50)});
    shapes.push_back({"softmax", tir::softmax(600, 50)});
    shapes.push_back({"maxpool",
                      tir::maxPool2d(1, 64, 112, 112, 2, 2)});
    shapes.push_back({"layernorm", tir::layerNorm(197, 768)});
    {
        tir::ArithCounts arith;
        arith.add = 1;
        shapes.push_back({"eltwise",
                          tir::elementwise(1 << 18, 2, arith)});
    }
    return shapes;
}

class ShapeSweep : public ::testing::TestWithParam<int>
{
  protected:
    const Shape &
    shape() const
    {
        static const std::vector<Shape> shapes = sweepShapes();
        return shapes[GetParam()];
    }
};

/**
 * Domain conservation: for any valid schedule, the product of all
 * loop extents of the dominant stage equals the op's iteration
 * count — transformations never lose or duplicate work.
 */
TEST_P(ShapeSweep, LoopNestConservesIterationDomain)
{
    const Shape &sh = shape();
    Rng rng(17);
    for (const auto &sched : sketch::generateSketches(sh.subgraph)) {
        std::vector<std::string> names;
        for (const auto &domain : sched.vars)
            names.push_back(domain.name);
        const auto &root =
            sched.program.stages[sched.program.rootStage];
        expr::Expr product = expr::Expr::constant(1.0);
        for (const auto &loop : root.loops)
            product = product * loop.extent;
        expr::CompiledExprs compiled({product}, names);

        const double expected = static_cast<double>(
            sh.subgraph.dominantOp().totalPoints());
        for (int i = 0; i < 8; ++i) {
            auto x = sketch::sampleValid(sched, rng);
            double total = compiled.eval(x)[0];
            EXPECT_NEAR(total, expected, expected * 1e-9)
                << sh.name << " / " << sched.desc;
        }
    }
}

/** Sampled schedules are always valid; rounding them is stable. */
TEST_P(ShapeSweep, SamplingAndRoundingAreConsistent)
{
    const Shape &sh = shape();
    Rng rng(23);
    for (const auto &sched : sketch::generateSketches(sh.subgraph)) {
        sketch::ConstraintChecker checker(sched);
        for (int i = 0; i < 8; ++i) {
            auto x = sketch::sampleValid(sched, rng);
            ASSERT_TRUE(sketch::isValidAssignment(sched, x))
                << sh.name << " / " << sched.desc;
            // Rounding the log of a valid point returns a valid
            // point (not necessarily identical: greedy group
            // re-snapping may shuffle factors within a group).
            std::vector<double> y(x.size());
            for (size_t j = 0; j < x.size(); ++j)
                y[j] = std::log(std::max(1.0, x[j]));
            auto rounded = sketch::roundToValid(sched, y, checker);
            ASSERT_TRUE(rounded.has_value())
                << sh.name << " / " << sched.desc;
            EXPECT_TRUE(sketch::isValidAssignment(sched, *rounded))
                << sh.name << " / " << sched.desc;
        }
    }
}

/** All 82 features are finite and non-negative on valid schedules. */
TEST_P(ShapeSweep, FeaturesFiniteAndNonNegative)
{
    const Shape &sh = shape();
    Rng rng(31);
    for (const auto &sched : sketch::generateSketches(sh.subgraph)) {
        std::vector<std::string> names;
        for (const auto &domain : sched.vars)
            names.push_back(domain.name);
        auto formulas = features::extractFeatures(sched.program);
        expr::CompiledExprs compiled(formulas, names);
        for (int i = 0; i < 4; ++i) {
            auto x = sketch::sampleValid(sched, rng);
            auto f = compiled.eval(x);
            for (int j = 0; j < features::kNumFeatures; ++j) {
                ASSERT_TRUE(std::isfinite(f[j]))
                    << sh.name << " " << features::featureNames()[j];
                ASSERT_GE(f[j], 0.0)
                    << sh.name << " " << features::featureNames()[j];
            }
            // flops_total is schedule-invariant and matches the
            // workload definition.
            EXPECT_NEAR(f[features::featureIndex("flops_total")],
                        sh.subgraph.totalFlops(),
                        sh.subgraph.totalFlops() * 1e-6 + 1.0)
                << sh.name << " / " << sched.desc;
        }
    }
}

/** The smoothed pipeline stays finite-differentiable everywhere. */
TEST_P(ShapeSweep, SmoothedObjectiveHasFiniteGradients)
{
    const Shape &sh = shape();
    auto sketches = sketch::generateSketches(sh.subgraph);
    const auto &sched = sketches.front();
    std::vector<std::string> names;
    for (const auto &domain : sched.vars)
        names.push_back(domain.name);
    auto raw = features::extractFeatures(sched.program);
    expr::CompiledExprs compiled(rewrite::featurePipeline(raw, names),
                                 names);

    Rng rng(41);
    std::vector<double> out, grads;
    for (int i = 0; i < 6; ++i) {
        std::vector<double> y(names.size());
        for (double &v : y)
            v = rng.uniform(0.0, 4.0);   // arbitrary log-space point
        compiled.forward(y, out);
        std::vector<double> seed(out.size(), 1.0);
        compiled.backward(seed, grads);
        for (double g : grads)
            ASSERT_TRUE(std::isfinite(g)) << sh.name;
    }
}

/** Simulator sanity on every shape: latency within physical bounds. */
TEST_P(ShapeSweep, SimulatorRespectsRooflineBounds)
{
    const Shape &sh = shape();
    const auto &device = sim::deviceConfig(sim::DeviceKind::A5000);
    Rng rng(53);
    const double roofline =
        sh.subgraph.totalFlops() / device.peakFlops();
    for (const auto &sched : sketch::generateSketches(sh.subgraph)) {
        std::vector<std::string> names;
        for (const auto &domain : sched.vars)
            names.push_back(domain.name);
        auto formulas = features::extractFeatures(sched.program);
        expr::CompiledExprs compiled(formulas, names);
        for (int i = 0; i < 4; ++i) {
            auto x = sketch::sampleValid(sched, rng);
            double latency = sim::kernelLatency(compiled.eval(x),
                                                device);
            // Never faster than the compute roofline + launch.
            EXPECT_GE(latency,
                      roofline + device.launchOverheadUs * 1e-6 -
                          1e-12)
                << sh.name << " / " << sched.desc;
            EXPECT_LT(latency, 100.0) << sh.name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, ShapeSweep,
    ::testing::Range(0, static_cast<int>(sweepShapes().size())),
    [](const ::testing::TestParamInfo<int> &info) {
        static const std::vector<Shape> shapes = sweepShapes();
        std::string name = shapes[info.param].name;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace felix
