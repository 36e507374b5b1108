/**
 * @file
 * Google-benchmark microbenchmarks of the substrates on Felix's hot
 * paths: expression-tape forward/backward evaluation, feature
 * extraction + rewriting, sketch generation, schedule sampling /
 * rounding, MLP inference and input gradients, and the GPU latency
 * model. These bound the real (wall-clock) cost behind the virtual
 * tuning clock (see DESIGN.md).
 */
#include <benchmark/benchmark.h>

#include "costmodel/cost_model.h"
#include "costmodel/dataset.h"
#include "expr/compiled.h"
#include "features/features.h"
#include "optim/search.h"
#include "rewrite/transforms.h"
#include "sim/gpu_model.h"
#include "sketch/sampling.h"
#include "tir/ops.h"

namespace {

using namespace felix;

const sketch::SymbolicSchedule &
denseSketch()
{
    static const auto sketches =
        sketch::generateSketches(tir::dense(512, 512, 512, true));
    return sketches[0];
}

std::vector<std::string>
varNames(const sketch::SymbolicSchedule &sched)
{
    std::vector<std::string> names;
    for (const auto &domain : sched.vars)
        names.push_back(domain.name);
    return names;
}

void
BM_SketchGeneration(benchmark::State &state)
{
    auto subgraph = tir::dense(512, 512, 512, true);
    for (auto _ : state) {
        auto sketches = sketch::generateSketches(subgraph);
        benchmark::DoNotOptimize(sketches);
    }
}
BENCHMARK(BM_SketchGeneration);

void
BM_FeatureExtraction(benchmark::State &state)
{
    const auto &sched = denseSketch();
    for (auto _ : state) {
        auto features = features::extractFeatures(sched.program);
        benchmark::DoNotOptimize(features);
    }
}
BENCHMARK(BM_FeatureExtraction);

void
BM_SmoothingPipeline(benchmark::State &state)
{
    const auto &sched = denseSketch();
    auto names = varNames(sched);
    auto raw = features::extractFeatures(sched.program);
    for (auto _ : state) {
        auto out = rewrite::featurePipeline({raw[0]}, names);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_SmoothingPipeline);

void
BM_TapeForward(benchmark::State &state)
{
    const auto &sched = denseSketch();
    auto names = varNames(sched);
    expr::CompiledExprs tape(features::extractFeatures(sched.program),
                             names);
    std::vector<double> x(names.size(), 4.0);
    std::vector<double> out;
    for (auto _ : state) {
        tape.forward(x, out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_TapeForward);

void
BM_TapeForwardBackward(benchmark::State &state)
{
    const auto &sched = denseSketch();
    auto names = varNames(sched);
    expr::CompiledExprs tape(
        rewrite::featurePipeline(features::extractFeatures(sched.program),
                                 names),
        names);
    std::vector<double> x(names.size(), 1.0);
    std::vector<double> out, seed, grads;
    for (auto _ : state) {
        tape.forward(x, out);
        seed.assign(out.size(), 1.0);
        tape.backward(seed, grads);
        benchmark::DoNotOptimize(grads);
    }
}
BENCHMARK(BM_TapeForwardBackward);

void
BM_SampleValid(benchmark::State &state)
{
    const auto &sched = denseSketch();
    Rng rng(1);
    for (auto _ : state) {
        auto x = sketch::sampleValid(sched, rng);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_SampleValid);

void
BM_RoundToValid(benchmark::State &state)
{
    const auto &sched = denseSketch();
    sketch::ConstraintChecker checker(sched);
    std::vector<double> y(sched.vars.size(), 1.2);
    for (auto _ : state) {
        auto x = sketch::roundToValid(sched, y, checker);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_RoundToValid);

void
BM_MlpForward(benchmark::State &state)
{
    Rng rng(7);
    costmodel::Mlp mlp({}, rng);
    std::vector<double> x(features::kNumFeatures, 0.3);
    for (auto _ : state)
        benchmark::DoNotOptimize(mlp.forward(x));
}
BENCHMARK(BM_MlpForward);

void
BM_MlpInputGrad(benchmark::State &state)
{
    Rng rng(7);
    costmodel::Mlp mlp({}, rng);
    std::vector<double> x(features::kNumFeatures, 0.3);
    std::vector<double> grad;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mlp.forwardInputGrad(x, grad));
    }
}
BENCHMARK(BM_MlpInputGrad);

void
BM_GpuLatencyModel(benchmark::State &state)
{
    const auto &sched = denseSketch();
    auto names = varNames(sched);
    expr::CompiledExprs tape(features::extractFeatures(sched.program),
                             names);
    std::vector<double> x(names.size(), 4.0);
    auto f = tape.eval(x);
    const auto &device = sim::deviceConfig(sim::DeviceKind::A5000);
    for (auto _ : state)
        benchmark::DoNotOptimize(sim::kernelLatency(f, device));
}
BENCHMARK(BM_GpuLatencyModel);

void
BM_GradientSearchStep(benchmark::State &state)
{
    // One full gradient-search round, small budget: the per-round
    // cost behind Felix's virtual clock.
    auto subgraph = tir::dense(256, 256, 256, true);
    optim::GradSearchOptions grad;
    grad.nSeeds = 2;
    grad.nSteps = 25;
    optim::GradientSearch search(subgraph, grad);
    auto model = costmodel::pretrainedCostModel(
        sim::DeviceKind::A5000, "pretrained");
    Rng rng(3);
    for (auto _ : state) {
        auto result = search.round(model, rng);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_GradientSearchStep)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
