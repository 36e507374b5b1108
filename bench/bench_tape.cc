/**
 * @file
 * Tape-engine throughput microbenchmark: points/second through a
 * production feature tape (a dense-matmul sketch's 82 feature
 * formulas), scalar vs. batched SoA, forward-only and
 * forward+backward, plus the batched MLP kernels the points feed and
 * the Adam parameter update, one cost-model training step at the
 * fine-tune shape (mlp_train_step: the per-sample reference loop and
 * the blocked kernels), and the end-to-end surrogate descent step
 * (grad_search_step: scalar reference, a 16-seed fused group with
 * and without the tape JIT, and the production shape: 8 seeds over
 * 1, 2 or 4 sketches in one packed lane group), and the compile
 * layer (compile_tapes: every mobilenet_v2 sketch's raw-feature and
 * objective tapes).
 * Every batched benchmark runs once per
 * available SIMD backend (scalar fallback, SSE2, AVX2, AVX-512 —
 * whatever this build and CPU support), so one run shows the whole
 * width sweep. Instruction counts before/after the tape optimizer
 * are reported as counters.
 *
 * Besides the console table, results are written machine-readable to
 * BENCH_tape.json in the working directory (override with
 * --json-out=FILE); datapoints are recorded in EXPERIMENTS.md. The
 * widest batched backend must clear 2x the scalar points/sec.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "costmodel/cost_model.h"
#include "costmodel/fused.h"
#include "costmodel/mlp.h"
#include "expr/compiled.h"
#include "features/features.h"
#include "graph/graph.h"
#include "jit/jit.h"
#include "mlp_train_oracle.h"
#include "models/models.h"
#include "obs/json.h"
#include "optim/adam.h"
#include "optim/search.h"
#include "rewrite/smoothing.h"
#include "rewrite/transforms.h"
#include "simd/kernels.h"
#include "sketch/sampling.h"
#include "sketch/sketch.h"
#include "support/batch.h"
#include "support/rng.h"
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

/** The exact-feature ranking tape (forward-only optimizer passes). */
const expr::CompiledExprs &
featureTape()
{
    static const expr::CompiledExprs compiled(
        features::extractFeatures(denseSketch().program),
        varNames(denseSketch()), /*forward_only=*/true);
    return compiled;
}

/**
 * A smoothed log-space descent tape, built the way the gradient
 * search builds its objective (gradient-safe optimizer passes only):
 * the 82 model inputs, then the constraint penalties when
 * @p penalties is set.
 */
std::unique_ptr<expr::CompiledExprs>
buildObjective(const sketch::SymbolicSchedule &sched, bool penalties)
{
    auto names = varNames(sched);
    return std::make_unique<expr::CompiledExprs>(
        rewrite::objectiveFormulas(
            features::extractFeatures(sched.program),
            penalties ? sched.constraints : std::vector<expr::Expr>{},
            names, rewrite::Kernel::Algebraic, true, true),
        names);
}

/** The dense sketch's descent tape without penalties. */
const expr::CompiledExprs &
objectiveTape()
{
    static const auto compiled = buildObjective(denseSketch(), false);
    return *compiled;
}

/**
 * Four sketches' full objective tapes (features + penalties), as
 * GradientSearch::round builds them: the dense subgraph's two and a
 * 3x3 convolution's two.
 */
const std::vector<std::pair<const sketch::SymbolicSchedule *,
                            std::unique_ptr<expr::CompiledExprs>>> &
packedObjectives()
{
    static const auto objectives = [] {
        static const auto convSketches = [] {
            tir::Conv2dConfig config;
            config.c = 64;
            config.h = 56;
            config.w = 56;
            config.k = 64;
            return sketch::generateSketches(tir::conv2d(config));
        }();
        static const auto denseSketches =
            sketch::generateSketches(tir::dense(512, 512, 512, true));
        std::vector<std::pair<const sketch::SymbolicSchedule *,
                              std::unique_ptr<expr::CompiledExprs>>>
            out;
        for (const auto *sched : {&denseSketches[0], &denseSketches[1],
                                  &convSketches[0], &convSketches[1]})
            out.emplace_back(sched, buildObjective(*sched, true));
        return out;
    }();
    return objectives;
}

/**
 * SoA input rows: kBatchLanes valid schedule points of @p sched, in
 * x space for a feature tape or log space for an objective tape.
 */
std::vector<double>
samplePoints(const sketch::SymbolicSchedule &sched,
             const expr::CompiledExprs &tape, bool log_space)
{
    Rng rng(42);
    constexpr size_t L = kBatchLanes;
    const size_t numVars = tape.numVars();
    std::vector<double> inputs(numVars * L);
    for (size_t l = 0; l < L; ++l) {
        auto x = sketch::sampleValid(sched, rng);
        for (size_t v = 0; v < numVars; ++v) {
            inputs[v * L + l] =
                log_space ? std::log(std::max(1.0, x[v])) : x[v];
        }
    }
    return inputs;
}

std::vector<double>
samplePoints(const expr::CompiledExprs &tape, bool log_space)
{
    return samplePoints(denseSketch(), tape, log_space);
}

void
reportTapeCounters(benchmark::State &state,
                   const expr::CompiledExprs &tape, double points)
{
    state.counters["instrs_raw"] =
        static_cast<double>(tape.tapeSize());
    state.counters["instrs_optimized"] =
        static_cast<double>(tape.optimizedSize());
    state.counters["points_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * points,
        benchmark::Counter::kIsRate);
}

// ---- benchmark bodies -------------------------------------------

void
BM_TapeForwardScalar(benchmark::State &state)
{
    const auto &tape = featureTape();
    constexpr size_t L = kBatchLanes;
    auto inputs = samplePoints(tape, false);
    expr::EvalState evalState;
    std::vector<double> x(tape.numVars()), out;
    size_t lane = 0;
    for (auto _ : state) {
        for (size_t v = 0; v < tape.numVars(); ++v)
            x[v] = inputs[v * L + lane];
        tape.forward(x, out, evalState);
        benchmark::DoNotOptimize(out.data());
        lane = (lane + 1) % L;
    }
    reportTapeCounters(state, tape, 1.0);
}

void
BM_TapeForwardBatch(benchmark::State &state)
{
    const auto &tape = featureTape();
    constexpr size_t L = kBatchLanes;
    auto inputs = samplePoints(tape, false);
    expr::BatchEvalState evalState;
    std::vector<double> outputs(tape.numOutputs() * L);
    for (auto _ : state) {
        tape.forwardBatch(inputs.data(), L, outputs.data(),
                          evalState);
        benchmark::DoNotOptimize(outputs.data());
    }
    reportTapeCounters(state, tape, static_cast<double>(L));
}

void
BM_TapeForwardBackwardScalar(benchmark::State &state)
{
    const auto &tape = objectiveTape();
    constexpr size_t L = kBatchLanes;
    auto inputs = samplePoints(tape, true);
    expr::EvalState evalState;
    std::vector<double> x(tape.numVars()), out;
    std::vector<double> seeds(tape.numOutputs(), 1.0), grad;
    size_t lane = 0;
    for (auto _ : state) {
        for (size_t v = 0; v < tape.numVars(); ++v)
            x[v] = inputs[v * L + lane];
        tape.forward(x, out, evalState);
        tape.backward(seeds, grad, evalState);
        benchmark::DoNotOptimize(grad.data());
        lane = (lane + 1) % L;
    }
    reportTapeCounters(state, tape, 1.0);
}

void
BM_TapeForwardBackwardBatch(benchmark::State &state)
{
    const auto &tape = objectiveTape();
    constexpr size_t L = kBatchLanes;
    auto inputs = samplePoints(tape, true);
    expr::BatchEvalState evalState;
    std::vector<double> outputs(tape.numOutputs() * L);
    std::vector<double> seeds(tape.numOutputs() * L, 1.0);
    std::vector<double> grads(tape.numVars() * L);
    for (auto _ : state) {
        tape.forwardBatch(inputs.data(), L, outputs.data(),
                          evalState);
        tape.backwardBatch(seeds.data(), grads.data(), evalState);
        benchmark::DoNotOptimize(grads.data());
    }
    reportTapeCounters(state, tape, static_cast<double>(L));
}

void
BM_MlpForwardBatch(benchmark::State &state)
{
    Rng rng(7);
    costmodel::MlpConfig config;   // default 82-input network
    costmodel::Mlp mlp(config, rng);
    costmodel::MlpBatchScratch scratch;
    constexpr size_t L = kBatchLanes;
    std::vector<double> x(82 * L);
    for (double &v : x)
        v = rng.uniform(-2.0, 2.0);
    double y[kBatchLanes];
    for (auto _ : state) {
        mlp.forwardBatch(x.data(), y, scratch);
        benchmark::DoNotOptimize(&y[0]);
    }
    state.counters["points_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(L),
        benchmark::Counter::kIsRate);
}

void
BM_MlpInputGradScalar(benchmark::State &state)
{
    Rng rng(7);
    costmodel::MlpConfig config;
    costmodel::Mlp mlp(config, rng);
    costmodel::MlpScratch scratch;
    std::vector<double> x(82);
    for (double &v : x)
        v = rng.uniform(-2.0, 2.0);
    std::vector<double> dx;
    for (auto _ : state) {
        double y = mlp.forwardInputGrad(x, dx, scratch);
        benchmark::DoNotOptimize(y);
        benchmark::DoNotOptimize(dx.data());
    }
    state.counters["points_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

/**
 * The batched MLP score + input gradient over kLanes occupied lanes
 * (the staged entry point the fused step calls); the layer kernels
 * sweep only those lanes. points_per_sec counts occupied lanes.
 */
template <size_t kLanes>
void
BM_MlpInputGradBatch(benchmark::State &state)
{
    Rng rng(7);
    costmodel::MlpConfig config;
    costmodel::Mlp mlp(config, rng);
    costmodel::MlpBatchScratch scratch;
    constexpr size_t L = kBatchLanes;
    double *rows = mlp.stageInputRows(scratch);
    for (size_t i = 0; i < 82; ++i)
        for (size_t l = 0; l < kLanes; ++l)
            rows[i * L + l] = rng.uniform(-2.0, 2.0);
    double y[kBatchLanes];
    for (auto _ : state) {
        mlp.forwardInputGradStaged(y, kLanes, scratch);
        benchmark::DoNotOptimize(mlp.inputGradRows(scratch));
        benchmark::ClobberMemory();
    }
    state.counters["points_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(kLanes),
        benchmark::Counter::kIsRate);
}

/**
 * A quickly fitted cost model for the end-to-end step benchmarks.
 * The weights' values don't matter for throughput; what matters is
 * that the scaler is fitted for 82 features so the production
 * predict paths (and FusedGradStep) accept it.
 */
const costmodel::CostModel &
benchModel()
{
    static const costmodel::CostModel model = [] {
        Rng rng(13);
        std::vector<costmodel::Sample> samples(64);
        for (auto &sample : samples) {
            sample.rawFeatures.resize(82);
            for (double &v : sample.rawFeatures)
                v = rng.uniform(0.0, 1e6);
            sample.latencySec = rng.uniform(1e-5, 1e-2);
        }
        costmodel::CostModel m(costmodel::MlpConfig{}, 5);
        m.fit(samples, /*epochs=*/2, /*batch_size=*/32, 1e-3);
        return m;
    }();
    return model;
}

/**
 * End-to-end surrogate descent step (Algorithm 1 lines 15-18): tape
 * forward -> MLP score + input gradient -> tape backward -> per-seed
 * Adam update. This is the loop body GradientSearch::round runs
 * nSteps times per seed; rounding-to-valid is excluded (it runs on
 * visited points, not inside the descent step). Counter steps_per_sec
 * is per-seed steps (batched variants advance kBatchLanes seeds per
 * iteration). Iterates drift under repeated stepping, so lanes reset
 * to the sampled points every 128 steps to keep the workload in the
 * numeric range the real search sees.
 */
void
BM_GradSearchStepScalar(benchmark::State &state)
{
    const auto &tape = objectiveTape();
    const auto &model = benchModel();
    constexpr size_t L = kBatchLanes;
    const size_t numVars = tape.numVars();
    const size_t numFeatures = tape.numOutputs();
    const auto init = samplePoints(tape, true);
    expr::EvalState evalState;
    std::vector<double> y(numVars);
    optim::Adam adam(numVars);
    std::vector<double> outputs, outputGrads, inputGrads, modelGrad;
    std::vector<double> modelInputs(numFeatures);
    size_t iter = 0;
    for (auto _ : state) {
        if ((iter++ & 127) == 0)
            for (size_t v = 0; v < numVars; ++v)
                y[v] = init[v * L];
        tape.forward(y, outputs, evalState);
        for (size_t k = 0; k < numFeatures; ++k)
            modelInputs[k] = outputs[k];
        const double score = model.predictTransformedWithGrad(
            modelInputs, modelGrad);
        benchmark::DoNotOptimize(score);
        outputGrads.assign(outputs.size(), 0.0);
        for (size_t k = 0; k < numFeatures; ++k)
            outputGrads[k] = -modelGrad[k];
        tape.backward(outputGrads, inputGrads, evalState);
        adam.step(y, inputGrads);
    }
    state.counters["steps_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

/**
 * @p numSeeds seeds descending in one lane group, seed s on tape
 * s % tapes.size(), the way GradientSearch::round packs a round:
 * one FusedGradStep per iteration, then each seed's Adam step.
 * @p starts holds each tape's sampled start points (SoA rows).
 */
void
gradSearchStepImpl(benchmark::State &state,
                   const std::vector<const expr::CompiledExprs *> &tapes,
                   const std::vector<std::vector<double>> &starts,
                   size_t numSeeds, bool useJit)
{
    constexpr size_t L = kBatchLanes;
    const bool jitDefault = jit::enabled();
    jit::setEnabled(useJit);
    std::vector<costmodel::FusedGradStep::Objective> objectives;
    for (const expr::CompiledExprs *tape : tapes)
        objectives.push_back(
            {tape, tape->numOutputs() - features::kNumFeatures});
    costmodel::FusedGradStep step(objectives, benchModel(),
                                  features::kNumFeatures,
                                  /*lambda=*/10.0);
    costmodel::PredictScratch predict;
    const size_t numSubs = std::min(numSeeds, tapes.size());
    std::vector<costmodel::TapeSubBatch> subs(numSubs);
    for (size_t s = 0; s < numSubs; ++s) {
        subs[s].objective = s;
        for (size_t l = s; l < numSeeds; l += tapes.size())
            subs[s].lanes.push_back(l);
        subs[s].inputs.resize(tapes[s]->numVars() * L);
    }
    std::vector<std::vector<double>> y(numSeeds), laneGrad(numSeeds);
    std::vector<optim::Adam> adams;
    for (size_t l = 0; l < numSeeds; ++l)
        adams.emplace_back(tapes[l % tapes.size()]->numVars());
    double scores[kBatchLanes];
    size_t iter = 0;
    for (auto _ : state) {
        if ((iter++ & 127) == 0) {
            for (size_t l = 0; l < numSeeds; ++l) {
                const size_t t = l % tapes.size();
                y[l].resize(tapes[t]->numVars());
                for (size_t v = 0; v < y[l].size(); ++v)
                    y[l][v] = starts[t][v * L + l];
            }
        }
        for (costmodel::TapeSubBatch &sub : subs)
            for (size_t j = 0; j < sub.lanes.size(); ++j)
                for (size_t v = 0; v < y[sub.lanes[j]].size(); ++v)
                    sub.inputs[v * L + j] = y[sub.lanes[j]][v];
        step.run(subs.data(), numSubs, numSeeds, scores, predict);
        for (const costmodel::TapeSubBatch &sub : subs) {
            for (size_t j = 0; j < sub.lanes.size(); ++j) {
                const size_t l = sub.lanes[j];
                laneGrad[l].resize(y[l].size());
                for (size_t v = 0; v < y[l].size(); ++v)
                    laneGrad[l][v] = sub.inputGrads[v * L + j];
                adams[l].step(y[l], laneGrad[l]);
            }
        }
        benchmark::DoNotOptimize(&scores[0]);
    }
    jit::setEnabled(jitDefault);
    state.counters["steps_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(numSeeds),
        benchmark::Counter::kIsRate);
    state.counters["jit_active"] =
        useJit && jit::supported() ? 1.0 : 0.0;
}

/** A full 16-seed lane group on the dense sketch's tape. */
template <bool kJit>
void
BM_GradSearchStepFused(benchmark::State &state)
{
    gradSearchStepImpl(state, {&objectiveTape()},
                       {samplePoints(objectiveTape(), true)},
                       kBatchLanes, kJit);
}

/**
 * The production shape: the paper's 8 seeds per round over
 * kSketches sketches (full objective tapes, JIT on), one lane group.
 */
template <size_t kSketches>
void
BM_GradSearchStepPacked(benchmark::State &state)
{
    std::vector<const expr::CompiledExprs *> tapes;
    std::vector<std::vector<double>> starts;
    for (size_t t = 0; t < kSketches; ++t) {
        const auto &entry = packedObjectives()[t];
        tapes.push_back(entry.second.get());
        starts.push_back(
            samplePoints(*entry.first, *entry.second, true));
    }
    gradSearchStepImpl(state, tapes, starts, 8, /*useJit=*/true);
}

/**
 * One cost-model training step at the shape fine-tuning runs after
 * every round (tuner.cc): 80 samples — 16 fresh measurements plus
 * 64 replayed ones — through the default 82->128->128->64->1
 * network, at the fine-tune learning rate. samples_per_sec counts
 * training samples. The per-sample variant is the reference loop
 * Mlp::trainBatch replaced (tests/mlp_train_oracle.h); both produce
 * the same bits.
 */
template <bool kPerSample>
void
BM_MlpTrainStep(benchmark::State &state)
{
    constexpr size_t kSamples = 16 + 64;
    Rng rng(17);
    costmodel::Mlp mlp(costmodel::MlpConfig{}, rng);
    std::vector<std::vector<double>> xs(kSamples,
                                        std::vector<double>(82));
    std::vector<double> ys(kSamples);
    for (size_t s = 0; s < kSamples; ++s) {
        for (double &v : xs[s])
            v = rng.normal(0.0, 1.0);
        ys[s] = rng.normal(0.0, 0.5);
    }
    for (auto _ : state) {
        const double loss =
            kPerSample
                ? costmodel::MlpTrainOracle::trainBatch(mlp, xs, ys,
                                                        2e-4)
                : mlp.trainBatch(xs, ys, 2e-4);
        benchmark::DoNotOptimize(loss);
    }
    state.counters["samples_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(kSamples),
        benchmark::Counter::kIsRate);
}

void
BM_AdamStep(benchmark::State &state)
{
    // A parameter vector the size of the default cost model's first
    // layer (82x256 weights), a realistic Adam workload.
    Rng rng(11);
    const size_t n = 82 * 256;
    std::vector<double> x(n), g(n);
    for (size_t i = 0; i < n; ++i) {
        x[i] = rng.uniform(-1.0, 1.0);
        g[i] = rng.uniform(-0.1, 0.1);
    }
    optim::Adam adam(n);
    for (auto _ : state) {
        adam.step(x, g);
        benchmark::DoNotOptimize(x.data());
    }
    state.counters["params_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(n),
        benchmark::Counter::kIsRate);
}

/**
 * The compile layer on one thread: every sketch of mobilenet_v2 at
 * batch 1 goes through what GradientSearch's constructor does per
 * sketch — feature extraction, the forward-only raw-feature tape and
 * the objective tape (features and constraints). The sketches are
 * generated once, and one untimed pass warms the intern table, as a
 * long-running tuner or daemon has it from its second tune on.
 */
void
BM_CompileTapes(benchmark::State &state)
{
    static const auto sketches = [] {
        const optim::GradSearchOptions options;
        std::vector<sketch::SymbolicSchedule> all;
        for (const graph::Task &task :
             graph::partition(models::mobilenetV2(1))) {
            for (auto &sched : sketch::generateSketches(
                     task.subgraph, options.sketchOptions))
                all.push_back(std::move(sched));
        }
        return all;
    }();
    const optim::GradSearchOptions options;
    auto compileAll = [&] {
        for (const auto &sched : sketches) {
            const auto names = varNames(sched);
            const auto raw = features::extractFeatures(sched.program);
            expr::CompiledExprs rawTape(raw, names, /*forward_only=*/true);
            expr::CompiledExprs objective(
                rewrite::objectiveFormulas(
                    raw, sched.constraints, names, options.kernel,
                    options.applySmoothing, options.applyLogExp),
                names);
            benchmark::DoNotOptimize(rawTape.program().instrs.data());
            benchmark::DoNotOptimize(objective.program().instrs.data());
        }
    };
    compileAll();
    for (auto _ : state)
        compileAll();
    state.counters["sketches"] = static_cast<double>(sketches.size());
}

// ---- per-width registration and JSON capture --------------------

/** simd_width / backend attached to each registered benchmark. */
struct BenchTag
{
    int simdWidth;         // 0 = per-point scalar engine (no SIMD)
    std::string backend;   // dispatch backend name, "" for scalar
};
std::map<std::string, BenchTag> g_tags;

/**
 * Register `fn` once per SIMD backend this build AND this CPU
 * support; each variant pins the dispatch override before running.
 * The console/JSON name carries the backend, e.g.
 * "tape_forward/batch/simd=avx512".
 */
void
registerWidthVariants(const std::string &base,
                      void (*fn)(benchmark::State &))
{
    for (int w : simd::availableWidths()) {
        if (!simd::setPreferredWidth(w))
            continue;   // compiled in, but the CPU lacks it
        const std::string backend = simd::activeBackendName();
        const std::string name = base + "/simd=" + backend;
        g_tags[name] = {w, backend};
        benchmark::RegisterBenchmark(
            name.c_str(), [fn, w](benchmark::State &st) {
                simd::setPreferredWidth(w);
                fn(st);
            });
    }
    simd::setPreferredWidth(0);
}

void
registerScalarEngine(const std::string &name,
                     void (*fn)(benchmark::State &))
{
    g_tags[name] = {0, ""};
    benchmark::RegisterBenchmark(
        name.c_str(), [fn](benchmark::State &st) {
            // The per-point engine is SIMD-independent, but pin the
            // default backend anyway so a preceding variant's
            // override can't leak in.
            simd::setPreferredWidth(0);
            fn(st);
        });
}

/** One captured benchmark run for the JSON report. */
struct CapturedRun
{
    std::string name;
    double realTimeNs;
    std::map<std::string, double> counters;
};
std::vector<CapturedRun> g_runs;

/** Console output plus capture for BENCH_tape.json. */
class CaptureReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred)
                continue;
            CapturedRun captured;
            captured.name = run.benchmark_name();
            captured.realTimeNs = run.GetAdjustedRealTime();
            for (const auto &entry : run.counters)
                captured.counters[entry.first] = entry.second.value;
            g_runs.push_back(std::move(captured));
        }
        ConsoleReporter::ReportRuns(runs);
    }
};

bool
writeJson(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench_tape: cannot write %s\n",
                     path.c_str());
        return false;
    }
    std::string out;
    out += "{\n  \"bench\": \"tape\",\n";
    out += "  \"batch_lanes\": " +
           std::to_string(static_cast<int>(kBatchLanes)) + ",\n";
    out += "  \"default_backend\": " +
           std::string("\"") + simd::activeBackendName() + "\",\n";
    out += "  \"results\": [\n";
    for (size_t i = 0; i < g_runs.size(); ++i) {
        const CapturedRun &run = g_runs[i];
        const BenchTag tag = g_tags.count(run.name)
                                 ? g_tags[run.name]
                                 : BenchTag{0, ""};
        out += "    {\"name\": " + obs::jsonEscape(run.name) +
               ", \"simd_width\": " + std::to_string(tag.simdWidth) +
               ", \"backend\": " + obs::jsonEscape(tag.backend) +
               ", \"real_time_ns\": " + obs::jsonNumber(run.realTimeNs);
        for (const auto &counter : run.counters)
            out += ", " + obs::jsonEscape(counter.first) + ": " +
                   obs::jsonNumber(counter.second);
        out += i + 1 < g_runs.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";
    const bool ok = std::fwrite(out.data(), 1, out.size(), f) ==
                    out.size();
    std::fclose(f);
    if (ok)
        std::printf("wrote %s\n", path.c_str());
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonPath = "BENCH_tape.json";
    // Peel off --json-out=FILE before google-benchmark sees argv.
    int argOut = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json-out=", 11) == 0)
            jsonPath = argv[i] + 11;
        else
            argv[argOut++] = argv[i];
    }
    argc = argOut;

    registerScalarEngine("tape_forward/scalar", BM_TapeForwardScalar);
    registerWidthVariants("tape_forward/batch", BM_TapeForwardBatch);
    registerScalarEngine("tape_fwd_bwd/scalar",
                         BM_TapeForwardBackwardScalar);
    registerWidthVariants("tape_fwd_bwd/batch",
                          BM_TapeForwardBackwardBatch);
    registerWidthVariants("mlp_forward/batch", BM_MlpForwardBatch);
    registerScalarEngine("mlp_input_grad/scalar",
                         BM_MlpInputGradScalar);
    registerWidthVariants("mlp_input_grad/batch/lanes=4",
                          BM_MlpInputGradBatch<4>);
    registerWidthVariants("mlp_input_grad/batch/lanes=8",
                          BM_MlpInputGradBatch<8>);
    if constexpr (kBatchLanes >= 16)
        registerWidthVariants("mlp_input_grad/batch/lanes=16",
                              BM_MlpInputGradBatch<16>);
    registerWidthVariants("adam_step", BM_AdamStep);
    registerScalarEngine("mlp_train_step/per_sample",
                         BM_MlpTrainStep<true>);
    registerWidthVariants("mlp_train_step/batch",
                          BM_MlpTrainStep<false>);
    registerScalarEngine("grad_search_step/scalar",
                         BM_GradSearchStepScalar);
    registerWidthVariants("grad_search_step/fused",
                          BM_GradSearchStepFused<false>);
    registerWidthVariants("grad_search_step/fused_jit",
                          BM_GradSearchStepFused<true>);
    registerWidthVariants("grad_search_step/packed/sketches=1",
                          BM_GradSearchStepPacked<1>);
    registerWidthVariants("grad_search_step/packed/sketches=2",
                          BM_GradSearchStepPacked<2>);
    registerWidthVariants("grad_search_step/packed/sketches=4",
                          BM_GradSearchStepPacked<4>);
    registerScalarEngine("compile_tapes/mobilenet_v2", BM_CompileTapes);

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    simd::setPreferredWidth(0);
    return writeJson(jsonPath) ? 0 : 1;
}
