/**
 * @file
 * Copy-and-patch tape JIT and fused-step parity matrix (ctest label
 * "jit"): the JIT'd tape and the fused surrogate gradient step must
 * be bit-identical to the scalar interpreter on every backend at
 * every ragged batch width, on random tapes and on a full
 * gradient-search round. Also pins the FELIX_JIT knob semantics
 * (setEnabled / the jit.enabled gauge), the interpreter fallback
 * (JIT off must reproduce JIT on, byte for byte — the same contract
 * the --no-jit run of determinism_smoke.cmake checks end to end),
 * and the W^X lifecycle of the emitted code pages (never
 * writable+executable; verified against /proc/self/maps). Re-run
 * under sanitizers with cmake -DFELIX_SANITIZE=... && ctest -L jit.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "costmodel/cost_model.h"
#include "costmodel/dataset.h"
#include "costmodel/fused.h"
#include "expr/compiled.h"
#include "jit/jit.h"
#include "obs/metrics.h"
#include "optim/search.h"
#include "sim/gpu_model.h"
#include "simd/kernels.h"
#include "support/batch.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "tir/ops.h"

namespace felix {
namespace jit {
namespace {

uint64_t
bitsOf(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** Bit-level equality: distinguishes -0.0/+0.0, equates NaN bits. */
#define EXPECT_BITEQ(a, b)                                            \
    EXPECT_EQ(bitsOf(a), bitsOf(b)) << "values " << (a) << " vs "     \
                                    << (b)

/** Pins one SIMD backend for a scope, restores auto-detect. */
class WidthGuard
{
  public:
    explicit WidthGuard(int width)
    {
        ok_ = simd::setPreferredWidth(width);
    }
    ~WidthGuard() { simd::setPreferredWidth(0); }
    bool ok() const { return ok_; }

  private:
    bool ok_;
};

/** Forces the JIT on or off for a scope, restores the prior state. */
class JitGuard
{
  public:
    explicit JitGuard(bool on) : was_(enabled()) { setEnabled(on); }
    ~JitGuard() { setEnabled(was_); }

  private:
    bool was_;
};

/** Same random expression shape as the test_simd parity suite. */
expr::Expr
randomExpr(Rng &rng, const std::vector<std::string> &vars, int depth)
{
    using expr::Expr;
    if (depth <= 0 || rng.bernoulli(0.25)) {
        if (rng.bernoulli(0.5))
            return Expr::var(vars[rng.index(vars.size())]);
        return Expr::constant(rng.uniform(0.25, 4.0));
    }
    Expr a = randomExpr(rng, vars, depth - 1);
    Expr b = randomExpr(rng, vars, depth - 1);
    switch (rng.index(13)) {
      case 0: return a + b;
      case 1: return a - b;
      case 2: return a * b;
      case 3: return a / (abs(b) + 0.5);
      case 4: return exp(a * 0.25);
      case 5: return log(abs(a) + 0.5);
      case 6: return sqrt(abs(a) + 0.1);
      case 7: return sigmoid(a);
      case 8: return atan(a);
      case 9: return min(a, b);
      case 10: return max(a, b);
      case 11: return select(gt(a, b), a + 1.0, b * 2.0);
      default: return floor(a);
    }
}

// ---------------------------------------------------------------
// Knob semantics: setEnabled outranks the environment, publishes
// the jit.enabled gauge, and takes effect on already-compiled
// tapes (checked per batch call, not at compile time).
// ---------------------------------------------------------------

TEST(JitKnob, SetEnabledDrivesEnabledAndGauge)
{
    const bool before = enabled();
    setEnabled(false);
    EXPECT_FALSE(enabled());
    EXPECT_EQ(obs::MetricsRegistry::instance()
                  .gauge("jit.enabled")
                  .value(),
              0.0);
    setEnabled(true);
    EXPECT_TRUE(enabled());
    EXPECT_EQ(obs::MetricsRegistry::instance()
                  .gauge("jit.enabled")
                  .value(),
              1.0);
    setEnabled(before);
}

TEST(JitKnob, SupportedIsConsistentWithCompile)
{
    using expr::Expr;
    const std::vector<std::string> vars = {"a", "b"};
    std::vector<Expr> roots = {Expr::var("a") * Expr::var("b") + 1.0};
    expr::CompiledExprs compiled(roots, vars);
    auto tape = JitTape::compile(compiled.program());
    if (supported()) {
        ASSERT_NE(tape, nullptr);
        EXPECT_GT(tape->codeBytes(), 0u);
        EXPECT_TRUE(tape->hasBackward());
        EXPECT_NE(tape->codePtr(), nullptr);
    } else {
        EXPECT_EQ(tape, nullptr);
    }
}

// ---------------------------------------------------------------
// JIT vs interpreter vs scalar engine: bit-exact on random tapes at
// every ragged width, on every backend. When the JIT is unsupported
// (non-x86, no AVX2) the "JIT on" pass IS the interpreter, so this
// test also exercises the transparent fallback everywhere.
// ---------------------------------------------------------------

TEST(JitParity, ForwardBackwardVsInterpreterEveryBackendEveryWidth)
{
    using expr::CompiledExprs;
    using expr::Expr;
    Rng rng(90210);
    const std::vector<std::string> vars = {"u", "v", "w"};
    constexpr size_t L = kBatchLanes;
    const std::vector<int> widths = simd::availableWidths();
    WidthGuard restore(0);

    for (int trial = 0; trial < 8; ++trial) {
        std::vector<Expr> roots;
        for (int r = 0; r < 4; ++r)
            roots.push_back(randomExpr(rng, vars, 5));
        CompiledExprs compiled(roots, vars);
        const size_t numVars = compiled.numVars();
        const size_t numOutputs = compiled.numOutputs();

        for (size_t width = 1; width <= L; ++width) {
            std::vector<double> inputs(numVars * L, 0.0);
            std::vector<double> outputGrads(numOutputs * L, 0.0);
            std::vector<std::vector<double>> points(width);
            std::vector<std::vector<double>> seeds(width);
            for (size_t l = 0; l < width; ++l) {
                for (size_t v = 0; v < numVars; ++v) {
                    points[l].push_back(rng.uniform(-2.5, 2.5));
                    inputs[v * L + l] = points[l][v];
                }
                for (size_t k = 0; k < numOutputs; ++k) {
                    seeds[l].push_back(rng.uniform(-2.0, 2.0));
                    outputGrads[k * L + l] = seeds[l][k];
                }
            }

            // Scalar per-point reference engine.
            expr::EvalState scalarState;
            std::vector<std::vector<double>> refOut(width);
            std::vector<std::vector<double>> refGrad(width);
            for (size_t l = 0; l < width; ++l) {
                compiled.forward(points[l], refOut[l], scalarState);
                compiled.backward(seeds[l], refGrad[l], scalarState);
            }

            for (int w : widths) {
                ASSERT_TRUE(simd::setPreferredWidth(w));
                for (bool useJit : {false, true}) {
                    JitGuard jitState(useJit);
                    expr::BatchEvalState batchState;
                    std::vector<double> outputs(numOutputs * L);
                    std::vector<double> inputGrads(numVars * L);
                    compiled.forwardBatch(inputs.data(), width,
                                          outputs.data(),
                                          batchState);
                    compiled.backwardBatch(outputGrads.data(),
                                           inputGrads.data(),
                                           batchState);
                    for (size_t l = 0; l < width; ++l) {
                        for (size_t k = 0; k < numOutputs; ++k)
                            EXPECT_BITEQ(outputs[k * L + l],
                                         refOut[l][k])
                                << "backend "
                                << simd::activeBackendName()
                                << " jit " << useJit << " width "
                                << width << " lane " << l;
                        for (size_t v = 0; v < numVars; ++v)
                            EXPECT_BITEQ(inputGrads[v * L + l],
                                         refGrad[l][v])
                                << "backend "
                                << simd::activeBackendName()
                                << " jit " << useJit << " width "
                                << width << " lane " << l;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------
// Fused step vs the scalar engine (the per-point sequence the
// --no-batch descent runs): every backend, every ragged group width,
// JIT on and off. Group lane l descends on objective tape l % 5 —
// the packing GradientSearch::round uses for a task with five
// sketches (the generator makes at most three per task) — and the
// tapes differ in variable and penalty counts, so one MLP pass
// serves them all and each tape's rows scatter to and gather from
// non-contiguous lanes. The penalty outputs exercise the
// conditional penalty seeding.
// ---------------------------------------------------------------

TEST(JitParity, FusedStepVsScalarEngineEveryBackendEveryWidth)
{
    using expr::CompiledExprs;
    using expr::Expr;
    constexpr size_t L = kBatchLanes;
    constexpr size_t kFeatures = 5;
    Rng rng(1618);
    constexpr size_t kTapes = 5;
    const std::vector<std::string> varSets[2] = {{"p", "q", "r"},
                                                 {"p", "q", "r", "s"}};
    const size_t penalties[kTapes] = {2, 1, 0, 2, 1};
    std::vector<std::unique_ptr<CompiledExprs>> tapes;
    std::vector<costmodel::FusedGradStep::Objective> objectives;
    for (size_t t = 0; t < kTapes; ++t) {
        std::vector<Expr> roots;
        for (size_t k = 0; k < kFeatures + penalties[t]; ++k)
            roots.push_back(randomExpr(rng, varSets[t % 2], 4));
        tapes.push_back(
            std::make_unique<CompiledExprs>(roots, varSets[t % 2]));
        objectives.push_back({tapes.back().get(), penalties[t]});
    }

    // A small fitted model over kFeatures inputs.
    std::vector<costmodel::Sample> samples(32);
    for (auto &sample : samples) {
        sample.rawFeatures.resize(kFeatures);
        for (double &v : sample.rawFeatures)
            v = rng.uniform(0.0, 1e4);
        sample.latencySec = rng.uniform(1e-5, 1e-2);
    }
    costmodel::MlpConfig config;
    config.layerSizes = {static_cast<int>(kFeatures), 8, 1};
    costmodel::CostModel model(config, 9);
    model.fit(samples, /*epochs=*/2, /*batch_size=*/16, 1e-3);

    const double lambda = 10.0;
    costmodel::FusedGradStep fused(objectives, model, kFeatures,
                                   lambda);

    const std::vector<int> widths = simd::availableWidths();
    WidthGuard restore(0);
    for (int w : widths) {
        ASSERT_TRUE(simd::setPreferredWidth(w));
        for (bool useJit : {false, true}) {
            JitGuard jitState(useJit);
            for (size_t width = 1; width <= L; ++width) {
                std::vector<std::vector<double>> points(width);
                for (size_t l = 0; l < width; ++l) {
                    points[l].resize(tapes[l % kTapes]->numVars());
                    for (double &v : points[l])
                        v = rng.uniform(-2.0, 2.0);
                }

                // Scalar reference, lane by lane: the exact sequence
                // GradientSearch::round runs with useBatch=false.
                expr::EvalState refState;
                std::vector<double> outputs, modelInputs(kFeatures),
                    modelGrad, outputGrads;
                std::vector<std::vector<double>> refGrads(width);
                double refScores[kBatchLanes];
                for (size_t l = 0; l < width; ++l) {
                    const CompiledExprs &tape = *tapes[l % kTapes];
                    tape.forward(points[l], outputs, refState);
                    for (size_t k = 0; k < kFeatures; ++k)
                        modelInputs[k] = outputs[k];
                    refScores[l] = model.predictTransformedWithGrad(
                        modelInputs, modelGrad);
                    outputGrads.assign(outputs.size(), 0.0);
                    for (size_t k = 0; k < kFeatures; ++k)
                        outputGrads[k] = -modelGrad[k];
                    for (size_t p = 0; p < penalties[l % kTapes];
                         ++p) {
                        const double g = outputs[kFeatures + p];
                        if (g > 0.0)
                            outputGrads[kFeatures + p] =
                                lambda * 2.0 * g;
                    }
                    tape.backward(outputGrads, refGrads[l], refState);
                }

                const size_t numSubs = std::min(width, kTapes);
                std::vector<costmodel::TapeSubBatch> subs(numSubs);
                for (size_t t = 0; t < numSubs; ++t) {
                    subs[t].objective = t;
                    subs[t].inputs.resize(tapes[t]->numVars() * L);
                    for (size_t l = t; l < width; l += kTapes) {
                        const size_t j = subs[t].lanes.size();
                        subs[t].lanes.push_back(l);
                        for (size_t v = 0; v < points[l].size(); ++v)
                            subs[t].inputs[v * L + j] = points[l][v];
                    }
                }
                costmodel::PredictScratch fusedPredict;
                double fusedScores[kBatchLanes];
                fused.run(subs.data(), numSubs, width, fusedScores,
                          fusedPredict);

                for (size_t l = 0; l < width; ++l) {
                    const costmodel::TapeSubBatch &sub =
                        subs[l % kTapes];
                    const size_t j = l / kTapes;
                    EXPECT_BITEQ(fusedScores[l], refScores[l])
                        << "backend " << simd::activeBackendName()
                        << " jit " << useJit << " width " << width
                        << " lane " << l;
                    for (size_t v = 0; v < points[l].size(); ++v)
                        EXPECT_BITEQ(sub.inputGrads[v * L + j],
                                     refGrads[l][v])
                            << "backend "
                            << simd::activeBackendName() << " jit "
                            << useJit << " width " << width
                            << " lane " << l;
                }
            }
        }
    }
}

// ---------------------------------------------------------------
// End to end: a full gradient-search round with the fused step and
// the JIT live vs the scalar engine's round (--no-batch), bit for
// bit — candidates, scores, trace.
// ---------------------------------------------------------------

TEST(JitParity, SearchRoundFusedJitVsScalarEngineBitExact)
{
    costmodel::DatasetOptions datasetOptions;
    datasetOptions.numSubgraphs = 4;
    datasetOptions.schedulesPerSketch = 16;
    datasetOptions.seed = 3;
    auto samples = costmodel::synthesizeDataset(
        sim::deviceConfig(sim::DeviceKind::A5000), datasetOptions);
    costmodel::MlpConfig config;
    config.layerSizes = {82, 32, 1};
    costmodel::CostModel model(config, 11);
    model.fit(samples, /*epochs=*/2, /*batch=*/64, /*lr=*/1e-3);

    auto subgraph = tir::dense(128, 128, 128, false);
    optim::GradSearchOptions options;
    options.nSeeds = 5;
    options.nSteps = 25;
    options.nMeasure = 6;

    optim::RoundResult results[2];
    for (int pass = 0; pass < 2; ++pass) {
        const bool fusedJit = pass == 1;
        JitGuard jitState(fusedJit);
        options.useBatch = fusedJit;
        optim::GradientSearch search(subgraph, options);
        Rng rng(2025);
        results[pass] = search.round(model, rng);
    }

    const optim::RoundResult &ref = results[0];
    const optim::RoundResult &got = results[1];
    ASSERT_EQ(ref.toMeasure.size(), got.toMeasure.size());
    for (size_t i = 0; i < ref.toMeasure.size(); ++i) {
        const optim::Candidate &a = ref.toMeasure[i];
        const optim::Candidate &b = got.toMeasure[i];
        EXPECT_EQ(a.sketchIndex, b.sketchIndex);
        ASSERT_EQ(a.x.size(), b.x.size());
        for (size_t v = 0; v < a.x.size(); ++v)
            EXPECT_BITEQ(a.x[v], b.x[v]);
        EXPECT_BITEQ(a.predictedScore, b.predictedScore);
    }
    ASSERT_EQ(ref.trace.visitedScores.size(),
              got.trace.visitedScores.size());
    for (size_t i = 0; i < ref.trace.visitedScores.size(); ++i)
        EXPECT_BITEQ(ref.trace.visitedScores[i],
                     got.trace.visitedScores[i]);
    EXPECT_EQ(ref.trace.roundingAttempts, got.trace.roundingAttempts);
    EXPECT_EQ(ref.trace.roundingInvalid, got.trace.roundingInvalid);
}

// ---------------------------------------------------------------
// Packed descent: a round's seeds share lane groups whatever their
// sketch, one MLP pass per group step. Tasks with 1, 2 and 3
// sketches (the generator's range; FusedStepVsScalarEngine covers a
// five-tape group), 1, 8, 17 and 33 seeds (17 and 33 take more than
// one lane group, and their later groups start mid-cycle of the
// sketches), --jobs 1 and 4, every backend with the JIT on — each
// bit-identical to the scalar engine's round, over two rounds so the
// warm-started seed is covered too.
// ---------------------------------------------------------------

TEST(JitParity, SearchRoundPackedVsScalarEngineBitExact)
{
    costmodel::DatasetOptions datasetOptions;
    datasetOptions.numSubgraphs = 4;
    datasetOptions.schedulesPerSketch = 16;
    datasetOptions.seed = 3;
    auto samples = costmodel::synthesizeDataset(
        sim::deviceConfig(sim::DeviceKind::A5000), datasetOptions);
    costmodel::MlpConfig config;
    config.layerSizes = {82, 32, 1};
    costmodel::CostModel model(config, 11);
    model.fit(samples, /*epochs=*/2, /*batch=*/64, /*lr=*/1e-3);

    tir::ArithCounts arith;
    arith.add = 1;
    const tir::SubgraphDef subgraphs[] = {
        tir::elementwise(1 << 20, 2, arith),   // 1 sketch
        tir::dense(4, 4, 1024, false),         // 2 sketches
        tir::dense(128, 128, 128, false),      // 3 sketches
    };

    /** Two rounds; the second warm-starts seed 0 from round one's
     *  first candidate when it is on sketch 0. */
    auto twoRounds = [&](const tir::SubgraphDef &subgraph,
                         const optim::GradSearchOptions &options) {
        optim::GradientSearch search(subgraph, options);
        Rng rng(2025);
        std::vector<optim::RoundResult> results;
        results.push_back(search.round(model, rng));
        search.observe(results[0].toMeasure.at(0), 1e-3);
        results.push_back(search.round(model, rng));
        return results;
    };

    const int jobsBefore = globalJobs();
    const std::vector<int> widths = simd::availableWidths();
    WidthGuard restore(0);
    for (const tir::SubgraphDef &subgraph : subgraphs) {
        for (int nSeeds : {1, 8, 17, 33}) {
            optim::GradSearchOptions options;
            options.nSeeds = nSeeds;
            options.nSteps = 10;
            options.nMeasure = 6;
            options.useBatch = false;
            std::vector<optim::RoundResult> ref;
            {
                JitGuard jitState(false);
                setGlobalJobs(1);
                ref = twoRounds(subgraph, options);
            }
            options.useBatch = true;
            JitGuard jitState(true);
            for (int w : widths) {
                ASSERT_TRUE(simd::setPreferredWidth(w));
                for (int jobs : {1, 4}) {
                    setGlobalJobs(jobs);
                    const auto got = twoRounds(subgraph, options);
                    for (size_t r = 0; r < ref.size(); ++r) {
                        SCOPED_TRACE(::testing::Message()
                                     << subgraph.name << " seeds "
                                     << nSeeds << " backend "
                                     << simd::activeBackendName()
                                     << " jobs " << jobs << " round "
                                     << r);
                        const optim::RoundResult &a = ref[r];
                        const optim::RoundResult &b = got[r];
                        ASSERT_EQ(a.toMeasure.size(),
                                  b.toMeasure.size());
                        for (size_t i = 0; i < a.toMeasure.size();
                             ++i) {
                            const optim::Candidate &ca = a.toMeasure[i];
                            const optim::Candidate &cb = b.toMeasure[i];
                            EXPECT_EQ(ca.sketchIndex, cb.sketchIndex);
                            ASSERT_EQ(ca.x.size(), cb.x.size());
                            for (size_t v = 0; v < ca.x.size(); ++v)
                                EXPECT_BITEQ(ca.x[v], cb.x[v]);
                            ASSERT_EQ(ca.rawFeatures.size(),
                                      cb.rawFeatures.size());
                            for (size_t k = 0;
                                 k < ca.rawFeatures.size(); ++k)
                                EXPECT_BITEQ(ca.rawFeatures[k],
                                             cb.rawFeatures[k]);
                            EXPECT_BITEQ(ca.predictedScore,
                                         cb.predictedScore);
                        }
                        ASSERT_EQ(a.trace.visitedScores.size(),
                                  b.trace.visitedScores.size());
                        for (size_t i = 0;
                             i < a.trace.visitedScores.size(); ++i)
                            EXPECT_BITEQ(a.trace.visitedScores[i],
                                         b.trace.visitedScores[i]);
                        EXPECT_EQ(a.trace.numPredictions,
                                  b.trace.numPredictions);
                        EXPECT_EQ(a.trace.roundingAttempts,
                                  b.trace.roundingAttempts);
                        EXPECT_EQ(a.trace.roundingInvalid,
                                  b.trace.roundingInvalid);
                    }
                }
            }
        }
    }
    setGlobalJobs(jobsBefore);
}

// ---------------------------------------------------------------
// W^X lifecycle: the emitted code pages must be readable+executable
// and never writable, and the process must hold no
// writable+executable mapping at all (the emission buffer is
// unmapped or protected before any code runs).
// ---------------------------------------------------------------

#ifdef __linux__
TEST(JitWX, CodePagesAreRXAndProcessHasNoRWXMapping)
{
    if (!supported())
        GTEST_SKIP() << "JIT unsupported on this host";

    using expr::Expr;
    const std::vector<std::string> vars = {"a", "b"};
    std::vector<Expr> roots = {
        sigmoid(Expr::var("a")) *
        max(Expr::var("b"), Expr::constant(0.5))};
    expr::CompiledExprs compiled(roots, vars);
    auto tape = JitTape::compile(compiled.program());
    ASSERT_NE(tape, nullptr);
    const uintptr_t code =
        reinterpret_cast<uintptr_t>(tape->codePtr());

    std::ifstream maps("/proc/self/maps");
    ASSERT_TRUE(maps.is_open());
    std::string line;
    bool foundCode = false;
    while (std::getline(maps, line)) {
        uintptr_t lo = 0, hi = 0;
        char perms[5] = {0};
        if (std::sscanf(line.c_str(), "%lx-%lx %4s",
                        reinterpret_cast<unsigned long *>(&lo),
                        reinterpret_cast<unsigned long *>(&hi),
                        perms) != 3)
            continue;
        const bool w = perms[1] == 'w';
        const bool x = perms[2] == 'x';
        EXPECT_FALSE(w && x)
            << "writable+executable mapping: " << line;
        if (code >= lo && code < hi) {
            foundCode = true;
            EXPECT_EQ(perms[0], 'r') << line;
            EXPECT_FALSE(w) << "JIT code page writable: " << line;
            EXPECT_TRUE(x) << "JIT code page not executable: "
                           << line;
        }
    }
    EXPECT_TRUE(foundCode)
        << "JIT code mapping not found in /proc/self/maps";

    // The compiled functions still execute after the flip to R|X.
    constexpr size_t L = kBatchLanes;
    expr::BatchEvalState state;
    std::vector<double> inputs(compiled.numVars() * L, 1.25);
    std::vector<double> outputs(compiled.numOutputs() * L);
    JitGuard jitOn(true);
    compiled.forwardBatch(inputs.data(), L, outputs.data(), state);
    for (size_t l = 0; l < L; ++l)
        EXPECT_TRUE(std::isfinite(outputs[l]));
}
#endif // __linux__

// ---------------------------------------------------------------
// Compile-count metrics: a batched call with the JIT on compiles
// the tape exactly once (double-checked cache), and the counters
// stay out of the deterministic metrics snapshot (shard/checkpoint
// runs compare snapshots across process topologies).
// ---------------------------------------------------------------

TEST(JitMetrics, CompileCountersAreProcessLocalNotDeterministic)
{
    if (!supported())
        GTEST_SKIP() << "JIT unsupported on this host";
    JitGuard jitOn(true);

    auto &registry = obs::MetricsRegistry::instance();
    const double before =
        registry.counter("jit.tapes_compiled").value();

    using expr::Expr;
    const std::vector<std::string> vars = {"a"};
    std::vector<Expr> roots = {exp(Expr::var("a")) + 1.0};
    expr::CompiledExprs compiled(roots, vars);
    constexpr size_t L = kBatchLanes;
    expr::BatchEvalState state;
    std::vector<double> inputs(L, 0.5), outputs(L);
    for (int i = 0; i < 3; ++i)
        compiled.forwardBatch(inputs.data(), L, outputs.data(),
                              state);
    EXPECT_EQ(registry.counter("jit.tapes_compiled").value(),
              before + 1.0)
        << "lazy compile should run exactly once per tape";

    // jit.* metrics describe THIS process's JIT activity, which
    // differs across shard/resume topologies — they must be
    // filtered from the deterministic snapshot.
    const obs::MetricsSnapshot det =
        registry.snapshot().deterministic();
    for (const auto &entry : det.counters)
        EXPECT_NE(entry.first.rfind("jit.", 0), 0u)
            << "jit.* counter in deterministic snapshot: "
            << entry.first;
    for (const auto &entry : det.gauges)
        EXPECT_NE(entry.first.rfind("jit.", 0), 0u)
            << "jit.* gauge in deterministic snapshot: "
            << entry.first;
}

} // namespace
} // namespace jit
} // namespace felix
