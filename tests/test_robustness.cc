/**
 * @file
 * Robustness / failure-injection tests: degenerate workloads, a
 * useless (constant) cost model, an adversarial (inverted) cost
 * model, and corrupt artifacts. The tuner must degrade gracefully —
 * measurements keep the best-schedule curve monotone even when the
 * model misleads the search.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/felix.h"
#include "support/logging.h"
#include "costmodel/dataset.h"
#include "features/features.h"
#include "models/models.h"
#include "tuner/tuner.h"

namespace felix {
namespace {

std::vector<graph::Task>
smallTasks()
{
    graph::Graph g("small");
    tir::Conv2dConfig conv;
    conv.c = 32;
    conv.h = conv.w = 28;
    conv.k = 64;
    g.addConv2d(conv, -1, "conv");
    return graph::partition(g);
}

/** A cost model fitted on degenerate data: constant predictions. */
costmodel::CostModel
constantModel()
{
    Rng rng(5);
    std::vector<costmodel::Sample> samples;
    for (int i = 0; i < 64; ++i) {
        costmodel::Sample sample;
        sample.rawFeatures.assign(features::kNumFeatures, 0.0);
        for (auto &f : sample.rawFeatures)
            f = std::exp(rng.uniform(0.0, 6.0));
        sample.latencySec = 1e-4;   // identical target everywhere
        samples.push_back(std::move(sample));
    }
    costmodel::MlpConfig config;
    config.layerSizes = {features::kNumFeatures, 8, 1};
    costmodel::CostModel model(config, 5);
    model.fit(samples, 2, 32, 1e-4);
    return model;
}

/** A cost model trained to rank *backwards* (faster = worse). */
costmodel::CostModel
adversarialModel()
{
    costmodel::DatasetOptions options;
    options.numSubgraphs = 6;
    options.schedulesPerSketch = 24;
    options.seed = 11;
    auto samples = costmodel::synthesizeDataset(
        sim::deviceConfig(sim::DeviceKind::A5000), options);
    for (auto &sample : samples) {
        // Invert the target ordering around a 100us pivot.
        sample.latencySec = 1e-8 / sample.latencySec;
    }
    costmodel::MlpConfig config;
    config.layerSizes = {features::kNumFeatures, 32, 1};
    costmodel::CostModel model(config, 11);
    model.fit(samples, 6, 128, 1.5e-3);
    return model;
}

tuner::TunerOptions
fastOptions()
{
    tuner::TunerOptions options;
    options.grad.nSeeds = 4;
    options.grad.nSteps = 40;
    options.grad.nMeasure = 8;
    return options;
}

TEST(Robustness, ConstantCostModelStillImproves)
{
    // With no ranking signal, the search degenerates to measuring
    // (near-)random valid schedules — the best-of-measured curve
    // must still improve on the naive schedule and stay monotone.
    tuner::GraphTuner tuner(smallTasks(), constantModel(),
                            sim::DeviceKind::A5000, fastOptions());
    double initial = tuner.networkLatency();
    tuner.tuneRounds(6);
    EXPECT_LT(tuner.networkLatency(), initial);
    const auto &timeline = tuner.timeline();
    for (size_t i = 1; i < timeline.size(); ++i) {
        EXPECT_LE(timeline[i].networkLatencySec,
                  timeline[i - 1].networkLatencySec + 1e-12);
    }
}

TEST(Robustness, AdversarialCostModelNeverRegresses)
{
    tuner::GraphTuner tuner(smallTasks(), adversarialModel(),
                            sim::DeviceKind::A5000, fastOptions());
    double initial = tuner.networkLatency();
    tuner.tuneRounds(6);
    // Measurements gate every update: the best schedule can only
    // improve, even when the model steers toward slow schedules.
    EXPECT_LE(tuner.networkLatency(), initial);
    const auto &timeline = tuner.timeline();
    for (size_t i = 1; i < timeline.size(); ++i) {
        EXPECT_LE(timeline[i].networkLatencySec,
                  timeline[i - 1].networkLatencySec + 1e-12);
    }
}

TEST(Robustness, AdversarialModelRecoversViaFinetuning)
{
    // The per-round fine-tuning on real measurements must eventually
    // repair an inverted model's ranking: late rounds should find
    // better schedules than the first round's.
    tuner::GraphTuner tuner(smallTasks(), adversarialModel(),
                            sim::DeviceKind::A5000, fastOptions());
    tuner.tuneRounds(1);
    double afterOne = tuner.networkLatency();
    tuner.tuneRounds(11);
    EXPECT_LT(tuner.networkLatency(), afterOne);
}

TEST(Robustness, DegenerateOneElementWorkload)
{
    auto subgraph = tir::dense(1, 1, 1, false);
    auto sketches = sketch::generateSketches(subgraph);
    ASSERT_FALSE(sketches.empty());
    Rng rng(3);
    for (const auto &sched : sketches) {
        auto x = sketch::sampleValid(sched, rng);
        EXPECT_TRUE(sketch::isValidAssignment(sched, x));
        std::vector<std::string> names;
        for (const auto &domain : sched.vars)
            names.push_back(domain.name);
        auto f = features::concreteFeatures(sched.program, names, x);
        for (double v : f)
            EXPECT_TRUE(std::isfinite(v));
    }
}

TEST(Robustness, SingleAxisWorkloads)
{
    // 1-D reductions and 1-element spatial domains must schedule.
    for (auto &subgraph :
         {tir::globalAvgPool2d(1, 1, 64, 64),
          tir::dense(1, 1, 4096, false),
          tir::dense(4096, 1, 1, false)}) {
        auto sketches = sketch::generateSketches(subgraph);
        EXPECT_FALSE(sketches.empty()) << subgraph.name;
        Rng rng(9);
        for (const auto &sched : sketches) {
            auto x = sketch::sampleValid(sched, rng);
            EXPECT_TRUE(sketch::isValidAssignment(sched, x))
                << subgraph.name << "/" << sched.desc;
        }
    }
}

TEST(Robustness, CorruptModuleFileRejected)
{
    const char *path = "corrupt_module_tmp.cfg";
    {
        std::ofstream os(path);
        os << "felix-module v1\nnot-a-number garbage\n";
    }
    EXPECT_FALSE(CompiledModule::load(path).has_value());
    {
        std::ofstream os(path);
        os << "wrong-magic v9\n";
    }
    EXPECT_FALSE(CompiledModule::load(path).has_value());
    std::remove(path);
}

TEST(Robustness, CorruptCostModelFileRejected)
{
    const char *path = "corrupt_model_tmp.txt";
    {
        std::ofstream os(path);
        os << "felix-cost-model v1\nmlp 3\n82 8 1\n0.5 truncated";
    }
    // Rejected means nullopt (the caller retrains), never a throw.
    EXPECT_FALSE(costmodel::CostModel::tryLoad(path).has_value());
    std::remove(path);
}

TEST(Robustness, TunerHandlesManyTasksWithTinyBudget)
{
    // More tasks than rounds: the scheduler's first pass covers a
    // prefix; latency must still be finite and never regress.
    auto tasks = extractSubgraphs(models::mobilenetV2(1));
    costmodel::DatasetOptions options;
    options.numSubgraphs = 4;
    options.schedulesPerSketch = 16;
    auto samples = costmodel::synthesizeDataset(
        sim::deviceConfig(sim::DeviceKind::A5000), options);
    costmodel::MlpConfig config;
    config.layerSizes = {features::kNumFeatures, 16, 1};
    costmodel::CostModel model(config, 3);
    model.fit(samples, 2, 64, 1e-3);

    tuner::GraphTuner tuner(tasks, std::move(model),
                            sim::DeviceKind::A5000, fastOptions());
    double initial = tuner.networkLatency();
    tuner.tuneRounds(3);   // << number of tasks
    EXPECT_LE(tuner.networkLatency(), initial);
    EXPECT_TRUE(std::isfinite(tuner.networkLatency()));
}

} // namespace
} // namespace felix
