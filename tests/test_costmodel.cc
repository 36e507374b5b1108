/**
 * @file
 * Tests for the MLP, scaler, cost model training, input gradients,
 * persistence, and the TenSet-substitute dataset synthesis.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "costmodel/cost_model.h"
#include "costmodel/dataset.h"
#include "costmodel/mlp.h"
#include "features/features.h"

namespace felix {
namespace costmodel {
namespace {

MlpConfig
tinyConfig(int inputs = 4)
{
    MlpConfig config;
    config.layerSizes = {inputs, 16, 16, 1};
    return config;
}

TEST(MlpTest, DeterministicForward)
{
    Rng rngA(5), rngB(5);
    Mlp a(tinyConfig(), rngA), b(tinyConfig(), rngB);
    std::vector<double> x = {0.1, -0.2, 0.3, 0.4};
    EXPECT_DOUBLE_EQ(a.forward(x), b.forward(x));
}

TEST(MlpTest, ParameterCount)
{
    Rng rng(1);
    Mlp mlp(tinyConfig(), rng);
    // 4*16+16 + 16*16+16 + 16*1+1 = 80 + 272 + 17 = 369.
    EXPECT_EQ(mlp.parameterCount(), 369u);
}

TEST(MlpTest, InputGradMatchesFiniteDifference)
{
    Rng rng(3);
    Mlp mlp(tinyConfig(), rng);
    std::vector<double> x = {0.3, -0.1, 0.7, 0.2};
    std::vector<double> grad;
    mlp.forwardInputGrad(x, grad);
    ASSERT_EQ(grad.size(), x.size());
    const double h = 1e-6;
    for (size_t i = 0; i < x.size(); ++i) {
        auto hi = x, lo = x;
        hi[i] += h;
        lo[i] -= h;
        double numeric = (mlp.forward(hi) - mlp.forward(lo)) / (2 * h);
        EXPECT_NEAR(grad[i], numeric, 1e-4) << "input " << i;
    }
}

TEST(MlpTest, LearnsLinearFunction)
{
    Rng rng(7);
    Mlp mlp(tinyConfig(), rng);
    // Target: y = 2a - b + 0.5c.
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    Rng data(11);
    for (int i = 0; i < 256; ++i) {
        std::vector<double> x = {data.uniform(-1, 1),
                                 data.uniform(-1, 1),
                                 data.uniform(-1, 1),
                                 data.uniform(-1, 1)};
        ys.push_back(2 * x[0] - x[1] + 0.5 * x[2]);
        xs.push_back(std::move(x));
    }
    double first = mlp.evaluate(xs, ys);
    for (int step = 0; step < 300; ++step)
        mlp.trainBatch(xs, ys, 3e-3);
    double last = mlp.evaluate(xs, ys);
    EXPECT_LT(last, first * 0.05);
    EXPECT_LT(last, 0.02);
}

TEST(MlpTest, SaveLoadRoundTrip)
{
    Rng rng(9);
    Mlp mlp(tinyConfig(), rng);
    std::vector<double> x = {0.5, 0.25, -0.75, 1.0};
    std::stringstream buffer;
    mlp.save(buffer);
    std::optional<Mlp> loaded = Mlp::load(buffer);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_DOUBLE_EQ(mlp.forward(x), loaded->forward(x));
}

TEST(ScalerTest, StandardizesColumns)
{
    Scaler scaler;
    scaler.fit({{0.0, 10.0}, {2.0, 10.0}, {4.0, 10.0}});
    auto z = scaler.apply({2.0, 10.0});
    EXPECT_NEAR(z[0], 0.0, 1e-12);
    EXPECT_NEAR(z[1], 0.0, 1e-12);   // constant column passes through
    auto z2 = scaler.apply({4.0, 10.0});
    EXPECT_GT(z2[0], 0.5);
}

TEST(CostModelTest, TransformAndTargets)
{
    EXPECT_DOUBLE_EQ(CostModel::inputTransform(0.0), 0.0);
    EXPECT_DOUBLE_EQ(CostModel::inputTransform(1.0), 0.0);
    EXPECT_NEAR(CostModel::inputTransform(std::exp(5.0)), 5.0, 1e-12);
    double latency = 3.5e-3;
    EXPECT_NEAR(CostModel::latencyOf(CostModel::targetOf(latency)),
                latency, 1e-9);
}

TEST(CostModelTest, LearnsToRankSyntheticSchedules)
{
    // Synthetic "latency" that depends on a few feature dimensions;
    // the model must learn enough to rank.
    Rng data(21);
    std::vector<Sample> samples;
    for (int i = 0; i < 600; ++i) {
        std::vector<double> raw(features::kNumFeatures, 0.0);
        for (int j = 0; j < features::kNumFeatures; ++j)
            raw[j] = std::exp(data.uniform(0.0, 8.0));
        Sample sample;
        sample.latencySec =
            1e-5 * (1.0 + raw[6] / 1e3) / (1.0 + std::sqrt(raw[12]));
        sample.rawFeatures = std::move(raw);
        samples.push_back(std::move(sample));
    }
    MlpConfig config;
    config.layerSizes = {features::kNumFeatures, 32, 32, 1};
    CostModel model(config, 77);
    model.fit(samples, /*epochs=*/60, /*batch=*/64, /*lr=*/2e-3);
    auto metrics = model.validate(samples);
    EXPECT_GT(metrics.rankCorrelation, 0.7);
}

TEST(CostModelTest, PredictWithGradConsistent)
{
    Rng data(31);
    std::vector<Sample> samples;
    for (int i = 0; i < 200; ++i) {
        std::vector<double> raw(features::kNumFeatures, 1.0);
        for (int j = 0; j < features::kNumFeatures; ++j)
            raw[j] = std::exp(data.uniform(0.0, 6.0));
        Sample sample;
        sample.rawFeatures = raw;
        sample.latencySec = 1e-4 * (1.0 + raw[0] * 1e-4);
        samples.push_back(std::move(sample));
    }
    MlpConfig config;
    config.layerSizes = {features::kNumFeatures, 16, 1};
    CostModel model(config, 3);
    model.fit(samples, 3, 64, 1e-3);

    std::vector<double> transformed =
        CostModel::transformFeatures(samples[0].rawFeatures);
    std::vector<double> grad;
    double score = model.predictTransformedWithGrad(transformed, grad);
    EXPECT_NEAR(score, model.predict(samples[0].rawFeatures), 1e-9);
    // Finite-difference check on one transformed coordinate.
    int idx = 6;
    const double h = 1e-5;
    auto hi = transformed, lo = transformed;
    hi[idx] += h;
    lo[idx] -= h;
    std::vector<double> tmp;
    double numeric = (model.predictTransformedWithGrad(hi, tmp) -
                      model.predictTransformedWithGrad(lo, tmp)) /
                     (2 * h);
    EXPECT_NEAR(grad[idx], numeric, 1e-4);
}

TEST(CostModelTest, SaveLoadPredictsIdentically)
{
    Rng data(41);
    std::vector<Sample> samples;
    for (int i = 0; i < 100; ++i) {
        std::vector<double> raw(features::kNumFeatures, 2.0);
        raw[0] = std::exp(data.uniform(0.0, 5.0));
        Sample sample;
        sample.rawFeatures = raw;
        sample.latencySec = 1e-4;
        samples.push_back(std::move(sample));
    }
    MlpConfig config;
    config.layerSizes = {features::kNumFeatures, 8, 1};
    CostModel model(config, 5);
    model.fit(samples, 2, 32, 1e-3);
    const std::string path = "test_cost_model_tmp.txt";
    model.save(path);
    auto loaded = CostModel::tryLoad(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_NEAR(model.predict(samples[0].rawFeatures),
                loaded->predict(samples[0].rawFeatures), 1e-12);
    std::remove(path.c_str());
}

TEST(CostModelTest, TryLoadMissingFileReturnsNullopt)
{
    EXPECT_FALSE(CostModel::tryLoad("/nonexistent/file.txt")
                     .has_value());
}

/** A small fitted model's pretrained-cache file, as text. */
std::string
fittedModelFile()
{
    Rng data(43);
    std::vector<Sample> samples;
    for (int i = 0; i < 40; ++i) {
        std::vector<double> raw(features::kNumFeatures, 2.0);
        raw[3] = std::exp(data.uniform(0.0, 5.0));
        samples.push_back({raw, data.uniform(1e-5, 1e-3)});
    }
    MlpConfig config;
    config.layerSizes = {features::kNumFeatures, 8, 1};
    CostModel model(config, 3);
    model.fit(samples, 1, 32, 1e-3);
    const std::string path = "test_cost_model_text_tmp.txt";
    model.save(path);
    std::ifstream is(path);
    std::stringstream text;
    text << is.rdbuf();
    std::remove(path.c_str());
    return text.str();
}

bool
tryLoadText(const std::string &text)
{
    const std::string path = "test_cost_model_corrupt_tmp.txt";
    {
        std::ofstream os(path);
        os << text;
    }
    const bool loaded = CostModel::tryLoad(path).has_value();
    std::remove(path.c_str());
    return loaded;
}

TEST(CostModelTest, TryLoadRejectsCorruptFiles)
{
    const std::string good = fittedModelFile();
    ASSERT_TRUE(tryLoadText(good));
    // Truncated halfway through the weights.
    EXPECT_FALSE(tryLoadText(good.substr(0, good.size() / 2)));
    // Negative, zero and absurdly large layer sizes.
    EXPECT_FALSE(tryLoadText("felix-cost-model v1\nmlp 3\n-5 4 1\n"));
    EXPECT_FALSE(tryLoadText("felix-cost-model v1\nmlp 3\n0 4 1\n"));
    EXPECT_FALSE(
        tryLoadText("felix-cost-model v1\nmlp 3\n1000000000 128 1\n"));
    // Every layer within the size cap, but too many parameters.
    EXPECT_FALSE(
        tryLoadText("felix-cost-model v1\nmlp 3\n60000 60000 1\n"));
    // A non-scalar head.
    EXPECT_FALSE(tryLoadText("felix-cost-model v1\nmlp 2\n1 2\n"));
    // A scaler size that differs from the network's input size.
    const std::string sizeLine =
        "\n" + std::to_string(features::kNumFeatures) + "\n";
    const size_t at = good.find(sizeLine);
    ASSERT_NE(at, std::string::npos);
    std::string badScaler = good;
    badScaler.replace(at, sizeLine.size(), "\n1000000000\n");
    EXPECT_FALSE(tryLoadText(badScaler));
}

TEST(CostModelTest, LoadStateRejectsCorruptStreams)
{
    CostModel model(tinyConfig(), 5);
    std::stringstream state;
    model.saveState(state);
    const std::string good = state.str();
    {
        std::stringstream is(good);
        EXPECT_TRUE(CostModel::loadState(is).has_value());
    }
    for (const std::string &bad :
         {good.substr(0, good.size() / 2),
          std::string("felix-cost-model-state v1\nmlp 3\n-5 4 1\n"),
          std::string("felix-cost-model-state v1\nmlp 3\n"
                      "1000000000 128 1\n")}) {
        std::stringstream is(bad);
        EXPECT_FALSE(CostModel::loadState(is).has_value());
    }
}

TEST(Dataset, PretrainedModelRetrainsOverCorruptCache)
{
    DatasetOptions options;
    options.numSubgraphs = 2;
    options.schedulesPerSketch = 4;
    options.seed = 78;
    const std::string cacheDir = "test_pretrained_corrupt_tmp";
    std::filesystem::create_directories(cacheDir);
    const std::string path = cacheDir + "/cost_model_a5000.txt";
    {
        std::ofstream os(path);
        os << "felix-cost-model v1\nmlp 3\n1000000000 128 1\n";
    }
    auto model =
        pretrainedCostModel(sim::DeviceKind::A5000, cacheDir, options);
    std::vector<double> raw(features::kNumFeatures, 3.0);
    EXPECT_TRUE(std::isfinite(model.predict(raw)));
    // The corrupt file was replaced by the retrained model.
    auto reloaded = CostModel::tryLoad(path);
    ASSERT_TRUE(reloaded.has_value());
    EXPECT_DOUBLE_EQ(model.predict(raw), reloaded->predict(raw));
    std::filesystem::remove_all(cacheDir);
}

TEST(CostModelTest, FinetuneShiftsPredictions)
{
    Rng data(51);
    std::vector<Sample> samples;
    for (int i = 0; i < 120; ++i) {
        std::vector<double> raw(features::kNumFeatures, 1.0);
        raw[6] = std::exp(data.uniform(2.0, 8.0));
        Sample sample;
        sample.rawFeatures = raw;
        sample.latencySec = 1e-4;
        samples.push_back(std::move(sample));
    }
    MlpConfig config;
    config.layerSizes = {features::kNumFeatures, 16, 1};
    CostModel model(config, 6);
    // Fit until predictions approach the true target -log(1e-4).
    model.fit(samples, 40, 64, 2e-3);
    double before = model.predict(samples[0].rawFeatures);
    EXPECT_NEAR(before, CostModel::targetOf(1e-4), 1.5);
    // Fresh measurements say everything is 10x slower.
    std::vector<Sample> fresh = samples;
    for (Sample &sample : fresh)
        sample.latencySec = 1e-3;
    model.finetune(fresh, 128, 1e-3);
    double after = model.predict(samples[0].rawFeatures);
    EXPECT_LT(after, before);
}

TEST(Dataset, PoolIsDiverseAndDeterministic)
{
    Rng rngA(99), rngB(99);
    auto poolA = datasetSubgraphPool(24, rngA);
    auto poolB = datasetSubgraphPool(24, rngB);
    ASSERT_EQ(poolA.size(), 24u);
    for (size_t i = 0; i < poolA.size(); ++i) {
        EXPECT_EQ(poolA[i].structuralHash(),
                  poolB[i].structuralHash());
    }
    // At least two distinct operator families.
    std::set<std::string> prefixes;
    for (const auto &subgraph : poolA) {
        prefixes.insert(
            subgraph.name.substr(0, subgraph.name.rfind('_')));
    }
    EXPECT_GE(prefixes.size(), 3u);
}

TEST(Dataset, PretrainedModelCacheRoundTrip)
{
    DatasetOptions options;
    options.numSubgraphs = 3;
    options.schedulesPerSketch = 8;
    options.seed = 77;
    const std::string cacheDir = "test_pretrained_tmp";
    auto first = pretrainedCostModel(sim::DeviceKind::A5000, cacheDir,
                                     options);
    // Second call must hit the cache and predict identically.
    auto second = pretrainedCostModel(sim::DeviceKind::A5000,
                                      cacheDir, options);
    std::vector<double> raw(features::kNumFeatures, 3.0);
    EXPECT_DOUBLE_EQ(first.predict(raw), second.predict(raw));
    std::filesystem::remove_all(cacheDir);
}

TEST(Dataset, SynthesizedSamplesAreWellFormed)
{
    DatasetOptions options;
    options.numSubgraphs = 4;
    options.schedulesPerSketch = 8;
    auto samples = synthesizeDataset(
        sim::deviceConfig(sim::DeviceKind::A5000), options);
    EXPECT_GE(samples.size(), 32u);
    for (const Sample &sample : samples) {
        EXPECT_EQ(sample.rawFeatures.size(),
                  static_cast<size_t>(features::kNumFeatures));
        EXPECT_GT(sample.latencySec, 0.0);
        EXPECT_LT(sample.latencySec, 10.0);
    }
}

} // namespace
} // namespace costmodel
} // namespace felix
