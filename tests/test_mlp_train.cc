/**
 * @file
 * Mlp::trainBatch (blocked SoA kernels) against the per-sample
 * backprop oracle (mlp_train_oracle.h): losses, weights and Adam
 * moments must match byte for byte — compared through saveFull() —
 * at every sample count around the 16-sample chunk, on the
 * production and a ragged shape, on every SIMD backend this host
 * runs and at --jobs 1 and 4. CostModel::fit must write the same
 * model file either way.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "costmodel/cost_model.h"
#include "costmodel/dataset.h"
#include "costmodel/mlp.h"
#include "mlp_train_oracle.h"
#include "sim/gpu_model.h"
#include "simd/kernels.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace felix {
namespace costmodel {
namespace {

uint64_t
bitsOf(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

std::string
fullState(const Mlp &mlp)
{
    std::ostringstream os;
    mlp.saveFull(os);
    return os.str();
}

/** Pins a SIMD backend and a pool size for one scope. */
class EngineGuard
{
  public:
    EngineGuard(int width, int jobs) : jobs_(globalJobs())
    {
        ok_ = simd::setPreferredWidth(width);
        setGlobalJobs(jobs);
    }
    ~EngineGuard()
    {
        simd::setPreferredWidth(0);
        setGlobalJobs(jobs_);
    }
    bool ok() const { return ok_; }

  private:
    int jobs_;
    bool ok_;
};

struct Batch
{
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
};

/** Random inputs with some exact zeros (closed and -0.0-prone
 *  terms) so both gate states and signed-zero sums occur. */
Batch
randomBatch(int inputs, size_t count, uint64_t seed)
{
    Rng rng(seed);
    Batch batch;
    for (size_t s = 0; s < count; ++s) {
        std::vector<double> x(static_cast<size_t>(inputs));
        for (double &v : x)
            v = rng.uniform(0.0, 1.0) < 0.1 ? 0.0
                                            : rng.normal(0.0, 1.5);
        batch.xs.push_back(std::move(x));
        batch.ys.push_back(rng.normal(0.0, 1.0));
    }
    return batch;
}

MlpConfig
shape(std::vector<int> sizes)
{
    MlpConfig config;
    config.layerSizes = std::move(sizes);
    return config;
}

constexpr int kSteps = 2;
constexpr double kLr = 3e-3;

TEST(MlpTrainParity, MatchesPerSampleOracleEveryBackendAndJobs)
{
    const std::vector<MlpConfig> shapes = {
        shape({82, 128, 128, 64, 1}), shape({5, 16, 8, 1})};
    const size_t counts[] = {1, 15, 16, 17, 77, 80, 128};
    for (const MlpConfig &config : shapes) {
        for (size_t count : counts) {
            const Batch batch =
                randomBatch(config.layerSizes.front(), count, count);
            Rng initRef(7);
            Mlp reference(config, initRef);
            std::vector<uint64_t> refLoss;
            for (int step = 0; step < kSteps; ++step)
                refLoss.push_back(bitsOf(MlpTrainOracle::trainBatch(
                    reference, batch.xs, batch.ys, kLr)));
            const std::string refState = fullState(reference);

            for (int width : simd::availableWidths()) {
                for (int jobs : {1, 4}) {
                    EngineGuard guard(width, jobs);
                    ASSERT_TRUE(guard.ok());
                    SCOPED_TRACE(::testing::Message()
                                 << "shape " << config.layerSizes[0]
                                 << " samples " << count << " backend "
                                 << simd::activeBackendName()
                                 << " jobs " << jobs);
                    Rng init(7);
                    Mlp mlp(config, init);
                    for (int step = 0; step < kSteps; ++step)
                        EXPECT_EQ(bitsOf(mlp.trainBatch(batch.xs,
                                                        batch.ys, kLr)),
                                  refLoss[step])
                            << "step " << step;
                    EXPECT_TRUE(fullState(mlp) == refState);
                }
            }
        }
    }
}

TEST(MlpTrainParity, ScratchReuseAcrossBatchSizes)
{
    // One network trained on shrinking and growing batches: stale
    // chunk slots from a larger batch must never leak into a smaller
    // one.
    const MlpConfig config = shape({5, 16, 8, 1});
    Rng initA(3), initB(3);
    Mlp mlp(config, initA), reference(config, initB);
    EngineGuard guard(0, 4);
    for (size_t count : {128, 1, 77, 16, 33}) {
        const Batch batch = randomBatch(5, count, 100 + count);
        EXPECT_EQ(bitsOf(mlp.trainBatch(batch.xs, batch.ys, kLr)),
                  bitsOf(MlpTrainOracle::trainBatch(
                      reference, batch.xs, batch.ys, kLr)))
            << "samples " << count;
    }
    EXPECT_TRUE(fullState(mlp) == fullState(reference));
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
}

TEST(MlpTrainParity, CostModelFitWritesIdenticalModelFile)
{
    DatasetOptions options;
    options.numSubgraphs = 3;
    options.schedulesPerSketch = 8;
    options.seed = 21;
    const std::vector<Sample> samples = synthesizeDataset(
        sim::deviceConfig(sim::DeviceKind::A5000), options);
    constexpr uint64_t kSeed = 4;
    constexpr int kEpochs = 2, kBatchSize = 48;
    constexpr double kFitLr = 1e-3;

    CostModel model(MlpConfig{}, kSeed);
    model.fit(samples, kEpochs, kBatchSize, kFitLr);

    // CostModel::fit, step for step, with the oracle as trainer: the
    // model's Rng initializes the network, then shuffles each epoch.
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (const Sample &sample : samples) {
        xs.push_back(CostModel::transformFeatures(sample.rawFeatures));
        ys.push_back(CostModel::targetOf(sample.latencySec));
    }
    Scaler scaler;
    scaler.fit(xs);
    for (auto &x : xs)
        x = scaler.apply(x);
    double targetMean = 0.0;
    for (double y : ys)
        targetMean += y;
    targetMean /= static_cast<double>(ys.size());
    for (double &y : ys)
        y -= targetMean;
    Rng rng(kSeed);
    Mlp mlp(MlpConfig{}, rng);
    std::vector<size_t> order(xs.size());
    std::iota(order.begin(), order.end(), 0);
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
        rng.shuffle(order);
        for (size_t start = 0; start < order.size();
             start += kBatchSize) {
            const size_t end =
                std::min(order.size(), start + size_t{kBatchSize});
            std::vector<std::vector<double>> bx;
            std::vector<double> by;
            for (size_t i = start; i < end; ++i) {
                bx.push_back(xs[order[i]]);
                by.push_back(ys[order[i]]);
            }
            MlpTrainOracle::trainBatch(mlp, bx, by, kFitLr);
        }
    }
    std::stringstream state;
    state << "felix-cost-model-state v1\n";
    mlp.saveFull(state);
    state << scaler.means().size() << "\n";
    scaler.save(state);
    state << targetMean << "\n";
    std::optional<CostModel> reference = CostModel::loadState(state);
    ASSERT_TRUE(reference.has_value());

    const std::string pathNew = "test_mlp_train_fit_new.txt";
    const std::string pathRef = "test_mlp_train_fit_ref.txt";
    model.save(pathNew);
    reference->save(pathRef);
    const std::string bytesNew = fileBytes(pathNew);
    EXPECT_FALSE(bytesNew.empty());
    EXPECT_TRUE(bytesNew == fileBytes(pathRef));
    std::remove(pathNew.c_str());
    std::remove(pathRef.c_str());
}

} // namespace
} // namespace costmodel
} // namespace felix
