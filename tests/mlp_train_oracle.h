/**
 * @file
 * The reference oracle for Mlp::trainBatch: plain scalar backprop,
 * one sample at a time, with the same fixed 16-sample chunking,
 * chunk-order reduction and Adam step. Mlp::trainBatch must match it
 * byte for byte (losses, weights, Adam moments); tests/test_mlp_train.cc
 * checks that and bench/bench_tape.cc times it as the baseline row.
 */
#ifndef FELIX_TESTS_MLP_TRAIN_ORACLE_H_
#define FELIX_TESTS_MLP_TRAIN_ORACLE_H_

#include <cmath>
#include <vector>

#include "costmodel/mlp.h"
#include "simd/kernels.h"
#include "support/logging.h"
#include "support/parallel.h"

namespace felix {
namespace costmodel {

struct MlpTrainOracle
{
    /** One Adam step on a mini-batch with MSE loss; returns the
     *  batch mean squared error before the update. */
    static double
    trainBatch(Mlp &mlp, const std::vector<std::vector<double>> &xs,
               const std::vector<double> &ys, double lr)
    {
        using Layer = Mlp::Layer;
        std::vector<Layer> &layers = mlp.layers_;
        FELIX_CHECK(!xs.empty() && xs.size() == ys.size(),
                    "trainBatch: bad batch");
        const double invBatch = 1.0 / static_cast<double>(xs.size());

        constexpr size_t kChunk = 16;
        const size_t numChunks = (xs.size() + kChunk - 1) / kChunk;
        struct ChunkGrads
        {
            std::vector<std::vector<double>> gWeight, gBias;
            double loss = 0.0;
        };
        std::vector<ChunkGrads> chunkGrads(numChunks);

        parallelForChunks(
            "test.oracle_train_chunk", xs.size(), kChunk,
            [&](size_t begin, size_t end) {
                ChunkGrads &chunk = chunkGrads[begin / kChunk];
                chunk.gWeight.resize(layers.size());
                chunk.gBias.resize(layers.size());
                for (size_t li = 0; li < layers.size(); ++li) {
                    chunk.gWeight[li].assign(layers[li].weight.size(),
                                             0.0);
                    chunk.gBias[li].assign(layers[li].bias.size(),
                                           0.0);
                }
                std::vector<std::vector<double>> acts;
                for (size_t si = begin; si < end; ++si) {
                    acts.clear();
                    acts.push_back(xs[si]);
                    for (size_t li = 0; li < layers.size(); ++li) {
                        const Layer &layer = layers[li];
                        std::vector<double> out(layer.out, 0.0);
                        const std::vector<double> &cur = acts.back();
                        for (int o = 0; o < layer.out; ++o) {
                            double acc = layer.bias[o];
                            const double *row =
                                layer.weight.data() +
                                static_cast<size_t>(o) * layer.in;
                            for (int i = 0; i < layer.in; ++i)
                                acc += row[i] * cur[i];
                            if (li + 1 < layers.size() && acc < 0.0)
                                acc = 0.0;
                            out[o] = acc;
                        }
                        acts.push_back(std::move(out));
                    }
                    const double pred = acts.back()[0];
                    const double err = pred - ys[si];
                    chunk.loss += err * err;

                    std::vector<double> adj = {2.0 * err * invBatch};
                    for (size_t li = layers.size(); li-- > 0;) {
                        const Layer &layer = layers[li];
                        const std::vector<double> &out = acts[li + 1];
                        const std::vector<double> &in = acts[li];
                        std::vector<double> prev(layer.in, 0.0);
                        for (int o = 0; o < layer.out; ++o) {
                            if (li + 1 < layers.size() && out[o] <= 0.0)
                                continue;
                            const double a = adj[o];
                            double *gw =
                                chunk.gWeight[li].data() +
                                static_cast<size_t>(o) * layer.in;
                            const double *row =
                                layer.weight.data() +
                                static_cast<size_t>(o) * layer.in;
                            for (int i = 0; i < layer.in; ++i) {
                                gw[i] += a * in[i];
                                prev[i] += a * row[i];
                            }
                            chunk.gBias[li][o] += a;
                        }
                        adj.swap(prev);
                    }
                }
            });

        std::vector<std::vector<double>> gWeight(layers.size());
        std::vector<std::vector<double>> gBias(layers.size());
        for (size_t li = 0; li < layers.size(); ++li) {
            gWeight[li].assign(layers[li].weight.size(), 0.0);
            gBias[li].assign(layers[li].bias.size(), 0.0);
        }
        double loss = 0.0;
        for (const ChunkGrads &chunk : chunkGrads) {
            loss += chunk.loss;
            for (size_t li = 0; li < layers.size(); ++li) {
                for (size_t i = 0; i < gWeight[li].size(); ++i)
                    gWeight[li][i] += chunk.gWeight[li][i];
                for (size_t i = 0; i < gBias[li].size(); ++i)
                    gBias[li][i] += chunk.gBias[li][i];
            }
        }

        ++mlp.adamStep_;
        const MlpConfig &config = mlp.config_;
        const double b1 = config.adamBeta1, b2 = config.adamBeta2;
        const double corr1 = 1.0 - std::pow(b1, mlp.adamStep_);
        const double corr2 = 1.0 - std::pow(b2, mlp.adamStep_);
        for (size_t li = 0; li < layers.size(); ++li) {
            Layer &layer = layers[li];
            auto update = [&](std::vector<double> &param,
                              std::vector<double> &m,
                              std::vector<double> &v,
                              const std::vector<double> &g) {
                simd::activeKernels().adamStep(
                    param.data(), g.data(), m.data(), v.data(),
                    param.size(), b1, b2, corr1, corr2, lr,
                    config.adamEps);
            };
            update(layer.weight, layer.mWeight, layer.vWeight,
                   gWeight[li]);
            update(layer.bias, layer.mBias, layer.vBias, gBias[li]);
        }
        return loss / static_cast<double>(xs.size());
    }
};

} // namespace costmodel
} // namespace felix

#endif // FELIX_TESTS_MLP_TRAIN_ORACLE_H_
