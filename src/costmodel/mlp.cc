#include "costmodel/mlp.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "obs/metrics.h"
#include "simd/kernels.h"
#include "support/logging.h"
#include "support/parallel.h"

namespace felix {
namespace costmodel {

Mlp::Mlp(MlpConfig config) : config_(std::move(config))
{
    FELIX_CHECK(config_.layerSizes.size() >= 2,
                "MLP needs at least input and output layers");
    FELIX_CHECK(config_.layerSizes.back() == 1,
                "cost model MLP has a scalar output");
    for (size_t i = 0; i + 1 < config_.layerSizes.size(); ++i) {
        Layer layer;
        layer.in = config_.layerSizes[i];
        layer.out = config_.layerSizes[i + 1];
        layer.weight.assign(
            static_cast<size_t>(layer.in) * layer.out, 0.0);
        layer.bias.assign(layer.out, 0.0);
        layer.mWeight.assign(layer.weight.size(), 0.0);
        layer.vWeight.assign(layer.weight.size(), 0.0);
        layer.mBias.assign(layer.bias.size(), 0.0);
        layer.vBias.assign(layer.bias.size(), 0.0);
        layers_.push_back(std::move(layer));
    }
}

Mlp::Mlp(MlpConfig config, Rng &rng) : Mlp(std::move(config))
{
    // He initialization for the ReLU hidden layers.
    for (Layer &layer : layers_) {
        double scale = std::sqrt(2.0 / layer.in);
        for (double &w : layer.weight)
            w = rng.normal(0.0, scale);
    }
}

size_t
Mlp::parameterCount() const
{
    size_t count = 0;
    for (const Layer &layer : layers_)
        count += layer.weight.size() + layer.bias.size();
    return count;
}

double
Mlp::forward(const std::vector<double> &x, MlpScratch &scratch) const
{
    FELIX_CHECK(static_cast<int>(x.size()) == inputSize(),
                "MLP forward: wrong input size");
    std::vector<double> &cur = scratch.cur;
    std::vector<double> &next = scratch.next;
    cur.assign(x.begin(), x.end());
    for (size_t li = 0; li < layers_.size(); ++li) {
        const Layer &layer = layers_[li];
        next.assign(layer.out, 0.0);
        for (int o = 0; o < layer.out; ++o) {
            double acc = layer.bias[o];
            const double *row =
                layer.weight.data() +
                static_cast<size_t>(o) * layer.in;
            for (int i = 0; i < layer.in; ++i)
                acc += row[i] * cur[i];
            // ReLU on hidden layers, identity on the head.
            if (li + 1 < layers_.size() && acc < 0.0)
                acc = 0.0;
            next[o] = acc;
        }
        cur.swap(next);
    }
    return cur[0];
}

double
Mlp::forwardInputGrad(const std::vector<double> &x,
                      std::vector<double> &dx,
                      MlpScratch &scratch) const
{
    FELIX_CHECK(static_cast<int>(x.size()) == inputSize(),
                "MLP forwardInputGrad: wrong input size");
    // Forward, storing activations per layer.
    std::vector<std::vector<double>> &acts = scratch.acts;
    acts.resize(layers_.size() + 1);
    acts[0].assign(x.begin(), x.end());
    for (size_t li = 0; li < layers_.size(); ++li) {
        const Layer &layer = layers_[li];
        std::vector<double> &out = acts[li + 1];
        out.assign(layer.out, 0.0);
        const std::vector<double> &cur = acts[li];
        for (int o = 0; o < layer.out; ++o) {
            double acc = layer.bias[o];
            const double *row =
                layer.weight.data() +
                static_cast<size_t>(o) * layer.in;
            for (int i = 0; i < layer.in; ++i)
                acc += row[i] * cur[i];
            if (li + 1 < layers_.size() && acc < 0.0)
                acc = 0.0;
            out[o] = acc;
        }
    }
    const double result = acts.back()[0];

    // Backward: adjoint of the scalar output wrt activations.
    std::vector<double> &adj = scratch.adj;
    std::vector<double> &prev = scratch.prev;
    adj.assign(1, 1.0);
    for (size_t li = layers_.size(); li-- > 0;) {
        const Layer &layer = layers_[li];
        const std::vector<double> &out = acts[li + 1];
        prev.assign(layer.in, 0.0);
        for (int o = 0; o < layer.out; ++o) {
            double a = adj[o];
            // ReLU gate (hidden layers only).
            if (li + 1 < layers_.size() && out[o] <= 0.0)
                continue;
            const double *row =
                layer.weight.data() +
                static_cast<size_t>(o) * layer.in;
            for (int i = 0; i < layer.in; ++i)
                prev[i] += a * row[i];
        }
        adj.swap(prev);
    }
    dx.assign(adj.begin(), adj.end());
    return result;
}

double
Mlp::forward(const std::vector<double> &x) const
{
    MlpScratch scratch;
    return forward(x, scratch);
}

double
Mlp::forwardInputGrad(const std::vector<double> &x,
                      std::vector<double> &dx) const
{
    MlpScratch scratch;
    return forwardInputGrad(x, dx, scratch);
}

void
Mlp::forwardLayerBatch(const Layer &layer, bool hidden, size_t lanes,
                       const AlignedRows &cur, AlignedRows &out)
{
    // The blocked kernel (four neurons share each input-row load;
    // per lane the accumulation order stays bias first, then inputs
    // 0..in-1, so per lane the result is bit-identical to forward())
    // lives in src/simd/kernels_impl.h, compiled per SIMD backend
    // and dispatched at runtime.
    out.resize(static_cast<size_t>(layer.out) * kBatchLanes);
    simd::activeKernels().mlpForwardLayer(
        layer.weight.data(), layer.bias.data(), layer.in, layer.out,
        hidden, static_cast<int>(lanes), cur.data(), out.data());
}

void
Mlp::forwardBatch(const double *x, double *y,
                  MlpBatchScratch &scratch) const
{
    constexpr size_t L = kBatchLanes;
    AlignedRows &cur = scratch.cur;
    AlignedRows &next = scratch.next;
    cur.assign(x, x + static_cast<size_t>(inputSize()) * L);
    for (size_t li = 0; li < layers_.size(); ++li) {
        forwardLayerBatch(layers_[li], li + 1 < layers_.size(), L, cur,
                          next);
        cur.swap(next);
    }
    for (size_t l = 0; l < L; ++l)
        y[l] = cur[l];
}

double *
Mlp::stageInputRows(MlpBatchScratch &scratch) const
{
    scratch.acts.resize(layers_.size() + 1);
    scratch.acts[0].resize(static_cast<size_t>(inputSize()) *
                           kBatchLanes);
    return scratch.acts[0].data();
}

void
Mlp::forwardInputGradStaged(double *y, size_t lanes,
                            MlpBatchScratch &scratch) const
{
    constexpr size_t L = kBatchLanes;
    FELIX_CHECK(lanes >= 1 && lanes <= L, "forwardInputGradStaged: ",
                lanes, " lanes out of [1, ", L, "]");
    std::vector<AlignedRows> &acts = scratch.acts;
    const size_t width =
        static_cast<size_t>(simd::activeKernels().width);
    const size_t sweep = (lanes + width - 1) / width * width;
    for (size_t i = 0; i < static_cast<size_t>(inputSize()); ++i) {
        double *row = acts[0].data() + i * L;
        std::fill(row + lanes, row + sweep, 0.0);
    }

    for (size_t li = 0; li < layers_.size(); ++li)
        forwardLayerBatch(layers_[li], li + 1 < layers_.size(), lanes,
                          acts[li], acts[li + 1]);
    for (size_t l = 0; l < lanes; ++l)
        y[l] = acts.back()[l];

    AlignedRows &adj = scratch.adj;
    AlignedRows &prev = scratch.prev;
    AlignedRows &madj = scratch.madj;
    adj.assign(L, 1.0);
    for (size_t li = layers_.size(); li-- > 0;) {
        const Layer &layer = layers_[li];
        const bool hidden = li + 1 < layers_.size();
        const AlignedRows &out = acts[li + 1];

        // ReLU masking and the blocked adjoint accumulation run in
        // the runtime-dispatched backend (src/simd/kernels_impl.h).
        // The scalar path skips a neuron entirely when its gate is
        // closed; the kernel instead selects a 0.0 adjoint for
        // closed lanes BEFORE the multiplies, which reproduces that
        // bit for bit: the masked terms are exact +/-0.0 (finite
        // weights), and an accumulator row can never hold -0.0
        // (IEEE addition yields -0.0 only for (-0)+(-0), and rows
        // start at +0.0), so adding them never changes a bit. Per
        // (input, lane) the additions still run in ascending neuron
        // order — exactly the scalar order.
        madj.resize(static_cast<size_t>(layer.out) * L);
        prev.assign(static_cast<size_t>(layer.in) * L, 0.0);
        simd::activeKernels().mlpBackwardLayer(
            layer.weight.data(), layer.in, layer.out, hidden,
            static_cast<int>(lanes), out.data(), adj.data(),
            madj.data(), prev.data());
        adj.swap(prev);
    }
}

void
Mlp::forwardInputGradBatch(const double *x, double *y, double *dx,
                           MlpBatchScratch &scratch) const
{
    constexpr size_t L = kBatchLanes;
    const size_t inRows = static_cast<size_t>(inputSize()) * L;
    double *rows = stageInputRows(scratch);
    std::copy(x, x + inRows, rows);
    forwardInputGradStaged(y, L, scratch);
    const double *g = inputGradRows(scratch);
    for (size_t i = 0; i < inRows; ++i)
        dx[i] = g[i];
}

/** SoA batches per 16-sample chunk: one, or two at kBatchLanes = 8. */
static constexpr size_t kTrainChunk = 16;
static constexpr size_t kBatchesPerChunk =
    (kTrainChunk + kBatchLanes - 1) / kBatchLanes;

void
Mlp::trainForwardBackward(const std::vector<std::vector<double>> &xs,
                          const std::vector<double> &ys, size_t begin,
                          size_t end, double inv_batch)
{
    constexpr size_t L = kBatchLanes;
    const size_t numLayers = layers_.size();
    const size_t in0 = static_cast<size_t>(inputSize());
    const simd::KernelSet &kernels = simd::activeKernels();
    const size_t chunk = begin / kTrainChunk;
    double loss = 0.0;
    for (size_t k = 0; k < kBatchesPerChunk; ++k) {
        TrainBatch &batch = trainBatches_[chunk * kBatchesPerChunk + k];
        const size_t s0 = begin + k * L;
        batch.lanes = s0 < end ? std::min(L, end - s0) : 0;
        if (batch.lanes == 0)
            continue;
        std::vector<AlignedRows> &acts = batch.acts;
        std::vector<AlignedRows> &adjs = batch.adjs;
        acts.resize(numLayers + 1);
        adjs.resize(numLayers);
        batch.lanesIn.resize(numLayers);

        acts[0].assign(in0 * L, 0.0);  // padding lanes stay finite
        for (size_t l = 0; l < batch.lanes; ++l) {
            const std::vector<double> &x = xs[s0 + l];
            for (size_t i = 0; i < in0; ++i)
                acts[0][i * L + l] = x[i];
        }
        for (size_t li = 0; li < numLayers; ++li)
            forwardLayerBatch(layers_[li], li + 1 < numLayers,
                              batch.lanes, acts[li], acts[li + 1]);

        // Output adjoint 2*err/n per live lane, +0.0 on padding.
        adjs.back().assign(L, 0.0);
        for (size_t l = 0; l < batch.lanes; ++l) {
            const double err = acts.back()[l] - ys[s0 + l];
            loss += err * err;
            adjs.back()[l] = 2.0 * err * inv_batch;
        }
        // Input adjoints for layers numLayers-1 .. 1 through the
        // inference backward kernel (forwardInputGradStaged explains
        // why its +0.0 masking is bit-exact); nothing reads the input
        // adjoint of layer 0.
        for (size_t li = numLayers; li-- > 1;) {
            const Layer &layer = layers_[li];
            batch.madj.resize(static_cast<size_t>(layer.out) * L);
            adjs[li - 1].assign(static_cast<size_t>(layer.in) * L, 0.0);
            kernels.mlpBackwardLayer(
                layer.weight.data(), layer.in, layer.out,
                li + 1 < numLayers, static_cast<int>(batch.lanes),
                acts[li + 1].data(),
                adjs[li].data(), batch.madj.data(), adjs[li - 1].data());
        }
        // The weight-gradient kernel reduces over lanes, so it reads
        // each layer's inputs lane-major.
        for (size_t li = 0; li < numLayers; ++li) {
            const size_t in = static_cast<size_t>(layers_[li].in);
            std::vector<double> &lanesIn = batch.lanesIn[li];
            lanesIn.resize(in * batch.lanes);
            for (size_t l = 0; l < batch.lanes; ++l)
                for (size_t i = 0; i < in; ++i)
                    lanesIn[l * in + i] = acts[li][i * L + l];
        }
    }
    chunkLoss_[chunk] = loss;
}

void
Mlp::trainUpdateBlock(TrainBlock &block, size_t num_chunks, double lr,
                      double corr1, double corr2)
{
    constexpr size_t L = kBatchLanes;
    Layer &layer = layers_[block.layer];
    const bool hidden = block.layer + 1 < layers_.size();
    const size_t in = static_cast<size_t>(layer.in);
    const size_t rows = static_cast<size_t>(block.o1 - block.o0);
    const size_t o0 = static_cast<size_t>(block.o0);
    const simd::KernelSet &kernels = simd::activeKernels();
    block.partial.resize(rows * in);
    block.partialBias.resize(rows);
    block.sum.assign(rows * in, 0.0);
    block.sumBias.assign(rows, 0.0);
    // Per element: the chunk partial starts at +0.0 and adds the
    // chunk's open lanes in sample order (a chunk split over two
    // batches continues its sums), then joins the sum in chunk order
    // — the per-sample loop's order exactly (docs/tape_engine.md
    // section 3d).
    for (size_t c = 0; c < num_chunks; ++c) {
        for (size_t k = 0; k < kBatchesPerChunk; ++k) {
            const TrainBatch &batch =
                trainBatches_[c * kBatchesPerChunk + k];
            if (batch.lanes == 0)
                continue;
            kernels.mlpWeightGradLayer(
                batch.lanesIn[block.layer].data(),
                batch.acts[block.layer + 1].data() + o0 * L,
                batch.adjs[block.layer].data() + o0 * L, layer.in,
                static_cast<int>(rows), hidden,
                static_cast<int>(batch.lanes),
                /*accumulate=*/k > 0, block.partial.data(),
                block.partialBias.data());
        }
        for (size_t i = 0; i < block.sum.size(); ++i)
            block.sum[i] += block.partial[i];
        for (size_t o = 0; o < rows; ++o)
            block.sumBias[o] += block.partialBias[o];
    }
    // Adam is elementwise, so updating a block of rows runs the
    // whole-vector kernel's per-element formula.
    const double b1 = config_.adamBeta1, b2 = config_.adamBeta2;
    kernels.adamStep(layer.weight.data() + o0 * in, block.sum.data(),
                     layer.mWeight.data() + o0 * in,
                     layer.vWeight.data() + o0 * in, rows * in, b1, b2,
                     corr1, corr2, lr, config_.adamEps);
    kernels.adamStep(layer.bias.data() + o0, block.sumBias.data(),
                     layer.mBias.data() + o0, layer.vBias.data() + o0,
                     rows, b1, b2, corr1, corr2, lr, config_.adamEps);
}

double
Mlp::trainBatch(const std::vector<std::vector<double>> &xs,
                const std::vector<double> &ys, double lr)
{
    FELIX_CHECK(!xs.empty() && xs.size() == ys.size(),
                "trainBatch: bad batch");
    for (const std::vector<double> &x : xs)
        FELIX_CHECK(static_cast<int>(x.size()) == inputSize(),
                    "trainBatch: wrong input size");
    {
        auto &registry = obs::MetricsRegistry::instance();
        registry.counter("costmodel.train_batches").add(1.0);
        registry.counter("costmodel.train_samples")
            .add(static_cast<double>(xs.size()));
    }
    const double invBatch = 1.0 / static_cast<double>(xs.size());

    // Phase 1, per FIXED 16-sample chunk: forward, loss and input
    // adjoints. The chunking — never --jobs — decides every
    // floating-point summation order, so training is bit-identical
    // at any pool size.
    const size_t numChunks = (xs.size() + kTrainChunk - 1) / kTrainChunk;
    if (trainBatches_.size() < numChunks * kBatchesPerChunk)
        trainBatches_.resize(numChunks * kBatchesPerChunk);
    chunkLoss_.resize(numChunks);
    parallelForChunks("costmodel.train_chunk", xs.size(), kTrainChunk,
                      [&](size_t begin, size_t end) {
                          trainForwardBackward(xs, ys, begin, end,
                                               invBatch);
                      });

    // Phase 2, per block of neurons: weight gradients, chunk-order
    // reduction and the Adam step.
    if (trainBlocks_.empty()) {
        constexpr int kBlockRows = 16;
        for (size_t li = 0; li < layers_.size(); ++li)
            for (int o0 = 0; o0 < layers_[li].out; o0 += kBlockRows) {
                TrainBlock block;
                block.layer = li;
                block.o0 = o0;
                block.o1 = std::min(layers_[li].out, o0 + kBlockRows);
                trainBlocks_.push_back(std::move(block));
            }
    }
    ++adamStep_;
    const double corr1 = 1.0 - std::pow(config_.adamBeta1, adamStep_);
    const double corr2 = 1.0 - std::pow(config_.adamBeta2, adamStep_);
    parallelFor("costmodel.train_update", trainBlocks_.size(),
                [&](size_t bi) {
                    trainUpdateBlock(trainBlocks_[bi], numChunks, lr,
                                     corr1, corr2);
                });

    double loss = 0.0;
    for (size_t c = 0; c < numChunks; ++c)
        loss += chunkLoss_[c];
    return loss / static_cast<double>(xs.size());
}

double
Mlp::evaluate(const std::vector<std::vector<double>> &xs,
              const std::vector<double> &ys) const
{
    FELIX_CHECK(xs.size() == ys.size());
    if (xs.empty())
        return 0.0;
    constexpr size_t kChunk = 16;
    std::vector<double> chunkLoss((xs.size() + kChunk - 1) / kChunk,
                                  0.0);
    parallelForChunks("costmodel.evaluate_chunk", xs.size(), kChunk,
                      [&](size_t begin, size_t end) {
                          double local = 0.0;
                          for (size_t i = begin; i < end; ++i) {
                              double err = forward(xs[i]) - ys[i];
                              local += err * err;
                          }
                          chunkLoss[begin / kChunk] = local;
                      });
    double loss = 0.0;
    for (double l : chunkLoss)
        loss += l;
    return loss / static_cast<double>(xs.size());
}

void
Mlp::save(std::ostream &os) const
{
    os << "mlp " << config_.layerSizes.size() << "\n";
    for (int size : config_.layerSizes)
        os << size << " ";
    os << "\n";
    os.precision(17);
    for (const Layer &layer : layers_) {
        for (double w : layer.weight)
            os << w << " ";
        os << "\n";
        for (double b : layer.bias)
            os << b << " ";
        os << "\n";
    }
}

std::optional<Mlp>
Mlp::load(std::istream &is)
{
    std::string tag;
    size_t numSizes = 0;
    is >> tag >> numSizes;
    if (!is || tag != "mlp" || numSizes < 2 || numSizes >= 64)
        return std::nullopt;
    MlpConfig config;
    config.layerSizes.resize(numSizes);
    size_t parameters = 0;
    for (size_t i = 0; i < numSizes; ++i) {
        int &size = config.layerSizes[i];
        if (!(is >> size) || size < 1 || size > kMaxLayerSize)
            return std::nullopt;
        // Both factors are at most kMaxLayerSize, so no overflow.
        if (i > 0)
            parameters += static_cast<size_t>(config.layerSizes[i - 1]) *
                          static_cast<size_t>(size);
        if (parameters > kMaxParameters)
            return std::nullopt;
    }
    if (config.layerSizes.back() != 1)
        return std::nullopt;
    Mlp mlp(config);
    for (Layer &layer : mlp.layers_) {
        for (double &w : layer.weight)
            is >> w;
        for (double &b : layer.bias)
            is >> b;
    }
    if (!is)
        return std::nullopt;
    return mlp;
}

void
Mlp::saveFull(std::ostream &os) const
{
    // precision(17) round-trips every finite double exactly through
    // a correctly-rounded strtod — the same guarantee the tuning
    // records and the pretrained-model cache already rely on.
    save(os);
    os << "adam " << adamStep_ << "\n";
    os.precision(17);
    for (const Layer &layer : layers_) {
        for (double m : layer.mWeight)
            os << m << " ";
        os << "\n";
        for (double v : layer.vWeight)
            os << v << " ";
        os << "\n";
        for (double m : layer.mBias)
            os << m << " ";
        os << "\n";
        for (double v : layer.vBias)
            os << v << " ";
        os << "\n";
    }
}

std::optional<Mlp>
Mlp::loadFull(std::istream &is)
{
    std::optional<Mlp> mlp = load(is);
    if (!mlp)
        return std::nullopt;
    std::string tag;
    is >> tag >> mlp->adamStep_;
    if (!is || tag != "adam")
        return std::nullopt;
    for (Layer &layer : mlp->layers_) {
        for (double &m : layer.mWeight)
            is >> m;
        for (double &v : layer.vWeight)
            is >> v;
        for (double &m : layer.mBias)
            is >> m;
        for (double &v : layer.vBias)
            is >> v;
    }
    if (!is)
        return std::nullopt;
    return mlp;
}

} // namespace costmodel
} // namespace felix
