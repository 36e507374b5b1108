/**
 * @file
 * Multi-layer perceptron with Adam training.
 *
 * The paper uses TenSet's MLP cost model (4 linear layers) trained
 * with PyTorch; this is a from-scratch C++ equivalent. Beyond the
 * usual parameter gradients it exposes the *input* gradient — the
 * quantity Felix back-propagates into the differentiable feature
 * formulas during schedule search.
 *
 * The default layer sizes are smaller than TenSet's ~250K-parameter
 * network because training here runs on one CPU core; DESIGN.md
 * documents the substitution.
 */
#ifndef FELIX_COSTMODEL_MLP_H_
#define FELIX_COSTMODEL_MLP_H_

#include <iosfwd>
#include <optional>
#include <vector>

#include "support/aligned.h"
#include "support/batch.h"
#include "support/rng.h"

namespace felix {
namespace costmodel {

/**
 * Reusable buffers for the scalar forward/forwardInputGrad paths.
 * Hot loops (gradient descent, candidate ranking) keep one of these
 * per worker so steady-state inference performs no allocation; the
 * buffers grow to the network's working-set size on first use and
 * are reused verbatim afterwards.
 */
struct MlpScratch
{
    std::vector<double> cur, next;          ///< forward activations
    std::vector<std::vector<double>> acts;  ///< per-layer (input grad)
    std::vector<double> adj, prev;          ///< backward adjoints
};

/**
 * Scratch for the batched entry points: the same buffers with one
 * row of kBatchLanes doubles per neuron, lane-major within the row.
 * Rows are cache-line-aligned so every SIMD backend's loads and
 * stores stay within one line (support/aligned.h).
 */
struct MlpBatchScratch
{
    AlignedRows cur, next;
    std::vector<AlignedRows> acts;
    AlignedRows adj, prev;
    AlignedRows madj;  ///< ReLU-masked adjoint rows
};

/** MLP shape: sizes of every layer including input and output. */
struct MlpConfig
{
    std::vector<int> layerSizes = {82, 128, 128, 64, 1};
    double adamBeta1 = 0.9;
    double adamBeta2 = 0.999;
    double adamEps = 1e-8;
};

/**
 * Fully connected ReLU network with a linear head.
 *
 * forward()/forwardInputGrad() are const and safe to call from many
 * threads at once. trainBatch() mutates parameters and its training
 * scratch (not reentrant) but internally fans the work out over the
 * global pool — fixed 16-sample chunks, then blocks of neurons that
 * reduce the chunks in chunk order — so training results are
 * identical for any --jobs value.
 */
class Mlp
{
  public:
    Mlp(MlpConfig config, Rng &rng);

    int inputSize() const { return config_.layerSizes.front(); }
    size_t parameterCount() const;

    /** Forward pass; input size must equal inputSize(). */
    double forward(const std::vector<double> &x,
                   MlpScratch &scratch) const;

    /**
     * Forward pass plus the gradient of the output with respect to
     * the input vector (the path Felix's gradient descent uses).
     */
    double forwardInputGrad(const std::vector<double> &x,
                            std::vector<double> &dx,
                            MlpScratch &scratch) const;

    // Allocating convenience overloads (thin wrappers over the
    // scratch versions; construct a throwaway scratch per call).
    double forward(const std::vector<double> &x) const;
    double forwardInputGrad(const std::vector<double> &x,
                            std::vector<double> &dx) const;

    /**
     * Evaluate kBatchLanes inputs in lockstep. All buffers are SoA
     * rows of kBatchLanes doubles: x[i * kBatchLanes + lane] is
     * feature i of point `lane`, y is one row of scores. Lanes are
     * fully independent (the ReLU gates are per lane), so each
     * lane's score is bit-identical to a scalar forward() of that
     * point; callers with partial batches pad the unused lanes with
     * any finite values.
     */
    void forwardBatch(const double *x, double *y,
                      MlpBatchScratch &scratch) const;

    /**
     * Batched forward plus input gradient: y is one row of scores,
     * dx is inputSize() rows of d(score)/d(input). Per lane
     * bit-identical to forwardInputGrad() (row-major GEMM-style
     * loops over the same accumulation order).
     */
    void forwardInputGradBatch(const double *x, double *y,
                               double *dx,
                               MlpBatchScratch &scratch) const;

    // ----- Staged entry points (costmodel/fused.h) ---------------
    //
    // The fused surrogate step writes features straight into the
    // network's input rows and reads the input gradient straight out
    // of the adjoint rows, skipping the x/dx round-trips of
    // forwardInputGradBatch (which is implemented on top of these,
    // so both paths run the identical kernel sequence bit for bit).

    /** The input rows (inputSize() x kBatchLanes) to fill before
     *  forwardInputGradStaged(). Sized on first use. */
    double *stageInputRows(MlpBatchScratch &scratch) const;

    /** forwardInputGradBatch over the first @p lanes lanes
     *  (1..kBatchLanes) of the stageInputRows() rows, leaving the
     *  input-gradient rows in @p scratch (read them via
     *  inputGradRows()). Fills y[0..lanes). The layer kernels sweep
     *  only those lanes rounded up to the backend's vector width;
     *  this zeroes the input rows' padding lanes in that range, so
     *  callers fill the occupied lanes only. */
    void forwardInputGradStaged(double *y, size_t lanes,
                                MlpBatchScratch &scratch) const;

    /** Input-gradient rows left by forwardInputGradStaged(); valid
     *  until the next call on @p scratch. */
    const double *inputGradRows(const MlpBatchScratch &scratch) const
    {
        return scratch.adj.data();
    }

    /**
     * One Adam step on a mini-batch with MSE loss.
     *
     * Each fixed 16-sample chunk runs as SoA batches through the
     * blocked layer kernels (forward, input adjoints); then blocks
     * of neurons build their weight gradients chunk by chunk, sum
     * the chunk partials in chunk order and take their Adam step.
     * Per element every sum runs in the order of a plain per-sample
     * backprop loop, so losses, weights and Adam moments are
     * bit-identical to that loop at every --jobs, SIMD backend and
     * kBatchLanes (docs/tape_engine.md section 3d;
     * tests/mlp_train_oracle.h keeps the loop as the reference).
     * @return the batch mean squared error before the update.
     */
    double trainBatch(const std::vector<std::vector<double>> &xs,
                      const std::vector<double> &ys, double lr);

    /** Mean squared error over a dataset (no update). */
    double evaluate(const std::vector<std::vector<double>> &xs,
                    const std::vector<double> &ys) const;

    void save(std::ostream &os) const;
    /** nullopt on any malformed input: a bad header, a layer size
     *  outside [1, kMaxLayerSize], more than kMaxParameters weights,
     *  a non-scalar head, or truncated values. */
    static std::optional<Mlp> load(std::istream &is);

    /** Loading limits: far above any cost model here (the default
     *  has ~35k parameters), far below an allocation that can fail. */
    static constexpr int kMaxLayerSize = 1 << 16;
    static constexpr size_t kMaxParameters = size_t{1} << 22;

    /**
     * Full-state serialization: weights and biases plus the Adam
     * moments and step counter, so a loaded network continues
     * training bit-identically to one that never stopped. save()
     * (inference-only) stays the pretrained-cache format; this is
     * the checkpoint format (docs/distributed.md).
     */
    void saveFull(std::ostream &os) const;
    static std::optional<Mlp> loadFull(std::istream &is);

  private:
    /** The per-sample reference trainer (tests/mlp_train_oracle.h). */
    friend struct MlpTrainOracle;

    explicit Mlp(MlpConfig config);

    struct Layer
    {
        int in = 0, out = 0;
        std::vector<double> weight;   ///< out x in, row-major
        std::vector<double> bias;     ///< out
        // Adam state
        std::vector<double> mWeight, vWeight, mBias, vBias;
    };

    static void forwardLayerBatch(const Layer &layer, bool hidden,
                                  size_t lanes, const AlignedRows &cur,
                                  AlignedRows &out);

    /** One SoA batch of a training step: up to kBatchLanes samples
     *  of one 16-sample chunk, kept from the forward/backward phase
     *  for the weight-gradient phase. */
    struct TrainBatch
    {
        size_t lanes = 0;               ///< live samples, 0 = unused
        std::vector<AlignedRows> acts;  ///< layer inputs + output, SoA
        std::vector<AlignedRows> adjs;  ///< adjs[li]: d loss/d out li
        std::vector<std::vector<double>> lanesIn; ///< acts, lane-major
        AlignedRows madj;               ///< masked-adjoint scratch
    };
    /** A block of one layer's neurons in the weight-gradient phase:
     *  its rows of the chunk partial and of the chunk-order sum. */
    struct TrainBlock
    {
        size_t layer = 0;
        int o0 = 0, o1 = 0;  ///< neurons [o0, o1)
        std::vector<double> partial, sum, partialBias, sumBias;
    };

    void trainForwardBackward(const std::vector<std::vector<double>> &xs,
                              const std::vector<double> &ys,
                              size_t begin, size_t end,
                              double inv_batch);
    void trainUpdateBlock(TrainBlock &block, size_t num_chunks,
                          double lr, double corr1, double corr2);

    MlpConfig config_;
    std::vector<Layer> layers_;
    int64_t adamStep_ = 0;
    // Training scratch, sized on first use and reused by every step
    // (each batch, loss and block slot is written by one worker).
    std::vector<TrainBatch> trainBatches_;
    std::vector<double> chunkLoss_;
    std::vector<TrainBlock> trainBlocks_;
};

} // namespace costmodel
} // namespace felix

#endif // FELIX_COSTMODEL_MLP_H_
