/**
 * @file
 * The pretrained cost model C (paper §3.3-§3.4).
 *
 * Maps a concrete 82-feature vector to a predicted performance
 * score (higher = faster; the training target is -log(latency)).
 * Inputs pass through the transform phi(f) = log(max(f, 1)) —
 * matching the symbolic feature pipeline, whose smoothed formulas
 * approximate the same quantity — followed by per-feature
 * standardization. The model exposes the gradient of the score with
 * respect to the transformed features, which Felix chains into the
 * reverse-mode tape of the feature formulas (Algorithm 1, line 18).
 */
#ifndef FELIX_COSTMODEL_COST_MODEL_H_
#define FELIX_COSTMODEL_COST_MODEL_H_

#include <optional>
#include <string>
#include <vector>

#include "costmodel/mlp.h"

namespace felix {
namespace costmodel {

/** One training sample: raw features and measured latency. */
struct Sample
{
    std::vector<double> rawFeatures;
    double latencySec = 0.0;
};

/** Per-feature standardization fitted on transformed features. */
class Scaler
{
  public:
    void fit(const std::vector<std::vector<double>> &transformed);
    std::vector<double> apply(const std::vector<double> &x) const;
    const std::vector<double> &means() const { return mean_; }
    const std::vector<double> &stddevs() const { return std_; }
    bool fitted() const { return !mean_.empty(); }

    void save(std::ostream &os) const;
    /** nullopt when the stream runs out or holds a non-number. */
    static std::optional<Scaler> load(std::istream &is, size_t size);

  private:
    std::vector<double> mean_, std_;
};

/**
 * Reusable buffers for the batched predict paths: one per worker,
 * allocated on first use and reused so steady-state batched
 * inference performs no allocation.
 */
struct PredictScratch
{
    MlpBatchScratch mlp;
    std::vector<double> scaled;   ///< inputSize rows of kBatchLanes
};

/** Quality metrics of a cost model on a held-out set. */
struct ModelMetrics
{
    double mse = 0.0;           ///< on the -log(latency) target
    double rankCorrelation = 0; ///< Spearman-like pairwise accuracy
};

/**
 * The trainable cost model. Create, fit() on a dataset (or load a
 * pretrained file), then predict()/predictWithGrad() during search
 * and finetune() with fresh measurements after each round.
 */
class CostModel
{
  public:
    explicit CostModel(MlpConfig config = {}, uint64_t seed = 1);

    /** phi(f) = log(max(f, 1)): the model-input transform. */
    static double inputTransform(double raw_feature);
    static std::vector<double> transformFeatures(
        const std::vector<double> &raw);

    /** Training target: higher-is-better score of a latency. */
    static double targetOf(double latency_sec);
    /** Inverse of targetOf. */
    static double latencyOf(double score);

    /** Fit scaler + network from scratch. */
    void fit(const std::vector<Sample> &samples, int epochs = 12,
             int batch_size = 128, double lr = 1e-3);

    /**
     * A few gradient steps on fresh measurements (keeps scaler).
     * @return the mean MSE across the steps taken (the fine-tune
     *         loss reported in the per-round telemetry), or a
     *         negative value when nothing was trained.
     */
    double finetune(const std::vector<Sample> &samples, int steps = 16,
                    double lr = 2e-4);

    /** Predicted score from raw features (higher = faster). */
    double predict(const std::vector<double> &raw_features) const;

    /**
     * Predicted score plus d(score)/d(transformed feature) — the
     * gradient Felix chains into the symbolic feature tape.
     */
    double predictWithGrad(const std::vector<double> &raw_features,
                           std::vector<double> &grad) const;

    /** Score + gradient, starting from already-transformed inputs. */
    double predictTransformedWithGrad(
        const std::vector<double> &transformed,
        std::vector<double> &grad) const;

    /**
     * Batched predict() over kBatchLanes raw feature vectors in SoA
     * rows (raw[i * kBatchLanes + lane] = feature i of point
     * `lane`); scores is one row. Lanes are independent and each is
     * bit-identical to the scalar predict() of that point; pad
     * unused lanes with any finite values.
     */
    void predictBatch(const double *raw, double *scores,
                      PredictScratch &scratch) const;

    /**
     * Batched predictTransformedWithGrad(): scores is one row,
     * grads is inputSize rows of d(score)/d(transformed feature).
     * Per lane bit-identical to the scalar overload.
     */
    void predictTransformedWithGradBatch(const double *transformed,
                                         double *scores,
                                         double *grads,
                                         PredictScratch &scratch) const;

    // ----- Fused-step accessors (costmodel/fused.h) --------------
    // FusedGradStep runs the model's pieces (standardization, MLP,
    // target centering) inline between the two tape sweeps; these
    // expose exactly what predictTransformedWithGradBatch combines.
    const Mlp &mlp() const { return mlp_; }
    const Scaler &scaler() const { return scaler_; }
    double targetMean() const { return targetMean_; }

    ModelMetrics validate(const std::vector<Sample> &samples) const;

    void save(const std::string &path) const;
    /** nullopt when the file is missing or malformed in any way
     *  (pretrainedCostModel then retrains and rewrites it). */
    static std::optional<CostModel> tryLoad(const std::string &path);

    /**
     * Full trainable state (network weights, Adam moments, scaler,
     * target centering) to/from a stream, so a checkpointed tuner
     * resumes fine-tuning bit-identically to an uninterrupted run.
     * save()/tryLoad() stay the inference-oriented pretrained-cache
     * format; this is the checkpoint payload format.
     */
    void saveState(std::ostream &os) const;
    static std::optional<CostModel> loadState(std::istream &is);

  private:
    MlpConfig config_;
    Rng rng_;       ///< declared before mlp_: used to initialize it
    Mlp mlp_;
    Scaler scaler_;
    /** Target centering: the MLP learns score - targetMean_. */
    double targetMean_ = 0.0;
};

} // namespace costmodel
} // namespace felix

#endif // FELIX_COSTMODEL_COST_MODEL_H_
