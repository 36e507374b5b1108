#include "costmodel/fused.h"

#include "support/batch.h"
#include "support/logging.h"

namespace felix {
namespace costmodel {

FusedGradStep::FusedGradStep(std::vector<Objective> objectives,
                             const CostModel &model,
                             size_t numFeatures, double lambda)
    : objectives_(std::move(objectives)), model_(model),
      numFeatures_(numFeatures), lambda_(lambda)
{
    FELIX_CHECK(model_.scaler().fitted(),
                "FusedGradStep on an unfitted cost model");
    FELIX_CHECK(model_.scaler().means().size() == numFeatures_,
                "FusedGradStep: tape emits ", numFeatures_,
                " features but the model expects ",
                model_.scaler().means().size());
    for (const Objective &objective : objectives_)
        FELIX_CHECK(objective.tape->numOutputs() ==
                        numFeatures_ + objective.numPenalties,
                    "FusedGradStep: objective outputs don't match "
                    "features + penalties");
}

void
FusedGradStep::run(TapeSubBatch *subs, size_t numSubs, size_t width,
                   double *scores, PredictScratch &scratch) const
{
    constexpr size_t L = kBatchLanes;
    const Mlp &mlp = model_.mlp();
    const double *means = model_.scaler().means().data();
    const double *stds = model_.scaler().stddevs().data();

    // Tape forwards, each standardizing its feature rows straight out
    // of the slot buffer into the network's input rows at the lanes
    // its seeds own — the same per-lane arithmetic as
    // CostModel::predictTransformedWithGrad.
    double *xRows = mlp.stageInputRows(scratch.mlp);
    for (size_t s = 0; s < numSubs; ++s) {
        TapeSubBatch &sub = subs[s];
        const expr::CompiledExprs &tape =
            *objectives_[sub.objective].tape;
        const size_t n = sub.lanes.size();
        tape.forwardBatchKeep(sub.inputs.data(), n, sub.tape);
        for (size_t k = 0; k < numFeatures_; ++k) {
            const double *in = tape.outputRowPtr(k, sub.tape);
            double *out = &xRows[k * L];
            for (size_t j = 0; j < n; ++j)
                out[sub.lanes[j]] = (in[j] - means[k]) / stds[k];
        }
    }

    double y[kBatchLanes];
    mlp.forwardInputGradStaged(y, width, scratch.mlp);
    for (size_t l = 0; l < width; ++l)
        scores[l] = model_.targetMean() + y[l];

    // Seed each tape's adjoints from the MLP gradient rows at its
    // lanes: adj += -(grad / sigma), the scalar engine's operations
    // in its order (the adjoint rows were just zeroed).
    const double *gRows = mlp.inputGradRows(scratch.mlp);
    for (size_t s = 0; s < numSubs; ++s) {
        TapeSubBatch &sub = subs[s];
        const Objective &objective = objectives_[sub.objective];
        const expr::CompiledExprs &tape = *objective.tape;
        const size_t n = sub.lanes.size();
        tape.beginBackwardBatch(sub.tape);
        for (size_t k = 0; k < numFeatures_; ++k) {
            const double *g = &gRows[k * L];
            double *adj = tape.outputAdjRowPtr(k, sub.tape);
            for (size_t j = 0; j < n; ++j)
                adj[j] += -(g[sub.lanes[j]] / stds[k]);
        }
        // Penalty seeds: lambda * d(p^2)/dp for violated
        // constraints. The scalar engine adds an explicit 0.0 for
        // satisfied ones — a bitwise no-op on the zeroed rows — so
        // skipping the add is bit-identical.
        for (size_t p = 0; p < objective.numPenalties; ++p) {
            const double *out =
                tape.outputRowPtr(numFeatures_ + p, sub.tape);
            double *adj =
                tape.outputAdjRowPtr(numFeatures_ + p, sub.tape);
            for (size_t j = 0; j < n; ++j) {
                const double v = out[j];
                if (v > 0.0)
                    adj[j] += lambda_ * 2.0 * v;
            }
        }
        sub.inputGrads.resize(tape.numVars() * L);
        tape.finishBackwardBatch(sub.inputGrads.data(), sub.tape);
    }
}

} // namespace costmodel
} // namespace felix
