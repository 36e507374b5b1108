/**
 * @file
 * The fused surrogate gradient step: one round-step of Felix's
 * descent (Algorithm 1 lines 15-18) for a whole lane group of seeds,
 * as a single blocked pass.
 *
 * A lane group holds up to kBatchLanes seeds of one round, of one
 * or several sketches; each sketch's seeds form a tape sub-batch on
 * that sketch's objective tape. One step chains four stages through
 * the engines' internal SoA rows, never through intermediate feature
 * matrices:
 *
 *   per sub-batch: tape forwardBatchKeep   (outputs stay in the slot
 *                                           buffer)
 *     -> standardize its feature rows straight into the MLP input
 *        rows (Mlp::stageInputRows), at the lanes its seeds own
 *   once per group: Mlp::forwardInputGradStaged over the occupied
 *                   lanes only (grad stays in MLP scratch)
 *   per sub-batch: seed tape adjoints straight from the MLP gradient
 *                  rows at its lanes, tape finishBackwardBatch
 *                  (input grads out)
 *
 * Bit-exactness: every lane runs the scalar engine's operation
 * sequence for its seed (GradSearchOptions::useBatch = false) —
 * lanes are independent in the tape and the MLP, so moving a seed to
 * another lane or sharing the MLP pass with other sketches' seeds
 * changes no bit (docs/tape_engine.md §3b, "Packed descent").
 * tests/test_jit.cc asserts it per lane against the scalar engine,
 * on every backend, with and without the JIT.
 */
#ifndef FELIX_COSTMODEL_FUSED_H_
#define FELIX_COSTMODEL_FUSED_H_

#include <cstddef>
#include <vector>

#include "costmodel/cost_model.h"
#include "expr/compiled.h"

namespace felix {
namespace costmodel {

/**
 * One sketch's share of a lane group, with the buffers a step needs
 * for it. Worker-private: a worker reuses its sub-batches across
 * steps, groups and rounds.
 */
struct TapeSubBatch
{
    size_t objective = 0;     ///< index into FusedGradStep's objectives
    std::vector<size_t> lanes; ///< group lane of each tape lane
    /** numVars rows of kBatchLanes doubles: tape lane j of row v is
     *  variable v of the seed at group lane lanes[j]. */
    std::vector<double> inputs;
    /** Written by run(): d(-score + penalty)/d(input), same layout —
     *  the descent direction the seeds' Adam steps consume. */
    std::vector<double> inputGrads;
    expr::BatchEvalState tape;
};

/**
 * Objective tapes + cost model bound for fused stepping. Immutable
 * and thread-safe: workers share one FusedGradStep and bring their
 * own sub-batches and PredictScratch.
 */
class FusedGradStep
{
  public:
    /** A sketch's objective tape: numFeatures smoothed model inputs,
     *  then @p numPenalties constraint penalties (optim/search.cc). */
    struct Objective
    {
        const expr::CompiledExprs *tape = nullptr;
        size_t numPenalties = 0;
    };

    /**
     * @param objectives One per sketch; TapeSubBatch::objective
     *        indexes this list.
     * @param model Fitted cost model (scaler + MLP).
     * @param lambda Penalty weight (GradSearchOptions::lambda).
     */
    FusedGradStep(std::vector<Objective> objectives,
                  const CostModel &model, size_t numFeatures,
                  double lambda);

    /**
     * One surrogate step for a lane group: every sub-batch's tape
     * forward, one model score + input gradient pass over the
     * group's @p width occupied lanes, adjoint seeding and tape
     * backward per sub-batch.
     *
     * @param subs The group's first @p numSubs sub-batches; their
     *        lanes partition [0, width).
     * @param width Occupied lanes, 1..kBatchLanes.
     * @param scores One row; scores[l] is the model score of the
     *        seed at group lane l (occupied lanes only).
     */
    void run(TapeSubBatch *subs, size_t numSubs, size_t width,
             double *scores, PredictScratch &scratch) const;

  private:
    std::vector<Objective> objectives_;
    const CostModel &model_;
    size_t numFeatures_;
    double lambda_;
};

} // namespace costmodel
} // namespace felix

#endif // FELIX_COSTMODEL_FUSED_H_
