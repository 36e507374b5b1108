#include "optim/search.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>
#include <unordered_set>

#include "costmodel/fused.h"
#include "features/features.h"
#include "optim/dedup.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rewrite/transforms.h"
#include "support/logging.h"
#include "support/parallel.h"

namespace felix {
namespace optim {

using expr::Expr;

std::vector<double>
SearchStrategy::featuresOf(const Candidate &candidate)
{
    return candidate.rawFeatures;
}

void
writeCandidate(std::ostream &os, const Candidate &candidate)
{
    os.precision(17);
    os << candidate.sketchIndex << " " << candidate.x.size();
    for (double v : candidate.x)
        os << " " << v;
    os << " " << candidate.rawFeatures.size();
    for (double f : candidate.rawFeatures)
        os << " " << f;
    os << " " << candidate.predictedScore << "\n";
}

bool
readCandidate(std::istream &is, Candidate &out)
{
    Candidate candidate;
    size_t numVars = 0;
    if (!(is >> candidate.sketchIndex >> numVars) || numVars > 4096)
        return false;
    candidate.x.resize(numVars);
    for (double &v : candidate.x) {
        if (!(is >> v))
            return false;
    }
    size_t numFeatures = 0;
    if (!(is >> numFeatures) || numFeatures > 65536)
        return false;
    candidate.rawFeatures.resize(numFeatures);
    for (double &f : candidate.rawFeatures) {
        if (!(is >> f))
            return false;
    }
    if (!(is >> candidate.predictedScore))
        return false;
    out = std::move(candidate);
    return true;
}

void
GradientSearch::observe(const Candidate &candidate,
                        double measured_latency_sec)
{
    if (bestMeasuredLatency_ < 0.0 ||
        measured_latency_sec < bestMeasuredLatency_) {
        bestMeasuredLatency_ = measured_latency_sec;
        bestMeasured_ = candidate;
    }
}

void
GradientSearch::saveState(std::ostream &os) const
{
    os.precision(17);
    os << "grad-search v1 " << bestMeasuredLatency_ << "\n";
    writeCandidate(os, bestMeasured_);
}

bool
GradientSearch::loadState(std::istream &is)
{
    std::string tag, version;
    double bestLatency = 0.0;
    if (!(is >> tag >> version >> bestLatency) ||
        tag != "grad-search" || version != "v1")
        return false;
    Candidate best;
    if (!readCandidate(is, best))
        return false;
    bestMeasuredLatency_ = bestLatency;
    bestMeasured_ = std::move(best);
    return true;
}

namespace {

/** Times sketch + tape construction into the shared phase metrics. */
std::vector<sketch::SymbolicSchedule>
generateSketchesTimed(const tir::SubgraphDef &subgraph,
                      const sketch::GenOptions &options)
{
    auto &registry = obs::MetricsRegistry::instance();
    obs::ScopedTimerMs timer(registry.counter("sketch.generate_ms"));
    FELIX_SPAN("sketch.generate", "sketch");
    auto sketches = sketch::generateSketches(subgraph, options);
    registry.counter("sketch.generated")
        .add(static_cast<double>(sketches.size()));
    return sketches;
}

} // namespace

GradientSearch::GradientSearch(const tir::SubgraphDef &subgraph,
                               GradSearchOptions options)
    : options_(std::move(options)),
      sketches_(generateSketchesTimed(subgraph,
                                      options_.sketchOptions))
{
    obs::ScopedTimerMs timer(obs::MetricsRegistry::instance().counter(
        "search.compile_tapes_ms"));
    FELIX_SPAN("search.compile_tapes", "search");
    // Sketches compile independently; interning the rewritten
    // formulas is thread-safe (sharded intern table).
    contexts_.resize(sketches_.size());
    parallelFor("search.compile_tape", sketches_.size(), [&](size_t
                                                                 si) {
        const sketch::SymbolicSchedule &sched = sketches_[si];
        SketchContext context;
        context.sched = &sched;
        for (const auto &domain : sched.vars)
            context.varNames.push_back(domain.name);

        // Exact x-space feature formulas (candidate evaluation and
        // hardware measurement path). Ranking never differentiates
        // them, so the tape opts into the forward-only optimizer
        // passes.
        auto raw = features::extractFeatures(sched.program);
        context.rawFeatures = std::make_unique<expr::CompiledExprs>(
            raw, context.varNames, /*forward_only=*/true);

        // Differentiable objective tape: smoothed model inputs
        // log(max(f,1)) composed with the e^y substitution, plus the
        // smoothed legality constraints g_ir(e^y). The ablation
        // knobs can disable either rewrite stage.
        std::vector<Expr> outputs = rewrite::objectiveFormulas(
            raw, sched.constraints, context.varNames, options_.kernel,
            options_.applySmoothing, options_.applyLogExp);
        context.numPenalties = sched.constraints.size();
        context.objective = std::make_unique<expr::CompiledExprs>(
            outputs, context.varNames);
        context.checker =
            std::make_unique<sketch::ConstraintChecker>(sched);
        contexts_[si] = std::move(context);
    });
}

namespace {

/** Everything one seed's descent produces, merged in seed order. */
struct SeedOutcome
{
    std::vector<double> visitedScores;
    std::vector<double> x0;        ///< valid start point (x space)
    /** The iterate after every Adam step: nSteps rows of numVars. */
    std::vector<double> iterates;
    /** Valid rounded points in visit order (x0 last). */
    std::vector<std::vector<double>> validPoints;
    int roundingAttempts = 0;
    int roundingInvalid = 0;
};

/**
 * Per-worker scratch for the batched descent and ranking paths:
 * tape + model buffers plus the SoA staging rows, allocated once per
 * worker thread and reused across lane groups, batches and rounds.
 */
struct WorkerBatchScratch
{
    expr::BatchEvalState tape;
    costmodel::PredictScratch predict;
    std::vector<double> inputs, outputs;
    std::vector<costmodel::TapeSubBatch> subs;
    std::vector<double> laneGrad;
};

WorkerBatchScratch &
workerScratch()
{
    static thread_local WorkerBatchScratch scratch;
    return scratch;
}

} // namespace

RoundResult
GradientSearch::round(const costmodel::CostModel &model, Rng &rng)
{
    FELIX_SPAN("search.round", "search");
    auto &registry = obs::MetricsRegistry::instance();

    RoundResult result;
    result.trace.seedsLaunched = options_.nSeeds;
    const int numFeatures = features::kNumFeatures;
    const size_t numSeeds = static_cast<size_t>(options_.nSeeds);
    const size_t numSteps = static_cast<size_t>(options_.nSteps);
    const size_t numSketches = contexts_.size();

    // Each seed descends independently: forked rng, private Adam
    // state and eval scratch, results merged below in seed order so
    // --jobs N matches --jobs 1 bit for bit. Seed s descends on
    // sketch s % numSketches.
    std::vector<Rng> seedRngs = rng.forkStreams(options_.nSeeds);
    std::vector<SeedOutcome> outcomes(numSeeds);

    // RandomInitSchedVars: rejection-sample a valid start; with the
    // e^y substitution the iterate lives in log space. One seed
    // warm-starts from the best measured schedule so late rounds
    // refine around the incumbent (Ansor keeps elites the same way).
    auto startSeed = [&](size_t seed, std::vector<double> &y) {
        const size_t sketchIdx = seed % numSketches;
        SeedOutcome &outcome = outcomes[seed];
        if (seed == 0 && bestMeasuredLatency_ > 0.0 &&
            bestMeasured_.sketchIndex == static_cast<int>(sketchIdx)) {
            outcome.x0 = bestMeasured_.x;
        } else {
            outcome.x0 = sketch::sampleValid(*contexts_[sketchIdx].sched,
                                             seedRngs[seed]);
        }
        y.resize(outcome.x0.size());
        for (size_t i = 0; i < y.size(); ++i) {
            y[i] = options_.applyLogExp
                       ? std::log(std::max(1.0, outcome.x0[i]))
                       : outcome.x0[i];
        }
        outcome.iterates.reserve(numSteps * y.size());
    };

    if (options_.useBatch) {
        // Seeds descend in lockstep lane groups of up to kBatchLanes
        // seeds; each sketch's seeds in a group form one tape
        // sub-batch, and one MLP pass per step serves the whole group
        // over its occupied lanes (costmodel/fused.h). On one thread
        // all of a round's seeds share groups whatever their sketch,
        // so a step pays one MLP pass for every sketch. With spare
        // workers each sketch's seeds form their own groups instead,
        // and the sketches' tape sweeps run side by side. Each lane
        // carries exactly the per-seed state the scalar path would
        // (rng, Adam, iterate), and every batched kernel is per-lane
        // bit-identical to its scalar counterpart whatever lane it
        // runs in — so the outcome per seed is bit-identical to the
        // scalar branch below under either grouping.
        constexpr size_t L = kBatchLanes;
        const size_t groupSketches = globalJobs() > 1 ? numSketches : 1;
        std::vector<std::vector<size_t>> groups;
        for (size_t sk = 0; sk < groupSketches; ++sk) {
            for (size_t seed = sk; seed < numSeeds;
                 seed += groupSketches) {
                if (seed == sk || groups.back().size() == L)
                    groups.emplace_back();
                groups.back().push_back(seed);
            }
        }
        // Which sketches a group holds, in order of first lane.
        auto groupObjectives = [&](const std::vector<size_t> &seeds) {
            std::vector<size_t> objectives;
            for (size_t seed : seeds)
                if (std::find(objectives.begin(), objectives.end(),
                              seed % numSketches) == objectives.end())
                    objectives.push_back(seed % numSketches);
            return objectives;
        };
        size_t tapeBatches = 0;
        for (const std::vector<size_t> &seeds : groups)
            tapeBatches += groupObjectives(seeds).size();
        registry.counter("search.seed_batches")
            .add(static_cast<double>(groups.size()));
        registry.counter("search.tape_batches")
            .add(static_cast<double>(tapeBatches));

        std::vector<costmodel::FusedGradStep::Objective> objectives;
        objectives.reserve(numSketches);
        for (const SketchContext &context : contexts_)
            objectives.push_back(
                {context.objective.get(), context.numPenalties});
        const costmodel::FusedGradStep fused(
            std::move(objectives), model,
            static_cast<size_t>(numFeatures), options_.lambda);

        parallelFor("search.seed_batch", groups.size(), [&](size_t g) {
            const std::vector<size_t> &seeds = groups[g];
            const size_t width = seeds.size();
            WorkerBatchScratch &ws = workerScratch();

            const std::vector<size_t> subObjectives =
                groupObjectives(seeds);
            const size_t numSubs = subObjectives.size();
            if (ws.subs.size() < numSubs)
                ws.subs.resize(numSubs);
            for (size_t s = 0; s < numSubs; ++s) {
                costmodel::TapeSubBatch &sub = ws.subs[s];
                sub.objective = subObjectives[s];
                sub.lanes.clear();
                for (size_t l = 0; l < width; ++l)
                    if (seeds[l] % numSketches == sub.objective)
                        sub.lanes.push_back(l);
                sub.inputs.resize(
                    contexts_[sub.objective].varNames.size() * L);
            }

            std::vector<std::vector<double>> y(width);
            std::vector<Adam> adams;
            adams.reserve(width);
            for (size_t l = 0; l < width; ++l) {
                startSeed(seeds[l], y[l]);
                adams.emplace_back(y[l].size(), options_.adam);
            }

            double scores[kBatchLanes];
            for (size_t step = 0; step < numSteps; ++step) {
                for (size_t s = 0; s < numSubs; ++s) {
                    costmodel::TapeSubBatch &sub = ws.subs[s];
                    for (size_t j = 0; j < sub.lanes.size(); ++j) {
                        const std::vector<double> &yl = y[sub.lanes[j]];
                        for (size_t v = 0; v < yl.size(); ++v)
                            sub.inputs[v * L + j] = yl[v];
                    }
                }
                fused.run(ws.subs.data(), numSubs, width, scores,
                          ws.predict);
                for (size_t l = 0; l < width; ++l)
                    outcomes[seeds[l]].visitedScores.push_back(
                        scores[l]);

                for (size_t s = 0; s < numSubs; ++s) {
                    const costmodel::TapeSubBatch &sub = ws.subs[s];
                    for (size_t j = 0; j < sub.lanes.size(); ++j) {
                        const size_t l = sub.lanes[j];
                        ws.laneGrad.resize(y[l].size());
                        for (size_t v = 0; v < y[l].size(); ++v)
                            ws.laneGrad[v] = sub.inputGrads[v * L + j];
                        adams[l].step(y[l], ws.laneGrad);
                        std::vector<double> &iterates =
                            outcomes[seeds[l]].iterates;
                        iterates.insert(iterates.end(), y[l].begin(),
                                        y[l].end());
                    }
                }
            }
        });
    } else {
    parallelFor("search.seed_descent", numSeeds, [&](size_t seed) {
        const SketchContext &context = contexts_[seed % numSketches];
        SeedOutcome &outcome = outcomes[seed];
        std::vector<double> y;
        startSeed(seed, y);

        Adam adam(y.size(), options_.adam);
        expr::EvalState evalState;
        std::vector<double> outputs, outputGrads, inputGrads;
        std::vector<double> modelInputs(numFeatures);
        std::vector<double> modelGrad;

        for (size_t step = 0; step < numSteps; ++step) {
            context.objective->forward(y, outputs, evalState);
            for (int k = 0; k < numFeatures; ++k)
                modelInputs[k] = outputs[k];
            const double score = model.predictTransformedWithGrad(
                modelInputs, modelGrad);
            outcome.visitedScores.push_back(score);

            // d(O)/d(outputs): -dC/dz for the features, and
            // lambda * 2 * max(g, 0) for each penalty term.
            outputGrads.assign(outputs.size(), 0.0);
            for (int k = 0; k < numFeatures; ++k)
                outputGrads[k] = -modelGrad[k];
            for (size_t p = 0; p < context.numPenalties; ++p) {
                const double g = outputs[numFeatures + p];
                if (g > 0.0) {
                    outputGrads[numFeatures + p] =
                        options_.lambda * 2.0 * g;
                }
            }
            context.objective->backward(outputGrads, inputGrads,
                                        evalState);
            adam.step(y, inputGrads);
            outcome.iterates.insert(outcome.iterates.end(), y.begin(),
                                    y.end());
        }
    });
    }

    // Round every visited iterate to a valid schedule
    // (GetValidSchedules over the whole history). Rounding is pure
    // and nothing in the descent reads it, so it runs here, off the
    // descent's critical path, in parallel over seeds.
    {
        FELIX_SPAN("search.round_to_valid", "search");
        parallelFor("search.round_seed", numSeeds, [&](size_t seed) {
            const SketchContext &context =
                contexts_[seed % numSketches];
            const size_t numVars = context.varNames.size();
            SeedOutcome &outcome = outcomes[seed];
            std::vector<double> logPoint(numVars);
            for (size_t step = 0; step < numSteps; ++step) {
                const double *iterate =
                    outcome.iterates.data() + step * numVars;
                logPoint.assign(iterate, iterate + numVars);
                if (!options_.applyLogExp) {
                    for (double &v : logPoint)
                        v = std::log(std::max(1e-9, v));
                }
                auto rounded = sketch::roundToValid(
                    *context.sched, logPoint, *context.checker);
                ++outcome.roundingAttempts;
                if (rounded) {
                    outcome.validPoints.push_back(std::move(*rounded));
                } else {
                    ++outcome.roundingInvalid;
                }
            }
            // The starting point is a valid schedule too.
            outcome.validPoints.push_back(std::move(outcome.x0));
        });
    }

    // Deduplicated valid candidates across all seeds and steps,
    // keyed by a cheap canonical hash of (sketch, x). The single
    // sort below restores the (sketch, lexicographic x) order the
    // ordered map historically provided, so the ranking input stays
    // deterministic and identical to the old container for any
    // insertion order.
    std::unordered_set<CandidateKey, CandidateKeyHash> seen;
    {
        size_t totalPoints = 0;
        for (const SeedOutcome &outcome : outcomes)
            totalPoints += outcome.validPoints.size();
        seen.reserve(totalPoints);
    }
    for (size_t seed = 0; seed < numSeeds; ++seed) {
        const int sketchIdx = static_cast<int>(seed % numSketches);
        SeedOutcome &outcome = outcomes[seed];
        result.trace.visitedScores.insert(
            result.trace.visitedScores.end(),
            outcome.visitedScores.begin(),
            outcome.visitedScores.end());
        result.trace.numPredictions +=
            static_cast<int>(outcome.visitedScores.size());
        result.trace.roundingAttempts += outcome.roundingAttempts;
        result.trace.roundingInvalid += outcome.roundingInvalid;
        for (std::vector<double> &x : outcome.validPoints)
            seen.insert(CandidateKey{sketchIdx, std::move(x)});
    }
    registry.counter("search.seeds").add(options_.nSeeds);
    registry.counter("search.adam_steps")
        .add(static_cast<double>(options_.nSeeds) * options_.nSteps);
    registry.counter("search.rounding_attempts")
        .add(result.trace.roundingAttempts);
    registry.counter("search.rounding_invalid")
        .add(result.trace.roundingInvalid);

    // Rank all valid rounded schedules by predicted performance
    // (exact features, not the smoothed surrogate) and keep the top
    // nMeasure. Each candidate scores into its own slot.
    FELIX_SPAN("search.rank_candidates", "search");
    std::vector<Candidate> candidates;
    candidates.reserve(seen.size());
    for (const CandidateKey &key : seen)
        candidates.push_back(Candidate{key.sketchIdx, key.x, {}, 0.0});
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.sketchIndex != b.sketchIndex)
                      return a.sketchIndex < b.sketchIndex;
                  return a.x < b.x;
              });
    if (options_.useBatch) {
        // Same-sketch candidates are contiguous after the sort, so
        // each batch shares one feature tape; the tape's output rows
        // flow into the batched MLP without repacking.
        struct RankBatch
        {
            size_t begin = 0, end = 0;
        };
        std::vector<RankBatch> rankBatches;
        for (size_t i = 0; i < candidates.size();) {
            size_t runEnd = i;
            while (runEnd < candidates.size() &&
                   candidates[runEnd].sketchIndex ==
                       candidates[i].sketchIndex)
                ++runEnd;
            for (size_t b = i; b < runEnd; b += kBatchLanes)
                rankBatches.push_back(
                    RankBatch{b, std::min(runEnd, b + kBatchLanes)});
            i = runEnd;
        }
        parallelFor(
            "search.rank_batch", rankBatches.size(), [&](size_t bi) {
                const RankBatch rb = rankBatches[bi];
                const size_t width = rb.end - rb.begin;
                const SketchContext &context =
                    contexts_[candidates[rb.begin].sketchIndex];
                const size_t numVars = context.varNames.size();
                constexpr size_t L = kBatchLanes;
                WorkerBatchScratch &ws = workerScratch();
                ws.inputs.resize(numVars * L);
                ws.outputs.resize(
                    static_cast<size_t>(numFeatures) * L);
                for (size_t l = 0; l < width; ++l)
                    for (size_t v = 0; v < numVars; ++v)
                        ws.inputs[v * L + l] =
                            candidates[rb.begin + l].x[v];
                context.rawFeatures->forwardBatch(
                    ws.inputs.data(), width, ws.outputs.data(),
                    ws.tape);
                double scores[kBatchLanes];
                model.predictBatch(ws.outputs.data(), scores,
                                   ws.predict);
                for (size_t l = 0; l < width; ++l) {
                    Candidate &candidate = candidates[rb.begin + l];
                    candidate.rawFeatures.resize(numFeatures);
                    for (int k = 0; k < numFeatures; ++k)
                        candidate.rawFeatures[k] =
                            ws.outputs[static_cast<size_t>(k) * L +
                                       l];
                    candidate.predictedScore = scores[l];
                }
            });
    } else {
        parallelFor("search.rank_candidate", candidates.size(),
                    [&](size_t i) {
                        Candidate &candidate = candidates[i];
                        const SketchContext &context =
                            contexts_[candidate.sketchIndex];
                        // One eval state per worker, reused across
                        // candidates and rounds (it rebinds itself
                        // when the sketch tape changes).
                        static thread_local expr::EvalState evalState;
                        candidate.rawFeatures =
                            context.rawFeatures->eval(candidate.x,
                                                      evalState);
                        candidate.predictedScore =
                            model.predict(candidate.rawFeatures);
                    });
    }
    result.trace.numPredictions +=
        static_cast<int>(candidates.size());
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.predictedScore > b.predictedScore;
              });

    // Stratified measurement selection: mostly the global top
    // predictions, but guarantee every sketch a couple of slots so
    // a cost model that misranks one schedule family still receives
    // corrective measurements for it (the fine-tuning loop of
    // Algorithm 1 line 24 then fixes the ranking).
    const int perSketchFloor = 2;
    std::vector<Candidate> selected;
    std::vector<bool> taken(candidates.size(), false);
    for (size_t sk = 0; sk < contexts_.size(); ++sk) {
        int got = 0;
        for (size_t i = 0;
             i < candidates.size() && got < perSketchFloor; ++i) {
            if (!taken[i] &&
                candidates[i].sketchIndex == static_cast<int>(sk)) {
                taken[i] = true;
                selected.push_back(candidates[i]);
                ++got;
            }
        }
    }
    for (size_t i = 0; i < candidates.size() &&
                       static_cast<int>(selected.size()) <
                           options_.nMeasure;
         ++i) {
        if (!taken[i])
            selected.push_back(candidates[i]);
    }
    if (static_cast<int>(selected.size()) > options_.nMeasure)
        selected.resize(options_.nMeasure);
    result.toMeasure = std::move(selected);
    registry.counter("search.predictions")
        .add(result.trace.numPredictions);
    return result;
}

} // namespace optim
} // namespace felix
