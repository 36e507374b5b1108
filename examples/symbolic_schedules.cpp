/**
 * @file
 * A tour of Felix's core machinery on the paper's running example
 * (Fig. 3): the Dense-Add subgraph. Shows the generated symbolic
 * schedules, the symbolic programs T(p0, s*) with schedule variables
 * in their loop bounds, the feature formulas and their smoothed
 * differentiable versions, and the legality constraints.
 *
 *   ./examples/symbolic_schedules
 */
#include <cmath>
#include <cstdio>

#include "expr/compiled.h"
#include "features/features.h"
#include "rewrite/smoothing.h"
#include "rewrite/transforms.h"
#include "sketch/sampling.h"
#include "sketch/sketch.h"
#include "tir/ops.h"

using namespace felix;

int
main()
{
    // The paper's Fig. 3 example: E[i,j] = sum_k A[i,k]*B[k,j] + C[j].
    auto subgraph = tir::dense(256, 256, 256, /*bias=*/true,
                               tir::Epilogue::None, "dense_add");
    std::printf("=== Dense-Add subgraph (paper Fig. 3) ===\n");
    std::printf("dominant op: %s, %lld spatial x %lld reduce points\n\n",
                subgraph.dominantOp().name.c_str(),
                static_cast<long long>(
                    subgraph.dominantOp().spatialExtent()),
                static_cast<long long>(
                    subgraph.dominantOp().reduceExtent()));

    auto sketches = sketch::generateSketches(subgraph);
    for (const auto &sched : sketches) {
        std::printf("--- symbolic schedule s* (%s), %zu variables, "
                    "%zu constraints ---\n",
                    sched.desc.c_str(), sched.vars.size(),
                    sched.constraints.size());
        std::printf("%s\n", sched.schedule.str().c_str());
        std::printf("symbolic program p* = T(p0, s*):\n%s\n",
                    sched.program.str().c_str());
    }

    // Feature formulas of the simple sketch (paper §3.3).
    const auto &sched = sketches.back();
    std::vector<std::string> names;
    for (const auto &domain : sched.vars)
        names.push_back(domain.name);
    auto features = features::extractFeatures(sched.program);
    std::printf("=== feature formulas (x-space) ===\n");
    for (const char *name : {"float_mad", "block_len", "int_add"}) {
        int idx = features::featureIndex(name);
        std::printf("%-12s = %s\n", name,
                    features[idx].str().c_str());
    }

    // The int_add formula contains a select() discontinuity; the
    // smoothing rewriter replaces it with a differentiable form.
    int intAdd = features::featureIndex("int_add");
    expr::Expr smooth = rewrite::makeSmooth(features[intAdd]);
    std::printf("\nint_add is smooth before rewrite? %s; after? %s\n",
                rewrite::isSmooth(features[intAdd]) ? "yes" : "no",
                rewrite::isSmooth(smooth) ? "yes" : "no");

    // Full pipeline: smooth -> log expand -> x = e^y substitution.
    expr::CompiledExprs tape(
        rewrite::featurePipeline({features[intAdd]}, names), names);
    std::vector<double> y(names.size(), std::log(4.0));
    std::vector<double> out, grads;
    tape.forward(y, out);
    tape.backward({1.0}, grads);
    std::printf("pipeline value at all-tiles=4 (log space): %.3f\n",
                out[0]);
    std::printf("gradient w.r.t. each log-variable:");
    for (size_t i = 0; i < names.size(); ++i)
        std::printf(" %s=%.4f", names[i].c_str(), grads[i]);
    std::printf("\n\n");

    // Constraints and validity: sample, round, validate.
    Rng rng(1);
    auto x = sketch::sampleValid(sched, rng);
    std::printf("random valid schedule:");
    for (size_t i = 0; i < x.size(); ++i)
        std::printf(" %s=%g", names[i].c_str(), x[i]);
    std::printf("\nvalid? %s\n",
                sketch::isValidAssignment(sched, x) ? "yes" : "no");

    std::vector<double> offGrid(y.size(), std::log(5.7));
    auto rounded = sketch::roundToValid(sched, offGrid);
    if (rounded) {
        std::printf("relaxed point e^y = 5.7 rounds to:");
        for (size_t i = 0; i < rounded->size(); ++i)
            std::printf(" %s=%g", names[i].c_str(), (*rounded)[i]);
        std::printf("  (divisor snapping in log space)\n");
    }
    return 0;
}
