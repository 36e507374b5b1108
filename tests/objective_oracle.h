/**
 * @file
 * The reference oracle for rewrite::objectiveFormulas: the
 * per-formula pipeline, in which every rewrite pass runs through its
 * single-root entry point with a fresh memo per formula. The batched
 * builder must return the same interned nodes;
 * tests/test_objective.cc checks that on every sketch of three
 * networks.
 */
#ifndef FELIX_TESTS_OBJECTIVE_ORACLE_H_
#define FELIX_TESTS_OBJECTIVE_ORACLE_H_

#include <string>
#include <vector>

#include "rewrite/smoothing.h"
#include "rewrite/transforms.h"

namespace felix {
namespace rewrite {

inline std::vector<expr::Expr>
objectiveFormulasOracle(const std::vector<expr::Expr> &features,
                        const std::vector<expr::Expr> &constraints,
                        const std::vector<std::string> &vars,
                        Kernel kernel, bool apply_smoothing,
                        bool apply_log_exp)
{
    using expr::Expr;
    std::vector<Expr> outputs;
    outputs.reserve(features.size() + constraints.size());
    for (const Expr &f : features) {
        Expr base = apply_smoothing ? makeSmooth(f, kernel) : f;
        Expr logged = logExpand(base);
        if (apply_log_exp)
            logged = expSubstituteVars(logged, vars);
        outputs.push_back(apply_smoothing
                              ? smoothMax0(logged, kernel)
                              : expr::max(logged, Expr::constant(0.0)));
    }
    for (const Expr &g : constraints) {
        Expr smooth = apply_smoothing ? makeSmooth(g, kernel) : g;
        if (apply_log_exp)
            smooth = expSubstituteVars(smooth, vars);
        outputs.push_back(smooth);
    }
    return outputs;
}

} // namespace rewrite
} // namespace felix

#endif // FELIX_TESTS_OBJECTIVE_ORACLE_H_
