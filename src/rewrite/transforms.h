/**
 * @file
 * Gradient-stability rewrites (paper §3.3, "Gradient stability") and
 * constraint-to-penalty lowering (§3.3, "Constraint penalty
 * functions").
 *
 * Program features grow multiplicatively (float_add ~ N*M*K can hit
 * 1e9), which makes gradients vanish. Felix (1) takes the logarithm
 * of each smooth feature, structurally expanding log over products
 * where positivity is provable, and (2) substitutes x = e^y for each
 * schedule variable so the optimizer works in log space. Together
 * the two rewrites turn multiplicative formulas into additive ones
 * with linear growth.
 */
#ifndef FELIX_REWRITE_TRANSFORMS_H_
#define FELIX_REWRITE_TRANSFORMS_H_

#include <string>
#include <vector>

#include "expr/expr.h"
#include "rewrite/smoothing.h"

namespace felix {
namespace rewrite {

/**
 * Conservative positivity analysis.
 *
 * Variables are treated as positive: every Felix schedule variable
 * is a size/factor with domain [1, N]. Constants, products,
 * quotients, mins/maxes/sums of positives, exp, sqrt and sigmoid of
 * anything positive, etc.
 */
bool provablyPositive(const expr::Expr &e);

/**
 * log(feature) of every feature, expanded structurally where
 * positivity allows:
 *   log(a*b) -> log a + log b        log(a/b) -> log a - log b
 *   log(a^b) -> b * log a            log(exp a) -> a
 *   log(sqrt a) -> log(a) / 2
 * Subterms that cannot be proven positive stay under a (safe) log.
 * One log memo and one positivity memo span all features; result i
 * is the same node logExpand(features[i]) returns. Adds the log
 * memo's size to the `rewrite.nodes_rewritten` counter.
 */
std::vector<expr::Expr> logExpand(const std::vector<expr::Expr> &features);

/** logExpand of one feature. */
expr::Expr logExpand(const expr::Expr &feature);

/**
 * Exponential variable substitution x = e^y.
 *
 * Replaces every variable in @p vars by exp(var) in every root, with
 * one memo over all roots (expr::substitute). Variable names are
 * kept; after this rewrite the optimizer's values are interpreted in
 * log space. When applied after logExpand, occurrences log(exp(v))
 * collapse to v, so tile-size products become sums of log variables.
 * Adds the number of nodes visited to `rewrite.nodes_rewritten`.
 */
std::vector<expr::Expr>
expSubstituteVars(const std::vector<expr::Expr> &roots,
                  const std::vector<std::string> &vars);

/** expSubstituteVars of one root. */
expr::Expr expSubstituteVars(const expr::Expr &root,
                             const std::vector<std::string> &vars);

/**
 * Penalty function for a constraint g <= 0: max(g, 0)^2.
 *
 * This is already C^1 (derivative 2*max(g,0)), so it is used as-is
 * rather than smoothed — matching the paper's Eqn. 4.
 */
expr::Expr penalty(const expr::Expr &g);

/**
 * The Felix feature pipeline over a set of formulas, with the
 * algebraic kernel: smooth -> log-expand -> e^y substitution.
 */
std::vector<expr::Expr>
featurePipeline(const std::vector<expr::Expr> &raw_features,
                const std::vector<std::string> &vars);

/**
 * One sketch's differentiable objective (paper §3.3): the model
 * inputs, then the legality constraints, as GradientSearch
 * compiles them into its objective tape.
 *
 * Feature i becomes smoothMax0(e^y-substituted log-expanded smooth
 * f_i), the smoothed log(max(f, 1)); constraint j becomes the
 * e^y-substituted smooth g_j. With @p apply_smoothing off, the
 * smoothing rewrite is skipped and max(., 0) replaces smoothMax0;
 * with @p apply_log_exp off, the e^y substitution is skipped (the
 * ablation knobs). Each pass runs once over all formulas of the
 * sketch with one memo, so shared subterms (loop extents,
 * footprints, tile products) are rewritten once; because every pass
 * is a pure function of the node it visits and nodes are
 * hash-consed, the results are the same nodes the per-formula
 * composition of the single-root passes returns. The time spent is
 * added to the `rewrite.objective_ms` counter.
 */
std::vector<expr::Expr>
objectiveFormulas(const std::vector<expr::Expr> &features,
                  const std::vector<expr::Expr> &constraints,
                  const std::vector<std::string> &vars, Kernel kernel,
                  bool apply_smoothing, bool apply_log_exp);

} // namespace rewrite
} // namespace felix

#endif // FELIX_REWRITE_TRANSFORMS_H_
