#include "rewrite/transforms.h"

#include <algorithm>
#include <unordered_map>

#include "obs/metrics.h"
#include "rewrite/smoothing.h"
#include "support/logging.h"

namespace felix {
namespace rewrite {

using expr::Expr;
using expr::ExprNode;
using expr::OpCode;

namespace {

void
countRewritten(size_t nodes)
{
    obs::MetricsRegistry::instance()
        .counter("rewrite.nodes_rewritten")
        .add(static_cast<double>(nodes));
}

bool
positiveNode(const Expr &e,
             std::unordered_map<const ExprNode *, bool> &memo)
{
    auto it = memo.find(e.get());
    if (it != memo.end())
        return it->second;
    bool pos = false;
    const auto &args = e->args();
    switch (e->op()) {
      case OpCode::ConstOp:
        pos = e.constValue() > 0.0;
        break;
      case OpCode::VarOp:
        // Schedule variables are sizes/factors with domain [1, N].
        pos = true;
        break;
      case OpCode::Add:
      case OpCode::Mul:
      case OpCode::Div:
      case OpCode::Min:
      case OpCode::Max:
        pos = positiveNode(args[0], memo) && positiveNode(args[1], memo);
        break;
      case OpCode::Pow:
        pos = positiveNode(args[0], memo);
        break;
      case OpCode::Exp:
      case OpCode::Sigmoid:
        pos = true;
        break;
      case OpCode::Sqrt:
        pos = positiveNode(args[0], memo);
        break;
      case OpCode::Select:
        pos = positiveNode(args[1], memo) && positiveNode(args[2], memo);
        break;
      default:
        pos = false;
        break;
    }
    memo.emplace(e.get(), pos);
    return pos;
}

Expr
logNode(const Expr &e,
        std::unordered_map<const ExprNode *, bool> &posMemo,
        std::unordered_map<const ExprNode *, Expr> &memo)
{
    auto it = memo.find(e.get());
    if (it != memo.end())
        return it->second;

    Expr result;
    const auto &args = e->args();
    auto positive = [&](const Expr &sub) {
        return positiveNode(sub, posMemo);
    };
    auto rec = [&](const Expr &sub) {
        return logNode(sub, posMemo, memo);
    };

    switch (e->op()) {
      case OpCode::Mul:
        if (positive(args[0]) && positive(args[1])) {
            result = rec(args[0]) + rec(args[1]);
        }
        break;
      case OpCode::Div:
        if (positive(args[0]) && positive(args[1])) {
            result = rec(args[0]) - rec(args[1]);
        }
        break;
      case OpCode::Pow:
        if (positive(args[0])) {
            result = args[1] * rec(args[0]);
        }
        break;
      case OpCode::Exp:
        result = args[0];
        break;
      case OpCode::Sqrt:
        if (positive(args[0])) {
            result = rec(args[0]) * 0.5;
        }
        break;
      default:
        break;
    }
    if (!result.defined())
        result = expr::log(e);
    memo.emplace(e.get(), result);
    return result;
}

} // namespace

bool
provablyPositive(const Expr &e)
{
    FELIX_CHECK(e.defined());
    std::unordered_map<const ExprNode *, bool> memo;
    return positiveNode(e, memo);
}

std::vector<Expr>
logExpand(const std::vector<Expr> &features)
{
    std::unordered_map<const ExprNode *, bool> posMemo;
    std::unordered_map<const ExprNode *, Expr> memo;
    std::vector<Expr> out;
    out.reserve(features.size());
    for (const Expr &feature : features) {
        FELIX_CHECK(feature.defined());
        out.push_back(logNode(feature, posMemo, memo));
    }
    countRewritten(memo.size());
    return out;
}

Expr
logExpand(const Expr &feature)
{
    return logExpand(std::vector<Expr>{feature})[0];
}

std::vector<Expr>
expSubstituteVars(const std::vector<Expr> &roots,
                  const std::vector<std::string> &vars)
{
    std::vector<std::pair<std::string, Expr>> map;
    map.reserve(vars.size());
    for (const std::string &name : vars)
        map.emplace_back(name, expr::exp(Expr::var(name)));
    size_t visited = 0;
    std::vector<Expr> out = expr::substitute(roots, map, &visited);
    countRewritten(visited);
    return out;
}

Expr
expSubstituteVars(const Expr &root, const std::vector<std::string> &vars)
{
    return expSubstituteVars(std::vector<Expr>{root}, vars)[0];
}

Expr
penalty(const Expr &g)
{
    Expr clipped = expr::max(g, Expr::constant(0.0));
    return clipped * clipped;
}

std::vector<Expr>
featurePipeline(const std::vector<Expr> &raw_features,
                const std::vector<std::string> &vars)
{
    return expSubstituteVars(logExpand(makeSmooth(raw_features)), vars);
}

std::vector<Expr>
objectiveFormulas(const std::vector<Expr> &features,
                  const std::vector<Expr> &constraints,
                  const std::vector<std::string> &vars, Kernel kernel,
                  bool apply_smoothing, bool apply_log_exp)
{
    obs::ScopedTimerMs timer(
        obs::MetricsRegistry::instance().counter("rewrite.objective_ms"));
    const size_t numFeatures = features.size();
    std::vector<Expr> formulas = features;
    formulas.insert(formulas.end(), constraints.begin(),
                    constraints.end());
    if (apply_smoothing)
        formulas = makeSmooth(formulas, kernel);
    std::vector<Expr> logged = logExpand(std::vector<Expr>(
        formulas.begin(), formulas.begin() + numFeatures));
    std::copy(logged.begin(), logged.end(), formulas.begin());
    if (apply_log_exp)
        formulas = expSubstituteVars(formulas, vars);
    for (size_t i = 0; i < numFeatures; ++i) {
        formulas[i] = apply_smoothing
                          ? smoothMax0(formulas[i], kernel)
                          : expr::max(formulas[i], Expr::constant(0.0));
    }
    return formulas;
}

} // namespace rewrite
} // namespace felix
