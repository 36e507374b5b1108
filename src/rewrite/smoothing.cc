#include "rewrite/smoothing.h"

#include <cmath>
#include <unordered_map>

#include "obs/metrics.h"
#include "support/logging.h"

namespace felix {
namespace rewrite {

using expr::Expr;
using expr::ExprNode;
using expr::OpCode;

const char *
kernelName(Kernel kernel)
{
    switch (kernel) {
      case Kernel::Algebraic: return "algebraic";
      case Kernel::Gaussian: return "gaussian";
      case Kernel::Bump: return "bump";
    }
    return "?";
}

Expr
smoothStep(const Expr &x, Kernel kernel)
{
    switch (kernel) {
      case Kernel::Algebraic:
        // S(x) = (1 + x/sqrt(1+x^2)) / 2, from phi = 1/sqrt(1+t^2).
        return expr::sigmoid(x);
      case Kernel::Gaussian: {
        // Logistic approximation of the Gaussian CDF (probit scale
        // factor 1.702); avoids needing an erf opcode.
        Expr one = Expr::constant(1.0);
        return one / (one + expr::exp(-(x * 1.702)));
      }
      case Kernel::Bump:
        // Cauchy CDF: 1/2 + atan(x)/pi.
        return Expr::constant(0.5) + expr::atan(x) / M_PI;
    }
    panic("unknown kernel");
}

Expr
smoothMax0(const Expr &x, Kernel kernel)
{
    switch (kernel) {
      case Kernel::Algebraic:
        // Antiderivative of the algebraic step: (x + sqrt(1+x^2))/2.
        return (x + expr::sqrt(Expr::constant(1.0) + x * x)) * 0.5;
      case Kernel::Gaussian: {
        // Softplus at the probit scale: ln(1+e^(1.702 x)) / 1.702.
        Expr one = Expr::constant(1.0);
        return expr::log(one + expr::exp(x * 1.702)) / 1.702;
      }
      case Kernel::Bump:
        // Antiderivative of the Cauchy step:
        // x/2 + (x atan x - ln(1+x^2)/2) / pi.
        return x * 0.5 +
               (x * expr::atan(x) -
                expr::log(Expr::constant(1.0) + x * x) * 0.5) /
                   M_PI;
    }
    panic("unknown kernel");
}

Expr
smoothMax(const Expr &a, const Expr &b, Kernel kernel)
{
    return b + smoothMax0(a - b, kernel);
}

Expr
smoothMin(const Expr &a, const Expr &b, Kernel kernel)
{
    return a - smoothMax0(a - b, kernel);
}

Expr
smoothAbs(const Expr &x, Kernel kernel)
{
    if (kernel == Kernel::Algebraic) {
        // |x| ~ x^2 / sqrt(1+x^2): smooth, asymptotically exact.
        return x * x / expr::sqrt(Expr::constant(1.0) + x * x);
    }
    // Generic form |x| = x * (2 S(x) - 1).
    return x * (smoothStep(x, kernel) * 2.0 - 1.0);
}

namespace {

/** A localized bump in (0,1]: 1 at t = 0, decaying to 0. */
Expr
smoothBump(const Expr &t, Kernel kernel)
{
    switch (kernel) {
      case Kernel::Algebraic:
      case Kernel::Bump:
        return Expr::constant(1.0) / (Expr::constant(1.0) + t * t);
      case Kernel::Gaussian:
        return expr::exp(-(t * t) * 0.5);
    }
    panic("unknown kernel");
}

/**
 * Turn a (smoothed-operand) comparison into a smooth 0/1 indicator.
 */
Expr
smoothCompare(OpCode op, const Expr &a, const Expr &b, Kernel kernel)
{
    switch (op) {
      case OpCode::Gt:
      case OpCode::Ge:
        return smoothStep(a - b, kernel);
      case OpCode::Lt:
      case OpCode::Le:
        return smoothStep(b - a, kernel);
      case OpCode::Eq:
        return smoothBump(a - b, kernel);
      case OpCode::Ne:
        return Expr::constant(1.0) - smoothBump(a - b, kernel);
      default:
        panic("smoothCompare on non-comparison");
    }
}

bool
isComparison(OpCode op)
{
    switch (op) {
      case OpCode::Lt:
      case OpCode::Le:
      case OpCode::Gt:
      case OpCode::Ge:
      case OpCode::Eq:
      case OpCode::Ne:
        return true;
      default:
        return false;
    }
}

Expr
rewriteNode(const Expr &e, Kernel kernel,
            std::unordered_map<const ExprNode *, Expr> &memo)
{
    auto it = memo.find(e.get());
    if (it != memo.end())
        return it->second;

    Expr result;
    const auto &args = e->args();
    auto rec = [&](const Expr &sub) {
        return rewriteNode(sub, kernel, memo);
    };

    switch (e->op()) {
      case OpCode::Min:
        result = smoothMin(rec(args[0]), rec(args[1]), kernel);
        break;
      case OpCode::Max:
        result = smoothMax(rec(args[0]), rec(args[1]), kernel);
        break;
      case OpCode::Abs:
        result = smoothAbs(rec(args[0]), kernel);
        break;
      case OpCode::Floor:
        // Linear drift approximation: exact in expectation over a
        // unit interval and perfectly smooth.
        result = rec(args[0]) - 0.5;
        break;
      case OpCode::Select: {
        const Expr &cond = args[0];
        Expr p = rec(args[1]);
        Expr q = rec(args[2]);
        Expr indicator;
        if (isComparison(cond->op())) {
            indicator = smoothCompare(cond->op(),
                                      rec(cond->args()[0]),
                                      rec(cond->args()[1]), kernel);
        } else {
            // Generic 0/1 condition: steepened step around 1/2.
            indicator = smoothStep((rec(cond) - 0.5) * 4.0, kernel);
        }
        result = q + (p - q) * indicator;
        break;
      }
      case OpCode::Lt:
      case OpCode::Le:
      case OpCode::Gt:
      case OpCode::Ge:
      case OpCode::Eq:
      case OpCode::Ne:
        result = smoothCompare(e->op(), rec(args[0]), rec(args[1]),
                               kernel);
        break;
      default: {
        // Differentiable op: rebuild only if a child changed.
        bool changed = false;
        std::vector<Expr> newArgs;
        newArgs.reserve(args.size());
        for (const Expr &arg : args) {
            Expr sub = rec(arg);
            changed |= !sub.same(arg);
            newArgs.push_back(sub);
        }
        if (!changed) {
            result = e;
        } else {
            switch (e->op()) {
              case OpCode::Add: result = newArgs[0] + newArgs[1]; break;
              case OpCode::Sub: result = newArgs[0] - newArgs[1]; break;
              case OpCode::Mul: result = newArgs[0] * newArgs[1]; break;
              case OpCode::Div: result = newArgs[0] / newArgs[1]; break;
              case OpCode::Pow:
                result = expr::pow(newArgs[0], newArgs[1]);
                break;
              case OpCode::Neg: result = -newArgs[0]; break;
              case OpCode::Log: result = expr::log(newArgs[0]); break;
              case OpCode::Exp: result = expr::exp(newArgs[0]); break;
              case OpCode::Sqrt:
                result = expr::sqrt(newArgs[0]);
                break;
              case OpCode::Atan:
                result = expr::atan(newArgs[0]);
                break;
              case OpCode::Sigmoid:
                result = expr::sigmoid(newArgs[0]);
                break;
              default:
                panic("unhandled opcode in smoothing rewrite");
            }
        }
        break;
      }
    }
    FELIX_CHECK(result.defined());
    memo.emplace(e.get(), result);
    return result;
}

bool
checkSmooth(const Expr &e,
            std::unordered_map<const ExprNode *, bool> &memo)
{
    auto it = memo.find(e.get());
    if (it != memo.end())
        return it->second;
    bool smooth = true;
    switch (e->op()) {
      case OpCode::Min:
      case OpCode::Max:
      case OpCode::Abs:
      case OpCode::Floor:
      case OpCode::Select:
      case OpCode::Lt:
      case OpCode::Le:
      case OpCode::Gt:
      case OpCode::Ge:
      case OpCode::Eq:
      case OpCode::Ne:
        smooth = false;
        break;
      default:
        for (const Expr &arg : e->args())
            smooth = smooth && checkSmooth(arg, memo);
        break;
    }
    memo.emplace(e.get(), smooth);
    return smooth;
}

} // namespace

std::vector<Expr>
makeSmooth(const std::vector<Expr> &roots, Kernel kernel)
{
    std::unordered_map<const ExprNode *, Expr> memo;
    std::vector<Expr> out;
    out.reserve(roots.size());
    for (const Expr &root : roots) {
        FELIX_CHECK(root.defined(), "makeSmooth on undefined expression");
        out.push_back(rewriteNode(root, kernel, memo));
    }
    obs::MetricsRegistry::instance()
        .counter("rewrite.nodes_rewritten")
        .add(static_cast<double>(memo.size()));
    return out;
}

Expr
makeSmooth(const Expr &root, Kernel kernel)
{
    return makeSmooth(std::vector<Expr>{root}, kernel)[0];
}

bool
isSmooth(const Expr &root)
{
    FELIX_CHECK(root.defined());
    std::unordered_map<const ExprNode *, bool> memo;
    return checkSmooth(root, memo);
}

} // namespace rewrite
} // namespace felix
