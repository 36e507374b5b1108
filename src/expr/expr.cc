#include "expr/expr.h"

#include "expr/op_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "support/logging.h"
#include "support/rng.h"

namespace felix {
namespace expr {

const char *
opName(OpCode op)
{
    switch (op) {
      case OpCode::ConstOp: return "const";
      case OpCode::VarOp: return "var";
      case OpCode::Add: return "+";
      case OpCode::Sub: return "-";
      case OpCode::Mul: return "*";
      case OpCode::Div: return "/";
      case OpCode::Pow: return "pow";
      case OpCode::Min: return "min";
      case OpCode::Max: return "max";
      case OpCode::Neg: return "neg";
      case OpCode::Log: return "log";
      case OpCode::Exp: return "exp";
      case OpCode::Sqrt: return "sqrt";
      case OpCode::Abs: return "abs";
      case OpCode::Floor: return "floor";
      case OpCode::Atan: return "atan";
      case OpCode::Sigmoid: return "sigmoid";
      case OpCode::Lt: return "<";
      case OpCode::Le: return "<=";
      case OpCode::Gt: return ">";
      case OpCode::Ge: return ">=";
      case OpCode::Eq: return "==";
      case OpCode::Ne: return "!=";
      case OpCode::Select: return "select";
    }
    return "?";
}

int
opArity(OpCode op)
{
    switch (op) {
      case OpCode::ConstOp:
      case OpCode::VarOp:
        return 0;
      case OpCode::Neg:
      case OpCode::Log:
      case OpCode::Exp:
      case OpCode::Sqrt:
      case OpCode::Abs:
      case OpCode::Floor:
      case OpCode::Atan:
      case OpCode::Sigmoid:
        return 1;
      case OpCode::Select:
        return 3;
      default:
        return 2;
    }
}

ExprNode::ExprNode(OpCode op, double value, std::string var_name,
                   std::vector<Expr> args, uint64_t hash, uint64_t id)
    : op_(op), value_(value), varName_(std::move(var_name)),
      args_(std::move(args)), hash_(hash), id_(id)
{
}

namespace {

uint64_t
constBits(double value)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/**
 * Global hash-consing table, sharded into lock-striped sub-tables so
 * Expr construction is thread-safe (parallel tape compilation and
 * dataset synthesis intern concurrently). A node's hash is purely
 * structural — combined from its children's hashes, never from
 * intern order — so the shard an expression lands in, and every
 * canonicalization decision, is identical no matter which thread
 * interns it first.
 */
class Interner
{
  public:
    static Interner &
    instance()
    {
        static Interner interner;
        return interner;
    }

    Expr
    intern(OpCode op, double value, const std::string &var_name,
           std::vector<Expr> args)
    {
        uint64_t h = hashKey(op, value, var_name, args);
        Shard &shard = shards_[h % kShards];
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto range = shard.table.equal_range(h);
        for (auto it = range.first; it != range.second; ++it) {
            const ExprNode &node = *it->second;
            if (equalKey(node, op, value, var_name, args))
                return Expr(it->second);
        }
        // Ids are unique (shard-tagged) but NOT ordering-stable
        // across thread interleavings; nothing may depend on their
        // order.
        uint64_t id = shard.nextId++ * kShards + h % kShards;
        auto node = std::make_shared<const ExprNode>(
            op, value, var_name, std::move(args), h, id);
        shard.table.emplace(h, node);
        return Expr(node);
    }

    size_t
    size() const
    {
        size_t total = 0;
        for (const Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            total += shard.table.size();
        }
        return total;
    }

  private:
    static constexpr size_t kShards = 64;

    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_multimap<uint64_t, ExprNodePtr> table;
        uint64_t nextId = 0;
    };

    static uint64_t
    hashKey(OpCode op, double value, const std::string &var_name,
            const std::vector<Expr> &args)
    {
        uint64_t h = hashCombine(0x5f3759df, static_cast<uint64_t>(op));
        if (op == OpCode::ConstOp) {
            h = hashCombine(h, constBits(value));
        } else if (op == OpCode::VarOp) {
            h = hashCombine(h, std::hash<std::string>{}(var_name));
        }
        for (const Expr &arg : args)
            h = hashCombine(h, arg->hash());
        return h;
    }

    static bool
    equalKey(const ExprNode &node, OpCode op, double value,
             const std::string &var_name, const std::vector<Expr> &args)
    {
        if (node.op() != op || node.args().size() != args.size())
            return false;
        if (op == OpCode::ConstOp) {
            // Bitwise comparison so -0.0 and 0.0 stay distinct and
            // NaN constants intern consistently.
            if (constBits(node.value()) != constBits(value))
                return false;
        }
        if (op == OpCode::VarOp && node.varName() != var_name)
            return false;
        for (size_t i = 0; i < args.size(); ++i) {
            if (node.args()[i].get() != args[i].get())
                return false;
        }
        return true;
    }

    Shard shards_[kShards];
};

bool
isCommutative(OpCode op)
{
    switch (op) {
      case OpCode::Add:
      case OpCode::Mul:
      case OpCode::Min:
      case OpCode::Max:
      case OpCode::Eq:
      case OpCode::Ne:
        return true;
      default:
        return false;
    }
}

/** Leaf-kind rank: variables before constants before compounds. */
int
canonicalRank(const ExprNode *node)
{
    if (node->op() == OpCode::VarOp)
        return 0;
    if (node->op() == OpCode::ConstOp)
        return 1;
    return 2;
}

/**
 * Deterministic structural order for commutative canonicalization.
 * Depends only on the expressions themselves (never on intern order),
 * so every thread — and every --jobs value — canonicalizes "a + b"
 * to the same operand order.
 */
bool
canonicalBefore(const ExprNode *a, const ExprNode *b)
{
    if (a == b)
        return false;
    int ra = canonicalRank(a), rb = canonicalRank(b);
    if (ra != rb)
        return ra < rb;
    if (a->op() == OpCode::VarOp)
        return a->varName() < b->varName();
    if (a->op() == OpCode::ConstOp)
        return constBits(a->value()) < constBits(b->value());
    if (a->hash() != b->hash())
        return a->hash() < b->hash();
    // Hash collision between distinct structures: fall back to a
    // full structural comparison (astronomically rare; equal
    // structures are the same node and returned above).
    if (a->op() != b->op())
        return a->op() < b->op();
    if (a->args().size() != b->args().size())
        return a->args().size() < b->args().size();
    for (size_t i = 0; i < a->args().size(); ++i) {
        const ExprNode *ca = a->args()[i].get();
        const ExprNode *cb = b->args()[i].get();
        if (ca != cb)
            return canonicalBefore(ca, cb);
    }
    return false;
}

Expr
makeNode(OpCode op, std::vector<Expr> args)
{
    for (const Expr &arg : args)
        FELIX_CHECK(arg.defined(), "undefined operand to ", opName(op));
    // Canonicalize commutative operand order for better sharing.
    if (isCommutative(op) && args.size() == 2 &&
        canonicalBefore(args[1].get(), args[0].get())) {
        std::swap(args[0], args[1]);
    }
    return Interner::instance().intern(op, 0.0, {}, std::move(args));
}

bool
allConst(const std::vector<Expr> &args)
{
    return std::all_of(args.begin(), args.end(),
                       [](const Expr &e) { return e.isConst(); });
}

Expr
foldOrMake(OpCode op, std::vector<Expr> args)
{
    if (allConst(args)) {
        double vals[3] = {0, 0, 0};
        for (size_t i = 0; i < args.size(); ++i)
            vals[i] = args[i].constValue();
        return Expr::constant(evalOp(op, vals));
    }
    return makeNode(op, std::move(args));
}

} // namespace

Expr
Expr::constant(double value)
{
    return Interner::instance().intern(OpCode::ConstOp, value, {}, {});
}

Expr
Expr::intConst(int64_t value)
{
    return constant(static_cast<double>(value));
}

Expr
Expr::var(const std::string &name)
{
    FELIX_CHECK(!name.empty(), "variable needs a name");
    return Interner::instance().intern(OpCode::VarOp, 0.0, name, {});
}

bool
Expr::isConst() const
{
    return defined() && node_->op() == OpCode::ConstOp;
}

bool
Expr::isConst(double value) const
{
    return isConst() && node_->value() == value;
}

double
Expr::constValue() const
{
    FELIX_CHECK(isConst(), "constValue on non-constant expression");
    return node_->value();
}

bool
Expr::isVar() const
{
    return defined() && node_->op() == OpCode::VarOp;
}

const std::string &
Expr::varName() const
{
    FELIX_CHECK(isVar(), "varName on non-variable expression");
    return node_->varName();
}

double
evalOp(OpCode op, const double *a)
{
    // The per-op semantics live in expr/op_kernels.h so the scalar
    // walk, the batched SoA lanes, and the reference interpreters
    // all inline the identical floating-point sequence.
    if (op == OpCode::ConstOp || op == OpCode::VarOp)
        panic("evalOp on leaf opcode");
    return opk::evalOpInline(op, a);
}

Expr
add(Expr a, Expr b)
{
    if (a.isConst(0.0))
        return b;
    if (b.isConst(0.0))
        return a;
    return foldOrMake(OpCode::Add, {a, b});
}

Expr
sub(Expr a, Expr b)
{
    if (b.isConst(0.0))
        return a;
    if (a.same(b))
        return Expr::constant(0.0);
    return foldOrMake(OpCode::Sub, {a, b});
}

Expr
mul(Expr a, Expr b)
{
    if (a.isConst(1.0))
        return b;
    if (b.isConst(1.0))
        return a;
    if (a.isConst(0.0) || b.isConst(0.0))
        return Expr::constant(0.0);
    return foldOrMake(OpCode::Mul, {a, b});
}

Expr
div(Expr a, Expr b)
{
    if (b.isConst(1.0))
        return a;
    if (a.isConst(0.0))
        return Expr::constant(0.0);
    if (a.same(b)) {
        // Size expressions are >= 1 in any valid schedule, so x/x = 1.
        return Expr::constant(1.0);
    }
    return foldOrMake(OpCode::Div, {a, b});
}

Expr
pow(Expr base, Expr exponent)
{
    if (exponent.isConst(1.0))
        return base;
    if (exponent.isConst(0.0))
        return Expr::constant(1.0);
    if (base.isConst(1.0))
        return Expr::constant(1.0);
    return foldOrMake(OpCode::Pow, {base, exponent});
}

Expr
min(Expr a, Expr b)
{
    if (a.same(b))
        return a;
    return foldOrMake(OpCode::Min, {a, b});
}

Expr
max(Expr a, Expr b)
{
    if (a.same(b))
        return a;
    return foldOrMake(OpCode::Max, {a, b});
}

Expr
neg(Expr a)
{
    if (a.defined() && a->op() == OpCode::Neg)
        return a->args()[0];
    return foldOrMake(OpCode::Neg, {a});
}

Expr
log(Expr a)
{
    if (a.defined() && a->op() == OpCode::Exp)
        return a->args()[0];
    return foldOrMake(OpCode::Log, {a});
}

Expr
exp(Expr a)
{
    if (a.defined() && a->op() == OpCode::Log)
        return a->args()[0];
    return foldOrMake(OpCode::Exp, {a});
}

Expr
sqrt(Expr a)
{
    return foldOrMake(OpCode::Sqrt, {a});
}

Expr
abs(Expr a)
{
    if (a.defined() && a->op() == OpCode::Abs)
        return a;
    return foldOrMake(OpCode::Abs, {a});
}

Expr
floor(Expr a)
{
    if (a.defined() && a->op() == OpCode::Floor)
        return a;
    return foldOrMake(OpCode::Floor, {a});
}

Expr
atan(Expr a)
{
    return foldOrMake(OpCode::Atan, {a});
}

Expr
sigmoid(Expr a)
{
    return foldOrMake(OpCode::Sigmoid, {a});
}

Expr
lt(Expr a, Expr b)
{
    if (a.same(b))
        return Expr::constant(0.0);
    return foldOrMake(OpCode::Lt, {a, b});
}

Expr
le(Expr a, Expr b)
{
    if (a.same(b))
        return Expr::constant(1.0);
    return foldOrMake(OpCode::Le, {a, b});
}

Expr
gt(Expr a, Expr b)
{
    if (a.same(b))
        return Expr::constant(0.0);
    return foldOrMake(OpCode::Gt, {a, b});
}

Expr
ge(Expr a, Expr b)
{
    if (a.same(b))
        return Expr::constant(1.0);
    return foldOrMake(OpCode::Ge, {a, b});
}

Expr
eq(Expr a, Expr b)
{
    if (a.same(b))
        return Expr::constant(1.0);
    return foldOrMake(OpCode::Eq, {a, b});
}

Expr
ne(Expr a, Expr b)
{
    if (a.same(b))
        return Expr::constant(0.0);
    return foldOrMake(OpCode::Ne, {a, b});
}

Expr
select(Expr cond, Expr then_val, Expr else_val)
{
    if (cond.isConst())
        return cond.constValue() != 0.0 ? then_val : else_val;
    if (then_val.same(else_val))
        return then_val;
    return foldOrMake(OpCode::Select, {cond, then_val, else_val});
}

namespace {

void
visitPostorder(const Expr &root, std::unordered_set<const ExprNode *> &seen,
               const std::function<void(const Expr &)> &fn)
{
    if (!root.defined() || seen.count(root.get()))
        return;
    // Iterative DFS: feature formulas can be deep.
    std::vector<std::pair<Expr, size_t>> stack;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
        auto &[node, child] = stack.back();
        if (seen.count(node.get())) {
            stack.pop_back();
            continue;
        }
        if (child < node->args().size()) {
            Expr next = node->args()[child++];
            if (!seen.count(next.get()))
                stack.emplace_back(next, 0);
        } else {
            seen.insert(node.get());
            fn(node);
            stack.pop_back();
        }
    }
}

} // namespace

std::vector<std::string>
collectVars(const std::vector<Expr> &roots)
{
    std::unordered_set<const ExprNode *> seen;
    std::vector<std::string> names;
    std::unordered_set<std::string> nameSet;
    for (const Expr &root : roots) {
        visitPostorder(root, seen, [&](const Expr &node) {
            if (node.isVar() && nameSet.insert(node.varName()).second)
                names.push_back(node.varName());
        });
    }
    std::sort(names.begin(), names.end());
    return names;
}

namespace {

/** Rebuild a node of opcode @p op over new operands through the
 * public constructors, so folding and simplification re-apply. */
Expr
rebuild(OpCode op, const std::vector<Expr> &a)
{
    switch (op) {
      case OpCode::Add: return add(a[0], a[1]);
      case OpCode::Sub: return sub(a[0], a[1]);
      case OpCode::Mul: return mul(a[0], a[1]);
      case OpCode::Div: return div(a[0], a[1]);
      case OpCode::Pow: return pow(a[0], a[1]);
      case OpCode::Min: return min(a[0], a[1]);
      case OpCode::Max: return max(a[0], a[1]);
      case OpCode::Neg: return neg(a[0]);
      case OpCode::Log: return log(a[0]);
      case OpCode::Exp: return exp(a[0]);
      case OpCode::Sqrt: return sqrt(a[0]);
      case OpCode::Abs: return abs(a[0]);
      case OpCode::Floor: return floor(a[0]);
      case OpCode::Atan: return atan(a[0]);
      case OpCode::Sigmoid: return sigmoid(a[0]);
      case OpCode::Lt: return lt(a[0], a[1]);
      case OpCode::Le: return le(a[0], a[1]);
      case OpCode::Gt: return gt(a[0], a[1]);
      case OpCode::Ge: return ge(a[0], a[1]);
      case OpCode::Eq: return eq(a[0], a[1]);
      case OpCode::Ne: return ne(a[0], a[1]);
      case OpCode::Select: return select(a[0], a[1], a[2]);
      case OpCode::ConstOp:
      case OpCode::VarOp:
        break;
    }
    panic("leaf with arguments");
}

} // namespace

std::vector<Expr>
substitute(const std::vector<Expr> &roots,
           const std::vector<std::pair<std::string, Expr>> &map,
           size_t *nodes_visited)
{
    std::unordered_map<std::string, Expr> lookup(map.begin(), map.end());
    std::unordered_map<const ExprNode *, Expr> memo;
    auto replace = [&](const Expr &node) -> Expr {
        if (node.isVar()) {
            auto it = lookup.find(node.varName());
            return it != lookup.end() ? it->second : node;
        }
        if (node->args().empty())
            return node;
        std::vector<Expr> newArgs;
        newArgs.reserve(node->args().size());
        bool changed = false;
        for (const Expr &arg : node->args()) {
            const Expr &sub = memo.at(arg.get());
            changed |= !sub.same(arg);
            newArgs.push_back(sub);
        }
        return changed ? rebuild(node->op(), newArgs) : node;
    };

    // Iterative post-order DFS (feature formulas can be deep); the
    // memo doubles as the visited set. Stack entries point into the
    // roots and into the argument lists of live nodes.
    std::vector<std::pair<const Expr *, size_t>> stack;
    std::vector<Expr> out;
    out.reserve(roots.size());
    for (const Expr &root : roots) {
        if (!root.defined()) {
            out.push_back(root);
            continue;
        }
        if (!memo.count(root.get()))
            stack.emplace_back(&root, 0);
        while (!stack.empty()) {
            auto &[node, child] = stack.back();
            if (child < (*node)->args().size()) {
                const Expr *next = &(*node)->args()[child++];
                if (!memo.count(next->get()))
                    stack.emplace_back(next, 0);
                continue;
            }
            memo.emplace(node->get(), replace(*node));
            stack.pop_back();
        }
        out.push_back(memo.at(root.get()));
    }
    if (nodes_visited)
        *nodes_visited = memo.size();
    return out;
}

Expr
substitute(const Expr &root,
           const std::vector<std::pair<std::string, Expr>> &map)
{
    return substitute(std::vector<Expr>{root}, map)[0];
}

size_t
countNodes(const std::vector<Expr> &roots)
{
    std::unordered_set<const ExprNode *> seen;
    for (const Expr &root : roots)
        visitPostorder(root, seen, [](const Expr &) {});
    return seen.size();
}

size_t
internTableSize()
{
    return Interner::instance().size();
}

} // namespace expr
} // namespace felix
