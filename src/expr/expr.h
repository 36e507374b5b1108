/**
 * @file
 * Symbolic expression DAG.
 *
 * Felix represents schedule-variable formulas (loop bounds, feature
 * formulas, legality constraints, penalty functions) as immutable,
 * hash-consed expression nodes. Two structurally equal expressions
 * are the same node, so equality is pointer equality and DAG-wide
 * passes (evaluation, autodiff, rewriting) are linear in the number
 * of distinct nodes.
 *
 * Construction performs constant folding and a small set of local
 * algebraic simplifications (x+0, x*1, log(exp x), ...), which keeps
 * feature formulas compact without a separate normalization pass.
 *
 * Construction is thread-safe: the intern table is sharded into
 * lock-striped sub-tables and node hashes are purely structural, so
 * concurrent interning from pool workers yields the same canonical
 * nodes as a single-threaded run (see docs/parallelism.md).
 */
#ifndef FELIX_EXPR_EXPR_H_
#define FELIX_EXPR_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace felix {
namespace expr {

/** Operation tags for expression nodes. */
enum class OpCode : uint8_t {
    ConstOp,   ///< floating-point literal
    VarOp,     ///< named schedule variable
    Add, Sub, Mul, Div,
    Pow,       ///< pow(base, exponent)
    Min, Max,
    Neg,
    Log,       ///< natural logarithm
    Exp,
    Sqrt,
    Abs,
    Floor,
    Atan,      ///< arctangent (used by the Cauchy smoothing kernel)
    Sigmoid,   ///< smooth step in (0,1); kernel-dependent shape
    Lt, Le, Gt, Ge, Eq, Ne,   ///< comparisons producing 0/1
    Select,    ///< select(cond, then, else)
};

/** Human-readable name for an opcode (used by the printer). */
const char *opName(OpCode op);

/** Number of operands an opcode takes (0 for leaf nodes). */
int opArity(OpCode op);

class ExprNode;
using ExprNodePtr = std::shared_ptr<const ExprNode>;

/**
 * Value-type handle to an interned expression node.
 *
 * A default-constructed Expr is "undefined" and must not be used as
 * an operand. All factory functions and operators return defined
 * expressions.
 */
class Expr
{
  public:
    Expr() = default;

    /** Wrap an existing node (internal use by the interner). */
    explicit Expr(ExprNodePtr node) : node_(std::move(node)) {}

    /** A floating-point literal. */
    static Expr constant(double value);

    /** An integer literal (stored as double; exact up to 2^53). */
    static Expr intConst(int64_t value);

    /** A named schedule variable. Same name => same node. */
    static Expr var(const std::string &name);

    bool defined() const { return node_ != nullptr; }
    const ExprNode *get() const { return node_.get(); }
    const ExprNode *operator->() const { return node_.get(); }
    const ExprNodePtr &ptr() const { return node_; }

    /** Structural (== pointer) equality thanks to hash-consing. */
    bool same(const Expr &other) const { return node_ == other.node_; }

    /** True when this node is a constant (optionally a given value). */
    bool isConst() const;
    bool isConst(double value) const;

    /** Constant value; panics when not a constant. */
    double constValue() const;

    /** True when this node is a variable. */
    bool isVar() const;

    /** Variable name; panics when not a variable. */
    const std::string &varName() const;

    /** Render to a human-readable string. */
    std::string str() const;

  private:
    ExprNodePtr node_;
};

/**
 * An immutable interned expression node.
 */
class ExprNode
{
  public:
    ExprNode(OpCode op, double value, std::string var_name,
             std::vector<Expr> args, uint64_t hash, uint64_t id);

    OpCode op() const { return op_; }
    double value() const { return value_; }
    const std::string &varName() const { return varName_; }
    const std::vector<Expr> &args() const { return args_; }

    /** Structural hash (combined from child hashes; intern-order
     * independent, identical across threads and runs). */
    uint64_t hash() const { return hash_; }

    /** Unique intern id. NOT ordering-stable under concurrent
     * interning; use only as an opaque identity, never for order. */
    uint64_t id() const { return id_; }

  private:
    OpCode op_;
    double value_;          ///< payload for ConstOp
    std::string varName_;   ///< payload for VarOp
    std::vector<Expr> args_;
    uint64_t hash_;
    uint64_t id_;
};

// Arithmetic constructors. All perform folding/simplification.
Expr add(Expr a, Expr b);
Expr sub(Expr a, Expr b);
Expr mul(Expr a, Expr b);
Expr div(Expr a, Expr b);
Expr pow(Expr base, Expr exponent);
Expr min(Expr a, Expr b);
Expr max(Expr a, Expr b);
Expr neg(Expr a);
Expr log(Expr a);
Expr exp(Expr a);
Expr sqrt(Expr a);
Expr abs(Expr a);
Expr floor(Expr a);
Expr atan(Expr a);
Expr sigmoid(Expr a);
Expr lt(Expr a, Expr b);
Expr le(Expr a, Expr b);
Expr gt(Expr a, Expr b);
Expr ge(Expr a, Expr b);
Expr eq(Expr a, Expr b);
Expr ne(Expr a, Expr b);
Expr select(Expr cond, Expr then_val, Expr else_val);

inline Expr operator+(Expr a, Expr b) { return add(a, b); }
inline Expr operator-(Expr a, Expr b) { return sub(a, b); }
inline Expr operator*(Expr a, Expr b) { return mul(a, b); }
inline Expr operator/(Expr a, Expr b) { return div(a, b); }
inline Expr operator-(Expr a) { return neg(a); }

inline Expr operator+(Expr a, double b) { return add(a, Expr::constant(b)); }
inline Expr operator+(double a, Expr b) { return add(Expr::constant(a), b); }
inline Expr operator-(Expr a, double b) { return sub(a, Expr::constant(b)); }
inline Expr operator-(double a, Expr b) { return sub(Expr::constant(a), b); }
inline Expr operator*(Expr a, double b) { return mul(a, Expr::constant(b)); }
inline Expr operator*(double a, Expr b) { return mul(Expr::constant(a), b); }
inline Expr operator/(Expr a, double b) { return div(a, Expr::constant(b)); }
inline Expr operator/(double a, Expr b) { return div(Expr::constant(a), b); }

/** Evaluate the scalar semantics of an opcode on concrete values. */
double evalOp(OpCode op, const double *args);

/** Collect the distinct variables reachable from the given roots. */
std::vector<std::string> collectVars(const std::vector<Expr> &roots);

/**
 * Substitute variables by expressions (name -> replacement) in every
 * root. One memo spans all roots, so a subterm the roots share is
 * rebuilt once; result i is the same node substitute(roots[i], map)
 * returns. When @p nodes_visited is given it receives the number of
 * distinct nodes visited (the memo's size).
 */
std::vector<Expr>
substitute(const std::vector<Expr> &roots,
           const std::vector<std::pair<std::string, Expr>> &map,
           size_t *nodes_visited = nullptr);

/** substitute of one root. */
Expr substitute(const Expr &root,
                const std::vector<std::pair<std::string, Expr>> &map);

/** Count distinct nodes reachable from the roots (for tests/stats). */
size_t countNodes(const std::vector<Expr> &roots);

/** Number of live interned nodes in the global intern table. */
size_t internTableSize();

} // namespace expr
} // namespace felix

#endif // FELIX_EXPR_EXPR_H_
