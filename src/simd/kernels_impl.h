/**
 * @file
 * The templated kernel bodies behind simd/kernels.h, written once
 * against the Vec API of support/simd.h and instantiated per backend
 * by the kernels_<arch>.cc translation units (each compiled with the
 * matching -m flags, so including this header anywhere else is
 * almost certainly a mistake).
 *
 * Determinism: every loop below processes independent SoA lanes in
 * chunks of V::kWidth with the scalar per-lane operation sequence
 * (see the vector kernels in expr/op_kernels.h and the blocked-order
 * comments inline). kBatchLanes is statically a multiple of every
 * backend width, so the tape/MLP row loops never carry a ragged
 * tail; the Adam kernel runs over arbitrary-length parameter vectors
 * and finishes the remainder with the identical scalar formula.
 */
#ifndef FELIX_SIMD_KERNELS_IMPL_H_
#define FELIX_SIMD_KERNELS_IMPL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "expr/op_kernels.h"
#include "expr/tape.h"
#include "simd/kernels.h"
#include "support/batch.h"
#include "support/logging.h"
#include "support/simd.h"

namespace felix {
namespace simd {

/** CompiledExprs::forwardBatch instruction sweep (SSA slots: the
 *  destination row never aliases the operand rows).
 *
 *  The tape is mostly one long dependent chain — instruction i+1
 *  usually consumes slot i — so a naive sweep pays a store-to-load
 *  round trip per instruction on the critical path. When a row is a
 *  single vector (C == 1), `last` mirrors the previous instruction's
 *  result in a register; operands that name slot-1 read the register
 *  copy instead of reloading the row just stored, which shortens the
 *  chain to the arithmetic itself. The bits are identical either way
 *  (the register copy is exactly what was stored), so per-lane
 *  exactness is unaffected. With C > 1 the chunks already form C
 *  independent chains that overlap in the pipeline, and carrying C
 *  live registers plus per-chunk blends costs more than the reloads
 *  save, so the plain loads are kept. */
template <class V>
void
tapeForwardT(const expr::TapeProgram &program, double *vals)
{
    constexpr std::size_t L = kBatchLanes;
    constexpr std::size_t W = V::kWidth;
    constexpr std::size_t C = L / W;     // chunks per row
    constexpr bool kFwd = (C == 1);      // register-forward slot-1?
    namespace opk = expr::opk;
    std::size_t slot = program.firstOpSlot();
    if (program.instrs.empty())
        return;
    // Seed `last` with slot-1's row (always a leaf slot: an
    // optimized tape with instructions has at least one variable or
    // constant), so the first instruction needs no special case.
    V last[1] = {V::broadcast(0.0)};
    if constexpr (kFwd)
        last[0] = V::load(&vals[(slot - 1) * L]);
    for (const expr::TapeInstr &instr : program.instrs) {
        const int prev = static_cast<int>(slot) - 1;
        const bool f0 = kFwd && instr.a0 == prev;
        const bool f1 = kFwd && instr.a1 == prev;
        const double *a =
            &vals[static_cast<std::size_t>(instr.a0) * L];
        const double *b =
            instr.a1 >= 0
                ? &vals[static_cast<std::size_t>(instr.a1) * L]
                : a;
        const double *c =
            instr.a2 >= 0
                ? &vals[static_cast<std::size_t>(instr.a2) * L]
                : a;
        double *out = &vals[slot++ * L];

#define FELIX_SIMD_LANES_1(KER)                                        \
    for (std::size_t ch = 0; ch < C; ++ch) {                           \
        const V va = f0 ? last[0] : V::load(a + ch * W);               \
        const V r = opk::KER<V>(va);                                   \
        r.store(out + ch * W);                                         \
        if constexpr (kFwd)                                            \
            last[0] = r;                                               \
    }                                                                  \
    break
#define FELIX_SIMD_LANES_2(KER)                                        \
    for (std::size_t ch = 0; ch < C; ++ch) {                           \
        const V va = f0 ? last[0] : V::load(a + ch * W);               \
        const V vb = f1 ? last[0] : V::load(b + ch * W);               \
        const V r = opk::KER<V>(va, vb);                               \
        r.store(out + ch * W);                                         \
        if constexpr (kFwd)                                            \
            last[0] = r;                                               \
    }                                                                  \
    break

        switch (instr.op) {
          case expr::OpCode::Add: FELIX_SIMD_LANES_2(fwdAddV);
          case expr::OpCode::Sub: FELIX_SIMD_LANES_2(fwdSubV);
          case expr::OpCode::Mul: FELIX_SIMD_LANES_2(fwdMulV);
          case expr::OpCode::Div: FELIX_SIMD_LANES_2(fwdDivV);
          case expr::OpCode::Pow: FELIX_SIMD_LANES_2(fwdPowV);
          case expr::OpCode::Min: FELIX_SIMD_LANES_2(fwdMinV);
          case expr::OpCode::Max: FELIX_SIMD_LANES_2(fwdMaxV);
          case expr::OpCode::Neg: FELIX_SIMD_LANES_1(fwdNegV);
          case expr::OpCode::Log: FELIX_SIMD_LANES_1(fwdLogV);
          case expr::OpCode::Exp: FELIX_SIMD_LANES_1(fwdExpV);
          case expr::OpCode::Sqrt: FELIX_SIMD_LANES_1(fwdSqrtV);
          case expr::OpCode::Abs: FELIX_SIMD_LANES_1(fwdAbsV);
          case expr::OpCode::Floor: FELIX_SIMD_LANES_1(fwdFloorV);
          case expr::OpCode::Atan: FELIX_SIMD_LANES_1(fwdAtanV);
          case expr::OpCode::Sigmoid: FELIX_SIMD_LANES_1(fwdSigmoidV);
          case expr::OpCode::Lt: FELIX_SIMD_LANES_2(fwdLtV);
          case expr::OpCode::Le: FELIX_SIMD_LANES_2(fwdLeV);
          case expr::OpCode::Gt: FELIX_SIMD_LANES_2(fwdGtV);
          case expr::OpCode::Ge: FELIX_SIMD_LANES_2(fwdGeV);
          case expr::OpCode::Eq: FELIX_SIMD_LANES_2(fwdEqV);
          case expr::OpCode::Ne: FELIX_SIMD_LANES_2(fwdNeV);
          case expr::OpCode::Select: {
            const bool f2 = kFwd && instr.a2 == prev;
            for (std::size_t ch = 0; ch < C; ++ch) {
                const V va = f0 ? last[0] : V::load(a + ch * W);
                const V vb = f1 ? last[0] : V::load(b + ch * W);
                const V vc = f2 ? last[0] : V::load(c + ch * W);
                const V r = opk::fwdSelectV<V>(va, vb, vc);
                r.store(out + ch * W);
                if constexpr (kFwd)
                    last[0] = r;
            }
            break;
          }
          case expr::OpCode::ConstOp:
          case expr::OpCode::VarOp:
            panic("leaf opcode in optimized tape");
        }

#undef FELIX_SIMD_LANES_1
#undef FELIX_SIMD_LANES_2
    }
}

/** CompiledExprs::backwardBatch reverse sweep. The chunk-level
 *  all-zero skip is the vector form of the scalar per-lane zero
 *  skip: skipping a chunk whose adjoints are all +0.0 adds nothing,
 *  and chunks with any live lane go through backpropOpV, whose
 *  blends add exact +0.0 on the dead lanes (a bitwise no-op on
 *  accumulator rows — see the kernel's comment). */
template <class V>
void
tapeBackwardT(const expr::TapeProgram &program, const double *vals,
              double *adjs)
{
    constexpr std::size_t L = kBatchLanes;
    const V zero = V::broadcast(0.0);
    for (std::size_t i = program.instrs.size(); i-- > 0;) {
        const expr::TapeInstr &instr = program.instrs[i];
        const std::size_t slot = program.firstOpSlot() + i;
        const double *adjRow = &adjs[slot * L];
        const double *valRow = &vals[slot * L];
        const double *a0Row =
            &vals[static_cast<std::size_t>(instr.a0) * L];
        double *adj0Row =
            &adjs[static_cast<std::size_t>(instr.a0) * L];
        const double *a1Row =
            instr.a1 >= 0
                ? &vals[static_cast<std::size_t>(instr.a1) * L]
                : nullptr;
        double *adj1Row =
            instr.a1 >= 0
                ? &adjs[static_cast<std::size_t>(instr.a1) * L]
                : nullptr;
        double *adj2Row =
            instr.a2 >= 0
                ? &adjs[static_cast<std::size_t>(instr.a2) * L]
                : nullptr;
        for (std::size_t l = 0; l < L; l += V::kWidth) {
            const V adj = V::load(adjRow + l);
            if (!anyLane(cne(adj, zero)))
                continue;
            expr::opk::backpropOpV<V>(
                instr.op, adj, V::load(valRow + l),
                V::load(a0Row + l),
                a1Row ? V::load(a1Row + l) : zero, adj0Row + l,
                adj1Row ? adj1Row + l : nullptr,
                adj2Row ? adj2Row + l : nullptr);
        }
    }
}

/** Lanes a layer kernel sweeps for @p lanes occupied lanes: whole
 *  vectors of the backend, never past the row. */
template <class V>
std::size_t
sweptLanes(int lanes)
{
    constexpr std::size_t W = V::kWidth;
    return (static_cast<std::size_t>(lanes) + W - 1) / W * W;
}

/** mlpForwardLayerT over lanes [lane0, lane0 + T * kWidth): kBlock
 *  neurons share each input-row load, T vectors per neuron. */
template <class V, std::size_t T>
void
mlpForwardTile(const double *weights, const double *bias, int in,
               int out, bool hidden, const double *cur,
               double *out_rows, std::size_t lane0)
{
    constexpr std::size_t L = kBatchLanes;
    constexpr std::size_t W = V::kWidth;
    const V zero = V::broadcast(0.0);
    constexpr int kBlock = 4;
    const int fullEnd = out - out % kBlock;
    for (int ob = 0; ob < fullEnd; ob += kBlock) {
        V acc[kBlock][T];
        for (int b = 0; b < kBlock; ++b)
            for (std::size_t ch = 0; ch < T; ++ch)
                acc[b][ch] = V::broadcast(bias[ob + b]);
        for (int i = 0; i < in; ++i) {
            const double *curRow =
                cur + static_cast<std::size_t>(i) * L + lane0;
            for (int b = 0; b < kBlock; ++b) {
                const V w = V::broadcast(
                    weights[static_cast<std::size_t>(ob + b) * in +
                            i]);
                for (std::size_t ch = 0; ch < T; ++ch)
                    acc[b][ch] =
                        acc[b][ch] + w * V::load(curRow + ch * W);
            }
        }
        for (int b = 0; b < kBlock; ++b) {
            double *outRow = out_rows +
                             static_cast<std::size_t>(ob + b) * L +
                             lane0;
            for (std::size_t ch = 0; ch < T; ++ch) {
                V a = acc[b][ch];
                if (hidden)
                    a = select(clt(a, zero), zero, a);
                a.store(outRow + ch * W);
            }
        }
    }
    for (int o = fullEnd; o < out; ++o) {
        V acc[T];
        for (std::size_t ch = 0; ch < T; ++ch)
            acc[ch] = V::broadcast(bias[o]);
        const double *row =
            weights + static_cast<std::size_t>(o) * in;
        for (int i = 0; i < in; ++i) {
            const V w = V::broadcast(row[i]);
            const double *curRow =
                cur + static_cast<std::size_t>(i) * L + lane0;
            for (std::size_t ch = 0; ch < T; ++ch)
                acc[ch] = acc[ch] + w * V::load(curRow + ch * W);
        }
        double *outRow =
            out_rows + static_cast<std::size_t>(o) * L + lane0;
        for (std::size_t ch = 0; ch < T; ++ch) {
            V a = acc[ch];
            if (hidden)
                a = select(clt(a, zero), zero, a);
            a.store(outRow + ch * W);
        }
    }
}

/** Blocked batched MLP layer forward (Mlp::forwardLayerBatch) over
 *  the first @p lanes lanes, rounded up to whole vectors; per lane
 *  the accumulation order stays bias first, then inputs 0..in-1.
 *  The accumulator tile is kBlock neurons x kTile vectors at every
 *  width, so it stays in registers: a tile as wide as the row (16
 *  lanes) is 64 live accumulators at width 1, which spilled on
 *  every multiply-add. Tiling only moves lanes between passes; no
 *  lane's operation sequence changes. */
template <class V>
void
mlpForwardLayerT(const double *weights, const double *bias, int in,
                 int out, bool hidden, int lanes, const double *cur,
                 double *out_rows)
{
    constexpr std::size_t W = V::kWidth;
    constexpr std::size_t kTile = 2;
    const std::size_t chunks = sweptLanes<V>(lanes) / W;
    std::size_t ch = 0;
    for (; ch + kTile <= chunks; ch += kTile)
        mlpForwardTile<V, kTile>(weights, bias, in, out, hidden, cur,
                                 out_rows, ch * W);
    for (; ch < chunks; ++ch)
        mlpForwardTile<V, 1>(weights, bias, in, out, hidden, cur,
                             out_rows, ch * W);
}

/** Neurons [ob, ob + NB) of mlpBackwardLayerT's accumulate: the
 *  block's weights for input i stay in registers across the lane
 *  chunks, and per (input, lane) the additions run in ascending
 *  neuron order. */
template <class V, int NB>
void
mlpBackwardBlock(const double *weights, int in, int ob,
                 std::size_t sweep, const double *madj, double *prev)
{
    constexpr std::size_t L = kBatchLanes;
    constexpr std::size_t W = V::kWidth;
    for (int i = 0; i < in; ++i) {
        // Unrolled so the weights live in registers: without it -O2
        // keeps w[] on the stack and reloads it per lane chunk.
        V w[NB];
#pragma GCC unroll 8
        for (int b = 0; b < NB; ++b)
            w[b] = V::broadcast(
                weights[static_cast<std::size_t>(ob + b) * in + i]);
        double *pRow = prev + static_cast<std::size_t>(i) * L;
        for (std::size_t l = 0; l < sweep; l += W) {
            V p = V::load(pRow + l);
#pragma GCC unroll 8
            for (int b = 0; b < NB; ++b)
                p = p + V::load(madj +
                                static_cast<std::size_t>(ob + b) * L +
                                l) *
                            w[b];
            p.store(pRow + l);
        }
    }
}

/** One layer of Mlp::forwardInputGradStaged's backward over the
 *  first @p lanes lanes, rounded up to whole vectors: the masked
 *  adjoint rows (madj = gate ? adj : 0 BEFORE the multiplies — the
 *  -0.0 argument in mlp.cc), then the 8-neuron blocked accumulate
 *  (a ragged tail of neurons one at a time); per (input, lane)
 *  additions run in ascending neuron order. */
template <class V>
void
mlpBackwardLayerT(const double *weights, int in, int out, bool hidden,
                  int lanes, const double *out_acts, const double *adj,
                  double *madj, double *prev)
{
    constexpr std::size_t L = kBatchLanes;
    constexpr std::size_t W = V::kWidth;
    const std::size_t sweep = sweptLanes<V>(lanes);
    const V zero = V::broadcast(0.0);
    for (int o = 0; o < out; ++o) {
        const double *outRow =
            out_acts + static_cast<std::size_t>(o) * L;
        const double *aRow = adj + static_cast<std::size_t>(o) * L;
        double *mRow = madj + static_cast<std::size_t>(o) * L;
        for (std::size_t l = 0; l < sweep; l += W) {
            V a = V::load(aRow + l);
            if (hidden)
                a = select(cgt(V::load(outRow + l), zero), a, zero);
            a.store(mRow + l);
        }
    }
    constexpr int kBlock = 8;
    int ob = 0;
    for (; ob + kBlock <= out; ob += kBlock)
        mlpBackwardBlock<V, kBlock>(weights, in, ob, sweep, madj, prev);
    for (; ob < out; ++ob)
        mlpBackwardBlock<V, 1>(weights, in, ob, sweep, madj, prev);
}

/** Weight and bias gradients of one layer in Mlp::trainBatch. The
 *  per-sample loop this replaces skipped a neuron whose gate was
 *  closed and otherwise ran gw[i] += a * in[i] and gb += a, one
 *  sample after another; here each gradient element gets exactly
 *  that chain — start value, then the open lanes' terms in
 *  ascending lane order — so the result is bit-identical. Lanes are
 *  the reduction axis, so the vectors run along the input axis
 *  instead (a gradient row is contiguous, hence in_lanes is
 *  lane-major), with a block of kBlock accumulators per tile for
 *  independent add chains and a scalar tail for ragged rows. */
template <class V>
void
mlpWeightGradLayerT(const double *in_lanes, const double *out_acts,
                    const double *adj, int in, int out, bool hidden,
                    int lanes, bool accumulate, double *gW, double *gB)
{
    constexpr std::size_t L = kBatchLanes;
    constexpr std::size_t W = V::kWidth;
    constexpr std::size_t kBlock = 8;
    const std::size_t n = static_cast<std::size_t>(in);
    const double *rows[L];
    double as[L];
    for (int o = 0; o < out; ++o) {
        const double *aRow = adj + static_cast<std::size_t>(o) * L;
        const double *outRow =
            out_acts + static_cast<std::size_t>(o) * L;
        std::size_t open = 0;
        for (int l = 0; l < lanes; ++l) {
            if (hidden && outRow[l] <= 0.0)
                continue;
            rows[open] = in_lanes + static_cast<std::size_t>(l) * n;
            as[open++] = aRow[l];
        }

        double b = accumulate ? gB[o] : 0.0;
        for (std::size_t k = 0; k < open; ++k)
            b += as[k];
        gB[o] = b;

        double *g = gW + static_cast<std::size_t>(o) * n;
        std::size_t i = 0;
        for (; i + kBlock * W <= n; i += kBlock * W) {
            V acc[kBlock];
            for (std::size_t t = 0; t < kBlock; ++t)
                acc[t] = accumulate ? V::load(g + i + t * W)
                                    : V::broadcast(0.0);
            for (std::size_t k = 0; k < open; ++k) {
                const V a = V::broadcast(as[k]);
                for (std::size_t t = 0; t < kBlock; ++t)
                    acc[t] =
                        acc[t] + a * V::load(rows[k] + i + t * W);
            }
            for (std::size_t t = 0; t < kBlock; ++t)
                acc[t].store(g + i + t * W);
        }
        for (; i + W <= n; i += W) {
            V acc = accumulate ? V::load(g + i) : V::broadcast(0.0);
            for (std::size_t k = 0; k < open; ++k)
                acc = acc + V::broadcast(as[k]) * V::load(rows[k] + i);
            acc.store(g + i);
        }
        for (; i < n; ++i) {
            double acc = accumulate ? g[i] : 0.0;
            for (std::size_t k = 0; k < open; ++k)
                acc += as[k] * rows[k][i];
            g[i] = acc;
        }
    }
}

/** Adam parameter update (optim/adam.cc formula order), vector body
 *  plus a scalar ragged tail with the identical operation sequence. */
template <class V>
void
adamStepT(double *x, const double *g, double *m, double *v,
          std::size_t n, double beta1, double beta2, double corr1,
          double corr2, double lr, double eps)
{
    constexpr std::size_t W = V::kWidth;
    const V b1 = V::broadcast(beta1);
    const V b2 = V::broadcast(beta2);
    const V ob1 = V::broadcast(1.0 - beta1);
    const V ob2 = V::broadcast(1.0 - beta2);
    const V c1 = V::broadcast(corr1);
    const V c2 = V::broadcast(corr2);
    const V vlr = V::broadcast(lr);
    const V veps = V::broadcast(eps);
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
        const V gi = V::load(g + i);
        const V mi = b1 * V::load(m + i) + ob1 * gi;
        const V vi = b2 * V::load(v + i) + (ob2 * gi) * gi;
        mi.store(m + i);
        vi.store(v + i);
        const V mHat = mi / c1;
        const V vHat = vi / c2;
        (V::load(x + i) - (vlr * mHat) / (vsqrt(vHat) + veps))
            .store(x + i);
    }
    for (; i < n; ++i) {
        m[i] = beta1 * m[i] + (1.0 - beta1) * g[i];
        v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i];
        const double mHat = m[i] / corr1;
        const double vHat = v[i] / corr2;
        x[i] -= lr * mHat / (std::sqrt(vHat) + eps);
    }
}

/** The FMA-contraction canary: fl(fl(a*b)+c) through this backend's
 *  multiply and add. If the TU is (re)compiled with contraction
 *  enabled — e.g. the global -ffp-contract=off is dropped under
 *  FELIX_NATIVE — the compiler may fuse this into one rounding and
 *  tests/test_simd.cc's guard fails. */
template <class V>
double
probeMulAddT(double a, double b, double c)
{
    double out[V::kWidth];
    (V::broadcast(a) * V::broadcast(b) + V::broadcast(c)).store(out);
    return out[0];
}

/** Assemble one backend's table. */
template <class V>
KernelSet
makeKernelSet(const char *name)
{
    static_assert(kBatchLanes % V::kWidth == 0,
                  "kBatchLanes must be a multiple of every backend "
                  "vector width");
    return KernelSet{static_cast<int>(V::kWidth),
                     name,
                     &tapeForwardT<V>,
                     &tapeBackwardT<V>,
                     &mlpForwardLayerT<V>,
                     &mlpBackwardLayerT<V>,
                     &mlpWeightGradLayerT<V>,
                     &adamStepT<V>,
                     &probeMulAddT<V>};
}

} // namespace simd
} // namespace felix

#endif // FELIX_SIMD_KERNELS_IMPL_H_
