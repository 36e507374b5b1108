/**
 * @file
 * The copy-and-patch tape JIT: a small fixed-shape AVX2 emitter.
 *
 * Layout contract (identical to the interpreter kernels): slot rows
 * of kBatchLanes doubles, so slot s lives at byte offset
 * s * kBatchLanes * 8 inside the vals/adjs buffers (s * 128 at the
 * default 16 lanes); each row is processed as kBatchLanes / 4
 * 256-bit chunks.
 *
 * Emitted forward function, SysV x86-64:
 *     void fwd(double *vals)            // rdi
 * rbx keeps vals (callee-saved, survives stencil calls). Per
 * instruction either an inline body (the exact instruction sequence
 * of the opk::fwd*V kernels — see the per-op emitters below) or a
 * call to a libm-backed stencil. ymm12..15 mirror the previous
 * instruction's result row across its first four chunks, so
 * consecutive instructions in the tape's dependent chain forward
 * through registers instead of a store-to-load round trip — the same
 * trick the C == 1 interpreter plays (kernels_impl.h), here applied
 * at four chunks because straight-line code has no per-instruction
 * dispatch to pay for the extra live registers. The mirror is
 * invalidated across stencil calls (all ymm are caller-saved).
 * Register copies never change bits, so forwarding is invisible to
 * the parity tests.
 *
 * Emitted backward function:
 *     void bwd(const double *vals, double *adjs)   // rdi, rsi
 * rbx=vals, rbp=adjs. Zero-derivative ops (compares, floor) emit
 * nothing; Add/Sub/Neg — whose adjoint contributions are adj itself
 * and need no masking (op_kernels.h) — are inlined; every other op
 * calls its backward stencil, which runs the interpreter's exact
 * per-instruction body including the all-zero chunk skip. Inline ops
 * process every chunk unconditionally: a chunk whose adjoints are
 * all +0.0 contributes exact +0.0 (or -0.0 via Sub/Neg) to
 * accumulator rows that can never hold -0.0, a bitwise no-op, so
 * skip granularity cannot change results (the same argument that
 * lets backends skip at different chunk widths).
 *
 * Both functions end in vzeroupper: callers are compiled without
 * AVX, and returning with dirty upper halves would stall their SSE
 * code. The stencils themselves are AVX-compiled (no transition),
 * and the compiler inserts vzeroupper around their libm calls.
 */
#include "jit/jit.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define FELIX_JIT_HAVE_MMAP 1
#endif

#include "jit/stencils.h"
#include "obs/metrics.h"
#include "support/batch.h"
#include "support/logging.h"

namespace felix {
namespace jit {

namespace {

std::atomic<int> g_enabled{-1}; // -1 unresolved, 0 off, 1 on
std::mutex g_mutex;

void
publishEnabled(bool on)
{
    obs::MetricsRegistry::instance().gauge("jit.enabled").set(
        on ? 1.0 : 0.0);
}

} // namespace

bool
supported()
{
#if defined(FELIX_JIT_X86_AVX2) && defined(__x86_64__)
    static const bool ok = __builtin_cpu_supports("avx2") != 0;
    return ok;
#else
    return false;
#endif
}

bool
enabled()
{
    int state = g_enabled.load(std::memory_order_acquire);
    if (state < 0) {
        std::lock_guard<std::mutex> lock(g_mutex);
        state = g_enabled.load(std::memory_order_relaxed);
        if (state < 0) {
            bool on = true;
            if (const char *env = std::getenv("FELIX_JIT")) {
                const std::string value(env);
                on = !(value == "off" || value == "0");
            }
            state = on ? 1 : 0;
            publishEnabled(on);
            if (supported()) {
                inform("jit: tape JIT ",
                       on ? "enabled" : "disabled by FELIX_JIT",
                       " (avx2 stencils)");
            }
            g_enabled.store(state, std::memory_order_release);
        }
    }
    return state == 1;
}

void
setEnabled(bool on)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    g_enabled.store(on ? 1 : 0, std::memory_order_release);
    publishEnabled(on);
}

#ifdef FELIX_JIT_X86_AVX2

namespace {

/** Broadcast constants the inline op bodies load via [rax + k*8]. */
alignas(64) const double kConsts[] = {
    -0.0,  // 0: sign mask (neg, abs)
    1.0,   // 1: compares, sigmoid
    0.5,   // 2: sigmoid
    1e18,  // 3: totalized division
    -1e18, // 4: totalized division
};

constexpr int kRowBytes =
    static_cast<int>(kBatchLanes) * static_cast<int>(sizeof(double));
constexpr int kChunks = static_cast<int>(kBatchLanes) / 4;
/** Chunks whose result the forward emitter mirrors in ymm12..15.
 *  VEX encodes ymm0..15 only, so rows wider than 16 lanes compute
 *  their remaining chunks in ymm6 and are reloaded from memory. */
constexpr int kMirrorChunks = kChunks < 4 ? kChunks : 4;

/** Minimal x86-64 assembler: only the encodings the two emitters
 *  need. All vector ops are VEX.256.66; ymm operands 0..15. */
class Asm
{
  public:
    explicit Asm(std::vector<uint8_t> &code) : c_(code) {}

    // --- raw bytes -------------------------------------------------
    void u8(uint8_t b) { c_.push_back(b); }
    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            u8(static_cast<uint8_t>(v >> (8 * i)));
    }
    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            u8(static_cast<uint8_t>(v >> (8 * i)));
    }

    // VEX.vvvv holds the bit-INVERTED src1 register; instructions
    // that don't take one require the encoded field to be 1111b,
    // i.e. logical register 0 through the inverting encoder.
    static constexpr int kNoVvvv = 0;

    // --- VEX-encoded ymm ops --------------------------------------
    // dst = s1 <op> s2 for the classic 0F arithmetic group.
    void
    arith(uint8_t opcode, int dst, int s1, int s2)
    {
        vex(dst, s2, s1, 1);
        u8(opcode);
        modRR(dst, s2);
    }
    void
    vmovupdLoad(int dst, int base, int32_t disp)
    {
        vex(dst, base, kNoVvvv, 1);
        u8(0x10);
        modMem(dst, base, disp);
    }
    void
    vmovupdStore(int base, int32_t disp, int src)
    {
        vex(src, base, kNoVvvv, 1);
        u8(0x11);
        modMem(src, base, disp);
    }
    void
    vmovapd(int dst, int src)
    {
        vex(dst, src, kNoVvvv, 1);
        u8(0x28);
        modRR(dst, src);
    }
    void
    vsqrtpd(int dst, int src)
    {
        vex(dst, src, kNoVvvv, 1);
        u8(0x51);
        modRR(dst, src);
    }
    void
    vcmppd(int dst, int s1, int s2, uint8_t pred)
    {
        arith(0xC2, dst, s1, s2);
        u8(pred);
    }
    /** dst = lanes of `floor` (vroundpd imm 0x09: toward -inf, no
     *  exceptions — the encoding _mm256_floor_pd resolves to). */
    void
    vfloor(int dst, int src)
    {
        vex(dst, src, kNoVvvv, 3);
        u8(0x09);
        modRR(dst, src);
        u8(0x09);
    }
    /** dst = mask-sign-selected blend: blendv(e, t, mask) — exactly
     *  _mm256_blendv_pd's operand order from simd.h select(). */
    void
    vblendvpd(int dst, int e, int t, int mask)
    {
        vex(dst, t, e, 3);
        u8(0x4B);
        modRR(dst, t);
        u8(static_cast<uint8_t>(mask << 4));
    }
    void
    vbroadcastsd(int dst, int base, int32_t disp)
    {
        vex(dst, base, kNoVvvv, 2);
        u8(0x19);
        modMem(dst, base, disp);
    }
    void vxorSelf(int dst) { arith(0x57, dst, dst, dst); }
    void
    vzeroupper()
    {
        u8(0xC5);
        u8(0xF8);
        u8(0x77);
    }

    // --- GPR ops ---------------------------------------------------
    void pushRbx() { u8(0x53); }
    void pushRbp() { u8(0x55); }
    void popRbx() { u8(0x5B); }
    void popRbp() { u8(0x5D); }
    void
    subRsp8()
    {
        u8(0x48);
        u8(0x83);
        u8(0xEC);
        u8(0x08);
    }
    void
    addRsp8()
    {
        u8(0x48);
        u8(0x83);
        u8(0xC4);
        u8(0x08);
    }
    void
    movRR64(int dst, int src) // both in rax..rdi
    {
        u8(0x48);
        u8(0x89);
        u8(static_cast<uint8_t>(0xC0 | ((src & 7) << 3) | (dst & 7)));
    }
    void
    movRsiRbp() // r12-free variant kept simple: rbp holds adjs
    {
        movRR64(6, 5);
    }
    void
    movRaxImm64(uint64_t v)
    {
        u8(0x48);
        u8(0xB8);
        u64(v);
    }
    void
    callRax()
    {
        u8(0xFF);
        u8(0xD0);
    }
    void ret() { u8(0xC3); }
    /** lea gpr, [rbx + disp32]; gpr one of rdx/rsi/rdi. */
    void
    leaRbx(int gpr, int32_t disp)
    {
        u8(0x48);
        u8(0x8D);
        u8(static_cast<uint8_t>(0x80 | ((gpr & 7) << 3) | 3));
        u32(static_cast<uint32_t>(disp));
    }
    /** mov r32, imm32; gpr index may be >= 8 (r8d/r9d). */
    void
    movImm32(int gpr, uint32_t v)
    {
        if (gpr >= 8)
            u8(0x41);
        u8(static_cast<uint8_t>(0xB8 + (gpr & 7)));
        u32(v);
    }

  private:
    void
    vex(int reg, int rm, int vvvv, int mmmmm, int l = 1, int pp = 1)
    {
        u8(0xC4);
        u8(static_cast<uint8_t>(((~(reg >> 3) & 1) << 7) | (1 << 6) |
                                ((~(rm >> 3) & 1) << 5) | mmmmm));
        u8(static_cast<uint8_t>(((~vvvv & 0xF) << 3) | (l << 2) |
                                pp));
    }
    void
    modRR(int reg, int rm)
    {
        u8(static_cast<uint8_t>(0xC0 | ((reg & 7) << 3) | (rm & 7)));
    }
    /** [base + disp32]; bases used are rax(0)/rbx(3)/rbp(5) — none
     *  needs a SIB byte at mod=10. */
    void
    modMem(int reg, int base, int32_t disp)
    {
        u8(static_cast<uint8_t>(0x80 | ((reg & 7) << 3) |
                                (base & 7)));
        u32(static_cast<uint32_t>(disp));
    }

    std::vector<uint8_t> &c_;
};

// GPR indices used below.
constexpr int kRax = 0, kRcx = 1, kRdx = 2, kRbx = 3, kRbp = 5,
              kRsi = 6, kRdi = 7, kR8 = 8, kR9 = 9;

using FwdStencilFn = void (*)(const double *, const double *,
                              double *);
using BwdStencilFn = void (*)(const double *, double *, uint32_t,
                              uint32_t, int32_t, int32_t);

FwdStencilFn
fwdStencilFor(expr::OpCode op)
{
    switch (op) {
      case expr::OpCode::Pow: return &felix_jit_fwd_pow;
      case expr::OpCode::Log: return &felix_jit_fwd_log;
      case expr::OpCode::Exp: return &felix_jit_fwd_exp;
      case expr::OpCode::Atan: return &felix_jit_fwd_atan;
      default: return nullptr;
    }
}

BwdStencilFn
bwdStencilFor(expr::OpCode op)
{
    switch (op) {
      case expr::OpCode::Mul: return &felix_jit_bwd_mul;
      case expr::OpCode::Div: return &felix_jit_bwd_div;
      case expr::OpCode::Pow: return &felix_jit_bwd_pow;
      case expr::OpCode::Min: return &felix_jit_bwd_min;
      case expr::OpCode::Max: return &felix_jit_bwd_max;
      case expr::OpCode::Log: return &felix_jit_bwd_log;
      case expr::OpCode::Exp: return &felix_jit_bwd_exp;
      case expr::OpCode::Sqrt: return &felix_jit_bwd_sqrt;
      case expr::OpCode::Abs: return &felix_jit_bwd_abs;
      case expr::OpCode::Atan: return &felix_jit_bwd_atan;
      case expr::OpCode::Sigmoid: return &felix_jit_bwd_sigmoid;
      case expr::OpCode::Select: return &felix_jit_bwd_select;
      default: return nullptr;
    }
}

bool
zeroDerivative(expr::OpCode op)
{
    switch (op) {
      case expr::OpCode::Lt:
      case expr::OpCode::Le:
      case expr::OpCode::Gt:
      case expr::OpCode::Ge:
      case expr::OpCode::Eq:
      case expr::OpCode::Ne:
      case expr::OpCode::Floor:
        return true;
      default:
        return false;
    }
}

/** vcmppd predicates matching simd.h's _CMP_* choices. */
uint8_t
cmpPredicate(expr::OpCode op)
{
    switch (op) {
      case expr::OpCode::Lt: return 0x11; // LT_OQ
      case expr::OpCode::Le: return 0x12; // LE_OQ
      case expr::OpCode::Gt: return 0x1E; // GT_OQ
      case expr::OpCode::Ge: return 0x1D; // GE_OQ
      case expr::OpCode::Eq: return 0x00; // EQ_OQ
      default: return 0x04;               // NEQ_UQ (Ne)
    }
}

/** Forward emitter. Register plan per instruction: operands copied
 *  into ymm0/1/2, hoisted broadcast constants in ymm3..5, scratch
 *  ymm8..11, result written to ymm12+chunk (the forwarding mirror;
 *  ymm6 past the fourth chunk) and stored to the destination row. */
void
emitForward(Asm &a, const expr::TapeProgram &program)
{
    a.pushRbx(); // also realigns rsp for the stencil calls
    a.movRR64(kRbx, kRdi);

    bool lastValid = false;
    size_t slot = program.firstOpSlot();
    const uint64_t consts = reinterpret_cast<uint64_t>(&kConsts[0]);

    for (const expr::TapeInstr &instr : program.instrs) {
        const int prev = static_cast<int>(slot) - 1;
        const int32_t dispOut =
            static_cast<int32_t>(slot) * kRowBytes;
        const auto load = [&](int dst, int32_t src, int ch) {
            if (lastValid && src == prev && ch < kMirrorChunks)
                a.vmovapd(dst, 12 + ch);
            else
                a.vmovupdLoad(dst, kRbx, src * kRowBytes + ch * 32);
        };

        if (FwdStencilFn fn = fwdStencilFor(instr.op)) {
            a.leaRbx(kRdi, instr.a0 * kRowBytes);
            a.leaRbx(kRsi, (instr.a1 >= 0 ? instr.a1 : instr.a0) *
                               kRowBytes);
            a.leaRbx(kRdx, dispOut);
            a.movRaxImm64(reinterpret_cast<uint64_t>(fn));
            a.callRax();
            lastValid = false;
            ++slot;
            continue;
        }

        // Hoisted per-instruction constants (loop-invariant across
        // the four chunks).
        switch (instr.op) {
          case expr::OpCode::Neg:
          case expr::OpCode::Abs:
            a.movRaxImm64(consts);
            a.vbroadcastsd(3, kRax, 0 * 8); // -0.0
            break;
          case expr::OpCode::Sqrt:
          case expr::OpCode::Select:
            a.vxorSelf(3); // +0.0
            break;
          case expr::OpCode::Sigmoid:
            a.movRaxImm64(consts);
            a.vbroadcastsd(3, kRax, 1 * 8); // 1.0
            a.vbroadcastsd(4, kRax, 2 * 8); // 0.5
            break;
          case expr::OpCode::Div:
            a.vxorSelf(3);
            a.movRaxImm64(consts);
            a.vbroadcastsd(4, kRax, 3 * 8); // 1e18
            a.vbroadcastsd(5, kRax, 4 * 8); // -1e18
            break;
          case expr::OpCode::Lt:
          case expr::OpCode::Le:
          case expr::OpCode::Gt:
          case expr::OpCode::Ge:
          case expr::OpCode::Eq:
          case expr::OpCode::Ne:
            a.vxorSelf(3);
            a.movRaxImm64(consts);
            a.vbroadcastsd(4, kRax, 1 * 8); // 1.0
            break;
          default:
            break;
        }

        for (int ch = 0; ch < kChunks; ++ch) {
            const int R = ch < kMirrorChunks ? 12 + ch : 6;
            load(0, instr.a0, ch);
            switch (instr.op) {
              case expr::OpCode::Add:
                load(1, instr.a1, ch);
                a.arith(0x58, R, 0, 1);
                break;
              case expr::OpCode::Sub:
                load(1, instr.a1, ch);
                a.arith(0x5C, R, 0, 1);
                break;
              case expr::OpCode::Mul:
                load(1, instr.a1, ch);
                a.arith(0x59, R, 0, 1);
                break;
              case expr::OpCode::Min:
                // vmin(a,b) = minpd(b, a): the operand swap that
                // pins std::min semantics (simd.h).
                load(1, instr.a1, ch);
                a.arith(0x5D, R, 1, 0);
                break;
              case expr::OpCode::Max:
                load(1, instr.a1, ch);
                a.arith(0x5F, R, 1, 0);
                break;
              case expr::OpCode::Neg:
                a.arith(0x57, R, 0, 3); // a xor -0.0
                break;
              case expr::OpCode::Abs:
                a.arith(0x55, R, 3, 0); // andnot(-0.0, a)
                break;
              case expr::OpCode::Sqrt:
                a.arith(0x5F, 8, 3, 0); // vmax(a,0) = maxpd(0, a)
                a.vsqrtpd(R, 8);
                break;
              case expr::OpCode::Floor:
                a.vfloor(R, 0);
                break;
              case expr::OpCode::Sigmoid:
                // fwdSigmoidV: 0.5 * (1 + a / sqrt(1 + a*a)),
                // operand order preserved exactly.
                a.arith(0x59, 8, 0, 0); // t = a * a
                a.arith(0x58, 8, 3, 8); // 1 + t
                a.vsqrtpd(8, 8);
                a.arith(0x5E, 8, 0, 8); // a / sqrt
                a.arith(0x58, 8, 3, 8); // 1 + d
                a.arith(0x59, R, 4, 8); // 0.5 * e
                break;
              case expr::OpCode::Div:
                // Branchless fwdDivV: bit-identical to the
                // interpreter's any-lane fast path because an
                // all-false blendv returns the a/b lanes' exact
                // bits and the speculative `special` value is
                // discarded bitwise (FP exceptions are masked).
                load(1, instr.a1, ch);
                a.vcmppd(8, 1, 3, 0x00);  // bZero = ceq(b, 0)
                a.arith(0x5E, 9, 0, 1);   // q = a / b
                a.vcmppd(10, 0, 3, 0x1D); // cge(a, 0)
                a.vblendvpd(11, 5, 4, 10); // ±1e18
                a.arith(0x59, 11, 0, 11); // special = a * (±1e18)
                a.vblendvpd(R, 9, 11, 8); // bZero ? special : q
                break;
              case expr::OpCode::Lt:
              case expr::OpCode::Le:
              case expr::OpCode::Gt:
              case expr::OpCode::Ge:
              case expr::OpCode::Eq:
              case expr::OpCode::Ne:
                load(1, instr.a1, ch);
                a.vcmppd(8, 0, 1, cmpPredicate(instr.op));
                a.vblendvpd(R, 3, 4, 8); // mask ? 1.0 : 0.0
                break;
              case expr::OpCode::Select:
                load(1, instr.a1, ch);
                load(2, instr.a2, ch);
                a.vcmppd(8, 0, 3, 0x04); // cne(c, 0), NEQ_UQ
                a.vblendvpd(R, 2, 1, 8); // mask ? t : e
                break;
              default:
                panic("jit: unexpected opcode in forward emitter");
            }
            a.vmovupdStore(kRbx, dispOut + ch * 32, R);
        }
        lastValid = true;
        ++slot;
    }

    a.vzeroupper();
    a.popRbx();
    a.ret();
}

/** Backward emitter: reverse instruction order; inline Add/Sub/Neg
 *  accumulates, stencil calls for everything else. */
void
emitBackward(Asm &a, const expr::TapeProgram &program)
{
    a.pushRbx();
    a.pushRbp();
    a.subRsp8(); // realign rsp to 16 for the stencil calls
    a.movRR64(kRbx, kRdi); // vals
    a.movRR64(kRbp, kRsi); // adjs

    const uint64_t consts = reinterpret_cast<uint64_t>(&kConsts[0]);
    // accum(row, contribReg): (load(row) + contrib).store(row) —
    // load is the left addend, exactly opk::backpropOpV's accum.
    const auto accum = [&](int32_t slotIdx, int ch, int contrib) {
        const int32_t disp = slotIdx * kRowBytes + ch * 32;
        a.vmovupdLoad(1, kRbp, disp);
        a.arith(0x58, 1, 1, contrib);
        a.vmovupdStore(kRbp, disp, 1);
    };

    for (size_t i = program.instrs.size(); i-- > 0;) {
        const expr::TapeInstr &instr = program.instrs[i];
        if (zeroDerivative(instr.op))
            continue;
        const int32_t slot =
            static_cast<int32_t>(program.firstOpSlot() + i);

        switch (instr.op) {
          case expr::OpCode::Add:
            for (int ch = 0; ch < kChunks; ++ch) {
                a.vmovupdLoad(0, kRbp, slot * kRowBytes + ch * 32);
                accum(instr.a0, ch, 0);
                accum(instr.a1, ch, 0);
            }
            break;
          case expr::OpCode::Sub:
            a.movRaxImm64(consts);
            a.vbroadcastsd(3, kRax, 0 * 8); // -0.0
            for (int ch = 0; ch < kChunks; ++ch) {
                a.vmovupdLoad(0, kRbp, slot * kRowBytes + ch * 32);
                accum(instr.a0, ch, 0);
                a.arith(0x57, 2, 0, 3); // vneg(adj)
                accum(instr.a1, ch, 2);
            }
            break;
          case expr::OpCode::Neg:
            a.movRaxImm64(consts);
            a.vbroadcastsd(3, kRax, 0 * 8);
            for (int ch = 0; ch < kChunks; ++ch) {
                a.vmovupdLoad(0, kRbp, slot * kRowBytes + ch * 32);
                a.arith(0x57, 2, 0, 3);
                accum(instr.a0, ch, 2);
            }
            break;
          default: {
            BwdStencilFn fn = bwdStencilFor(instr.op);
            if (fn == nullptr)
                panic("jit: unexpected opcode in backward emitter");
            a.movRR64(kRdi, kRbx);
            a.movRsiRbp();
            a.movImm32(kRdx, static_cast<uint32_t>(slot));
            a.movImm32(kRcx, static_cast<uint32_t>(instr.a0));
            a.movImm32(kR8, static_cast<uint32_t>(instr.a1));
            a.movImm32(kR9, static_cast<uint32_t>(instr.a2));
            a.movRaxImm64(reinterpret_cast<uint64_t>(fn));
            a.callRax();
            break;
          }
        }
    }

    a.addRsp8();
    a.popRbp();
    a.popRbx();
    a.vzeroupper();
    a.ret();
}

} // namespace

#endif // FELIX_JIT_X86_AVX2

std::unique_ptr<JitTape>
JitTape::compile(const expr::TapeProgram &program)
{
#ifndef FELIX_JIT_X86_AVX2
    (void)program;
    return nullptr;
#else
    if (!supported() || program.instrs.empty())
        return nullptr;
#ifndef FELIX_JIT_HAVE_MMAP
    return nullptr;
#else
    std::vector<uint8_t> code;
    {
        Asm a(code);
        emitForward(a, program);
    }
    size_t bwdOffset = 0;
    if (!program.forwardOnly) {
        while (code.size() % 16 != 0)
            code.push_back(0xCC); // int3 padding between functions
        bwdOffset = code.size();
        Asm a(code);
        emitBackward(a, program);
    }

    // W^X lifecycle: map writable, copy, then flip to read+execute
    // for the tape's lifetime — the pages are never W and X at once.
    const long page = sysconf(_SC_PAGESIZE);
    const size_t pageSize = page > 0 ? static_cast<size_t>(page)
                                     : static_cast<size_t>(4096);
    const size_t mapSize =
        (code.size() + pageSize - 1) / pageSize * pageSize;
    void *mem = mmap(nullptr, mapSize, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
        warn("jit: mmap of ", mapSize,
             " bytes failed; falling back to the interpreter");
        return nullptr;
    }
    std::memcpy(mem, code.data(), code.size());
    if (mprotect(mem, mapSize, PROT_READ | PROT_EXEC) != 0) {
        warn("jit: mprotect(R|X) failed; falling back to the "
             "interpreter");
        munmap(mem, mapSize);
        return nullptr;
    }

    std::unique_ptr<JitTape> tape(new JitTape);
    tape->mem_ = mem;
    tape->mapSize_ = mapSize;
    tape->codeSize_ = code.size();
    tape->fwd_ = reinterpret_cast<FwdFn>(mem);
    if (!program.forwardOnly) {
        tape->bwd_ = reinterpret_cast<BwdFn>(
            static_cast<uint8_t *>(mem) + bwdOffset);
    }

    auto &registry = obs::MetricsRegistry::instance();
    registry.counter("jit.tapes_compiled").add(1.0);
    registry.counter("jit.code_bytes")
        .add(static_cast<double>(code.size()));
    return tape;
#endif // FELIX_JIT_HAVE_MMAP
#endif // FELIX_JIT_X86_AVX2
}

JitTape::~JitTape()
{
#if defined(FELIX_JIT_X86_AVX2) && defined(FELIX_JIT_HAVE_MMAP)
    if (mem_ != nullptr)
        munmap(mem_, mapSize_);
#endif
}

} // namespace jit
} // namespace felix
