#include "wload/program_gen.hpp"

#include <algorithm>
#include <string>

#include "rv/kernels.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace hcsim {
namespace {

using namespace mem_layout;

/// Register allocation convention for generated programs:
///   ebp — byte-array base       esp — word-array base
///   edi — CR base (wide ptr)    esi — pointer-chase cursor
///   ecx — outer loop counter    edx — inner loop counter
///   eax, ebx, t0..t7 — scratch, allocated round-robin
class Builder {
 public:
  explicit Builder(const WorkloadProfile& p) : prof_(p), rng_(p.seed) {}

  Program build() {
    const unsigned loops = std::max(1u, prof_.num_loops);
    for (unsigned i = 0; i < loops; ++i) emit_loop_nest(/*depth=*/0, kRegEcx);
    prog_.name = prof_.name;
    return std::move(prog_);
  }

 private:
  // --- emission primitives -------------------------------------------------
  u32 emit(StaticUop u, u32 target = 0) {
    u.pc = static_cast<u32>(prog_.uops.size());
    prog_.uops.push_back(u);
    prog_.branch_targets.push_back(target);
    return u.pc;
  }

  StaticUop alu(Opcode op, RegId dst, RegId a, RegId b) {
    StaticUop u;
    u.opcode = op;
    u.dst = dst;
    u.srcs = {a, b, kRegNone};
    return u;
  }

  StaticUop alui(Opcode op, RegId dst, RegId a, u32 imm) {
    StaticUop u;
    u.opcode = op;
    u.dst = dst;
    u.srcs = {a, kRegNone, kRegNone};
    u.has_imm = true;
    u.imm = imm;
    return u;
  }

  StaticUop movi(RegId dst, u32 imm) {
    StaticUop u;
    u.opcode = Opcode::kMovImm;
    u.dst = dst;
    u.has_imm = true;
    u.imm = imm;
    return u;
  }

  StaticUop load(Opcode op, RegId dst, RegId base, RegId index, u32 disp) {
    StaticUop u;
    u.opcode = op;
    u.dst = dst;
    u.srcs = {base, index, kRegNone};
    u.has_imm = true;
    u.imm = disp;
    return u;
  }

  StaticUop store(Opcode op, RegId base, RegId index, RegId data, u32 disp) {
    StaticUop u;
    u.opcode = op;
    u.srcs = {base, index, data};
    u.has_imm = true;
    u.imm = disp;
    return u;
  }

  RegId scratch() {
    // t7 is reserved as the loop accumulator, t6 as a spare wide temp.
    static constexpr RegId kPool[] = {kRegEax, kRegEbx, kRegT0, kRegT1,
                                      kRegT2,  kRegT3,  kRegT4, kRegT5};
    return kPool[scratch_next_++ % (sizeof(kPool) / sizeof(kPool[0]))];
  }

  Opcode random_narrow_alu() {
    static constexpr Opcode kOps[] = {Opcode::kAdd, Opcode::kSub, Opcode::kAnd,
                                      Opcode::kXor, Opcode::kOr};
    return kOps[rng_.below(5)];
  }

  // --- structure ------------------------------------------------------------
  void emit_loop_nest(unsigned depth, RegId ctr) {
    // Fresh base registers per loop nest so different loops touch different
    // slices of each region (and large-footprint profiles defeat the caches).
    const u32 byte_span = (1u << prof_.byte_footprint_log2);
    const u32 word_span = (1u << prof_.word_footprint_log2);
    // Array bases are allocator-aligned (64B), so index+displacement adds
    // rarely carry past the low byte — the behaviour CR exploits.
    emit(movi(kRegEbp, kByteRegionBase + align64(rng_.below(byte_span))));
    emit(movi(kRegEsp, kWordRegionBase + align64(rng_.below(word_span))));
    // CR base: a wide pointer whose low byte is small, so a narrow-offset
    // add stays carry-confined (Figure 10). With p_carry_propagate the low
    // byte is large instead, making carries escape and exercising the CR
    // recovery path.
    const u32 cr_low = rng_.chance(prof_.p_carry_propagate)
                           ? 0xC0u + static_cast<u32>(rng_.below(0x40))
                           : static_cast<u32>(rng_.below(0x20));
    emit(movi(kRegEdi, kPtrRegionBase + (align256(rng_.below(word_span)) | cr_low)));
    if (prof_.p_pointer_chase > 0)
      emit(movi(kRegEsi, kPtrRegionBase + align4(rng_.below(word_span))));
    // Wide accumulator (sum += byte patterns accumulate into it).
    emit(movi(kRegT7, 0x00020000u + static_cast<u32>(rng_.below(1u << 20))));

    // Inner loops run short trips (classic loop-nest shape); this also keeps
    // any single nest from monopolizing the dynamic window.
    const bool wide_loop = depth == 0 && rng_.chance(prof_.p_wide_loop);
    u32 trip;
    if (depth > 0) {
      trip = static_cast<u32>(rng_.range(4, 24));
    } else if (wide_loop) {
      trip = static_cast<u32>(rng_.range(300, 1500));
    } else {
      trip = static_cast<u32>(
          rng_.range(prof_.trip_min, std::max(prof_.trip_min + 1u, prof_.trip_max)));
    }

    emit(movi(ctr, 0));
    const u32 top = static_cast<u32>(prog_.uops.size());

    const unsigned chains = static_cast<unsigned>(
        rng_.range(prof_.body_chains_min, std::max(prof_.body_chains_min + 1u, prof_.body_chains_max)));
    for (unsigned c = 0; c < chains; ++c) emit_chain(ctr);

    if (depth == 0 && rng_.chance(prof_.p_nested_loop)) emit_loop_nest(depth + 1, kRegEdx);

    // Loop latch: increment, compare against the trip count, branch back.
    // The compare writes the flags the back-edge branch reads; with a
    // narrow trip count the flags producer is narrow (the BR case).
    emit(alui(Opcode::kAdd, ctr, ctr, 1));
    emit(alui(Opcode::kCmp, kRegNone, ctr, trip));
    StaticUop br;
    br.opcode = Opcode::kBranchCond;
    br.srcs = {kRegFlags, kRegNone, kRegNone};
    br.has_imm = true;
    br.imm = kCondNe;
    emit(br, top);
  }

  void emit_chain(RegId ctr) {
    const double total = prof_.w_narrow_chain + prof_.w_wide_chain + prof_.w_cr_chain +
                         prof_.w_muldiv_chain + prof_.w_fp_chain + prof_.w_branchy_chain;
    double pick = rng_.uniform() * total;
    if ((pick -= prof_.w_narrow_chain) < 0) return emit_narrow_chain(ctr);
    if ((pick -= prof_.w_wide_chain) < 0) return emit_wide_chain(ctr);
    if ((pick -= prof_.w_cr_chain) < 0) return emit_cr_chain(ctr);
    if ((pick -= prof_.w_muldiv_chain) < 0) return emit_muldiv_chain(ctr);
    if ((pick -= prof_.w_fp_chain) < 0) return emit_fp_chain();
    return emit_branchy_chain(ctr);
  }

  // Byte load -> 1..3 narrow ALU ops -> optional byte store. All values are
  // 8-bit; with p_cross_width_use the final narrow value is additionally
  // consumed by a wide address computation (inter-cluster copy pressure).
  void emit_narrow_chain(RegId ctr) {
    const RegId v = scratch();
    emit(load(Opcode::kLoadByte, v, kRegEbp, ctr, static_cast<u32>(rng_.below(56))));
    RegId cur = v;
    const unsigned n_ops = 1 + static_cast<unsigned>(rng_.below(2));
    for (unsigned i = 0; i < n_ops; ++i) {
      const RegId nxt = scratch();
      if (last_narrow_ != kRegNone && rng_.chance(0.45)) {
        emit(alu(random_narrow_alu(), nxt, cur, last_narrow_));  // two narrow regs
      } else {
        emit(alui(random_narrow_alu(), nxt, cur, static_cast<u32>(rng_.below(100))));
      }
      cur = nxt;
    }
    if (rng_.chance(prof_.p_store))
      emit(store(Opcode::kStoreByte, kRegEbp, ctr, cur, static_cast<u32>(rng_.below(56))));
    last_narrow_ = cur;

    // Accumulator pattern (sum += byte): a narrow operand feeding a wide
    // accumulation — narrow data-width *dependent* (Figure 1) but not
    // 8-8-8-steerable, since the result is wide. CR-class work.
    if (rng_.chance(0.45))
      emit(alu(Opcode::kAdd, kRegT7, kRegT7, cur));

    if (rng_.chance(prof_.p_cross_width_use)) {
      // Narrow result used as a table index: wide consumer of a narrow
      // producer. This is the bzip2-style pattern that generates copies.
      const RegId p = scratch();
      emit(alu(Opcode::kAdd, p, kRegEsp, cur));
      emit(load(Opcode::kLoad, scratch(), p, kRegNone, static_cast<u32>(align4(rng_.below(256)))));
      if (rng_.chance(prof_.p_cross_width_use)) {
        // Heavy cross-width profiles consume intermediate narrow values
        // widely too (two table lookups per byte), doubling copy pressure.
        const RegId p2 = scratch();
        emit(alu(Opcode::kAdd, p2, kRegEsp, v));
        emit(load(Opcode::kLoad, scratch(), p2, kRegNone,
                  static_cast<u32>(align4(rng_.below(256)))));
      }
    }
  }

  // Pointer arithmetic + word load + wide integer ops.
  void emit_wide_chain(RegId ctr) {
    const RegId idx = scratch();
    // Scale the induction variable so the touched span tracks the profile's
    // footprint (big footprints -> strides that defeat the caches).
    const unsigned max_shift =
        prof_.word_footprint_log2 > 14 ? prof_.word_footprint_log2 - 13 : 2;
    emit(alui(Opcode::kShl, idx, ctr, 2 + static_cast<u32>(rng_.below(std::max(1u, max_shift)))));
    const RegId p = scratch();
    emit(alu(Opcode::kAdd, p, kRegEsp, idx));
    const RegId v = scratch();
    if (prof_.p_pointer_chase > 0 && rng_.chance(prof_.p_pointer_chase)) {
      // Pointer chase: the loaded value is the next address.
      emit(load(Opcode::kLoad, kRegEsi, kRegEsi, kRegNone, 0));
      emit(alu(Opcode::kXor, v, kRegEsi, p));
    } else {
      emit(load(Opcode::kLoad, v, p, kRegNone, static_cast<u32>(align4(rng_.below(64)))));
      // A short dependent wide-ALU tail: this is the work that keeps the
      // wide scheduler busy and that IR can offload when it backs up.
      RegId w = scratch();
      emit(alu(rng_.chance(0.5) ? Opcode::kAdd : Opcode::kXor, w, v, p));
      const unsigned tail = static_cast<unsigned>(rng_.below(3));
      for (unsigned i = 0; i < tail; ++i) {
        const RegId w2 = scratch();
        emit(alu(rng_.chance(0.5) ? Opcode::kAdd : Opcode::kOr, w2, w,
                 rng_.chance(0.5) ? kRegEsp : kRegT7));
        w = w2;
      }
      last_wide_ = w;
    }
    if (rng_.chance(prof_.p_store * 0.5))
      emit(store(Opcode::kStore, p, kRegNone, last_wide_ != kRegNone ? last_wide_ : v,
                 static_cast<u32>(align4(rng_.below(64)))));
  }

  // The CR pattern of Section 3.5: wide base + narrow offset. Both the AGU
  // form (a load whose address is base+offset) and the plain-arithmetic
  // form are emitted.
  void emit_cr_chain(RegId ctr) {
    RegId off = ctr;
    if (rng_.chance(0.5)) {
      off = scratch();
      emit(alui(Opcode::kAnd, off, ctr, 0x1F));  // definitely narrow offset
    }
    const RegId v = scratch();
    emit(load(Opcode::kLoad, v, kRegEdi, off, static_cast<u32>(rng_.below(16))));
    if (rng_.chance(0.6)) {
      const RegId a = scratch();
      emit(alu(Opcode::kAdd, a, kRegEdi, off));  // 8+32 -> 32 arithmetic
      last_wide_ = a;
    }
  }

  void emit_muldiv_chain(RegId ctr) {
    const RegId a = scratch();
    emit(alui(Opcode::kAdd, a, ctr, static_cast<u32>(rng_.below(50))));
    const RegId d = scratch();
    if (rng_.chance(0.85))
      emit(alu(Opcode::kMul, d, a, last_wide_ != kRegNone ? last_wide_ : kRegEsp));
    else
      emit(alu(Opcode::kDiv, d, last_wide_ != kRegNone ? last_wide_ : kRegEsp, a));
    last_wide_ = d;
  }

  void emit_fp_chain() {
    const unsigned n = 2 + static_cast<unsigned>(rng_.below(3));
    for (unsigned i = 0; i < n; ++i) {
      StaticUop u;
      const double r = rng_.uniform();
      u.opcode = r < 0.5 ? Opcode::kFpAdd : (r < 0.85 ? Opcode::kFpMul : Opcode::kFpDiv);
      const RegId d = static_cast<RegId>(kRegF0 + rng_.below(kNumFpRegs));
      const RegId s0 = static_cast<RegId>(kRegF0 + rng_.below(kNumFpRegs));
      const RegId s1 = static_cast<RegId>(kRegF0 + rng_.below(kNumFpRegs));
      u.dst = d;
      u.srcs = {s0, s1, kRegNone};
      emit(u);
    }
  }

  // A data-dependent forward branch guarding 1-2 filler ops. The flags
  // producer is a TEST of a narrow value, so when the test executes in the
  // helper cluster the BR scheme can steer the branch there too.
  void emit_branchy_chain(RegId ctr) {
    const RegId v = scratch();
    emit(load(Opcode::kLoadByte, v, kRegEbp, ctr, static_cast<u32>(rng_.below(224))));
    StaticUop t;
    if (rng_.chance(prof_.p_narrow_flags)) {
      t = alu(Opcode::kTest, kRegNone, v, v);
      t.dst = kRegNone;
    } else {
      // Occasionally compare two wide values instead (flags producer wide).
      t = alu(Opcode::kCmp, kRegNone, last_wide_ != kRegNone ? last_wide_ : kRegEsp, v);
      t.dst = kRegNone;
    }
    emit(t);

    StaticUop br;
    br.opcode = Opcode::kBranchCond;
    br.srcs = {kRegFlags, kRegNone, kRegNone};
    br.has_imm = true;
    br.imm = rng_.chance(0.5) ? kCondEq : kCondLt;
    const u32 br_pc = emit(br, /*target=*/0);  // patched below

    const unsigned filler = 1 + static_cast<unsigned>(rng_.below(2));
    for (unsigned i = 0; i < filler; ++i) {
      const RegId d = scratch();
      emit(alui(random_narrow_alu(), d, v, static_cast<u32>(rng_.below(64))));
    }
    prog_.branch_targets[br_pc] = static_cast<u32>(prog_.uops.size());
  }

  static u32 align4(u64 x) { return static_cast<u32>(x) & ~3u; }
  static u32 align64(u64 x) { return static_cast<u32>(x) & ~63u; }
  static u32 align256(u64 x) { return static_cast<u32>(x) & ~255u; }

  const WorkloadProfile& prof_;
  Rng rng_;
  Program prog_;
  unsigned scratch_next_ = 0;
  RegId last_narrow_ = kRegNone;
  RegId last_wide_ = kRegNone;
};

// The largest footprints whose array bases stay in their regions: a word
// span indexes both the word and the pointer region.
constexpr unsigned kMaxByteFootprintLog2 = 29, kMaxWordFootprintLog2 = 30;
static_assert(kByteRegionBase + (u64{1} << kMaxByteFootprintLog2) <= kWordRegionBase);
static_assert(kWordRegionBase + (u64{1} << kMaxWordFootprintLog2) <= kPtrRegionBase);
static_assert(kPtrRegionBase + (u64{1} << kMaxWordFootprintLog2) <= kRegionLimit);
// Stock profiles use at most 24 loops of 2-6 chains. Here a program has at
// most 2 x 1024 loop bodies of 64 chains of at most 9 µops: the largest
// measured (narrow chains, every optional µop taken) has 1.07M µops, 21 MB.
constexpr unsigned kMaxLoops = 1024, kMaxBodyChains = 64;

}  // namespace

std::string workload_profile_error(const WorkloadProfile& profile) {
  if (!profile.rv_kernel.empty() && rv::find_kernel(profile.rv_kernel) == nullptr)
    return "rv_kernel '" + profile.rv_kernel + "' is not a bundled kernel";
  if (profile.byte_footprint_log2 > kMaxByteFootprintLog2)
    return "byte_footprint_log2 must be at most " + std::to_string(kMaxByteFootprintLog2);
  if (profile.word_footprint_log2 > kMaxWordFootprintLog2)
    return "word_footprint_log2 must be at most " + std::to_string(kMaxWordFootprintLog2);
  if (profile.body_chains_min > profile.body_chains_max)
    return "body_chains_min must not exceed body_chains_max";
  if (profile.trip_min > profile.trip_max) return "trip_min must not exceed trip_max";
  if (profile.num_loops > kMaxLoops)
    return "num_loops must be at most " + std::to_string(kMaxLoops);
  if (profile.body_chains_max > kMaxBodyChains)
    return "body_chains_max must be at most " + std::to_string(kMaxBodyChains);
  return "";
}

Program generate_program(const WorkloadProfile& profile) {
  const std::string error = workload_profile_error(profile);
  HCSIM_CHECK(error.empty(), "unrunnable workload profile: " + error);
  Builder b(profile);
  Program p = b.build();
  HCSIM_CHECK(!p.uops.empty(), "generated empty program");
  return p;
}

}  // namespace hcsim
