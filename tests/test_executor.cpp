// Tests for the functional executor: opcode semantics, memory behaviour,
// control flow and trace-record fidelity.
#include <gtest/gtest.h>

#include "map_memory.hpp"
#include "util/narrow.hpp"
#include "util/rng.hpp"
#include "wload/executor.hpp"
#include "wload/program_gen.hpp"

namespace hcsim {
namespace {

// Small helper to hand-assemble programs.
struct Asm {
  Program prog;

  u32 emit(StaticUop u, u32 target = 0) {
    u.pc = static_cast<u32>(prog.uops.size());
    prog.uops.push_back(u);
    prog.branch_targets.push_back(target);
    return u.pc;
  }
  u32 movi(RegId d, u32 imm) {
    StaticUop u;
    u.opcode = Opcode::kMovImm;
    u.dst = d;
    u.has_imm = true;
    u.imm = imm;
    return emit(u);
  }
  u32 alu(Opcode op, RegId d, RegId a, RegId b) {
    StaticUop u;
    u.opcode = op;
    u.dst = d;
    u.srcs = {a, b, kRegNone};
    return emit(u);
  }
  u32 alui(Opcode op, RegId d, RegId a, u32 imm) {
    StaticUop u;
    u.opcode = op;
    u.dst = d;
    u.srcs = {a, kRegNone, kRegNone};
    u.has_imm = true;
    u.imm = imm;
    return emit(u);
  }
  u32 branch(u32 cond, u32 target) {
    StaticUop u;
    u.opcode = Opcode::kBranchCond;
    u.srcs = {kRegFlags, kRegNone, kRegNone};
    u.has_imm = true;
    u.imm = cond;
    return emit(u, target);
  }
};

WorkloadProfile test_profile() {
  WorkloadProfile p;
  p.name = "exec-test";
  p.seed = 1;
  return p;
}

TEST(Executor, AluSemantics) {
  Asm a;
  a.movi(kRegEax, 10);
  a.movi(kRegEbx, 3);
  a.alu(Opcode::kAdd, kRegEcx, kRegEax, kRegEbx);   // 13
  a.alu(Opcode::kSub, kRegEdx, kRegEax, kRegEbx);   // 7
  a.alu(Opcode::kAnd, kRegEsi, kRegEax, kRegEbx);   // 2
  a.alu(Opcode::kOr, kRegEdi, kRegEax, kRegEbx);    // 11
  a.alu(Opcode::kXor, kRegT0, kRegEax, kRegEbx);    // 9
  a.alui(Opcode::kShl, kRegT1, kRegEax, 2);         // 40
  a.alui(Opcode::kShr, kRegT2, kRegEax, 1);         // 5
  a.alu(Opcode::kMul, kRegT3, kRegEax, kRegEbx);    // 30
  a.alu(Opcode::kDiv, kRegT4, kRegEax, kRegEbx);    // 3
  const Trace t = execute_program(a.prog, test_profile(), a.prog.uops.size());
  EXPECT_EQ(t.records[2].result, 13u);
  EXPECT_EQ(t.records[3].result, 7u);
  EXPECT_EQ(t.records[4].result, 2u);
  EXPECT_EQ(t.records[5].result, 11u);
  EXPECT_EQ(t.records[6].result, 9u);
  EXPECT_EQ(t.records[7].result, 40u);
  EXPECT_EQ(t.records[8].result, 5u);
  EXPECT_EQ(t.records[9].result, 30u);
  EXPECT_EQ(t.records[10].result, 3u);
}

TEST(Executor, DivByZeroIsTotal) {
  Asm a;
  a.movi(kRegEax, 42);
  a.movi(kRegEbx, 0);
  a.alu(Opcode::kDiv, kRegEcx, kRegEax, kRegEbx);
  const Trace t = execute_program(a.prog, test_profile(), 3);
  EXPECT_EQ(t.records[2].result, 42u);  // defined fallback, no trap
}

TEST(Executor, MovAndLea) {
  Asm a;
  a.movi(kRegEax, 0x1234);
  a.alu(Opcode::kMov, kRegEbx, kRegEax, kRegNone);
  a.alui(Opcode::kLea, kRegEcx, kRegEax, 0x10);
  const Trace t = execute_program(a.prog, test_profile(), 3);
  EXPECT_EQ(t.records[1].result, 0x1234u);
  EXPECT_EQ(t.records[2].result, 0x1244u);
}

TEST(Executor, CmpSetsFlagsWithoutResult) {
  Asm a;
  a.movi(kRegEax, 5);
  a.alui(Opcode::kCmp, kRegNone, kRegEax, 5);
  const Trace t = execute_program(a.prog, test_profile(), 2);
  EXPECT_EQ(t.records[1].flags_val, 0u);
  EXPECT_EQ(t.records[1].result, 0u);  // no destination written
}

TEST(Executor, BranchTakenAndNotTaken) {
  Asm a;
  a.movi(kRegEax, 1);                 // 0
  a.alui(Opcode::kCmp, kRegNone, kRegEax, 1);  // 1: flags = 0
  a.branch(kCondEq, 4);               // 2: taken -> skips pc 3
  a.movi(kRegEbx, 99);                // 3: skipped
  a.movi(kRegEcx, 7);                 // 4
  const Trace t = execute_program(a.prog, test_profile(), 4);
  EXPECT_TRUE(t.records[2].taken);
  EXPECT_EQ(t.records[3].pc, 4u);  // pc 3 skipped
}

TEST(Executor, LoopRunsTripTimes) {
  // for (i = 0; i != 3; ++i) {}
  Asm a;
  a.movi(kRegEcx, 0);                              // 0
  const u32 top = static_cast<u32>(a.prog.uops.size());
  a.alui(Opcode::kAdd, kRegEcx, kRegEcx, 1);       // 1
  a.alui(Opcode::kCmp, kRegNone, kRegEcx, 3);      // 2
  a.branch(kCondNe, top);                          // 3
  const Trace t = execute_program(a.prog, test_profile(), 10);
  // Expect: movi, then 3 iterations of (add, cmp, jcc) = 10 records total.
  EXPECT_EQ(t.records[1].pc, top);
  unsigned iterations = 0;
  for (const TraceRecord& r : t.records)
    if (r.pc == 3 && r.taken) ++iterations;
  EXPECT_EQ(iterations, 2u);  // taken twice, falls through the third time
}

TEST(Executor, ProgramRestartsAtEnd) {
  Asm a;
  a.movi(kRegEax, 1);
  a.movi(kRegEbx, 2);
  const Trace t = execute_program(a.prog, test_profile(), 6);
  EXPECT_EQ(t.records[0].pc, 0u);
  EXPECT_EQ(t.records[2].pc, 0u);
  EXPECT_EQ(t.records[4].pc, 0u);
}

TEST(Executor, StoreLoadRoundTrip) {
  using namespace mem_layout;
  Asm a;
  a.movi(kRegEbp, kWordRegionBase);
  a.movi(kRegEax, 0xABCD1234);
  {  // store [ebp + 0], eax
    StaticUop u;
    u.opcode = Opcode::kStore;
    u.srcs = {kRegEbp, kRegNone, kRegEax};
    u.has_imm = true;
    u.imm = 0;
    a.emit(u);
  }
  {  // load ebx, [ebp + 0]
    StaticUop u;
    u.opcode = Opcode::kLoad;
    u.dst = kRegEbx;
    u.srcs = {kRegEbp, kRegNone, kRegNone};
    u.has_imm = true;
    u.imm = 0;
    a.emit(u);
  }
  const Trace t = execute_program(a.prog, test_profile(), 4);
  EXPECT_EQ(t.records[2].mem_addr, kWordRegionBase);
  EXPECT_EQ(t.records[3].result, 0xABCD1234u);
}

TEST(Executor, ByteStoreMasksValue) {
  using namespace mem_layout;
  Asm a;
  a.movi(kRegEbp, kByteRegionBase + 64);
  a.movi(kRegEax, 0xFFFFFF42);  // byte store keeps 0x42
  {
    StaticUop u;
    u.opcode = Opcode::kStoreByte;
    u.srcs = {kRegEbp, kRegNone, kRegEax};
    u.has_imm = true;
    a.emit(u);
  }
  {
    StaticUop u;
    u.opcode = Opcode::kLoadByte;
    u.dst = kRegEbx;
    u.srcs = {kRegEbp, kRegNone, kRegNone};
    u.has_imm = true;
    a.emit(u);
  }
  const Trace t = execute_program(a.prog, test_profile(), 4);
  EXPECT_EQ(t.records[3].result, 0x42u);
}

TEST(Executor, EffectiveAddressUsesBaseIndexDisp) {
  using namespace mem_layout;
  Asm a;
  a.movi(kRegEbp, kByteRegionBase);
  a.movi(kRegEcx, 8);
  {
    StaticUop u;
    u.opcode = Opcode::kLoadByte;
    u.dst = kRegEax;
    u.srcs = {kRegEbp, kRegEcx, kRegNone};
    u.has_imm = true;
    u.imm = 3;
    a.emit(u);
  }
  const Trace t = execute_program(a.prog, test_profile(), 3);
  EXPECT_EQ(t.records[2].mem_addr, kByteRegionBase + 8 + 3);
}

TEST(Executor, RecordsSourceValues) {
  Asm a;
  a.movi(kRegEax, 11);
  a.movi(kRegEbx, 22);
  a.alu(Opcode::kAdd, kRegEcx, kRegEax, kRegEbx);
  const Trace t = execute_program(a.prog, test_profile(), 3);
  EXPECT_EQ(t.records[2].src_vals[0], 11u);
  EXPECT_EQ(t.records[2].src_vals[1], 22u);
}

TEST(SyntheticMemory, ByteRegionAlwaysNarrow) {
  using namespace mem_layout;
  WorkloadProfile p = test_profile();
  SyntheticMemory mem(p);
  for (u32 i = 0; i < 1000; ++i) {
    const u32 v = mem.load(kByteRegionBase + i * 7, /*byte=*/true);
    EXPECT_TRUE(is_narrow8(v));
  }
}

TEST(SyntheticMemory, PointerRegionValuesAreInRegionPointers) {
  using namespace mem_layout;
  WorkloadProfile p = test_profile();
  SyntheticMemory mem(p);
  for (u32 i = 0; i < 1000; ++i) {
    const u32 v = mem.load(kPtrRegionBase + i * 16, /*byte=*/false);
    EXPECT_TRUE(in_ptr_region(v)) << std::hex << v;
  }
}

TEST(SyntheticMemory, LoadsAreDeterministic) {
  using namespace mem_layout;
  WorkloadProfile p = test_profile();
  SyntheticMemory a(p), b(p);
  for (u32 i = 0; i < 200; ++i) {
    const u32 addr = kWordRegionBase + i * 4;
    EXPECT_EQ(a.load(addr, false), b.load(addr, false));
  }
}

TEST(SyntheticMemory, StoresPersist) {
  using namespace mem_layout;
  WorkloadProfile p = test_profile();
  SyntheticMemory mem(p);
  mem.store(kWordRegionBase + 4, 0xCAFEBABE, false);
  EXPECT_EQ(mem.load(kWordRegionBase + 4, false), 0xCAFEBABEu);
}

TEST(SyntheticMemory, ByteStoreUpdatesOnlyThatByte) {
  using namespace mem_layout;
  WorkloadProfile p = test_profile();
  SyntheticMemory mem(p);
  const u32 addr = kWordRegionBase + 16;
  const u32 before = mem.load(addr, false);
  mem.store(addr + 1, 0x5A, true);
  const u32 after = mem.load(addr, false);
  EXPECT_EQ(after & 0xFFFF00FFu, before & 0xFFFF00FFu);
  EXPECT_EQ((after >> 8) & 0xFFu, 0x5Au);
}

TEST(SyntheticMemory, WordRegionStabilityControlsNarrowMix) {
  using namespace mem_layout;
  WorkloadProfile p = test_profile();
  p.value_stability = 0.99;
  SyntheticMemory mem(p);
  unsigned narrow = 0;
  const unsigned n = 4000;
  for (u32 i = 0; i < n; ++i)
    narrow += is_narrow8(mem.load(kWordRegionBase + i * 4, false));
  // Around 30% of blocks are narrow by construction.
  EXPECT_GT(narrow, n / 8);
  EXPECT_LT(narrow, n / 2);
}

TEST(SyntheticMemory, MatchesAMapReference) {
  // Random loads, word stores and byte stores over 16k words of each
  // region, checked against the map model: the table grows from its
  // initial size through well over 8 doublings on the way.
  using namespace mem_layout;
  const WorkloadProfile p = test_profile();
  SyntheticMemory mem(p);
  MapMemory ref(p);
  constexpr u32 kBases[] = {kByteRegionBase, kWordRegionBase, kPtrRegionBase};
  constexpr u32 kSpan = 1u << 16;  // bytes per region
  const std::size_t initial_slots = mem.table_slots();
  Rng rng(0x5EED);
  unsigned mismatches = 0;
  for (unsigned i = 0; i < 200000; ++i) {
    const u32 addr = kBases[rng.below(3)] + static_cast<u32>(rng.below(kSpan));
    const bool byte = rng.below(2) != 0;
    if (rng.below(3) == 0) {
      mismatches += mem.load(addr, byte) != ref.load(addr, byte);
    } else {
      const u32 value = rng.next_u32();
      mem.store(addr, value, byte);
      ref.store(addr, value, byte);
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(mem.written_words(), ref.written_words());
  EXPECT_GE(mem.table_slots(), initial_slots << 8);
  for (const u32 base : kBases)
    for (u32 off = 0; off < kSpan; off += 4)
      ASSERT_EQ(mem.load(base + off, false), ref.load(base + off, false))
          << std::hex << base + off;
}

}  // namespace
}  // namespace hcsim
