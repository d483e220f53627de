// Tests for the structured program generator: structural well-formedness,
// termination, determinism and profile coverage.
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <utility>

#include "rv/kernels.hpp"
#include "wload/executor.hpp"
#include "wload/profile.hpp"
#include "wload/program_gen.hpp"

namespace hcsim {
namespace {

class ProgramGenAllProfiles : public ::testing::TestWithParam<std::string> {};

TEST_P(ProgramGenAllProfiles, WellFormed) {
  const WorkloadProfile& prof = spec_profile(GetParam());
  const Program prog = generate_program(prof);
  ASSERT_FALSE(prog.uops.empty());
  ASSERT_EQ(prog.uops.size(), prog.branch_targets.size());
  for (u32 pc = 0; pc < prog.uops.size(); ++pc) {
    const StaticUop& u = prog.uops[pc];
    EXPECT_EQ(u.pc, pc);
    if (is_branch(u.opcode)) {
      EXPECT_LT(prog.branch_targets[pc], prog.uops.size()) << "target out of range";
      EXPECT_TRUE(u.has_imm);
      EXPECT_LE(u.imm, kCondGe);
    }
    for (RegId s : u.srcs)
      if (s != kRegNone) {
        EXPECT_LT(s, kNumRegs);
      }
    if (u.has_dst()) {
      EXPECT_LT(u.dst, kNumRegs);
    }
    // Stores never have a destination, compares never have one either.
    if (is_store(u.opcode) || u.opcode == Opcode::kCmp || u.opcode == Opcode::kTest) {
      EXPECT_FALSE(u.has_dst()) << disassemble(u);
    }
    // Pipeline-internal opcodes must not appear in static programs.
    EXPECT_NE(u.opcode, Opcode::kCopy);
    EXPECT_NE(u.opcode, Opcode::kChunkAlu);
  }
}

TEST_P(ProgramGenAllProfiles, ExecutionTerminatesAndFillsTrace) {
  const WorkloadProfile& prof = spec_profile(GetParam());
  const Trace t = generate_trace(prof, 5000);
  EXPECT_EQ(t.records.size(), 5000u);
  // Every record's pc must be valid.
  for (const TraceRecord& r : t.records) ASSERT_LT(r.pc, t.program.uops.size());
}

TEST_P(ProgramGenAllProfiles, ContainsTheExpectedStructures) {
  const WorkloadProfile& prof = spec_profile(GetParam());
  const Program prog = generate_program(prof);
  bool has_branch = false, has_load = false, has_alu = false;
  for (const StaticUop& u : prog.uops) {
    has_branch |= u.opcode == Opcode::kBranchCond;
    has_load |= is_load(u.opcode);
    has_alu |= opcode_info(u.opcode).op_class == OpClass::kIntAlu;
  }
  EXPECT_TRUE(has_branch);
  EXPECT_TRUE(has_load);
  EXPECT_TRUE(has_alu);
}

INSTANTIATE_TEST_SUITE_P(
    Spec, ProgramGenAllProfiles,
    ::testing::Values("bzip2", "crafty", "eon", "gap", "gcc", "gzip", "mcf",
                      "parser", "perlbmk", "twolf", "vortex", "vpr"));

TEST(ProgramGen, DeterministicForSeed) {
  WorkloadProfile p = spec_profile("gcc");
  const Program a = generate_program(p);
  const Program b = generate_program(p);
  ASSERT_EQ(a.uops.size(), b.uops.size());
  for (std::size_t i = 0; i < a.uops.size(); ++i) {
    EXPECT_EQ(a.uops[i].opcode, b.uops[i].opcode);
    EXPECT_EQ(a.uops[i].imm, b.uops[i].imm);
  }
}

TEST(ProgramGen, DifferentSeedsDiffer) {
  WorkloadProfile p = spec_profile("gcc");
  const Program a = generate_program(p);
  p.seed ^= 0xDEADBEEF;
  const Program b = generate_program(p);
  bool differ = a.uops.size() != b.uops.size();
  for (std::size_t i = 0; !differ && i < a.uops.size(); ++i)
    differ = a.uops[i].opcode != b.uops[i].opcode || a.uops[i].imm != b.uops[i].imm;
  EXPECT_TRUE(differ);
}

TEST(ProgramGen, BackEdgesFormLoops) {
  const Program prog = generate_program(spec_profile("gcc"));
  unsigned back_edges = 0;
  for (u32 pc = 0; pc < prog.uops.size(); ++pc)
    if (is_branch(prog.uops[pc].opcode) && prog.branch_targets[pc] < pc) ++back_edges;
  EXPECT_GE(back_edges, spec_profile("gcc").num_loops);
}

TEST(ProgramGen, BaseRegistersPointIntoRegions) {
  using namespace mem_layout;
  const Program prog = generate_program(spec_profile("gzip"));
  for (const StaticUop& u : prog.uops) {
    if (u.opcode != Opcode::kMovImm) continue;
    if (u.dst == kRegEbp) {
      EXPECT_TRUE(in_byte_region(u.imm)) << std::hex << u.imm;
    }
    if (u.dst == kRegEsp) {
      EXPECT_TRUE(in_word_region(u.imm)) << std::hex << u.imm;
    }
    if (u.dst == kRegEdi) {
      EXPECT_TRUE(in_ptr_region(u.imm)) << std::hex << u.imm;
    }
  }
}

TEST(ProgramGen, FpChainsOnlyWhenProfiled) {
  // mcf has no FP weight; eon does.
  const Program no_fp = generate_program(spec_profile("mcf"));
  for (const StaticUop& u : no_fp.uops) EXPECT_FALSE(is_fp(u.opcode));
  const Program with_fp = generate_program(spec_profile("eon"));
  bool has_fp = false;
  for (const StaticUop& u : with_fp.uops) has_fp |= is_fp(u.opcode);
  EXPECT_TRUE(has_fp);
}

TEST(ProgramGen, EmptyProfileStillGeneratesOneLoop) {
  WorkloadProfile p;
  p.name = "minimal";
  p.num_loops = 0;  // clamped to 1
  const Program prog = generate_program(p);
  EXPECT_FALSE(prog.uops.empty());
}

TEST(ProgramGen, StockProfilesAreRunnable) {
  ASSERT_EQ(spec_int_2000_profiles().size(), 12u);
  for (const WorkloadProfile& p : spec_int_2000_profiles())
    EXPECT_EQ(workload_profile_error(p), "") << p.name;
  for (const WorkloadCategory& cat : workload_categories())
    for (unsigned i = 0; i < cat.num_traces; ++i)
      EXPECT_EQ(workload_profile_error(category_app_profile(cat, i)), "") << cat.name << i;
  for (const WorkloadProfile& p : rv::rv_workload_profiles())
    EXPECT_EQ(workload_profile_error(p), "") << p.name;
}

/// gcc with one field changed.
WorkloadProfile gcc_with(void (*change)(WorkloadProfile&)) {
  WorkloadProfile p = spec_profile("gcc");
  change(p);
  return p;
}

TEST(ProgramGen, EachProfileRuleHasItsOwnMessage) {
  const std::pair<void (*)(WorkloadProfile&), const char*> broken[] = {
      {[](WorkloadProfile& p) { p.rv_kernel = "no_such_kernel"; }, "rv_kernel"},
      {[](WorkloadProfile& p) { p.byte_footprint_log2 = 30; }, "byte_footprint_log2"},
      {[](WorkloadProfile& p) { p.word_footprint_log2 = 31; }, "word_footprint_log2"},
      {[](WorkloadProfile& p) { p.body_chains_min = p.body_chains_max + 1; }, "body_chains_min"},
      {[](WorkloadProfile& p) { p.trip_min = p.trip_max + 1; }, "trip_min"},
      {[](WorkloadProfile& p) { p.num_loops = 1025; }, "num_loops"},
      {[](WorkloadProfile& p) { p.body_chains_max = 65; }, "body_chains_max must"},
  };
  std::set<std::string> messages;
  for (const auto& [change, rule] : broken) {
    const std::string error = workload_profile_error(gcc_with(change));
    EXPECT_EQ(error.rfind(rule, 0), 0u) << rule << ": " << error;
    messages.insert(error);
  }
  EXPECT_EQ(messages.size(), std::size(broken));

  // Each bound itself is runnable.
  const std::pair<void (*)(WorkloadProfile&), const char*> edges[] = {
      {[](WorkloadProfile& p) { p.rv_kernel = "crc32"; }, "rv_kernel"},
      {[](WorkloadProfile& p) { p.byte_footprint_log2 = 29; }, "byte_footprint_log2"},
      {[](WorkloadProfile& p) { p.word_footprint_log2 = 30; }, "word_footprint_log2"},
      {[](WorkloadProfile& p) { p.body_chains_min = p.body_chains_max; }, "body_chains_min"},
      {[](WorkloadProfile& p) { p.trip_min = p.trip_max; }, "trip_min"},
      {[](WorkloadProfile& p) { p.num_loops = 1024; }, "num_loops"},
      {[](WorkloadProfile& p) { p.body_chains_max = 64; }, "body_chains_max"},
  };
  for (const auto& [change, rule] : edges) EXPECT_EQ(workload_profile_error(gcc_with(change)), "") << rule;
}

TEST(ProgramGenDeath, UnrunnableProfileAborts) {
  const WorkloadProfile p = gcc_with([](WorkloadProfile& q) { q.word_footprint_log2 = 40; });
  EXPECT_DEATH(generate_program(p), "unrunnable workload profile: word_footprint_log2");
}

}  // namespace
}  // namespace hcsim
