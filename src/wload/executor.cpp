#include "wload/executor.hpp"

#include <array>

#include "rv/kernels.hpp"
#include "util/log.hpp"
#include "util/narrow.hpp"
#include "wload/program_gen.hpp"

namespace hcsim {
namespace {

using namespace mem_layout;

/// Deterministic 32-bit mixer (finalizer of murmur3) — used to synthesize
/// stable per-address memory contents.
constexpr u32 mix32(u32 x) {
  x ^= x >> 16;
  x *= 0x85EBCA6Bu;
  x ^= x >> 13;
  x *= 0xC2B2AE35u;
  x ^= x >> 16;
  return x;
}

constexpr double unit(u32 h) { return static_cast<double>(h) * 0x1p-32; }

}  // namespace

u32 SyntheticMemory::synthesize(u32 addr) const {
  const u32 word_addr = addr & ~3u;
  const u32 h = mix32(word_addr ^ static_cast<u32>(prof_.seed));
  if (in_byte_region(addr)) {
    // Byte arrays: always-narrow unsigned bytes.
    return h & 0xFFu;
  }
  if (in_ptr_region(addr)) {
    // Pointer structures: valid in-region addresses (pointer chasing stays
    // inside the region) — wide by construction.
    const u32 span = (1u << prof_.word_footprint_log2) - 1u;
    return kPtrRegionBase + ((h & span) & ~3u);
  }
  // Word arrays: blocks of 64B share a width character (spatial width
  // locality); within a block, elements deviate with 1-value_stability.
  const u32 block_h = mix32((word_addr >> 6) * 0x9E3779B9u ^ static_cast<u32>(prof_.seed >> 32));
  const bool block_narrow = unit(block_h) < 0.30;
  const bool deviate = unit(mix32(h + 0x1234567u)) >= prof_.value_stability;
  const bool narrow = block_narrow != deviate;
  if (narrow) return h & 0xFFu;
  return h | 0x00010000u;  // guarantee at least 17 significant bits
}

u32 SyntheticMemory::load(u32 addr, bool byte) const {
  const u32 word_addr = addr & ~3u;
  u32 word;
  if (auto it = written_.find(word_addr); it != written_.end()) {
    word = it->second;
  } else {
    word = synthesize(addr);
  }
  if (!byte) return word;
  const unsigned shift = (addr & 3u) * 8u;
  return (word >> shift) & 0xFFu;
}

void SyntheticMemory::store(u32 addr, u32 value, bool byte) {
  const u32 word_addr = addr & ~3u;
  if (!byte) {
    written_[word_addr] = value;
    return;
  }
  u32 word = load(word_addr, /*byte=*/false);
  const unsigned shift = (addr & 3u) * 8u;
  word = (word & ~(0xFFu << shift)) | ((value & 0xFFu) << shift);
  written_[word_addr] = word;
}

namespace {

/// Architectural register reset: FP registers start with arbitrary wide bit
/// patterns, everything else with zero.
std::array<u32, kNumRegs> initial_regs() {
  std::array<u32, kNumRegs> regs{};
  for (unsigned i = 0; i < kNumFpRegs; ++i)
    regs[kRegF0 + i] = mix32(0xF00Du + i) | 0x3F800000u;
  return regs;
}

/// Interpret the µop at `pc`, updating `regs`/`mem`/`pc` (with program
/// restart), and return its dynamic record. Shared by the materializing
/// executor and the streaming cursor so both emit bit-identical streams.
/// Always inlined: ProgramTraceCursor::skip discards the record, and only
/// an inlined copy lets the compiler drop the stores that build it.
[[gnu::always_inline]] inline TraceRecord step_uop(const Program& program,
                                                   std::array<u32, kNumRegs>& regs,
                                                   SyntheticMemory& mem, u32& pc) {
  const u32 n_static = static_cast<u32>(program.uops.size());
  const StaticUop& u = program.uops[pc];
  TraceRecord r;
  r.pc = pc;
  for (unsigned i = 0; i < kMaxSrcs; ++i)
    r.src_vals[i] = (u.srcs[i] != kRegNone) ? regs[u.srcs[i]] : 0;

  const u32 a = r.src_vals[0];
  const u32 b = u.has_imm ? u.imm : r.src_vals[1];
  u32 result = 0;
  u32 flags = 0;
  bool wrote_result = false;
  u32 next_pc = pc + 1;

  switch (u.opcode) {
    case Opcode::kNop:
      break;
    case Opcode::kAdd: result = a + b; flags = result; wrote_result = true; break;
    case Opcode::kSub: result = a - b; flags = result; wrote_result = true; break;
    case Opcode::kAnd: result = a & b; flags = result; wrote_result = true; break;
    case Opcode::kOr:  result = a | b; flags = result; wrote_result = true; break;
    case Opcode::kXor: result = a ^ b; flags = result; wrote_result = true; break;
    case Opcode::kShl: result = a << (b & 31u); flags = result; wrote_result = true; break;
    case Opcode::kShr: result = a >> (b & 31u); flags = result; wrote_result = true; break;
    case Opcode::kMov: result = a; wrote_result = true; break;
    case Opcode::kMovImm: result = u.imm; wrote_result = true; break;
    case Opcode::kCmp: flags = a - b; break;
    case Opcode::kTest: flags = a & b; break;
    case Opcode::kMul: result = a * b; flags = result; wrote_result = true; break;
    case Opcode::kDiv: result = b ? a / b : a; flags = result; wrote_result = true; break;
    case Opcode::kLea: result = a + b; wrote_result = true; break;
    case Opcode::kLoad:
    case Opcode::kLoadByte: {
      const u32 idx = (u.srcs[1] != kRegNone) ? r.src_vals[1] : 0;
      r.mem_addr = a + idx + u.imm;
      result = mem.load(r.mem_addr, u.opcode == Opcode::kLoadByte);
      wrote_result = true;
      break;
    }
    case Opcode::kStore:
    case Opcode::kStoreByte: {
      const u32 idx = (u.srcs[1] != kRegNone) ? r.src_vals[1] : 0;
      r.mem_addr = a + idx + u.imm;
      mem.store(r.mem_addr, r.src_vals[2], u.opcode == Opcode::kStoreByte);
      break;
    }
    case Opcode::kBranchCond: {
      r.taken = eval_cond(u.imm, regs[kRegFlags]);
      if (r.taken) next_pc = program.target_of(pc);
      break;
    }
    case Opcode::kJump: {
      r.taken = true;
      next_pc = program.target_of(pc);
      break;
    }
    case Opcode::kFpAdd:
    case Opcode::kFpMul:
    case Opcode::kFpDiv: {
      // FP values are opaque wide bit patterns: the width machinery does
      // not track FP, only the scheduling behaviour matters.
      result = mix32(a ^ (r.src_vals[1] * 3u) ^ 0xC0FFEEu) | 0x30000000u;
      wrote_result = true;
      break;
    }
    case Opcode::kCopy:
    case Opcode::kChunkAlu:
    case Opcode::kCount:
      HCSIM_CHECK(false, "pipeline-internal opcode in a static program");
  }

  if (wrote_result && u.has_dst()) {
    regs[u.dst] = result;
    r.result = result;
  }
  if (u.writes_flags()) {
    regs[kRegFlags] = flags;
    r.flags_val = flags;
  }

  pc = next_pc;
  if (pc >= n_static) pc = 0;  // program restart (trace-length control)
  return r;
}

}  // namespace

Trace execute_program(const Program& program, const WorkloadProfile& profile,
                      u64 n_records) {
  HCSIM_CHECK(!program.uops.empty(), "cannot execute an empty program");
  Trace trace;
  trace.program = program;
  trace.seed = profile.seed;
  trace.records.reserve(n_records);

  std::array<u32, kNumRegs> regs = initial_regs();
  SyntheticMemory mem(profile);
  u32 pc = 0;
  while (trace.records.size() < n_records)
    trace.records.push_back(step_uop(program, regs, mem, pc));
  return trace;
}

ProgramTraceCursor::ProgramTraceCursor(Program program, const WorkloadProfile& profile,
                                       u64 n_records, std::size_t chunk_records)
    : program_(std::move(program)),
      profile_(profile),
      mem_(profile_),
      regs_(initial_regs()),
      chunk_(chunk_records),
      remaining_(n_records) {
  HCSIM_CHECK(!program_.uops.empty(), "cannot execute an empty program");
  HCSIM_CHECK(chunk_records > 0, "chunk_records must be positive");
  buf_.reserve(std::min<u64>(chunk_, remaining_));
}

std::span<const TraceRecord> ProgramTraceCursor::next_chunk() {
  buf_.clear();
  const u64 n = std::min<u64>(chunk_, remaining_);
  for (u64 i = 0; i < n; ++i)
    buf_.push_back(step_uop(program_, regs_, mem_, pc_));
  remaining_ -= n;
  return buf_;
}

u64 ProgramTraceCursor::skip(u64 n) {
  n = std::min(n, remaining_);
  for (u64 i = 0; i < n; ++i) (void)step_uop(program_, regs_, mem_, pc_);
  remaining_ -= n;
  return n;
}

Trace generate_trace(const WorkloadProfile& profile, u64 n_records) {
  // RISC-V kernel workloads route through the src/rv frontend: n_records is
  // the µop budget (kernels run to completion, generated programs loop).
  if (!profile.rv_kernel.empty()) return rv::kernel_trace(profile.rv_kernel, n_records);
  const Program program = generate_program(profile);
  return execute_program(program, profile, n_records);
}

}  // namespace hcsim
