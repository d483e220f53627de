#include "wload/executor.hpp"

#include <array>
#include <utility>

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
  const u32 h = mix32(word_addr ^ static_cast<u32>(seed_));
  if (in_byte_region(addr)) {
    // Byte arrays: always-narrow unsigned bytes.
    return h & 0xFFu;
  }
  if (in_ptr_region(addr)) {
    // Pointer structures: valid in-region addresses (pointer chasing stays
    // inside the region) — wide by construction.
    const u32 span = (1u << word_footprint_log2_) - 1u;
    return kPtrRegionBase + ((h & span) & ~3u);
  }
  // Word arrays: blocks of 64B share a width character (spatial width
  // locality); within a block, elements deviate with 1-value_stability.
  const u32 block_h = mix32((word_addr >> 6) * 0x9E3779B9u ^ static_cast<u32>(seed_ >> 32));
  const bool block_narrow = unit(block_h) < 0.30;
  const bool deviate = unit(mix32(h + 0x1234567u)) >= value_stability_;
  const bool narrow = block_narrow != deviate;
  if (narrow) return h & 0xFFu;
  return h | 0x00010000u;  // guarantee at least 17 significant bits
}

std::size_t SyntheticMemory::slot_of(u32 word_addr) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = (word_addr * 0x9E3779B9u) >> shift_;  // Fibonacci hashing
  while (slots_[i].key != word_addr && slots_[i].key != kEmptyKey) i = (i + 1) & mask;
  return i;
}

u32 SyntheticMemory::load(u32 addr, bool byte) const {
  const Slot& s = slots_[slot_of(addr & ~3u)];
  const u32 word = s.key == kEmptyKey ? synthesize(addr) : s.value;
  if (!byte) return word;
  const unsigned shift = (addr & 3u) * 8u;
  return (word >> shift) & 0xFFu;
}

void SyntheticMemory::store(u32 addr, u32 value, bool byte) {
  const u32 word_addr = addr & ~3u;
  std::size_t i = slot_of(word_addr);
  if (slots_[i].key == kEmptyKey) {
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
      i = slot_of(word_addr);
    }
    // A byte store merges into the word a load would have returned.
    slots_[i] = Slot{word_addr, byte ? synthesize(word_addr) : 0};
    ++size_;
  }
  u32& word = slots_[i].value;
  if (!byte) {
    word = value;
    return;
  }
  const unsigned shift = (addr & 3u) * 8u;
  word = (word & ~(0xFFu << shift)) | ((value & 0xFFu) << shift);
}

void SyntheticMemory::grow() {
  const std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(slots_.size() * 2, Slot{kEmptyKey, 0}));
  --shift_;
  for (const Slot& s : old)
    if (s.key != kEmptyKey) slots_[slot_of(s.key)] = s;
}

namespace {

constexpr u8 kZeroReg = kNumRegs;      // ExecRegs slot absent sources read
constexpr u8 kSinkReg = kNumRegs + 1;  // ExecRegs slot unwritten values go to

/// Architectural register reset: FP registers start with arbitrary wide bit
/// patterns, everything else (and the zero and sink slots) with zero.
ExecRegs initial_regs() {
  ExecRegs regs{};
  for (unsigned i = 0; i < kNumFpRegs; ++i)
    regs[kRegF0 + i] = mix32(0xF00Du + i) | 0x3F800000u;
  return regs;
}

/// Whether step_uop gives `op` a register result.
constexpr bool has_result(Opcode op) {
  switch (op) {
    case Opcode::kNop:
    case Opcode::kCmp:
    case Opcode::kTest:
    case Opcode::kStore:
    case Opcode::kStoreByte:
    case Opcode::kBranchCond:
    case Opcode::kJump:
      return false;
    default:
      return true;
  }
}

u8 exec_reg(RegId r, u8 absent) {
  if (r == kRegNone) return absent;
  HCSIM_CHECK(r < kNumRegs, "register out of range in a static program");
  return r;
}

/// Decode `program` once for step_uop (see DecodedUop).
std::vector<DecodedUop> decode_program(const Program& program) {
  const u32 n_static = static_cast<u32>(program.uops.size());
  std::vector<DecodedUop> ops(n_static);
  for (u32 pc = 0; pc < n_static; ++pc) {
    const StaticUop& u = program.uops[pc];
    DecodedUop& d = ops[pc];
    d.imm = u.imm;
    d.next_pc = pc + 1 < n_static ? pc + 1 : 0;  // program restart
    d.opcode = u.opcode;
    for (unsigned i = 0; i < kMaxSrcs; ++i) d.srcs[i] = exec_reg(u.srcs[i], kZeroReg);
    d.dst = has_result(u.opcode) ? exec_reg(u.dst, kSinkReg) : kSinkReg;
    d.flags = u.writes_flags() ? kRegFlags : kSinkReg;
    d.has_imm = u.has_imm;
  }
  return ops;
}

/// The pc a taken branch at `pc` goes to, with program restart.
u32 taken_pc(const Program& program, u32 pc) {
  const u32 target = program.target_of(pc);
  return target < program.uops.size() ? target : 0;
}

/// Interpret the µop at `pc`, updating `regs`/`mem`/`pc` (with program
/// restart), and return its dynamic record. Shared by the materializing
/// executor and the streaming cursor so both emit bit-identical streams.
/// Always inlined: ProgramTraceCursor::skip discards the record, and only
/// an inlined copy lets the compiler drop the stores that build it.
[[gnu::always_inline]] inline TraceRecord step_uop(const Program& program,
                                                   const std::vector<DecodedUop>& ops,
                                                   ExecRegs& regs, SyntheticMemory& mem,
                                                   u32& pc) {
  const DecodedUop& u = ops[pc];
  TraceRecord r;
  r.pc = pc;
  for (unsigned i = 0; i < kMaxSrcs; ++i) r.src_vals[i] = regs[u.srcs[i]];

  const u32 a = r.src_vals[0];
  const u32 b = u.has_imm ? u.imm : r.src_vals[1];
  u32 result = 0;
  u32 flags = 0;
  u32 next_pc = u.next_pc;

  switch (u.opcode) {
    case Opcode::kNop:
      break;
    case Opcode::kAdd: result = a + b; flags = result; break;
    case Opcode::kSub: result = a - b; flags = result; break;
    case Opcode::kAnd: result = a & b; flags = result; break;
    case Opcode::kOr:  result = a | b; flags = result; break;
    case Opcode::kXor: result = a ^ b; flags = result; break;
    case Opcode::kShl: result = a << (b & 31u); flags = result; break;
    case Opcode::kShr: result = a >> (b & 31u); flags = result; break;
    case Opcode::kMov: result = a; break;
    case Opcode::kMovImm: result = u.imm; break;
    case Opcode::kCmp: flags = a - b; break;
    case Opcode::kTest: flags = a & b; break;
    case Opcode::kMul: result = a * b; flags = result; break;
    case Opcode::kDiv: result = b ? a / b : a; flags = result; break;
    case Opcode::kLea: result = a + b; break;
    case Opcode::kLoad:
    case Opcode::kLoadByte:
      // An absent index reads the zero slot.
      r.mem_addr = a + r.src_vals[1] + u.imm;
      result = mem.load(r.mem_addr, u.opcode == Opcode::kLoadByte);
      break;
    case Opcode::kStore:
    case Opcode::kStoreByte:
      r.mem_addr = a + r.src_vals[1] + u.imm;
      mem.store(r.mem_addr, r.src_vals[2], u.opcode == Opcode::kStoreByte);
      break;
    case Opcode::kBranchCond:
      r.taken = eval_cond(u.imm, regs[kRegFlags]);
      if (r.taken) next_pc = taken_pc(program, pc);
      break;
    case Opcode::kJump:
      r.taken = true;
      next_pc = taken_pc(program, pc);
      break;
    case Opcode::kFpAdd:
    case Opcode::kFpMul:
    case Opcode::kFpDiv:
      // FP values are opaque wide bit patterns: the width machinery does
      // not track FP, only the scheduling behaviour matters.
      result = mix32(a ^ (r.src_vals[1] * 3u) ^ 0xC0FFEEu) | 0x30000000u;
      break;
    case Opcode::kCopy:
    case Opcode::kChunkAlu:
    case Opcode::kCount:
      HCSIM_CHECK(false, "pipeline-internal opcode in a static program");
  }

  // Results first: a µop whose destination is the flags register ends with
  // its flags value there.
  regs[u.dst] = result;
  r.result = u.dst == kSinkReg ? 0 : result;
  regs[u.flags] = flags;
  r.flags_val = u.flags == kSinkReg ? 0 : flags;
  pc = next_pc;
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

  const std::vector<DecodedUop> ops = decode_program(program);
  ExecRegs regs = initial_regs();
  SyntheticMemory mem(profile);
  u32 pc = 0;
  while (trace.records.size() < n_records)
    trace.records.push_back(step_uop(program, ops, regs, mem, pc));
  return trace;
}

ProgramTraceCursor::ProgramTraceCursor(Program program, const WorkloadProfile& profile,
                                       u64 n_records, std::size_t chunk_records)
    : program_(std::move(program)),
      ops_(decode_program(program_)),
      mem_(profile),
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
    buf_.push_back(step_uop(program_, ops_, regs_, mem_, pc_));
  remaining_ -= n;
  return buf_;
}

u64 ProgramTraceCursor::skip(u64 n) {
  n = std::min(n, remaining_);
  for (u64 i = 0; i < n; ++i) (void)step_uop(program_, ops_, regs_, mem_, pc_);
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
