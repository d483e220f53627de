// hcsim — functional executor: turns a static program into a value-accurate
// dynamic trace.
//
// The executor interprets the generated program with a concrete register
// file and a synthetic memory image, recording every executed µop with its
// real source values, result, flags and effective address. Widths, carry
// behaviour and branch outcomes downstream are therefore *computed*, never
// sampled from a distribution.
#pragma once

#include <array>
#include <bit>
#include <vector>

#include "isa/reg.hpp"
#include "trace/trace.hpp"
#include "wload/profile.hpp"

namespace hcsim {

/// Synthetic memory image. Addresses fall into the regions of
/// mem_layout (byte arrays, word arrays, pointer/CR structures); a load
/// from a never-written address synthesizes a deterministic value shaped by
/// the region and the profile's value_stability, while stores persist.
///
/// Written words live in a power-of-two open-addressing table with linear
/// probing, keyed by word address. Word addresses are 4-aligned, so an odd
/// key marks an empty slot. The table doubles when it would pass half load
/// and has no cap; every load probes it.
class SyntheticMemory {
 public:
  explicit SyntheticMemory(const WorkloadProfile& profile)
      : seed_(profile.seed),
        word_footprint_log2_(profile.word_footprint_log2),
        value_stability_(profile.value_stability),
        slots_(kInitialSlots, Slot{kEmptyKey, 0}) {}

  u32 load(u32 addr, bool byte) const;
  void store(u32 addr, u32 value, bool byte);

  /// Distinct words stored to so far, and the table's slot count.
  std::size_t written_words() const { return size_; }
  std::size_t table_slots() const { return slots_.size(); }

 private:
  struct Slot {
    u32 key;  // word address, or kEmptyKey
    u32 value;
  };
  static constexpr u32 kEmptyKey = 1;
  static constexpr std::size_t kInitialSlots = 64;

  /// The slot holding `word_addr`, or the empty slot that ends its probe.
  std::size_t slot_of(u32 word_addr) const;
  void grow();
  u32 synthesize(u32 addr) const;

  u64 seed_;
  unsigned word_footprint_log2_;
  double value_stability_;
  std::vector<Slot> slots_;
  unsigned shift_ = 32 - std::countr_zero(kInitialSlots);  // 32 - log2(slots)
  std::size_t size_ = 0;
};

/// The interpreter's register file: the architectural registers, then a
/// zero slot that absent sources read and a sink slot that results and
/// flags a µop does not write go to.
using ExecRegs = std::array<u32, kNumRegs + 2>;

/// One StaticUop as the interpreter runs it, 16 bytes like a StaticUop:
/// register operands are ExecRegs slots, the fall-through pc is precomputed
/// (program restart included) and the flags rule is resolved, so no step
/// calls opcode_info().
struct DecodedUop {
  u32 imm = 0;
  u32 next_pc = 0;
  Opcode opcode = Opcode::kNop;
  std::array<u8, kMaxSrcs> srcs{};  // the zero slot when absent
  u8 dst = 0;                       // the sink slot unless a register is written
  u8 flags = 0;                     // kRegFlags, or the sink slot
  bool has_imm = false;             // the second ALU operand is imm
};
static_assert(sizeof(DecodedUop) == 16);

/// Functionally execute `program` until `n_records` dynamic µops have been
/// emitted (the program restarts from the top when it falls off the end).
Trace execute_program(const Program& program, const WorkloadProfile& profile,
                      u64 n_records);

/// Convenience: generate_program + execute_program.
Trace generate_trace(const WorkloadProfile& profile, u64 n_records);

/// Streaming counterpart of execute_program: a pull cursor that interprets
/// the program on demand, one bounded chunk at a time, into an internal
/// reusable buffer. Long runs therefore cost O(chunk) memory instead of a
/// materialized record vector — the record stream is bit-identical to
/// execute_program's. Owns the program and its decoded form (16 bytes per
/// static µop); generated-workload only (RISC-V kernels stream push-side,
/// see rv/kernels.hpp).
class ProgramTraceCursor final : public TraceCursor {
 public:
  static constexpr std::size_t kDefaultChunkRecords = kTraceChunkRecords;

  ProgramTraceCursor(Program program, const WorkloadProfile& profile,
                     u64 n_records, std::size_t chunk_records = kDefaultChunkRecords);

  const Program& program() const override { return program_; }
  std::span<const TraceRecord> next_chunk() override;

  /// Advance past the next `n` records without building them: the
  /// interpreter still steps (registers, memory and pc evolve exactly as if
  /// the records were generated), so the following next_chunk() starts at
  /// the record a generate-and-drop seek would reach. Returns the number of
  /// records actually skipped, short when the trace ends first.
  u64 skip(u64 n);

 private:
  Program program_;
  std::vector<DecodedUop> ops_;
  SyntheticMemory mem_;
  ExecRegs regs_;
  std::vector<TraceRecord> buf_;
  std::size_t chunk_;
  u64 remaining_;
  u32 pc_ = 0;
};

}  // namespace hcsim
