// hcsim — RV32I functional executor.
//
// Interprets an assembled program with a concrete 32-entry register file and
// a small flat byte memory: the image loads at address 0, the stack grows
// down from the top. Execution is fully deterministic (no RNG, no I/O), so
// the same program yields a bit-identical step stream every run — the
// property the cracking layer (crack.hpp) relies on for reproducible traces.
//
// Two entry points share one interpreter:
//   - execute(): run-to-completion with a per-step sink (the original API).
//   - RvMachine: a *resumable* stepper holding the full architectural state
//     (registers, memory, pc, retired count). The windowed sampler's RV
//     record stream keeps one machine across its windows, so a forward seek
//     executes only the gap since the previous window (O(period), not
//     O(begin)).
//
// Halting: ECALL / EBREAK retire and halt, as does a jump to the
// return-address sentinel (ra is initialized to kRvHaltAddr, so a top-level
// `ret` cleanly ends the program). Exceeding the step budget stops execution
// with completed=false; malformed accesses (out-of-range pc, unaligned or
// out-of-bounds memory) set `error` and stop immediately.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "rv/assembler.hpp"

namespace hcsim::rv {

/// Jumping here halts the program. Lives far outside any valid image.
inline constexpr u32 kRvHaltAddr = 0xFFFFFFF0u;

struct ExecLimits {
  u64 max_steps = 2'000'000;  // retired-instruction budget
  u32 mem_bytes = 1u << 20;   // flat memory size (stack starts at the top)
};

/// One retired instruction with its concrete values.
struct RvStep {
  u32 pc = 0;
  RvInst inst;
  u32 rs1_val = 0;
  u32 rs2_val = 0;
  u32 result = 0;    // value written to rd (0 when !wrote_rd)
  bool wrote_rd = false;
  u32 mem_addr = 0;  // effective address (loads/stores)
  bool taken = false;  // branch/jump outcome
  u32 next_pc = 0;
};

struct RvExecResult {
  std::array<u32, 32> regs{};
  u64 steps = 0;
  bool completed = false;  // reached ecall/ebreak/halt-sentinel
  std::string error;       // nonempty on trap (bad pc/address/instruction)
};

/// Steppable RV32I interpreter. Construct once per program; `step` retires
/// one instruction at a time, and all state lives in the object.
class RvMachine {
 public:
  enum class Outcome {
    kRetired,  // one instruction retired; `out` is valid
    kHalted,   // clean halt (ecall/ebreak already retired, or halt sentinel)
    kTrapped,  // error() describes the fault
    kBudget,   // limits.max_steps retired without halting
  };

  RvMachine(const RvProgram& prog, const ExecLimits& limits = {});

  /// Execute one instruction, committing its effects (registers, memory,
  /// pc, retired count). Only kRetired fills `out`.
  Outcome step(RvStep& out);

  const std::array<u32, 32>& regs() const { return x_; }
  u64 steps() const { return steps_; }
  u32 pc() const { return pc_; }
  /// True once ecall/ebreak retired or the halt sentinel was reached.
  bool completed() const { return completed_; }
  const std::string& error() const { return error_; }

 private:
  Outcome trap(const std::string& msg);

  const RvProgram* prog_;
  ExecLimits limits_;
  std::vector<RvInst> code_;  // pre-decoded text (image is not self-modifying)
  std::vector<u8> mem_;
  std::array<u32, 32> x_{};
  u32 pc_ = 0;
  u64 steps_ = 0;
  bool completed_ = false;
  std::string error_;
};

/// Execute `prog` to completion (or until the budget/sink stops it). `sink`
/// is invoked once per retired instruction; returning false stops execution
/// (used by the cracker to enforce a µop budget mid-program) — the rejected
/// step does not count toward `steps`.
RvExecResult execute(const RvProgram& prog, const ExecLimits& limits = {},
                     const std::function<bool(const RvStep&)>& sink = nullptr);

}  // namespace hcsim::rv
