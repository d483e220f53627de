// hcsim — µop cracking: RV32I instructions -> hcsim StaticUops + value-
// accurate TraceRecords.
//
// The pipeline (core/pipeline.cpp) is trace driven: it consumes a static
// µop program plus a dynamic record stream carrying real values. This layer
// makes an assembled RISC-V program indistinguishable from a generated one:
//
//  * compare-and-branch (beq/bne/blt/...) cracks into kCmp + kBranchCond,
//    mapping RISC-V's fused compare onto the flags model the BR steering
//    scheme keys on (the cmp writes flags = rs1 - rs2; the branch reads
//    them with the matching condition code);
//  * set-less-than (slt/sltu/slti/sltiu and their pseudo forms) cracks into
//    kSub (into the T0 µop temporary) + kShr #31 — the sign-bit extraction
//    idiom — with the *architecturally exact* 0/1 result recorded;
//  * loads/stores map onto the base+offset AGU form (kLoad/kLoadByte/
//    kStore/kStoreByte), so byte kernels exercise the LR scheme and
//    base+small-offset addressing exercises CR carry confinement;
//  * jal/jalr with a link register crack into kMovImm (static return
//    address) + kJump.
//
// Recorded source/result/flags values always come from the functional
// executor, so downstream width predictors and steering observe real data
// widths. Unsigned branches and arithmetic right shifts reuse the closest
// µop shape (kCmp / kShr); their recorded outcomes remain architecturally
// exact, which is what every consumer reads.
#pragma once

#include "rv/exec.hpp"
#include "trace/trace.hpp"

namespace hcsim::rv {

/// A statically cracked program: the hcsim µop program plus the mapping
/// from RV instruction index to its µop range.
struct CrackedProgram {
  Program program;
  /// first_uop[i] = index of instruction i's first µop; size num_insts()+1,
  /// so instruction i owns µops [first_uop[i], first_uop[i+1]).
  std::vector<u32> first_uop;
};

CrackedProgram crack_program(const RvProgram& prog);

/// Provenance of a cracked trace run.
struct RvTraceInfo {
  u64 instret = 0;     // RV instructions retired
  bool completed = false;  // program halted cleanly (vs. µop budget cut)
  std::string error;   // executor trap, if any
};

/// Assemble-free entry point: functionally execute `prog` and emit the
/// value-accurate µop trace, bounded by `max_uops` dynamic µops.
Trace trace_from_program(const RvProgram& prog, u64 max_uops,
                         RvTraceInfo* info = nullptr, const ExecLimits& limits = {});

/// Streaming form: push every dynamic µop record to `sink` instead of
/// materializing a vector — the record stream is bit-identical to
/// trace_from_program's (it is the same interpreter). `cracked` must be
/// crack_program(prog).
RvTraceInfo stream_from_program(const RvProgram& prog, const CrackedProgram& cracked,
                                u64 max_uops,
                                const std::function<void(const TraceRecord&)>& sink,
                                const ExecLimits& limits = {});

/// Emit the value-accurate TraceRecords of one retired instruction — exactly
/// the records stream_from_program pushes for `step` (same switch, no budget
/// logic). Shared by the one-shot streamer and the resumable cursor so the
/// two paths cannot drift.
void emit_step_records(const CrackedProgram& cracked, const RvStep& step,
                       const std::function<void(const TraceRecord&)>& fn);

/// Resumable streaming cracker: an RvMachine plus a pending-record buffer.
///
/// pump_range delivers arbitrary forward slices [begin, end) of the dynamic
/// µop stream, bit-identical to one long stream_from_program pump. An
/// instruction executes only while the cursor is short of `end`; if its
/// crack runs past the range boundary the leftover records stay buffered
/// for the next range (over-pump-and-trim at instruction granularity).
class RvStreamCursor {
 public:
  /// Borrows `prog` and `cracked` (must be crack_program(prog)); the caller
  /// keeps both alive for the cursor's lifetime. `max_uops` is the stream's
  /// µop budget, cut the way stream_from_program cuts it: the instruction
  /// whose crack would cross it ends the stream, none of its µops delivered.
  RvStreamCursor(const RvProgram& prog, const CrackedProgram& cracked, u64 max_uops,
                 const ExecLimits& limits = {});

  /// Stream position of the next undelivered record.
  u64 position() const { return pos_; }

  /// Push records [begin, end) to `sink` in stream order; begin must be at
  /// or past position() (records already consumed cannot be re-delivered).
  /// Skipping [position(), begin) executes and discards. Delivered short if
  /// the program halts, traps, exhausts its instruction budget or reaches
  /// the µop budget first.
  RvTraceInfo pump_range(u64 begin, u64 end,
                         const std::function<void(const TraceRecord&)>& sink);

  /// Provenance so far (instret / completed / trap), same fields pump_range
  /// returns.
  RvTraceInfo info() const;

 private:
  bool refill();  // retire one instruction into pending_; false when done

  const CrackedProgram* cracked_;
  RvMachine machine_;
  u64 max_uops_;
  bool cut_ = false;  // the µop budget ended the stream
  std::vector<TraceRecord> pending_;
  std::size_t head_ = 0;  // next undelivered record within pending_
  u64 pos_ = 0;           // stream position of pending_[head_]
};

}  // namespace hcsim::rv
