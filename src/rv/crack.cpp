#include "rv/crack.hpp"

#include "util/log.hpp"

namespace hcsim::rv {
namespace {

RegId map_src(u8 r) { return static_cast<RegId>(kRegX0 + r); }
RegId map_dst(u8 r) { return r == 0 ? kRegNone : static_cast<RegId>(kRegX0 + r); }

/// hcsim condition code for an RV branch. Unsigned compares reuse the
/// signed sign-bit conditions; the recorded `taken` bit is always the
/// architecturally exact outcome from the executor.
u32 cond_of(RvOp op) {
  switch (op) {
    case RvOp::kBeq: return kCondEq;
    case RvOp::kBne: return kCondNe;
    case RvOp::kBlt:
    case RvOp::kBltu: return kCondLt;
    default: return kCondGe;
  }
}

Opcode alu_opcode(RvOp op) {
  switch (op) {
    case RvOp::kAddi:
    case RvOp::kAdd: return Opcode::kAdd;
    case RvOp::kSub: return Opcode::kSub;
    case RvOp::kXori:
    case RvOp::kXor: return Opcode::kXor;
    case RvOp::kOri:
    case RvOp::kOr: return Opcode::kOr;
    case RvOp::kAndi:
    case RvOp::kAnd: return Opcode::kAnd;
    case RvOp::kSlli:
    case RvOp::kSll: return Opcode::kShl;
    case RvOp::kSrli:
    case RvOp::kSrai:  // arithmetic shifts share the shifter µop shape
    case RvOp::kSrl:
    case RvOp::kSra: return Opcode::kShr;
    default: HCSIM_CHECK(false, "not an ALU instruction");
  }
  return Opcode::kNop;
}

constexpr bool has_imm_form(RvOp op) {
  return op >= RvOp::kAddi && op <= RvOp::kSrai;
}

/// Append the static µops of one instruction. `pc` is the RV byte address;
/// branch targets are filled in by the caller once first_uop is known.
void crack_one(const RvInst& in, u32 pc, std::vector<StaticUop>& uops) {
  auto push = [&](Opcode op, RegId dst, RegId s0, RegId s1, RegId s2, bool has_imm,
                  u32 imm) {
    StaticUop u;
    u.pc = static_cast<u32>(uops.size());
    u.opcode = op;
    u.dst = dst;
    u.srcs = {s0, s1, s2};
    u.has_imm = has_imm;
    u.imm = imm;
    uops.push_back(u);
  };
  const u32 imm = static_cast<u32>(in.imm);

  switch (in.op) {
    case RvOp::kLui:
      if (in.rd == 0) { push(Opcode::kNop, kRegNone, kRegNone, kRegNone, kRegNone, false, 0); break; }
      push(Opcode::kMovImm, map_dst(in.rd), kRegNone, kRegNone, kRegNone, true, imm);
      break;
    case RvOp::kAuipc:
      if (in.rd == 0) { push(Opcode::kNop, kRegNone, kRegNone, kRegNone, kRegNone, false, 0); break; }
      push(Opcode::kMovImm, map_dst(in.rd), kRegNone, kRegNone, kRegNone, true, pc + imm);
      break;
    case RvOp::kJal:
      if (in.rd != 0)
        push(Opcode::kMovImm, map_dst(in.rd), kRegNone, kRegNone, kRegNone, true, pc + 4);
      push(Opcode::kJump, kRegNone, kRegNone, kRegNone, kRegNone, false, 0);
      break;
    case RvOp::kJalr:
      if (in.rd != 0)
        push(Opcode::kMovImm, map_dst(in.rd), kRegNone, kRegNone, kRegNone, true, pc + 4);
      // Register-indirect: the jump reads rs1; its dynamic successor in the
      // record stream is the real target, so the static target stays 0.
      push(Opcode::kJump, kRegNone, map_src(in.rs1), kRegNone, kRegNone, true, imm);
      break;
    case RvOp::kBeq:
    case RvOp::kBne:
    case RvOp::kBlt:
    case RvOp::kBge:
    case RvOp::kBltu:
    case RvOp::kBgeu:
      push(Opcode::kCmp, kRegNone, map_src(in.rs1), map_src(in.rs2), kRegNone, false, 0);
      push(Opcode::kBranchCond, kRegNone, kRegFlags, kRegNone, kRegNone, true,
           cond_of(in.op));
      break;
    case RvOp::kLb:
    case RvOp::kLbu:
      push(Opcode::kLoadByte, map_dst(in.rd), map_src(in.rs1), kRegNone, kRegNone,
           true, imm);
      break;
    case RvOp::kLh:
    case RvOp::kLhu:
    case RvOp::kLw:
      push(Opcode::kLoad, map_dst(in.rd), map_src(in.rs1), kRegNone, kRegNone, true,
           imm);
      break;
    case RvOp::kSb:
      push(Opcode::kStoreByte, kRegNone, map_src(in.rs1), kRegNone, map_src(in.rs2),
           true, imm);
      break;
    case RvOp::kSh:
    case RvOp::kSw:
      push(Opcode::kStore, kRegNone, map_src(in.rs1), kRegNone, map_src(in.rs2), true,
           imm);
      break;
    case RvOp::kSlti:
    case RvOp::kSltiu:
    case RvOp::kSlt:
    case RvOp::kSltu:
      if (in.rd == 0) { push(Opcode::kNop, kRegNone, kRegNone, kRegNone, kRegNone, false, 0); break; }
      if (has_imm_form(in.op)) {
        push(Opcode::kSub, kRegT0, map_src(in.rs1), kRegNone, kRegNone, true, imm);
      } else {
        push(Opcode::kSub, kRegT0, map_src(in.rs1), map_src(in.rs2), kRegNone, false, 0);
      }
      push(Opcode::kShr, map_dst(in.rd), kRegT0, kRegNone, kRegNone, true, 31);
      break;
    case RvOp::kAddi:
    case RvOp::kXori:
    case RvOp::kOri:
    case RvOp::kAndi:
    case RvOp::kSlli:
    case RvOp::kSrli:
    case RvOp::kSrai:
      if (in.rd == 0) { push(Opcode::kNop, kRegNone, kRegNone, kRegNone, kRegNone, false, 0); break; }
      push(alu_opcode(in.op), map_dst(in.rd), map_src(in.rs1), kRegNone, kRegNone,
           true, imm);
      break;
    case RvOp::kAdd:
    case RvOp::kSub:
    case RvOp::kSll:
    case RvOp::kXor:
    case RvOp::kSrl:
    case RvOp::kSra:
    case RvOp::kOr:
    case RvOp::kAnd:
      if (in.rd == 0) { push(Opcode::kNop, kRegNone, kRegNone, kRegNone, kRegNone, false, 0); break; }
      push(alu_opcode(in.op), map_dst(in.rd), map_src(in.rs1), map_src(in.rs2),
           kRegNone, false, 0);
      break;
    case RvOp::kFence:
    case RvOp::kEcall:
    case RvOp::kEbreak:
      push(Opcode::kNop, kRegNone, kRegNone, kRegNone, kRegNone, false, 0);
      break;
    default:
      HCSIM_CHECK(false, "cannot crack an illegal instruction");
  }
}

}  // namespace

CrackedProgram crack_program(const RvProgram& prog) {
  const u32 n = prog.num_insts();
  HCSIM_CHECK(n > 0, "cannot crack an empty program");
  CrackedProgram out;
  out.program.name = prog.name;
  out.first_uop.reserve(n + 1);

  std::vector<RvInst> insts(n);
  for (u32 i = 0; i < n; ++i) {
    insts[i] = decode(prog.inst_word(i * 4));
    HCSIM_CHECK(insts[i].op != RvOp::kIllegal, "illegal instruction in text");
    out.first_uop.push_back(static_cast<u32>(out.program.uops.size()));
    crack_one(insts[i], i * 4, out.program.uops);
  }
  out.first_uop.push_back(static_cast<u32>(out.program.uops.size()));

  // Resolve static branch targets now that every µop address is known.
  out.program.branch_targets.assign(out.program.uops.size(), 0);
  for (u32 i = 0; i < n; ++i) {
    const RvInst& in = insts[i];
    if (!is_rv_branch(in.op) && in.op != RvOp::kJal) continue;
    const u32 target_pc = i * 4 + static_cast<u32>(in.imm);
    HCSIM_CHECK(target_pc % 4 == 0 && target_pc / 4 < n,
                "branch target outside text");
    // The branch/jump is the last µop of the crack.
    const u32 branch_uop = out.first_uop[i + 1] - 1;
    out.program.branch_targets[branch_uop] = out.first_uop[target_pc / 4];
  }
  return out;
}

void emit_step_records(const CrackedProgram& cracked, const RvStep& step,
                       const std::function<void(const TraceRecord&)>& fn) {
  const u32 base = cracked.first_uop[step.pc / 4];
  auto push_rec = [&](const TraceRecord& r) { fn(r); };
  {
    const RvInst& in = step.inst;
    const u32 a = step.rs1_val, b = step.rs2_val;
    const u32 imm = static_cast<u32>(in.imm);

    auto rec_at = [&](u32 offset) {
      TraceRecord r;
      r.pc = base + offset;
      return r;
    };

    switch (in.op) {
      case RvOp::kLui:
      case RvOp::kAuipc: {
        TraceRecord r = rec_at(0);
        r.result = step.result;  // 0 for the rd==0 nop crack
        push_rec(r);
        break;
      }
      case RvOp::kJal:
      case RvOp::kJalr: {
        u32 off = 0;
        if (in.rd != 0) {
          TraceRecord link = rec_at(off++);
          link.result = step.pc + 4;
          push_rec(link);
        }
        TraceRecord jmp = rec_at(off);
        if (in.op == RvOp::kJalr) jmp.src_vals[0] = a;
        jmp.taken = true;
        push_rec(jmp);
        break;
      }
      case RvOp::kBeq:
      case RvOp::kBne:
      case RvOp::kBlt:
      case RvOp::kBge:
      case RvOp::kBltu:
      case RvOp::kBgeu: {
        const u32 flags = a - b;  // kCmp convention: flags = rs1 - rs2
        TraceRecord cmp = rec_at(0);
        cmp.src_vals = {a, b, 0};
        cmp.flags_val = flags;
        push_rec(cmp);
        TraceRecord br = rec_at(1);
        br.src_vals[0] = flags;
        br.taken = step.taken;
        push_rec(br);
        break;
      }
      case RvOp::kLb:
      case RvOp::kLbu:
      case RvOp::kLh:
      case RvOp::kLhu:
      case RvOp::kLw: {
        TraceRecord r = rec_at(0);
        r.src_vals[0] = a;
        r.mem_addr = step.mem_addr;
        r.result = step.result;
        push_rec(r);
        break;
      }
      case RvOp::kSb:
      case RvOp::kSh:
      case RvOp::kSw: {
        TraceRecord r = rec_at(0);
        r.src_vals = {a, 0, b};
        r.mem_addr = step.mem_addr;
        push_rec(r);
        break;
      }
      case RvOp::kSlti:
      case RvOp::kSltiu:
      case RvOp::kSlt:
      case RvOp::kSltu: {
        if (in.rd == 0) {
          push_rec(rec_at(0));
          break;
        }
        const u32 rhs = has_imm_form(in.op) ? imm : b;
        const u32 diff = a - rhs;
        TraceRecord sub = rec_at(0);
        sub.src_vals = {a, has_imm_form(in.op) ? 0 : b, 0};
        sub.result = diff;
        sub.flags_val = diff;
        push_rec(sub);
        TraceRecord shr = rec_at(1);
        shr.src_vals[0] = diff;
        shr.result = step.result;  // architecturally exact 0/1
        shr.flags_val = step.result;
        push_rec(shr);
        break;
      }
      case RvOp::kAddi:
      case RvOp::kXori:
      case RvOp::kOri:
      case RvOp::kAndi:
      case RvOp::kSlli:
      case RvOp::kSrli:
      case RvOp::kSrai:
      case RvOp::kAdd:
      case RvOp::kSub:
      case RvOp::kSll:
      case RvOp::kXor:
      case RvOp::kSrl:
      case RvOp::kSra:
      case RvOp::kOr:
      case RvOp::kAnd: {
        TraceRecord r = rec_at(0);
        if (in.rd == 0) {  // cracked to kNop
          push_rec(r);
          break;
        }
        r.src_vals[0] = a;
        if (!has_imm_form(in.op)) r.src_vals[1] = b;
        r.result = step.result;
        r.flags_val = step.result;  // ALU µops write flags = result
        push_rec(r);
        break;
      }
      case RvOp::kFence:
      case RvOp::kEcall:
      case RvOp::kEbreak:
        push_rec(rec_at(0));
        break;
      default:
        HCSIM_CHECK(false, "unreachable: illegal instruction executed");
    }
  }
}

RvTraceInfo stream_from_program(const RvProgram& prog, const CrackedProgram& cracked,
                                u64 max_uops,
                                const std::function<void(const TraceRecord&)>& sink,
                                const ExecLimits& limits) {
  u64 emitted = 0;
  auto emit = [&](const RvStep& step) -> bool {
    const u32 idx = step.pc / 4;
    const u32 n_uops = cracked.first_uop[idx + 1] - cracked.first_uop[idx];
    if (emitted + n_uops > max_uops) return false;  // budget cut
    emit_step_records(cracked, step, [&](const TraceRecord& r) {
      ++emitted;
      sink(r);
    });
    return true;
  };

  const RvExecResult res = execute(prog, limits, emit);
  RvTraceInfo out;
  out.instret = res.steps;
  out.completed = res.completed;
  out.error = res.error;
  return out;
}

// --- RvStreamCursor ----------------------------------------------------------

RvStreamCursor::RvStreamCursor(const RvProgram& prog, const CrackedProgram& cracked,
                               u64 max_uops, const ExecLimits& limits)
    : cracked_(&cracked), machine_(prog, limits), max_uops_(max_uops) {}

RvTraceInfo RvStreamCursor::info() const {
  RvTraceInfo out;
  out.instret = machine_.steps();
  out.completed = machine_.completed();
  out.error = machine_.error();
  return out;
}

bool RvStreamCursor::refill() {
  RvStep step;
  if (cut_ || machine_.step(step) != RvMachine::Outcome::kRetired) return false;
  emit_step_records(*cracked_, step,
                    [this](const TraceRecord& r) { pending_.push_back(r); });
  if (pos_ + pending_.size() > max_uops_) {  // stream_from_program's budget cut
    pending_.clear();
    cut_ = true;
    return false;
  }
  return true;
}

RvTraceInfo RvStreamCursor::pump_range(
    u64 begin, u64 end, const std::function<void(const TraceRecord&)>& sink) {
  HCSIM_CHECK(begin <= end, "RvStreamCursor: begin > end");
  HCSIM_CHECK(begin >= pos_, "RvStreamCursor: backward seek (restore a checkpoint)");
  while (pos_ < end) {
    if (head_ == pending_.size()) {
      pending_.clear();
      head_ = 0;
      if (!refill()) break;  // halted / trapped / budget exhausted
    }
    // An instruction executes only while the cursor is short of `end`; a
    // crack straddling the boundary leaves its tail buffered for the next
    // range. Per-record filtering below trims the [pos_, begin) skip.
    while (head_ < pending_.size() && pos_ < end) {
      if (pos_ >= begin) sink(pending_[head_]);
      ++head_;
      ++pos_;
    }
  }
  return info();
}

RvStreamCursor::Checkpoint RvStreamCursor::checkpoint() const {
  Checkpoint c;
  c.machine = machine_.save();
  c.pos = pos_;
  c.pending.assign(pending_.begin() + static_cast<std::ptrdiff_t>(head_),
                   pending_.end());
  return c;
}

void RvStreamCursor::restore(const Checkpoint& c) {
  machine_.restore(c.machine);
  cut_ = false;  // positions never pass the cut, so no checkpoint lies beyond it
  pending_ = c.pending;
  head_ = 0;
  pos_ = c.pos;
}

Trace trace_from_program(const RvProgram& prog, u64 max_uops, RvTraceInfo* info,
                         const ExecLimits& limits) {
  const CrackedProgram cracked = crack_program(prog);
  Trace trace;
  trace.program = cracked.program;
  trace.seed = 1;  // RV traces are seedless: the program fully determines them
  const RvTraceInfo res = stream_from_program(
      prog, cracked, max_uops, [&](const TraceRecord& r) { trace.records.push_back(r); },
      limits);
  if (info) {
    // The caller owns trap handling (hcrv turns it into a CLI diagnostic).
    *info = res;
  } else {
    HCSIM_CHECK(res.error.empty(), "rv executor trapped: " + res.error);
  }
  return trace;
}

}  // namespace hcsim::rv
