#include "rv/exec.hpp"

#include <algorithm>
#include <sstream>

namespace hcsim::rv {
namespace {

std::string hex(u32 v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

}  // namespace

RvMachine::RvMachine(const RvProgram& prog, const ExecLimits& limits)
    : prog_(&prog), limits_(limits) {
  if (prog.text_bytes == 0 || prog.text_bytes % 4 != 0) {
    error_ = "program has no (word-aligned) text";
    return;
  }
  if (prog.image.size() > limits.mem_bytes) {
    error_ = "image larger than memory";
    return;
  }

  // Pre-decode the text section once; the image is not self-modifying (a
  // store into text traps below).
  const u32 n_insts = prog.num_insts();
  code_.resize(n_insts);
  for (u32 i = 0; i < n_insts; ++i) code_[i] = decode(prog.inst_word(i * 4));

  mem_.assign(limits.mem_bytes, 0);
  std::copy(prog.image.begin(), prog.image.end(), mem_.begin());

  x_[1] = kRvHaltAddr;              // ra: top-level `ret` halts
  x_[2] = limits.mem_bytes & ~15u;  // sp: 16-byte aligned stack top
}

RvMachine::Outcome RvMachine::trap(const std::string& msg) {
  error_ = "pc=" + hex(pc_) + ": " + msg;
  return Outcome::kTrapped;
}

RvMachine::Outcome RvMachine::step(RvStep& out) {
  if (!error_.empty()) return Outcome::kTrapped;
  if (completed_) return Outcome::kHalted;
  if (steps_ >= limits_.max_steps) return Outcome::kBudget;
  if (pc_ == kRvHaltAddr) {
    completed_ = true;
    return Outcome::kHalted;
  }
  if (pc_ >= prog_->text_bytes || pc_ % 4 != 0)
    return trap("instruction fetch outside text");
  const RvInst& in = code_[pc_ / 4];
  if (in.op == RvOp::kIllegal)
    return trap("illegal instruction " + hex(prog_->inst_word(pc_)));

  const u32 pc = pc_;
  out = RvStep{};
  out.pc = pc;
  out.inst = in;
  const u32 a = x_[in.rs1];
  const u32 b = x_[in.rs2];
  out.rs1_val = a;
  out.rs2_val = b;
  const u32 imm = static_cast<u32>(in.imm);

  u32 result = 0;
  bool wrote_rd = true;
  u32 next_pc = pc + 4;

  // Bounds- and alignment-checked memory access. Stores into the text
  // prefix trap: the executor pre-decodes and does not model i-fetch from
  // dirty lines.
  auto check_addr = [&](u32 addr, unsigned n, bool store) -> bool {
    if (addr % n != 0) {
      trap("unaligned " + std::to_string(n) + "-byte access at " + hex(addr));
      return false;
    }
    if (addr > limits_.mem_bytes - n) {
      trap("memory access out of bounds at " + hex(addr));
      return false;
    }
    if (store && addr < prog_->text_bytes) {
      trap("store into text at " + hex(addr));
      return false;
    }
    return true;
  };
  auto load_n = [&](u32 addr, unsigned n) {
    u32 v = 0;
    for (unsigned i = 0; i < n; ++i) v |= static_cast<u32>(mem_[addr + i]) << (8 * i);
    return v;
  };
  auto store_n = [&](u32 addr, unsigned n, u32 v) {
    for (unsigned i = 0; i < n; ++i) mem_[addr + i] = static_cast<u8>(v >> (8 * i));
  };

  switch (in.op) {
    case RvOp::kLui: result = imm; break;
    case RvOp::kAuipc: result = pc + imm; break;
    case RvOp::kJal:
      result = pc + 4;
      out.taken = true;
      next_pc = pc + imm;
      break;
    case RvOp::kJalr:
      result = pc + 4;
      out.taken = true;
      next_pc = (a + imm) & ~1u;
      break;
    case RvOp::kBeq:
    case RvOp::kBne:
    case RvOp::kBlt:
    case RvOp::kBge:
    case RvOp::kBltu:
    case RvOp::kBgeu: {
      bool taken = false;
      switch (in.op) {
        case RvOp::kBeq: taken = a == b; break;
        case RvOp::kBne: taken = a != b; break;
        case RvOp::kBlt: taken = static_cast<i32>(a) < static_cast<i32>(b); break;
        case RvOp::kBge: taken = static_cast<i32>(a) >= static_cast<i32>(b); break;
        case RvOp::kBltu: taken = a < b; break;
        default: taken = a >= b; break;
      }
      out.taken = taken;
      if (taken) next_pc = pc + imm;
      wrote_rd = false;
      break;
    }
    case RvOp::kLb:
    case RvOp::kLbu:
      out.mem_addr = a + imm;
      if (!check_addr(out.mem_addr, 1, false)) return Outcome::kTrapped;
      result = load_n(out.mem_addr, 1);
      if (in.op == RvOp::kLb && (result & 0x80u)) result |= 0xFFFFFF00u;
      break;
    case RvOp::kLh:
    case RvOp::kLhu:
      out.mem_addr = a + imm;
      if (!check_addr(out.mem_addr, 2, false)) return Outcome::kTrapped;
      result = load_n(out.mem_addr, 2);
      if (in.op == RvOp::kLh && (result & 0x8000u)) result |= 0xFFFF0000u;
      break;
    case RvOp::kLw:
      out.mem_addr = a + imm;
      if (!check_addr(out.mem_addr, 4, false)) return Outcome::kTrapped;
      result = load_n(out.mem_addr, 4);
      break;
    case RvOp::kSb:
    case RvOp::kSh:
    case RvOp::kSw: {
      const unsigned n = in.op == RvOp::kSb ? 1 : in.op == RvOp::kSh ? 2 : 4;
      out.mem_addr = a + imm;
      if (!check_addr(out.mem_addr, n, true)) return Outcome::kTrapped;
      store_n(out.mem_addr, n, b);
      wrote_rd = false;
      break;
    }
    case RvOp::kAddi: result = a + imm; break;
    case RvOp::kSlti: result = static_cast<i32>(a) < in.imm ? 1u : 0u; break;
    case RvOp::kSltiu: result = a < imm ? 1u : 0u; break;
    case RvOp::kXori: result = a ^ imm; break;
    case RvOp::kOri: result = a | imm; break;
    case RvOp::kAndi: result = a & imm; break;
    case RvOp::kSlli: result = a << (imm & 31u); break;
    case RvOp::kSrli: result = a >> (imm & 31u); break;
    case RvOp::kSrai: result = static_cast<u32>(static_cast<i32>(a) >> (imm & 31u)); break;
    case RvOp::kAdd: result = a + b; break;
    case RvOp::kSub: result = a - b; break;
    case RvOp::kSll: result = a << (b & 31u); break;
    case RvOp::kSlt: result = static_cast<i32>(a) < static_cast<i32>(b) ? 1u : 0u; break;
    case RvOp::kSltu: result = a < b ? 1u : 0u; break;
    case RvOp::kXor: result = a ^ b; break;
    case RvOp::kSrl: result = a >> (b & 31u); break;
    case RvOp::kSra: result = static_cast<u32>(static_cast<i32>(a) >> (b & 31u)); break;
    case RvOp::kOr: result = a | b; break;
    case RvOp::kAnd: result = a & b; break;
    case RvOp::kFence:
      wrote_rd = false;
      break;
    case RvOp::kEcall:
    case RvOp::kEbreak:
      // Environment call = clean halt. The step still retires (it appears
      // in the trace as a nop) so instret counts match the program.
      out.wrote_rd = false;
      out.next_pc = kRvHaltAddr;
      ++steps_;
      completed_ = true;
      pc_ = kRvHaltAddr;
      return Outcome::kRetired;
    default:
      return trap("unimplemented instruction");
  }

  wrote_rd = wrote_rd && in.rd != 0;
  if (wrote_rd) x_[in.rd] = result;
  out.wrote_rd = wrote_rd;
  out.result = wrote_rd ? result : 0;
  out.next_pc = next_pc;
  ++steps_;
  pc_ = next_pc;
  return Outcome::kRetired;
}

RvExecResult execute(const RvProgram& prog, const ExecLimits& limits,
                     const std::function<bool(const RvStep&)>& sink) {
  RvExecResult res;
  RvMachine m(prog, limits);
  if (!m.error().empty()) {
    res.error = m.error();
    return res;
  }
  RvStep step;
  for (;;) {
    const RvMachine::Outcome oc = m.step(step);
    if (oc == RvMachine::Outcome::kHalted) {
      res.completed = true;
      break;
    }
    if (oc == RvMachine::Outcome::kTrapped) {
      res.error = m.error();
      break;
    }
    if (oc == RvMachine::Outcome::kBudget) break;
    // Budget cut: completed stays false, and the rejected step does not
    // count toward instret (its µops never entered the trace).
    if (sink && !sink(step)) break;
    ++res.steps;
    if (m.completed()) {  // ecall/ebreak retired and was accepted
      res.completed = true;
      break;
    }
  }
  res.regs = m.regs();
  return res;
}

}  // namespace hcsim::rv
