// TCG optimizer (QEMU runs a very similar pass over every TB).
//
// The translator emits a regular pattern: compute into a fresh temp, then
// kMov the temp into its destination. The optimizer cleans that up:
//
//  1. *Copy forwarding* — when a pure op defines a temp that is consumed
//     exactly once, by the immediately following kMov, the op writes the
//     mov's destination directly and the mov disappears. This typically
//     removes 20-30% of a TB's ops.
//  2. *Immediate fusion* — a kMovI temp consumed exactly once as the second
//     operand of the next ALU / compare / store op folds into that op
//     (src2_imm); a fused `kAdd t, base, #disp` feeding the next load or
//     store's address folds into the memory op itself (addr_fused), QEMU's
//     base+displacement addressing mode.
//  3. *Dead temp elimination* — pure ops whose destination temp is never
//     read afterwards are dropped (a backward liveness sweep).
//  4. *Boundary folding* — a kInsnStart whose instruction emitted at least
//     one more op becomes an insn_boundary flag on that op, so the
//     interpreter pays one well-predicted branch instead of a dispatched op
//     per retired instruction. Instruction accounting (instret, budget,
//     watchdog, hooks) is unchanged: the interpreter runs the same
//     bookkeeping before a flagged op that the kInsnStart handler runs.
//
// All transformations preserve taint semantics exactly: a forwarded op
// propagates the same mask the deleted kMov would have copied; fused
// immediates read taint 0 just as the folded kMovI temp would (temps are
// cleared at TB entry and injections only ever target env slots); the
// interpreter re-applies the folded kAdd's taint rule for fused addresses.
// Control flow, flags and helper calls are never touched, and memory ops are
// never removed.
#pragma once

#include <cstdint>

#include "tcg/ir.h"

namespace chaser::tcg {

struct OptimizerStats {
  std::uint64_t movs_forwarded = 0;
  std::uint64_t dead_ops_removed = 0;
  std::uint64_t imms_fused = 0;   // kMovI folded into a consumer's src2
  std::uint64_t addrs_fused = 0;  // kAdd folded into a load/store address
  std::uint64_t insn_starts_folded = 0;  // kInsnStart -> insn_boundary flag

  OptimizerStats& operator+=(const OptimizerStats& o) {
    movs_forwarded += o.movs_forwarded;
    dead_ops_removed += o.dead_ops_removed;
    imms_fused += o.imms_fused;
    addrs_fused += o.addrs_fused;
    insn_starts_folded += o.insn_starts_folded;
    return *this;
  }
};

/// Optimize `tb` in place. Returns what was done.
OptimizerStats Optimize(TranslationBlock* tb);

}  // namespace chaser::tcg
