// Unit tests for src/vm: soft-MMU memory, instruction semantics, guest OS
// services, signals, the TB cache, and VMI events.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <stdexcept>
#include <vector>

#include "common/error.h"
#include "guest/builder.h"
#include "tcg/shared_cache.h"
#include "vm/memory.h"
#include "vm/vm.h"

namespace chaser::vm {
namespace {

using guest::Cond;
using guest::F;
using guest::MemSize;
using guest::ProgramBuilder;
using guest::R;
using guest::Sys;

// ---- GuestMemory --------------------------------------------------------------

TEST(Memory, UnmappedAccessFails) {
  GuestMemory m;
  PhysAddr pa;
  EXPECT_FALSE(m.IsMapped(0x1000));
  EXPECT_EQ(m.Translate(0x1000), std::nullopt);
  EXPECT_FALSE(m.Load(0x1000, 8, &pa).has_value());
  EXPECT_FALSE(m.Store(0x1000, 8, 1, &pa));
}

TEST(Memory, MapThenRoundTrip) {
  GuestMemory m;
  m.MapRegion(0x1000, 0x2000);
  PhysAddr pa = 0;
  ASSERT_TRUE(m.Store(0x1234, 8, 0xdeadbeefcafef00dull, &pa));
  const auto v = m.Load(0x1234, 8, &pa);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 0xdeadbeefcafef00dull);
}

TEST(Memory, ZeroInitialized) {
  GuestMemory m;
  m.MapRegion(0x4000, 64);
  PhysAddr pa;
  EXPECT_EQ(*m.Load(0x4000, 8, &pa), 0u);
}

TEST(Memory, SubWordSizes) {
  GuestMemory m;
  m.MapRegion(0, 4096);
  PhysAddr pa;
  m.Store(0x10, 8, 0x1122334455667788ull, &pa);
  EXPECT_EQ(*m.Load(0x10, 1, &pa), 0x88u);
  EXPECT_EQ(*m.Load(0x10, 2, &pa), 0x7788u);
  EXPECT_EQ(*m.Load(0x10, 4, &pa), 0x55667788u);
  m.Store(0x10, 1, 0xff, &pa);
  EXPECT_EQ(*m.Load(0x10, 8, &pa), 0x11223344556677ffull);
}

TEST(Memory, CrossPageAccess) {
  GuestMemory m;
  m.MapRegion(0, 2 * kPageSize);
  PhysAddr pa;
  const GuestAddr addr = kPageSize - 4;  // straddles the page boundary
  ASSERT_TRUE(m.Store(addr, 8, 0x0102030405060708ull, &pa));
  EXPECT_EQ(*m.Load(addr, 8, &pa), 0x0102030405060708ull);
}

TEST(Memory, CrossPageIntoUnmappedFails) {
  GuestMemory m;
  m.MapRegion(0, kPageSize);  // only the first page
  PhysAddr pa;
  EXPECT_FALSE(m.Load(kPageSize - 4, 8, &pa).has_value());
  EXPECT_FALSE(m.Store(kPageSize - 4, 8, 1, &pa));
  // And the mapped prefix is untouched (no partial store).
  EXPECT_EQ(*m.Load(kPageSize - 8, 8, &pa) & 0xffffffffu, 0u);
}

TEST(Memory, BulkReadWrite) {
  GuestMemory m;
  m.MapRegion(0x7000, 3 * kPageSize);
  std::vector<std::uint8_t> data(5000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i);
  ASSERT_TRUE(m.WriteBytes(0x7100, data.data(), data.size()));
  std::vector<std::uint8_t> back(5000);
  ASSERT_TRUE(m.ReadBytes(0x7100, back.data(), back.size()));
  EXPECT_EQ(data, back);
}

TEST(Memory, BulkWriteFailsAtomically) {
  GuestMemory m;
  m.MapRegion(0, kPageSize);
  std::vector<std::uint8_t> data(2 * kPageSize, 0xab);
  EXPECT_FALSE(m.WriteBytes(0, data.data(), data.size()));
  PhysAddr pa;
  EXPECT_EQ(*m.Load(0, 8, &pa), 0u);  // nothing written
}

TEST(Memory, DistinctPagesDistinctFrames) {
  GuestMemory m;
  m.MapRegion(0x10000, kPageSize);
  m.MapRegion(0x90000, kPageSize);
  const PhysAddr p1 = *m.Translate(0x10000);
  const PhysAddr p2 = *m.Translate(0x90000);
  EXPECT_NE(p1 >> kPageBits, p2 >> kPageBits);
}

// ---- Demand-zero backing --------------------------------------------------------

TEST(DemandZero, PaddrsEqualEagerAssignmentWhateverTheTouchOrder) {
  // Eager mapping numbered frames in mapping order, ascending page order
  // within a region, skipping pages already mapped. Demand-zero must keep
  // exactly that numbering however the pages are later touched.
  const std::vector<std::pair<GuestAddr, std::uint64_t>> regions = {
      {0x40000, 3 * kPageSize}, {0x10000, 2 * kPageSize},
      {0x41000, 4 * kPageSize}};  // overlaps the first region's tail
  std::map<GuestAddr, PhysAddr> eager;
  for (const auto& [base, bytes] : regions) {
    for (GuestAddr va = base; va < base + bytes; va += kPageSize) {
      eager.try_emplace(va, eager.size() * kPageSize);
    }
  }
  GuestMemory m;
  for (const auto& [base, bytes] : regions) m.MapRegion(base, bytes);
  EXPECT_EQ(m.mapped_pages(), eager.size());
  EXPECT_EQ(m.backed_pages(), 0u);
  for (auto it = eager.rbegin(); it != eager.rend(); ++it) {  // reverse touch
    EXPECT_EQ(*m.Translate(it->first + 7), it->second + 7) << it->first;
  }
  EXPECT_EQ(m.backed_pages(), eager.size());
}

TEST(DemandZero, UnbackedPagesAreMappedAndReadZero) {
  GuestMemory m;
  m.MapRegion(0x20000, 16 * kPageSize);
  for (GuestAddr va = 0x20000; va < 0x30000; va += kPageSize) {
    EXPECT_TRUE(m.IsMapped(va));
  }
  EXPECT_EQ(m.backed_pages(), 0u);
  std::vector<std::uint8_t> buf(2 * kPageSize, 0xaa);
  ASSERT_TRUE(m.ReadBytes(0x23000, buf.data(), buf.size()));
  EXPECT_TRUE(std::all_of(buf.begin(), buf.end(),
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_EQ(m.backed_pages(), 2u);
  PhysAddr pa = 0;
  EXPECT_EQ(m.Load(0x2f008, 8, &pa), std::optional<std::uint64_t>(0));
  EXPECT_EQ(m.backed_pages(), 3u);
}

TEST(DemandZero, FaultingCrossPageAccessWritesNothing) {
  GuestMemory m;
  m.MapRegion(0, kPageSize);  // page 1 stays unmapped; page 0 unbacked
  PhysAddr pa = 0;
  EXPECT_FALSE(m.Store(kPageSize - 4, 8, ~0ull, &pa));
  EXPECT_FALSE(m.Load(kPageSize - 4, 8, &pa).has_value());
  EXPECT_EQ(*m.Load(kPageSize - 8, 8, &pa), 0u);
  const std::uint64_t fill = 0x0102030405060708ull;
  ASSERT_TRUE(m.WriteBytes(kPageSize - 8, &fill, 8));
  EXPECT_FALSE(m.WriteBytes(kPageSize - 8, &fill, 16));
  EXPECT_EQ(*m.Load(kPageSize - 8, 8, &pa), fill);
}

TEST(DemandZero, TlbOnAndOffAgreeAndBackingLeavesTlbCountsAlone) {
  // `walk_tables` flushes the TLB before every access, so each access walks
  // the page table: the reference the TLB must agree with.
  const auto walk = [](GuestMemory& m, bool walk_tables) {
    std::uint64_t sum = 0;
    PhysAddr pa = 0;
    for (int round = 0; round < 3; ++round) {
      for (GuestAddr va = 0x50000; va < 0x58000; va += 0x340) {
        if (walk_tables) m.FlushTlb();
        m.Store(va, 4, va * 3 + round, &pa);
        if (walk_tables) m.FlushTlb();
        sum += *m.Load(va ^ 0x1000, 8, &pa) + pa;
      }
    }
    return sum;
  };
  GuestMemory on;
  on.MapRegion(0x50000, 0x9000);
  GuestMemory off;
  off.MapRegion(0x50000, 0x9000);
  EXPECT_EQ(walk(on, false), walk(off, true));

  // Same walk on memory whose pages were all backed beforehand, from the
  // same empty TLB: backing is invisible to the TLB counts.
  GuestMemory prebacked;
  prebacked.MapRegion(0x50000, 0x9000);
  std::vector<std::uint8_t> scratch(0x9000);
  ASSERT_TRUE(prebacked.ReadBytes(0x50000, scratch.data(), scratch.size()));
  prebacked.FlushTlb();
  const std::uint64_t hits0 = prebacked.tlb_hits();
  const std::uint64_t misses0 = prebacked.tlb_misses();
  walk(prebacked, false);
  EXPECT_EQ(prebacked.tlb_hits() - hits0, on.tlb_hits());
  EXPECT_EQ(prebacked.tlb_misses() - misses0, on.tlb_misses());
  EXPECT_GT(on.tlb_hits(), 0u);
}

TEST(DemandZero, SnapshotRestoresMappingContentsAndTlb) {
  GuestMemory m;
  m.MapRegion(0x60000, 8 * kPageSize);
  m.MapRegion(0x10000, kPageSize);
  PhysAddr pa = 0;
  m.Store(0x61008, 8, 0x1234, &pa);
  m.Store(0x10010, 8, 0x5678, &pa);
  GuestMemory::Snapshot snap;
  m.Save(&snap);
  EXPECT_EQ(snap.page_frame.size(), 2u);  // only backed pages are copied
  EXPECT_LT(snap.Bytes(), 3 * kPageSize);

  GuestMemory r;
  r.MapRegion(0x900000, kPageSize);  // replaced wholesale
  r.Store(0x900000, 8, 9, &pa);
  r.Restore(snap);
  EXPECT_FALSE(r.IsMapped(0x900000));
  EXPECT_EQ(r.mapped_pages(), m.mapped_pages());
  EXPECT_EQ(r.backed_pages(), 2u);
  EXPECT_EQ(r.tlb_hits(), m.tlb_hits());
  EXPECT_EQ(r.tlb_misses(), m.tlb_misses());
  for (const GuestAddr va : {0x61008ull, 0x10010ull, 0x67ff8ull}) {
    PhysAddr pm = 0, pr = 0;
    EXPECT_EQ(m.Load(va, 8, &pm), r.Load(va, 8, &pr)) << va;
    EXPECT_EQ(pm, pr) << va;
  }
  EXPECT_EQ(r.tlb_hits(), m.tlb_hits());
  EXPECT_EQ(r.tlb_misses(), m.tlb_misses());
}

// ---- Instruction semantics -------------------------------------------------------

/// Runs `emit` inside a fresh program and returns the terminated VM.
template <typename EmitFn>
Vm RunProgram(EmitFn emit) {
  ProgramBuilder b("t");
  emit(b);
  b.Exit(0);
  static std::deque<guest::Program> programs;  // stable addresses, kept alive
  programs.push_back(b.Finalize());
  Vm vm;
  vm.StartProcess(programs.back());
  vm.Run(1u << 22);
  return vm;
}

TEST(Exec, IntegerAluBasics) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), 7);
    b.MovI(R(2), 3);
    b.Add(R(3), R(1), R(2));
    b.Sub(R(4), R(1), R(2));
    b.Mul(R(5), R(1), R(2));
    b.DivS(R(6), R(1), R(2));
    b.RemS(R(8), R(1), R(2));
    b.And(R(9), R(1), R(2));
    b.Or(R(10), R(1), R(2));
    b.Xor(R(11), R(1), R(2));
  });
  EXPECT_EQ(vm.cpu().IntReg(3), 10u);
  EXPECT_EQ(vm.cpu().IntReg(4), 4u);
  EXPECT_EQ(vm.cpu().IntReg(5), 21u);
  EXPECT_EQ(vm.cpu().IntReg(6), 2u);
  EXPECT_EQ(vm.cpu().IntReg(8), 1u);
  EXPECT_EQ(vm.cpu().IntReg(9), 3u);
  EXPECT_EQ(vm.cpu().IntReg(10), 7u);
  EXPECT_EQ(vm.cpu().IntReg(11), 4u);
}

TEST(Exec, SignedUnsignedDivision) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), -7);
    b.MovI(R(2), 2);
    b.DivS(R(3), R(1), R(2));   // -3 (C++ truncation)
    b.RemS(R(4), R(1), R(2));   // -1
    b.DivU(R(5), R(1), R(2));   // huge
  });
  EXPECT_EQ(static_cast<std::int64_t>(vm.cpu().IntReg(3)), -3);
  EXPECT_EQ(static_cast<std::int64_t>(vm.cpu().IntReg(4)), -1);
  EXPECT_EQ(vm.cpu().IntReg(5), (~std::uint64_t{0} - 6) / 2);
}

TEST(Exec, Shifts) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), -8);
    b.ShlI(R(2), R(1), 2);
    b.ShrI(R(3), R(1), 2);
    b.SarI(R(4), R(1), 2);
    b.MovI(R(5), 1);
    b.MovI(R(6), 65);          // shift amounts wrap mod 64
    b.Shl(R(8), R(5), R(6));   // (r7 is the syscall-number register)
  });
  EXPECT_EQ(static_cast<std::int64_t>(vm.cpu().IntReg(2)), -32);
  EXPECT_EQ(vm.cpu().IntReg(3), static_cast<std::uint64_t>(-8) >> 2);
  EXPECT_EQ(static_cast<std::int64_t>(vm.cpu().IntReg(4)), -2);
  EXPECT_EQ(vm.cpu().IntReg(8), 2u);
}

TEST(Exec, NotNeg) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), 5);
    b.Not(R(2), R(1));
    b.Neg(R(3), R(1));
  });
  EXPECT_EQ(vm.cpu().IntReg(2), ~5ull);
  EXPECT_EQ(static_cast<std::int64_t>(vm.cpu().IntReg(3)), -5);
}

TEST(Exec, LoadStoreSignExtension) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    const GuestAddr buf = b.Bss("buf", 16);
    b.MovI(R(1), static_cast<std::int64_t>(buf));
    b.MovI(R(2), 0xff80);
    b.St(R(1), 0, R(2), MemSize::k2);
    b.Ld(R(3), R(1), 0, MemSize::k2);    // zero-extend
    b.LdS(R(4), R(1), 0, MemSize::k2);   // sign-extend
    b.LdS(R(5), R(1), 1, MemSize::k1);   // 0xff -> -1
  });
  EXPECT_EQ(vm.cpu().IntReg(3), 0xff80u);
  EXPECT_EQ(static_cast<std::int64_t>(vm.cpu().IntReg(4)), -128);
  EXPECT_EQ(static_cast<std::int64_t>(vm.cpu().IntReg(5)), -1);
}

TEST(Exec, PushPopStackDiscipline) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), 111);
    b.MovI(R(2), 222);
    b.Push(R(1));
    b.Push(R(2));
    b.Pop(R(3));
    b.Pop(R(4));
  });
  EXPECT_EQ(vm.cpu().IntReg(3), 222u);
  EXPECT_EQ(vm.cpu().IntReg(4), 111u);
}

TEST(Exec, CallRetRoundTrip) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    auto fn = b.NewLabel("fn");
    auto after = b.NewLabel("after");
    b.Call(fn);
    b.Jmp(after);
    b.Bind(fn);
    b.MovI(R(8), 99);  // (r1 is clobbered by the Exit convention)
    b.Ret();
    b.Bind(after);
    b.MovI(R(9), 1);
  });
  EXPECT_EQ(vm.cpu().IntReg(8), 99u);
  EXPECT_EQ(vm.cpu().IntReg(9), 1u);
}

TEST(Exec, IndirectCall) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    auto fn = b.NewLabel("fn");
    auto after = b.NewLabel("after");
    b.MovILabel(R(5), fn);
    b.CallR(R(5));
    b.Jmp(after);
    b.Bind(fn);
    b.MovI(R(8), 7);
    b.Ret();
    b.Bind(after);
    b.Nop();
  });
  EXPECT_EQ(vm.cpu().IntReg(8), 7u);
}

TEST(Exec, FpArithmetic) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.FmovI(F(1), 1.5);
    b.FmovI(F(2), 2.0);
    b.Fadd(F(3), F(1), F(2));
    b.Fsub(F(4), F(1), F(2));
    b.Fmul(F(5), F(1), F(2));
    b.Fdiv(F(6), F(1), F(2));
    b.Fneg(F(7), F(1));
    b.Fabs(F(8), F(7));
    b.FmovI(F(9), 9.0);
    b.Fsqrt(F(9), F(9));
    b.Fmin(F(10), F(1), F(2));
    b.Fmax(F(11), F(1), F(2));
  });
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(3), 3.5);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(4), -0.5);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(5), 3.0);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(6), 0.75);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(7), -1.5);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(8), 1.5);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(9), 3.0);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(10), 1.5);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(11), 2.0);
}

TEST(Exec, FpMemoryAndConversions) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    const GuestAddr buf = b.Bss("buf", 16);
    b.MovI(R(1), static_cast<std::int64_t>(buf));
    b.FmovI(F(0), 2.75);
    b.Fst(R(1), 0, F(0));
    b.Fld(F(1), R(1), 0);
    b.CvtFI(R(2), F(1));        // trunc(2.75) = 2
    b.MovI(R(3), -3);
    b.CvtIF(F(2), R(3));        // -3.0
    b.Fbits(R(4), F(0));
    b.BitsF(F(3), R(4));
  });
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(1), 2.75);
  EXPECT_EQ(static_cast<std::int64_t>(vm.cpu().IntReg(2)), 2);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(2), -3.0);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(3), 2.75);
}

TEST(Exec, BranchConditions) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), 5);
    b.CmpI(R(1), 5);
    auto eq_taken = b.NewLabel();
    b.Br(Cond::kEq, eq_taken);
    b.MovI(R(2), 111);  // skipped
    b.Bind(eq_taken);
    b.CmpI(R(1), 9);
    auto lt_taken = b.NewLabel();
    b.Br(Cond::kLt, lt_taken);
    b.MovI(R(3), 111);  // skipped
    b.Bind(lt_taken);
    b.MovI(R(4), 1);
  });
  EXPECT_EQ(vm.cpu().IntReg(2), 0u);
  EXPECT_EQ(vm.cpu().IntReg(3), 0u);
  EXPECT_EQ(vm.cpu().IntReg(4), 1u);
}

// ---- Guest signals ----------------------------------------------------------------

TEST(Signals, DivideByZeroRaisesFpe) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), 1);
    b.MovI(R(2), 0);
    b.DivS(R(3), R(1), R(2));
  });
  EXPECT_EQ(vm.termination(), TerminationKind::kSignaled);
  EXPECT_EQ(vm.signal(), GuestSignal::kFpe);
}

TEST(Signals, DivisionOverflowRaisesFpe) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), INT64_MIN);
    b.MovI(R(2), -1);
    b.DivS(R(3), R(1), R(2));
  });
  EXPECT_EQ(vm.signal(), GuestSignal::kFpe);
}

TEST(Signals, WildLoadRaisesSegv) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), 0x500000000000);
    b.Ld(R(2), R(1), 0);
  });
  EXPECT_EQ(vm.termination(), TerminationKind::kSignaled);
  EXPECT_EQ(vm.signal(), GuestSignal::kSegv);
  EXPECT_NE(vm.termination_message().find("load fault"), std::string::npos);
}

TEST(Signals, WildJumpRaisesSegv) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), 1'000'000);
    b.CallR(R(1));
  });
  EXPECT_EQ(vm.signal(), GuestSignal::kSegv);
}

TEST(Signals, HaltRaisesIll) {
  Vm vm = RunProgram([](ProgramBuilder& b) { b.Halt(); });
  EXPECT_EQ(vm.signal(), GuestSignal::kIll);
}

TEST(Signals, UnknownSyscallRaisesSys) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(7), 9999);
    b.Syscall();
  });
  EXPECT_EQ(vm.signal(), GuestSignal::kSys);
}

TEST(Signals, AbortSyscall) {
  Vm vm = RunProgram([](ProgramBuilder& b) { b.Sys(Sys::kAbort); });
  EXPECT_EQ(vm.signal(), GuestSignal::kAbort);
}

TEST(Signals, AssertFailTerminatesWithKind) {
  Vm vm = RunProgram([](ProgramBuilder& b) { b.AssertFail(42); });
  EXPECT_EQ(vm.termination(), TerminationKind::kAssertFailed);
  EXPECT_NE(vm.termination_message().find("42"), std::string::npos);
}

TEST(Signals, WatchdogKillsHungRun) {
  ProgramBuilder b("hang");
  auto loop = b.Here("loop");
  b.Jmp(loop);
  const guest::Program p = b.Finalize();
  Vm::Config config;
  config.max_instructions = 10'000;
  Vm vm(config);
  vm.StartProcess(p);
  vm.RunToCompletion();
  EXPECT_EQ(vm.signal(), GuestSignal::kKill);
}

// ---- OS services ----------------------------------------------------------------

TEST(Os, WriteCapturesOutputPerFd) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    const GuestAddr msg = b.DataString("msg", "hello");
    b.MovI(R(4), static_cast<std::int64_t>(msg));
    b.MovI(R(5), 5);
    b.Write(1, R(4), R(5));
    b.MovI(R(4), static_cast<std::int64_t>(msg));
    b.MovI(R(5), 4);
    b.Write(3, R(4), R(5));
  });
  EXPECT_EQ(vm.output(1), "hello");
  EXPECT_EQ(vm.output(3), "hell");
  EXPECT_EQ(vm.output(7), "");
}

TEST(Os, WriteBadBufferSegfaults) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(4), 0x123);  // unmapped
    b.MovI(R(5), 8);
    b.Write(1, R(4), R(5));
  });
  EXPECT_EQ(vm.signal(), GuestSignal::kSegv);
}

TEST(Os, WriteInsaneLengthSegfaults) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    const GuestAddr msg = b.DataString("m", "x");
    b.MovI(R(4), static_cast<std::int64_t>(msg));
    b.MovI(R(5), 1ll << 40);
    b.Write(1, R(4), R(5));
  });
  EXPECT_EQ(vm.signal(), GuestSignal::kSegv);
}

TEST(Os, BrkGrowsHeap) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), 4096);
    b.Sys(Sys::kBrk);
    b.Mov(R(8), R(0));   // old break
    b.MovI(R(2), 77);
    b.St(R(8), 0, R(2)); // write into the new heap page
    b.Ld(R(9), R(8), 0);
  });
  EXPECT_EQ(vm.cpu().IntReg(8), guest::kHeapBase);
  EXPECT_EQ(vm.cpu().IntReg(9), 77u);
}

TEST(Os, BrkGrowsUpToTheStackButNeverIntoIt) {
  constexpr GuestAddr kStackBase = guest::kStackTop - guest::kDefaultStackBytes;
  constexpr std::uint64_t kGiB = 1ull << 30;
  Vm vm = RunProgram([&](ProgramBuilder& b) {
    b.MovI(R(1), static_cast<std::int64_t>(kGiB));
    b.Sys(Sys::kBrk);
    b.MovI(R(1), static_cast<std::int64_t>(kStackBase - guest::kHeapBase - kGiB));
    b.Sys(Sys::kBrk);  // the break now sits exactly at the stack base
    b.MovI(R(2), 77);
    b.MovI(R(8), static_cast<std::int64_t>(kStackBase - 8));
    b.St(R(8), 0, R(2));  // last heap word
    b.MovI(R(8), static_cast<std::int64_t>(kStackBase));
    b.Ld(R(9), R(8), 0);  // first stack word: untouched by the heap store
    b.MovI(R(1), 1);
    b.Sys(Sys::kBrk);  // one more byte would reach into the stack
  });
  EXPECT_EQ(vm.cpu().IntReg(9), 0u);
  EXPECT_EQ(vm.signal(), GuestSignal::kSegv);
  EXPECT_EQ(vm.termination_message(), "brk: out of guest memory");
  EXPECT_NE(*vm.memory().Translate(kStackBase - 1) >> kPageBits,
            *vm.memory().Translate(kStackBase) >> kPageBits);
}

TEST(Os, MaximalBrkBacksNoPages) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), static_cast<std::int64_t>(1ull << 30));
    b.Sys(Sys::kBrk);
  });
  ASSERT_EQ(vm.termination(), TerminationKind::kExited);
  const std::uint64_t heap_pages = (1ull << 30) / kPageSize;
  EXPECT_GE(vm.memory().mapped_pages(), heap_pages);
  // Only what the program touched (stack top, nothing of the heap).
  EXPECT_LT(vm.memory().backed_pages(), 8u);
}

TEST(Os, InstretSyscallCounts) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.Sys(Sys::kInstret);
    b.Mov(R(8), R(0));
  });
  EXPECT_GT(vm.cpu().IntReg(8), 0u);
  EXPECT_LT(vm.cpu().IntReg(8), 10u);
}

TEST(Os, ExitCodePropagates) {
  Vm vm = RunProgram([](ProgramBuilder& b) { b.Exit(42); });
  EXPECT_EQ(vm.termination(), TerminationKind::kExited);
  // RunProgram appends its own Exit(0), but the first exit wins.
  EXPECT_EQ(vm.exit_code(), 42);
}

// ---- VMI events -------------------------------------------------------------------

TEST(Vmi, ProcessCreateAndExitCallbacks) {
  ProgramBuilder b("target_app");
  b.Exit(0);
  const guest::Program p = b.Finalize();
  Vm vm;
  std::string created, exited;
  Pid created_pid = kInvalidPid;
  vm.set_on_process_create([&](Vm&, Pid pid, const std::string& name) {
    created = name;
    created_pid = pid;
  });
  vm.set_on_process_exit([&](Vm&, Pid, const std::string& name) { exited = name; });
  vm.StartProcess(p);
  EXPECT_EQ(created, "target_app");
  EXPECT_NE(created_pid, kInvalidPid);
  vm.RunToCompletion();
  EXPECT_EQ(exited, "target_app");
}

TEST(Vmi, PidAdvancesPerProcess) {
  ProgramBuilder b("a");
  b.Exit(0);
  const guest::Program p = b.Finalize();
  Vm vm;
  const Pid p1 = vm.StartProcess(p);
  vm.RunToCompletion();
  const Pid p2 = vm.StartProcess(p);
  EXPECT_NE(p1, p2);
}

// ---- TB cache --------------------------------------------------------------------

TEST(TbCache, TranslationsCachedAcrossLoopIterations) {
  ProgramBuilder b("loop");
  b.MovI(R(1), 0);
  auto loop = b.Here("loop");
  b.AddI(R(1), R(1), 1);
  b.CmpI(R(1), 100);
  b.Br(Cond::kLt, loop);
  b.Exit(0);
  const guest::Program p = b.Finalize();
  Vm vm;
  vm.StartProcess(p);
  vm.RunToCompletion();
  // 100 iterations but only a handful of distinct TBs.
  EXPECT_LT(vm.tb_translations(), 10u);
  EXPECT_GT(vm.tb_executions(), 99u);
}

TEST(TbCache, FlushForcesRetranslation) {
  ProgramBuilder b("loop");
  b.MovI(R(1), 0);
  auto loop = b.Here("loop");
  b.AddI(R(1), R(1), 1);
  b.CmpI(R(1), 1000);
  b.Br(Cond::kLt, loop);
  b.Exit(0);
  const guest::Program p = b.Finalize();
  Vm vm;
  vm.StartProcess(p);
  vm.Run(50);
  const std::uint64_t before = vm.tb_translations();
  vm.FlushTbCache();
  vm.Run(50);
  EXPECT_GT(vm.tb_translations(), before);
}

TEST(TbCache, SemanticsUnchangedByFlushEveryQuantum) {
  ProgramBuilder b("loop");
  b.MovI(R(1), 0);
  auto loop = b.Here("loop");
  b.AddI(R(1), R(1), 3);
  b.CmpI(R(1), 3000);
  b.Br(Cond::kLt, loop);
  b.Mov(R(8), R(1));
  b.Exit(0);
  const guest::Program p = b.Finalize();

  Vm plain;
  plain.StartProcess(p);
  plain.RunToCompletion();

  Vm flushy;
  flushy.StartProcess(p);
  while (flushy.run_state() == RunState::kRunnable) {
    flushy.Run(17);
    flushy.FlushTbCache();
  }
  EXPECT_EQ(plain.cpu().IntReg(8), flushy.cpu().IntReg(8));
  EXPECT_EQ(plain.instret(), flushy.instret());
}

// ---- Checkpoints ------------------------------------------------------------------

/// A loop that mixes stores, loads, a heap grab and output, so a checkpoint
/// mid-run has backed pages, TB chains, TLB traffic and captured output.
guest::Program CheckpointProgram() {
  ProgramBuilder b("ckpt");
  const GuestAddr buf = b.Bss("buf", 64 * 1024);
  b.MovI(R(1), 8192);
  b.Sys(Sys::kBrk);
  b.Mov(R(10), R(0));  // heap base
  b.MovI(R(1), 0);
  auto loop = b.Here("loop");
  b.MovI(R(4), static_cast<std::int64_t>(buf));
  b.Add(R(4), R(4), R(1));
  b.St(R(4), 0, R(1));
  b.Ld(R(5), R(4), 0);
  b.St(R(10), 0, R(5));
  b.AddI(R(1), R(1), 520);
  b.CmpI(R(1), 60000);
  b.Br(Cond::kLt, loop);
  b.MovI(R(5), 8);
  b.Write(1, R(10), R(5));
  b.Exit(0);
  return b.Finalize();
}

TEST(Checkpoint, RestoredRunFinishesExactlyLikeTheOriginal) {
  const guest::Program p = CheckpointProgram();
  tcg::SharedTbCache cache;
  Vm::Config config;
  config.shared_cache = &cache;
  Vm original(config);
  original.StartProcess(p);
  original.Run(300);
  Vm::Checkpoint cp;
  ASSERT_TRUE(original.SaveCheckpoint(&cp));
  EXPECT_GT(cp.memory.page_frame.size(), 0u);
  EXPECT_GT(cp.tbs.size(), 0u);
  original.RunToCompletion();

  Vm restored(config);
  restored.StartProcess(p);
  restored.RestoreCheckpoint(cp);
  restored.RunToCompletion();
  EXPECT_EQ(restored.termination(), TerminationKind::kExited);
  EXPECT_EQ(restored.output(1), original.output(1));
  EXPECT_EQ(restored.instret(), original.instret());
  EXPECT_EQ(restored.tb_chain_hits(), original.tb_chain_hits());
  EXPECT_EQ(restored.tlb_hits(), original.tlb_hits());
  EXPECT_EQ(restored.tlb_misses(), original.tlb_misses());
  EXPECT_EQ(restored.cpu().env, original.cpu().env);
}

TEST(Checkpoint, OwnedTranslationsCannotBeCheckpointed) {
  Vm vm;  // no shared cache: every TB is owned by the VM
  vm.StartProcess(CheckpointProgram());
  vm.Run(300);
  Vm::Checkpoint cp;
  EXPECT_FALSE(vm.SaveCheckpoint(&cp));
}

TEST(Checkpoint, TaintRefusesCapture) {
  tcg::SharedTbCache cache;
  Vm::Config config;
  config.shared_cache = &cache;
  Vm vm(config);
  vm.StartProcess(CheckpointProgram());
  vm.Run(300);
  vm.taint().set_enabled(true);
  vm.taint().TaintSourceRegister(tcg::EnvInt(3), 1);
  Vm::Checkpoint cp;
  EXPECT_THROW(vm.SaveCheckpoint(&cp), std::logic_error);
}

}  // namespace
}  // namespace chaser::vm
