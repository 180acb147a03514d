// Perf-subsystem tests (label "perf"): the shared cross-trial translation
// cache, the flat software TLB, per-epoch translation stats, the TB cap, and
// the identity matrix — campaigns must produce byte-identical reports and
// records across {serial, parallel} x {driver-owned, external cache}.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.h"
#include "campaign/campaign.h"
#include "campaign/report.h"
#include "guest/builder.h"
#include "tcg/shared_cache.h"
#include "vm/memory.h"
#include "vm/vm.h"

namespace chaser {
namespace {

using campaign::Campaign;
using campaign::CampaignConfig;
using campaign::CampaignResult;
using guest::Cond;
using guest::F;
using guest::ProgramBuilder;
using guest::R;
using tcg::SharedTbCache;

// ---- SharedTbCache unit behaviour -----------------------------------------

guest::Program TinyProgram(const char* name, std::int64_t value) {
  ProgramBuilder b(name);
  b.MovI(R(1), value);
  b.Exit(0);
  return b.Finalize();
}

tcg::TranslationBlock FakeTb(std::uint64_t pc, std::uint32_t insns) {
  tcg::TranslationBlock tb;
  tb.start_pc = pc;
  tb.num_insns = insns;
  tb.ops.resize(1);
  tb.ops[0].opc = tcg::TcgOpc::kGotoTb;
  tb.ops[0].imm = pc + insns;
  return tb;
}

TEST(SharedTbCache, InsertThenLookupReturnsCanonicalPointer) {
  SharedTbCache cache;
  const SharedTbCache::Key key{1, 2, 3};
  EXPECT_EQ(cache.Lookup(key), nullptr);

  const tcg::TranslationBlock* canon = cache.Insert(key, FakeTb(3, 4));
  ASSERT_NE(canon, nullptr);
  EXPECT_EQ(canon->num_insns, 4u);
  EXPECT_EQ(cache.Lookup(key), canon);

  // A duplicate insert (racing-winner semantics) returns the first TB.
  EXPECT_EQ(cache.Insert(key, FakeTb(3, 9)), canon);
  EXPECT_EQ(cache.Lookup(key)->num_insns, 4u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedTbCache, KeysAreFullIdentityNotJustPc) {
  SharedTbCache cache;
  const tcg::TranslationBlock* a = cache.Insert({1, 1, 7}, FakeTb(7, 1));
  const tcg::TranslationBlock* b = cache.Insert({1, 2, 7}, FakeTb(7, 2));
  const tcg::TranslationBlock* c = cache.Insert({2, 1, 7}, FakeTb(7, 3));
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(cache.Lookup({1, 1, 7}), a);
  EXPECT_EQ(cache.Lookup({1, 2, 7}), b);
  EXPECT_EQ(cache.Lookup({2, 1, 7}), c);
  EXPECT_EQ(cache.Lookup({2, 2, 7}), nullptr);
}

TEST(SharedTbCache, FlushIsLogicalInvalidation) {
  SharedTbCache cache;
  const SharedTbCache::Key key{1, 1, 0};
  const tcg::TranslationBlock* tb = cache.Insert(key, FakeTb(0, 5));
  cache.Flush();
  // Old epoch no longer matches...
  EXPECT_EQ(cache.Lookup(key), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  // ...but the retired TB is still readable (no reader can see a free).
  EXPECT_EQ(tb->num_insns, 5u);
  const SharedTbCache::Stats s = cache.stats();
  EXPECT_EQ(s.epoch_flushes, 1u);
  EXPECT_EQ(s.evicted_tbs, 1u);
  // Reinsert into the new epoch works.
  EXPECT_NE(cache.Insert(key, FakeTb(0, 6)), nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedTbCache, CapOverflowFlushesWholeCache) {
  SharedTbCache cache(/*max_tbs=*/4);
  for (std::uint64_t pc = 0; pc < 4; ++pc) {
    cache.Insert({1, 1, pc}, FakeTb(pc, 1));
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().epoch_flushes, 0u);

  // The fifth TB overflows the cap: QEMU semantics are a full flush, then
  // the new TB lands alone in a fresh epoch.
  cache.Insert({1, 1, 99}, FakeTb(99, 1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Lookup({1, 1, 99}), nullptr);
  EXPECT_EQ(cache.Lookup({1, 1, 0}), nullptr);
  const SharedTbCache::Stats s = cache.stats();
  EXPECT_EQ(s.epoch_flushes, 1u);
  EXPECT_EQ(s.evicted_tbs, 4u);
  EXPECT_EQ(s.translations, 5u);
}

TEST(SharedTbCache, HashProgramDistinguishesImages) {
  const std::uint64_t a = SharedTbCache::HashProgram(TinyProgram("a", 1));
  const std::uint64_t a2 = SharedTbCache::HashProgram(TinyProgram("a", 1));
  const std::uint64_t b = SharedTbCache::HashProgram(TinyProgram("a", 2));
  const std::uint64_t c = SharedTbCache::HashProgram(TinyProgram("c", 1));
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

// Concurrency: many threads doing lookup-or-insert on an overlapping key
// space must agree on one canonical TB per key. Run under `ctest -L tsan`
// this doubles as the data-race proof for the lock-free read path.
TEST(SharedTbCache, ConcurrentLookupOrInsertConverges) {
  SharedTbCache cache;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 64;
  std::vector<std::vector<const tcg::TranslationBlock*>> seen(
      kThreads, std::vector<const tcg::TranslationBlock*>(kKeys, nullptr));

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &seen, t] {
      for (std::uint64_t round = 0; round < 4; ++round) {
        for (std::uint64_t pc = 0; pc < kKeys; ++pc) {
          const SharedTbCache::Key key{7, 1, pc};
          const tcg::TranslationBlock* tb = cache.Lookup(key);
          if (tb == nullptr) {
            tb = cache.Insert(key, FakeTb(pc, static_cast<std::uint32_t>(pc + 1)));
          }
          ASSERT_NE(tb, nullptr);
          ASSERT_EQ(tb->start_pc, pc);
          seen[t][pc] = tb;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (std::uint64_t pc = 0; pc < kKeys; ++pc) {
    const tcg::TranslationBlock* canon = cache.Lookup({7, 1, pc});
    ASSERT_NE(canon, nullptr);
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][pc], canon) << "thread " << t << " pc " << pc;
    }
  }
  EXPECT_EQ(cache.size(), kKeys);
}

// ---- Flat software TLB ----------------------------------------------------

TEST(MemoryTlb, HitsAfterFirstTouchAndCountsThem) {
  vm::GuestMemory mem;
  mem.MapRegion(0x1000, vm::kPageSize);
  ASSERT_TRUE(mem.Translate(0x1000).has_value());  // miss fills the slot
  const std::uint64_t misses_after_fill = mem.tlb_misses();
  EXPECT_GE(misses_after_fill, 1u);

  const std::uint64_t hits_before = mem.tlb_hits();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(mem.Translate(0x1000 + i * 8).has_value());
  }
  EXPECT_EQ(mem.tlb_hits(), hits_before + 10);
  EXPECT_EQ(mem.tlb_misses(), misses_after_fill);  // same page: no new miss
}

TEST(MemoryTlb, NeverCachesUnmappedPages) {
  vm::GuestMemory mem;
  mem.MapRegion(0x1000, vm::kPageSize);
  EXPECT_FALSE(mem.Translate(0x100000).has_value());
  EXPECT_FALSE(mem.Translate(0x100000).has_value());  // still a fault
  // Mapping the page afterwards makes it visible (no stale negative entry).
  mem.MapRegion(0x100000, vm::kPageSize);
  EXPECT_TRUE(mem.Translate(0x100000).has_value());
}

TEST(MemoryTlb, AliasedSlotsEvictEachOtherCorrectly) {
  vm::GuestMemory mem;
  // Two pages 256 pages apart land in the same direct-mapped slot.
  const GuestAddr a = 0x10000;
  const GuestAddr b = a + 256 * vm::kPageSize;
  mem.MapRegion(a, vm::kPageSize);
  mem.MapRegion(b, vm::kPageSize);
  ASSERT_TRUE(mem.WriteBytes(a, "A", 1));
  ASSERT_TRUE(mem.WriteBytes(b, "B", 1));
  // Ping-pong between the aliases: every access must still translate to the
  // right frame even though each evicts the other's entry.
  for (int i = 0; i < 8; ++i) {
    char ca = 0, cb = 0;
    ASSERT_TRUE(mem.ReadBytes(a, &ca, 1));
    ASSERT_TRUE(mem.ReadBytes(b, &cb, 1));
    EXPECT_EQ(ca, 'A');
    EXPECT_EQ(cb, 'B');
  }
}

TEST(MemoryTlb, DisabledMatchesEnabledResults) {
  // "Disabled" = FlushTlb() before every access, so each access walks the
  // page table: the reference the TLB must agree with.
  auto probe = [](bool walk_tables) -> std::uint64_t {
    vm::GuestMemory mem;
    mem.MapRegion(0x2000, 4 * vm::kPageSize);
    std::uint64_t sum = 0;
    for (int i = 0; i < 64; ++i) {
      PhysAddr paddr = 0;
      if (walk_tables) mem.FlushTlb();
      if (!mem.Store(0x2000 + i * 8, 8, i * 31, &paddr)) return ~0ull;
      if (walk_tables) mem.FlushTlb();
      const auto loaded = mem.Load(0x2000 + i * 8, 8, &paddr);
      if (!loaded) return ~0ull;
      sum += *loaded;
    }
    return sum;
  };
  EXPECT_EQ(probe(false), probe(true));
}

// ---- Per-epoch translation stats (satellite: breakdown + reset) -----------

guest::Program LoopProgram() {
  ProgramBuilder b("loop");
  b.MovI(R(1), 0);
  auto loop = b.Here("loop");
  b.AddI(R(1), R(1), 1);
  b.CmpI(R(1), 500);
  b.Br(Cond::kLt, loop);
  b.Exit(0);
  return b.Finalize();
}

TEST(TranslationEpochs, FlushClosesAnEpochAndResetZeroes) {
  // Epoch history is per-process (StartProcess clears it), so flush *mid*
  // process — exactly what Chaser's attach/detach retranslation does.
  vm::Vm vm;
  vm.StartProcess(LoopProgram());
  ASSERT_EQ(vm.Run(50), vm::RunState::kRunnable);

  auto epochs = vm.translation_epochs();
  ASSERT_EQ(epochs.size(), 1u);
  EXPECT_GT(epochs[0].translations, 0u);
  EXPECT_GT(epochs[0].optimizer.movs_forwarded, 0u);
  const std::uint64_t first_translations = epochs[0].translations;

  // The flush closes epoch 0; continuing retranslates into epoch 1 and the
  // closed epoch's numbers must not change.
  vm.FlushTbCache();
  vm.RunToCompletion();
  epochs = vm.translation_epochs();
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs[0].translations, first_translations);
  EXPECT_GT(epochs[1].translations, 0u);
  EXPECT_EQ(vm.tb_translations(),
            epochs[0].translations + epochs[1].translations);

  // Reset drops the history and the lifetime totals together.
  vm.ResetTranslationStats();
  epochs = vm.translation_epochs();
  ASSERT_EQ(epochs.size(), 1u);
  EXPECT_EQ(epochs[0].translations, 0u);
  EXPECT_EQ(vm.tb_translations(), 0u);
  EXPECT_EQ(vm.optimizer_stats().movs_forwarded, 0u);
  EXPECT_EQ(vm.shared_tb_reuses(), 0u);
  EXPECT_EQ(vm.tb_evictions(), 0u);
}

// ---- Local TB cap (satellite: bounded cache, flush-on-overflow) -----------

TEST(TbCap, OverflowFlushesAndCountsEvictionsWithoutChangingResults) {
  auto run = [](std::uint64_t cap) {
    vm::Vm::Config config;
    config.max_cached_tbs = cap;
    vm::Vm vm(config);
    vm.StartProcess(LoopProgram());
    vm.RunToCompletion();
    return std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>(
        vm.cpu().IntReg(1), vm.instret(), vm.tb_evictions());
  };
  const auto [r1_uncapped, instret_uncapped, ev_uncapped] = run(0);
  const auto [r1_capped, instret_capped, ev_capped] = run(1);
  EXPECT_EQ(ev_uncapped, 0u);
  EXPECT_GT(ev_capped, 0u);  // >1 live TB against a cap of 1
  EXPECT_EQ(r1_capped, r1_uncapped);
  EXPECT_EQ(instret_capped, instret_uncapped);
}

// ---- The identity matrix --------------------------------------------------

/// Steerable single-process app: `iters` fadds accumulating into memory,
/// result written to fd 3 (same shape the campaign tests use).
apps::AppSpec AccumulatorApp(std::uint64_t iters = 40) {
  ProgramBuilder b("accum");
  const GuestAddr out = b.Bss("out", 8);
  b.FmovI(F(0), 0.0);
  b.FmovI(F(1), 1.0);
  b.MovI(R(1), 0);
  auto loop = b.Here("loop");
  b.Fadd(F(0), F(0), F(1));
  b.AddI(R(1), R(1), 1);
  b.CmpI(R(1), static_cast<std::int64_t>(iters));
  b.Br(Cond::kLt, loop);
  b.MovI(R(9), static_cast<std::int64_t>(out));
  b.Fst(R(9), 0, F(0));
  b.MovI(R(4), static_cast<std::int64_t>(out));
  b.MovI(R(5), 8);
  b.Write(3, R(4), R(5));
  b.Exit(0);
  apps::AppSpec spec;
  spec.name = "accum";
  spec.program = b.Finalize();
  spec.num_ranks = 1;
  spec.fault_classes = {guest::InstrClass::kFadd};
  return spec;
}

/// Render + records CSV: one string capturing everything user-visible.
std::string Fingerprint(const CampaignResult& result) {
  std::ostringstream csv;
  campaign::WriteRecordsCsv(result.records, csv);
  return result.Render("matrix") + "\n" + csv.str();
}

CampaignConfig MatrixConfig() {
  CampaignConfig config;
  config.runs = 12;
  config.seed = 99;
  config.retry_backoff_ms = 0;
  return config;
}

// Every cell of {jobs 1, jobs 3} x {campaign-owned cache, external cache}
// must be byte-identical: where translations live is transparent and every
// worker count commits the same seed sequence.
TEST(IdentityMatrix, AllCellsByteIdentical) {
  const apps::AppSpec spec = AccumulatorApp();

  Campaign baseline(spec, MatrixConfig());
  const std::string want = Fingerprint(baseline.Run());
  EXPECT_NE(want.find("matrix"), std::string::npos);

  for (const unsigned jobs : {1u, 3u}) {
    for (const bool external : {false, true}) {
      SharedTbCache cache;
      CampaignConfig config = MatrixConfig();
      if (external) config.shared_tb_cache = &cache;
      Campaign c(spec, config, jobs);
      EXPECT_EQ(c.shared_tb_cache() == &cache, external);
      EXPECT_EQ(Fingerprint(c.Run()), want)
          << "jobs=" << jobs << " external=" << external;
    }
  }
}

// The shared cache must actually be shared: across a campaign's trials the
// same pc is translated once, not once per trial.
TEST(IdentityMatrix, SharedCacheIsActuallyReused) {
  const apps::AppSpec spec = AccumulatorApp();
  SharedTbCache cache;
  CampaignConfig config = MatrixConfig();
  config.shared_tb_cache = &cache;
  Campaign c(spec, config);
  c.Run();
  const SharedTbCache::Stats s = cache.stats();
  EXPECT_GT(s.translations, 0u);
  EXPECT_GT(s.reuses, s.translations);  // many trials, one translation each
}

}  // namespace
}  // namespace chaser
