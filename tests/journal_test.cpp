// Tests for src/campaign/journal: the crash-safe trial journal must survive
// truncation at any byte and random bit rot by recovering the intact record
// prefix, and resuming a campaign from it — serial or parallel — must
// reproduce the uninterrupted report byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app.h"
#include "campaign/campaign.h"
#include "campaign/journal.h"
#include "campaign/report.h"
#include "common/error.h"
#include "common/rng.h"
#include "guest/builder.h"

namespace chaser::campaign {
namespace {

namespace fs = std::filesystem;

using guest::Cond;
using guest::F;
using guest::ProgramBuilder;
using guest::R;

std::string TempPath(const std::string& name) {
  const std::string path =
      (fs::temp_directory_path() / ("chaser_journal_test_" + name)).string();
  fs::remove_all(path);
  return path;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A spread of records covering every encoder path: zero everything, signed
/// ranks, all flags, huge counters, and a quarantined infra record with
/// free-form exception text.
std::vector<RunRecord> SampleRecords() {
  std::vector<RunRecord> recs;
  {
    RunRecord r;
    r.run_seed = 1;
    recs.push_back(r);
  }
  {
    RunRecord r;
    r.run_seed = 0xFFFFFFFFFFFFFFFFull;
    r.outcome = Outcome::kTerminated;
    r.kind = vm::TerminationKind::kSignaled;
    r.signal = vm::GuestSignal::kSegv;
    r.inject_rank = 3;
    r.failure_rank = -1;
    r.deadlock = true;
    r.propagated_cross_rank = true;
    r.propagated_cross_node = true;
    r.injections = 2;
    r.tainted_reads = 123456789;
    r.tainted_writes = 987654321;
    r.peak_tainted_bytes = 1 << 20;
    r.tainted_output_bytes = 4096;
    r.trigger_nth = 777;
    r.flip_bits = 64;
    r.instructions = 0x123456789ABCDEFull;
    r.trace_dropped = 42;
    r.taint_lost = 7;
    r.retries = 2;
    recs.push_back(r);
  }
  {
    RunRecord r;
    r.run_seed = 555;
    r.outcome = Outcome::kSdc;
    r.tainted_output_bytes = 16;
    // A sampled-campaign record: the v3 fields must survive the round trip
    // bit-exactly (resume feeds the estimator this very weight).
    r.inject_pc = 0xABCDEFull;
    r.inject_class = guest::InstrClass::kFmul;
    r.sample_weight = 1.0 / 3.0;
    recs.push_back(r);
  }
  {
    RunRecord r;
    r.run_seed = 999;
    r.outcome = Outcome::kInfra;
    r.retries = 3;
    r.infra_error = "TrialEngine: simulated device failure, attempt 4";
    recs.push_back(r);
  }
  return recs;
}

void ExpectRecordEq(const RunRecord& a, const RunRecord& b, std::size_t i) {
  EXPECT_EQ(a.run_seed, b.run_seed) << "record " << i;
  EXPECT_EQ(a.outcome, b.outcome) << "record " << i;
  EXPECT_EQ(a.kind, b.kind) << "record " << i;
  EXPECT_EQ(a.signal, b.signal) << "record " << i;
  EXPECT_EQ(a.inject_rank, b.inject_rank) << "record " << i;
  EXPECT_EQ(a.failure_rank, b.failure_rank) << "record " << i;
  EXPECT_EQ(a.deadlock, b.deadlock) << "record " << i;
  EXPECT_EQ(a.propagated_cross_rank, b.propagated_cross_rank) << "record " << i;
  EXPECT_EQ(a.propagated_cross_node, b.propagated_cross_node) << "record " << i;
  EXPECT_EQ(a.injections, b.injections) << "record " << i;
  EXPECT_EQ(a.tainted_reads, b.tainted_reads) << "record " << i;
  EXPECT_EQ(a.tainted_writes, b.tainted_writes) << "record " << i;
  EXPECT_EQ(a.peak_tainted_bytes, b.peak_tainted_bytes) << "record " << i;
  EXPECT_EQ(a.tainted_output_bytes, b.tainted_output_bytes) << "record " << i;
  EXPECT_EQ(a.trigger_nth, b.trigger_nth) << "record " << i;
  EXPECT_EQ(a.flip_bits, b.flip_bits) << "record " << i;
  EXPECT_EQ(a.instructions, b.instructions) << "record " << i;
  EXPECT_EQ(a.trace_dropped, b.trace_dropped) << "record " << i;
  EXPECT_EQ(a.taint_lost, b.taint_lost) << "record " << i;
  EXPECT_EQ(a.retries, b.retries) << "record " << i;
  EXPECT_EQ(a.infra_error, b.infra_error) << "record " << i;
  EXPECT_EQ(a.inject_pc, b.inject_pc) << "record " << i;
  EXPECT_EQ(a.inject_class, b.inject_class) << "record " << i;
  EXPECT_EQ(a.sample_weight, b.sample_weight) << "record " << i;
}

// ---- Round trip --------------------------------------------------------------

TEST(Journal, AppendReadRoundTrip) {
  const std::string path = TempPath("roundtrip");
  const std::vector<RunRecord> recs = SampleRecords();
  {
    std::vector<RunRecord> replayed;
    TrialJournal journal(path, 42, "accum", &replayed);
    EXPECT_TRUE(replayed.empty());
    for (const RunRecord& r : recs) journal.Append(r);
    EXPECT_EQ(journal.appended(), recs.size());
  }
  const JournalContents contents = ReadJournal(path);
  EXPECT_EQ(contents.header.campaign_seed, 42u);
  EXPECT_EQ(contents.header.app, "accum");
  EXPECT_FALSE(contents.truncated);
  ASSERT_EQ(contents.records.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    ExpectRecordEq(recs[i], contents.records[i], i);
  }
  EXPECT_EQ(contents.valid_bytes, fs::file_size(path));
}

TEST(Journal, FreshJournalWritesCurrentVersionAndOldPayloadsStillDecode) {
  const std::string path = TempPath("version");
  {
    std::vector<RunRecord> replayed;
    TrialJournal journal(path, 7, "accum", &replayed);
    EXPECT_EQ(journal.version(), kJournalVersion);
  }
  EXPECT_EQ(ReadJournal(path).header.version, kJournalVersion);

  // A record encoded in the v2 layout must be shorter than the same record
  // in v3 (no sampling fields) — the layouts genuinely differ, and a v2
  // file keeps decoding with the sampling defaults (weight 1 = uniform).
  RunRecord rec;
  rec.run_seed = 5;
  rec.inject_pc = 999;
  rec.sample_weight = 2.5;
  const std::string v2 = EncodeJournalRecord(rec, 2);
  const std::string v3 = EncodeJournalRecord(rec, 3);
  EXPECT_LT(v2.size(), v3.size());
}

TEST(Journal, ReopenReplaysAndContinues) {
  const std::string path = TempPath("reopen");
  const std::vector<RunRecord> recs = SampleRecords();
  {
    std::vector<RunRecord> replayed;
    TrialJournal journal(path, 7, "accum", &replayed);
    journal.Append(recs[0]);
    journal.Append(recs[1]);
  }
  {
    std::vector<RunRecord> replayed;
    TrialJournal journal(path, 7, "accum", &replayed);
    ASSERT_EQ(replayed.size(), 2u);
    ExpectRecordEq(recs[0], replayed[0], 0);
    ExpectRecordEq(recs[1], replayed[1], 1);
    journal.Append(recs[2]);
  }
  const JournalContents contents = ReadJournal(path);
  EXPECT_FALSE(contents.truncated);
  ASSERT_EQ(contents.records.size(), 3u);
  ExpectRecordEq(recs[2], contents.records[2], 2);
}

TEST(Journal, MismatchedCampaignIdentityThrows) {
  const std::string path = TempPath("identity");
  {
    std::vector<RunRecord> replayed;
    TrialJournal journal(path, 42, "accum", &replayed);
    journal.Append(SampleRecords()[0]);
  }
  std::vector<RunRecord> replayed;
  EXPECT_THROW(TrialJournal(path, 43, "accum", &replayed), ConfigError);
  EXPECT_THROW(TrialJournal(path, 42, "matvec", &replayed), ConfigError);
}

TEST(Journal, NonJournalFileThrows) {
  const std::string path = TempPath("notjournal");
  WriteFileBytes(path, "run_seed,outcome,this is a csv not a journal\n");
  EXPECT_THROW(ReadJournal(path), ConfigError);
  std::vector<RunRecord> replayed;
  EXPECT_THROW(TrialJournal(path, 1, "accum", &replayed), ConfigError);
}

// ---- Crash discipline --------------------------------------------------------

TEST(Journal, TruncationAtEveryByteRecoversIntactPrefix) {
  const std::string path = TempPath("truncate_src");
  const std::vector<RunRecord> recs = SampleRecords();
  std::uint64_t header_end = 0;
  {
    std::vector<RunRecord> replayed;
    TrialJournal journal(path, 11, "accum", &replayed);
    header_end = fs::file_size(path);
    for (const RunRecord& r : recs) journal.Append(r);
  }
  const std::string full = ReadFileBytes(path);

  // Record where each intact prefix ends so expectations are exact.
  std::vector<std::uint64_t> frame_ends;
  {
    const std::string probe = TempPath("truncate_probe");
    for (std::size_t n = 1; n <= recs.size(); ++n) {
      std::vector<RunRecord> replayed;
      TrialJournal journal(probe, 11, "accum", &replayed);
      for (std::size_t i = 0; i < n; ++i) journal.Append(recs[i]);
      frame_ends.push_back(fs::file_size(probe));
      fs::remove(probe);
    }
  }

  const std::string cut = TempPath("truncate_cut");
  for (std::size_t len = header_end; len <= full.size(); ++len) {
    WriteFileBytes(cut, full.substr(0, len));
    const JournalContents contents = ReadJournal(cut);
    // Number of whole frames that fit in `len` bytes.
    std::size_t expect = 0;
    while (expect < frame_ends.size() && frame_ends[expect] <= len) ++expect;
    ASSERT_EQ(contents.records.size(), expect) << "cut at byte " << len;
    for (std::size_t i = 0; i < expect; ++i) {
      ExpectRecordEq(recs[i], contents.records[i], i);
    }
    // Truncation is flagged exactly when the cut is not on a frame boundary.
    const bool at_boundary =
        len == header_end || std::find(frame_ends.begin(), frame_ends.end(),
                                       len) != frame_ends.end();
    EXPECT_EQ(contents.truncated, !at_boundary) << "cut at byte " << len;
  }
}

TEST(Journal, BitFlipFuzzNeverThrowsAndNeverServesCorruptRecords) {
  const std::string path = TempPath("bitflip_src");
  const std::vector<RunRecord> recs = SampleRecords();
  std::uint64_t header_end = 0;
  {
    std::vector<RunRecord> replayed;
    TrialJournal journal(path, 99, "accum", &replayed);
    header_end = fs::file_size(path);
    for (const RunRecord& r : recs) journal.Append(r);
  }
  const std::string full = ReadFileBytes(path);
  const std::string flipped_path = TempPath("bitflip_cut");

  Rng rng(2026);
  for (int trial = 0; trial < 500; ++trial) {
    // Flip one random bit in the record region (header corruption is a
    // legitimate hard error — covered by NonJournalFileThrows).
    std::string bytes = full;
    const std::size_t byte = static_cast<std::size_t>(
        rng.UniformU64(header_end, bytes.size() - 1));
    bytes[byte] = static_cast<char>(
        bytes[byte] ^ static_cast<char>(1u << rng.UniformU64(0, 7)));
    WriteFileBytes(flipped_path, bytes);

    JournalContents contents;
    ASSERT_NO_THROW(contents = ReadJournal(flipped_path))
        << "flip in byte " << byte;
    // Whatever survives must be a prefix of the originals, bit-exact: the
    // CRC must catch the flip at the frame it lands in.
    ASSERT_LE(contents.records.size(), recs.size());
    for (std::size_t i = 0; i < contents.records.size(); ++i) {
      ExpectRecordEq(recs[i], contents.records[i], i);
    }
  }
}

TEST(Journal, TornTailIsDiscardedOnReopenAndAppendStaysReadable) {
  const std::string path = TempPath("torn");
  const std::vector<RunRecord> recs = SampleRecords();
  {
    std::vector<RunRecord> replayed;
    TrialJournal journal(path, 5, "accum", &replayed);
    journal.Append(recs[0]);
    journal.Append(recs[1]);
  }
  // Simulate a kill -9 mid-append: half a frame of garbage at the tail.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "\x40garbage-torn-frame";
  }
  EXPECT_TRUE(ReadJournal(path).truncated);
  {
    std::vector<RunRecord> replayed;
    TrialJournal journal(path, 5, "accum", &replayed);
    ASSERT_EQ(replayed.size(), 2u);  // torn tail dropped, prefix preserved
    journal.Append(recs[2]);
    journal.Append(recs[3]);
  }
  const JournalContents contents = ReadJournal(path);
  EXPECT_FALSE(contents.truncated);
  ASSERT_EQ(contents.records.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    ExpectRecordEq(recs[i], contents.records[i], i);
  }
}

// ---- Campaign resume ---------------------------------------------------------

/// Same steerable single-process app the campaign tests use: `iters` fadds
/// accumulating into memory, result written to fd 3.
apps::AppSpec AccumulatorApp(std::uint64_t iters = 50) {
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

std::string RenderPlusCsv(const CampaignResult& result) {
  std::ostringstream csv;
  WriteRecordsCsv(result.records, csv);
  return result.Render("accum") + "\n" + csv.str();
}

/// Simulate a campaign killed after `completed` trials: a journal holding
/// exactly that prefix of the reference records.
void SeedJournal(const std::string& path, std::uint64_t seed,
                 const std::vector<RunRecord>& records, std::size_t completed) {
  std::vector<RunRecord> replayed;
  TrialJournal journal(path, seed, "accum", &replayed);
  for (std::size_t i = 0; i < completed; ++i) journal.Append(records[i]);
}

TEST(JournalResume, SerialResumeIsByteIdenticalAndRunsOnlyMissingSeeds) {
  CampaignConfig config;
  config.runs = 12;
  config.seed = 321;
  Campaign reference_campaign(AccumulatorApp(50), config);
  const CampaignResult reference = reference_campaign.Run();
  const std::string expected = RenderPlusCsv(reference);

  for (const std::size_t completed : {std::size_t{0}, std::size_t{5},
                                      std::size_t{12}}) {
    const std::string path =
        TempPath("serial_resume_" + std::to_string(completed));
    SeedJournal(path, config.seed, reference.records, completed);

    CampaignConfig resumed_config = config;
    resumed_config.journal_path = path;
    std::atomic<std::uint64_t> executed{0};
    resumed_config.trial_chaos = [&](std::uint64_t, unsigned) { ++executed; };

    Campaign resumed(AccumulatorApp(50), resumed_config);
    const CampaignResult result = resumed.Run();
    SCOPED_TRACE(completed);
    EXPECT_EQ(executed.load(), config.runs - completed)
        << "resume re-ran trials the journal already held";
    EXPECT_EQ(RenderPlusCsv(result), expected);
    // The journal now holds the full campaign for the *next* resume.
    EXPECT_EQ(ReadJournal(path).records.size(), config.runs);
  }
}

TEST(JournalResume, ParallelResumeIsByteIdenticalAcrossWorkerCounts) {
  CampaignConfig config;
  config.runs = 16;
  config.seed = 4242;
  Campaign reference_campaign(AccumulatorApp(50), config);
  const CampaignResult reference = reference_campaign.Run();
  const std::string expected = RenderPlusCsv(reference);

  for (const unsigned jobs : {1u, 4u}) {
    const std::string path = TempPath("par_resume_" + std::to_string(jobs));
    SeedJournal(path, config.seed, reference.records, 7);

    CampaignConfig resumed_config = config;
    resumed_config.journal_path = path;
    std::atomic<std::uint64_t> executed{0};
    resumed_config.trial_chaos = [&](std::uint64_t, unsigned) { ++executed; };

    Campaign resumed(AccumulatorApp(50), resumed_config, jobs);
    const CampaignResult result = resumed.Run();
    SCOPED_TRACE(jobs);
    EXPECT_EQ(executed.load(), config.runs - 7);
    EXPECT_EQ(RenderPlusCsv(result), expected);
    EXPECT_EQ(ReadJournal(path).records.size(), config.runs);
  }
}

TEST(JournalResume, TornJournalResumesFromIntactPrefix) {
  CampaignConfig config;
  config.runs = 8;
  config.seed = 77;
  Campaign reference_campaign(AccumulatorApp(50), config);
  const CampaignResult reference = reference_campaign.Run();

  const std::string path = TempPath("torn_resume");
  SeedJournal(path, config.seed, reference.records, 4);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "\x33half-written-frame";  // the kill -9 landed mid-Append
  }

  CampaignConfig resumed_config = config;
  resumed_config.journal_path = path;
  std::atomic<std::uint64_t> executed{0};
  resumed_config.trial_chaos = [&](std::uint64_t, unsigned) { ++executed; };
  Campaign resumed(AccumulatorApp(50), resumed_config);
  const CampaignResult result = resumed.Run();
  EXPECT_EQ(executed.load(), 4u);  // the 4 intact trials were replayed
  EXPECT_EQ(RenderPlusCsv(result), RenderPlusCsv(reference));
}

TEST(JournalResume, MismatchedCampaignSeedRefusesToResume) {
  CampaignConfig config;
  config.runs = 2;
  config.seed = 1;
  const std::string path = TempPath("mismatch_resume");
  SeedJournal(path, 999, {}, 0);  // journal from a different campaign

  config.journal_path = path;
  Campaign campaign(AccumulatorApp(30), config);
  EXPECT_THROW(campaign.Run(), ConfigError);
}

}  // namespace
}  // namespace chaser::campaign
