// Crash-safe trial journal: an append-only, checksummed, fsync-framed log of
// completed trial RunRecords.
//
// A `--runs 10000` campaign that dies at trial 9 999 — driver crash, OOM
// kill, node reboot — must not lose the 9 998 finished trials. Both campaign
// drivers append every completed record here (when CampaignConfig::
// journal_path is set); `chaser_run --resume <journal>` replays the intact
// records through CampaignResult::Accumulate and executes only the missing
// seeds, reproducing the uninterrupted report byte for byte.
//
// On-disk format (all integers varint-encoded unless noted):
//
//   header   magic "CHSJRNL1", version, campaign_seed, app-name (len+bytes)
//   record*  frame: payload_len varint, payload bytes, CRC-32 of the payload
//            as 4 LE bytes; the payload is the varint-serialised RunRecord
//
// The header version selects the record payload layout for the whole file:
// v1 lacks the hot-path counters (tb_chain_hits/tlb_hits/tlb_misses) that v2
// appends after `retries`, and v3 further appends the sampling fields
// (inject_pc, inject_class, sample_weight as IEEE-754 bits) before the error
// string. v4 keeps the v3 record layout and extends only the *header* with
// the writer's shard spec (shard_index, shard_count), so `--resume` on a
// journal written under a different `--shard i/N` fails loudly instead of
// replaying another shard's trial subset. v5 appends the injector identity
// (injector and fault_class as len-prefixed strings) before the error
// string, and widens the validation bounds to admit the kCrashed outcome and
// kCrash signal that rank-crash campaigns record; pre-v5 records replay as
// default-injector trials. A reader accepts any version <=
// its own and an appender continues in the *file's* version, so resuming a
// v1 journal keeps writing v1 frames — one file never mixes layouts.
//
// Every Append is flushed and fsync'd before it returns, so a record is
// either fully on disk or not there at all. The reader applies the same
// prefix discipline as analysis::SegmentReader: it stops at the first frame
// that is short, overlong, or fails its checksum, returns the intact prefix,
// and reports truncated(). Re-opening a torn journal for append first
// truncates the file back to that intact prefix.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "campaign/campaign.h"

namespace chaser::campaign {

/// Campaign identity stamped into the journal header so a resume against the
/// wrong campaign (different seed or app — different trial-seed sequence)
/// fails loudly instead of silently merging unrelated trials.
struct JournalHeader {
  std::uint64_t version = 5;
  std::uint64_t campaign_seed = 0;
  std::string app;
  /// Shard spec of the writing worker (v4+; pre-v4 journals read as the
  /// unsharded 0/1).
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 1;
};

/// Everything recovered from a journal file.
struct JournalContents {
  JournalHeader header;
  std::vector<RunRecord> records;  // intact prefix, append order
  bool truncated = false;          // a torn/corrupt tail was discarded
  std::uint64_t valid_bytes = 0;   // file offset one past the last intact record
};

/// Read a journal, recovering the intact record prefix. Throws ConfigError
/// if the file cannot be opened or its header is missing/corrupt; a torn or
/// bit-flipped record region is *not* an error (truncated flag instead).
JournalContents ReadJournal(const std::string& path);

/// Current journal format version written to fresh files.
inline constexpr std::uint64_t kJournalVersion = 5;

/// Serialise one RunRecord payload in the given format version (exposed for
/// tests; the journal frame adds length + CRC around this).
std::string EncodeJournalRecord(const RunRecord& rec,
                                std::uint64_t version = kJournalVersion);

/// Append-side handle, single-writer: a campaign's CommitCursor appends each
/// trial as it commits, in seed order, under the cursor's lock — so a
/// `--jobs N` journal equals the serial one byte for byte. Replay keys
/// records by run_seed, so a journal written in any order resumes the same.
class TrialJournal {
 public:
  /// Open `path` for appending, creating it (with a header naming this
  /// campaign) if absent. An existing journal is validated against
  /// `campaign_seed`/`app` *and* the shard spec (ConfigError on mismatch —
  /// a journal records which `--shard i/N` slice its trials came from) and
  /// truncated back to its intact record prefix; those records are returned
  /// via `replayed`.
  TrialJournal(const std::string& path, std::uint64_t campaign_seed,
               const std::string& app, std::vector<RunRecord>* replayed,
               std::uint64_t shard_index = 0, std::uint64_t shard_count = 1);
  ~TrialJournal();

  TrialJournal(const TrialJournal&) = delete;
  TrialJournal& operator=(const TrialJournal&) = delete;

  /// Frame, checksum, append, flush, fsync. The record is durable when this
  /// returns. Throws ConfigError on write failure.
  void Append(const RunRecord& rec);

  const std::string& path() const { return path_; }
  std::uint64_t appended() const { return appended_; }
  /// The format version this journal file is written in: an existing file's
  /// header version (appends continue its layout), kJournalVersion if fresh.
  std::uint64_t version() const { return version_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::uint64_t appended_ = 0;
  std::uint64_t version_ = kJournalVersion;
};

}  // namespace chaser::campaign
