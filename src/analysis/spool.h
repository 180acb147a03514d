// TraceSpool: streaming binary trace sink + reader (propagation analysis).
//
// The in-memory TraceLog caps stored events (2^17 by default) so CLAMR-scale
// traces don't exhaust memory — which silently loses exactly the data the
// paper's Figs. 7-9 post-analysis needs. A TraceSpool removes the cap by
// streaming every event to disk as it happens:
//
//   <dir>/rank-<R>.seg   per-rank segment: header, varint-encoded records
//                        (event + taint-sample), footer with exact counts,
//                        fixed-size trailer locating the footer
//   <dir>/hub.seg        TaintHub cross-rank transfer records (hub_seq order)
//   <dir>/meta.txt       key=value trial metadata (outcome, seed, app, ...)
//
// Records are compact: one tag byte, then LEB128 varints with the instret
// delta-encoded against the previous record of the same stream, so a steady
// trace costs a few bytes per event instead of sizeof(TraceEvent). A segment
// whose process died mid-trial simply lacks the footer/trailer; the reader
// detects that, decodes the intact prefix and reports truncated() — a crash
// never loses the events written before it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/trace.h"
#include "hub/tainthub.h"

namespace chaser::analysis {

// ---- Records ------------------------------------------------------------------

/// One decoded spool record (tagged union, tag mirrors the on-disk byte).
struct SpoolRecord {
  enum class Type : std::uint8_t { kEvent = 0, kSample = 1, kTransfer = 2 };
  Type type = Type::kEvent;
  core::TraceEvent event;
  core::TaintSample sample;
  hub::TransferLogEntry transfer;
};

/// Exact per-segment totals from the footer (valid only when the segment was
/// finished cleanly; a truncated segment reports counts from the decode).
struct SegmentFooter {
  std::uint64_t records = 0;
  std::uint64_t events = 0;
  std::uint64_t samples = 0;
  std::uint64_t transfers = 0;
  std::uint64_t kind_counts[core::kNumTraceEventKinds] = {};
  std::uint64_t min_instret = 0;
  std::uint64_t max_instret = 0;
};

// ---- Writer -------------------------------------------------------------------

/// Streaming spool writer. Implements core::TraceSink so a TraceLog can tee
/// into it (`trace_log().set_sink(&spool)`); events route to the per-rank
/// segment named by TraceEvent::rank. Not thread-safe: one spool belongs to
/// one trial, and a trial executes on one thread (parallel campaigns give
/// every worker its own engine and its own spool).
class TraceSpool final : public core::TraceSink {
 public:
  /// Creates `dir` (and parents). Throws ConfigError if that fails.
  explicit TraceSpool(std::string dir);
  ~TraceSpool() override;  // Finish()es, swallowing errors

  TraceSpool(const TraceSpool&) = delete;
  TraceSpool& operator=(const TraceSpool&) = delete;

  void OnTraceEvent(const core::TraceEvent& event) override;
  void AddSample(const core::TaintSample& sample);
  void AddTransfer(const hub::TransferLogEntry& entry);
  /// Remembered until Finish(), then written to meta.txt in key order.
  void SetMeta(const std::string& key, const std::string& value);

  /// Write footers/trailers, close every segment, write meta.txt.
  /// Idempotent; adding records after Finish throws ConfigError.
  void Finish();

  const std::string& dir() const { return dir_; }
  std::uint64_t total_records() const { return total_records_; }

 private:
  struct Segment;
  Segment& SegmentFor(Rank rank, bool hub);

  std::string dir_;
  std::map<std::pair<bool, Rank>, std::unique_ptr<Segment>> segments_;
  std::map<std::string, std::string> meta_;
  std::uint64_t total_records_ = 0;
  bool finished_ = false;
};

// ---- Reader -------------------------------------------------------------------

/// Iterates one segment file. Loads the file once, then decodes records on
/// demand. Throws ConfigError if the file is missing or the header magic is
/// wrong; a missing/corrupt footer switches to truncated mode instead of
/// throwing (the intact record prefix is still served).
class SegmentReader {
 public:
  explicit SegmentReader(const std::string& path);

  Rank rank() const { return rank_; }
  bool is_hub() const { return is_hub_; }
  /// True if the segment lacks a valid footer/trailer (writer died) or a
  /// record failed to decode before the footer.
  bool truncated() const { return truncated_; }
  /// Footer totals; nullopt when truncated.
  const std::optional<SegmentFooter>& footer() const { return footer_; }

  /// Decode the next record. Returns false at the end of the record region
  /// (or, in truncated mode, at the first undecodable byte — which then
  /// also sets truncated()).
  bool Next(SpoolRecord* out);

 private:
  std::string buf_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;  // one past the last record byte
  Rank rank_ = -1;
  bool is_hub_ = false;
  bool truncated_ = false;
  std::optional<SegmentFooter> footer_;
  std::uint64_t prev_event_instret_ = 0;
  std::uint64_t prev_sample_instret_ = 0;
};

/// Everything one trial spooled, decoded and grouped: events/samples sorted
/// by (rank, emission order), transfers in hub_seq order.
struct TrialSpool {
  std::vector<core::TraceEvent> events;
  std::vector<core::TaintSample> samples;
  std::vector<hub::TransferLogEntry> transfers;
  std::map<std::string, std::string> meta;
  bool truncated = false;  // any segment truncated
};

/// True if `dir` looks like a trial spool (contains at least one .seg file).
bool IsTrialSpoolDir(const std::string& dir);

/// Load a whole trial directory. Throws ConfigError if `dir` has no
/// segments at all; truncated segments are folded in with a flag, not an
/// error.
TrialSpool ReadTrialSpool(const std::string& dir);

}  // namespace chaser::analysis
