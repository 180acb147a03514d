#include "campaign/journal.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "common/codec.h"
#include "common/error.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace chaser::campaign {

namespace {

constexpr char kJournalMagic[8] = {'C', 'H', 'S', 'J', 'R', 'N', 'L', '1'};
/// Upper bound on one record frame; anything larger is a corrupt length
/// varint, not a real record (records are a few hundred bytes).
constexpr std::uint64_t kMaxRecordBytes = 1u << 20;

std::optional<RunRecord> DecodeJournalRecord(std::string_view payload,
                                             std::uint64_t version) {
  std::size_t pos = 0;
  RunRecord r;
  const auto u64 = [&](std::uint64_t* v) {
    const auto d = DecodeVarint(payload, &pos);
    if (!d) return false;
    *v = *d;
    return true;
  };
  std::uint64_t outcome = 0, kind = 0, signal = 0, inject = 0, failure = 0,
                flags = 0, flip_bits = 0, retries = 0, error_len = 0;
  if (!u64(&r.run_seed) || !u64(&outcome) || !u64(&kind) || !u64(&signal) ||
      !u64(&inject) || !u64(&failure) || !u64(&flags) || !u64(&r.injections) ||
      !u64(&r.tainted_reads) || !u64(&r.tainted_writes) ||
      !u64(&r.peak_tainted_bytes) || !u64(&r.tainted_output_bytes) ||
      !u64(&r.trigger_nth) || !u64(&flip_bits) || !u64(&r.instructions) ||
      !u64(&r.trace_dropped) || !u64(&r.taint_lost) || !u64(&retries)) {
    return std::nullopt;
  }
  // v2 appended the hot-path counters here; v1 records replay with zeros,
  // matching what a v1 build would have accumulated.
  if (version >= 2 && (!u64(&r.tb_chain_hits) || !u64(&r.tlb_hits) ||
                       !u64(&r.tlb_misses))) {
    return std::nullopt;
  }
  // v3 appended the sampling fields. Older records replay as uniform trials:
  // pc/class unknown, weight 1 — exactly how those campaigns drew them.
  if (version >= 3) {
    std::uint64_t cls = 0, weight_bits = 0;
    if (!u64(&r.inject_pc) || !u64(&cls) || !u64(&weight_bits)) {
      return std::nullopt;
    }
    if (cls > static_cast<std::uint64_t>(guest::InstrClass::kSys)) {
      return std::nullopt;
    }
    r.inject_class = static_cast<guest::InstrClass>(cls);
    std::memcpy(&r.sample_weight, &weight_bits, sizeof(r.sample_weight));
  }
  // v5 appended the injector identity; older records replay as default-
  // injector trials (both strings empty).
  if (version >= 5) {
    std::uint64_t len = 0;
    if (!u64(&len) || len > payload.size() - pos) return std::nullopt;
    r.injector = payload.substr(pos, static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
    if (!u64(&len) || len > payload.size() - pos) return std::nullopt;
    r.fault_class = payload.substr(pos, static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
  }
  if (!u64(&error_len)) return std::nullopt;
  // Validation bounds are version-conditional: the kCrashed outcome and
  // kCrash signal only exist from v5 on, so their values in an older file
  // can only be corruption.
  const std::uint64_t max_outcome = static_cast<std::uint64_t>(
      version >= 5 ? Outcome::kCrashed : Outcome::kInfra);
  const std::uint64_t max_signal = static_cast<std::uint64_t>(
      version >= 5 ? vm::GuestSignal::kCrash : vm::GuestSignal::kKill);
  if (outcome > max_outcome ||
      kind > static_cast<std::uint64_t>(vm::TerminationKind::kMpiError) ||
      signal > max_signal) {
    return std::nullopt;
  }
  if (error_len != payload.size() - pos) return std::nullopt;
  r.outcome = static_cast<Outcome>(outcome);
  r.kind = static_cast<vm::TerminationKind>(kind);
  r.signal = static_cast<vm::GuestSignal>(signal);
  r.inject_rank = static_cast<Rank>(ZigZagDecode(inject));
  r.failure_rank = static_cast<Rank>(ZigZagDecode(failure));
  r.deadlock = (flags & 1) != 0;
  r.propagated_cross_rank = (flags & 2) != 0;
  r.propagated_cross_node = (flags & 4) != 0;
  r.flip_bits = static_cast<unsigned>(flip_bits);
  r.retries = static_cast<unsigned>(retries);
  r.infra_error = payload.substr(pos);
  return r;
}

}  // namespace

std::string EncodeJournalRecord(const RunRecord& rec, std::uint64_t version) {
  std::string payload;
  AppendVarint(&payload, rec.run_seed);
  AppendVarint(&payload, static_cast<std::uint64_t>(rec.outcome));
  AppendVarint(&payload, static_cast<std::uint64_t>(rec.kind));
  AppendVarint(&payload, static_cast<std::uint64_t>(rec.signal));
  AppendVarint(&payload, ZigZagEncode(rec.inject_rank));
  AppendVarint(&payload, ZigZagEncode(rec.failure_rank));
  AppendVarint(&payload, (rec.deadlock ? 1u : 0u) |
                             (rec.propagated_cross_rank ? 2u : 0u) |
                             (rec.propagated_cross_node ? 4u : 0u));
  AppendVarint(&payload, rec.injections);
  AppendVarint(&payload, rec.tainted_reads);
  AppendVarint(&payload, rec.tainted_writes);
  AppendVarint(&payload, rec.peak_tainted_bytes);
  AppendVarint(&payload, rec.tainted_output_bytes);
  AppendVarint(&payload, rec.trigger_nth);
  AppendVarint(&payload, rec.flip_bits);
  AppendVarint(&payload, rec.instructions);
  AppendVarint(&payload, rec.trace_dropped);
  AppendVarint(&payload, rec.taint_lost);
  AppendVarint(&payload, rec.retries);
  if (version >= 2) {
    AppendVarint(&payload, rec.tb_chain_hits);
    AppendVarint(&payload, rec.tlb_hits);
    AppendVarint(&payload, rec.tlb_misses);
  }
  if (version >= 3) {
    AppendVarint(&payload, rec.inject_pc);
    AppendVarint(&payload, static_cast<std::uint64_t>(rec.inject_class));
    // The weight round-trips as its IEEE-754 bit pattern: resume must feed
    // the estimator the *exact* double the original trial used.
    std::uint64_t weight_bits = 0;
    std::memcpy(&weight_bits, &rec.sample_weight, sizeof(weight_bits));
    AppendVarint(&payload, weight_bits);
  }
  if (version >= 5) {
    AppendVarint(&payload, rec.injector.size());
    payload.append(rec.injector);
    AppendVarint(&payload, rec.fault_class.size());
    payload.append(rec.fault_class);
  }
  AppendVarint(&payload, rec.infra_error.size());
  payload.append(rec.infra_error);
  return payload;
}

JournalContents ReadJournal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("ReadJournal: cannot open '" + path + "'");
  std::string buf((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());

  if (buf.size() < sizeof(kJournalMagic) ||
      std::memcmp(buf.data(), kJournalMagic, sizeof(kJournalMagic)) != 0) {
    throw ConfigError("ReadJournal: '" + path + "' is not a Chaser trial journal");
  }
  std::size_t pos = sizeof(kJournalMagic);
  JournalContents contents;
  const auto header_u64 = [&](std::uint64_t* v) {
    const auto d = DecodeVarint(buf, &pos);
    if (!d) throw ConfigError("ReadJournal: '" + path + "' has a corrupt header");
    *v = *d;
  };
  header_u64(&contents.header.version);
  if (contents.header.version == 0 || contents.header.version > kJournalVersion) {
    throw ConfigError(StrFormat(
        "ReadJournal: '%s' is journal version %llu; this build reads versions up to %llu",
        path.c_str(),
        static_cast<unsigned long long>(contents.header.version),
        static_cast<unsigned long long>(kJournalVersion)));
  }
  header_u64(&contents.header.campaign_seed);
  std::uint64_t app_len = 0;
  header_u64(&app_len);
  if (app_len > buf.size() - pos) {
    throw ConfigError("ReadJournal: '" + path + "' has a corrupt header");
  }
  contents.header.app = buf.substr(pos, app_len);
  pos += app_len;
  // v4 extended the header with the writing worker's shard spec; older
  // journals are by definition unsharded (the defaults).
  if (contents.header.version >= 4) {
    header_u64(&contents.header.shard_index);
    header_u64(&contents.header.shard_count);
  }
  contents.valid_bytes = pos;

  // Record region: prefix discipline — serve intact frames, stop at the
  // first one that is short, overlong, fails its checksum or does not
  // decode.
  while (pos < buf.size()) {
    std::string_view payload;
    std::optional<RunRecord> rec;
    if (DecodeFrame(buf, &pos, kMaxRecordBytes, &payload) != FrameStatus::kOk ||
        !(rec = DecodeJournalRecord(payload, contents.header.version))) {
      contents.truncated = true;
      break;
    }
    contents.records.push_back(*rec);
    contents.valid_bytes = pos;
  }
  return contents;
}

TrialJournal::TrialJournal(const std::string& path, std::uint64_t campaign_seed,
                           const std::string& app,
                           std::vector<RunRecord>* replayed,
                           std::uint64_t shard_index, std::uint64_t shard_count)
    : path_(path) {
  if (replayed != nullptr) replayed->clear();
  std::error_code ec;
  const bool exists = std::filesystem::exists(path_, ec) &&
                      std::filesystem::file_size(path_, ec) > 0;
  if (exists) {
    JournalContents contents = ReadJournal(path_);
    if (contents.header.campaign_seed != campaign_seed ||
        contents.header.app != app) {
      throw ConfigError(StrFormat(
          "TrialJournal: '%s' belongs to campaign (app '%s', seed %llu), not "
          "(app '%s', seed %llu) — refusing to mix trial sets",
          path_.c_str(), contents.header.app.c_str(),
          static_cast<unsigned long long>(contents.header.campaign_seed),
          app.c_str(), static_cast<unsigned long long>(campaign_seed)));
    }
    if (contents.header.shard_index != shard_index ||
        contents.header.shard_count != shard_count) {
      throw ConfigError(StrFormat(
          "TrialJournal: '%s' was written by shard %llu/%llu, not %llu/%llu — "
          "its trials are a different slice of the seed order",
          path_.c_str(),
          static_cast<unsigned long long>(contents.header.shard_index),
          static_cast<unsigned long long>(contents.header.shard_count),
          static_cast<unsigned long long>(shard_index),
          static_cast<unsigned long long>(shard_count)));
    }
    // Appends continue in the file's own format version — mixing v1 and v2
    // frames in one file would make the layout ambiguous to readers.
    version_ = contents.header.version;
    // Cut a crash-torn tail off *before* appending: new frames written after
    // garbage would be unreachable to the prefix-disciplined reader.
    std::filesystem::resize_file(path_, contents.valid_bytes, ec);
    if (ec) {
      throw ConfigError("TrialJournal: cannot truncate torn tail of '" + path_ +
                        "': " + ec.message());
    }
    if (replayed != nullptr) *replayed = std::move(contents.records);
  }

  file_ = std::fopen(path_.c_str(), exists ? "ab" : "wb");
  if (file_ == nullptr) {
    throw ConfigError("TrialJournal: cannot open '" + path_ + "' for append");
  }
  if (!exists) {
    std::string header(kJournalMagic, sizeof(kJournalMagic));
    AppendVarint(&header, kJournalVersion);
    AppendVarint(&header, campaign_seed);
    AppendVarint(&header, app.size());
    header.append(app);
    AppendVarint(&header, shard_index);
    AppendVarint(&header, shard_count);
    if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
        std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
      std::fclose(file_);
      file_ = nullptr;
      throw ConfigError("TrialJournal: cannot write header of '" + path_ + "'");
    }
  }
}

TrialJournal::~TrialJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

void TrialJournal::Append(const RunRecord& rec) {
  std::string frame;
  AppendFrame(&frame, EncodeJournalRecord(rec, version_));

  static obs::Counter& appends =
      obs::Registry::Global().GetCounter("journal_appends_total");
  const obs::ScopedPhase obs_scope(obs::Phase::kJournalFsync);
  if (file_ == nullptr) {
    throw ConfigError("TrialJournal: append to closed journal '" + path_ + "'");
  }
  // One fwrite per frame keeps frames contiguous; fsync makes the record
  // durable before the trial is considered "completed" anywhere else.
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size() ||
      std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    throw ConfigError("TrialJournal: append failed on '" + path_ + "'");
  }
  ++appended_;
  appends.Inc();
}

}  // namespace chaser::campaign
