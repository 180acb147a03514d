// TaintHub: the central coordination service for cross-rank taint (paper
// §III-C(b), Fig. 5).
//
// Shadow taint cannot travel inside MPI payloads — only raw bytes cross the
// process/node boundary. Chaser therefore hooks the MPI send functions: if
// the send buffer is tainted, the sender publishes the message's taint
// status (keyed by its identity) to TaintHub *before* the message leaves.
// The receiver-side hook polls TaintHub with the received message's identity
// and, only on a hit, re-applies the per-byte taint to the receive buffer.
// Clean messages cost one hash lookup — receivers never parse message
// contents (the advantage over in-band header schemes, §V).
//
// The hub is also a single point of failure in the paper's real deployment
// (one service coordinating every QEMU instance). A configurable
// HubFaultModel degrades the hub on purpose — dropped publishes, delayed
// visibility, a hard outage window, and a bounded receiver-side poll
// deadline — so campaigns can *measure* cross-rank taint loss
// (HubStats::taint_lost) instead of treating the hub as infallible.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace chaser::hub {

/// Identity of an MPI message as TaintHub keys it: (tag, dest) extended with
/// source and a FIFO sequence number so re-used tags stay unambiguous.
struct MessageId {
  Rank src = 0;
  Rank dest = 0;
  std::int64_t tag = 0;
  std::uint64_t seq = 0;

  auto Key() const { return std::make_tuple(src, dest, tag, seq); }
};

/// Published taint status of one message.
struct MessageTaintRecord {
  MessageId id;
  std::vector<std::uint8_t> byte_masks;  // one 8-bit taint mask per payload byte
  // Sender-side provenance (propagation analysis): guest address of the send
  // buffer and the sender's retired-instruction count at publish time.
  GuestAddr src_vaddr = 0;
  std::uint64_t send_instret = 0;

  bool AnyTainted() const {
    for (const std::uint8_t m : byte_masks) {
      if (m != 0) return true;
    }
    return false;
  }
  std::uint64_t TaintedByteCount() const {
    std::uint64_t n = 0;
    for (const std::uint8_t m : byte_masks) n += (m != 0) ? 1 : 0;
    return n;
  }
};

/// A completed cross-rank taint transfer (for Table III's propagation rows
/// and the propagation graph's cross-rank edges).
struct TransferLogEntry {
  MessageId id;
  std::uint64_t tainted_bytes = 0;
  std::uint64_t payload_bytes = 0;   // full message length (mask count)
  // Address/time anchors for the propagation graph: where the payload lived
  // on the sender, where it landed on the receiver, and each side's
  // retired-instruction count (per-rank clocks; comparable within one rank).
  GuestAddr src_vaddr = 0;
  GuestAddr dest_vaddr = 0;
  std::uint64_t send_instret = 0;
  std::uint64_t recv_instret = 0;
  /// Global arrival order at the hub (0, 1, 2, ...): the deterministic
  /// cross-channel ordering the spread-order analysis keys on.
  std::uint64_t hub_seq = 0;
};

/// Receiver-side context for Poll (propagation-analysis anchors).
struct RecvContext {
  GuestAddr dest_vaddr = 0;
  std::uint64_t recv_instret = 0;
};

struct HubStats {
  std::uint64_t publishes = 0;       // tainted messages registered by senders
  std::uint64_t polls = 0;           // receiver-side lookups (incl. retries)
  std::uint64_t hits = 0;            // polls that found a tainted record
  std::uint64_t applied_bytes = 0;   // taint bytes re-established at receivers
  // Degradation-mode accounting (all zero with a healthy hub):
  std::uint64_t publish_drops = 0;     // sender publishes the hub lost
  std::uint64_t unavailable_polls = 0; // poll attempts during outage/lag
  std::uint64_t abandoned_polls = 0;   // receivers that exhausted the deadline
  std::uint64_t taint_lost = 0;        // tainted messages whose taint never
                                       // reached the receiver (drops + abandons)
  std::uint64_t lost_taint_bytes = 0;  // tainted bytes those messages carried
};

/// Configurable hub degradation (all defaults = a perfectly healthy hub).
/// Time is the hub's own operation clock: every Publish and every poll
/// attempt advances it by one, so the model is deterministic and identical
/// on the serial and parallel campaign drivers.
struct HubFaultModel {
  /// Each sender publish is silently lost with this probability (drawn from
  /// a private Rng reseeded on every Clear(), i.e. per trial).
  double publish_drop_prob = 0.0;
  /// A publish becomes visible to polls only after this many further hub
  /// operations (models hub processing lag; receivers overcome it by
  /// retrying if their deadline allows).
  std::uint64_t visibility_delay = 0;
  /// Hard outage: hub operations in clock window [outage_start, outage_end)
  /// fail — publishes are lost, polls report kUnavailable.
  std::uint64_t outage_start = 0;
  std::uint64_t outage_end = 0;
  /// Receiver-side deadline: extra poll attempts a receiver hook makes after
  /// an unavailable first attempt before proceeding untainted.
  std::uint64_t poll_retries = 0;
  /// Seed for the publish-drop decisions.
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;

  bool Active() const {
    return publish_drop_prob > 0.0 || visibility_delay > 0 ||
           outage_end > outage_start;
  }
};

/// Outcome of one poll attempt under a (possibly degraded) hub.
enum class PollStatus : std::uint8_t {
  kHit,          // tainted record found and consumed
  kMiss,         // no record: the message was clean (or its publish was lost)
  kUnavailable,  // hub down / record not yet visible — retrying may succeed
};

struct PollAttempt {
  PollStatus status = PollStatus::kMiss;
  std::optional<MessageTaintRecord> record;  // set only on kHit
};

/// The hub operations the MPI hooks and campaign code actually consume,
/// abstracted so the transport is invisible: TaintHub implements it
/// in-process, hub::remote::RemoteTaintHub over a socket to a chaser_hubd
/// server (possibly key-space-sharded across several). Everything above this
/// interface — ChaserMpiHooks, ChaserMpi, the campaign drivers — is
/// transport-agnostic.
class HubService {
 public:
  virtual ~HubService() = default;

  /// Sender side: register a tainted message's status.
  virtual void Publish(MessageTaintRecord record) = 0;

  /// One poll attempt distinguishing "definitively clean" (kMiss) from "hub
  /// unavailable right now" (kUnavailable — outage, visibility lag, or a
  /// transport that has not caught up). Receivers retry kUnavailable up to
  /// fault_model().poll_retries.
  virtual PollAttempt TryPoll(const MessageId& id,
                              const RecvContext& ctx = {}) = 0;

  /// Receiver gave up on `id` (deadline exhausted): evict any pending record
  /// and account the lost taint.
  virtual void AbandonPoll(const MessageId& id) = 0;

  /// Install (or reset) the degradation model for subsequent trials.
  virtual void SetFaultModel(const HubFaultModel& model) = 0;
  /// The installed model (remote implementations cache it client-side so the
  /// receiver hook's retry deadline needs no network round trip).
  virtual const HubFaultModel& fault_model() const = 0;

  /// Completed transfers in deterministic hub_seq order (ascending).
  virtual std::vector<TransferLogEntry> transfer_log() const = 0;

  /// Move the transfer log out (hub_seq order) and clear it, leaving stats
  /// and pending records untouched.
  virtual std::vector<TransferLogEntry> DrainTransferLog() = 0;

  /// True if any tainted message has flowed src -> dest.
  virtual bool SawTransfer(Rank src, Rank dest) const = 0;

  /// Counter snapshot (remote implementations sum their shards').
  virtual HubStats stats() const = 0;

  /// Per-trial reset: evict pending records, restart the clock, drop tape,
  /// transfer log, and stats.
  virtual void Clear() = 0;

  /// One-shot lookup by message identity: the record on a hit, nullopt on a
  /// miss *or* an unavailable hub — callers that want to retry use TryPoll.
  std::optional<MessageTaintRecord> Poll(const MessageId& id,
                                         const RecvContext& ctx = {});
};

class TaintHub : public HubService {
 public:
  /// Sender side: register a tainted message's status. Clean messages are
  /// never published (the sender-side hook returns early). Under a fault
  /// model the publish may be silently lost (counted in stats).
  void Publish(MessageTaintRecord record) override;

  /// One poll attempt that distinguishes "definitively clean" (kMiss) from
  /// "hub unavailable right now" (kUnavailable, outage or visibility lag).
  /// The receiver hook retries kUnavailable up to the model's poll_retries.
  PollAttempt TryPoll(const MessageId& id,
                      const RecvContext& ctx = {}) override;

  /// Receiver gave up on `id` (deadline exhausted): drop any pending record
  /// so it cannot alias a later message, and account the lost taint. The
  /// taint_lost counter only grows when a record actually existed — abandons
  /// of genuinely clean messages are not taint loss.
  void AbandonPoll(const MessageId& id) override;

  /// Install (or clear, with a default-constructed model) the degradation
  /// model. Takes effect immediately; the drop Rng reseeds now and on every
  /// Clear() so each campaign trial sees the same deterministic fault tape.
  void SetFaultModel(const HubFaultModel& model) override;
  const HubFaultModel& fault_model() const override { return fault_model_; }

  /// Hub operation clock (publishes + poll attempts since the last Clear).
  std::uint64_t clock() const { return clock_; }

  /// Completed transfers (every Poll hit), oldest first.
  const std::vector<TransferLogEntry>& transfers() const { return transfers_; }

  /// Completed transfers in deterministic hub_seq order (ascending). The
  /// entries are appended in that order, but callers that merged or filtered
  /// lists should re-sort through this accessor's contract.
  std::vector<TransferLogEntry> transfer_log() const override;

  /// Move the transfer log out (hub_seq order) and clear it, leaving stats
  /// and pending records untouched. The per-trial trace spool drains the log
  /// through this so records from one trial can never bleed into — or
  /// interleave with — the next trial's spool.
  std::vector<TransferLogEntry> DrainTransferLog() override;

  /// True if any tainted message has flowed src -> dest.
  bool SawTransfer(Rank src, Rank dest) const override;

  HubStats stats() const override { return stats_; }

  void Clear() override;

  /// The hub as a fault-free trial prefix leaves it: receivers have polled
  /// (clock and stats moved) but nothing was ever published.
  struct Checkpoint {
    std::uint64_t clock = 0;
    HubStats stats;
    std::uint64_t next_hub_seq = 0;
  };
  /// Throws std::logic_error if a record is pending or a transfer happened,
  /// or a degradation model is installed (its drop tape is not captured).
  Checkpoint SaveCheckpoint() const;
  void RestoreCheckpoint(const Checkpoint& cp);

 private:
  /// A published record plus the hub clock at which it becomes pollable.
  struct Pending {
    MessageTaintRecord record;
    std::uint64_t visible_at = 0;
  };

  bool InOutage() const {
    return clock_ >= fault_model_.outage_start && clock_ < fault_model_.outage_end;
  }
  void AccountLoss(const MessageTaintRecord& record);
  Rng& DropTape() {
    if (!fault_rng_) fault_rng_.emplace(fault_model_.seed);
    return *fault_rng_;
  }

  std::map<std::tuple<Rank, Rank, std::int64_t, std::uint64_t>, Pending> records_;
  std::vector<TransferLogEntry> transfers_;
  std::uint64_t next_hub_seq_ = 0;
  HubStats stats_;
  HubFaultModel fault_model_;
  // The drop tape, restarted from fault_model_.seed by every Clear and
  // SetFaultModel but seeded only on its first draw: a trial without a
  // drop probability never pays for seeding a generator.
  std::optional<Rng> fault_rng_;
  std::uint64_t clock_ = 0;
};

}  // namespace chaser::hub
