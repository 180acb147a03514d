#include "hub/remote/protocol.h"

#include <cstdlib>
#include <cstring>

#include "common/codec.h"
#include "common/error.h"
#include "common/strings.h"

namespace chaser::hub::remote {

namespace {

bool ReadVarint(const std::string& buf, std::size_t* pos, std::uint64_t* v) {
  return DecodeVarint(buf.data(), buf.size(), pos, v) == VarintStatus::kOk;
}

bool ReadSigned(const std::string& buf, std::size_t* pos, std::int64_t* v) {
  std::uint64_t raw = 0;
  if (!ReadVarint(buf, pos, &raw)) return false;
  *v = ZigZagDecode(raw);
  return true;
}

// Doubles travel as their IEEE-754 bit pattern (exact round trip — the fault
// model's drop probability must reproduce the same Bernoulli tape remotely).
void AppendDouble(std::string* out, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  AppendVarint(out, bits);
}

bool ReadDouble(const std::string& buf, std::size_t* pos, double* d) {
  std::uint64_t bits = 0;
  if (!ReadVarint(buf, pos, &bits)) return false;
  std::memcpy(d, &bits, sizeof(*d));
  return true;
}

}  // namespace

void EncodeMessageId(std::string* out, const MessageId& id) {
  AppendVarint(out, ZigZagEncode(id.src));
  AppendVarint(out, ZigZagEncode(id.dest));
  AppendVarint(out, ZigZagEncode(id.tag));
  AppendVarint(out, id.seq);
}

bool DecodeMessageId(const std::string& buf, std::size_t* pos, MessageId* id) {
  std::int64_t src = 0, dest = 0, tag = 0;
  if (!ReadSigned(buf, pos, &src) || !ReadSigned(buf, pos, &dest) ||
      !ReadSigned(buf, pos, &tag) || !ReadVarint(buf, pos, &id->seq)) {
    return false;
  }
  id->src = static_cast<Rank>(src);
  id->dest = static_cast<Rank>(dest);
  id->tag = tag;
  return true;
}

void EncodeRecord(std::string* out, const MessageTaintRecord& record) {
  EncodeMessageId(out, record.id);
  AppendVarint(out, record.src_vaddr);
  AppendVarint(out, record.send_instret);
  AppendVarint(out, record.byte_masks.size());
  out->append(reinterpret_cast<const char*>(record.byte_masks.data()),
              record.byte_masks.size());
}

bool DecodeRecord(const std::string& buf, std::size_t* pos,
                  MessageTaintRecord* record) {
  std::uint64_t len = 0;
  if (!DecodeMessageId(buf, pos, &record->id) ||
      !ReadVarint(buf, pos, &record->src_vaddr) ||
      !ReadVarint(buf, pos, &record->send_instret) ||
      !ReadVarint(buf, pos, &len)) {
    return false;
  }
  if (buf.size() - *pos < len) return false;
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(buf.data() + *pos);
  record->byte_masks.assign(bytes, bytes + len);
  *pos += len;
  return true;
}

void EncodeRecvContext(std::string* out, const RecvContext& ctx) {
  AppendVarint(out, ctx.dest_vaddr);
  AppendVarint(out, ctx.recv_instret);
}

bool DecodeRecvContext(const std::string& buf, std::size_t* pos,
                       RecvContext* ctx) {
  return ReadVarint(buf, pos, &ctx->dest_vaddr) &&
         ReadVarint(buf, pos, &ctx->recv_instret);
}

void EncodeFaultModel(std::string* out, const HubFaultModel& model) {
  AppendDouble(out, model.publish_drop_prob);
  AppendVarint(out, model.visibility_delay);
  AppendVarint(out, model.outage_start);
  AppendVarint(out, model.outage_end);
  AppendVarint(out, model.poll_retries);
  AppendVarint(out, model.seed);
}

bool DecodeFaultModel(const std::string& buf, std::size_t* pos,
                      HubFaultModel* model) {
  return ReadDouble(buf, pos, &model->publish_drop_prob) &&
         ReadVarint(buf, pos, &model->visibility_delay) &&
         ReadVarint(buf, pos, &model->outage_start) &&
         ReadVarint(buf, pos, &model->outage_end) &&
         ReadVarint(buf, pos, &model->poll_retries) &&
         ReadVarint(buf, pos, &model->seed);
}

void EncodeStats(std::string* out, const HubStats& stats) {
  AppendVarint(out, stats.publishes);
  AppendVarint(out, stats.polls);
  AppendVarint(out, stats.hits);
  AppendVarint(out, stats.applied_bytes);
  AppendVarint(out, stats.publish_drops);
  AppendVarint(out, stats.unavailable_polls);
  AppendVarint(out, stats.abandoned_polls);
  AppendVarint(out, stats.taint_lost);
  AppendVarint(out, stats.lost_taint_bytes);
}

bool DecodeStats(const std::string& buf, std::size_t* pos, HubStats* stats) {
  return ReadVarint(buf, pos, &stats->publishes) &&
         ReadVarint(buf, pos, &stats->polls) &&
         ReadVarint(buf, pos, &stats->hits) &&
         ReadVarint(buf, pos, &stats->applied_bytes) &&
         ReadVarint(buf, pos, &stats->publish_drops) &&
         ReadVarint(buf, pos, &stats->unavailable_polls) &&
         ReadVarint(buf, pos, &stats->abandoned_polls) &&
         ReadVarint(buf, pos, &stats->taint_lost) &&
         ReadVarint(buf, pos, &stats->lost_taint_bytes);
}

void EncodeTransferEntry(std::string* out, const TransferLogEntry& entry) {
  EncodeMessageId(out, entry.id);
  AppendVarint(out, entry.tainted_bytes);
  AppendVarint(out, entry.payload_bytes);
  AppendVarint(out, entry.src_vaddr);
  AppendVarint(out, entry.dest_vaddr);
  AppendVarint(out, entry.send_instret);
  AppendVarint(out, entry.recv_instret);
  AppendVarint(out, entry.hub_seq);
}

bool DecodeTransferEntry(const std::string& buf, std::size_t* pos,
                         TransferLogEntry* entry) {
  return DecodeMessageId(buf, pos, &entry->id) &&
         ReadVarint(buf, pos, &entry->tainted_bytes) &&
         ReadVarint(buf, pos, &entry->payload_bytes) &&
         ReadVarint(buf, pos, &entry->src_vaddr) &&
         ReadVarint(buf, pos, &entry->dest_vaddr) &&
         ReadVarint(buf, pos, &entry->send_instret) &&
         ReadVarint(buf, pos, &entry->recv_instret) &&
         ReadVarint(buf, pos, &entry->hub_seq);
}

std::string EncodeHello() {
  std::string out(kHelloMagic, sizeof(kHelloMagic) - 1);
  AppendVarint(&out, kProtocolVersion);
  return out;
}

bool DecodeHello(const std::string& payload, std::string* error) {
  constexpr std::size_t kMagicLen = sizeof(kHelloMagic) - 1;
  if (payload.size() < kMagicLen ||
      payload.compare(0, kMagicLen, kHelloMagic) != 0) {
    *error = "bad hello magic";
    return false;
  }
  std::size_t pos = kMagicLen;
  std::uint64_t version = 0;
  if (!ReadVarint(payload, &pos, &version) || pos != payload.size()) {
    *error = "malformed hello";
    return false;
  }
  if (version != kProtocolVersion) {
    *error = StrFormat("protocol version mismatch: client %llu, server %llu",
                       static_cast<unsigned long long>(version),
                       static_cast<unsigned long long>(kProtocolVersion));
    return false;
  }
  return true;
}

HubFaultModel ParseHubFaultSpec(const std::string& spec,
                                const std::string& flag) {
  HubFaultModel model;
  std::vector<KeyVal> kvs;
  std::string bad;
  if (!ParseKeyValList(spec, &kvs, &bad) || spec.empty()) {
    throw ConfigError(flag + ": expected key=value, got '" +
                      (spec.empty() ? spec : bad) +
                      "' (valid keys: drop, delay, outage, retries, seed)");
  }
  for (const KeyVal& kv : kvs) {
    const std::string& key = kv.key;
    const std::string& val = kv.value;
    std::uint64_t n = 0;
    if (key == "drop") {
      char* end = nullptr;
      const double p = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
        throw ConfigError(flag + ": drop expects a probability in [0,1], got '" +
                          val + "'");
      }
      model.publish_drop_prob = p;
    } else if (key == "delay") {
      if (!ParseU64(val, &n)) {
        throw ConfigError(flag + ": bad delay value '" + val + "'");
      }
      model.visibility_delay = n;
    } else if (key == "outage") {
      const std::vector<std::string> parts = Split(val, '-');
      std::uint64_t a = 0, b = 0;
      if (parts.size() != 2 || !ParseU64(parts[0], &a) ||
          !ParseU64(parts[1], &b) || b < a) {
        throw ConfigError(
            flag + ": outage expects A-B (down for clocks [A,B)), got '" +
            val + "'");
      }
      model.outage_start = a;
      model.outage_end = b;
    } else if (key == "retries") {
      if (!ParseU64(val, &n)) {
        throw ConfigError(flag + ": bad retries value '" + val + "'");
      }
      model.poll_retries = n;
    } else if (key == "seed") {
      if (!ParseU64(val, &n)) {
        throw ConfigError(flag + ": bad seed value '" + val + "'");
      }
      model.seed = n;
    } else {
      throw ConfigError(flag + ": unknown key '" + key +
                        "' (valid keys: drop, delay, outage, retries, seed)");
    }
  }
  return model;
}

}  // namespace chaser::hub::remote
