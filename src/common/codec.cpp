#include "common/codec.h"

#include "common/crc32.h"

namespace chaser {

void AppendVarint(std::string* out, std::uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

VarintStatus DecodeVarint(const char* buf, std::size_t size, std::size_t* pos,
                          std::uint64_t* value) {
  std::uint64_t v = 0;
  std::size_t p = *pos;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (p >= size) return VarintStatus::kNeedMore;
    const std::uint8_t byte = static_cast<std::uint8_t>(buf[p++]);
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      if (shift == 63 && (byte & 0x7e) != 0) return VarintStatus::kMalformed;
      if (byte == 0 && shift > 0) return VarintStatus::kMalformed;
      *value = v;
      *pos = p;
      return VarintStatus::kOk;
    }
  }
  return VarintStatus::kMalformed;
}

std::optional<std::uint64_t> DecodeVarint(std::string_view buf,
                                          std::size_t* pos) {
  std::uint64_t v = 0;
  if (DecodeVarint(buf.data(), buf.size(), pos, &v) != VarintStatus::kOk) {
    return std::nullopt;
  }
  return v;
}

void AppendFrame(std::string* out, std::string_view payload) {
  AppendVarint(out, payload.size());
  out->append(payload);
  const std::uint32_t crc = Crc32(payload.data(), payload.size());
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
}

FrameStatus DecodeFrame(std::string_view buf, std::size_t* pos,
                        std::uint64_t max_payload, std::string_view* payload) {
  std::size_t p = *pos;
  std::uint64_t len = 0;
  switch (DecodeVarint(buf.data(), buf.size(), &p, &len)) {
    case VarintStatus::kNeedMore:
      return FrameStatus::kNeedMore;
    case VarintStatus::kMalformed:
      return FrameStatus::kMalformed;
    case VarintStatus::kOk:
      break;
  }
  if (len == 0 || len > max_payload) return FrameStatus::kMalformed;
  if (buf.size() - p < len + 4) return FrameStatus::kNeedMore;
  const std::size_t n = static_cast<std::size_t>(len);
  const char* body = buf.data() + p;
  std::uint32_t crc = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    crc |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(body[n + i]))
           << (8 * i);
  }
  if (Crc32(body, n) != crc) return FrameStatus::kBadCrc;
  *payload = std::string_view(body, n);
  *pos = p + n + 4;
  return FrameStatus::kOk;
}

}  // namespace chaser
