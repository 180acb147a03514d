// The byte codec every framed stream in the tree shares: unsigned LEB128
// varints, zigzag for signed values, and CRC-32 frames.
//
// A frame is
//
//     varint payload_len | payload bytes | CRC32-LE(payload)   (4 bytes)
//
// — the trial journal's records, the CTR store's blocks and the hub wire
// protocol's messages all use it, so one decoder's rules hold for all of
// them and a frame written by one subsystem is checkable by another's tools.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace chaser {

void AppendVarint(std::string* out, std::uint64_t v);

enum class VarintStatus : std::uint8_t {
  kOk,         // value decoded, *pos advanced past it
  kNeedMore,   // buffer ends mid-varint — feed more bytes and retry
  kMalformed,  // not a canonical encoding of a 64-bit value
};

/// Decode a varint from buf[*pos..size). On kOk advances *pos; otherwise
/// leaves it untouched, so a stream reader can retry once more bytes arrive.
/// Only AppendVarint's own output decodes: an encoding with value bits past
/// bit 63, more than 10 bytes, or a zero terminal byte after a continuation
/// byte ({0x80, 0x00} would alias the one-byte 0) is kMalformed. That makes
/// encode/decode a bijection, which the CTR store's CRC-then-codec framing
/// relies on.
VarintStatus DecodeVarint(const char* buf, std::size_t size, std::size_t* pos,
                          std::uint64_t* value);

/// Whole-buffer form: nullopt on truncated or malformed input.
std::optional<std::uint64_t> DecodeVarint(std::string_view buf,
                                          std::size_t* pos);

inline std::uint64_t ZigZagEncode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t ZigZagDecode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Append one complete frame (length + payload + CRC) to `out`.
void AppendFrame(std::string* out, std::string_view payload);

enum class FrameStatus : std::uint8_t {
  kOk,         // *payload views the payload, *pos moved past the CRC
  kNeedMore,   // buffer ends inside the frame
  kMalformed,  // bad length varint, zero length, or longer than the cap
  kBadCrc,     // the payload fails its checksum
};

/// Decode the frame at buf[*pos..) whose payload is 1..max_payload bytes.
/// On kOk, *payload views the payload inside `buf` and *pos moves past the
/// CRC; otherwise *pos stays put. A file reader takes anything but kOk as
/// the end of its intact prefix; a socket reader waits out kNeedMore.
FrameStatus DecodeFrame(std::string_view buf, std::size_t* pos,
                        std::uint64_t max_payload, std::string_view* payload);

}  // namespace chaser
