// Incremental decoding of the hub wire protocol's CRC frames.
//
// Frames are built with common/codec.h's AppendFrame — the same shape as the
// trial journal's and the CTR store's frames (DESIGN.md §5.3). Unlike a file,
// a torn frame on a socket is not "end of valid prefix": the stream
// continues, so the decoder distinguishes "need more bytes" (kNeedMore) from
// "this connection is poisoned" (kError — bad varint, zero/oversized length,
// CRC mismatch). Servers drop only the offending connection, never abort.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/codec.h"

namespace chaser::net {

/// Hard ceiling on a single frame's payload. Large enough for a batch of
/// publish records with multi-megabyte masks, small enough that a garbage
/// length prefix cannot make a peer allocate unbounded memory.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 22;  // 4 MiB

// ---- incremental frame decode ----------------------------------------------

/// Incremental decoder over a byte stream: Feed() socket reads in, call
/// Next() until it stops returning kFrame. Keeps a single rolling buffer;
/// consumed frames are compacted away lazily.
class FrameDecoder {
 public:
  enum class Result : std::uint8_t {
    kFrame,     // *payload holds the next frame's payload
    kNeedMore,  // no complete frame buffered yet
    kError,     // stream poisoned (see error()); drop the connection
  };

  void Feed(const char* data, std::size_t n) { buf_.append(data, n); }

  Result Next(std::string* payload);

  const std::string& error() const { return error_; }

  /// Bytes buffered but not yet consumed (backpressure accounting).
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
  std::string error_;
  bool poisoned_ = false;
};

}  // namespace chaser::net
