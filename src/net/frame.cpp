#include "net/frame.h"

namespace chaser::net {

FrameDecoder::Result FrameDecoder::Next(std::string* payload) {
  if (poisoned_) return Result::kError;
  // Compact once the consumed prefix dominates, so long-lived connections
  // do not grow the buffer without bound.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  std::string_view body;
  switch (DecodeFrame(buf_, &pos_, kMaxFramePayload, &body)) {
    case FrameStatus::kOk:
      payload->assign(body);
      return Result::kFrame;
    case FrameStatus::kNeedMore:
      return Result::kNeedMore;
    case FrameStatus::kMalformed:
      error_ = "malformed frame length (bad varint, zero, or over 4 MiB)";
      break;
    case FrameStatus::kBadCrc:
      error_ = "frame CRC mismatch";
      break;
  }
  poisoned_ = true;
  return Result::kError;
}

}  // namespace chaser::net
