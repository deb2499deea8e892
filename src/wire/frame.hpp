// Length-prefixed framing for the TCP byte stream (DESIGN.md §10).
//
// Every frame starts with a fixed 12-byte header:
//
//   offset  size  field
//   0       4     magic     0x47435746 ("GCWF", little-endian)
//   4       1     version   kWireVersion
//   5       1     type      FrameType
//   6       2     flags     reserved, must be zero
//   8       4     length    payload bytes that follow
//
// The parser is incremental (feed() arbitrary byte chunks, pull complete
// frames) and strict: a bad magic, unknown version/type, non-zero flags, or
// a length above kMaxFramePayload poisons the stream — the connection must
// be dropped, since framing can no longer be trusted. Truncation is not an
// error for the parser (more bytes may arrive); it is for the one-shot
// decode_frame() used by tests and tools.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "wire/wire.hpp"

namespace gossipc::wire {

inline constexpr std::uint32_t kFrameMagic = 0x47435746;  // "FWCG" on the wire (LE)
inline constexpr std::size_t kFrameHeaderBytes = 12;
/// Hard cap on one frame's payload; frames announcing more are rejected
/// before any buffering. Generous enough for a Phase 1b reporting
/// kMaxListEntries accepted values.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 26;  // 64 MiB

enum class FrameType : std::uint8_t {
    /// Connection handshake: identifies the sending process. Payload:
    /// i32 sender id, i32 cluster size.
    Hello = 1,
    /// One encoded message body (wire/codec.hpp layout).
    Body = 2,
};

struct Hello {
    ProcessId sender = -1;
    std::int32_t cluster_size = 0;
};

/// One parsed frame. `payload` views the parser's internal buffer and is
/// valid only until the next feed()/next() call.
struct Frame {
    FrameType type = FrameType::Body;
    std::span<const std::uint8_t> payload;
};

/// Appends one frame (header, then `payload`) to `out` in place: the
/// connection manager's per-connection send buffer grows frame by frame.
/// Little-endian hosts only, as WireWriter.
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> payload);
std::vector<std::uint8_t> encode_frame(FrameType type,
                                       std::span<const std::uint8_t> payload);
/// A Hello frame's payload, and the whole frame.
std::vector<std::uint8_t> encode_hello(const Hello& hello);
std::vector<std::uint8_t> encode_hello_frame(const Hello& hello);

/// Decodes a Hello payload (strict: exact length).
WireError decode_hello(std::span<const std::uint8_t> payload, Hello& out);

/// One-shot decode of a buffer holding exactly one frame (tests, tools).
/// Returns Truncated if `data` ends early, TrailingBytes if it runs long.
WireError decode_frame(std::span<const std::uint8_t> data, FrameType& type,
                       std::span<const std::uint8_t>& payload);

/// Incremental stream-to-frame assembler, one per connection.
class FrameParser {
public:
    enum class Result {
        Frame,     ///< `out` holds the next complete frame
        NeedMore,  ///< no complete frame buffered yet
        Corrupt,   ///< stream poisoned (error()); drop the connection
    };

    void feed(std::span<const std::uint8_t> data) {
        buf_.insert(buf_.end(), data.begin(), data.end());
    }

    /// Extracts the next complete frame. After Result::Corrupt every further
    /// call returns Corrupt — re-synchronizing an untrusted stream is not
    /// attempted.
    Result next(Frame& out);

    WireError error() const { return error_; }
    std::size_t buffered() const { return buf_.size() - consumed_; }

private:
    std::vector<std::uint8_t> buf_;
    std::size_t consumed_ = 0;  ///< bytes of buf_ already handed out
    WireError error_ = WireError::None;
};

}  // namespace gossipc::wire
