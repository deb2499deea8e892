#include "wire/frame.hpp"

#include <cstring>

namespace gossipc::wire {

namespace {

/// Validates a 12-byte header; returns the payload length via `length`.
WireError check_header(WireReader& in, FrameType& type, std::uint32_t& length) {
    const std::uint32_t magic = in.u32();
    const std::uint8_t version = in.u8();
    const std::uint8_t type_tag = in.u8();
    const std::uint16_t flags = in.u16();
    length = in.u32();
    if (!in.ok()) return in.error();
    if (magic != kFrameMagic) return WireError::BadMagic;
    if (version != kWireVersion) return WireError::BadVersion;
    if (type_tag != static_cast<std::uint8_t>(FrameType::Hello) &&
        type_tag != static_cast<std::uint8_t>(FrameType::Body)) {
        return WireError::BadFrameType;
    }
    if (flags != 0) return WireError::BadField;
    if (length > kMaxFramePayload) return WireError::Oversized;
    type = static_cast<FrameType>(type_tag);
    return WireError::None;
}

}  // namespace

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> payload) {
    const auto length = static_cast<std::uint32_t>(payload.size());
    std::uint8_t header[kFrameHeaderBytes];
    std::memcpy(header, &kFrameMagic, 4);
    header[4] = kWireVersion;
    header[5] = static_cast<std::uint8_t>(type);
    header[6] = header[7] = 0;  // flags, reserved
    std::memcpy(header + 8, &length, 4);
    out.insert(out.end(), header, header + kFrameHeaderBytes);
    out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<std::uint8_t> encode_frame(FrameType type,
                                       std::span<const std::uint8_t> payload) {
    std::vector<std::uint8_t> out;
    out.reserve(kFrameHeaderBytes + payload.size());
    append_frame(out, type, payload);
    return out;
}

std::vector<std::uint8_t> encode_hello(const Hello& hello) {
    WireWriter payload;
    payload.i32(hello.sender);
    payload.i32(hello.cluster_size);
    return payload.take();
}

std::vector<std::uint8_t> encode_hello_frame(const Hello& hello) {
    return encode_frame(FrameType::Hello, encode_hello(hello));
}

WireError decode_hello(std::span<const std::uint8_t> payload, Hello& out) {
    WireReader in(payload);
    out.sender = in.i32();
    out.cluster_size = in.i32();
    in.expect_end();
    if (in.ok() && (out.sender < 0 || out.cluster_size <= 0 ||
                    out.sender >= out.cluster_size)) {
        in.fail(WireError::BadField);
    }
    return in.error();
}

WireError decode_frame(std::span<const std::uint8_t> data, FrameType& type,
                       std::span<const std::uint8_t>& payload) {
    if (data.size() < kFrameHeaderBytes) return WireError::Truncated;
    WireReader in(data.first(kFrameHeaderBytes));
    std::uint32_t length = 0;
    if (const WireError e = check_header(in, type, length); e != WireError::None) return e;
    if (data.size() - kFrameHeaderBytes < length) return WireError::Truncated;
    if (data.size() - kFrameHeaderBytes > length) return WireError::TrailingBytes;
    payload = data.subspan(kFrameHeaderBytes, length);
    return WireError::None;
}

FrameParser::Result FrameParser::next(Frame& out) {
    if (error_ != WireError::None) return Result::Corrupt;
    // Compact once the consumed prefix dominates the buffer, so a long-lived
    // connection does not grow its buffer without bound.
    if (consumed_ > 0 && (consumed_ >= buf_.size() || consumed_ > (64u << 10))) {
        buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
        consumed_ = 0;
    }
    const std::span<const std::uint8_t> avail(buf_.data() + consumed_,
                                              buf_.size() - consumed_);
    if (avail.size() < kFrameHeaderBytes) return Result::NeedMore;
    WireReader in(avail.first(kFrameHeaderBytes));
    FrameType type{};
    std::uint32_t length = 0;
    if (const WireError e = check_header(in, type, length); e != WireError::None) {
        error_ = e;
        return Result::Corrupt;
    }
    if (avail.size() - kFrameHeaderBytes < length) return Result::NeedMore;
    out.type = type;
    out.payload = avail.subspan(kFrameHeaderBytes, length);
    consumed_ += kFrameHeaderBytes + length;
    return Result::Frame;
}

}  // namespace gossipc::wire
