#include "net/frame.h"

#include <cstring>

#include "common/binio.h"
#include "runtime/codec.h"
#include "sim/metrics.h"

namespace crew::net {
namespace {

void PutU32(std::string* out, uint32_t v) {
  char bytes[4];
  bytes[0] = static_cast<char>(v & 0xff);
  bytes[1] = static_cast<char>((v >> 8) & 0xff);
  bytes[2] = static_cast<char>((v >> 16) & 0xff);
  bytes[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(bytes, 4);
}

uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

std::string AssembleEnvelope(Frame::Kind kind, std::string_view body,
                             std::string_view payload = {}) {
  std::string out;
  out.reserve(4 + 1 + body.size() + payload.size());
  PutU32(&out, static_cast<uint32_t>(1 + body.size() + payload.size()));
  out.push_back(static_cast<char>(kind));
  out.append(body);
  out.append(payload);
  return out;
}

// kData flags byte.
constexpr uint8_t kDataFlagTraced = 1;      // trace_id + sent_ticks follow
constexpr uint8_t kDataFlagInlineType = 2;  // type rides as bytes, not id

}  // namespace

std::string EncodeFrame(const Frame& frame) {
  std::string body;
  switch (frame.kind) {
    case Frame::Kind::kHello: {
      // HELLO carries the sender's type dictionary: names in id order.
      size_t dict = runtime::WireTypeCount();
      size_t bound = 3 * kMaxVarintBytes +
                     BytesBound(frame.endpoint);
      for (size_t i = 0; i < dict; ++i) {
        bound += BytesBound(runtime::WireTypeName(i));
      }
      BinWriter w(&body, bound);
      w.Varint(frame.incarnation);
      w.Zig(frame.sent_ticks);
      w.Bytes(frame.endpoint);
      w.Varint(dict);
      for (size_t i = 0; i < dict; ++i) {
        w.Bytes(runtime::WireTypeName(i));
      }
      w.Finish();
      return AssembleEnvelope(Frame::Kind::kHello, body);
    }
    case Frame::Kind::kAck: {
      BinWriter w(&body, 2 * kMaxVarintBytes);
      w.Varint(frame.watermark);
      w.Varint(frame.incarnation);
      w.Finish();
      return AssembleEnvelope(Frame::Kind::kAck, body);
    }
    case Frame::Kind::kData:
    case Frame::Kind::kBatch: {
      int type_id = runtime::WireTypeId(frame.message.type);
      const bool traced = frame.message.trace_id != 0;
      uint8_t flags = (traced ? kDataFlagTraced : 0) |
                      (type_id < 0 ? kDataFlagInlineType : 0);
      size_t bound = 2 + 5 * kMaxVarintBytes +
                     BytesBound(frame.message.type) +
                     2 * kMaxVarintBytes;
      BinWriter w(&body, bound);
      w.U8(flags);
      w.Varint(frame.seq);
      w.Zig(frame.message.from);
      w.Zig(frame.message.to);
      w.U8(static_cast<uint8_t>(frame.message.category));
      if (type_id < 0) {
        w.Bytes(frame.message.type);
      } else {
        w.Varint(static_cast<uint64_t>(type_id));
      }
      if (traced) {
        w.Varint(frame.message.trace_id);
        w.Zig(frame.message.trace_sent_ticks);
      }
      w.Finish();
      return AssembleEnvelope(Frame::Kind::kData, body,
                              frame.message.payload);
    }
  }
  return {};
}

void AppendBatchHeader(std::string* out, size_t count, size_t inner_bytes) {
  char cnt[kMaxVarintBytes];
  size_t n = 0;
  uint64_t v = count;
  while (v >= 0x80) {
    cnt[n++] = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  cnt[n++] = static_cast<char>(v);
  PutU32(out, static_cast<uint32_t>(1 + n + inner_bytes));
  out->push_back(static_cast<char>(Frame::Kind::kBatch));
  out->append(cnt, n);
}

std::string EncodeSuperframe(const std::vector<std::string>& frames) {
  size_t inner = 0;
  for (const std::string& f : frames) inner += f.size();
  std::string out;
  out.reserve(4 + 1 + kMaxVarintBytes + inner);
  AppendBatchHeader(&out, frames.size(), inner);
  for (const std::string& f : frames) out += f;
  return out;
}

Status CheckShippable(const sim::Message& message) {
  // The widest DATA header EncodeFrame can write for this message: any
  // sequence number (held messages are sequenced only on recovery, so
  // the seq is not known yet), the type inline instead of as a
  // dictionary id, and the trace id plus send tick the transport may
  // add after admission. A batch never grows past its policy cap, which
  // is far below the frame limit, so only the bare frame needs checking.
  size_t header = 1 /* flags */ + kMaxVarintBytes /* seq */ +
                  2 * kMaxVarintBytes /* from, to */ +
                  1 /* category */ + BytesBound(message.type) +
                  2 * kMaxVarintBytes /* trace id, sent ticks */;
  size_t length = 1 /* kind */ + header + message.payload.size();
  if (length > kMaxFrameBytes) {
    return Status::InvalidArgument(
        "message frame of up to " + std::to_string(length) +
        " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
        "-byte frame limit");
  }
  return Status::OK();
}

void FrameDecoder::Feed(std::string_view bytes) {
  if (!status_.ok()) return;
  // Compact once the consumed prefix dominates the buffer, so a
  // long-lived connection doesn't grow its buffer without bound.
  if (offset_ > 4096 && offset_ > buffer_.size() / 2) {
    buffer_.erase(0, offset_);
    offset_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
}

bool FrameDecoder::Next(Frame* out) {
  if (!status_.ok()) return false;
  while (ready_.empty()) {
    if (!DecodeOne()) return false;
  }
  *out = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

bool FrameDecoder::DecodeOne() {
  if (buffer_.size() - offset_ < 4) return false;
  const char* base = buffer_.data() + offset_;
  uint32_t length = GetU32(base);
  if (length < 2 || length > kMaxFrameBytes) {
    status_ = Status::Corruption("bad frame length " +
                                 std::to_string(length));
    return false;
  }
  if (buffer_.size() - offset_ < 4 + static_cast<size_t>(length)) {
    return false;  // frame split across reads: wait for the rest
  }
  const char* body = base + 4;
  auto kind = static_cast<Frame::Kind>(static_cast<unsigned char>(body[0]));
  size_t body_len = length - 1;
  offset_ += 4 + static_cast<size_t>(length);

  if (kind == Frame::Kind::kBatch) {
    // A superframe: [varint count][count inner envelopes], which must
    // exactly tile the body. Inner batches are forbidden (no nesting).
    BinReader r(std::string_view(body + 1, body_len));
    uint64_t count;
    if (!r.Varint(&count)) {
      status_ = Status::Corruption("malformed batch header");
      return false;
    }
    const char* p = body + 1 + (body_len - r.remaining());
    size_t rest = r.remaining();
    for (uint64_t i = 0; i < count; ++i) {
      if (rest < 5) {
        status_ = Status::Corruption("batch truncated mid-frame");
        return false;
      }
      uint32_t inner_len = GetU32(p);
      if (inner_len < 2 || 4 + static_cast<size_t>(inner_len) > rest) {
        status_ = Status::Corruption("bad inner frame length " +
                                     std::to_string(inner_len));
        return false;
      }
      auto inner_kind =
          static_cast<Frame::Kind>(static_cast<unsigned char>(p[4]));
      if (inner_kind == Frame::Kind::kBatch) {
        status_ = Status::Corruption("nested batch frame");
        return false;
      }
      Frame frame;
      if (!ParseBody(inner_kind, p + 5, inner_len - 1, &frame)) {
        return false;
      }
      ready_.push_back(std::move(frame));
      p += 4 + static_cast<size_t>(inner_len);
      rest -= 4 + static_cast<size_t>(inner_len);
    }
    if (rest != 0) {
      status_ = Status::Corruption("batch body not exactly tiled by frames");
      return false;
    }
    return true;
  }

  Frame frame;
  if (!ParseBody(kind, body + 1, body_len, &frame)) return false;
  ready_.push_back(std::move(frame));
  return true;
}

bool FrameDecoder::ParseBody(Frame::Kind kind, const char* body,
                             size_t body_len, Frame* out) {
  BinReader r(std::string_view(body, body_len));
  switch (kind) {
    case Frame::Kind::kHello: {
      uint64_t incarnation, count;
      int64_t ticks;
      std::string_view endpoint;
      if (!r.Varint(&incarnation) || !r.Zig(&ticks) || !r.Bytes(&endpoint) ||
          !r.Varint(&count) || count > r.remaining()) {
        status_ = Status::Corruption("malformed hello frame");
        return false;
      }
      std::vector<std::string> dict;
      dict.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        std::string_view name;
        if (!r.Bytes(&name)) {
          status_ = Status::Corruption("malformed hello dictionary");
          return false;
        }
        dict.emplace_back(name);
      }
      if (!r.done()) {
        status_ = Status::Corruption("trailing bytes in hello frame");
        return false;
      }
      out->kind = Frame::Kind::kHello;
      out->incarnation = incarnation;
      out->sent_ticks = ticks;
      out->endpoint.assign(endpoint);
      type_dict_ = std::move(dict);
      return true;
    }
    case Frame::Kind::kAck: {
      uint64_t watermark, incarnation;
      if (!r.Varint(&watermark) || !r.Varint(&incarnation) || !r.done()) {
        status_ = Status::Corruption("malformed ack frame");
        return false;
      }
      out->kind = Frame::Kind::kAck;
      out->watermark = watermark;
      out->incarnation = incarnation;
      return true;
    }
    case Frame::Kind::kData: {
      uint8_t flags, category;
      uint64_t seq;
      int64_t from, to;
      if (!r.U8(&flags) || !r.Varint(&seq) || !r.Zig(&from) || !r.Zig(&to) ||
          !r.U8(&category) || category >= sim::kNumMsgCategories) {
        status_ = Status::Corruption("malformed data frame");
        return false;
      }
      out->kind = Frame::Kind::kData;
      out->seq = seq;
      out->message.from = static_cast<NodeId>(from);
      out->message.to = static_cast<NodeId>(to);
      out->message.category = static_cast<sim::MsgCategory>(category);
      if (flags & kDataFlagInlineType) {
        std::string_view type;
        if (!r.Bytes(&type)) {
          status_ = Status::Corruption("malformed data frame type");
          return false;
        }
        out->message.type.assign(type);
      } else {
        uint64_t id;
        if (!r.Varint(&id) || id >= type_dict_.size()) {
          status_ = Status::Corruption("data frame type id outside the "
                                       "dictionary declared by hello");
          return false;
        }
        out->message.type = type_dict_[id];
      }
      if (flags & kDataFlagTraced) {
        uint64_t trace_id;
        int64_t sent;
        if (!r.Varint(&trace_id) || !r.Zig(&sent)) {
          status_ = Status::Corruption("malformed data frame trace");
          return false;
        }
        out->message.trace_id = trace_id;
        out->message.trace_sent_ticks = sent;
      }
      // Everything after the header is the payload, zero parsing needed.
      out->message.payload.assign(body + (body_len - r.remaining()),
                                  r.remaining());
      return true;
    }
    default:
      status_ = Status::Corruption("unknown frame kind " +
                                   std::to_string(static_cast<int>(kind)));
      return false;
  }
}

}  // namespace crew::net
