#ifndef CREW_NET_FRAME_H_
#define CREW_NET_FRAME_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sim/network.h"

namespace crew::net {

/// One unit of the socket protocol. Every frame shares the envelope
///
///   [u32 length][u8 kind][body]
///
/// `length` (little-endian) covers everything after itself. Bodies are
/// varint/zigzag fields (common/binio.h), self-delimiting, with any
/// payload at the tail; DESIGN.md §5g/§5i give the exact layouts.
///
/// Kinds:
///  - kHello: first frame on every connection; identifies the sending
///    endpoint and its incarnation (bumped on process restart, which
///    tells the receiver to reset its dedup watermark). It also carries
///    the sender's message-type dictionary: the wi:: names in
///    dictionary-id order, so subsequent kData frames can encode their
///    type as one varint id (runtime/codec.h WireTypeId).
///  - kData: one sim::Message, tagged with a per-directed-endpoint-pair
///    sequence number. The sender retains the frame until acked and
///    replays retained frames after a reconnect; the receiver drops
///    sequence numbers at or below its watermark, so steady-state
///    delivery is exactly-once and crash-restart is at-least-once.
///  - kAck: cumulative receive watermark for the reverse direction,
///    scoped to the incarnation of the stream it acknowledges: the
///    receiver of the ACK drops it unless the incarnation matches its
///    own, so a watermark learned from a peer's *previous* life can
///    never discard frames of the restarted sequence space.
///  - kBatch: [varint count][count × complete inner envelopes]. One
///    superframe per poll wakeup coalesces all pending DATA frames of a
///    directed pair under a single length prefix (and a single write
///    syscall). Inner frames must exactly tile the body and must not
///    nest batches; a corrupt inner frame poisons only this stream. The
///    decoder unrolls batches, so it never pops a kBatch frame.
struct Frame {
  /// Byte values on the wire. They start at 4 because 1-3 once named kv
  /// text frames; decoders reject those as unknown kinds.
  enum class Kind : uint8_t {
    kHello = 4,
    kAck = 5,
    kData = 6,
    kBatch = 7,
  };

  Kind kind = Kind::kData;

  // kHello: sender process generation. kAck: generation of the acked
  // stream, as learned from that sender's HELLO.
  uint64_t incarnation = 0;

  // kHello
  std::string endpoint;  ///< sender's listening address
  /// kHello: the sender's local clock (runtime ticks) when the HELLO was
  /// built, or -1 when the sender has no clock installed. Receivers pair
  /// it with their own receive tick — one (send, recv) sample per
  /// connection establishment — and the trace merge step estimates
  /// per-process clock offsets from the bidirectional minima
  /// (NTP-style), which is what puts every shard on a common timeline.
  int64_t sent_ticks = -1;

  // kAck
  uint64_t watermark = 0;  ///< highest delivered seq, cumulative

  // kData
  uint64_t seq = 0;
  sim::Message message;  ///< carries trace_id / trace_sent_ticks when set
};

/// Frames larger than this poison the decoder (corrupt length prefix).
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Encodes one frame (kHello, kAck or kData) in its wire form.
std::string EncodeFrame(const Frame& frame);

/// Wraps already-encoded frames into one kBatch superframe.
std::string EncodeSuperframe(const std::vector<std::string>& frames);

/// Appends just the superframe envelope — [u32 length][kBatch][varint
/// count] — sized for `inner_bytes` of already-encoded inner frames that
/// the caller will append next. Lets the transport stage a batch without
/// collecting the frames into a temporary vector.
void AppendBatchHeader(std::string* out, size_t count, size_t inner_bytes);

/// InvalidArgument when a DATA frame carrying `message` could exceed
/// kMaxFrameBytes. The bound uses the worst-case DATA header: the
/// widest sequence number, the type inline rather than as a dictionary
/// id, and a trace id plus send tick. Senders must reject such messages
/// before admitting them to an outbound stream: the receiving decoder
/// treats an oversize length prefix as corruption and drops the
/// connection, and a retained oversize frame would then replay on every
/// reconnect forever.
Status CheckShippable(const sim::Message& message);

/// Incremental decoder: feed arbitrary byte slices exactly as read from
/// a socket — single bytes, half a length prefix, several concatenated
/// frames, whole superframes — and pop complete frames out in order. A
/// malformed frame poisons the stream permanently (the transport drops
/// the connection).
class FrameDecoder {
 public:
  void Feed(std::string_view bytes);

  /// Moves the next complete frame into *out. Returns false when no
  /// complete frame is buffered or the stream is poisoned (check ok()).
  bool Next(Frame* out);

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  size_t buffered_bytes() const { return buffer_.size() - offset_; }

 private:
  /// Decodes one envelope out of the buffer into ready_. Returns false
  /// when more bytes are needed or the stream poisoned.
  bool DecodeOne();
  /// Parses one frame body (bytes after the kind byte). kBatch is not a
  /// body kind — DecodeOne unrolls it.
  bool ParseBody(Frame::Kind kind, const char* body, size_t body_len,
                 Frame* out);

  std::string buffer_;
  size_t offset_ = 0;
  Status status_;
  std::deque<Frame> ready_;
  /// Message-type dictionary declared by the peer's HELLO (dictionary
  /// id -> type name), used to resolve kData type ids.
  std::vector<std::string> type_dict_;
};

}  // namespace crew::net

#endif  // CREW_NET_FRAME_H_
