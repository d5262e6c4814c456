// Property tests for the wire formats: randomly generated packets and
// messages must round-trip exactly, and parsers must survive random
// mutations of valid payloads (reject or parse, never crash). The last
// section stress-tests the socket framing layer (net/frame.h) against
// arbitrary TCP-style re-segmentation of the byte stream.
#include <gtest/gtest.h>

#include <limits>

#include "common/binio.h"
#include "common/rng.h"
#include "net/frame.h"
#include "runtime/codec.h"
#include "runtime/packet.h"
#include "runtime/wire.h"

namespace crew::runtime {
namespace {

Value RandomValue(Rng* rng) {
  switch (rng->Index(5)) {
    case 0: return Value();
    case 1: return Value(rng->Bernoulli(0.5));
    case 2: return Value(rng->Uniform(-1'000'000, 1'000'000));
    case 3: return Value(rng->NextDouble() * 1e6 - 5e5);
    default: {
      std::string s;
      int64_t length = rng->Uniform(0, 20);
      for (int64_t i = 0; i < length; ++i) {
        // Include separators, quotes and newlines to stress escaping.
        const char alphabet[] =
            "abcXYZ019 ;,=\"\\\n@#(){}";
        s += alphabet[rng->Index(sizeof(alphabet) - 1)];
      }
      return Value(s);
    }
  }
}

WorkflowPacket RandomPacket(Rng* rng) {
  WorkflowPacket p;
  p.instance.workflow = "WF" + std::to_string(rng->Uniform(0, 30));
  p.instance.number = rng->Uniform(1, 1'000'000);
  p.target_step = static_cast<StepId>(rng->Uniform(1, 40));
  p.epoch = rng->Uniform(0, 12);
  int64_t items = rng->Uniform(0, 12);
  for (int64_t i = 0; i < items; ++i) {
    p.data["S" + std::to_string(i) + ".O1"] = RandomValue(rng);
  }
  int64_t events = rng->Uniform(0, 10);
  for (int64_t i = 0; i < events; ++i) {
    p.events.push_back({"S" + std::to_string(i) + ".done",
                        rng->Uniform(1, 5), rng->Uniform(0, 3)});
  }
  int64_t by = rng->Uniform(0, 6);
  for (int64_t i = 0; i < by; ++i) {
    p.executed_by[static_cast<StepId>(i + 1)] =
        static_cast<NodeId>(rng->Uniform(1, 100));
  }
  if (rng->Bernoulli(0.5)) {
    p.ro_links.push_back({{"WF9", rng->Uniform(1, 9)},
                          static_cast<StepId>(rng->Uniform(1, 9)),
                          static_cast<StepId>(rng->Uniform(1, 9)),
                          rng->Bernoulli(0.5)});
  }
  if (rng->Bernoulli(0.3)) {
    p.rd_links.push_back({{"WF3", rng->Uniform(1, 9)},
                          static_cast<StepId>(rng->Uniform(1, 9)),
                          static_cast<StepId>(rng->Uniform(1, 9))});
  }
  return p;
}

TEST(SerdeProperty, RandomPacketsRoundTripExactly) {
  Rng rng(2026);
  for (int trial = 0; trial < 300; ++trial) {
    WorkflowPacket p = RandomPacket(&rng);
    Result<WorkflowPacket> q = WorkflowPacket::Parse(p.Serialize());
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ(q.value().instance, p.instance);
    EXPECT_EQ(q.value().target_step, p.target_step);
    EXPECT_EQ(q.value().epoch, p.epoch);
    EXPECT_EQ(q.value().data, p.data);
    ASSERT_EQ(q.value().events.size(), p.events.size());
    for (size_t i = 0; i < p.events.size(); ++i) {
      EXPECT_EQ(q.value().events[i].token, p.events[i].token);
      EXPECT_EQ(q.value().events[i].occ, p.events[i].occ);
      EXPECT_EQ(q.value().events[i].epoch, p.events[i].epoch);
    }
    EXPECT_EQ(q.value().executed_by, p.executed_by);
    EXPECT_EQ(q.value().ro_links.size(), p.ro_links.size());
    EXPECT_EQ(q.value().rd_links.size(), p.rd_links.size());
  }
}

TEST(SerdeProperty, MutatedPayloadsNeverCrashParsers) {
  Rng rng(4096);
  for (int trial = 0; trial < 300; ++trial) {
    std::string payload = RandomPacket(&rng).Serialize();
    // Apply 1-4 random byte mutations.
    int64_t mutations = rng.Uniform(1, 4);
    for (int64_t m = 0; m < mutations && !payload.empty(); ++m) {
      size_t pos = rng.Index(payload.size());
      switch (rng.Index(3)) {
        case 0:
          payload[pos] = static_cast<char>(rng.Uniform(32, 126));
          break;
        case 1:
          payload.erase(pos, 1);
          break;
        default:
          payload.insert(pos, 1,
                         static_cast<char>(rng.Uniform(32, 126)));
      }
    }
    // Must not crash; outcome (ok or error) is free.
    (void)WorkflowPacket::Parse(payload);
    (void)WorkflowStartMsg::Parse(payload);
    (void)WorkflowRollbackMsg::Parse(payload);
    (void)CompensateSetMsg::Parse(payload);
    (void)StepCompletedMsg::Parse(payload);
    (void)RunProgramMsg::Parse(payload);
  }
}

TEST(SerdeProperty, NestedPacketEscapingSurvivesHostileStrings) {
  // Rollback messages embed a serialized packet as one length-prefixed
  // field; data values full of backslashes and newlines must survive.
  WorkflowRollbackMsg m;
  m.instance = {"WF1", 1};
  m.origin_step = 2;
  m.new_epoch = 5;
  m.state.instance = m.instance;
  m.state.target_step = 2;
  m.state.data["S1.O1"] = Value("\\n\\\\weird\n\\\nmix\\n");
  m.state.data["S1.O2"] = Value("line1\nline2\nline3");
  Result<WorkflowRollbackMsg> parsed =
      WorkflowRollbackMsg::Parse(m.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().state.data.at("S1.O1"),
            Value("\\n\\\\weird\n\\\nmix\\n"));
  EXPECT_EQ(parsed.value().state.data.at("S1.O2"),
            Value("line1\nline2\nline3"));
}

TEST(SerdeProperty, RandomValuesRoundTrip) {
  // The edges first: a whole double keeps its kind, and the integer
  // and double extremes survive.
  std::vector<Value> values = {
      Value(4.0),
      Value(int64_t{4}),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max()),
      Value(-std::numeric_limits<double>::infinity()),
      Value(std::numeric_limits<double>::denorm_min()),
      Value(""),
  };
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) values.push_back(RandomValue(&rng));
  for (const Value& v : values) {
    std::string bytes;
    BinWriter w(&bytes, ValueBound(v));
    WriteValue(w, v);
    w.Finish();
    BinReader r(bytes);
    Value back;
    ASSERT_TRUE(ReadValue(r, &back)) << v.ToString();
    EXPECT_TRUE(r.done()) << v.ToString();
    EXPECT_EQ(back, v) << v.ToString();
    EXPECT_EQ(back.kind(), v.kind()) << v.ToString();
  }
}

// ---------------------------------------------------------------------------
// Socket framing: a stream of encoded frames must decode to the exact
// same frame sequence no matter how the bytes are re-chunked — single
// byte dribble, cuts inside the length prefix, several frames coalesced
// into one read. This is what a TCP/UDS receive path actually sees.

net::Frame RandomFrame(Rng* rng) {
  net::Frame frame;
  switch (rng->Index(3)) {
    case 0: {
      frame.kind = net::Frame::Kind::kHello;
      frame.endpoint = "unix:/tmp/ep" + std::to_string(rng->Uniform(0, 9)) +
                       ".sock";
      frame.incarnation = static_cast<uint64_t>(rng->Uniform(1, 1 << 20));
      // Clock-alignment stamp rides on HELLO; -1 (absent) must survive too.
      if (rng->Index(2) == 0) {
        frame.sent_ticks = rng->Uniform(0, 1 << 30);
      }
      break;
    }
    case 1: {
      frame.kind = net::Frame::Kind::kAck;
      frame.watermark = static_cast<uint64_t>(rng->Uniform(0, 1 << 30));
      frame.incarnation = static_cast<uint64_t>(rng->Uniform(1, 1 << 20));
      break;
    }
    default: {
      frame.kind = net::Frame::Kind::kData;
      frame.seq = static_cast<uint64_t>(rng->Uniform(1, 1 << 30));
      frame.message.from = static_cast<NodeId>(rng->Uniform(0, 64));
      frame.message.to = static_cast<NodeId>(rng->Uniform(0, 64));
      frame.message.type = "wi" + std::to_string(rng->Uniform(0, 30));
      frame.message.category = static_cast<sim::MsgCategory>(
          rng->Index(sim::kNumMsgCategories));
      // Trace context is optional: id 0 means untraced (fields elided
      // on the wire) and the send stamp then stays at its default.
      if (rng->Index(2) == 0) {
        frame.message.trace_id =
            (static_cast<uint64_t>(rng->Uniform(1, 1 << 16)) << 48) |
            static_cast<uint64_t>(rng->Uniform(1, 1 << 30));
        frame.message.trace_sent_ticks = rng->Uniform(0, 1 << 30);
      }
      // Payloads are raw bytes behind the header: stress newlines, NULs,
      // '=' and high bytes (a serialized packet is a benign subset).
      int64_t length = rng->Uniform(0, 300);
      for (int64_t i = 0; i < length; ++i) {
        frame.message.payload.push_back(
            static_cast<char>(rng->Uniform(0, 255)));
      }
      break;
    }
  }
  return frame;
}

void ExpectSameFrame(const net::Frame& got, const net::Frame& want,
                     int index) {
  ASSERT_EQ(static_cast<int>(got.kind), static_cast<int>(want.kind))
      << "frame " << index;
  switch (want.kind) {
    case net::Frame::Kind::kHello:
      EXPECT_EQ(got.endpoint, want.endpoint) << "frame " << index;
      EXPECT_EQ(got.incarnation, want.incarnation) << "frame " << index;
      EXPECT_EQ(got.sent_ticks, want.sent_ticks) << "frame " << index;
      break;
    case net::Frame::Kind::kAck:
      EXPECT_EQ(got.watermark, want.watermark) << "frame " << index;
      EXPECT_EQ(got.incarnation, want.incarnation) << "frame " << index;
      break;
    case net::Frame::Kind::kData:
      EXPECT_EQ(got.seq, want.seq) << "frame " << index;
      EXPECT_EQ(got.message.from, want.message.from) << "frame " << index;
      EXPECT_EQ(got.message.to, want.message.to) << "frame " << index;
      EXPECT_EQ(got.message.type, want.message.type) << "frame " << index;
      EXPECT_EQ(static_cast<int>(got.message.category),
                static_cast<int>(want.message.category))
          << "frame " << index;
      EXPECT_EQ(got.message.payload, want.message.payload)
          << "frame " << index;
      EXPECT_EQ(got.message.trace_id, want.message.trace_id)
          << "frame " << index;
      EXPECT_EQ(got.message.trace_sent_ticks, want.message.trace_sent_ticks)
          << "frame " << index;
      break;
    default:
      // The decoder unrolls batches; a kBatch frame must never escape it.
      FAIL() << "unexpected frame kind " << static_cast<int>(want.kind);
  }
}

TEST(FrameProperty, RandomSplitsReproduceExactSequence) {
  Rng rng(7171);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<net::Frame> frames;
    std::string stream;
    int64_t count = rng.Uniform(1, 12);
    for (int64_t i = 0; i < count; ++i) {
      frames.push_back(RandomFrame(&rng));
      stream += net::EncodeFrame(frames.back());
    }
    net::FrameDecoder decoder;
    std::vector<net::Frame> decoded;
    size_t offset = 0;
    while (offset < stream.size()) {
      // Chunk sizes from 1 byte (dribble; cuts every length prefix and
      // header in half at some point) up to several whole frames.
      size_t chunk = static_cast<size_t>(rng.Uniform(1, 64));
      chunk = std::min(chunk, stream.size() - offset);
      decoder.Feed(std::string_view(stream).substr(offset, chunk));
      offset += chunk;
      net::Frame frame;
      while (decoder.Next(&frame)) decoded.push_back(std::move(frame));
      ASSERT_TRUE(decoder.ok()) << decoder.status().ToString();
    }
    ASSERT_EQ(decoded.size(), frames.size());
    for (size_t i = 0; i < frames.size(); ++i) {
      ExpectSameFrame(decoded[i], frames[i], static_cast<int>(i));
    }
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

TEST(FrameProperty, OneByteDribbleDecodesEveryFrame) {
  Rng rng(515);
  std::vector<net::Frame> frames;
  std::string stream;
  for (int i = 0; i < 8; ++i) {
    frames.push_back(RandomFrame(&rng));
    stream += net::EncodeFrame(frames.back());
  }
  net::FrameDecoder decoder;
  std::vector<net::Frame> decoded;
  for (char byte : stream) {
    decoder.Feed(std::string_view(&byte, 1));
    net::Frame frame;
    while (decoder.Next(&frame)) decoded.push_back(std::move(frame));
    ASSERT_TRUE(decoder.ok());
  }
  ASSERT_EQ(decoded.size(), frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    ExpectSameFrame(decoded[i], frames[i], static_cast<int>(i));
  }
}

TEST(FrameProperty, CutInsideLengthPrefixYieldsNothingUntilComplete) {
  net::Frame frame;
  frame.kind = net::Frame::Kind::kData;
  frame.seq = 9;
  frame.message.from = 1;
  frame.message.to = 2;
  frame.message.type = "wiWorkflowPacket";
  frame.message.payload = "k=v\nnested=line\n";
  std::string bytes = net::EncodeFrame(frame);

  net::FrameDecoder decoder;
  net::Frame out;
  // First two bytes of the u32 length prefix only.
  decoder.Feed(std::string_view(bytes).substr(0, 2));
  EXPECT_FALSE(decoder.Next(&out));
  EXPECT_TRUE(decoder.ok());
  // Rest of the prefix plus half the body.
  decoder.Feed(std::string_view(bytes).substr(2, bytes.size() / 2));
  EXPECT_FALSE(decoder.Next(&out));
  EXPECT_TRUE(decoder.ok());
  // Remainder: exactly one frame pops out.
  decoder.Feed(std::string_view(bytes).substr(2 + bytes.size() / 2));
  ASSERT_TRUE(decoder.Next(&out));
  ExpectSameFrame(out, frame, 0);
  EXPECT_FALSE(decoder.Next(&out));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameProperty, ConcatenatedFramesDecodeInOneFeed) {
  Rng rng(81);
  std::vector<net::Frame> frames;
  std::string stream;
  for (int i = 0; i < 10; ++i) {
    frames.push_back(RandomFrame(&rng));
    stream += net::EncodeFrame(frames.back());
  }
  net::FrameDecoder decoder;
  decoder.Feed(stream);
  net::Frame out;
  for (size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE(decoder.Next(&out)) << "frame " << i;
    ExpectSameFrame(out, frames[i], static_cast<int>(i));
  }
  EXPECT_FALSE(decoder.Next(&out));
  EXPECT_TRUE(decoder.ok());
}

// ---------------------------------------------------------------------------
// Superframes (kBatch): the same re-chunking guarantees must hold when
// frames are coalesced under one envelope.

TEST(FrameProperty, DictionaryTypedDataNeedsTheHello) {
  // A DATA frame whose type is in the HELLO dictionary encodes it as one
  // varint id; the decoder must resolve it back to the name.
  net::Frame hello;
  hello.kind = net::Frame::Kind::kHello;
  hello.endpoint = "unix:/tmp/a.sock";
  hello.incarnation = 3;
  net::Frame data;
  data.kind = net::Frame::Kind::kData;
  data.seq = 1;
  data.message.from = 1;
  data.message.to = 2;
  data.message.type = WireTypeName(0);  // a real dictionary name
  data.message.payload = "x";
  ASSERT_GE(WireTypeId(data.message.type), 0);

  net::FrameDecoder decoder;
  decoder.Feed(net::EncodeFrame(hello));
  decoder.Feed(net::EncodeFrame(data));
  net::Frame out;
  ASSERT_TRUE(decoder.Next(&out));
  EXPECT_EQ(out.kind, net::Frame::Kind::kHello);
  ASSERT_TRUE(decoder.Next(&out));
  ExpectSameFrame(out, data, 1);

  // Without the HELLO the dictionary id is undefined -> poisoned stream.
  net::FrameDecoder cold;
  cold.Feed(net::EncodeFrame(data));
  EXPECT_FALSE(cold.Next(&out));
  EXPECT_FALSE(cold.ok());
}

TEST(FrameProperty, SuperframeOneByteDribbleDecodesEveryInnerFrame) {
  Rng rng(424242);
  std::vector<net::Frame> frames;
  std::vector<std::string> encoded;
  for (int i = 0; i < 6; ++i) {
    net::Frame frame = RandomFrame(&rng);
    frames.push_back(frame);
    encoded.push_back(net::EncodeFrame(frame));
  }
  std::string stream = net::EncodeSuperframe(encoded);
  net::FrameDecoder decoder;
  std::vector<net::Frame> decoded;
  for (char byte : stream) {
    decoder.Feed(std::string_view(&byte, 1));
    net::Frame frame;
    while (decoder.Next(&frame)) decoded.push_back(std::move(frame));
    ASSERT_TRUE(decoder.ok()) << decoder.status().ToString();
  }
  ASSERT_EQ(decoded.size(), frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    ExpectSameFrame(decoded[i], frames[i], static_cast<int>(i));
  }
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameProperty, SuperframeCutInsideLengthPrefixYieldsNothing) {
  Rng rng(90125);
  std::vector<std::string> encoded;
  std::vector<net::Frame> frames;
  for (int i = 0; i < 3; ++i) {
    frames.push_back(RandomFrame(&rng));
    encoded.push_back(net::EncodeFrame(frames[i]));
  }
  std::string bytes = net::EncodeSuperframe(encoded);
  net::FrameDecoder decoder;
  net::Frame out;
  // Two bytes of the superframe's u32 length prefix only.
  decoder.Feed(std::string_view(bytes).substr(0, 2));
  EXPECT_FALSE(decoder.Next(&out));
  EXPECT_TRUE(decoder.ok());
  // Up to the middle of the second inner frame.
  size_t mid = 5 + encoded[0].size() + encoded[1].size() / 2;
  decoder.Feed(std::string_view(bytes).substr(2, mid - 2));
  EXPECT_FALSE(decoder.Next(&out));
  EXPECT_TRUE(decoder.ok());
  // Remainder: all three inner frames pop at once.
  decoder.Feed(std::string_view(bytes).substr(mid));
  for (size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE(decoder.Next(&out)) << "frame " << i;
    ExpectSameFrame(out, frames[i], static_cast<int>(i));
  }
  EXPECT_FALSE(decoder.Next(&out));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameProperty, CoalescedSuperframesAndBareFramesInterleave) {
  Rng rng(171717);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<net::Frame> frames;
    std::string stream;
    int64_t groups = rng.Uniform(1, 6);
    for (int64_t g = 0; g < groups; ++g) {
      if (rng.Bernoulli(0.4)) {
        // Bare frame between batches.
        frames.push_back(RandomFrame(&rng));
        stream += net::EncodeFrame(frames.back());
        continue;
      }
      std::vector<std::string> encoded;
      int64_t count = rng.Uniform(1, 6);
      for (int64_t i = 0; i < count; ++i) {
        frames.push_back(RandomFrame(&rng));
        encoded.push_back(net::EncodeFrame(frames.back()));
      }
      stream += net::EncodeSuperframe(encoded);
    }
    net::FrameDecoder decoder;
    std::vector<net::Frame> decoded;
    size_t offset = 0;
    while (offset < stream.size()) {
      size_t chunk = static_cast<size_t>(rng.Uniform(1, 128));
      chunk = std::min(chunk, stream.size() - offset);
      decoder.Feed(std::string_view(stream).substr(offset, chunk));
      offset += chunk;
      net::Frame frame;
      while (decoder.Next(&frame)) decoded.push_back(std::move(frame));
      ASSERT_TRUE(decoder.ok()) << decoder.status().ToString();
    }
    ASSERT_EQ(decoded.size(), frames.size());
    for (size_t i = 0; i < frames.size(); ++i) {
      ExpectSameFrame(decoded[i], frames[i], static_cast<int>(i));
    }
  }
}

TEST(FrameProperty, AppendBatchHeaderMatchesEncodeSuperframe) {
  Rng rng(5150);
  std::vector<std::string> encoded;
  size_t inner_bytes = 0;
  for (int i = 0; i < 9; ++i) {
    encoded.push_back(
        net::EncodeFrame(RandomFrame(&rng)));
    inner_bytes += encoded.back().size();
  }
  std::string incremental;
  net::AppendBatchHeader(&incremental, encoded.size(), inner_bytes);
  for (const std::string& f : encoded) incremental += f;
  EXPECT_EQ(incremental, net::EncodeSuperframe(encoded));
}

TEST(FrameProperty, CorruptInnerFramePoisonsOnlyThatStream) {
  Rng rng(31337);
  std::vector<std::string> encoded;
  for (int i = 0; i < 4; ++i) {
    net::Frame frame = RandomFrame(&rng);
    frame.kind = net::Frame::Kind::kData;  // force bodies with payloads
    encoded.push_back(net::EncodeFrame(frame));
  }
  // Corrupt the second inner frame's kind byte to an unknown value. The
  // superframe header is [u32 len][kind][varint count] = 6 bytes here,
  // and the kind byte sits 4 bytes into an inner envelope.
  std::string bad = net::EncodeSuperframe(encoded);
  size_t second_kind = 6 + encoded[0].size() + 4;
  bad[second_kind] = '\x2f';
  net::FrameDecoder poisoned;
  poisoned.Feed(bad);
  net::Frame out;
  while (poisoned.Next(&out)) {
  }
  EXPECT_FALSE(poisoned.ok());
  // Poisoned for good.
  poisoned.Feed(net::EncodeSuperframe(encoded));
  EXPECT_FALSE(poisoned.Next(&out));

  // An independent decoder (another connection) is untouched: the same
  // batch uncorrupted decodes fully.
  net::FrameDecoder clean;
  clean.Feed(net::EncodeSuperframe(encoded));
  int count = 0;
  while (clean.Next(&out)) ++count;
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(count, 4);
}

TEST(FrameProperty, NestedBatchIsRejected) {
  Rng rng(808);
  std::vector<std::string> inner = {
      net::EncodeFrame(RandomFrame(&rng))};
  std::vector<std::string> nested = {net::EncodeSuperframe(inner)};
  net::FrameDecoder decoder;
  decoder.Feed(net::EncodeSuperframe(nested));
  net::Frame out;
  EXPECT_FALSE(decoder.Next(&out));
  EXPECT_FALSE(decoder.ok());
}

TEST(FrameProperty, BatchNotExactlyTiledIsRejected) {
  Rng rng(6502);
  std::vector<std::string> encoded = {
      net::EncodeFrame(RandomFrame(&rng))};
  std::string bytes = net::EncodeSuperframe(encoded);
  // Declare one extra body byte in the superframe length and append it:
  // the inner frames no longer tile the body exactly.
  uint32_t length = static_cast<uint8_t>(bytes[0]) |
                    (static_cast<uint8_t>(bytes[1]) << 8) |
                    (static_cast<uint8_t>(bytes[2]) << 16) |
                    (static_cast<uint8_t>(bytes[3]) << 24);
  ++length;
  bytes[0] = static_cast<char>(length & 0xff);
  bytes[1] = static_cast<char>((length >> 8) & 0xff);
  bytes[2] = static_cast<char>((length >> 16) & 0xff);
  bytes[3] = static_cast<char>((length >> 24) & 0xff);
  bytes.push_back('\x00');
  net::FrameDecoder decoder;
  decoder.Feed(bytes);
  net::Frame out;
  while (decoder.Next(&out)) {
  }
  EXPECT_FALSE(decoder.ok());
}

TEST(FrameProperty, CorruptLengthPoisonsStream) {
  net::Frame frame;
  frame.kind = net::Frame::Kind::kAck;
  frame.watermark = 3;
  std::string bytes = net::EncodeFrame(frame);
  bytes[3] = '\xff';  // implausible frame length
  net::FrameDecoder decoder;
  decoder.Feed(bytes);
  net::Frame out;
  EXPECT_FALSE(decoder.Next(&out));
  EXPECT_FALSE(decoder.ok());
  // Poisoned for good: further feeds stay rejected.
  decoder.Feed(net::EncodeFrame(frame));
  EXPECT_FALSE(decoder.Next(&out));
  EXPECT_FALSE(decoder.ok());
}

// CheckShippable admits exactly what fits: the largest payload it
// accepts, sent with the widest sequence number, an inline type and a
// full trace context, still passes the decoder's frame-length check,
// and one more payload byte is refused at admission.
TEST(FrameProperty, CheckShippableBoundHoldsAtTheFrameLimit) {
  net::Frame frame;
  frame.kind = net::Frame::Kind::kData;
  frame.seq = std::numeric_limits<uint64_t>::max();
  frame.message.from = 1;
  frame.message.to = 2;
  frame.message.type = "TypeOutsideTheDictionary";
  ASSERT_LT(WireTypeId(frame.message.type), 0);
  frame.message.category = sim::MsgCategory::kAdmin;
  frame.message.trace_id = std::numeric_limits<uint64_t>::max();
  frame.message.trace_sent_ticks = std::numeric_limits<int64_t>::min();
  frame.message.payload.assign(net::kMaxFrameBytes, 'x');
  while (!net::CheckShippable(frame.message).ok()) {
    frame.message.payload.pop_back();
  }
  ASSERT_GT(frame.message.payload.size(), net::kMaxFrameBytes - 128);

  std::string bytes = net::EncodeFrame(frame);
  uint32_t length = static_cast<uint8_t>(bytes[0]) |
                    (static_cast<uint8_t>(bytes[1]) << 8) |
                    (static_cast<uint8_t>(bytes[2]) << 16) |
                    (static_cast<uint32_t>(static_cast<uint8_t>(bytes[3]))
                     << 24);
  EXPECT_EQ(length + 4u, bytes.size());
  EXPECT_LE(length, net::kMaxFrameBytes);
  net::FrameDecoder decoder;
  decoder.Feed(std::string_view(bytes).substr(0, 5));
  net::Frame out;
  EXPECT_FALSE(decoder.Next(&out));  // waits for the body ...
  EXPECT_TRUE(decoder.ok()) << decoder.status().ToString();  // ... unharmed

  frame.message.payload.push_back('x');
  EXPECT_EQ(net::CheckShippable(frame.message).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace crew::runtime
