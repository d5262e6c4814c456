// Wire-format tests for the binary codec, the only one the runtime
// speaks. Four layers, built on the fixed samples in wire_samples.h:
//  - golden bytes: every payload (dense and sparse), the packet and
//    every frame kind must encode to the exact hex recorded below, so a
//    change that moves a byte on the wire fails here first;
//  - round trips: each sample parses back to its source struct, field
//    by field;
//  - decode rules: hand-built payloads pin what Parse accepts and
//    rejects;
//  - hostile bytes: truncations, bit flips and random bytes derived from
//    the golden encodings, and from the encodings of the records the
//    program reads back (trace shards, storage rows, journal records),
//    must make every decoder return an error or a value, never crash
//    (the ASan+UBSan job runs this too), and what a payload or record
//    decoder accepts must re-encode stably.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "net/frame.h"
#include "net/trace_merge.h"
#include "runtime/codec.h"
#include "runtime/wire.h"
#include "storage/database.h"
#include "wire_samples.h"

namespace crew::runtime {
namespace {

std::string ToHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

std::string FromHex(std::string_view hex) {
  auto nibble = [](char c) {
    return c <= '9' ? c - '0' : c - 'a' + 10;
  };
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out += static_cast<char>(nibble(hex[i]) << 4 | nibble(hex[i + 1]));
  }
  return out;
}

/// Field `field` as a zigzag varint, the way the encoder writes an int.
std::string IntField(int field, int64_t value) {
  std::string bytes;
  BinWriter w(&bytes, 1 + kMaxVarintBytes);
  w.U8(static_cast<uint8_t>(field << 2));
  w.Zig(value);
  w.Finish();
  return bytes;
}

// ---- Golden encodings ----
//
// Recorded from the encoder as it stood when kv was still a second
// codec, so they pin the binary bytes that every run has always put on
// the wire. Regenerate only for a deliberate, documented format change.

constexpr char kGoldenWorkflowStart[] =
    "c202050857465f737461727408520c0e10060249300002493102024932038388"
    "7a0249330400000000000017c0024934050e763d2278220a5c6573633b2c4034"
    "0249350014020357465806040a01035746591002020018010357465a04080c1d"
    "0957465f706172656e7420122418";
constexpr char kGoldenWorkflowChangeInputs[] =
    "c20305025746080a0c08100201410503780a7901420305";
constexpr char kGoldenWorkflowAbort[] =
    "c204050857465f61626f7274089a01";
constexpr char kGoldenWorkflowStatus[] =
    "c205050457465f7108060c16";
constexpr char kGoldenWorkflowStatusReply[] =
    "c206050457465f7108060c04";
constexpr char kGoldenStepExecute[] =
    "c201050657465f706b74081a0c0c1004280e14080553302e4f31000553312e4f"
    "31020553322e4f310383887a0553332e4f310400000000000017c00553342e4f"
    "31050e763d2278220a5c6573633b2c40340553352e4f31000553362e4f310105"
    "53372e4f3103cd857a18020753312e646f6e6504020753322e646f6e6502001c"
    "020214042820010357466f080204002401035746720c060a";
constexpr char kGoldenStepCompensate[] =
    "c2070502574608040c121006";
constexpr char kGoldenStepCompleted[] =
    "c2080502574608040c0a1002140205636f756e7403540566696e616c05086f6b"
    "0a6c696e6532";
constexpr char kGoldenStepStatus[] =
    "c2090502574608040c0e1008";
constexpr char kGoldenStepStatusReply[] =
    "c20a0502574608040c0e1004140c";
constexpr char kGoldenWorkflowRollback[] =
    "c20b050557465f7262082a0c0610101541c201050557465f7262082a0c06100e"
    "14010553312e4f31051c6e65737465640a6e65776c696e655c616e645c626163"
    "6b736c61736818010753312e646f6e65020e";
constexpr char kGoldenHaltThread[] =
    "c20c0502574608040c08100c";
constexpr char kGoldenCompensateSet[] =
    "c20d0502574608040c041008141218030a06021d16c2010502574608040c0410"
    "0014010553302e4f310322";
constexpr char kGoldenCompensateThread[] =
    "c20e0502574608040c0c10101404";
constexpr char kGoldenStateInformation[] =
    "c20f050857465f656c65637408080c061004";
constexpr char kGoldenStateInformationReply[] =
    "c210050857465f656c65637408080c0a10181404";
constexpr char kGoldenAddRule[] =
    "c2110502574608060d0e657865632e53342e7669612e533310020753332e646f"
    "6e650753322e646f6e65151e53332e4f31203e3d20313020616e64206368616e"
    "6765642857462e4931291808";
constexpr char kGoldenAddEvent[] =
    "c2120502574608060d0753332e646f6e65";
constexpr char kGoldenAddPrecondition[] =
    "c2130502574608060d0e657865632e53342e7669612e5333110753322e646f6e"
    "65";
constexpr char kGoldenRunProgram[] =
    "c21405025746080c0c0611025033140418021caad82820880e241828042c0830"
    "02024931030a024932051074657874207769746820737061636573";
constexpr char kGoldenRunProgramReply[] =
    "c21505025746080c0c061000140218021c84072008240e28182c02024f310400"
    "00000000000c40024f3200";
constexpr char kGoldenPurgeInstances[] =
    "c2160403035746310603574632120e574620776974682073706163657302";
constexpr char kGoldenPacket[] =
    "c201050357463208080c06100414030553312e4f3205064761736b6574055746"
    "2e493103b4010557462e49320506426c6f77657218020857462e737461727402"
    "000753312e646f6e6504021c020218041c2002035746331e0408010357463518"
    "0a0200240103574639060402";
// Sparse forms (wire_samples.h), recorded from the hand-written encoder
// before the field lists replaced it: they pin which optional parts are
// left off the wire.
constexpr char kGoldenSparseWorkflowStart[] = "c202050657465f746f7008020c01";
constexpr char kGoldenSparsePlacedPacket[] =
    "c201050457465f7008040c0610002808";
constexpr char kGoldenSparseEmptyPacket[] = "c201050457465f65080a0c021000";
constexpr char kGoldenSparseAddRule[] = "c2110502574608060d0272311802";
constexpr char kGoldenSparseCompensateSet[] =
    "c20d0502574608040c04100214061d0cc2010502574608040c041000";
constexpr char kGoldenSparsePurgeInstances[] = "c216";
constexpr char kGoldenHello[] =
    "6f0100000403f2c00115756e69783a2f746d702f676f6c64656e2e736f636b17"
    "0d576f726b666c6f77537461727414576f726b666c6f774368616e6765496e70"
    "7574730d576f726b666c6f7741626f72740e576f726b666c6f77537461747573"
    "13576f726b666c6f775374617475735265706c790d496e707574734368616e67"
    "65640b53746570457865637574650e53746570436f6d70656e736174650d5374"
    "6570436f6d706c657465640a537465705374617475730f537465705374617475"
    "735265706c7910576f726b666c6f77526f6c6c6261636b0a48616c7454687265"
    "61640d436f6d70656e7361746553657410436f6d70656e736174655468726561"
    "64105374617465496e666f726d6174696f6e155374617465496e666f726d6174"
    "696f6e5265706c790741646452756c65084164644576656e740f416464507265"
    "636f6e646974696f6e0a52756e50726f6772616d0f52756e50726f6772616d52"
    "65706c790e5075726765496e7374616e636573";
constexpr char kGoldenAck[] =
    "03000000054d03";
constexpr char kGoldenDataDictType[] =
    "1000000006000902040406706179006c6f6164ff";
constexpr char kGoldenDataTracedInline[] =
    "230000000603ac020800060a437573746f6d54797065b4a480808080c0f7be01"
    "8cc8787461696c";
constexpr char kGoldenBatch[] =
    "44000000070303000000054d031000000006000902040406706179006c6f6164"
    "ff230000000603ac020800060a437573746f6d54797065b4a480808080c0f7be"
    "018cc8787461696c";

template <typename Msg>
Status DecodePayload(const std::string& bytes) {
  return Msg::Parse(bytes).status();
}

// True unless the decoder accepts `bytes` and the value it reads does
// not re-encode stably: the first re-encoding must parse, and must
// re-encode to itself.
template <typename Msg>
bool ReencodesStably(const std::string& bytes) {
  Result<Msg> parsed = Msg::Parse(bytes);
  if (!parsed.ok()) return true;
  const std::string once = parsed.value().Serialize();
  Result<Msg> again = Msg::Parse(once);
  return again.ok() && again.value().Serialize() == once;
}

// Feeds `bytes` behind a genuine HELLO (which declares the type
// dictionary) and drains every frame the decoder yields.
Status DecodeFrames(const std::string& bytes) {
  net::FrameDecoder decoder;
  decoder.Feed(FromHex(kGoldenHello));
  decoder.Feed(bytes);
  net::Frame frame;
  while (decoder.Next(&frame)) {
  }
  return decoder.status();
}

struct GoldenCase {
  const char* name;
  std::string (*encode)();
  const char* hex;  ///< nullptr for a record (no golden bytes)
  Status (*decode)(const std::string&);
  bool (*stable)(const std::string&) = nullptr;  ///< not for frames
};

#define CREW_PAYLOAD_CASE(Name, Msg)                               \
  GoldenCase {                                                     \
    #Name, [] { return Sample##Name().Serialize(); }, kGolden##Name, \
        &DecodePayload<Msg>, &ReencodesStably<Msg>                 \
  }

const GoldenCase kPayloadCases[] = {
    CREW_PAYLOAD_CASE(WorkflowStart, WorkflowStartMsg),
    CREW_PAYLOAD_CASE(WorkflowChangeInputs, WorkflowChangeInputsMsg),
    CREW_PAYLOAD_CASE(WorkflowAbort, WorkflowAbortMsg),
    CREW_PAYLOAD_CASE(WorkflowStatus, WorkflowStatusMsg),
    CREW_PAYLOAD_CASE(WorkflowStatusReply, WorkflowStatusReplyMsg),
    CREW_PAYLOAD_CASE(StepExecute, StepExecuteMsg),
    CREW_PAYLOAD_CASE(StepCompensate, StepCompensateMsg),
    CREW_PAYLOAD_CASE(StepCompleted, StepCompletedMsg),
    CREW_PAYLOAD_CASE(StepStatus, StepStatusMsg),
    CREW_PAYLOAD_CASE(StepStatusReply, StepStatusReplyMsg),
    CREW_PAYLOAD_CASE(WorkflowRollback, WorkflowRollbackMsg),
    CREW_PAYLOAD_CASE(HaltThread, HaltThreadMsg),
    CREW_PAYLOAD_CASE(CompensateSet, CompensateSetMsg),
    CREW_PAYLOAD_CASE(CompensateThread, CompensateThreadMsg),
    CREW_PAYLOAD_CASE(StateInformation, StateInformationMsg),
    CREW_PAYLOAD_CASE(StateInformationReply, StateInformationReplyMsg),
    CREW_PAYLOAD_CASE(AddRule, AddRuleMsg),
    CREW_PAYLOAD_CASE(AddEvent, AddEventMsg),
    CREW_PAYLOAD_CASE(AddPrecondition, AddPreconditionMsg),
    CREW_PAYLOAD_CASE(RunProgram, RunProgramMsg),
    CREW_PAYLOAD_CASE(RunProgramReply, RunProgramReplyMsg),
    CREW_PAYLOAD_CASE(PurgeInstances, PurgeInstancesMsg),
    CREW_PAYLOAD_CASE(Packet, WorkflowPacket),
};

const GoldenCase kSparseCases[] = {
    CREW_PAYLOAD_CASE(SparseWorkflowStart, WorkflowStartMsg),
    CREW_PAYLOAD_CASE(SparsePlacedPacket, WorkflowPacket),
    CREW_PAYLOAD_CASE(SparseEmptyPacket, WorkflowPacket),
    CREW_PAYLOAD_CASE(SparseAddRule, AddRuleMsg),
    CREW_PAYLOAD_CASE(SparseCompensateSet, CompensateSetMsg),
    CREW_PAYLOAD_CASE(SparsePurgeInstances, PurgeInstancesMsg),
};

#undef CREW_PAYLOAD_CASE

// Records the program writes for itself and reads back: a trace shard,
// a storage row and a journal record of each kind. Only the build that
// wrote them reads them, so they have no golden hex: the hostile-bytes
// sweep starts from their current encoding.
net::TraceShard SampleTraceShard() {
  net::TraceShard shard;
  shard.endpoint = "unix:/tmp/shard|a.sock";
  shard.incarnation = 4;
  shard.tick_us = 20;
  shard.clocks.push_back({"unix:/tmp/b.sock", 2, 1234, -56, 9});
  shard.node_names[3] = "engine\n\"3\"";
  obs::TraceRecord rec;
  rec.time = 100;
  rec.dur = 25;
  rec.phase = obs::TracePhase::kComplete;
  rec.kind = obs::SpanKind::kMessage;
  rec.node = 3;
  rec.instance = {"WF|1", 7};
  rec.step = 2;
  rec.category = 1;
  rec.value = -3;
  rec.flow = 0xabcdef0123456789ull;
  rec.name = "msg:100%|done";
  rec.detail = "a->b\nsecond";
  shard.records.push_back(rec);
  shard.records.push_back(obs::TraceRecord{});
  return shard;
}

storage::Row SampleRow() {
  storage::Row row;
  for (int i = 0; i < 5; ++i) {
    row.Set("f;=" + std::to_string(i), HostileValue(i));
  }
  return row;
}

Status DecodeRow(const std::string& bytes) {
  return storage::Row::Deserialize(bytes).status();
}

bool RowReencodesStably(const std::string& bytes) {
  Result<storage::Row> parsed = storage::Row::Deserialize(bytes);
  if (!parsed.ok()) return true;
  const std::string once = parsed.value().Serialize();
  Result<storage::Row> again = storage::Row::Deserialize(once);
  return again.ok() && again.value().Serialize() == once;
}

std::string EncodeJournal(const std::string& table, const std::string& key,
                          const storage::Row* row) {
  std::string out;
  storage::EncodeJournalRecord(table, key, row, &out);
  return out;
}

std::string EncodeJournal(const storage::JournalRecord& r) {
  return EncodeJournal(r.table, r.key, r.row ? &*r.row : nullptr);
}

Status DecodeJournal(const std::string& bytes) {
  return storage::DecodeJournalRecord(bytes).status();
}

bool JournalReencodesStably(const std::string& bytes) {
  Result<storage::JournalRecord> parsed = storage::DecodeJournalRecord(bytes);
  if (!parsed.ok()) return true;
  const std::string once = EncodeJournal(parsed.value());
  Result<storage::JournalRecord> again = storage::DecodeJournalRecord(once);
  return again.ok() && EncodeJournal(again.value()) == once;
}

const GoldenCase kRecordCases[] = {
    {"TraceShard", [] { return SampleTraceShard().Serialize(); }, nullptr,
     &DecodePayload<net::TraceShard>, &ReencodesStably<net::TraceShard>},
    {"Row", [] { return SampleRow().Serialize(); }, nullptr, &DecodeRow,
     &RowReencodesStably},
    {"JournalPut",
     [] {
       storage::Row row = SampleRow();
       return EncodeJournal("steps", "WF#1/S2", &row);
     },
     nullptr, &DecodeJournal, &JournalReencodesStably},
    {"JournalDelete",
     [] { return EncodeJournal("steps", "WF#1/S2", nullptr); },
     nullptr, &DecodeJournal, &JournalReencodesStably},
};

const GoldenCase kFrameCases[] = {
    {"Hello", [] { return net::EncodeFrame(SampleHello()); }, kGoldenHello,
     &DecodeFrames},
    {"Ack", [] { return net::EncodeFrame(SampleAck()); }, kGoldenAck,
     &DecodeFrames},
    {"DataDictType", [] { return net::EncodeFrame(SampleDataDictType()); },
     kGoldenDataDictType, &DecodeFrames},
    {"DataTracedInline",
     [] { return net::EncodeFrame(SampleDataTracedInline()); },
     kGoldenDataTracedInline, &DecodeFrames},
    {"Batch",
     [] {
       return net::EncodeSuperframe(
           {net::EncodeFrame(SampleAck()),
            net::EncodeFrame(SampleDataDictType()),
            net::EncodeFrame(SampleDataTracedInline())});
     },
     kGoldenBatch, &DecodeFrames},
};

TEST(WireGolden, PayloadBytesAreUnchanged) {
  for (const GoldenCase& c : kPayloadCases) {
    EXPECT_EQ(ToHex(c.encode()), c.hex) << c.name;
  }
}

TEST(WireGolden, SparsePayloadBytesAreUnchanged) {
  for (const GoldenCase& c : kSparseCases) {
    EXPECT_EQ(ToHex(c.encode()), c.hex) << c.name;
  }
}

TEST(WireGolden, FrameBytesAreUnchanged) {
  for (const GoldenCase& c : kFrameCases) {
    EXPECT_EQ(ToHex(c.encode()), c.hex) << c.name;
  }
}

TEST(WireGolden, FramesDecodeToTheirSamples) {
  net::FrameDecoder decoder;
  decoder.Feed(FromHex(kGoldenHello));
  decoder.Feed(FromHex(kGoldenAck));
  decoder.Feed(FromHex(kGoldenBatch));
  std::vector<net::Frame> frames;
  net::Frame frame;
  while (decoder.Next(&frame)) frames.push_back(std::move(frame));
  ASSERT_TRUE(decoder.ok()) << decoder.status().ToString();
  ASSERT_EQ(frames.size(), 5u);

  net::Frame hello = SampleHello();
  EXPECT_EQ(frames[0].kind, net::Frame::Kind::kHello);
  EXPECT_EQ(frames[0].endpoint, hello.endpoint);
  EXPECT_EQ(frames[0].incarnation, hello.incarnation);
  EXPECT_EQ(frames[0].sent_ticks, hello.sent_ticks);
  for (int i : {1, 2}) {
    EXPECT_EQ(frames[i].kind, net::Frame::Kind::kAck);
    EXPECT_EQ(frames[i].watermark, SampleAck().watermark);
    EXPECT_EQ(frames[i].incarnation, SampleAck().incarnation);
  }
  const net::Frame want[] = {SampleDataDictType(), SampleDataTracedInline()};
  for (int i = 0; i < 2; ++i) {
    const net::Frame& got = frames[3 + i];
    EXPECT_EQ(got.kind, net::Frame::Kind::kData);
    EXPECT_EQ(got.seq, want[i].seq);
    EXPECT_EQ(got.message.from, want[i].message.from);
    EXPECT_EQ(got.message.to, want[i].message.to);
    EXPECT_EQ(got.message.type, want[i].message.type);
    EXPECT_EQ(got.message.category, want[i].message.category);
    EXPECT_EQ(got.message.payload, want[i].message.payload);
    EXPECT_EQ(got.message.trace_id, want[i].message.trace_id);
    EXPECT_EQ(got.message.trace_sent_ticks, want[i].message.trace_sent_ticks);
  }
}

// ---- Round trips ----

// Serializes `msg`, checks the bytes are a binary payload, parses them
// back and hands the result to `check`.
template <typename Msg, typename Check>
void RoundTrip(const Msg& msg, Check check) {
  std::string bytes = msg.Serialize();
  ASSERT_GE(bytes.size(), 2u);
  ASSERT_EQ(static_cast<unsigned char>(bytes[0]), kBinaryMagic);
  Result<Msg> parsed = Msg::Parse(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  check(parsed.value());
}

TEST(WireCodec, WorkflowStart) {
  WorkflowStartMsg m = SampleWorkflowStart();
  RoundTrip(m, [&](const WorkflowStartMsg& p) {
    EXPECT_EQ(p.instance, m.instance);
    EXPECT_EQ(p.inputs, m.inputs);
    EXPECT_EQ(p.reply_to, m.reply_to);
    ASSERT_EQ(p.ro_links.size(), m.ro_links.size());
    for (size_t i = 0; i < m.ro_links.size(); ++i) {
      EXPECT_EQ(p.ro_links[i].other, m.ro_links[i].other);
      EXPECT_EQ(p.ro_links[i].my_step, m.ro_links[i].my_step);
      EXPECT_EQ(p.ro_links[i].other_step, m.ro_links[i].other_step);
      EXPECT_EQ(p.ro_links[i].leading, m.ro_links[i].leading);
    }
    ASSERT_EQ(p.rd_links.size(), m.rd_links.size());
    EXPECT_EQ(p.rd_links[0].other, m.rd_links[0].other);
    EXPECT_EQ(p.parent, m.parent);
    EXPECT_EQ(p.parent_step, m.parent_step);
  });
  // Top-level start (no parent): the parent fields must stay defaulted.
  WorkflowStartMsg top;
  top.instance = {"WF_top", 1};
  RoundTrip(top, [&](const WorkflowStartMsg& p) {
    EXPECT_TRUE(p.parent.workflow.empty());
    EXPECT_EQ(p.parent_step, kInvalidStep);
  });
}

TEST(WireCodec, WorkflowChangeInputs) {
  WorkflowChangeInputsMsg m = SampleWorkflowChangeInputs();
  RoundTrip(m, [&](const WorkflowChangeInputsMsg& p) {
    EXPECT_EQ(p.instance, m.instance);
    EXPECT_EQ(p.new_inputs, m.new_inputs);
    EXPECT_EQ(p.origin_step, m.origin_step);
  });
}

TEST(WireCodec, WorkflowAbortAndStatus) {
  WorkflowAbortMsg abort = SampleWorkflowAbort();
  RoundTrip(abort, [&](const WorkflowAbortMsg& p) {
    EXPECT_EQ(p.instance, abort.instance);
  });
  WorkflowStatusMsg status = SampleWorkflowStatus();
  RoundTrip(status, [&](const WorkflowStatusMsg& p) {
    EXPECT_EQ(p.instance, status.instance);
    EXPECT_EQ(p.reply_to, status.reply_to);
  });
  for (WorkflowState state :
       {WorkflowState::kUnknown, WorkflowState::kExecuting,
        WorkflowState::kCommitted, WorkflowState::kAborted}) {
    WorkflowStatusReplyMsg reply = SampleWorkflowStatusReply();
    reply.state = state;
    RoundTrip(reply, [&](const WorkflowStatusReplyMsg& p) {
      EXPECT_EQ(p.instance, reply.instance);
      EXPECT_EQ(p.state, reply.state);
    });
  }
}

TEST(WireCodec, StepExecutePacket) {
  StepExecuteMsg m = SampleStepExecute();
  RoundTrip(m, [&](const StepExecuteMsg& p) {
    EXPECT_EQ(p.packet.instance, m.packet.instance);
    EXPECT_EQ(p.packet.target_step, m.packet.target_step);
    EXPECT_EQ(p.packet.epoch, m.packet.epoch);
    EXPECT_EQ(p.packet.coordinator, 7);
    EXPECT_EQ(p.packet.data, m.packet.data);
    ASSERT_EQ(p.packet.events.size(), m.packet.events.size());
    for (size_t i = 0; i < m.packet.events.size(); ++i) {
      EXPECT_EQ(p.packet.events[i].token, m.packet.events[i].token);
      EXPECT_EQ(p.packet.events[i].occ, m.packet.events[i].occ);
      EXPECT_EQ(p.packet.events[i].epoch, m.packet.events[i].epoch);
    }
    EXPECT_EQ(p.packet.executed_by, m.packet.executed_by);
    ASSERT_EQ(p.packet.ro_links.size(), 1u);
    EXPECT_EQ(p.packet.ro_links[0].other, m.packet.ro_links[0].other);
    ASSERT_EQ(p.packet.rd_links.size(), 1u);
    EXPECT_EQ(p.packet.rd_links[0].other, m.packet.rd_links[0].other);
  });

  // Unplaced packets omit the coordinator on the wire; the receiver
  // must see the kInvalidNode default, not 0 (a real node id).
  StepExecuteMsg unplaced;
  unplaced.packet.instance = {"WF_pkt", 14};
  unplaced.packet.target_step = 1;
  RoundTrip(unplaced, [&](const StepExecuteMsg& p) {
    EXPECT_EQ(p.packet.coordinator, kInvalidNode);
  });
}

TEST(WireCodec, StepLifecycle) {
  StepCompensateMsg comp = SampleStepCompensate();
  RoundTrip(comp, [&](const StepCompensateMsg& p) {
    EXPECT_EQ(p.instance, comp.instance);
    EXPECT_EQ(p.step, comp.step);
    EXPECT_EQ(p.epoch, comp.epoch);
  });
  StepCompletedMsg done = SampleStepCompleted();
  RoundTrip(done, [&](const StepCompletedMsg& p) {
    EXPECT_EQ(p.instance, done.instance);
    EXPECT_EQ(p.step, done.step);
    EXPECT_EQ(p.epoch, done.epoch);
    EXPECT_EQ(p.results, done.results);
  });
  StepStatusMsg status = SampleStepStatus();
  RoundTrip(status, [&](const StepStatusMsg& p) {
    EXPECT_EQ(p.instance, status.instance);
    EXPECT_EQ(p.step, status.step);
    EXPECT_EQ(p.reply_to, status.reply_to);
  });
  for (StepRunState state :
       {StepRunState::kUnknown, StepRunState::kExecuting, StepRunState::kDone,
        StepRunState::kFailed, StepRunState::kCompensated}) {
    StepStatusReplyMsg reply = SampleStepStatusReply();
    reply.state = state;
    RoundTrip(reply, [&](const StepStatusReplyMsg& p) {
      EXPECT_EQ(p.instance, reply.instance);
      EXPECT_EQ(p.step, reply.step);
      EXPECT_EQ(p.state, reply.state);
      EXPECT_EQ(p.responder, reply.responder);
    });
  }
}

TEST(WireCodec, RollbackCarriesNestedPacket) {
  WorkflowRollbackMsg m = SampleWorkflowRollback();
  RoundTrip(m, [&](const WorkflowRollbackMsg& p) {
    EXPECT_EQ(p.instance, m.instance);
    EXPECT_EQ(p.origin_step, m.origin_step);
    EXPECT_EQ(p.new_epoch, m.new_epoch);
    EXPECT_EQ(p.state.instance, m.state.instance);
    EXPECT_EQ(p.state.target_step, m.state.target_step);
    EXPECT_EQ(p.state.epoch, m.state.epoch);
    EXPECT_EQ(p.state.data, m.state.data);
    ASSERT_EQ(p.state.events.size(), 1u);
    EXPECT_EQ(p.state.events[0].token, m.state.events[0].token);
  });
}

TEST(WireCodec, HaltAndCompensate) {
  HaltThreadMsg halt = SampleHaltThread();
  RoundTrip(halt, [&](const HaltThreadMsg& p) {
    EXPECT_EQ(p.instance, halt.instance);
    EXPECT_EQ(p.origin_step, halt.origin_step);
    EXPECT_EQ(p.new_epoch, halt.new_epoch);
  });
  CompensateSetMsg set = SampleCompensateSet();
  RoundTrip(set, [&](const CompensateSetMsg& p) {
    EXPECT_EQ(p.instance, set.instance);
    EXPECT_EQ(p.origin_step, set.origin_step);
    EXPECT_EQ(p.remaining, set.remaining);
    EXPECT_EQ(p.epoch, set.epoch);
    EXPECT_EQ(p.resume_agent, set.resume_agent);
    EXPECT_EQ(p.resume.instance, set.resume.instance);
    EXPECT_EQ(p.resume.data, set.resume.data);
  });
  CompensateThreadMsg thread = SampleCompensateThread();
  RoundTrip(thread, [&](const CompensateThreadMsg& p) {
    EXPECT_EQ(p.instance, thread.instance);
    EXPECT_EQ(p.step, thread.step);
    EXPECT_EQ(p.until_join, thread.until_join);
    EXPECT_EQ(p.epoch, thread.epoch);
  });
}

TEST(WireCodec, StateInformationPair) {
  StateInformationMsg q = SampleStateInformation();
  RoundTrip(q, [&](const StateInformationMsg& p) {
    EXPECT_EQ(p.reply_to, q.reply_to);
    EXPECT_EQ(p.instance, q.instance);
    EXPECT_EQ(p.step, q.step);
  });
  StateInformationReplyMsg r = SampleStateInformationReply();
  RoundTrip(r, [&](const StateInformationReplyMsg& p) {
    EXPECT_EQ(p.responder, r.responder);
    EXPECT_EQ(p.load, r.load);
    EXPECT_EQ(p.instance, r.instance);
    EXPECT_EQ(p.step, r.step);
  });
}

TEST(WireCodec, RuleDistribution) {
  AddRuleMsg rule = SampleAddRule();
  RoundTrip(rule, [&](const AddRuleMsg& p) {
    EXPECT_EQ(p.instance, rule.instance);
    EXPECT_EQ(p.rule_id, rule.rule_id);
    EXPECT_EQ(p.trigger_events, rule.trigger_events);
    EXPECT_EQ(p.condition_source, rule.condition_source);
    EXPECT_EQ(p.action_step, rule.action_step);
  });
  // Empty condition must stay empty (the field is elided on the wire).
  AddRuleMsg bare;
  bare.instance = {"WF", 3};
  bare.rule_id = "r1";
  bare.action_step = 1;
  RoundTrip(bare, [&](const AddRuleMsg& p) {
    EXPECT_TRUE(p.condition_source.empty());
    EXPECT_TRUE(p.trigger_events.empty());
  });
  AddEventMsg event = SampleAddEvent();
  RoundTrip(event, [&](const AddEventMsg& p) {
    EXPECT_EQ(p.instance, event.instance);
    EXPECT_EQ(p.event_token, event.event_token);
  });
  AddPreconditionMsg pre = SampleAddPrecondition();
  RoundTrip(pre, [&](const AddPreconditionMsg& p) {
    EXPECT_EQ(p.instance, pre.instance);
    EXPECT_EQ(p.rule_id, pre.rule_id);
    EXPECT_EQ(p.event_token, pre.event_token);
  });
}

TEST(WireCodec, RunProgramQuantizesCostFractionIdentically) {
  RunProgramMsg m = SampleRunProgram();
  RoundTrip(m, [&](const RunProgramMsg& p) {
    EXPECT_EQ(p.instance, m.instance);
    EXPECT_EQ(p.step, m.step);
    EXPECT_EQ(p.program, m.program);
    EXPECT_EQ(p.attempt, m.attempt);
    EXPECT_EQ(p.compensation, m.compensation);
    EXPECT_DOUBLE_EQ(p.cost_fraction, m.cost_fraction);
    EXPECT_EQ(p.nominal_cost, m.nominal_cost);
    EXPECT_EQ(p.designated, m.designated);
    EXPECT_EQ(p.inputs, m.inputs);
    EXPECT_EQ(p.reply_to, m.reply_to);
    EXPECT_EQ(p.epoch, m.epoch);
  });
  // An off-grid fraction lands on the ppm grid once, and the grid value
  // re-encodes to the same bytes.
  RunProgramMsg off = m;
  off.cost_fraction = 1.0 / 3.0;
  std::string bytes = off.Serialize();
  Result<RunProgramMsg> parsed = RunProgramMsg::Parse(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed.value().cost_fraction, 333333 / 1'000'000.0);
  EXPECT_EQ(parsed.value().Serialize(), bytes);
}

// Every fraction on the ppm grid in [0, 1] survives Parse -> Serialize
// -> Parse: the encoder must round to the nearest ppm, not truncate.
TEST(WireCodec, RunProgramCostFractionGridIsByteStable) {
  // RunProgram for "WF"#1 running "P3", then field 7 (ppm) last.
  const std::string head = FromHex("c21405025746080211025033");
  int64_t unstable = 0;
  int64_t first = -1;
  for (int64_t ppm = 0; ppm <= 1'000'000; ++ppm) {
    Result<RunProgramMsg> parsed =
        RunProgramMsg::Parse(head + IntField(7, ppm));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const double fraction = static_cast<double>(ppm) / 1'000'000.0;
    ASSERT_EQ(parsed.value().cost_fraction, fraction);
    Result<RunProgramMsg> again =
        RunProgramMsg::Parse(parsed.value().Serialize());
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    if (again.value().cost_fraction != fraction) {
      ++unstable;
      if (first < 0) first = ppm;
    }
  }
  EXPECT_EQ(unstable, 0) << "first unstable ppm: " << first;

  // Far off the grid, double rounding can move a ppm count by one on
  // every round trip; the encoder clamps to +-1e15 ppm, where it cannot.
  for (int64_t ppm : {int64_t{8'856'553'462'244'878},
                      int64_t{-4'354'443'138'264'793},
                      std::numeric_limits<int64_t>::max(),
                      std::numeric_limits<int64_t>::min()}) {
    RunProgramMsg m;
    m.program = "P3";
    m.cost_fraction = static_cast<double>(ppm) / 1'000'000.0;
    const std::string once = m.Serialize();
    Result<RunProgramMsg> again = RunProgramMsg::Parse(once);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(ToHex(again.value().Serialize()), ToHex(once)) << ppm;
  }
}

TEST(WireCodec, RunProgramReply) {
  RunProgramReplyMsg m = SampleRunProgramReply();
  RoundTrip(m, [&](const RunProgramReplyMsg& p) {
    EXPECT_EQ(p.instance, m.instance);
    EXPECT_EQ(p.step, m.step);
    EXPECT_EQ(p.ack_only, m.ack_only);
    EXPECT_EQ(p.success, m.success);
    EXPECT_EQ(p.compensation, m.compensation);
    EXPECT_EQ(p.cost, m.cost);
    EXPECT_EQ(p.epoch, m.epoch);
    EXPECT_EQ(p.agent_load, m.agent_load);
    EXPECT_EQ(p.responder, m.responder);
    EXPECT_EQ(p.outputs, m.outputs);
  });
}

TEST(WireCodec, PurgeInstances) {
  PurgeInstancesMsg m = SamplePurgeInstances();
  RoundTrip(m, [&](const PurgeInstancesMsg& p) {
    EXPECT_EQ(p.committed, m.committed);
  });
  PurgeInstancesMsg empty;
  RoundTrip(empty, [&](const PurgeInstancesMsg& p) {
    EXPECT_TRUE(p.committed.empty());
  });
}

TEST(WireCodec, RejectsPayloadsWithoutTheBinaryMagic) {
  // The old kv text form, an empty payload, and a lone magic byte.
  for (const std::string& bytes :
       {std::string("wf=WF\ninst=1\nstep=2\n"), std::string(),
        std::string(1, static_cast<char>(kBinaryMagic))}) {
    EXPECT_FALSE(WorkflowPacket::Parse(bytes).ok());
    EXPECT_FALSE(WorkflowStartMsg::Parse(bytes).ok());
    EXPECT_FALSE(AddEventMsg::Parse(bytes).ok());
    EXPECT_FALSE(PurgeInstancesMsg::Parse(bytes).ok());
  }
  // A binary payload of another type fails loudly instead of misreading.
  std::string abort = FromHex(kGoldenWorkflowAbort);
  EXPECT_FALSE(WorkflowStatusMsg::Parse(abort).ok());
  EXPECT_FALSE(WorkflowPacket::Parse(abort).ok());
}

// ---- Decode rules ----
//
// Hand-built payloads that pin what the decoders accept and reject:
// unknown tags and foreign ids fail, required fields must be present,
// out-of-range states read as kUnknown, and a repeated section appends.

/// The bytes of `hex` with the message id (byte 1) replaced by `id`.
std::string WithId(const char* hex, int id) {
  std::string bytes = FromHex(hex);
  bytes[1] = static_cast<char>(id);
  return bytes;
}

TEST(WireDecodeRules, UnknownTagsAreRejected) {
  // Field 30 as a varint: no message has a field 30.
  for (const GoldenCase& c : kPayloadCases) {
    EXPECT_FALSE(c.decode(FromHex(c.hex) + FromHex("7800")).ok()) << c.name;
  }
  for (const GoldenCase& c : kSparseCases) {
    EXPECT_FALSE(c.decode(FromHex(c.hex) + FromHex("7800")).ok()) << c.name;
  }
  // A known field number with the other wire type is unknown too: the
  // workflow name (field 1) as a varint, the number (field 2) as bytes.
  EXPECT_TRUE(WorkflowAbortMsg::Parse(FromHex("c204050257460802")).ok());
  EXPECT_FALSE(WorkflowAbortMsg::Parse(FromHex("c20404020802")).ok());
  EXPECT_FALSE(WorkflowAbortMsg::Parse(FromHex("c20405025746090102")).ok());
}

TEST(WireDecodeRules, ForeignMessageIdsAreRejected) {
  for (const GoldenCase& c : kPayloadCases) {
    const int id = static_cast<unsigned char>(FromHex(c.hex)[1]);
    for (int other : {0, id % 22 + 1, 23, 255}) {
      EXPECT_FALSE(c.decode(WithId(c.hex, other)).ok())
          << c.name << " as id " << other;
    }
  }
}

TEST(WireDecodeRules, MissingRequiredFieldsAreRejected) {
  // AddRule: the rule id must be present and non-empty.
  EXPECT_TRUE(AddRuleMsg::Parse(FromHex("c2110502574608060d0272311802")).ok());
  EXPECT_FALSE(AddRuleMsg::Parse(FromHex("c2110502574608061802")).ok());
  EXPECT_FALSE(AddRuleMsg::Parse(FromHex("c2110502574608060d001802")).ok());
  // AddEvent: the token must be present; an empty one is accepted.
  EXPECT_FALSE(AddEventMsg::Parse(FromHex("c212050257460806")).ok());
  EXPECT_TRUE(AddEventMsg::Parse(FromHex("c2120502574608060d00")).ok());
  // RunProgram: the program must be present and non-empty.
  EXPECT_TRUE(RunProgramMsg::Parse(FromHex("c21405025746080211025033")).ok());
  EXPECT_FALSE(RunProgramMsg::Parse(FromHex("c214050257460802")).ok());
  EXPECT_FALSE(RunProgramMsg::Parse(FromHex("c2140502574608021100")).ok());
  // WorkflowRollback and CompensateSet: the nested packet must be
  // present, and must parse.
  const std::string packet = "0ac2010502574608020c02";
  EXPECT_TRUE(
      WorkflowRollbackMsg::Parse(FromHex("c20b05025746080215" + packet)).ok());
  EXPECT_FALSE(WorkflowRollbackMsg::Parse(FromHex("c20b050257460802")).ok());
  EXPECT_FALSE(
      WorkflowRollbackMsg::Parse(FromHex("c20b0502574608021500")).ok());
  EXPECT_TRUE(
      CompensateSetMsg::Parse(FromHex("c20d0502574608021d" + packet)).ok());
  EXPECT_FALSE(CompensateSetMsg::Parse(FromHex("c20d050257460802")).ok());
  // The packet: workflow name, number and target step are required; the
  // epoch and every section are not.
  EXPECT_TRUE(WorkflowPacket::Parse(FromHex("c2010502574608020c02")).ok());
  EXPECT_FALSE(WorkflowPacket::Parse(FromHex("c20108020c02")).ok());
  EXPECT_FALSE(WorkflowPacket::Parse(FromHex("c201050257460c02")).ok());
  EXPECT_FALSE(WorkflowPacket::Parse(FromHex("c2010502574608021004")).ok());
}

TEST(WireDecodeRules, OutOfRangeStatesDecodeAsUnknown) {
  auto workflow = [](const std::string& zig) {
    Result<WorkflowStatusReplyMsg> m =
        WorkflowStatusReplyMsg::Parse(FromHex("c2060502574608020c" + zig));
    EXPECT_TRUE(m.ok()) << zig;
    return m.ok() ? m.value().state : WorkflowState::kExecuting;
  };
  EXPECT_EQ(workflow("06"), WorkflowState::kAborted);  // 3
  EXPECT_EQ(workflow("08"), WorkflowState::kUnknown);  // 4
  EXPECT_EQ(workflow("01"), WorkflowState::kUnknown);  // -1
  EXPECT_EQ(workflow("feffffff0f"), WorkflowState::kUnknown);
  auto step = [](const std::string& zig) {
    Result<StepStatusReplyMsg> m = StepStatusReplyMsg::Parse(
        FromHex("c20a0502574608020c0210" + zig));
    EXPECT_TRUE(m.ok()) << zig;
    return m.ok() ? m.value().state : StepRunState::kExecuting;
  };
  EXPECT_EQ(step("08"), StepRunState::kCompensated);  // 4
  EXPECT_EQ(step("0a"), StepRunState::kUnknown);      // 5
  EXPECT_EQ(step("01"), StepRunState::kUnknown);      // -1
  EXPECT_EQ(step("feffffff0f"), StepRunState::kUnknown);
}

TEST(WireDecodeRules, RepeatedSectionsAppend) {
  Result<PurgeInstancesMsg> purge =
      PurgeInstancesMsg::Parse(FromHex("c216040102574602040102574704"));
  ASSERT_TRUE(purge.ok()) << purge.status().ToString();
  EXPECT_EQ(purge.value().committed,
            (std::vector<InstanceId>{{"WF", 1}, {"WG", 2}}));

  Result<WorkflowStartMsg> start = WorkflowStartMsg::Parse(
      FromHex("c20205025746080210010141001001014200"));
  ASSERT_TRUE(start.ok()) << start.status().ToString();
  EXPECT_EQ(start.value().inputs.size(), 2u);

  Result<AddRuleMsg> rule = AddRuleMsg::Parse(
      FromHex("c2110502574608060d027231100107" "53312e646f6e65"
              "100107" "53322e646f6e65" "1802"));
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ(rule.value().trigger_events,
            (std::vector<std::string>{"S1.done", "S2.done"}));

  Result<CompensateSetMsg> set = CompensateSetMsg::Parse(
      FromHex("c20d05025746080218010a180106"
              "1d0ac2010502574608020c02"));
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(set.value().remaining, (std::vector<StepId>{5, 3}));

  Result<WorkflowPacket> packet = WorkflowPacket::Parse(
      FromHex("c2010502574608020c02"
              "14010141001401014200"
              "1801" "0753312e646f6e65" "0200"
              "1801" "0753322e646f6e65" "0200"));
  ASSERT_TRUE(packet.ok()) << packet.status().ToString();
  EXPECT_EQ(packet.value().data.size(), 2u);
  ASSERT_EQ(packet.value().events.size(), 2u);
  EXPECT_EQ(packet.value().events[0].name(), "S1.done");
  EXPECT_EQ(packet.value().events[1].name(), "S2.done");
}

// Randomized sweep: WorkflowStart with random inputs is the richest map
// carrier; every field must survive, and the parse must re-encode to the
// same bytes.
TEST(WireCodec, RandomizedStartMessagesRoundTrip) {
  Rng rng(20260809);
  for (int trial = 0; trial < 200; ++trial) {
    WorkflowStartMsg m;
    m.instance.workflow = "WF" + std::to_string(rng.Uniform(0, 50));
    m.instance.number = rng.Uniform(1, 1'000'000'000);
    if (rng.Bernoulli(0.5)) m.reply_to = static_cast<NodeId>(rng.Uniform(0, 99));
    int64_t inputs = rng.Uniform(0, 10);
    for (int64_t i = 0; i < inputs; ++i) {
      std::string key = "I" + std::to_string(i);
      switch (rng.Index(5)) {
        case 0: m.inputs[key] = Value(); break;
        case 1: m.inputs[key] = Value(rng.Bernoulli(0.5)); break;
        case 2:
          m.inputs[key] = Value(rng.Uniform(-1'000'000'000, 1'000'000'000));
          break;
        case 3: m.inputs[key] = Value(rng.NextDouble() * 1e9 - 5e8); break;
        default: {
          std::string s;
          int64_t length = rng.Uniform(0, 40);
          for (int64_t c = 0; c < length; ++c) {
            const char alphabet[] = "abz019 ;,=\"\\\n\t{}\x01\x7f";
            s += alphabet[rng.Index(sizeof(alphabet) - 1)];
          }
          m.inputs[key] = Value(s);
        }
      }
    }
    if (rng.Bernoulli(0.4)) {
      m.ro_links.push_back({{"WFo", rng.Uniform(1, 9)},
                            static_cast<StepId>(rng.Uniform(1, 9)),
                            static_cast<StepId>(rng.Uniform(1, 9)),
                            rng.Bernoulli(0.5)});
    }
    if (rng.Bernoulli(0.3)) {
      m.parent = {"WFp", rng.Uniform(1, 99)};
      m.parent_step = static_cast<StepId>(rng.Uniform(1, 30));
    }
    std::string bytes = m.Serialize();
    Result<WorkflowStartMsg> parsed = WorkflowStartMsg::Parse(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const WorkflowStartMsg& p = parsed.value();
    EXPECT_EQ(p.instance, m.instance);
    EXPECT_EQ(p.inputs, m.inputs);
    EXPECT_EQ(p.reply_to, m.reply_to);
    ASSERT_EQ(p.ro_links.size(), m.ro_links.size());
    if (!m.ro_links.empty()) {
      EXPECT_EQ(p.ro_links[0], m.ro_links[0]);
    }
    EXPECT_EQ(p.parent, m.parent);
    EXPECT_EQ(p.parent_step, m.parent_step);
    EXPECT_EQ(p.Serialize(), bytes);
  }
}

// ---- Hostile bytes ----

// Every decoder sees every truncation and every single-bit flip of its
// golden input, then seeded multi-byte mutations and random tails behind
// the genuine header bytes. Each call must return; whether it accepts
// is free, but what a payload decoder accepts must re-encode stably.
TEST(WireFuzz, HostileBytesNeverCrashDecoders) {
  Rng rng(0xC2);
  auto attack = [&](const GoldenCase& c) {
    const std::string golden = c.hex != nullptr ? FromHex(c.hex) : c.encode();
    auto decode = [&](const std::string& bytes) {
      (void)c.decode(bytes);
      if (c.stable != nullptr) {
        EXPECT_TRUE(c.stable(bytes)) << c.name << " " << ToHex(bytes);
      }
    };
    for (size_t n = 0; n < golden.size(); ++n) {
      decode(golden.substr(0, n));
    }
    for (size_t i = 0; i < golden.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = golden;
        flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
        decode(flipped);
      }
    }
    for (int trial = 0; trial < 200; ++trial) {
      std::string mutated = golden;
      int64_t edits = rng.Uniform(1, 6);
      for (int64_t e = 0; e < edits && !mutated.empty(); ++e) {
        size_t pos = rng.Index(mutated.size());
        char byte = static_cast<char>(rng.Uniform(0, 255));
        switch (rng.Index(3)) {
          case 0: mutated[pos] = byte; break;
          case 1: mutated.erase(pos, 1); break;
          default: mutated.insert(pos, 1, byte);
        }
      }
      decode(mutated);
    }
    for (int trial = 0; trial < 100; ++trial) {
      // Keep the header so the field loop, not the magic check, sees
      // the junk; a few trials send pure noise.
      size_t keep = trial % 10 == 0 ? 0 : std::min<size_t>(golden.size(), 6);
      std::string junk = golden.substr(0, keep);
      int64_t length = rng.Uniform(0, 64);
      for (int64_t i = 0; i < length; ++i) {
        junk.push_back(static_cast<char>(rng.Uniform(0, 255)));
      }
      decode(junk);
    }
    // Every varint field number, repeated at the end with small values
    // and with one value of each bit length: the last one wins, so this
    // reaches every integer field with values the samples never hold.
    for (int field = 1; field <= 15; ++field) {
      for (int64_t value = -16; value < 256; ++value) {
        decode(golden + IntField(field, value));
      }
      for (int bits = 9; bits < 64; ++bits) {
        const int64_t low = int64_t{1} << (bits - 1);
        const int64_t value = rng.Uniform(low, low + (low - 1));
        decode(golden + IntField(field, value));
        decode(golden + IntField(field, -value));
      }
    }
  };
  for (const GoldenCase& c : kPayloadCases) attack(c);
  for (const GoldenCase& c : kSparseCases) attack(c);
  for (const GoldenCase& c : kFrameCases) attack(c);
  for (const GoldenCase& c : kRecordCases) attack(c);

  // Re-chunked hostile streams: a decoder fed a mutated stream in random
  // slices must poison or yield frames, never read past its buffer.
  std::string stream = FromHex(kGoldenHello) + FromHex(kGoldenBatch) +
                       FromHex(kGoldenAck);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = stream;
    size_t pos = rng.Index(mutated.size());
    mutated[pos] = static_cast<char>(rng.Uniform(0, 255));
    net::FrameDecoder decoder;
    size_t offset = 0;
    net::Frame frame;
    while (offset < mutated.size()) {
      size_t chunk = std::min<size_t>(rng.Uniform(1, 32),
                                      mutated.size() - offset);
      decoder.Feed(std::string_view(mutated).substr(offset, chunk));
      offset += chunk;
      while (decoder.Next(&frame)) {
      }
    }
  }
}

}  // namespace
}  // namespace crew::runtime
