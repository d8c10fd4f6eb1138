// Frame codec: round-trips, exact WireSize accounting, and rejection of
// truncated/corrupted frames — plus incremental reassembly from arbitrary
// stream fragmentation, the property the TCP reader threads rely on.
#include "src/net/frame.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

#include "src/core/control.h"
#include "src/daemon/config.h"
#include "src/util/crc32.h"
#include "src/util/serde.h"
#include "src/workload/scenario.h"
#include "tests/codec_testing.h"

namespace p2pdb::net {
namespace {

Message Make(MessageType type, NodeId from, NodeId to, uint64_t seq,
             std::vector<uint8_t> payload) {
  Message msg;
  msg.type = type;
  msg.from = from;
  msg.to = to;
  msg.seq = seq;
  msg.payload = std::move(payload);
  return msg;
}

bool SameMessage(const Message& a, const Message& b) {
  return a.type == b.type && a.from == b.from && a.to == b.to &&
         a.seq == b.seq && a.trace.trace_id == b.trace.trace_id &&
         a.trace.parent_span == b.trace.parent_span &&
         a.trace.hop == b.trace.hop && a.payload == b.payload;
}

TEST(FrameTest, RoundTripsAllFieldShapes) {
  std::vector<Message> cases = {
      Make(MessageType::kDiscoverRequest, 0, 1, 0, {}),
      Make(MessageType::kQueryAnswer, 3, 200, 12'345, {1, 2, 3, 0xff, 0}),
      Make(MessageType::kToken, 70'000, 1, 1u << 20,
           std::vector<uint8_t>(1000, 0xab)),
      // Sentinel ids (kNoNode) and a huge seq exercise the widest varints.
      Make(MessageType::kDeleteRule, kNoNode, kNoNode, ~0ull, {42}),
  };
  for (const Message& msg : cases) {
    std::vector<uint8_t> frame = EncodeFrame(msg);
    EXPECT_EQ(frame.size(), msg.WireSize()) << msg.ToString();
    auto decoded = DecodeFrame(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(SameMessage(*decoded, msg)) << msg.ToString();
  }
}

TEST(FrameTest, WireSizeIsExactEncodedSize) {
  // The old header estimate was a flat 13 bytes; the real size varies with
  // the varint widths of from/to/seq.
  Message small = Make(MessageType::kUpdateStart, 0, 1, 0, {1, 2, 3});
  EXPECT_EQ(small.WireSize(), EncodeFrame(small).size());
  // 4 len + 4 crc + 1 type + 3x1 header varints + 3x1 trace varints + 3.
  EXPECT_EQ(small.WireSize(), 18u);
  Message wide = Make(MessageType::kUpdateStart, kNoNode, kNoNode, ~0ull, {});
  EXPECT_EQ(wide.WireSize(), EncodeFrame(wide).size());
}

TEST(FrameTest, TraceContextRoundTrips) {
  Message msg = Make(MessageType::kPartialUpdate, 2, 7, 99, {1, 2});
  msg.trace.trace_id = 0xdead'beef'cafe'f00dull;
  msg.trace.parent_span = 0x1234'5678'9abcull;
  msg.trace.hop = 5;
  std::vector<uint8_t> frame = EncodeFrame(msg);
  EXPECT_EQ(frame.size(), msg.WireSize());
  auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(SameMessage(*decoded, msg));
  EXPECT_TRUE(decoded->trace.active());

  // The untraced default costs exactly three zero varint bytes and decodes
  // inactive; a wide trace context pays for its varints and nothing else.
  Message plain = Make(MessageType::kPartialUpdate, 2, 7, 99, {1, 2});
  EXPECT_LT(plain.WireSize(), msg.WireSize());
  EXPECT_EQ(plain.WireSize(), EncodeFrame(plain).size());
  auto plain_decoded = DecodeFrame(EncodeFrame(plain));
  ASSERT_TRUE(plain_decoded.ok());
  EXPECT_FALSE(plain_decoded->trace.active());
}

TEST(FrameTest, TruncatedFramesAreRejected) {
  std::vector<uint8_t> frame =
      EncodeFrame(Make(MessageType::kQueryRequest, 1, 2, 3, {9, 9, 9}));
  for (size_t keep = 0; keep < frame.size(); ++keep) {
    std::vector<uint8_t> cut(frame.begin(), frame.begin() + keep);
    EXPECT_FALSE(DecodeFrame(cut).ok()) << "decoded a " << keep << "-byte cut";
  }
  std::vector<uint8_t> padded = frame;
  padded.push_back(0);
  EXPECT_FALSE(DecodeFrame(padded).ok()) << "accepted trailing bytes";
}

/// `body` (the bytes after the CRC) framed with its length and CRC computed,
/// so that only the header decoder can reject it.
std::vector<uint8_t> Reframe(const std::vector<uint8_t>& body) {
  Writer w;
  w.PutU32(static_cast<uint32_t>(4 + body.size()));
  w.PutU32(Crc32(body.data(), body.size()));
  w.PutRaw(body.data(), body.size());
  return w.TakeBytes();
}

/// Decodes one frame and encodes what it decoded again: a batch through
/// EncodeBatchFrame, a credit through EncodeCreditFrame, anything else
/// through EncodeFrame. nullopt when the frame or a batch entry is rejected.
std::optional<std::vector<uint8_t>> RecodeFrame(
    const std::vector<uint8_t>& bytes) {
  auto msg = DecodeFrame(bytes);
  if (!msg.ok()) return std::nullopt;
  std::vector<Message> unpacked;
  std::optional<uint64_t> credit;
  FrameAssembler assembler;
  Status fed = assembler.FeedViews(
      bytes.data(), bytes.size(), [&](const FrameView& view) {
        if (view.type == MessageType::kCredit) {
          auto consumed = DecodeCreditPayload(view);
          if (consumed.ok()) credit = *consumed;
        }
        unpacked.push_back(view.ToMessage());
      });
  if (!fed.ok()) return std::nullopt;
  if (msg->type == MessageType::kBatch) return EncodeBatchFrame(unpacked);
  if (msg->type == MessageType::kCredit) {
    if (!credit.has_value()) return std::nullopt;
    return EncodeCreditFrame(msg->from, *credit);
  }
  return EncodeFrame(*msg);
}

/// A traced message with varints of every width the header uses.
Message TracedMessage() {
  Message msg = Make(MessageType::kQueryAnswer, 200, 130, 20000, {7, 8, 9});
  msg.trace.trace_id = 0x1234567890ull;
  msg.trace.parent_span = 20000;
  msg.trace.hop = 3;
  return msg;
}

TEST(FrameTest, CorruptionAnywhereIsRejected) {
  Message msg = Make(MessageType::kQueryAnswer, 4, 5, 6, {7, 8});
  std::vector<uint8_t> frame = EncodeFrame(msg);
  // Flip each byte after the length field: CRC (or the CRC check) must catch
  // every one — header and payload are equally guarded.
  for (size_t i = 4; i < frame.size(); ++i) {
    std::vector<uint8_t> bad = frame;
    bad[i] ^= 0xff;
    EXPECT_FALSE(DecodeFrame(bad).ok()) << "byte " << i;
  }

  // Seeded mutants of a solo, a batch and a credit frame's bytes after the
  // CRC, re-framed with a valid length and CRC so that they reach the header
  // and batch decoders: each is rejected, or decodes to messages whose
  // encoding decodes again to the same bytes.
  const std::vector<std::vector<uint8_t>> frames = {
      EncodeFrame(TracedMessage()),
      EncodeBatchFrame(
          {TracedMessage(), Make(MessageType::kToken, 200, 130, 20001, {})}),
      EncodeCreditFrame(200, 20000)};
  uint64_t seed = 7;
  for (const std::vector<uint8_t>& valid : frames) {
    const std::vector<uint8_t> body(valid.begin() + 8, valid.end());
    testing_codec::ExpectMutantsDecodeWholeOrNotAtAll(
        body,
        [](const std::vector<uint8_t>& mutant_body)
            -> std::optional<std::vector<uint8_t>> {
          auto frame = RecodeFrame(Reframe(mutant_body));
          if (!frame.has_value()) return std::nullopt;
          return std::vector<uint8_t>(frame->begin() + 8, frame->end());
        },
        300, seed++);
  }
}

TEST(FrameTest, HopThatOverflowsItsFieldIsRejected) {
  // TraceContext::hop is 32 bits. A hop varint of 2^32 or more does not fit
  // it, so a solo frame or a batch entry carrying one is rejected instead of
  // being truncated to 32 bits.
  for (uint64_t hop : {uint64_t{0xffffffff}, uint64_t{1} << 32}) {
    SCOPED_TRACE(hop);
    const bool fits = hop <= 0xffffffff;
    Writer solo;
    solo.PutU8(static_cast<uint8_t>(MessageType::kToken));
    for (uint64_t v : {1, 2, 3, 4, 5}) solo.PutVarint(v);
    solo.PutVarint(hop);
    auto decoded = DecodeFrame(Reframe(solo.bytes()));
    ASSERT_EQ(decoded.ok(), fits) << decoded.status().ToString();
    if (fits) {
      EXPECT_EQ(decoded->trace.hop, hop);
    }

    Writer batch;
    batch.PutU8(static_cast<uint8_t>(MessageType::kBatch));
    for (int i = 0; i < 6; ++i) batch.PutVarint(1);
    batch.PutVarint(1);  // One entry:
    batch.PutU8(static_cast<uint8_t>(MessageType::kToken));
    for (uint64_t v : {1, 2, 3, 4, 5}) batch.PutVarint(v);
    batch.PutVarint(hop);
    batch.PutVarint(0);  // An empty payload.
    const std::vector<uint8_t> frame = Reframe(batch.bytes());
    FrameAssembler assembler;
    int sinks = 0;
    Status fed = assembler.FeedViews(frame.data(), frame.size(),
                                     [&](const FrameView&) { ++sinks; });
    EXPECT_EQ(fed.ok(), fits) << fed.ToString();
    EXPECT_EQ(sinks, fits ? 1 : 0);
  }
}

TEST(FrameTest, FrameBytesAreGolden) {
  // Length, CRC, then the header (type, from, to, seq, trace id, parent
  // span, hop) and the payload.
  const Message traced = TracedMessage();
  EXPECT_EQ(testing_codec::Hex(EncodeFrame(traced)),
            testing_codec::Hex(testing_codec::HexBytes(
                "19000000 29ba9dec"        // length 25, CRC
                " 0c c801 8201 a09c01"     // header
                " 90f1d9a2a302 a09c01 03"  // trace context
                " 070809")));
  EXPECT_EQ(traced.WireSize(), EncodeFrame(traced).size());

  // One length and CRC, then the count and each entry: its header, its
  // payload's length and the payload.
  const std::vector<Message> batch = {
      traced, Make(MessageType::kToken, 200, 130, 20001, {})};
  EXPECT_EQ(testing_codec::Hex(EncodeBatchFrame(batch)),
            testing_codec::Hex(testing_codec::HexBytes(
                "32000000 8f024a10"              // length 50, CRC
                " 28 c801 8201 a09c01 00 00 00"  // kBatch header
                " 02"                            // two entries
                " 0c c801 8201 a09c01 90f1d9a2a302 a09c01 03 03 070809"
                " 14 c801 8201 a19c01 00 00 00 00")));

  // A credit frame: no destination, and the count as its payload.
  EXPECT_EQ(testing_codec::Hex(EncodeCreditFrame(200, 20000)),
            testing_codec::Hex(testing_codec::HexBytes(
                "13000000 6a76e02b"                // length 19, CRC
                " 29 c801 ffffffff0f 00 00 00 00"  // to kNoNode
                " a09c01")));
}

// Each message type's facts, pinned: the name statistics, logs and trace
// spans print, the urgent types (never batched) and the types SimRuntime
// may duplicate. Every other byte is no type.
TEST(FrameTest, MessageTypeFactsArePinned) {
  std::string known, urgent, duplicable;
  for (int raw = 0; raw < 256; ++raw) {
    const auto type = static_cast<MessageType>(raw);
    if (!IsKnownMessageType(static_cast<uint8_t>(raw))) {
      EXPECT_STREQ(MessageTypeName(type), "Unknown") << raw;
      EXPECT_FALSE(IsUrgent(type) || IsDuplicable(type)) << raw;
      continue;
    }
    known += " " + std::to_string(raw) + ":" + MessageTypeName(type);
    if (IsUrgent(type)) urgent += " " + std::to_string(raw);
    if (IsDuplicable(type)) duplicable += " " + std::to_string(raw);
  }
  EXPECT_EQ(known,
            " 1:DiscoverRequest 2:DiscoverAnswer 3:DiscoverClosure"
            " 10:UpdateStart 11:QueryRequest 12:QueryAnswer 13:Unsubscribe"
            " 14:PartialUpdate 20:Token 21:SccClosed 22:Reopen 30:AddRule"
            " 31:DeleteRule 40:Batch 41:Credit 50:Bootstrap 51:BootstrapAck"
            " 52:StartDiscovery 53:StartUpdate 54:RefreshScc"
            " 55:StatusRequest 56:StatusReport 57:DumpRequest 58:DumpReply"
            " 59:Shutdown");
  EXPECT_EQ(urgent, " 20 21 22 50 51 52 53 54 55 56 57 58 59");
  EXPECT_EQ(duplicable, " 1 2 3 10 11 12 13 14");
}

TEST(FrameTest, UnknownTypeAndInsaneLengthAreRejected) {
  Message msg = Make(MessageType::kToken, 1, 2, 3, {});
  std::vector<uint8_t> frame = EncodeFrame(msg);
  // Patch the type byte (offset 8) to an unassigned value and re-seal the
  // CRC so only the semantic check can reject it.
  frame[8] = 99;
  uint32_t crc = Crc32(frame.data() + 8, frame.size() - 8);
  for (int i = 0; i < 4; ++i) {
    frame[4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  EXPECT_FALSE(DecodeFrame(frame).ok());

  std::vector<uint8_t> giant = {0xff, 0xff, 0xff, 0xff};  // 4 GiB "length".
  EXPECT_FALSE(DecodeFrame(giant).ok());
}

TEST(FrameAssemblerTest, ReassemblesArbitraryFragmentation) {
  std::vector<Message> sent;
  std::vector<uint8_t> stream;
  for (int i = 0; i < 20; ++i) {
    Message msg = Make(MessageType::kQueryAnswer, i, i + 1,
                       static_cast<uint64_t>(i),
                       std::vector<uint8_t>(static_cast<size_t>(i * 7), 0x5c));
    std::vector<uint8_t> frame = EncodeFrame(msg);
    stream.insert(stream.end(), frame.begin(), frame.end());
    sent.push_back(std::move(msg));
  }
  // Feed in every chunk size from byte-at-a-time to the whole stream.
  for (size_t chunk : {size_t{1}, size_t{3}, size_t{17}, stream.size()}) {
    FrameAssembler assembler;
    std::vector<Message> got;
    for (size_t pos = 0; pos < stream.size(); pos += chunk) {
      size_t n = std::min(chunk, stream.size() - pos);
      ASSERT_TRUE(assembler.Feed(stream.data() + pos, n, &got).ok());
    }
    ASSERT_EQ(got.size(), sent.size()) << "chunk " << chunk;
    for (size_t i = 0; i < sent.size(); ++i) {
      EXPECT_TRUE(SameMessage(got[i], sent[i])) << "chunk " << chunk;
    }
    EXPECT_EQ(assembler.buffered_bytes(), 0u);
  }
}

TEST(FrameAssemblerTest, PoisonedStreamReportsError) {
  Message msg = Make(MessageType::kUpdateStart, 1, 2, 3, {4, 5});
  std::vector<uint8_t> frame = EncodeFrame(msg);
  frame[10] ^= 0xff;  // Corrupt the header mid-frame.
  FrameAssembler assembler;
  std::vector<Message> got;
  EXPECT_FALSE(assembler.Feed(frame.data(), frame.size(), &got).ok());
  EXPECT_TRUE(got.empty());

  // An oversized length field poisons the stream before any body arrives.
  std::vector<uint8_t> giant = {0xff, 0xff, 0xff, 0x7f};
  FrameAssembler assembler2;
  EXPECT_FALSE(assembler2.Feed(giant.data(), giant.size(), &got).ok());
}

TEST(FrameAssemblerTest, FeedViewsBorrowsPayloadOnlyDuringSink) {
  Message msg = Make(MessageType::kQueryAnswer, 1, 2, 3, {10, 20, 30, 40});
  std::vector<uint8_t> stream = EncodeFrame(msg);

  FrameAssembler assembler;
  Message borrowed_then_kept;
  int sinks = 0;
  Status fed = assembler.FeedViews(
      stream.data(), stream.size(), [&](const FrameView& view) {
        ++sinks;
        // Inside the sink, the payload aliases the fed buffer: zero copies.
        EXPECT_GE(view.payload, stream.data());
        EXPECT_LE(view.payload + view.payload_size,
                  stream.data() + stream.size());
        Message m = view.BorrowMessage();
        EXPECT_TRUE(m.payload.borrowed());
        EXPECT_TRUE(SameMessage(m, msg));
        // A receiver that outlives the sink must take ownership — after
        // EnsureOwned the message survives the buffer being clobbered.
        m.payload.EnsureOwned();
        EXPECT_FALSE(m.payload.borrowed());
        borrowed_then_kept = std::move(m);
      });
  ASSERT_TRUE(fed.ok());
  EXPECT_EQ(sinks, 1);
  std::fill(stream.begin(), stream.end(), 0xee);  // Reuse the read buffer.
  EXPECT_TRUE(SameMessage(borrowed_then_kept, msg));

  // Copying a borrowed payload also materializes it (handlers that echo a
  // request payload into a reply never see the buffer die underneath them).
  Message copy_target;
  std::vector<uint8_t> stream2 = EncodeFrame(msg);
  Status fed2 = assembler.FeedViews(
      stream2.data(), stream2.size(), [&](const FrameView& view) {
        Message m = view.BorrowMessage();
        copy_target.payload = m.payload;  // Copy-assign: deep copies the view.
      });
  ASSERT_TRUE(fed2.ok());
  EXPECT_FALSE(copy_target.payload.borrowed());
  EXPECT_TRUE(copy_target.payload == msg.payload);
}

TEST(FrameAssemblerTest, FeedViewsCarriedPartialFrameStaysZeroCopyCorrect) {
  // A frame split across feeds decodes from the internal carry buffer; views
  // for it alias that buffer, views for frames that arrive whole alias the
  // input. Both must yield identical messages.
  std::vector<Message> sent;
  std::vector<uint8_t> stream;
  for (int i = 0; i < 8; ++i) {
    Message m = Make(MessageType::kPartialUpdate, i, i + 1, 100 + i,
                     std::vector<uint8_t>(static_cast<size_t>(3 + i * 11),
                                          static_cast<uint8_t>(i)));
    std::vector<uint8_t> frame = EncodeFrame(m);
    stream.insert(stream.end(), frame.begin(), frame.end());
    sent.push_back(std::move(m));
  }
  for (size_t chunk : {size_t{1}, size_t{2}, size_t{7}, size_t{64}}) {
    FrameAssembler assembler;
    std::vector<Message> got;
    for (size_t pos = 0; pos < stream.size(); pos += chunk) {
      size_t n = std::min(chunk, stream.size() - pos);
      ASSERT_TRUE(assembler
                      .FeedViews(stream.data() + pos, n,
                                 [&](const FrameView& view) {
                                   got.push_back(view.ToMessage());
                                 })
                      .ok());
    }
    ASSERT_EQ(got.size(), sent.size()) << "chunk " << chunk;
    for (size_t i = 0; i < sent.size(); ++i) {
      EXPECT_TRUE(SameMessage(got[i], sent[i])) << "chunk " << chunk;
    }
    EXPECT_EQ(assembler.buffered_bytes(), 0u);
  }
}

TEST(FrameAssemblerTest, FeedViewsRejectsCorruptFramesWhole) {
  // Whole-frame rejection on the zero-copy path: a corrupt frame's sink is
  // never called, no matter where in the frame the damage sits.
  Message msg = Make(MessageType::kToken, 3, 4, 5, {1, 2, 3, 4, 5});
  std::vector<uint8_t> frame = EncodeFrame(msg);
  for (size_t i = 4; i < frame.size(); ++i) {
    std::vector<uint8_t> bad = frame;
    bad[i] ^= 0xff;
    FrameAssembler assembler;
    int sinks = 0;
    Status fed = assembler.FeedViews(bad.data(), bad.size(),
                                     [&](const FrameView&) { ++sinks; });
    EXPECT_FALSE(fed.ok()) << "byte " << i;
    EXPECT_EQ(sinks, 0) << "byte " << i;
  }
  // Same guarantee when the corrupt frame trickles in byte by byte (decode
  // happens from the carry buffer instead of the input).
  frame[6] ^= 0xff;
  FrameAssembler assembler;
  int sinks = 0;
  Status status = Status::OK();
  for (uint8_t byte : frame) {
    status = assembler.FeedViews(&byte, 1, [&](const FrameView&) { ++sinks; });
    if (!status.ok()) break;
  }
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(sinks, 0);
}

TEST(FrameAssemblerTest, DeliversCompleteFramesBeforePoison) {
  Message good = Make(MessageType::kToken, 1, 2, 3, {6});
  Message bad = Make(MessageType::kToken, 1, 2, 4, {7});
  std::vector<uint8_t> stream = EncodeFrame(good);
  std::vector<uint8_t> frame2 = EncodeFrame(bad);
  frame2[5] ^= 0xff;  // Corrupt the second frame's CRC.
  stream.insert(stream.end(), frame2.begin(), frame2.end());

  FrameAssembler assembler;
  std::vector<Message> got;
  EXPECT_FALSE(assembler.Feed(stream.data(), stream.size(), &got).ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(SameMessage(got[0], good));
}

TEST(BatchFrameTest, RoundTripsWithPerMessageTraces) {
  // Three same-destination messages with distinct traces coalesce into one
  // frame; the assembler unpacks them back into three messages, each keeping
  // its own type, seq, and trace context.
  std::vector<Message> msgs = {
      Make(MessageType::kQueryAnswer, 1, 9, 100, {1, 2, 3}),
      Make(MessageType::kPartialUpdate, 1, 9, 101, {}),
      Make(MessageType::kUpdateStart, 1, 9, 102,
           std::vector<uint8_t>(300, 0x7e)),
  };
  for (size_t i = 0; i < msgs.size(); ++i) {
    msgs[i].trace.trace_id = 0x1000 + i;
    msgs[i].trace.parent_span = 0x2000 + i;
    msgs[i].trace.hop = static_cast<uint32_t>(i);
  }
  std::vector<uint8_t> frame = EncodeBatchFrame(msgs);

  FrameAssembler assembler;
  std::vector<Message> got;
  ASSERT_TRUE(assembler.Feed(frame.data(), frame.size(), &got).ok());
  ASSERT_EQ(got.size(), msgs.size());
  for (size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_TRUE(SameMessage(got[i], msgs[i])) << "message " << i;
  }
  // One wire frame, no matter how many messages it carried — the credit
  // protocol acks frames, so a batch costs its sender exactly one credit.
  EXPECT_EQ(assembler.frames_decoded(), 1u);

  // One frame for three messages must beat three frames (the whole point):
  size_t solo = 0;
  for (const Message& m : msgs) solo += EncodeFrame(m).size();
  EXPECT_LT(frame.size(), solo);
}

TEST(BatchFrameTest, SurvivesArbitraryFragmentation) {
  std::vector<Message> msgs;
  for (int i = 0; i < 10; ++i) {
    msgs.push_back(Make(MessageType::kQueryAnswer, 2, 5,
                        static_cast<uint64_t>(i),
                        std::vector<uint8_t>(static_cast<size_t>(i * 13),
                                             static_cast<uint8_t>(i))));
  }
  std::vector<uint8_t> frame = EncodeBatchFrame(msgs);
  for (size_t chunk : {size_t{1}, size_t{5}, frame.size()}) {
    FrameAssembler assembler;
    std::vector<Message> got;
    for (size_t pos = 0; pos < frame.size(); pos += chunk) {
      size_t n = std::min(chunk, frame.size() - pos);
      ASSERT_TRUE(assembler.Feed(frame.data() + pos, n, &got).ok());
    }
    ASSERT_EQ(got.size(), msgs.size()) << "chunk " << chunk;
    for (size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_TRUE(SameMessage(got[i], msgs[i])) << "chunk " << chunk;
    }
    EXPECT_EQ(assembler.frames_decoded(), 1u);
  }
}

TEST(BatchFrameTest, NestedBatchAndCreditInsideBatchPoisonTheStream) {
  // The wire format forbids recursion: a batch carrying a kBatch or kCredit
  // entry is malformed and rejects whole, before any sink fires.
  for (MessageType inner : {MessageType::kBatch, MessageType::kCredit}) {
    std::vector<Message> msgs = {
        Make(MessageType::kQueryAnswer, 1, 2, 3, {1}),
        Make(inner, 1, 2, 4, {0}),
    };
    std::vector<uint8_t> frame = EncodeBatchFrame(msgs);
    FrameAssembler assembler;
    int sinks = 0;
    Status fed = assembler.FeedViews(frame.data(), frame.size(),
                                     [&](const FrameView&) { ++sinks; });
    EXPECT_FALSE(fed.ok()) << MessageTypeName(inner);
    EXPECT_EQ(sinks, 0) << MessageTypeName(inner);
  }
}

TEST(BatchFrameTest, TruncatedInnerPayloadRejectsWholeBatch) {
  std::vector<Message> msgs = {
      Make(MessageType::kQueryAnswer, 1, 2, 3, {1, 2, 3, 4}),
      Make(MessageType::kQueryAnswer, 1, 2, 4, {5, 6, 7, 8}),
  };
  // Re-wrap the batch body minus its tail: the last entry's payload length
  // now promises more bytes than the frame holds.
  auto outer = DecodeFrame(EncodeBatchFrame(msgs));
  ASSERT_TRUE(outer.ok());
  ASSERT_EQ(outer->type, MessageType::kBatch);
  std::vector<uint8_t> body(outer->payload.data(),
                            outer->payload.data() + outer->payload.size() - 2);
  Message cut;
  cut.type = MessageType::kBatch;
  cut.from = outer->from;
  cut.to = outer->to;
  cut.payload = std::move(body);
  std::vector<uint8_t> frame = EncodeFrame(cut);

  FrameAssembler assembler;
  int sinks = 0;
  Status fed = assembler.FeedViews(frame.data(), frame.size(),
                                   [&](const FrameView&) { ++sinks; });
  EXPECT_FALSE(fed.ok());
  EXPECT_EQ(sinks, 0);

  // Same for an empty batch (count of zero): structurally a frame, but no
  // transport ever sends one.
  Message empty;
  empty.type = MessageType::kBatch;
  empty.from = 1;
  empty.to = 2;
  empty.payload = std::vector<uint8_t>{0};  // varint count = 0
  std::vector<uint8_t> empty_frame = EncodeFrame(empty);
  FrameAssembler assembler2;
  EXPECT_FALSE(assembler2
                   .FeedViews(empty_frame.data(), empty_frame.size(),
                              [&](const FrameView&) { ++sinks; })
                   .ok());
  EXPECT_EQ(sinks, 0);
}

TEST(BatchFrameTest, WrappingPayloadLengthRejectsWholeBatch) {
  // A CRC-valid batch whose first entry's payload length is 2^64 - 18: from
  // position 18, a wrapping bounds check would accept it and rewind to 0,
  // where the body re-parses as a second, well-formed entry ending exactly
  // at the end — so both validation passes would succeed.
  Writer body;
  const uint8_t entry[] = {0x02, 0x0c, 0x00, 0x01, 0x00, 0x00, 0x00, 0x0a};
  body.PutRaw(entry, sizeof(entry));
  body.PutVarint(UINT64_MAX - 17);
  ASSERT_EQ(body.size(), 18u);
  Message batch;
  batch.type = MessageType::kBatch;
  batch.from = 0;
  batch.to = 1;
  batch.payload = body.TakeBytes();
  std::vector<uint8_t> frame = EncodeFrame(batch);

  FrameAssembler assembler;
  int sinks = 0;
  Status fed = assembler.FeedViews(frame.data(), frame.size(),
                                   [&](const FrameView&) { ++sinks; });
  EXPECT_FALSE(fed.ok());
  EXPECT_EQ(sinks, 0);
}

TEST(CreditFrameTest, RoundTripsCumulativeCount) {
  for (uint64_t consumed : {uint64_t{1}, uint64_t{300}, ~uint64_t{0}}) {
    std::vector<uint8_t> frame = EncodeCreditFrame(7, consumed);
    FrameAssembler assembler;
    uint64_t got = 0;
    int sinks = 0;
    Status fed = assembler.FeedViews(
        frame.data(), frame.size(), [&](const FrameView& view) {
          ++sinks;
          EXPECT_EQ(view.type, MessageType::kCredit);
          EXPECT_EQ(view.from, 7u);
          auto decoded = DecodeCreditPayload(view);
          ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
          got = *decoded;
        });
    ASSERT_TRUE(fed.ok());
    EXPECT_EQ(sinks, 1);
    EXPECT_EQ(got, consumed);
  }
}

TEST(CreditFrameTest, MalformedPayloadIsRejected) {
  // Trailing garbage after the varint, and an empty payload, both fail.
  Message bad;
  bad.type = MessageType::kCredit;
  bad.from = 3;
  bad.to = kNoNode;
  bad.payload = std::vector<uint8_t>{5, 0};  // count plus a stray byte
  std::vector<uint8_t> frame = EncodeFrame(bad);
  FrameAssembler assembler;
  Status fed = assembler.FeedViews(
      frame.data(), frame.size(), [&](const FrameView& view) {
        EXPECT_FALSE(DecodeCreditPayload(view).ok());
      });
  EXPECT_TRUE(fed.ok());  // The frame itself is sound; the payload is not.

  bad.payload = std::vector<uint8_t>{};
  std::vector<uint8_t> empty_frame = EncodeFrame(bad);
  Status fed2 = assembler.FeedViews(
      empty_frame.data(), empty_frame.size(), [&](const FrameView& view) {
        EXPECT_FALSE(DecodeCreditPayload(view).ok());
      });
  EXPECT_TRUE(fed2.ok());
}

TEST(CreditFrameTest, FramesDecodedCountsWireFramesNotMessages) {
  // Stream = plain frame + 3-message batch + credit: 3 wire frames total,
  // which is what a receiver credits back (the credit unit is the frame).
  std::vector<uint8_t> stream =
      EncodeFrame(Make(MessageType::kToken, 1, 2, 1, {9}));
  std::vector<Message> msgs = {
      Make(MessageType::kQueryAnswer, 1, 2, 2, {1}),
      Make(MessageType::kQueryAnswer, 1, 2, 3, {2}),
      Make(MessageType::kQueryAnswer, 1, 2, 4, {3}),
  };
  std::vector<uint8_t> batch = EncodeBatchFrame(msgs);
  stream.insert(stream.end(), batch.begin(), batch.end());
  std::vector<uint8_t> credit = EncodeCreditFrame(2, 17);
  stream.insert(stream.end(), credit.begin(), credit.end());

  FrameAssembler assembler;
  int sinks = 0;
  ASSERT_TRUE(assembler
                  .FeedViews(stream.data(), stream.size(),
                             [&](const FrameView&) { ++sinks; })
                  .ok());
  EXPECT_EQ(sinks, 5);  // 1 plain + 3 unpacked + 1 credit view.
  EXPECT_EQ(assembler.frames_decoded(), 3u);
}

// --- Control-plane handshake codec (src/core/control.h) -------------------

/// A realistic bootstrap: the Section-2 running example's digest and a
/// controller listening on loopback.
core::wire::SessionBootstrap MakeBootstrap() {
  auto system = p2pdb::workload::MakeRunningExample();
  EXPECT_TRUE(system.ok());
  core::wire::SessionBootstrap b;
  b.system_digest = daemon::SystemDigest(*system);
  b.controller_host = "127.0.0.1";
  b.controller_port = 39999;
  return b;
}

TEST(ControlCodecTest, SessionBootstrapRoundTrips) {
  core::wire::SessionBootstrap b = MakeBootstrap();
  ASSERT_NE(b.system_digest, 0u);
  auto decoded = core::wire::SessionBootstrap::Decode(b.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->system_digest, b.system_digest);
  EXPECT_EQ(decoded->controller_host, b.controller_host);
  EXPECT_EQ(decoded->controller_port, b.controller_port);
}

TEST(ControlCodecTest, MalformedBootstrapIsRejected) {
  core::wire::SessionBootstrap b = MakeBootstrap();
  std::vector<uint8_t> good = b.Encode();

  // Trailing bytes: decoded whole or not at all.
  std::vector<uint8_t> trailing = good;
  trailing.push_back(0);
  EXPECT_FALSE(core::wire::SessionBootstrap::Decode(trailing).ok());

  // Any truncation fails (no prefix of a bootstrap is a bootstrap).
  for (size_t cut = 0; cut < good.size(); ++cut) {
    std::vector<uint8_t> prefix(good.begin(), good.begin() + cut);
    EXPECT_FALSE(core::wire::SessionBootstrap::Decode(prefix).ok())
        << "prefix of " << cut << " bytes decoded";
  }

  // The port is a varint: 65535 decodes, and 65536, which does not fit a
  // port, is rejected rather than wrapped onto another port.
  EXPECT_TRUE(core::wire::SessionBootstrap::Decode(
                  testing_codec::HexBytes("00000000 0168 ffff03"))
                  .ok());
  EXPECT_FALSE(core::wire::SessionBootstrap::Decode(
                   testing_codec::HexBytes("00000000 0168 808004"))
                   .ok());
}

TEST(ControlCodecTest, AckStatusAndDumpRoundTrip) {
  core::wire::BootstrapAck ack;
  ack.error = "system digest mismatch";
  auto ack2 = core::wire::BootstrapAck::Decode(ack.Encode());
  ASSERT_TRUE(ack2.ok());
  EXPECT_EQ(ack2->error, ack.error);

  core::wire::StatusReport report;
  report.id = 77;
  report.state_discovery = 2;
  report.state_update = 1;
  report.tuples = 12345;
  report.tuples_inserted = 678;
  report.joins_evaluated = 90;
  report.answers_sent = 11;
  report.token_passes = 4;
  report.reopens = 1;
  auto report2 = core::wire::StatusReport::Decode(report.Encode());
  ASSERT_TRUE(report2.ok());
  EXPECT_EQ(report2->id, report.id);  // The echoed request id.
  EXPECT_EQ(report2->state_discovery, report.state_discovery);
  EXPECT_EQ(report2->state_update, report.state_update);
  EXPECT_EQ(report2->tuples, report.tuples);
  EXPECT_EQ(report2->tuples_inserted, report.tuples_inserted);
  EXPECT_EQ(report2->joins_evaluated, report.joins_evaluated);
  EXPECT_EQ(report2->answers_sent, report.answers_sent);
  EXPECT_EQ(report2->token_passes, report.token_passes);
  EXPECT_EQ(report2->reopens, report.reopens);

  core::wire::ControlStartUpdate start;
  start.session = 42;
  auto start2 = core::wire::ControlStartUpdate::Decode(start.Encode());
  ASSERT_TRUE(start2.ok());
  EXPECT_EQ(start2->session, start.session);

  core::wire::DumpReply dump;
  dump.database = {0xde, 0xad, 0xbe, 0xef};
  auto dump2 = core::wire::DumpReply::Decode(dump.Encode());
  ASSERT_TRUE(dump2.ok());
  EXPECT_EQ(dump2->database, dump.database);
}

TEST(ControlCodecTest, StatusRequestRoundTripsAndRejectsUnknownCondition) {
  using Until = core::wire::StatusRequest::Until;
  for (Until until :
       {Until::kNow, Until::kDiscoveryClosed, Until::kUpdateClosed}) {
    core::wire::StatusRequest request;
    request.id = 1234567;
    request.until = until;
    request.session = 42;
    auto decoded = core::wire::StatusRequest::Decode(request.Encode());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->id, request.id);
    EXPECT_EQ(decoded->until, request.until);
    EXPECT_EQ(decoded->session, request.session);
  }
  core::wire::StatusRequest unknown;
  unknown.until = static_cast<Until>(3);
  auto decoded = core::wire::StatusRequest::Decode(unknown.Encode());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("unknown status condition"),
            std::string::npos);
}

/// One control payload under test: its name, its encoding, the golden bytes
/// that encoding must equal, and its decoder, which re-encodes what it
/// decodes.
struct ControlCase {
  std::string name;
  std::vector<uint8_t> bytes;
  std::vector<uint8_t> golden;
  testing_codec::Recode recode;
};

template <typename Payload>
ControlCase ControlCaseOf(std::string name, const Payload& payload,
                          std::string_view golden) {
  return {std::move(name), payload.Encode(), testing_codec::HexBytes(golden),
          [](const std::vector<uint8_t>& bytes)
              -> std::optional<std::vector<uint8_t>> {
            auto decoded = Payload::Decode(bytes);
            if (!decoded.ok()) return std::nullopt;
            return decoded->Encode();
          }};
}

// Golden bytes for every control payload, then whole-or-nothing decoding: a
// trailing byte, every truncation and seeded mutants.
TEST(ControlCodecTest, EveryPayloadDecodesWholeOrNotAtAll) {
  namespace wire = core::wire;
  wire::SessionBootstrap bootstrap{0xdeadbeef, "127.0.0.1", 39999};
  wire::BootstrapAck ack{"digest mismatch"};
  wire::StatusRequest request{17, wire::StatusRequest::Until::kUpdateClosed, 2};
  wire::StatusReport report;
  report.id = 17;
  report.state_discovery = 2;
  report.state_update = 2;
  report.tuples = 300;
  report.tuples_inserted = 20000;
  report.reopens = 1;
  wire::DumpReply dump{{0xde, 0xad, 0xbe, 0xef}};

  const std::vector<ControlCase> cases = {
      // Digest, controller host, controller port.
      ControlCaseOf("SessionBootstrap", bootstrap,
                    "efbeadde 09 3132372e302e302e31 bfb802"),
      ControlCaseOf("BootstrapAck", ack, "0f 646967657374206d69736d61746368"),
      ControlCaseOf("ControlStartUpdate", wire::ControlStartUpdate{20000},
                    "a09c01"),
      ControlCaseOf("StatusRequest", request, "11 02 02"),
      ControlCaseOf("StatusReport", report,
                    "11 02 02 ac02 a09c01 00 00 00 01"),
      ControlCaseOf("DumpReply", dump, "04 deadbeef"),
  };
  uint64_t seed = 100;
  for (const ControlCase& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(testing_codec::Hex(c.bytes), testing_codec::Hex(c.golden));
    ASSERT_EQ(c.recode(c.golden), c.golden) << "golden bytes do not round-trip";
    std::vector<uint8_t> trailing = c.bytes;
    trailing.push_back(0);
    EXPECT_FALSE(c.recode(trailing)) << "decoded with a trailing byte";
    for (size_t cut = 0; cut < c.bytes.size(); ++cut) {
      EXPECT_FALSE(c.recode({c.bytes.begin(), c.bytes.begin() + cut}))
          << "prefix of " << cut << " bytes decoded";
    }
    testing_codec::ExpectMutantsDecodeWholeOrNotAtAll(c.bytes, c.recode, 200,
                                                      seed++);
  }
}

}  // namespace
}  // namespace p2pdb::net
