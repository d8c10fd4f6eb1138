#include "src/core/wire.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string_view>
#include <type_traits>

#include "src/relational/tuple_log.h"
#include "src/workload/scenario.h"
#include "tests/codec_testing.h"

namespace p2pdb::core::wire {
namespace {

rel::Value S(const char* s) { return rel::Value::Str(s); }
rel::Value I(int64_t i) { return rel::Value::Int(i); }

TEST(WireTest, ValueRoundTrip) {
  for (const rel::Value& v :
       {I(0), I(-42), I(1LL << 60), S(""), S("hello world"),
        rel::Value::Null(0x1234567890ULL)}) {
    Writer w;
    EncodeValue(v, &w);
    Reader r(w.bytes());
    auto back = DecodeValue(&r);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

std::vector<uint8_t> Concat(const std::vector<std::vector<uint8_t>>& parts) {
  std::vector<uint8_t> out;
  for (const std::vector<uint8_t>& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

// Golden bytes: a string constant travels as its length and content, never
// as an id private to one process.
TEST(WireTest, ValueAndTupleBytesAreGolden) {
  const rel::Value null = rel::Value::Null(0x700000001ULL);
  const rel::Value values[] = {I(-5), S("title-7"), null};
  const std::vector<std::vector<uint8_t>> value_bytes = {
      {0x00, 0x09},
      {0x01, 0x07, 't', 'i', 't', 'l', 'e', '-', '7'},
      {0x02, 0x01, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00},
  };
  for (size_t i = 0; i < 3; ++i) {
    Writer w;
    EncodeValue(values[i], &w);
    EXPECT_EQ(w.bytes(), value_bytes[i]) << values[i].ToString();
  }
  Writer w;
  EncodeTuple(rel::Tuple({values[0], values[1], values[2]}), &w);
  const std::vector<uint8_t> tuple_bytes =
      Concat({{0x03}, value_bytes[0], value_bytes[1], value_bytes[2]});
  EXPECT_EQ(w.bytes(), tuple_bytes);
}

TEST(WireTest, QueryAnswerBytesAreGolden) {
  QueryAnswer ans;
  ans.rule_id = "r1";
  ans.part = 2;
  ans.is_delta = true;
  ans.source_closed = false;
  ans.tuples = {rel::Tuple({S("bob"), I(3)}), rel::Tuple({S("al"), I(-1)})};
  // The header (rule_id, part, is_delta, source_closed), then the tuple
  // count and each tuple: its arity and values.
  const std::vector<uint8_t> golden = Concat({
      {0x02, 'r', '1'},
      {0x02, 0x00, 0x00, 0x00},
      {0x01, 0x00},
      {0x02},
      {0x02, 0x01, 0x03, 'b', 'o', 'b', 0x00, 0x06},
      {0x02, 0x01, 0x02, 'a', 'l', 0x00, 0x01},
  });
  EXPECT_EQ(ans.Encode(), golden);
  auto back = QueryAnswer::Decode(golden);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->tuples, ans.tuples);
}

TEST(WireTest, TupleListRoundTrip) {
  const std::vector<rel::Tuple> tuples{
      rel::Tuple({I(2), S("b")}),
      rel::Tuple({rel::Value::Null(7), S("c")}),
      rel::Tuple({I(1), S("a")}),
  };
  Writer w;
  EncodeTupleList(tuples, &w);
  Reader r(w.bytes());
  auto back = DecodeTupleList(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, tuples);
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, HostileTupleArityIsRejected) {
  // An arity larger than the bytes left cannot be genuine; decoding must
  // fail before it sizes anything by it.
  Writer list;
  list.PutVarint(1);  // One tuple, of that arity.
  list.PutVarint(uint64_t{1} << 40);
  EncodeValue(I(1), &list);
  Reader rl(list.bytes());
  EXPECT_NO_THROW(EXPECT_FALSE(DecodeTupleList(&rl).ok()));
}

TEST(WireTest, QueryAnswerKeepsTupleOrderAndRepeats) {
  QueryAnswer ans;
  ans.rule_id = "r3";
  ans.part = 1;
  ans.tuples = {rel::Tuple({I(9), S("z")}), rel::Tuple({I(1), S("a")}),
                rel::Tuple({I(9), S("z")}), rel::Tuple({rel::Value::Null(4)}),
                rel::Tuple({I(5), S("m")})};
  auto back = QueryAnswer::Decode(ans.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->tuples, ans.tuples);
}

TEST(WireTest, QueryAnswerCountPastEndIsRejected) {
  // A count no remaining bytes could hold fails as a parse error before the
  // decoder sizes anything by it (a reserve of 2^40 tuples would throw).
  QueryAnswer header;
  header.rule_id = "r1";
  std::vector<uint8_t> bytes = header.Encode();
  bytes.pop_back();  // The empty list's count.
  Writer w;
  w.PutVarint(uint64_t{1} << 40);
  EncodeTuple(rel::Tuple({I(1)}), &w);
  bytes.insert(bytes.end(), w.bytes().begin(), w.bytes().end());
  EXPECT_NO_THROW({
    auto decoded = QueryAnswer::Decode(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  });

  Reader r(w.bytes());
  EXPECT_NO_THROW({
    auto list = DecodeTupleList(&r);
    ASSERT_FALSE(list.ok());
    EXPECT_EQ(list.status().code(), StatusCode::kParseError);
  });
}

TEST(WireTest, LogRangeEncodingMatchesVectorEncoding) {
  rel::TupleLog log(2, {});
  for (int i : {7, 3, 11, 3, 5, 0}) log.Append(rel::Tuple({I(i), S("x")}));
  ASSERT_EQ(log.size(), 5u);  // The repeated 3 is not appended.
  const rel::LogView view(&log, log.size());
  QueryAnswer ans;
  ans.rule_id = "r2";
  ans.part = 3;
  ans.is_delta = false;
  ans.source_closed = true;
  for (size_t from = 0; from <= view.size(); ++from) {
    SCOPED_TRACE(from);
    ans.tuples.clear();
    for (size_t i = from; i < view.size(); ++i) {
      ans.tuples.push_back(view.at(i));
    }
    EXPECT_EQ(ans.EncodeFromLog(view, from), ans.Encode());
  }
}

TEST(WireTest, QueryRoundTrip) {
  rel::ConjunctiveQuery q;
  q.head_vars = {"X", "Y"};
  rel::Atom a;
  a.relation = "edge";
  a.terms = {rel::Term::Var("X"), rel::Term::Const(S("c"))};
  q.atoms = {a};
  rel::Builtin b;
  b.op = rel::BuiltinOp::kNe;
  b.lhs = rel::Term::Var("X");
  b.rhs = rel::Term::Var("Y");
  q.builtins = {b};

  QueryRequest request;
  request.query = q;
  auto back = QueryRequest::Decode(request.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->query.ToString(), q.ToString());
}

TEST(WireTest, RuleRoundTripOverExampleRules) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  for (const CoordinationRule& rule : system->rules()) {
    auto back = AddRuleChange::Decode(AddRuleChange{rule}.Encode());
    ASSERT_TRUE(back.ok()) << rule.id;
    EXPECT_EQ(back->rule.ToString(), rule.ToString());
  }
}

TEST(WireTest, EdgesRoundTrip) {
  std::set<Edge> edges{{0, 1}, {1, 2}, {2, 0}};
  auto back = DiscoverAnswer::Decode(DiscoverAnswer{0, false, edges}.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->edges, edges);
}

TEST(WireTest, DiscoverPayloadsRoundTrip) {
  DiscoverRequest req{7};
  auto req2 = DiscoverRequest::Decode(req.Encode());
  ASSERT_TRUE(req2.ok());
  EXPECT_EQ(req2->origin, 7u);

  DiscoverAnswer ans;
  ans.origin = 3;
  ans.visited = true;
  ans.edges = {{1, 2}};
  auto ans2 = DiscoverAnswer::Decode(ans.Encode());
  ASSERT_TRUE(ans2.ok());
  EXPECT_EQ(ans2->origin, 3u);
  EXPECT_TRUE(ans2->visited);
  EXPECT_EQ(ans2->edges, ans.edges);

  DiscoverClosure closure;
  closure.origin = 9;
  closure.edges = {{0, 1}, {1, 0}};
  auto closure2 = DiscoverClosure::Decode(closure.Encode());
  ASSERT_TRUE(closure2.ok());
  EXPECT_EQ(closure2->edges, closure.edges);
}

TEST(WireTest, UpdatePayloadsRoundTrip) {
  QueryRequest req;
  req.rule_id = "r1";
  req.part = 2;
  req.query.head_vars = {"X"};
  auto req2 = QueryRequest::Decode(req.Encode());
  ASSERT_TRUE(req2.ok());
  EXPECT_EQ(req2->rule_id, "r1");
  EXPECT_EQ(req2->part, 2u);

  QueryAnswer ans;
  ans.rule_id = "r1";
  ans.part = 2;
  ans.is_delta = false;
  ans.source_closed = true;
  ans.tuples = {rel::Tuple({I(1)})};
  auto ans2 = QueryAnswer::Decode(ans.Encode());
  ASSERT_TRUE(ans2.ok());
  EXPECT_FALSE(ans2->is_delta);
  EXPECT_TRUE(ans2->source_closed);
  EXPECT_EQ(ans2->tuples, ans.tuples);

  Unsubscribe unsub;
  unsub.rule_id = "rX";
  unsub.part = 1;
  auto unsub2 = Unsubscribe::Decode(unsub.Encode());
  ASSERT_TRUE(unsub2.ok());
  EXPECT_EQ(unsub2->rule_id, "rX");
}

TEST(WireTest, PartialUpdateRoundTrip) {
  PartialUpdate p;
  p.session = 4;
  p.relations = {"a", "b"};
  p.sn_path = {3, 1, 2};
  auto p2 = PartialUpdate::Decode(p.Encode());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p2->relations, p.relations);
  EXPECT_EQ(p2->sn_path, p.sn_path);
}

TEST(WireTest, TokenRoundTrip) {
  Token t;
  t.leader = 2;
  t.sum_sent = 100;
  t.sum_recv = 99;
  t.all_ready = false;
  auto t2 = Token::Decode(t.Encode());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2->leader, 2u);
  EXPECT_EQ(t2->sum_sent, 100u);
  EXPECT_EQ(t2->sum_recv, 99u);
  EXPECT_FALSE(t2->all_ready);
}

TEST(WireTest, ChangePayloadsRoundTrip) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  AddRuleChange add{system->rules().front()};
  auto add2 = AddRuleChange::Decode(add.Encode());
  ASSERT_TRUE(add2.ok());
  EXPECT_EQ(add2->rule.ToString(), add.rule.ToString());

  DeleteRuleChange del{"r7"};
  auto del2 = DeleteRuleChange::Decode(del.Encode());
  ASSERT_TRUE(del2.ok());
  EXPECT_EQ(del2->rule_id, "r7");
}

/// One payload under test: its name, its encoding, the golden bytes that
/// encoding must equal, and its decoder, which re-encodes what it decodes.
struct PayloadCase {
  std::string name;
  std::vector<uint8_t> bytes;
  std::vector<uint8_t> golden;
  testing_codec::Recode recode;
};

template <typename Payload>
PayloadCase CaseOf(std::string name, const Payload& payload,
                   std::string_view golden) {
  return {std::move(name), payload.Encode(), testing_codec::HexBytes(golden),
          [](const std::vector<uint8_t>& bytes)
              -> std::optional<std::vector<uint8_t>> {
            auto decoded = Payload::Decode(bytes);
            if (!decoded.ok()) return std::nullopt;
            return decoded->Encode();
          }};
}

// Golden bytes for every payload, then whole-or-nothing decoding: a trailing
// byte, every truncation and seeded mutants.
TEST(WireTest, EveryPayloadDecodesWholeOrNotAtAll) {
  const CoordinationRule rule = testing_codec::RichRule();
  // The rule's golden bytes: id, head node, head atoms, then each body
  // part's node, atoms and built-ins, the cross built-ins and the domain map.
  const std::string rule_golden(testing_codec::kRichRuleGolden);

  QueryRequest request;
  request.rule_id = "r1";
  request.part = 1;
  request.query.head_vars = {"X", "Y"};
  request.query.atoms = {{"a",
                          {rel::Term::Var("X"), rel::Term::Const(S("s")),
                           rel::Term::Const(I(-7)),
                           rel::Term::Const(rel::Value::Null(0x1000005)),
                           rel::Term::Var("Y")}}};
  request.query.builtins = {
      {rel::BuiltinOp::kGe, rel::Term::Var("X"), rel::Term::Const(I(20000))}};
  QueryAnswer answer;
  answer.rule_id = "r1";
  answer.part = 1;
  answer.is_delta = true;
  answer.source_closed = true;
  answer.tuples = {rel::Tuple({I(-1), S("a"), rel::Value::Null(0x1000005)}),
                   rel::Tuple({I(20000), S("b"), I(0)})};
  PartialUpdate partial;
  partial.session = 4;
  partial.relations = {"a", "b"};
  partial.sn_path = {300, 1, 2};
  Token token{200, 20000, 99, true};

  const std::vector<PayloadCase> cases = {
      CaseOf("DiscoverRequest", DiscoverRequest{200}, "c8000000"),
      CaseOf("DiscoverAnswer", DiscoverAnswer{130, true, {{1, 200}, {130, 0}}},
             "82000000 01 02 01000000c8000000 8200000000000000"),
      CaseOf("DiscoverClosure", DiscoverClosure{9, {{0, 300}, {300, 0}}},
             "09000000 02 000000002c010000 2c01000000000000"),
      CaseOf("UpdateStart", UpdateStart{uint64_t{1} << 40}, "0000000000010000"),
      CaseOf("QueryRequest", request,
             "027231 01000000"                     // rule, part
             " 02 0158 0159"                       // head X, Y
             " 01 0161 05 000158 01010173 01000d"  // a(X, "s", -7,
             " 01020500000100000000 000159"        //   _N, Y)
             " 01 05 000158 0100c0b802"),
      CaseOf("QueryAnswer", answer,
             "027231 01000000 01 01"                   // header
             " 02 03 0001 010161 020500000100000000"   // (-1, "a", _N)
             " 03 00c0b802 010162 0000"),
      CaseOf("Unsubscribe", Unsubscribe{"rX", 1}, "027258 01000000"),
      CaseOf("PartialUpdate", partial,
             "0400000000000000 02 0161 0162 03 2c010000 01000000 02000000"),
      CaseOf("Token", token,
             "c8000000 204e000000000000 6300000000000000 01"),
      CaseOf("Empty", Empty{}, ""),
      CaseOf("AddRuleChange", AddRuleChange{rule}, rule_golden),
      CaseOf("DeleteRuleChange", DeleteRuleChange{"r7"}, "027237"),
      CaseOf("RuleChangeRecord(add)", RuleChangeRecord::Add(rule),
             "01" + rule_golden),
      CaseOf("RuleChangeRecord(delete)", RuleChangeRecord::Delete("r7"),
             "02 027237"),
  };
  uint64_t seed = 1;
  for (const PayloadCase& c : cases) {
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

TEST(WireTest, TermKindAboveOneIsRejected) {
  // A term is a variable (kind 0) or a constant (kind 1); any other kind
  // byte is rejected rather than read as a constant.
  for (uint8_t kind : {1, 2, 0xff}) {
    SCOPED_TRACE(static_cast<int>(kind));
    Writer w;
    w.PutString("r1");  // rule id
    w.PutU32(0);        // part
    w.PutVarint(0);     // no head variables
    w.PutVarint(1);     // one atom, a(1):
    w.PutString("a");
    w.PutVarint(1);
    w.PutU8(kind);
    EncodeValue(I(1), &w);
    w.PutVarint(0);  // no built-ins
    auto decoded = QueryRequest::Decode(w.bytes());
    EXPECT_EQ(decoded.ok(), kind == 1) << decoded.status().ToString();
  }
}

TEST(WireTest, DecodeRejectsGarbage) {
  std::vector<uint8_t> garbage{0xff, 0x01, 0x02};
  EXPECT_FALSE(QueryRequest::Decode(garbage).ok());
  EXPECT_FALSE(AddRuleChange::Decode(garbage).ok());
  std::vector<uint8_t> empty;
  EXPECT_FALSE(DiscoverRequest::Decode(empty).ok());
}

}  // namespace
}  // namespace p2pdb::core::wire
