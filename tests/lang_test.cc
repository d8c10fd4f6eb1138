#include "src/lang/parser.h"

#include <gtest/gtest.h>

#include "src/lang/lexer.h"
#include "src/lang/printer.h"
#include "src/util/rng.h"
#include "src/workload/scenario.h"

namespace p2pdb::lang {
namespace {

TEST(LexerTest, TokenizesAllKinds) {
  auto tokens = Tokenize("node A { rel r(x); } # comment\n"
                         "rule r1: A.r(X), X != 3 => B.q(X);");
  ASSERT_TRUE(tokens.ok());
  // First few tokens.
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdent);
  EXPECT_EQ((*tokens)[0].text, "node");
  EXPECT_EQ((*tokens)[1].text, "A");
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kLBrace);
  EXPECT_EQ(tokens->back().kind, TokenKind::kEof);
}

TEST(LexerTest, StringsAndEscapes) {
  auto tokens = Tokenize(R"( "hello" "with \"quote\"" )");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "hello");
  EXPECT_EQ((*tokens)[1].text, "with \"quote\"");
}

TEST(LexerTest, NegativeIntegers) {
  auto tokens = Tokenize("-12 7");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].int_value, -12);
  EXPECT_EQ((*tokens)[1].int_value, 7);
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("\"open").ok());
}

TEST(LexerTest, UnknownCharacterFails) {
  EXPECT_FALSE(Tokenize("node @").ok());
}

TEST(LexerTest, TwoCharOperators) {
  auto tokens = Tokenize("=> :- != <= >= < > =");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kArrow);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kTurnstile);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kNe);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kLe);
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kGe);
  EXPECT_EQ((*tokens)[5].kind, TokenKind::kLt);
  EXPECT_EQ((*tokens)[6].kind, TokenKind::kGt);
  EXPECT_EQ((*tokens)[7].kind, TokenKind::kEq);
}

TEST(ParserTest, ParsesRunningExample) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  EXPECT_EQ(system->node_count(), 5u);
  EXPECT_EQ(system->rules().size(), 7u);
  // E holds three facts.
  EXPECT_EQ(system->node(*system->NodeByName("E")).db.TotalTuples(), 3u);
}

TEST(ParserTest, RuleStructure) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  auto r4 = system->RuleById("r4");
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ((*r4)->head_node, *system->NodeByName("A"));
  ASSERT_EQ((*r4)->body.size(), 1u);  // Both b-atoms at node B.
  EXPECT_EQ((*r4)->body[0].atoms.size(), 2u);
  EXPECT_EQ((*r4)->body[0].builtins.size(), 1u);  // X != Z local to B.
  EXPECT_TRUE((*r4)->cross_builtins.empty());
}

TEST(ParserTest, MultiNodeBodyBecomesParts) {
  const char* text = R"(
node A { rel a(x); }
node B { rel b(x); }
node C { rel c(x, y); }
rule j: A.a(X), B.b(Y), X != Y => C.c(X, Y);
)";
  auto system = ParseSystem(text);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  const core::CoordinationRule& rule = system->rules()[0];
  ASSERT_EQ(rule.body.size(), 2u);
  // X != Y spans parts: must be a cross built-in.
  EXPECT_EQ(rule.cross_builtins.size(), 1u);
  EXPECT_TRUE(rule.body[0].builtins.empty());
  EXPECT_TRUE(rule.body[1].builtins.empty());
}

TEST(ParserTest, ExistentialHeadVariables) {
  const char* text = R"(
node R { rel rec(a, t); }
node P { rel pub(i, t, y); rel wrote(a, i); }
rule x: R.rec(A, T) => P.pub(I, T, Y), P.wrote(A, I);
)";
  auto system = ParseSystem(text);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  auto existentials = system->rules()[0].ExistentialVars();
  EXPECT_EQ(existentials, (std::vector<std::string>{"I", "Y"}));
}

TEST(ParserTest, FactsWithMixedConstants) {
  const char* text = R"(
node N { rel t(a, b, c); fact t("s", 42, lowercase_is_string); }
)";
  auto system = ParseSystem(text);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  const rel::Relation* r = &system->node(0).db.relation("t");
  ASSERT_EQ(r->size(), 1u);
  const rel::Row t = r->View().at(0);
  EXPECT_EQ(t.at(0), rel::Value::Str("s"));
  EXPECT_EQ(t.at(1), rel::Value::Int(42));
  EXPECT_EQ(t.at(2), rel::Value::Str("lowercase_is_string"));
}

TEST(ParserTest, ErrorsAreReported) {
  EXPECT_FALSE(ParseSystem("node A { rel }").ok());
  // Unknown nodes.
  EXPECT_FALSE(ParseSystem("rule r: A.a(X) => B.b(X);").ok());
  EXPECT_FALSE(ParseSystem("garbage").ok());
  // Head atoms at two nodes.
  EXPECT_FALSE(ParseSystem(R"(
node A { rel a(x); }
node B { rel b(x); }
node C { rel c(x); }
rule r: A.a(X) => B.b(X), C.c(X);
)")
                   .ok());
  // Unbound built-in variable.
  EXPECT_FALSE(ParseSystem(R"(
node A { rel a(x); }
node B { rel b(x); }
rule r: A.a(X), W != X => B.b(X);
)")
                   .ok());
}

TEST(ParserTest, ValidationCatchesArityMismatch) {
  EXPECT_FALSE(ParseSystem(R"(
node A { rel a(x, y); }
node B { rel b(x); }
rule r: A.a(X) => B.b(X);
)")
                   .ok());
}

TEST(ParserTest, QueryParsing) {
  auto q = ParseQuery("q(X, Y) :- edge(X, Y), X != Y");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->head_vars, (std::vector<std::string>{"X", "Y"}));
  ASSERT_EQ(q->atoms.size(), 1u);
  EXPECT_EQ(q->atoms[0].relation, "edge");
  ASSERT_EQ(q->builtins.size(), 1u);
}

TEST(ParserTest, QueryWithConstants) {
  auto q = ParseQuery("q(Y) :- edge(\"a\", Y)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->atoms[0].terms[0].constant, rel::Value::Str("a"));
}

TEST(ParserTest, QueryRejectsConstantHead) {
  EXPECT_FALSE(ParseQuery("q(3) :- edge(X, Y)").ok());
}

TEST(PrinterTest, SystemRoundTripsThroughParser) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  std::string text = PrintSystem(*system);
  auto reparsed = ParseSystem(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << text;
  EXPECT_EQ(PrintSystem(*reparsed), text);
  EXPECT_EQ(reparsed->node_count(), system->node_count());
  EXPECT_EQ(reparsed->rules().size(), system->rules().size());
}

TEST(ParserTest, FuzzedInputsNeverCrash) {
  // Mutated fragments of a valid document must produce a clean error (or
  // parse), never crash or hang.
  const std::string base = R"(
node A { rel a(x); fact a("v"); }
node B { rel b(x); }
rule r: A.a(X), X != "q" => B.b(X);
)";
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = base;
    size_t edits = 1 + rng.NextBelow(4);
    for (size_t e = 0; e < edits; ++e) {
      size_t pos = rng.NextBelow(mutated.size());
      switch (rng.NextBelow(3)) {
        case 0:
          mutated[pos] = static_cast<char>(32 + rng.NextBelow(95));
          break;
        case 1:
          mutated.erase(pos, 1 + rng.NextBelow(5));
          break;
        default:
          mutated.insert(pos, "(");
          break;
      }
      if (mutated.empty()) mutated = "x";
    }
    auto result = ParseSystem(mutated);  // Must not crash.
    (void)result;
  }
  SUCCEED();
}

TEST(ParserTest, TruncationsOfValidInputNeverCrash) {
  const std::string base = R"(
node N { rel r(x, y); fact r(1, "s"); }
rule k: N.r(X, Y) => N.r(Y, X);
)";
  for (size_t len = 0; len <= base.size(); ++len) {
    auto result = ParseSystem(base.substr(0, len));
    (void)result;
  }
  SUCCEED();
}

TEST(PrinterTest, MaximalPathsTableMatchesSection2) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  std::string table = FormatMaximalPathsTable(*system);
  EXPECT_NE(table.find("ABCA"), std::string::npos);
  EXPECT_NE(table.find("ABE"), std::string::npos);
  EXPECT_NE(table.find("BCDAB"), std::string::npos);
  EXPECT_NE(table.find("DABCD"), std::string::npos);
}

}  // namespace
}  // namespace p2pdb::lang
