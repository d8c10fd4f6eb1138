// P2PSystem model validation (Definitions 1-3).
#include "src/core/system.h"

#include <gtest/gtest.h>

namespace p2pdb::core {
namespace {

rel::Database Db(const char* relation, size_t arity) {
  rel::Database db;
  std::vector<std::string> attrs;
  for (size_t i = 0; i < arity; ++i) attrs.push_back("c" + std::to_string(i));
  (void)db.CreateRelation(rel::RelationSchema(relation, attrs));
  return db;
}

rel::Atom MakeAtom(const char* relation, std::vector<const char*> vars) {
  rel::Atom a;
  a.relation = relation;
  for (const char* v : vars) a.terms.push_back(rel::Term::Var(v));
  return a;
}

CoordinationRule SimpleRule(const char* id, NodeId head, NodeId body) {
  CoordinationRule rule;
  rule.id = id;
  rule.head_node = head;
  rule.head_atoms = {MakeAtom("h", {"X"})};
  CoordinationRule::BodyPart part;
  part.node = body;
  part.atoms = {MakeAtom("b", {"X"})};
  rule.body = {part};
  return rule;
}

class SystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(system_.AddNode("H", Db("h", 1)).ok());
    ASSERT_TRUE(system_.AddNode("B", Db("b", 1)).ok());
  }
  P2PSystem system_;
};

TEST_F(SystemTest, NodeNamesUnique) {
  EXPECT_FALSE(system_.AddNode("H", Db("x", 1)).ok());
  EXPECT_EQ(system_.node_count(), 2u);
  EXPECT_EQ(*system_.NodeByName("B"), 1u);
  EXPECT_FALSE(system_.NodeByName("Z").ok());
}

TEST_F(SystemTest, ValidRuleAccepted) {
  EXPECT_TRUE(system_.AddRule(SimpleRule("r", 0, 1)).ok());
  EXPECT_TRUE(system_.RuleById("r").ok());
  EXPECT_EQ(system_.RulesWithHead(0).size(), 1u);
  EXPECT_TRUE(system_.RulesWithHead(1).empty());
}

TEST_F(SystemTest, RejectsHeadEqualsBody) {
  // Definition 2: indices must be distinct.
  CoordinationRule rule = SimpleRule("r", 0, 0);
  rule.body[0].atoms = {MakeAtom("h", {"X"})};
  EXPECT_FALSE(system_.AddRule(rule).ok());
}

TEST_F(SystemTest, RejectsUnknownNodesAndRelations) {
  EXPECT_FALSE(system_.AddRule(SimpleRule("r", 7, 1)).ok());  // Bad head.
  EXPECT_FALSE(system_.AddRule(SimpleRule("r", 0, 7)).ok());  // Bad body.
  CoordinationRule rule = SimpleRule("r", 0, 1);
  rule.head_atoms = {MakeAtom("nope", {"X"})};
  EXPECT_FALSE(system_.AddRule(rule).ok());
}

TEST_F(SystemTest, RejectsArityMismatch) {
  CoordinationRule rule = SimpleRule("r", 0, 1);
  rule.head_atoms = {MakeAtom("h", {"X", "Y"})};  // h has arity 1.
  EXPECT_FALSE(system_.AddRule(rule).ok());
}

TEST_F(SystemTest, RejectsDuplicateIdsAndParts) {
  ASSERT_TRUE(system_.AddRule(SimpleRule("r", 0, 1)).ok());
  EXPECT_EQ(system_.AddRule(SimpleRule("r", 0, 1)).code(),
            StatusCode::kAlreadyExists);
  CoordinationRule rule = SimpleRule("r2", 0, 1);
  rule.body.push_back(rule.body[0]);  // Same node twice.
  EXPECT_FALSE(system_.AddRule(rule).ok());
}

TEST_F(SystemTest, RejectsEmptyPieces) {
  CoordinationRule rule = SimpleRule("r", 0, 1);
  rule.head_atoms.clear();
  EXPECT_FALSE(system_.AddRule(rule).ok());
  rule = SimpleRule("r", 0, 1);
  rule.body.clear();
  EXPECT_FALSE(system_.AddRule(rule).ok());
  rule = SimpleRule("r", 0, 1);
  rule.body[0].atoms.clear();
  EXPECT_FALSE(system_.AddRule(rule).ok());
  rule = SimpleRule("", 0, 1);
  EXPECT_FALSE(system_.AddRule(rule).ok());
}

TEST_F(SystemTest, RemoveRule) {
  ASSERT_TRUE(system_.AddRule(SimpleRule("r", 0, 1)).ok());
  EXPECT_TRUE(system_.RemoveRule("r").ok());
  EXPECT_FALSE(system_.RuleById("r").ok());
  EXPECT_EQ(system_.RemoveRule("r").code(), StatusCode::kNotFound);
}

TEST_F(SystemTest, CombinedDatabaseMergesDisjointSignatures) {
  (void)system_.mutable_db(0)->Insert("h", rel::Tuple({rel::Value::Int(1)}));
  (void)system_.mutable_db(1)->Insert("b", rel::Tuple({rel::Value::Int(2)}));
  auto combined = system_.CombinedDatabase();
  ASSERT_TRUE(combined.ok());
  EXPECT_EQ(combined->TotalTuples(), 2u);
  EXPECT_NE(combined->Find("h"), rel::kNoRelation);
  EXPECT_NE(combined->Find("b"), rel::kNoRelation);
}

TEST_F(SystemTest, PartExportVarsCoverHeadJoinAndCrossBuiltins) {
  // Rule: B.b(X), H2.c(Y), X < Y => head(X): part 0 must export X (head +
  // cross builtin), part 1 must export Y (cross builtin only).
  ASSERT_TRUE(system_.AddNode("C", Db("c", 1)).ok());
  CoordinationRule rule;
  rule.id = "j";
  rule.head_node = 0;
  rule.head_atoms = {MakeAtom("h", {"X"})};
  CoordinationRule::BodyPart p0;
  p0.node = 1;
  p0.atoms = {MakeAtom("b", {"X"})};
  CoordinationRule::BodyPart p1;
  p1.node = 2;
  p1.atoms = {MakeAtom("c", {"Y"})};
  rule.body = {p0, p1};
  rel::Builtin lt;
  lt.op = rel::BuiltinOp::kLt;
  lt.lhs = rel::Term::Var("X");
  lt.rhs = rel::Term::Var("Y");
  rule.cross_builtins = {lt};
  EXPECT_EQ(rule.PartExportVars(0), (std::vector<std::string>{"X"}));
  EXPECT_EQ(rule.PartExportVars(1), (std::vector<std::string>{"Y"}));
  EXPECT_TRUE(rule.ExistentialVars().empty());
  EXPECT_EQ(rule.BodyNodes(), (std::vector<NodeId>{1, 2}));
}

TEST_F(SystemTest, ExistentialVarsDetected) {
  CoordinationRule rule = SimpleRule("r", 0, 1);
  rule.head_atoms = {MakeAtom("h", {"Z"})};  // Z not in body.
  EXPECT_EQ(rule.ExistentialVars(), (std::vector<std::string>{"Z"}));
}

}  // namespace
}  // namespace p2pdb::core
