#include <gtest/gtest.h>

#include "model/schema_builder.h"
#include "tests/test_fixtures.h"
#include "verify/verifier.h"

namespace adept {
namespace {

using testing_fixtures::ComplexSchema;
using testing_fixtures::LoopSchema;
using testing_fixtures::OnlineOrderV1;
using testing_fixtures::OnlineOrderV2;
using testing_fixtures::SequenceSchema;
using testing_fixtures::XorSchema;

bool HasIssue(const VerificationReport& report, VerifyRule rule) {
  for (const auto& i : report.issues()) {
    if (i.rule == rule) return true;
  }
  return false;
}

TEST(VerifierTest, CleanSchemasPass) {
  for (auto schema : {OnlineOrderV1(), OnlineOrderV2(), SequenceSchema(10),
                      XorSchema(), LoopSchema(), ComplexSchema()}) {
    ASSERT_NE(schema, nullptr);
    auto report = VerifySchema(*schema);
    EXPECT_TRUE(report.ok()) << schema->type_name() << ":\n"
                             << report.DebugString();
    EXPECT_TRUE(VerifySchemaOrError(*schema).ok());
  }
}

TEST(VerifierTest, SyncEdgeAcrossBranchesIsLegal) {
  auto schema = OnlineOrderV2();
  auto report = VerifySchema(*schema);
  EXPECT_TRUE(report.ok()) << report.DebugString();
}

TEST(VerifierTest, DetectsDeadlockCausingSyncCycle) {
  // Two sync edges in opposite directions between parallel branches create
  // the paper's deadlock-causing cycle (Fig. 1, instance I2).
  SchemaBuilder b("deadlock", 1);
  NodeId a1, a2, b1, b2;
  b.Parallel({
      [&](SchemaBuilder& s) {
        a1 = s.Activity("a1");
        a2 = s.Activity("a2");
      },
      [&](SchemaBuilder& s) {
        b1 = s.Activity("b1");
        b2 = s.Activity("b2");
      },
  });
  b.SyncEdge(a2, b1);  // a2 before b1
  b.SyncEdge(b2, a1);  // b2 before a1 -> cycle a1..a2 -> b1..b2 -> a1
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok()) << schema.status();
  auto report = VerifySchema(**schema);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasIssue(report, VerifyRule::kDeadlockCycle))
      << report.DebugString();
}

TEST(VerifierTest, SyncEdgeWithinSameBranchRejected) {
  SchemaBuilder b("same_branch", 1);
  NodeId a1, a2;
  b.Parallel({
      [&](SchemaBuilder& s) {
        a1 = s.Activity("a1");
        a2 = s.Activity("a2");
      },
      [&](SchemaBuilder& s) { s.Activity("b1"); },
  });
  b.SyncEdge(a1, a2);  // same branch: illegal
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto report = VerifySchema(**schema);
  EXPECT_TRUE(HasIssue(report, VerifyRule::kSyncEdge)) << report.DebugString();
}

TEST(VerifierTest, SyncEdgeOutsideParallelRejected) {
  SchemaBuilder b("no_parallel", 1);
  NodeId a1 = b.Activity("a1");
  NodeId a2 = b.Activity("a2");
  b.SyncEdge(a1, a2);
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto report = VerifySchema(**schema);
  EXPECT_TRUE(HasIssue(report, VerifyRule::kSyncEdge));
}

TEST(VerifierTest, SyncEdgeCrossingLoopBoundaryRejected) {
  SchemaBuilder b("loop_cross", 1);
  DataId redo = b.Data("redo", DataType::kBool);
  NodeId inner, outer;
  b.Parallel({
      [&](SchemaBuilder& s) {
        s.Loop(redo, [&](SchemaBuilder& t) {
          inner = t.Activity("inner");
          t.Writes(inner, redo);
        });
      },
      [&](SchemaBuilder& s) { outer = s.Activity("outer"); },
  });
  b.SyncEdge(inner, outer);
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto report = VerifySchema(**schema);
  EXPECT_TRUE(HasIssue(report, VerifyRule::kSyncEdge)) << report.DebugString();
}

TEST(VerifierTest, DetectsMissingData) {
  SchemaBuilder b("missing_data", 1);
  DataId amount = b.Data("amount", DataType::kDouble);
  NodeId reader = b.Activity("reader");
  b.Reads(reader, amount);  // nobody writes amount
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto report = VerifySchema(**schema);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasIssue(report, VerifyRule::kMissingData));
}

TEST(VerifierTest, OptionalReadNotRequired) {
  SchemaBuilder b("optional_read", 1);
  DataId amount = b.Data("amount", DataType::kDouble);
  NodeId reader = b.Activity("reader");
  b.Reads(reader, amount, /*optional=*/true);
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto report = VerifySchema(**schema);
  EXPECT_TRUE(report.ok()) << report.DebugString();
}

TEST(VerifierTest, XorBranchWriteIsNotGuaranteed) {
  // Writer sits in one XOR branch only: a reader after the join must fail
  // the guarantee (intersection semantics).
  SchemaBuilder b("xor_write", 1);
  DataId sel = b.Data("sel", DataType::kInt);
  DataId amount = b.Data("amount", DataType::kDouble);
  NodeId init = b.Activity("init");
  b.Writes(init, sel);
  b.Conditional(sel, {
      [&](SchemaBuilder& s) {
        NodeId w = s.Activity("writer");
        s.Writes(w, amount);
      },
      [](SchemaBuilder& s) { s.Activity("other"); },
  });
  NodeId reader = b.Activity("reader");
  b.Reads(reader, amount);
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto report = VerifySchema(**schema);
  EXPECT_TRUE(HasIssue(report, VerifyRule::kMissingData))
      << report.DebugString();
}

TEST(VerifierTest, AndBranchWriteIsGuaranteedAfterJoin) {
  SchemaBuilder b("and_write", 1);
  DataId amount = b.Data("amount", DataType::kDouble);
  b.Parallel({
      [&](SchemaBuilder& s) {
        NodeId w = s.Activity("writer");
        s.Writes(w, amount);
      },
      [](SchemaBuilder& s) { s.Activity("other"); },
  });
  NodeId reader = b.Activity("reader");
  b.Reads(reader, amount);
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto report = VerifySchema(**schema);
  EXPECT_TRUE(report.ok()) << report.DebugString();
}

TEST(VerifierTest, ParallelReadWithoutSyncIsRaceWarning) {
  SchemaBuilder b("race", 1);
  DataId amount = b.Data("amount", DataType::kDouble);
  NodeId init = b.Activity("init");
  b.Writes(init, amount);
  b.Parallel({
      [&](SchemaBuilder& s) {
        NodeId w = s.Activity("writer");
        s.Writes(w, amount);
      },
      [&](SchemaBuilder& s) {
        NodeId r = s.Activity("reader");
        s.Reads(r, amount);
      },
  });
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto report = VerifySchema(**schema);
  EXPECT_TRUE(report.ok());  // warnings only
  EXPECT_TRUE(HasIssue(report, VerifyRule::kDataRace)) << report.DebugString();
}

TEST(VerifierTest, SyncEdgeSilencesRaceWarning) {
  SchemaBuilder b("race_sync", 1);
  DataId amount = b.Data("amount", DataType::kDouble);
  NodeId init = b.Activity("init");
  b.Writes(init, amount);
  NodeId writer, reader;
  b.Parallel({
      [&](SchemaBuilder& s) {
        writer = s.Activity("writer");
        s.Writes(writer, amount);
      },
      [&](SchemaBuilder& s) {
        reader = s.Activity("reader");
        s.Reads(reader, amount);
      },
  });
  b.SyncEdge(writer, reader);
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto report = VerifySchema(**schema);
  EXPECT_FALSE(HasIssue(report, VerifyRule::kDataRace))
      << report.DebugString();
}

TEST(VerifierTest, ParallelWritesAreLostUpdateWarning) {
  SchemaBuilder b("lost_update", 1);
  DataId amount = b.Data("amount", DataType::kDouble);
  b.Parallel({
      [&](SchemaBuilder& s) {
        NodeId w = s.Activity("w1");
        s.Writes(w, amount);
      },
      [&](SchemaBuilder& s) {
        NodeId w = s.Activity("w2");
        s.Writes(w, amount);
      },
  });
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto report = VerifySchema(**schema);
  EXPECT_TRUE(HasIssue(report, VerifyRule::kLostUpdate));
}

TEST(VerifierTest, XorDecisionTypeChecked) {
  SchemaBuilder b("bad_decision", 1);
  DataId flag = b.Data("flag", DataType::kString);  // must be int
  NodeId init = b.Activity("init");
  b.Writes(init, flag);
  b.Conditional(flag, {
      [](SchemaBuilder& s) { s.Activity("x"); },
      [](SchemaBuilder& s) { s.Activity("y"); },
  });
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto report = VerifySchema(**schema);
  EXPECT_TRUE(HasIssue(report, VerifyRule::kDecision));
  EXPECT_FALSE(report.ok());
}

TEST(VerifierTest, MissingDecisionDataIsWarningOnly) {
  SchemaBuilder b("manual_decision", 1);
  b.Conditional(DataId::Invalid(), {
      [](SchemaBuilder& s) { s.Activity("x"); },
      [](SchemaBuilder& s) { s.Activity("y"); },
  });
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto report = VerifySchema(**schema);
  EXPECT_TRUE(report.ok()) << report.DebugString();
  EXPECT_TRUE(HasIssue(report, VerifyRule::kDecision));
}

TEST(VerifierTest, DuplicateBranchCodesRejected) {
  SchemaBuilder b("dup_codes", 1);
  DataId sel = b.Data("sel", DataType::kInt);
  NodeId init = b.Activity("init");
  b.Writes(init, sel);
  auto ids = b.Conditional(sel, {
      [](SchemaBuilder& s) { s.Activity("x"); },
      [](SchemaBuilder& s) { s.Activity("y"); },
  });
  // Forge a duplicate selection code on the second branch edge.
  auto clone = b.mutable_schema();
  clone->VisitOutEdges(ids.open, [&](const Edge& e) {
    ASSERT_TRUE(clone->SetBranchValue(e.id, 0).ok());
  });
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto report = VerifySchema(**schema);
  EXPECT_TRUE(HasIssue(report, VerifyRule::kDecision));
}

TEST(VerifierTest, DegreeViolationsDetected) {
  // Hand-build: activity with two outgoing control edges.
  ProcessSchema s("degrees", 1);
  Node n;
  n.type = NodeType::kStartFlow;
  NodeId start = *s.AddNode(n);
  n.type = NodeType::kActivity;
  n.name = "a";
  NodeId a = *s.AddNode(n);
  n.name = "b";
  NodeId bnode = *s.AddNode(n);
  n.type = NodeType::kEndFlow;
  NodeId end = *s.AddNode(n);
  ASSERT_TRUE(s.AddEdge(start, a, EdgeType::kControl).ok());
  ASSERT_TRUE(s.AddEdge(a, bnode, EdgeType::kControl).ok());
  ASSERT_TRUE(s.AddEdge(a, end, EdgeType::kControl).ok());
  ASSERT_TRUE(s.AddEdge(bnode, end, EdgeType::kControl).ok());
  ASSERT_TRUE(s.Freeze().ok());
  auto report = VerifySchema(s);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasIssue(report, VerifyRule::kStructure));
}

TEST(VerifierTest, DuplicateNamesAreWarning) {
  SchemaBuilder b("dups", 1);
  b.Activity("same");
  b.Activity("same");
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto report = VerifySchema(**schema);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(HasIssue(report, VerifyRule::kNaming));
}

TEST(VerifierTest, ReportFormatting) {
  auto schema = OnlineOrderV1();
  auto report = VerifySchema(*schema);
  EXPECT_EQ(report.DebugString(), "clean\n");
  EXPECT_EQ(report.FirstError(), "");
  EXPECT_EQ(report.error_count(), 0u);
}

// --- Machine-readable diagnostics (rule ids, spans, fix hints, JSON) ---------

TEST(VerifierTest, RuleIdsAreStable) {
  // Golden mapping: append-only, never renumber (downstream suppressions
  // and lint baselines key on these).
  EXPECT_STREQ(VerifyRuleId(VerifyRule::kStructure), "AV001");
  EXPECT_STREQ(VerifyRuleId(VerifyRule::kControlCycle), "AV002");
  EXPECT_STREQ(VerifyRuleId(VerifyRule::kBlockNesting), "AV003");
  EXPECT_STREQ(VerifyRuleId(VerifyRule::kSyncEdge), "AV004");
  EXPECT_STREQ(VerifyRuleId(VerifyRule::kDeadlockCycle), "AV005");
  EXPECT_STREQ(VerifyRuleId(VerifyRule::kDecision), "AV006");
  EXPECT_STREQ(VerifyRuleId(VerifyRule::kMissingData), "AV007");
  EXPECT_STREQ(VerifyRuleId(VerifyRule::kLostUpdate), "AV008");
  EXPECT_STREQ(VerifyRuleId(VerifyRule::kDataRace), "AV009");
  EXPECT_STREQ(VerifyRuleId(VerifyRule::kNaming), "AV010");
}

TEST(VerifierTest, MissingDataFindingCarriesSpanAndFixHint) {
  SchemaBuilder b("span", 1);
  DataId amount = b.Data("amount", DataType::kDouble);
  NodeId reader = b.Activity("reader");
  b.Reads(reader, amount);
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto report = VerifySchema(**schema);
  ASSERT_FALSE(report.ok());
  const VerificationIssue* found = nullptr;
  for (const auto& i : report.issues()) {
    if (i.rule == VerifyRule::kMissingData) found = &i;
  }
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->node, reader);
  EXPECT_EQ(found->data, amount);
  ASSERT_EQ(found->span.size(), 2u);
  EXPECT_TRUE(found->span[0] == EntitySpan::Node(reader));
  EXPECT_TRUE(found->span[1] == EntitySpan::Data(amount));
  EXPECT_NE(found->fix_hint.find("'amount'"), std::string::npos)
      << found->fix_hint;
}

TEST(VerifierTest, RaceFindingSpansBothAccessors) {
  SchemaBuilder b("racespan", 1);
  DataId d = b.Data("d", DataType::kInt);
  NodeId w1, w2;
  b.Parallel({
      [&](SchemaBuilder& s) {
        w1 = s.Activity("w1");
        s.Writes(w1, d);
      },
      [&](SchemaBuilder& s) {
        w2 = s.Activity("w2");
        s.Writes(w2, d);
      },
  });
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto report = VerifySchema(**schema);
  const VerificationIssue* found = nullptr;
  for (const auto& i : report.issues()) {
    if (i.rule == VerifyRule::kLostUpdate) found = &i;
  }
  ASSERT_NE(found, nullptr);
  // Span: first writer, the data element, the second writer.
  EXPECT_EQ(found->span.size(), 3u);
  int node_spans = 0;
  for (const auto& s : found->span) {
    if (s.kind == EntitySpan::Kind::kNode) ++node_spans;
  }
  EXPECT_EQ(node_spans, 2);
  EXPECT_FALSE(found->fix_hint.empty());
}

TEST(VerifierTest, ReportJsonGolden) {
  SchemaBuilder b("jsongold", 1);
  b.Activity("same");
  b.Activity("same");
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto report = VerifySchema(**schema);
  ASSERT_EQ(report.issues().size(), 1u);
  JsonValue j = report.ToJson();
  EXPECT_EQ(j.Get("ok").as_bool(), true);
  EXPECT_EQ(j.Get("errors").as_int(), 0);
  EXPECT_EQ(j.Get("warnings").as_int(), 1);
  const JsonValue& finding = j.Get("findings").as_array()[0];
  EXPECT_EQ(finding.Get("rule_id").as_string(), "AV010");
  EXPECT_EQ(finding.Get("rule").as_string(), "naming");
  EXPECT_EQ(finding.Get("severity").as_string(), "warning");
  EXPECT_EQ(finding.Get("message").as_string(),
            "activity name 'same' used 2 times");
  EXPECT_EQ(finding.Get("span").as_array().size(), 2u);
  EXPECT_EQ(finding.Get("span").as_array()[0].Get("kind").as_string(),
            "node");
  EXPECT_EQ(finding.Get("fix_hint").as_string(),
            "rename the duplicate activities");
  // Round-trips through the JSON layer (adept_lint consumes this form).
  auto parsed = JsonValue::Parse(j.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(*parsed == j);
}

TEST(VerifierTest, CanonicalStringIsOrderIndependent) {
  VerificationIssue a{VerifyRule::kNaming, VerifySeverity::kWarning,
                      "msg a",           NodeId(1),
                      EdgeId::Invalid(), DataId::Invalid(),
                      {},                ""};
  VerificationIssue b{VerifyRule::kStructure, VerifySeverity::kError,
                      "msg b",           NodeId(2),
                      EdgeId::Invalid(), DataId::Invalid(),
                      {},                ""};
  VerificationReport r1, r2;
  r1.Add(a);
  r1.Add(b);
  r2.Add(b);
  r2.Add(a);
  EXPECT_EQ(r1.CanonicalString(), r2.CanonicalString());
  EXPECT_NE(r1.CanonicalString(), "");
}

}  // namespace
}  // namespace adept
