#include "mapping/swgraph.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/example98.h"

namespace fcm::mapping {
namespace {

using core::example98::Instance;
using core::example98::make_instance;

SwGraph example_graph(const Instance& instance) {
  return SwGraph::build(instance.hierarchy, instance.influence,
                        instance.processes);
}

TEST(ReplicaSuffix, LettersThenPairs) {
  EXPECT_EQ(replica_suffix(0), "a");
  EXPECT_EQ(replica_suffix(1), "b");
  EXPECT_EQ(replica_suffix(2), "c");
  EXPECT_EQ(replica_suffix(25), "z");
  EXPECT_EQ(replica_suffix(26), "aa");
}

TEST(SwGraph, Figure4TwelveNodes) {
  const Instance instance = make_instance();
  const SwGraph sw = example_graph(instance);
  EXPECT_EQ(sw.node_count(), 12u);
}

TEST(SwGraph, ReplicaNamesFollowConvention) {
  const Instance instance = make_instance();
  const SwGraph sw = example_graph(instance);
  // p1 (FT=3) -> p1a, p1b, p1c; p4 (FT=1) keeps its bare name.
  std::vector<std::string> names;
  for (const SwNode& n : sw.nodes()) names.push_back(n.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "p1a"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "p1b"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "p1c"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "p4"), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), "p4a"), names.end());
}

TEST(SwGraph, ReplicaPredicate) {
  const Instance instance = make_instance();
  const SwGraph sw = example_graph(instance);
  // Find p1a, p1b, p2a.
  graph::NodeIndex p1a = 0, p1b = 0, p2a = 0;
  for (graph::NodeIndex v = 0; v < sw.node_count(); ++v) {
    if (sw.node(v).name == "p1a") p1a = v;
    if (sw.node(v).name == "p1b") p1b = v;
    if (sw.node(v).name == "p2a") p2a = v;
  }
  EXPECT_TRUE(sw.replicas(p1a, p1b));
  EXPECT_FALSE(sw.replicas(p1a, p2a));
  EXPECT_FALSE(sw.replicas(p1a, p1a));
}

TEST(SwGraph, ReplicaLinksHaveZeroWeight) {
  // "The three replicates are linked with edges with an influence value of
  // 0." p1: 3 links, p2: 1, p3: 1 -> 5 zero-weight replica links.
  const Instance instance = make_instance();
  const SwGraph sw = example_graph(instance);
  int replica_links = 0;
  for (const graph::Edge& e : sw.influence_graph().edges()) {
    if (e.label == "replica") {
      EXPECT_DOUBLE_EQ(e.weight, 0.0);
      EXPECT_TRUE(sw.replicas(e.from, e.to));
      ++replica_links;
    }
  }
  EXPECT_EQ(replica_links, 5);
}

TEST(SwGraph, EdgesReplicatedAcrossCopies) {
  // "Edges with neighbors are also replicated": p1 -> p2 (0.7) becomes
  // 3 x 2 = 6 edges.
  const Instance instance = make_instance();
  const SwGraph sw = example_graph(instance);
  int p1_to_p2 = 0;
  for (const graph::Edge& e : sw.influence_graph().edges()) {
    const SwNode& from = sw.node(e.from);
    const SwNode& to = sw.node(e.to);
    if (from.origin == instance.process(1) &&
        to.origin == instance.process(2)) {
      EXPECT_DOUBLE_EQ(e.weight, 0.7);
      ++p1_to_p2;
    }
  }
  EXPECT_EQ(p1_to_p2, 6);
}

TEST(SwGraph, NodesCarryAttributesAndImportance) {
  const Instance instance = make_instance();
  const SwGraph sw = example_graph(instance);
  for (const SwNode& n : sw.nodes()) {
    EXPECT_GT(n.importance, 0.0) << n.name;
  }
  // All replicas of one process share attributes and importance.
  const SwNode* a = nullptr;
  const SwNode* b = nullptr;
  for (const SwNode& n : sw.nodes()) {
    if (n.name == "p1a") a = &n;
    if (n.name == "p1b") b = &n;
  }
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->attributes, b->attributes);
  EXPECT_DOUBLE_EQ(a->importance, b->importance);
}

TEST(SwGraph, JobsCarryTimingTriple) {
  const Instance instance = make_instance();
  const SwGraph sw = example_graph(instance);
  for (graph::NodeIndex v = 0; v < sw.node_count(); ++v) {
    ASSERT_TRUE(sw.has_timing(v));
    const sched::Job job = sw.job_of(v);
    EXPECT_TRUE(job.well_formed()) << sw.node(v).name;
  }
}

TEST(SwGraph, SubsetPromotesSurvivingReplicas) {
  // Dropping replicas must renumber the survivors densely and clamp the
  // replication attribute: a TMR process reduced to one surviving copy is
  // now a simplex and must not demand three distinct clusters downstream.
  const Instance instance = make_instance();
  const SwGraph sw = example_graph(instance);
  graph::NodeIndex p1c = 0, p2b = 0;
  for (graph::NodeIndex v = 0; v < sw.node_count(); ++v) {
    if (sw.node(v).name == "p1c") p1c = v;
    if (sw.node(v).name == "p2b") p2b = v;
  }
  std::vector<graph::NodeIndex> keep{std::min(p1c, p2b),
                                     std::max(p1c, p2b)};
  const SwGraph sub = sw.subset(keep);
  ASSERT_EQ(sub.node_count(), 2u);
  for (graph::NodeIndex v = 0; v < sub.node_count(); ++v) {
    const SwNode& node = sub.node(v);
    EXPECT_EQ(node.replica_index, 0);            // promoted
    EXPECT_EQ(node.attributes.replication, 1);   // clamped
  }
  // Names and origins are preserved — the survivor is still "p1c".
  EXPECT_EQ(sub.node(graph::NodeIndex{0}).name,
            p1c < p2b ? "p1c" : "p2b");
}

TEST(SwGraph, SubsetKeepsReplicaLinksAndIndices) {
  const Instance instance = make_instance();
  const SwGraph sw = example_graph(instance);
  graph::NodeIndex p1a = 0, p1b = 0;
  for (graph::NodeIndex v = 0; v < sw.node_count(); ++v) {
    if (sw.node(v).name == "p1a") p1a = v;
    if (sw.node(v).name == "p1b") p1b = v;
  }
  const SwGraph sub = sw.subset({std::min(p1a, p1b), std::max(p1a, p1b)});
  ASSERT_EQ(sub.node_count(), 2u);
  EXPECT_EQ(sub.node(graph::NodeIndex{0}).replica_index, 0);
  EXPECT_EQ(sub.node(graph::NodeIndex{1}).replica_index, 1);
  EXPECT_EQ(sub.node(graph::NodeIndex{0}).attributes.replication, 2);
  EXPECT_TRUE(sub.replicas(0, 1));
  // The weight-0 replica link between the survivors is induced.
  bool replica_link = false;
  for (const graph::Edge& edge : sub.influence_graph().edges()) {
    if (edge.weight == 0.0) replica_link = true;
  }
  EXPECT_TRUE(replica_link);
}

TEST(SwGraph, SubsetRejectsMalformedKeepLists) {
  const Instance instance = make_instance();
  const SwGraph sw = example_graph(instance);
  EXPECT_THROW(sw.subset({0, 0}), InvalidArgument);       // duplicate
  EXPECT_THROW(sw.subset({3, 1}), InvalidArgument);       // not ascending
  EXPECT_THROW(
      sw.subset({static_cast<graph::NodeIndex>(sw.node_count())}),
      InvalidArgument);  // unknown
}

TEST(SwGraph, RejectsNonProcessFcms) {
  core::FcmHierarchy h;
  const FcmId task = h.create("T", core::Level::kTask);
  core::InfluenceModel influence;
  influence.add_member(task, "T");
  EXPECT_THROW(SwGraph::build(h, influence, {task}), InvalidArgument);
}

TEST(SwGraph, RejectsDuplicateProcessIds) {
  // A repeated id would otherwise expand into two node sets sharing one
  // origin, which replicas() then treats as replicas of each other.
  const Instance instance = make_instance();
  std::vector<FcmId> processes = instance.processes;
  processes.push_back(processes[1]);
  EXPECT_THROW(SwGraph::build(instance.hierarchy, instance.influence,
                              processes),
               InvalidArgument);
}

TEST(SwGraph, RejectsProcessesOutsideTheInfluenceModel) {
  const Instance instance = make_instance();
  core::InfluenceModel empty;
  EXPECT_THROW(
      SwGraph::build(instance.hierarchy, empty, instance.processes),
      NotFound);
}

}  // namespace
}  // namespace fcm::mapping
