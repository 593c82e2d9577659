#include "mapping/hw.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.h"

namespace fcm::mapping {
namespace {

TEST(HwGraph, CompleteNetworkIsStronglyConnected) {
  const HwGraph hw = HwGraph::complete(6);
  EXPECT_EQ(hw.node_count(), 6u);
  EXPECT_TRUE(hw.strongly_connected());
  for (std::uint32_t i = 0; i < 6; ++i) {
    for (std::uint32_t j = 0; j < 6; ++j) {
      if (i == j) continue;
      EXPECT_TRUE(hw.linked(HwNodeId(i), HwNodeId(j)));
      EXPECT_EQ(hw.hop_distance(HwNodeId(i), HwNodeId(j)), 1);
    }
  }
}

TEST(HwGraph, SingleNodePlatform) {
  const HwGraph hw = HwGraph::complete(1);
  EXPECT_EQ(hw.node_count(), 1u);
  EXPECT_TRUE(hw.strongly_connected());
  EXPECT_EQ(hw.hop_distance(HwNodeId(0), HwNodeId(0)), 0);
}

TEST(HwGraph, RejectsEmptyPlatform) {
  EXPECT_THROW(HwGraph::complete(0), InvalidArgument);
}

TEST(HwGraph, LineTopologyHopDistances) {
  HwGraph hw;
  const HwNodeId a = hw.add_node("a");
  const HwNodeId b = hw.add_node("b");
  const HwNodeId c = hw.add_node("c");
  hw.add_link(a, b, 1.0);
  hw.add_link(b, c, 1.0);
  EXPECT_EQ(hw.hop_distance(a, c), 2);
  EXPECT_EQ(hw.hop_distance(a, b), 1);
  EXPECT_TRUE(hw.strongly_connected());
}

TEST(HwGraph, DisconnectedDistanceThrows) {
  HwGraph hw;
  const HwNodeId a = hw.add_node("a");
  const HwNodeId b = hw.add_node("b");
  EXPECT_THROW((void)hw.hop_distance(a, b), Infeasible);
  EXPECT_FALSE(hw.strongly_connected());
}

TEST(HwGraph, HopRowMatchesPairwiseDistances) {
  // A 3x3 grid: linked pairs answer 1 without a search, the rest by BFS,
  // and one row holds every distance from its source.
  HwGraph hw;
  for (int i = 0; i < 9; ++i) hw.add_node("n" + std::to_string(i));
  for (std::uint32_t r = 0; r < 3; ++r) {
    for (std::uint32_t c = 0; c < 3; ++c) {
      if (c + 1 < 3) hw.add_link(HwNodeId(r * 3 + c), HwNodeId(r * 3 + c + 1), 1.0);
      if (r + 1 < 3) hw.add_link(HwNodeId(r * 3 + c), HwNodeId(r * 3 + c + 3), 1.0);
    }
  }
  for (std::uint32_t a = 0; a < 9; ++a) {
    const std::vector<int> row = hw.hop_row(HwNodeId(a));
    for (std::uint32_t b = 0; b < 9; ++b) {
      const int manhattan = std::abs(static_cast<int>(a / 3 - b / 3)) +
                            std::abs(static_cast<int>(a % 3) -
                                     static_cast<int>(b % 3));
      EXPECT_EQ(row[b], manhattan);
      EXPECT_EQ(hw.hop_distance(HwNodeId(a), HwNodeId(b)), manhattan);
    }
  }
}

TEST(HwGraph, HopRowMarksUnreachableNodes) {
  HwGraph hw;
  const HwNodeId a = hw.add_node("a");
  const HwNodeId b = hw.add_node("b");
  const HwNodeId c = hw.add_node("c");
  hw.add_link(a, b, 1.0);
  EXPECT_EQ(hw.hop_row(a), (std::vector<int>{0, 1, -1}));
  EXPECT_THROW((void)hw.hop_distance(a, c), Infeasible);
}

TEST(HwGraph, NodeResourcesAndMemory) {
  HwGraph hw;
  const HwNodeId a = hw.add_node("io-node", 128.0, {"sensor-bus", "gps"});
  EXPECT_EQ(hw.node(a).memory, 128.0);
  EXPECT_TRUE(hw.node(a).resources.contains("sensor-bus"));
  EXPECT_FALSE(hw.node(a).resources.contains("radar"));
}

TEST(HwGraph, RejectsNonPositiveBandwidth) {
  HwGraph hw;
  const HwNodeId a = hw.add_node("a");
  const HwNodeId b = hw.add_node("b");
  EXPECT_THROW(hw.add_link(a, b, 0.0), InvalidArgument);
}

TEST(HwGraph, UnknownNodeThrows) {
  const HwGraph hw = HwGraph::complete(2);
  EXPECT_THROW((void)hw.node(HwNodeId(9)), InvalidArgument);
}

}  // namespace
}  // namespace fcm::mapping
