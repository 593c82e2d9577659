#include "core/influence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.h"

namespace fcm::core {
namespace {

InfluenceFactor make_factor(FactorKind kind, double p1, double p2,
                            double p3) {
  InfluenceFactor f;
  f.kind = kind;
  f.occurrence = Probability(p1);
  f.transmission = Probability(p2);
  f.effect = Probability(p3);
  return f;
}

TEST(InfluenceFactor, EquationOneProduct) {
  const InfluenceFactor f =
      make_factor(FactorKind::kSharedMemory, 0.5, 0.4, 0.25);
  EXPECT_NEAR(f.probability().value(), 0.05, 1e-12);
}

TEST(InfluenceFactor, IsolationReducesTransmission) {
  const InfluenceFactor f =
      make_factor(FactorKind::kSharedMemory, 0.5, 0.4, 0.25);
  IsolationConfig config;
  config.enable(IsolationTechnique::kMemorySeparation, 0.1);
  EXPECT_NEAR(f.probability(config).value(), 0.005, 1e-12);
  // An unrelated technique must not change the value.
  IsolationConfig other;
  other.enable(IsolationTechnique::kParameterChecking, 0.0);
  EXPECT_NEAR(f.probability(other).value(), 0.05, 1e-12);
}

TEST(Mitigation, EveryNamedFactorHasATechnique) {
  EXPECT_EQ(mitigation_for(FactorKind::kParameterPassing),
            IsolationTechnique::kParameterChecking);
  EXPECT_EQ(mitigation_for(FactorKind::kGlobalVariables),
            IsolationTechnique::kInformationHiding);
  EXPECT_EQ(mitigation_for(FactorKind::kSharedMemory),
            IsolationTechnique::kMemorySeparation);
  EXPECT_EQ(mitigation_for(FactorKind::kMessagePassing),
            IsolationTechnique::kMessageChecking);
  EXPECT_EQ(mitigation_for(FactorKind::kTiming),
            IsolationTechnique::kPreemptiveScheduling);
  EXPECT_EQ(mitigation_for(FactorKind::kResourceContention),
            IsolationTechnique::kResourceQuotas);
  EXPECT_FALSE(mitigation_for(FactorKind::kOther).has_value());
}

class InfluenceModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = FcmId(0);
    b_ = FcmId(1);
    c_ = FcmId(2);
    model_.add_member(a_, "A");
    model_.add_member(b_, "B");
    model_.add_member(c_, "C");
  }

  InfluenceModel model_;
  FcmId a_, b_, c_;
};

TEST_F(InfluenceModelTest, NoFactorsMeansZeroInfluence) {
  EXPECT_EQ(model_.influence(a_, b_), Probability::zero());
}

TEST_F(InfluenceModelTest, EquationTwoCombinesFactors) {
  model_.add_factor(a_, b_,
                    make_factor(FactorKind::kSharedMemory, 1.0, 0.5, 1.0));
  model_.add_factor(a_, b_,
                    make_factor(FactorKind::kMessagePassing, 1.0, 0.2, 1.0));
  // 1 - (1-0.5)(1-0.2) = 0.6
  EXPECT_NEAR(model_.influence(a_, b_).value(), 0.6, 1e-12);
}

TEST_F(InfluenceModelTest, InfluenceIsDirectional) {
  model_.set_direct(a_, b_, Probability(0.7));
  EXPECT_NEAR(model_.influence(a_, b_).value(), 0.7, 1e-12);
  EXPECT_EQ(model_.influence(b_, a_), Probability::zero());
}

TEST_F(InfluenceModelTest, MutualInfluenceSumsBothDirections) {
  model_.set_direct(a_, b_, Probability(0.7));
  model_.set_direct(b_, a_, Probability(0.6));
  EXPECT_NEAR(model_.mutual_influence(a_, b_), 1.3, 1e-12);
}

TEST_F(InfluenceModelTest, DirectAndFactorsAreExclusive) {
  model_.set_direct(a_, b_, Probability(0.5));
  EXPECT_THROW(model_.add_factor(
                   a_, b_, make_factor(FactorKind::kTiming, 0.1, 0.1, 0.1)),
               InvalidArgument);
  model_.add_factor(b_, a_, make_factor(FactorKind::kTiming, 0.1, 0.1, 0.1));
  EXPECT_THROW(model_.set_direct(b_, a_, Probability(0.2)), InvalidArgument);
}

TEST_F(InfluenceModelTest, SelfInfluenceRejected) {
  EXPECT_THROW(model_.set_direct(a_, a_, Probability(0.5)), InvalidArgument);
}

TEST_F(InfluenceModelTest, NonMemberThrows) {
  EXPECT_THROW(model_.set_direct(FcmId(9), a_, Probability(0.5)), NotFound);
}

TEST_F(InfluenceModelTest, IsolationAppliedToFactors) {
  model_.add_factor(a_, b_,
                    make_factor(FactorKind::kSharedMemory, 1.0, 0.5, 1.0));
  IsolationConfig config;
  config.enable(IsolationTechnique::kMemorySeparation, 0.2);
  EXPECT_NEAR(model_.influence(a_, b_, config).value(), 0.1, 1e-12);
}

TEST_F(InfluenceModelTest, ToGraphCarriesWeightsAndLabels) {
  model_.add_factor(a_, b_,
                    make_factor(FactorKind::kSharedMemory, 1.0, 0.5, 1.0));
  model_.set_direct(b_, c_, Probability(0.25));
  const auto g = model_.to_graph();
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_NEAR(g.weight(0, 1).value(), 0.5, 1e-12);
  EXPECT_NEAR(g.weight(1, 2).value(), 0.25, 1e-12);
  EXPECT_EQ(g.edge(0, 1).label, "shared-memory");
}

TEST_F(InfluenceModelTest, ToMatrixMatchesInfluence) {
  model_.set_direct(a_, b_, Probability(0.3));
  model_.set_direct(c_, a_, Probability(0.9));
  const auto m = model_.to_matrix();
  EXPECT_NEAR(m.at(0, 1), 0.3, 1e-12);
  EXPECT_NEAR(m.at(2, 0), 0.9, 1e-12);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
}

TEST_F(InfluenceModelTest, AddMemberIdempotent) {
  EXPECT_EQ(model_.add_member(a_, "A"), 0u);
  EXPECT_EQ(model_.member_count(), 3u);
}

TEST_F(InfluenceModelTest, NonzeroInfluencesAreBitIdenticalAndMemoFree) {
  model_.add_factor(a_, b_,
                    make_factor(FactorKind::kSharedMemory, 0.9, 0.7, 0.3));
  model_.add_factor(a_, b_,
                    make_factor(FactorKind::kTiming, 0.2, 0.6, 0.8));
  model_.set_direct(b_, c_, Probability(0.25));
  model_.set_direct(c_, a_, Probability::zero());  // stored but zero
  model_.reset_cache_stats();
  std::vector<InfluenceModel::StoredInfluence> pairs =
      model_.nonzero_influences();
  EXPECT_EQ(model_.cache_stats().hits + model_.cache_stats().misses, 0u);
  std::sort(pairs.begin(), pairs.end(), [](const auto& x, const auto& y) {
    return std::pair(x.from, x.to) < std::pair(y.from, y.to);
  });
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].from, 0u);
  EXPECT_EQ(pairs[0].to, 1u);
  EXPECT_EQ(pairs[0].value.value(), model_.influence(a_, b_).value());
  EXPECT_EQ(pairs[1].from, 1u);
  EXPECT_EQ(pairs[1].to, 2u);
  EXPECT_EQ(pairs[1].value.value(), 0.25);
}

TEST_F(InfluenceModelTest, IndexOfFollowsRegistrationOrder) {
  EXPECT_EQ(model_.index_of(a_), 0u);
  EXPECT_EQ(model_.index_of(c_), 2u);
  EXPECT_EQ(model_.add_member(FcmId(7), "D"), 3u);
  EXPECT_EQ(model_.index_of(FcmId(7)), 3u);
  EXPECT_THROW((void)model_.index_of(FcmId(8)), NotFound);
}

TEST(IsolationConfig, EnableDisableFactor) {
  IsolationConfig config;
  EXPECT_FALSE(config.enabled(IsolationTechnique::kRecoveryBlocks));
  EXPECT_DOUBLE_EQ(config.factor(IsolationTechnique::kRecoveryBlocks), 1.0);
  config.enable(IsolationTechnique::kRecoveryBlocks, 0.3);
  EXPECT_TRUE(config.enabled(IsolationTechnique::kRecoveryBlocks));
  EXPECT_DOUBLE_EQ(config.factor(IsolationTechnique::kRecoveryBlocks), 0.3);
  config.enable(IsolationTechnique::kRecoveryBlocks, 0.1);  // overwrite
  EXPECT_DOUBLE_EQ(config.factor(IsolationTechnique::kRecoveryBlocks), 0.1);
  config.disable(IsolationTechnique::kRecoveryBlocks);
  EXPECT_FALSE(config.enabled(IsolationTechnique::kRecoveryBlocks));
}

TEST(IsolationConfig, RejectsOutOfRangeFactor) {
  IsolationConfig config;
  EXPECT_THROW(config.enable(IsolationTechnique::kResourceQuotas, 1.5),
               InvalidArgument);
}

}  // namespace
}  // namespace fcm::core
