#include "core/influence.h"

#include <algorithm>

#include "common/error.h"
#include "common/simd.h"

namespace fcm::core {

namespace {
std::uint64_t pair_key(std::size_t from, std::size_t to) noexcept {
  return (static_cast<std::uint64_t>(from) << 32) |
         static_cast<std::uint64_t>(to);
}

// Eq. 2 over a pair's factors with the Eq. 1 triple products evaluated as
// one SoA batch: out[i] = (occ[i] * trans[i]) * eff[i], the exact
// association order of Probability::both chaining, so each batched product
// is bit-identical to InfluenceFactor::probability(). Factors in [0,1]
// multiply into [0,1], so Probability::clamped is a bitwise pass-through.
Probability combine_factors(const std::vector<InfluenceFactor>& factors) {
  const std::size_t m = factors.size();
  std::vector<double> soa(4 * m);
  double* occurrence = soa.data();
  double* transmission = occurrence + m;
  double* effect = transmission + m;
  double* product = effect + m;
  for (std::size_t i = 0; i < m; ++i) {
    occurrence[i] = factors[i].occurrence.value();
    transmission[i] = factors[i].transmission.value();
    effect[i] = factors[i].effect.value();
  }
  simd::kernels().triple_product(occurrence, transmission, effect, product,
                                 m);
  std::vector<Probability> ps;
  ps.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    ps.push_back(Probability::clamped(product[i]));
  }
  return any_of(ps);  // Eq. 2
}
}  // namespace

const char* to_string(FactorKind kind) noexcept {
  switch (kind) {
    case FactorKind::kParameterPassing:
      return "parameter-passing";
    case FactorKind::kGlobalVariables:
      return "global-variables";
    case FactorKind::kSharedMemory:
      return "shared-memory";
    case FactorKind::kMessagePassing:
      return "message-passing";
    case FactorKind::kTiming:
      return "timing";
    case FactorKind::kResourceContention:
      return "resource-contention";
    case FactorKind::kOther:
      return "other";
  }
  return "?";
}

std::optional<IsolationTechnique> mitigation_for(FactorKind kind) noexcept {
  switch (kind) {
    case FactorKind::kParameterPassing:
      return IsolationTechnique::kParameterChecking;
    case FactorKind::kGlobalVariables:
      return IsolationTechnique::kInformationHiding;
    case FactorKind::kSharedMemory:
      return IsolationTechnique::kMemorySeparation;
    case FactorKind::kMessagePassing:
      return IsolationTechnique::kMessageChecking;
    case FactorKind::kTiming:
      return IsolationTechnique::kPreemptiveScheduling;
    case FactorKind::kResourceContention:
      return IsolationTechnique::kResourceQuotas;
    case FactorKind::kOther:
      return std::nullopt;
  }
  return std::nullopt;
}

Probability InfluenceFactor::probability() const noexcept {
  // Eq. 1: p_i = p_{i,1} * p_{i,2} * p_{i,3}.
  return occurrence.both(transmission).both(effect);
}

Probability InfluenceFactor::probability(
    const IsolationConfig& source_isolation) const noexcept {
  const auto technique = mitigation_for(kind);
  double p2 = transmission.value();
  if (technique && source_isolation.enabled(*technique)) {
    p2 *= source_isolation.factor(*technique);
  }
  return occurrence.both(Probability::clamped(p2)).both(effect);
}

std::size_t InfluenceModel::add_member(FcmId id, std::string name) {
  const auto [it, inserted] = index_.emplace(id, members_.size());
  if (!inserted) return it->second;
  members_.push_back(Member{id, std::move(name)});
  // A new member changes the model's shape (matrix dimensions) even though
  // no cached pair value becomes stale; bump the revision for shape-keyed
  // consumers like SeparationCache.
  ++revision_;
  return members_.size() - 1;
}

FcmId InfluenceModel::member(std::size_t index) const {
  FCM_REQUIRE(index < members_.size(), "member index out of range");
  return members_[index].id;
}

const std::string& InfluenceModel::member_name(std::size_t index) const {
  FCM_REQUIRE(index < members_.size(), "member index out of range");
  return members_[index].name;
}

std::size_t InfluenceModel::index_of(FcmId id) const {
  const auto it = index_.find(id);
  if (it == index_.end()) {
    throw NotFound("FCM is not a member of this influence model");
  }
  return it->second;
}

Probability InfluenceModel::eq2_value(const PairData& data) {
  return data.direct ? *data.direct : combine_factors(data.factors);
}

const InfluenceModel::PairData* InfluenceModel::pair(FcmId from,
                                                     FcmId to) const {
  const auto it = pairs_.find(pair_key(index_of(from), index_of(to)));
  return it == pairs_.end() ? nullptr : &it->second;
}

InfluenceModel::PairData& InfluenceModel::pair_mutable(FcmId from, FcmId to) {
  FCM_REQUIRE(from != to, "an FCM does not influence itself in the model");
  return pairs_[pair_key(index_of(from), index_of(to))];
}

void InfluenceModel::add_factor(FcmId from, FcmId to, InfluenceFactor factor) {
  PairData& data = pair_mutable(from, to);
  FCM_REQUIRE(!data.direct.has_value(),
              "pair already carries a direct influence value");
  data.factors.push_back(std::move(factor));
  ++revision_;
  cache_stats_.invalidations +=
      value_cache_.erase(pair_key(index_of(from), index_of(to)));
}

void InfluenceModel::set_direct(FcmId from, FcmId to, Probability influence) {
  PairData& data = pair_mutable(from, to);
  FCM_REQUIRE(data.factors.empty(),
              "pair already carries influence factors");
  data.direct = influence;
  ++revision_;
  cache_stats_.invalidations +=
      value_cache_.erase(pair_key(index_of(from), index_of(to)));
}

Probability InfluenceModel::influence(FcmId from, FcmId to) const {
  const std::uint64_t key = pair_key(index_of(from), index_of(to));
  if (const auto cached = value_cache_.find(key);
      cached != value_cache_.end()) {
    ++cache_stats_.hits;
    return cached->second;
  }
  ++cache_stats_.misses;
  const auto it = pairs_.find(key);
  const Probability result =
      it == pairs_.end() ? Probability::zero() : eq2_value(it->second);
  value_cache_.emplace(key, result);
  return result;
}

std::vector<InfluenceModel::StoredInfluence>
InfluenceModel::nonzero_influences() const {
  std::vector<StoredInfluence> out;
  out.reserve(pairs_.size());
  for (const auto& [key, data] : pairs_) {
    const Probability value = eq2_value(data);
    if (value == Probability::zero()) continue;
    out.push_back(StoredInfluence{static_cast<std::size_t>(key >> 32),
                                  static_cast<std::size_t>(key & 0xffffffffu),
                                  value});
  }
  return out;
}

Probability InfluenceModel::influence(FcmId from, FcmId to,
                                      const IsolationConfig& isolation) const {
  const PairData* data = pair(from, to);
  if (data == nullptr) return Probability::zero();
  if (data->direct) return *data->direct;
  std::vector<Probability> ps;
  ps.reserve(data->factors.size());
  for (const InfluenceFactor& f : data->factors) {
    ps.push_back(f.probability(isolation));
  }
  return any_of(ps);
}

const std::vector<InfluenceFactor>& InfluenceModel::factors(FcmId from,
                                                            FcmId to) const {
  static const std::vector<InfluenceFactor> kEmpty;
  const PairData* data = pair(from, to);
  return data == nullptr ? kEmpty : data->factors;
}

double InfluenceModel::mutual_influence(FcmId a, FcmId b) const {
  return influence(a, b).value() + influence(b, a).value();
}

graph::Digraph InfluenceModel::to_graph() const {
  graph::Digraph g;
  for (const Member& m : members_) g.add_node(m.name);
  for (std::size_t from = 0; from < members_.size(); ++from) {
    for (std::size_t to = 0; to < members_.size(); ++to) {
      if (from == to) continue;
      const auto it = pairs_.find(pair_key(from, to));
      if (it == pairs_.end()) continue;
      const Probability p = influence(members_[from].id, members_[to].id);
      std::string label;
      for (const InfluenceFactor& f : it->second.factors) {
        if (!label.empty()) label += ',';
        label += to_string(f.kind);
      }
      g.add_edge(static_cast<graph::NodeIndex>(from),
                 static_cast<graph::NodeIndex>(to), p.value(),
                 std::move(label));
    }
  }
  return g;
}

graph::Matrix InfluenceModel::to_matrix() const {
  graph::Matrix m(members_.size());
  for (std::size_t from = 0; from < members_.size(); ++from) {
    for (std::size_t to = 0; to < members_.size(); ++to) {
      if (from == to) continue;
      const auto it = pairs_.find(pair_key(from, to));
      if (it == pairs_.end()) continue;
      m.at(from, to) =
          influence(members_[from].id, members_[to].id).value();
    }
  }
  return m;
}

}  // namespace fcm::core
