// Influence: quantified interaction between sibling FCMs (§4.2).
//
// "Influence of one FCM on another is the probability of one FCM affecting
// another FCM at the same level if no third FCM at that level is considered."
// Each influence factor f_i (shared memory, parameter passing, global
// variables, message errors, timing faults, ...) carries three component
// probabilities (Eq. 1):
//    p_i = p_{i,1} (fault occurs in source)
//        * p_{i,2} (fault transmitted to target)
//        * p_{i,3} (transmitted fault manifests in target)
// and factors combine independently (Eq. 2):
//    FCMi -> FCMj = 1 − Π (1 − p_k).
// Influence is directional and generally asymmetric ("range checks are
// needed only when parameters are passed to a procedure, and not in the
// other direction").
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/probability.h"
#include "core/isolation.h"
#include "graph/digraph.h"
#include "graph/matrix.h"

namespace fcm::core {

/// The named fault-transmission mechanisms of §4.2.2–4.2.3.
enum class FactorKind : std::uint8_t {
  kParameterPassing,  ///< procedure level, f1
  kGlobalVariables,   ///< procedure level, f2 ("difficult to control")
  kSharedMemory,      ///< task/process level, f3
  kMessagePassing,    ///< task/process level, f4
  kTiming,            ///< task/process level, f5
  kResourceContention,///< process level (CPU/IO overuse)
  kOther,
};

const char* to_string(FactorKind kind) noexcept;

/// Counters exposed by the memoization layers (per-pair influence memo,
/// separation cache, clustering quotient cache) so benches, tests, and the
/// fcm_tool example can report cache effectiveness.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Which isolation technique mitigates each factor kind (multiplying its
/// transmission probability p_{i,2} by the technique's reduction factor).
std::optional<IsolationTechnique> mitigation_for(FactorKind kind) noexcept;

/// One influence factor between an ordered FCM pair.
struct InfluenceFactor {
  FactorKind kind = FactorKind::kOther;
  std::string label;
  Probability occurrence;    ///< p_{i,1} — from field data / testing
  Probability transmission;  ///< p_{i,2} — medium and data volume
  Probability effect;        ///< p_{i,3} — from fault injection

  /// Eq. 1 with no isolation in effect.
  [[nodiscard]] Probability probability() const noexcept;

  /// Eq. 1 with the source boundary's isolation reducing p_{i,2}.
  [[nodiscard]] Probability probability(
      const IsolationConfig& source_isolation) const noexcept;
};

/// The influence structure over one set of sibling FCMs. Members are
/// registered once; factors (or direct influence values) attach to ordered
/// member pairs.
class InfluenceModel {
 public:
  InfluenceModel() = default;

  /// Registers a member; returns its dense index. Idempotent per id.
  std::size_t add_member(FcmId id, std::string name);

  [[nodiscard]] std::size_t member_count() const noexcept {
    return members_.size();
  }
  [[nodiscard]] FcmId member(std::size_t index) const;
  [[nodiscard]] const std::string& member_name(std::size_t index) const;
  [[nodiscard]] std::size_t index_of(FcmId id) const;

  /// Adds a factor contributing to influence(from -> to).
  void add_factor(FcmId from, FcmId to, InfluenceFactor factor);

  /// Sets a direct influence value for (from -> to), bypassing the factor
  /// decomposition (the §6 example: "influences have been randomly generated
  /// ... even relative values of the influence parameter suffice").
  /// Mutually exclusive with factors on the same pair.
  void set_direct(FcmId from, FcmId to, Probability influence);

  /// Eq. 2: combined influence of `from` on `to` (zero when no factors).
  /// Memoized per ordered pair: repeated queries (clustering heuristics,
  /// role summaries, matrix exports) hit a cache that is invalidated
  /// precisely when the pair's factors or direct value mutate. Not
  /// thread-safe — the memo mutates under a const interface.
  [[nodiscard]] Probability influence(FcmId from, FcmId to) const;

  /// Eq. 2 with the source FCM's isolation config applied to every factor.
  [[nodiscard]] Probability influence(FcmId from, FcmId to,
                                      const IsolationConfig& isolation) const;

  /// Factors recorded for the pair (empty for direct-valued pairs).
  [[nodiscard]] const std::vector<InfluenceFactor>& factors(FcmId from,
                                                            FcmId to) const;

  /// Mutual influence — "the sum of influences in each direction" (§6.1),
  /// the pairing key of heuristic H1.
  [[nodiscard]] double mutual_influence(FcmId a, FcmId b) const;

  /// The labeled directed influence graph of §4.2.4 (nodes = members in
  /// registration order, edge weights = influence, labels = factor kinds).
  [[nodiscard]] graph::Digraph to_graph() const;

  /// The influence matrix P with P[i][j] = influence(member i -> member j),
  /// indexed by registration order (input to separation analysis, Eq. 3).
  [[nodiscard]] graph::Matrix to_matrix() const;

  /// One stored ordered pair with a nonzero Eq. 2 value.
  struct StoredInfluence {
    std::size_t from = 0;  ///< member index of the influencing FCM
    std::size_t to = 0;    ///< member index of the influenced FCM
    Probability value;     ///< bit-identical to influence() of the pair
  };

  /// Every stored pair whose Eq. 2 value is nonzero, in unspecified order.
  /// Costs O(stored pairs) rather than O(members²) probes, and neither reads
  /// nor fills the influence() memo, so callers do the same work on a fresh
  /// model as on one already queried.
  [[nodiscard]] std::vector<StoredInfluence> nonzero_influences() const;

  /// Monotone revision counter, bumped by every mutation (member, factor,
  /// or direct-value changes). External caches — SeparationCache, the
  /// clustering quotient cache — key derived results on it to detect
  /// staleness without deep comparisons.
  [[nodiscard]] std::uint64_t revision() const noexcept { return revision_; }

  /// Hit/miss/invalidation counters of the per-pair Eq. 2 memo.
  [[nodiscard]] const CacheStats& cache_stats() const noexcept {
    return cache_stats_;
  }
  void reset_cache_stats() const noexcept { cache_stats_ = CacheStats{}; }

 private:
  struct PairData {
    std::vector<InfluenceFactor> factors;
    std::optional<Probability> direct;
  };

  /// Eq. 2 over one stored pair: its direct value or its combined factors.
  [[nodiscard]] static Probability eq2_value(const PairData& data);
  [[nodiscard]] const PairData* pair(FcmId from, FcmId to) const;
  PairData& pair_mutable(FcmId from, FcmId to);

  struct Member {
    FcmId id;
    std::string name;
  };
  std::vector<Member> members_;
  // id -> index into members_, for O(1) add_member and index_of.
  std::unordered_map<FcmId, std::size_t> index_;
  // (from index << 32 | to index) -> data.
  std::unordered_map<std::uint64_t, PairData> pairs_;
  // Memo of the no-isolation Eq. 2 value per ordered pair queried through
  // influence(); absent pairs cache Probability::zero() too, so repeated
  // point queries of an empty pair stay O(1).
  mutable std::unordered_map<std::uint64_t, Probability> value_cache_;
  mutable CacheStats cache_stats_;
  std::uint64_t revision_ = 0;
};

}  // namespace fcm::core
