// The route check that runs after every timed phase, outside the timed
// region. Schemes are pure functions, so re-routing a served (s, t) pair
// reproduces the served route; each one is checked for
//   * validity (route_validity_test's predicate): a non-empty physical
//     walk from s to t whose `length` equals the sum of its edge weights
//     and is not shorter than the shortest path;
//   * Theorem 1 (theorem_sweep_test's predicate): when both endpoints
//     keep a landmark in their vicinity, a first packet that did not take
//     the resolution fallback has stretch <= 7 and a later packet <= 3.
// Every violation is counted and its (s, t) pair kept. The checked routes
// are hashed into a SHA-256 fingerprint, so two runs or two commits can
// be compared byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/nddisco.h"
#include "core/route.h"
#include "graph/graph.h"
#include "graph/shortest_path.h"

namespace perfbench {

class RouteChecker {
 public:
  /// `nd` supplies vicinities and landmarks for the Theorem 1 predicate.
  RouteChecker(const disco::Graph& g, disco::NdDisco* nd);

  /// Checks one route. Call in ascending source order: the checker keeps
  /// one ground-truth Dijkstra tree, recomputed when the source changes.
  void Check(disco::NodeId s, disco::NodeId t, const disco::Route& r,
             bool first_packet);

  std::uint64_t checked() const { return checked_; }
  std::uint64_t violations() const { return violations_; }
  std::uint64_t bounded() const { return bounded_; }
  double MeanStretch(bool first_packet) const;
  /// Routes that entered MeanStretch(first_packet).
  std::uint64_t stretched(bool first_packet) const {
    return stretch_n_[first_packet];
  }
  const std::vector<std::pair<disco::NodeId, disco::NodeId>>& offenders()
      const {
    return offenders_;
  }
  std::string FingerprintHex() const;

 private:
  bool Qualifies(disco::NodeId v);

  const disco::Graph& g_;
  disco::NdDisco* nd_;
  disco::ShortestPathTree truth_;
  bool have_truth_ = false;
  std::uint64_t checked_ = 0;
  std::uint64_t violations_ = 0;
  std::uint64_t bounded_ = 0;
  double stretch_sum_[2] = {0, 0};
  std::uint64_t stretch_n_[2] = {0, 0};
  std::vector<std::pair<disco::NodeId, disco::NodeId>> offenders_;
  std::string digest_input_;
};

}  // namespace perfbench
