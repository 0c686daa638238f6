#include "route_check.h"

#include <cmath>

#include "common.h"

namespace perfbench {

using disco::Dist;
using disco::NodeId;
using disco::Route;

namespace {

// route_validity_test's predicate: a physical walk from s to t whose
// length is the sum of its edge weights.
bool IsPhysicalWalk(const disco::Graph& g, const Route& r, NodeId s,
                    NodeId t) {
  if (!r.ok() || r.path.front() != s || r.path.back() != t) return false;
  for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
    if (r.path[i] >= g.num_nodes() || r.path[i + 1] >= g.num_nodes() ||
        g.InterfaceTo(r.path[i], r.path[i + 1]) < 0) {
      return false;
    }
  }
  return std::fabs(r.length - disco::PathLength(g, r.path)) <= 1e-9;
}

}  // namespace

RouteChecker::RouteChecker(const disco::Graph& g, disco::NdDisco* nd)
    : g_(g), nd_(nd) {}

bool RouteChecker::Qualifies(NodeId v) {
  for (const disco::NearNode& m : nd_->vicinity(v)->members()) {
    if (nd_->landmarks().Contains(m.node)) return true;
  }
  return false;
}

void RouteChecker::Check(NodeId s, NodeId t, const Route& r,
                         bool first_packet) {
  if (!have_truth_ || truth_.source != s) {
    truth_ = disco::Dijkstra(g_, s);
    have_truth_ = true;
  }
  ++checked_;
  AppendBytes(&digest_input_, s);
  AppendBytes(&digest_input_, t);
  AppendBytes(&digest_input_, static_cast<std::uint8_t>(first_packet));
  for (const NodeId v : r.path) AppendBytes(&digest_input_, v);
  AppendBytes(&digest_input_, r.length);

  const Dist shortest = truth_.dist[t];
  bool ok = IsPhysicalWalk(g_, r, s, t) && r.length >= shortest - 1e-9;
  if (ok && s != t && shortest > 0) {
    const double stretch = r.length / shortest;
    stretch_sum_[first_packet] += stretch;
    ++stretch_n_[first_packet];
    if (nd_ != nullptr && Qualifies(s) && Qualifies(t)) {
      ++bounded_;
      if (first_packet) {
        if (!r.via_fallback) ok = stretch <= 7.0 + 1e-9;
      } else {
        ok = stretch <= 3.0 + 1e-9;
      }
    }
  }
  if (!ok) {
    ++violations_;
    offenders_.emplace_back(s, t);
  }
}

double RouteChecker::MeanStretch(bool first_packet) const {
  const std::uint64_t n = stretch_n_[first_packet];
  return n == 0 ? 0 : stretch_sum_[first_packet] / static_cast<double>(n);
}

std::string RouteChecker::FingerprintHex() const {
  return Sha256Hex(digest_input_);
}

}  // namespace perfbench
