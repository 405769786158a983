#include "netmodel/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.h"

namespace mpim::net {

namespace {

void check_params(const std::vector<LinkParams>& params,
                  double send_overhead_s) {
  for (const auto& p : params) {
    check(p.alpha_s >= 0.0, "negative latency");
    check(p.beta_bytes_s > 0.0, "non-positive bandwidth");
  }
  check(send_overhead_s >= 0.0, "negative send overhead");
}

}  // namespace

CostModel::CostModel(topo::Topology topology, std::vector<LinkParams> params,
                     double send_overhead_s)
    : fabric_(topo::make_tree_fabric(std::move(topology))),
      params_(std::move(params)),
      send_overhead_s_(send_overhead_s) {
  check(static_cast<int>(params_.size()) == fabric_->hierarchy().depth() + 1,
        "CostModel needs topology.depth()+1 link parameter sets");
  check_params(params_, send_overhead_s_);
}

CostModel::CostModel(std::shared_ptr<const topo::Fabric> fabric,
                     std::vector<LinkParams> class_params,
                     double send_overhead_s)
    : fabric_(std::move(fabric)),
      params_(std::move(class_params)),
      send_overhead_s_(send_overhead_s) {
  check(fabric_ != nullptr, "CostModel needs a fabric");
  check(static_cast<int>(params_.size()) == fabric_->num_link_classes(),
        "CostModel needs one link parameter set per fabric link class");
  check_params(params_, send_overhead_s_);
}

CostModel CostModel::plafrim_like(int nodes, int sockets_per_node,
                                  int cores_per_socket) {
  auto topology =
      topo::Topology::cluster(nodes, sockets_per_node, cores_per_socket);
  std::vector<LinkParams> params = {
      {1.5e-6, 6.0e9},   // depth 0: different nodes (per-flow Omni-Path)
      {0.7e-6, 8.0e9},   // depth 1: same node, different sockets
      {0.3e-6, 11.0e9},  // depth 2: same socket, different cores
      {0.05e-6, 20.0e9}, // depth 3: same PU
  };
  return CostModel(std::move(topology), std::move(params));
}

CostModel CostModel::for_fabric(std::shared_ptr<const topo::Fabric> fabric,
                                double send_overhead_s) {
  check(fabric != nullptr, "for_fabric needs a fabric");
  std::vector<LinkParams> params;
  switch (fabric->kind()) {
    case topo::FabricKind::tree:
      params.push_back({1.5e-6, 6.0e9});  // the per-flow Omni-Path class
      break;
    case topo::FabricKind::fattree:
      // NIC injection carries the single-flow end-to-end cap; trunks run
      // at wire rate and differentiate mappings only under contention.
      params.push_back({0.55e-6, 6.0e9});
      for (int d = 1; d < fabric->num_network_classes(); ++d)
        params.push_back({0.2e-6, 12.5e9});
      break;
    case topo::FabricKind::dragonfly:
      params.push_back({0.55e-6, 6.0e9});   // nic
      params.push_back({0.2e-6, 12.5e9});   // local (intra-group cable)
      params.push_back({0.7e-6, 12.5e9});   // global (long optical hop)
      break;
  }
  const topo::Topology& hier = fabric->hierarchy();
  for (int cad = fabric->node_level(); cad <= hier.depth(); ++cad) {
    if (cad == hier.depth())
      params.push_back({0.05e-6, 20.0e9});  // same PU
    else if (cad == fabric->node_level())
      params.push_back({0.7e-6, 8.0e9});    // same node, across sockets
    else
      params.push_back({0.3e-6, 11.0e9});   // same socket
  }
  return CostModel(std::move(fabric), std::move(params), send_overhead_s);
}

const LinkParams& CostModel::params_at_depth(int d) const {
  check(d >= 0 && d < static_cast<int>(params_.size()),
        "link class out of range");
  return params_[static_cast<std::size_t>(d)];
}

double CostModel::transfer_time(int leaf_a, int leaf_b,
                                std::size_t bytes) const {
  const LinkParams p = path(leaf_a, leaf_b);
  return p.alpha_s + static_cast<double>(bytes) / p.beta_bytes_s;
}

double CostModel::latency(int leaf_a, int leaf_b) const {
  return path(leaf_a, leaf_b).alpha_s;
}

double CostModel::serialization_time(int leaf_a, int leaf_b,
                                     std::size_t bytes) const {
  return static_cast<double>(bytes) / path(leaf_a, leaf_b).beta_bytes_s;
}

LinkParams CostModel::path(int leaf_a, int leaf_b) const {
  const int cls = fabric_->pair_class(leaf_a, leaf_b);
  if (cls >= 0) return params_[static_cast<std::size_t>(cls)];
  topo::Fabric::Route r;
  fabric_->route(leaf_a, leaf_b, &r);
  LinkParams p{0.0, std::numeric_limits<double>::infinity()};
  for (int i = 0; i < r.n; ++i) {
    const LinkParams& hop =
        params_[static_cast<std::size_t>(fabric_->link_class(r.links[i]))];
    p.alpha_s += hop.alpha_s;
    p.beta_bytes_s = std::min(p.beta_bytes_s, hop.beta_bytes_s);
  }
  return p;
}

void CostModel::route_plan(int leaf_src, int leaf_dst, double alpha_total_s,
                           RoutePlan* out) const {
  topo::Fabric::Route r;
  fabric_->route(leaf_src, leaf_dst, &r);
  check(r.n >= 1, "route_plan wants an inter-node pair");
  out->n = r.n;
  double beta_min = std::numeric_limits<double>::infinity();
  for (int i = 0; i < r.n; ++i) {
    out->links[i] = r.links[i];
    beta_min = std::min(
        beta_min,
        params_[static_cast<std::size_t>(fabric_->link_class(r.links[i]))]
            .beta_bytes_s);
  }
  // A link drains one flow's serialization scaled by its own wire rate.
  for (int i = 0; i < r.n; ++i)
    out->drain_frac[i] =
        beta_min /
        params_[static_cast<std::size_t>(fabric_->link_class(r.links[i]))]
            .beta_bytes_s;
  // Interior hops wait their own class alpha; the final hop absorbs the
  // remainder so the gaps sum exactly to the caller's path latency (which
  // may carry fault-plan extras on top of latency()).
  out->gap_alpha_s[0] = 0.0;
  double interior = 0.0;
  for (int i = 1; i < r.n - 1; ++i) {
    const double a =
        params_[static_cast<std::size_t>(fabric_->link_class(r.links[i]))]
            .alpha_s;
    out->gap_alpha_s[i] = a;
    interior += a;
  }
  if (r.n >= 2)
    out->gap_alpha_s[r.n - 1] = std::max(0.0, alpha_total_s - interior);
}

bool CostModel::crosses_network(int leaf_a, int leaf_b) const {
  return !fabric_->same_node(leaf_a, leaf_b);
}

double CostModel::pattern_cost(const mpim::Matrix<unsigned long>& bytes_matrix,
                               const topo::Placement& placement) const {
  check(bytes_matrix.rows() == bytes_matrix.cols(),
        "pattern_cost wants a square matrix");
  check(bytes_matrix.rows() == placement.size(),
        "pattern_cost: placement size mismatch");
  double total = 0.0;
  const std::size_t n = placement.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = bytes_matrix.row(i);
    // Zero-row early-out: a silent sender costs nothing, so skip the
    // placement lookups and path costing for the whole row.
    bool any = false;
    for (const unsigned long v : row)
      if (v != 0) {
        any = true;
        break;
      }
    if (!any) continue;
    for (std::size_t j = 0; j < n; ++j) {
      const unsigned long bytes = row[j];
      if (i == j || bytes == 0) continue;
      total += transfer_time(placement[i], placement[j], bytes);
    }
  }
  return total;
}

double CostModel::nic_load_cost(const mpim::Matrix<unsigned long>& bytes_matrix,
                                const topo::Placement& placement) const {
  check(bytes_matrix.rows() == bytes_matrix.cols(),
        "nic_load_cost wants a square matrix");
  check(bytes_matrix.rows() == placement.size(),
        "nic_load_cost: placement size mismatch");
  std::vector<double> link_bytes(
      static_cast<std::size_t>(fabric_->num_links()), 0.0);
  const std::size_t n = placement.size();
  topo::Fabric::Route r;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const unsigned long bytes = bytes_matrix(i, j);
      if (bytes == 0 || !crosses_network(placement[i], placement[j]))
        continue;
      fabric_->route(placement[i], placement[j], &r);
      for (int l = 0; l < r.n; ++l)
        link_bytes[static_cast<std::size_t>(r.links[l])] +=
            static_cast<double>(bytes);
    }
  }
  double worst = 0.0;
  for (std::size_t l = 0; l < link_bytes.size(); ++l) {
    const double drain =
        link_bytes[l] /
        params_[static_cast<std::size_t>(
                    fabric_->link_class(static_cast<int>(l)))]
            .beta_bytes_s;
    worst = std::max(worst, drain);
  }
  return worst;
}

double CostModel::flow_time_cost(
    const mpim::Matrix<unsigned long>& bytes_matrix,
    const topo::Placement& placement) const {
  check(bytes_matrix.rows() == bytes_matrix.cols(),
        "flow_time_cost wants a square matrix");
  check(bytes_matrix.rows() == placement.size(),
        "flow_time_cost: placement size mismatch");
  struct Flow {
    double bytes = 0.0;
    double rate = 0.0;
    bool fixed = false;
    int n = 0;
    int links[RoutePlan::kMaxLinks] = {};
  };
  std::vector<Flow> flows;
  const std::size_t n = placement.size();
  topo::Fabric::Route r;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const unsigned long bytes = bytes_matrix(i, j);
      if (bytes == 0 || !crosses_network(placement[i], placement[j]))
        continue;
      fabric_->route(placement[i], placement[j], &r);
      Flow f;
      f.bytes = static_cast<double>(bytes);
      f.n = r.n;
      std::copy(r.links, r.links + r.n, f.links);
      flows.push_back(f);
    }
  }
  if (flows.empty()) return 0.0;

  const std::size_t num_links = static_cast<std::size_t>(fabric_->num_links());
  std::vector<double> remaining(num_links, 0.0);
  std::vector<int> active(num_links, 0);
  for (std::size_t l = 0; l < num_links; ++l)
    remaining[l] =
        params_[static_cast<std::size_t>(
                    fabric_->link_class(static_cast<int>(l)))]
            .beta_bytes_s;
  for (const Flow& f : flows)
    for (int l = 0; l < f.n; ++l)
      ++active[static_cast<std::size_t>(f.links[l])];

  // Progressive filling: raise every unfixed flow's rate uniformly until a
  // link saturates, freeze the flows through saturated links, repeat.
  std::size_t unfixed = flows.size();
  while (unfixed > 0) {
    double delta = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < num_links; ++l)
      if (active[l] > 0)
        delta = std::min(delta, remaining[l] / active[l]);
    if (!std::isfinite(delta)) break;  // defensive: no constraining link
    for (std::size_t l = 0; l < num_links; ++l)
      if (active[l] > 0) remaining[l] -= delta * active[l];
    for (Flow& f : flows) {
      if (f.fixed) continue;
      f.rate += delta;
      bool saturated = false;
      for (int l = 0; l < f.n; ++l)
        if (remaining[static_cast<std::size_t>(f.links[l])] <= 1e-9 *
                params_[static_cast<std::size_t>(fabric_->link_class(
                            f.links[l]))]
                    .beta_bytes_s) {
          saturated = true;
          break;
        }
      if (saturated) {
        f.fixed = true;
        --unfixed;
        for (int l = 0; l < f.n; ++l)
          --active[static_cast<std::size_t>(f.links[l])];
      }
    }
  }
  double worst = 0.0;
  for (const Flow& f : flows)
    if (f.rate > 0.0) worst = std::max(worst, f.bytes / f.rate);
  return worst;
}

}  // namespace mpim::net
