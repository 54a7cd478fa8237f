#include "audit/waits_for.h"

#include <algorithm>

namespace ccsim {

namespace {
enum Color : uint8_t { kWhite, kGray, kBlack };
}  // namespace

std::vector<TxnId> WaitsForSnapshot::FindCycle() {
  // One sort puts each waiter's edges in a contiguous range, in ascending
  // blocker order; the nodes are the distinct waiters, ascending.
  std::sort(edges_.begin(), edges_.end());
  nodes_.clear();
  first_edge_.clear();
  for (size_t e = 0; e < edges_.size(); ++e) {
    if (nodes_.empty() || nodes_.back() != edges_[e].first) {
      nodes_.push_back(edges_[e].first);
      first_edge_.push_back(static_cast<int32_t>(e));
    }
  }
  first_edge_.push_back(static_cast<int32_t>(edges_.size()));
  // A blocker that waits for nothing has no out-edges and so can close no
  // cycle: it resolves to -1 and the search never descends into it.
  targets_.resize(edges_.size());
  for (size_t e = 0; e < edges_.size(); ++e) {
    auto it = std::lower_bound(nodes_.begin(), nodes_.end(), edges_[e].second);
    targets_[e] = it != nodes_.end() && *it == edges_[e].second
                      ? static_cast<int32_t>(it - nodes_.begin())
                      : -1;
  }
  color_.assign(nodes_.size(), kWhite);
  parent_.assign(nodes_.size(), -1);

  // Iterative three-color DFS from each waiter in ascending id order.
  const auto num_nodes = static_cast<int32_t>(nodes_.size());
  for (int32_t root = 0; root < num_nodes; ++root) {
    if (color_[static_cast<size_t>(root)] != kWhite) continue;
    stack_.clear();
    color_[static_cast<size_t>(root)] = kGray;
    stack_.emplace_back(root, first_edge_[static_cast<size_t>(root)]);
    while (!stack_.empty()) {
      const int32_t node = stack_.back().first;
      const int32_t edge = stack_.back().second;
      if (edge == first_edge_[static_cast<size_t>(node) + 1]) {
        color_[static_cast<size_t>(node)] = kBlack;
        stack_.pop_back();
        continue;
      }
      ++stack_.back().second;
      const int32_t next = targets_[static_cast<size_t>(edge)];
      if (next < 0) continue;
      const auto next_index = static_cast<size_t>(next);
      if (color_[next_index] == kWhite) {
        color_[next_index] = kGray;
        parent_[next_index] = node;
        stack_.emplace_back(next, first_edge_[next_index]);
      } else if (color_[next_index] == kGray) {
        // Back edge node -> next: walk parents from node up to next, then
        // reverse so each member waits for its successor.
        std::vector<TxnId> cycle;
        cycle.push_back(nodes_[next_index]);
        for (int32_t walk = node; walk != next;
             walk = parent_[static_cast<size_t>(walk)]) {
          cycle.push_back(nodes_[static_cast<size_t>(walk)]);
        }
        std::reverse(cycle.begin() + 1, cycle.end());
        return cycle;
      }
    }
  }
  return {};
}

}  // namespace ccsim
