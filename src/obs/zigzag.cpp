#include "obs/zigzag.hpp"

#include <algorithm>
#include <utility>

namespace mobichk::obs {

ZigzagGraph::ZigzagGraph(const std::vector<u64>& intervals) {
  for (const u64 count : intervals) {
    base_.push_back(base_.back() + count);
    for (u64 x = 0; x < count; ++x) last_.push_back(x + 1 == count);
  }
  adj_.resize(base_.back());
}

void ZigzagGraph::add_message(u32 src, u64 src_interval, u32 dst, u64 dst_interval) {
  if (src_interval >= intervals(src) || dst_interval >= intervals(dst)) return;
  adj_[node(src, src_interval)].push_back(node(dst, dst_interval));
}

bool ZigzagGraph::z_path_exists(u32 a, u64 xa, u32 b, u64 xb) const {
  if (xa >= intervals(a) || xb > intervals(b)) return false;
  // Every node a path from (a, xa) enters through a message edge.
  std::vector<bool> visited(adj_.size(), false);
  std::vector<bool> entered(adj_.size(), false);
  std::vector<u32> work{node(a, xa)};
  while (!work.empty()) {
    const u32 u = work.back();
    work.pop_back();
    if (visited[u]) continue;
    visited[u] = true;
    for (const u32 v : adj_[u]) {
      entered[v] = true;
      work.push_back(v);
    }
    if (!last_[u]) work.push_back(u + 1);
  }
  // The final message must be received strictly before C_{b,xb}, i.e. in
  // an interval with index <= xb - 1.
  for (u64 y = 0; y < xb; ++y) {
    if (entered[node(b, y)]) return true;
  }
  return false;
}

u64 ZigzagGraph::find_z_cycles() {
  // Tarjan's SCC algorithm with an explicit call stack, so a 10^6-interval
  // chain does not overflow the native one. Successor k of node u is its
  // k-th message edge, then the forward edge.
  constexpr u32 kNone = ~u32{0};
  const usize n = adj_.size();
  std::vector<u32> index(n, kNone);
  std::vector<u32> low(n);
  // SCC id (the index of the component's root); a visited node is still
  // on Tarjan's stack exactly while its id is kNone.
  std::vector<u32> comp(n, kNone);
  std::vector<u32> stack;
  std::vector<std::pair<u32, usize>> calls;  ///< (node, next successor)
  u32 next_index = 0;
  const auto enter = [&](u32 v) {
    index[v] = low[v] = next_index++;
    stack.push_back(v);
    calls.emplace_back(v, 0);
  };
  for (u32 root = 0; root < n; ++root) {
    if (index[root] != kNone) continue;
    enter(root);
    while (!calls.empty()) {
      const u32 u = calls.back().first;
      const usize k = calls.back().second++;
      if (k < adj_[u].size() + (last_[u] ? 0 : 1)) {
        const u32 v = k < adj_[u].size() ? adj_[u][k] : u + 1;
        if (index[v] == kNone) {
          enter(v);
        } else if (comp[v] == kNone) {
          low[u] = std::min(low[u], index[v]);
        }
        continue;
      }
      calls.pop_back();
      if (!calls.empty()) {
        const u32 parent = calls.back().first;
        low[parent] = std::min(low[parent], low[u]);
      }
      if (low[u] != index[u]) continue;
      u32 w = 0;
      do {
        w = stack.back();
        stack.pop_back();
        comp[w] = index[u];
      } while (w != u);
    }
  }
  // Node v > 0 opens checkpoint C_{h,x} with x >= 1 iff v-1 is not the
  // last interval of its host; then (h, x-1) = v-1.
  z_cycle_.assign(n, false);
  u64 count = 0;
  for (usize v = 1; v < n; ++v) {
    z_cycle_[v] = !last_[v - 1] && comp[v - 1] == comp[v];
    if (z_cycle_[v]) ++count;
  }
  return count;
}

}  // namespace mobichk::obs
