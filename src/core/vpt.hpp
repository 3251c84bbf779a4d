#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

/// \file vpt.hpp
/// Virtual process topology (VPT) — the paper's T_n(k1, ..., kn).
///
/// A VPT organizes K = k1 * k2 * ... * kn processes into an n-dimensional
/// structure. Each process is identified by a mixed-radix coordinate vector;
/// two processes are *neighbors in dimension d* iff their coordinates differ
/// only in digit d. Unlike a k-ary n-cube, every dimension group is
/// completely connected: a process has (k_d - 1) neighbors in dimension d,
/// not 2.
///
/// Dimension 0 is the fastest-varying digit and is routed in the first
/// communication stage (the paper's dimension 1).

namespace stfw::core {

using Rank = std::int32_t;

class Vpt {
public:
  /// Construct from explicit dimension sizes {k1, ..., kn}; each k_d >= 2
  /// unless n == 1 (T_1(K) is the direct-communication baseline, any K >= 1).
  explicit Vpt(std::vector<int> dim_sizes);

  /// The paper's Section 5 scheme: for K a power of two and 1 <= n <= lg2 K,
  /// the first (lg2 K mod n) dimensions get size 2^(floor(lg2K/n)+1) and the
  /// rest 2^floor(lg2K/n). Optimal total maximum message count for that n.
  static Vpt balanced(Rank num_ranks, int dim);

  /// Generalization of balanced() to arbitrary K >= 2 (the paper assumes
  /// powers of two but notes the extension is easy): K's prime factors are
  /// distributed over n dimensions greedily, assigning each factor to the
  /// currently smallest dimension — near-minimal sum of (k_d - 1) among
  /// n-factorizations. Requires K to have at least n prime factors
  /// (counted with multiplicity).
  static Vpt balanced_any(Rank num_ranks, int dim);

  /// T_1(K): every process neighbors every other — the BL baseline.
  static Vpt direct(Rank num_ranks);

  /// Node-aware two-level topology T_2(ranks_per_node, K / ranks_per_node):
  /// stage 1 communicates only among the ranks of one node (cheap,
  /// intra-node) and stage 2 across nodes — the classic hierarchical
  /// aggregation pattern, expressed as a VPT. Requires ranks_per_node to
  /// divide K. With contiguous rank-to-node placement (as in
  /// netsim::Machine), all stage-1 messages stay on-node.
  static Vpt node_aware(Rank num_ranks, int ranks_per_node);

  /// T_{lg2 K}(2, ..., 2): the hypercube extreme, O(lg K) message bound.
  static Vpt hypercube(Rank num_ranks);

  int dim() const noexcept { return static_cast<int>(k_.size()); }
  Rank size() const noexcept { return size_; }
  int dim_size(int d) const;
  const std::vector<int>& dim_sizes() const noexcept { return k_; }

  /// Digit d of rank r (0-based coordinate value in [0, k_d)).
  int coord(Rank r, int d) const noexcept {
    const auto du = static_cast<std::size_t>(d);
    if (pow2_) return static_cast<int>((r >> shift_[du]) & (k_[du] - 1));
    return static_cast<int>((r / stride_[du]) % k_[du]);
  }

  /// Full coordinate vector of r, digit 0 first.
  std::vector<int> coords_of(Rank r) const;

  /// Rank with the given coordinate vector.
  Rank rank_of(std::span<const int> coords) const;

  /// The unique dimension-d neighbor of r whose digit d equals `value`
  /// (returns r itself when value == coord(r, d)).
  Rank with_coord(Rank r, int d, int value) const;

  /// v(P_r, d): all k_d - 1 neighbors of r in dimension d, ascending rank.
  std::vector<Rank> neighbors(Rank r, int d) const;
  void neighbors(Rank r, int d, std::vector<Rank>& out) const;

  /// Smallest dimension in which a and b differ; -1 if a == b.
  /// This is the stage in which a message from a to b is first forwarded.
  int first_diff_dim(Rank a, Rank b) const noexcept;

  /// Smallest dimension > d in which a and b differ; -1 if none.
  int first_diff_dim_after(Rank a, Rank b, int d) const noexcept;

  /// Number of differing coordinates == number of hops a submessage from a
  /// to b takes under dimension-order store-and-forward routing.
  int hamming(Rank a, Rank b) const noexcept;

  /// Section 4 bound: the maximum number of messages any process sends over
  /// the whole exchange, sum_d (k_d - 1).
  int max_message_count_bound() const noexcept;

  /// True iff a and b differ in at most one coordinate (direct neighbors or
  /// equal) — i.e. a may send a stage message to b in some stage.
  bool are_neighbors(Rank a, Rank b) const noexcept;

  /// "T_n(k1,k2,...)" — for logs and error messages.
  std::string to_string() const;

  friend bool operator==(const Vpt& a, const Vpt& b) noexcept { return a.k_ == b.k_; }

private:
  std::vector<int> k_;        // dimension sizes, digit 0 first
  std::vector<Rank> stride_;  // mixed-radix strides; stride_[0] == 1
  Rank size_ = 0;
  // When every k_d is a power of two (balanced(), hypercube(), direct() of
  // a power of two), digit d is the bit field [shift_[d], shift_[d + 1]) of
  // the rank and bit_dim_[b] names the dimension owning bit b, so routing
  // queries need no divisions. Both stay empty otherwise.
  bool pow2_ = false;
  std::vector<int> shift_;
  std::vector<int> bit_dim_;
};

/// All multisets {k1,...,kn} with product K and every k >= 2, enumerated as
/// non-decreasing sequences. Used by tests and the dimension-size ablation.
std::vector<std::vector<int>> all_factorizations(Rank K);

/// floor(lg2 x) for x >= 1.
int floor_log2(Rank x) noexcept;

/// True iff x is a power of two (x >= 1).
bool is_pow2(Rank x) noexcept;

}  // namespace stfw::core
