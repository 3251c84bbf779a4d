#include "vpt.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "error.hpp"

namespace stfw::core {

int floor_log2(Rank x) noexcept {
  int l = 0;
  while (x > 1) {
    x >>= 1;
    ++l;
  }
  return l;
}

bool is_pow2(Rank x) noexcept { return x >= 1 && (x & (x - 1)) == 0; }

Vpt::Vpt(std::vector<int> dim_sizes) : k_(std::move(dim_sizes)) {
  require(!k_.empty(), "Vpt: at least one dimension required");
  const bool single = k_.size() == 1;
  std::int64_t prod = 1;
  for (int kd : k_) {
    require(kd >= (single ? 1 : 2), "Vpt: dimension sizes must be >= 2 (>= 1 for T_1)");
    prod *= kd;
    require(prod <= (std::int64_t{1} << 30), "Vpt: too many processes");
  }
  size_ = static_cast<Rank>(prod);
  stride_.resize(k_.size());
  Rank s = 1;
  for (std::size_t d = 0; d < k_.size(); ++d) {
    stride_[d] = s;
    s *= k_[d];
  }
  pow2_ = std::all_of(k_.begin(), k_.end(), [](int kd) { return is_pow2(kd); });
  if (pow2_) {
    shift_.push_back(0);
    for (std::size_t d = 0; d < k_.size(); ++d) {
      const int bits = floor_log2(k_[d]);
      bit_dim_.insert(bit_dim_.end(), static_cast<std::size_t>(bits), static_cast<int>(d));
      shift_.push_back(shift_.back() + bits);
    }
  }
}

Vpt Vpt::balanced(Rank num_ranks, int dim) {
  require(is_pow2(num_ranks), "Vpt::balanced: K must be a power of two");
  const int lg = floor_log2(num_ranks);
  require(dim >= 1 && (dim <= lg || (lg == 0 && dim == 1)),
          "Vpt::balanced: need 1 <= n <= lg2 K");
  const int q = lg / dim;
  const int rem = lg % dim;
  std::vector<int> sizes(static_cast<std::size_t>(dim));
  for (int d = 0; d < dim; ++d)
    sizes[static_cast<std::size_t>(d)] = 1 << (d < rem ? q + 1 : q);
  return Vpt(std::move(sizes));
}

Vpt Vpt::balanced_any(Rank num_ranks, int dim) {
  require(num_ranks >= 2, "Vpt::balanced_any: K must be >= 2");
  require(dim >= 1, "Vpt::balanced_any: n must be >= 1");
  // Prime factorization, smallest factors first.
  std::vector<int> factors;
  Rank rest = num_ranks;
  for (Rank p = 2; p * p <= rest; ++p)
    while (rest % p == 0) {
      factors.push_back(static_cast<int>(p));
      rest /= p;
    }
  if (rest > 1) factors.push_back(static_cast<int>(rest));
  require(static_cast<int>(factors.size()) >= dim,
          "Vpt::balanced_any: K has fewer prime factors than requested dimensions");
  // Largest factors first, each onto the currently smallest dimension —
  // the classic greedy multiway-product balancing heuristic.
  std::sort(factors.rbegin(), factors.rend());
  std::vector<int> sizes(static_cast<std::size_t>(dim), 1);
  for (int f : factors)
    *std::min_element(sizes.begin(), sizes.end()) *= f;
  std::sort(sizes.begin(), sizes.end());
  return Vpt(std::move(sizes));
}

Vpt Vpt::direct(Rank num_ranks) {
  require(num_ranks >= 1, "Vpt::direct: K must be >= 1");
  return Vpt(std::vector<int>{static_cast<int>(num_ranks)});
}

Vpt Vpt::node_aware(Rank num_ranks, int ranks_per_node) {
  require(num_ranks >= 2, "Vpt::node_aware: K must be >= 2");
  require(ranks_per_node >= 2 && ranks_per_node < num_ranks &&
              num_ranks % ranks_per_node == 0,
          "Vpt::node_aware: ranks_per_node must divide K with 2 <= r < K");
  return Vpt({ranks_per_node, static_cast<int>(num_ranks / ranks_per_node)});
}

Vpt Vpt::hypercube(Rank num_ranks) {
  require(is_pow2(num_ranks) && num_ranks >= 2, "Vpt::hypercube: K must be a power of two >= 2");
  return Vpt(std::vector<int>(static_cast<std::size_t>(floor_log2(num_ranks)), 2));
}

int Vpt::dim_size(int d) const {
  require(d >= 0 && d < dim(), "Vpt::dim_size: dimension out of range");
  return k_[static_cast<std::size_t>(d)];
}

std::vector<int> Vpt::coords_of(Rank r) const {
  require(r >= 0 && r < size_, "Vpt::coords_of: rank out of range");
  std::vector<int> c(k_.size());
  for (int d = 0; d < dim(); ++d) c[static_cast<std::size_t>(d)] = coord(r, d);
  return c;
}

Rank Vpt::rank_of(std::span<const int> coords) const {
  require(coords.size() == k_.size(), "Vpt::rank_of: wrong coordinate count");
  Rank r = 0;
  for (std::size_t d = 0; d < k_.size(); ++d) {
    require(coords[d] >= 0 && coords[d] < k_[d], "Vpt::rank_of: coordinate out of range");
    r += coords[d] * stride_[d];
  }
  return r;
}

Rank Vpt::with_coord(Rank r, int d, int value) const {
  require(r >= 0 && r < size_, "Vpt::with_coord: rank out of range");
  require(d >= 0 && d < dim(), "Vpt::with_coord: dimension out of range");
  require(value >= 0 && value < k_[static_cast<std::size_t>(d)],
          "Vpt::with_coord: coordinate out of range");
  const Rank stride = stride_[static_cast<std::size_t>(d)];
  return r + (value - coord(r, d)) * stride;
}

std::vector<Rank> Vpt::neighbors(Rank r, int d) const {
  std::vector<Rank> out;
  neighbors(r, d, out);
  return out;
}

void Vpt::neighbors(Rank r, int d, std::vector<Rank>& out) const {
  require(r >= 0 && r < size_, "Vpt::neighbors: rank out of range");
  require(d >= 0 && d < dim(), "Vpt::neighbors: dimension out of range");
  out.clear();
  const int mine = coord(r, d);
  const int kd = k_[static_cast<std::size_t>(d)];
  out.reserve(static_cast<std::size_t>(kd - 1));
  const Rank stride = stride_[static_cast<std::size_t>(d)];
  const Rank base = r - mine * stride;
  for (int x = 0; x < kd; ++x)
    if (x != mine) out.push_back(base + x * stride);
}

int Vpt::first_diff_dim(Rank a, Rank b) const noexcept { return first_diff_dim_after(a, b, -1); }

int Vpt::first_diff_dim_after(Rank a, Rank b, int d) const noexcept {
  if (pow2_) {
    // The lowest differing bit above digit d's field names the dimension.
    const auto from = shift_[static_cast<std::size_t>(d + 1)];
    const auto diff = static_cast<std::uint32_t>(a ^ b) >> from;
    if (diff == 0) return -1;
    return bit_dim_[static_cast<std::size_t>(from + std::countr_zero(diff))];
  }
  for (int c = d + 1; c < dim(); ++c)
    if (coord(a, c) != coord(b, c)) return c;
  return -1;
}

int Vpt::hamming(Rank a, Rank b) const noexcept {
  int h = 0;
  for (int d = 0; d < dim(); ++d) h += coord(a, d) != coord(b, d);
  return h;
}

int Vpt::max_message_count_bound() const noexcept {
  int s = 0;
  for (int kd : k_) s += kd - 1;
  return s;
}

bool Vpt::are_neighbors(Rank a, Rank b) const noexcept { return hamming(a, b) <= 1; }

std::string Vpt::to_string() const {
  std::string s = "T_" + std::to_string(dim()) + "(";
  for (std::size_t d = 0; d < k_.size(); ++d) {
    if (d > 0) s += ",";
    s += std::to_string(k_[d]);
  }
  return s + ")";
}

namespace {

void enumerate(Rank remaining, int min_factor, std::vector<int>& cur,
               std::vector<std::vector<int>>& out) {
  if (remaining == 1) {
    if (!cur.empty()) out.push_back(cur);
    return;
  }
  for (int f = min_factor; static_cast<Rank>(f) <= remaining; ++f) {
    if (remaining % f != 0) continue;
    cur.push_back(f);
    enumerate(remaining / f, f, cur, out);
    cur.pop_back();
  }
}

}  // namespace

std::vector<std::vector<int>> all_factorizations(Rank K) {
  require(K >= 2, "all_factorizations: K must be >= 2");
  std::vector<std::vector<int>> out;
  std::vector<int> cur;
  enumerate(K, 2, cur, out);
  return out;
}

}  // namespace stfw::core
