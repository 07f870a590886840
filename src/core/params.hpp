#pragma once

// The (M, W, U) parameterization of the controller (paper §3.1).
//
// All derived constants of the algorithm live here so the centralized and
// distributed controllers provably use the same arithmetic:
//
//   phi  = max(floor(W / 2U), 1)            — static-package capacity
//   psi  = 4 * ceil(log2(U) + 2) * max(ceil(U / W), 1)
//                                           — the distance scale
//   mobile package of level i has size 2^i * phi
//   filler window for level j at distance d:
//        j = 0:  0     <= d <= 2 psi
//        j > 0:  2^j psi <  d <= 2^(j+1) psi
//   creation level j(u) = smallest j with d(u, root) <= 2^(j+1) psi
//   u_k sits at distance 3 * 2^(k-1) * psi above u
//   the domain of a level-k package has 2^(k-1) * psi nodes
//
// psi is a multiple of 4, so the half-power expressions (3*2^(k-1)*psi and
// 2^(k-1)*psi at k = 0) are exact integers.
//
// W = 0 is excluded here: the paper handles it by running an (M,1)-
// controller followed by the trivial (1,0)-controller (Obs. 3.4 / Thm. 4.7),
// which is what `IteratedController` implements.

#include <cstdint>
#include <string>

#include "util/error.hpp"
#include "util/log2.hpp"

namespace dyncon::core {

/// Validated parameter set with the paper's derived constants.
class Params {
 public:
  /// Requires M >= 1, W >= 1, U >= 1.
  Params(std::uint64_t M, std::uint64_t W, std::uint64_t U);

  [[nodiscard]] std::uint64_t M() const { return m_; }
  [[nodiscard]] std::uint64_t W() const { return w_; }
  [[nodiscard]] std::uint64_t U() const { return u_; }

  [[nodiscard]] std::uint64_t phi() const { return phi_; }
  [[nodiscard]] std::uint64_t psi() const { return psi_; }

  /// Size of a mobile package of level `i` (2^i * phi).
  [[nodiscard]] std::uint64_t mobile_size(std::uint32_t level) const;

  /// Inverse of mobile_size; requires size = 2^i * phi exactly.
  [[nodiscard]] std::uint32_t level_of_size(std::uint64_t size) const;

  /// Upper bound on any package level (paper: <= log U + 1).
  [[nodiscard]] std::uint32_t max_level() const { return max_level_; }

  /// True iff a level-j package at hop distance `d` above the requesting
  /// node makes its host a filler node (paper §3.1 definition).
  [[nodiscard]] bool in_filler_window(std::uint32_t j, std::uint64_t d) const;

  /// Creation level at the root: smallest j with dist_to_root <= 2^(j+1) psi.
  [[nodiscard]] std::uint32_t creation_level(std::uint64_t dist_to_root) const;

  /// Distance from the requesting node u up to u_k: 3 * 2^(k-1) * psi.
  [[nodiscard]] std::uint64_t uk_distance(std::uint32_t k) const;

  /// Domain size of a level-k mobile package: 2^(k-1) * psi.
  [[nodiscard]] std::uint64_t domain_size(std::uint32_t k) const;

  /// ABLATION ONLY (bench/exp11): a copy of this parameter set with psi
  /// multiplied by num/den, clamped to a positive multiple of 4.  Scaling
  /// psi away from 1x voids the paper's waste analysis — the point of the
  /// ablation is to measure by how much.
  [[nodiscard]] Params with_psi_scale(std::uint64_t num,
                                      std::uint64_t den) const;

  [[nodiscard]] std::string str() const;

 private:
  std::uint64_t m_, w_, u_;
  std::uint64_t phi_, psi_;
  std::uint32_t max_level_;
};

}  // namespace dyncon::core
