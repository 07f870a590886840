#include "tree/ports.hpp"

#include <cstdint>

#include "tree/dynamic_tree.hpp"
#include "util/error.hpp"

namespace dyncon::tree {

namespace {

// MurmurHash3's 64-bit finalizer and its inverse.  Each step (xor-shift by
// >= 32 bits, multiply by an odd constant) is invertible, so the whole mix
// is a bijection on 64-bit words.
constexpr std::uint64_t kMul1 = 0xff51afd7ed558ccdULL;
constexpr std::uint64_t kMul2 = 0xc4ceb9fe1a85ec53ULL;
constexpr std::uint64_t kKey = 0xdecafbadULL;

/// Multiplicative inverse of odd `a` modulo 2^64 (Newton: each step doubles
/// the correct low bits, starting from 3).
constexpr std::uint64_t inverse(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}
static_assert(kMul1 * inverse(kMul1) == 1 && kMul2 * inverse(kMul2) == 1);

constexpr std::uint64_t mix(std::uint64_t k) {
  k ^= k >> 33;
  k *= kMul1;
  k ^= k >> 33;
  k *= kMul2;
  k ^= k >> 33;
  return k;
}

constexpr std::uint64_t unmix(std::uint64_t k) {
  k ^= k >> 33;
  k *= inverse(kMul2);
  k ^= k >> 33;
  k *= inverse(kMul1);
  k ^= k >> 33;
  return k;
}
static_assert(unmix(mix(0x0123456789abcdefULL)) == 0x0123456789abcdefULL);

/// Per-node offset: w -> w + offset(v) is a bijection for each v, and so is
/// its composition with mix().
constexpr std::uint64_t offset(NodeId node) { return mix(node ^ kKey); }

}  // namespace

bool PortAssigner::has_port(NodeId node, NodeId neighbor) const {
  const DynamicTree& t = *tree_;
  return t.alive(node) && t.alive(neighbor) &&
         (t.parent(node) == neighbor || t.parent(neighbor) == node);
}

PortId PortAssigner::port_to(NodeId node, NodeId neighbor) const {
  DYNCON_REQUIRE(has_port(node, neighbor), "no port to neighbor");
  return mix(neighbor + offset(node));
}

NodeId PortAssigner::neighbor_at(NodeId node, PortId port) const {
  const NodeId neighbor = unmix(port) - offset(node);
  DYNCON_REQUIRE(has_port(node, neighbor), "no such port");
  return neighbor;
}

std::size_t PortAssigner::degree(NodeId node) const {
  const DynamicTree& t = *tree_;
  if (!t.alive(node)) return 0;
  return t.children(node).size() + (node == t.root() ? 0u : 1u);
}

}  // namespace dyncon::tree
