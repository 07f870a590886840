#include "forest/hibernate.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace dyncon::forest {

namespace {

// Version 2: package records carry no ids and the table no next_id.
constexpr std::uint64_t kTreeImageVersion = 2;

// One body writer for BitCounter / BitWriter, the wire.cpp discipline:
// counting and encoding cannot drift apart because they are the same code.
template <typename W>
void write_tree_image(W& w, const TreeImage& img) {
  w.put_bits(kTreeImageVersion, 4);
  w.put_gamma(img.total_ever);
  w.put_gamma(img.grown.size());
  std::uint64_t prev = 0;
  for (const auto& [id, parent] : img.grown) {
    DYNCON_REQUIRE(id > prev || prev == 0, "grown ids must ascend");
    w.put_gamma(id - prev);  // strictly ascending: delta >= 1 after first
    w.put_gamma(parent);
    prev = id;
  }
  for (std::uint64_t s : img.rng_state) w.put_bits(s, 64);
  w.put_gamma(img.grows);
  w.put_bit(img.has_ctrl);
  if (!img.has_ctrl) return;
  const core::CentralizedController::Image& c = img.ctrl;
  w.put_gamma(c.storage);
  w.put_gamma(c.granted);
  w.put_gamma(c.rejects);
  w.put_bit(c.wave);
  w.put_bit(c.exhausted);
  w.put_gamma(c.packages.moves);
  w.put_gamma(c.packages.alive.size());
  for (const core::PackageTable::Record& rec : c.packages.alive) {
    w.put_bits(static_cast<std::uint64_t>(rec.kind), 2);
    w.put_gamma(rec.host);
    w.put_gamma(rec.size);
    w.put_gamma(rec.level);
  }
}

}  // namespace

void capture_tree_image(TreeImage& out, const tree::DynamicTree& t,
                        const core::CentralizedController* ctrl,
                        const Rng& rng, const std::vector<NodeId>& grown,
                        std::uint64_t grows) {
  out.total_ever = t.total_ever();
  out.grown.clear();
  out.grown.reserve(grown.size());
  NodeId prev = 0;
  for (NodeId id : grown) {
    DYNCON_REQUIRE(id > prev || out.grown.empty(),
                   "grown stack must hold ascending ids");
    out.grown.emplace_back(id, t.parent(id));
    prev = id;
  }
  out.rng_state = rng.state();
  out.grows = grows;
  out.has_ctrl = ctrl != nullptr;
  if (ctrl != nullptr) {
    ctrl->extract_image(out.ctrl);
  } else {
    out.ctrl = core::CentralizedController::Image{};
  }
}

std::uint64_t tree_image_bits(const TreeImage& img) {
  sim::BitCounter c;
  write_tree_image(c, img);
  return c.bit_count();
}

sim::Encoded encode_tree_image(const TreeImage& img, sim::Encoded&& reuse) {
  sim::BitWriter w(std::move(reuse));
  write_tree_image(w, img);
  return w.finish();
}

sim::Encoded encode_tree_image(const TreeImage& img) {
  sim::BitWriter w(tree_image_bits(img));
  write_tree_image(w, img);
  return w.finish();
}

void decode_tree_image(TreeImage& out, const sim::Encoded& enc) {
  sim::BitReader r(enc);
  DYNCON_REQUIRE(r.get_bits(4) == kTreeImageVersion,
                 "tree image version mismatch");
  out.total_ever = r.get_gamma();
  const std::uint64_t grown_count = r.get_gamma();
  out.grown.clear();
  out.grown.reserve(grown_count);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < grown_count; ++i) {
    const NodeId id = prev + r.get_gamma();
    const NodeId parent = r.get_gamma();
    DYNCON_REQUIRE(id > prev || i == 0, "corrupt grown delta");
    DYNCON_REQUIRE(id < out.total_ever && parent < id,
                   "grown node outside the id space");
    out.grown.emplace_back(id, parent);
    prev = id;
  }
  for (std::uint64_t& s : out.rng_state) s = r.get_bits(64);
  out.grows = r.get_gamma();
  out.has_ctrl = r.get_bit();
  out.ctrl = core::CentralizedController::Image{};
  if (out.has_ctrl) {
    core::CentralizedController::Image& c = out.ctrl;
    c.storage = r.get_gamma();
    c.granted = r.get_gamma();
    c.rejects = r.get_gamma();
    c.wave = r.get_bit();
    c.exhausted = r.get_bit();
    c.packages.moves = r.get_gamma();
    const std::uint64_t alive = r.get_gamma();
    c.packages.alive.clear();
    c.packages.alive.reserve(alive);
    for (std::uint64_t i = 0; i < alive; ++i) {
      core::PackageTable::Record rec;
      const std::uint64_t kind = r.get_bits(2);
      DYNCON_REQUIRE(kind <= static_cast<std::uint64_t>(
                                 core::PackageKind::kReject),
                     "corrupt package kind");
      rec.kind = static_cast<core::PackageKind>(kind);
      rec.host = r.get_gamma();
      rec.size = r.get_gamma();
      rec.level = static_cast<std::uint32_t>(r.get_gamma());
      c.packages.alive.push_back(rec);
    }
  }
  DYNCON_REQUIRE(r.finished(), "tree image decode left trailing bits");
}

TreeImage decode_tree_image(const sim::Encoded& enc) {
  TreeImage out;
  decode_tree_image(out, enc);
  return out;
}

void build_initial_topology(tree::DynamicTree& t, Rng& rng,
                            std::uint64_t tree_size) {
  DYNCON_REQUIRE(tree_size >= 1, "trees need at least the root");
  DYNCON_REQUIRE(t.total_ever() == 1 && t.size() == 1,
                 "build_initial_topology needs a freshly-reset tree");
  t.reserve_nodes(static_cast<std::size_t>(tree_size));
  for (std::uint64_t i = 1; i < tree_size; ++i) {
    // Exactly the eager engine's draw: a uniform pick among the i nodes
    // built so far, which are ids 0..i-1 — the "sites" vector was always
    // the identity map, so the request path needs no vector at all.
    const NodeId parent =
        static_cast<NodeId>(rng.index(static_cast<std::size_t>(i)));
    const NodeId u = t.add_leaf(parent);
    DYNCON_INVARIANT(u == i, "node ids must mint sequentially");
  }
}

void replay_grown_nodes(tree::DynamicTree& t, const TreeImage& img) {
  DYNCON_REQUIRE(t.total_ever() <= img.total_ever,
                 "image id space smaller than the built tree");
  std::size_t next_grown = 0;
  for (NodeId id = t.total_ever(); id < img.total_ever; ++id) {
    if (next_grown < img.grown.size() && img.grown[next_grown].first == id) {
      const NodeId u = t.add_leaf(img.grown[next_grown].second);
      DYNCON_INVARIANT(u == id, "grown replay minted the wrong id");
      ++next_grown;
    } else {
      // Dead id: burn it so the id counter (and hence every future
      // add-leaf id) matches the never-hibernated run.  The filler hangs
      // off the root and detaches immediately; sibling order among
      // survivors is unchanged because detach preserves order.
      const NodeId u = t.add_leaf(t.root());
      DYNCON_INVARIANT(u == id, "filler replay minted the wrong id");
      t.remove_leaf(u);
    }
  }
  DYNCON_REQUIRE(next_grown == img.grown.size(),
                 "grown list extends past total_ever");
}

}  // namespace dyncon::forest
