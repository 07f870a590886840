// EXP16 — The §5.4 labeling suite end to end: routing, ancestry, and NCA
// labels maintained over the asynchronous controller under churn.  For
// each scheme: amortized messages per membership change, relabel count,
// and the label-size statistic its correctness claim is about.
//
// The three schemes are independent seeded simulations run as a parallel
// sweep; each point produces its finished table row, printed afterwards
// in scheme order.

#include <cmath>

#include "apps/interval_labeling.hpp"
#include "apps/nca_labeling.hpp"
#include "bench_util.hpp"
#include "workload/churn.hpp"
#include "workload/shapes.hpp"

using namespace dyncon;
using namespace dyncon::bench;

namespace {

struct Sim {
  sim::EventQueue queue;
  sim::Network net;
  tree::DynamicTree tree;
  explicit Sim(std::uint64_t delay_seed)
      : net(queue, sim::make_delay(sim::DelayKind::kUniform, delay_seed)) {}
  ~Sim() { bench::Run::note_net(net.stats()); }
};

// Routing and ancestry are one scheme (DFS-interval labels), so their two
// rows run the same class on the same seed.
std::vector<std::string> run_churned(const char* name, std::uint64_t seed) {
  Sim s(seed);
  Rng rng(seed + 2);
  workload::build(s.tree, workload::Shape::kRandomAttach, 128, rng);
  workload::ChurnGenerator churn(workload::ChurnModel::kBirthDeath,
                                 Rng(seed + 6));
  apps::IntervalLabeling app(s.net, s.tree);
  std::uint64_t changes = 0;
  auto count = [&changes](const core::Result& r) {
    changes += r.granted();
  };
  for (int i = 0; i < 600; ++i) {
    const auto spec = churn.next(s.tree);
    if (spec.type == core::RequestSpec::Type::kAddLeaf) {
      app.submit_add_leaf(spec.subject, count);
    } else if (spec.type == core::RequestSpec::Type::kRemove) {
      app.submit_remove(spec.subject, count);
    }
    if (i % 6 == 5) s.queue.run();
  }
  s.queue.run();
  return {name, num(128), num(changes), num(s.tree.size()),
          num(app.relabels()),
          fp(static_cast<double>(app.messages()) /
                 static_cast<double>(changes),
             1),
          "bits=" + num(app.label_bits()),
          "~log2(n)=" +
              fp(std::log2(static_cast<double>(s.tree.size())), 1)};
}

// NCA (leaf dynamics per Obs. 5.5).
std::vector<std::string> run_nca(std::uint64_t seed) {
  Sim s(seed);
  Rng rng(seed + 8);
  workload::build(s.tree, workload::Shape::kRandomAttach, 128, rng);
  apps::NcaLabeling nca(s.net, s.tree);
  std::uint64_t changes = 0;
  auto count = [&changes](const core::Result& r) {
    changes += r.granted();
  };
  Rng pick(seed + 12);
  for (int i = 0; i < 600; ++i) {
    if (pick.chance(0.55)) {
      nca.submit_add_leaf(workload::random_node(s.tree, pick), count);
    } else {
      const auto nodes = s.tree.alive_nodes();
      const NodeId v = nodes[pick.index(nodes.size())];
      if (v != s.tree.root() && s.tree.is_leaf(v)) {
        nca.submit_remove_leaf(v, count);
      }
    }
    if (i % 6 == 5) s.queue.run();
  }
  s.queue.run();
  return {"nca", num(128), num(changes), num(s.tree.size()),
          num(nca.rebuilds()),
          fp(static_cast<double>(nca.messages()) /
                 static_cast<double>(changes),
             1),
          "entries=" + num(nca.max_label_entries()),
          "~log2(n)=" +
              fp(std::log2(static_cast<double>(s.tree.size())), 1)};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run("exp16", argc, argv);
  const std::uint64_t seed = run.base_seed(101);
  banner("EXP16: the dynamic labeling suite (§5.4) over the controller");

  std::vector<std::vector<std::string>> rows(3);
  parallel_sweep(run, rows.size(), [&](std::size_t i) {
    switch (i) {
      case 0:
        rows[i] = run_churned("routing", seed);
        break;
      case 1:
        rows[i] = run_churned("ancestry", seed);
        break;
      default:
        rows[i] = run_nca(seed);
        break;
    }
  });

  Table tab({"scheme", "n0", "changes", "n_final", "relabels",
             "msgs/change", "label metric", "bound"});
  for (auto& r : rows) tab.row(std::move(r));
  tab.print();
  std::printf("\nshape check: routing/ancestry label bits stay ~log2(n)+4 "
              "(the stride constant); NCA label entries stay ~log2(n); all "
              "three amortize to tens of messages per change.\n");
  return 0;
}
