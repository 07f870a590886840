// EXP12 — The fully distributed applications, end to end on the
// asynchronous simulator: size estimation (Thm 5.1), name assignment
// (Thm 5.2) and two-phase commit (§1.3), with every control message
// (broadcast/convergecast, DFS token walks) on the wire.
//
// The table reports amortized messages per membership change and the
// protocol invariants' worst observations.
//
// The size-estimation and name-assignment sections sweep churn models as
// independent seeded runs in parallel; the two-phase-commit section is a
// single sequential history (rounds build on each other) and stays serial.

#include <algorithm>
#include <cmath>

#include "apps/name_assignment.hpp"
#include "apps/size_estimation.hpp"
#include "apps/two_phase_commit.hpp"
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
  Sim() : net(queue, sim::make_delay(sim::DelayKind::kUniform, 3)) {}
  ~Sim() { bench::Run::note_net(net.stats()); }
};

struct EstPoint {
  std::uint64_t changes = 0;
  std::uint64_t n_final = 0;
  std::uint64_t iters = 0;
  double worst = 1.0;
  double per = 0.0;
  double per_norm = 0.0;
};

EstPoint run_estimation(workload::ChurnModel model, std::uint64_t seed) {
  Sim s;
  Rng rng(seed);
  workload::build(s.tree, workload::Shape::kRandomAttach, 128, rng);
  apps::SizeEstimation est(s.net, s.tree, 2.0);
  workload::ChurnGenerator churn(model, Rng(seed + 2));
  EstPoint out;
  for (int i = 0; i < 800 && s.tree.size() >= 4; ++i) {
    est.submit(churn.next(s.tree), [&](const core::Result& r) {
      out.changes += r.granted();
    });
    if (i % 4 == 3) {
      s.queue.run();
      const double ratio = static_cast<double>(est.estimate()) /
                           static_cast<double>(s.tree.size());
      out.worst = std::max({out.worst, ratio, 1.0 / ratio});
    }
  }
  s.queue.run();
  out.per = static_cast<double>(est.messages()) /
            std::max<std::uint64_t>(out.changes, 1);
  const double lg = std::log2(
      static_cast<double>(std::max<std::uint64_t>(s.tree.size(), 4)));
  out.per_norm = out.per / (lg * lg);
  out.n_final = s.tree.size();
  out.iters = est.iterations();
  return out;
}

struct NamePoint {
  std::uint64_t changes = 0;
  std::uint64_t n_final = 0;
  std::uint64_t iters = 0;
  double worst = 0.0;
  bool unique = true;
  double per = 0.0;
};

NamePoint run_names(workload::ChurnModel model, std::uint64_t seed) {
  Sim s;
  Rng rng(seed + 4);
  workload::build(s.tree, workload::Shape::kRandomAttach, 96, rng);
  apps::NameAssignment names(s.net, s.tree);
  workload::ChurnGenerator churn(model, Rng(seed + 6));
  NamePoint out;
  for (int i = 0; i < 500 && s.tree.size() >= 4; ++i) {
    names.submit(churn.next(s.tree), [&](const core::Result& r) {
      out.changes += r.granted();
    });
    if (i % 8 == 7) {
      s.queue.run();
      out.worst = std::max(out.worst, static_cast<double>(names.max_id()) /
                                          static_cast<double>(s.tree.size()));
      out.unique = out.unique && names.ids_unique();
    }
  }
  s.queue.run();
  out.per = static_cast<double>(names.messages()) /
            std::max<std::uint64_t>(out.changes, 1);
  out.n_final = s.tree.size();
  out.iters = names.iterations();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run("exp12", argc, argv);
  const std::uint64_t seed = run.base_seed(7);
  banner("EXP12: distributed applications, end to end");

  subhead("distributed size estimation (beta = 2)");
  {
    const auto models = workload::all_churn_models();
    std::vector<EstPoint> points(models.size());
    parallel_sweep(run, points.size(), [&](std::size_t i) {
      points[i] = run_estimation(models[i], seed);
    });
    Table tab({"churn", "n0", "changes", "n_final", "iters", "worst ratio",
               "msgs/change", "/log^2 n"});
    for (std::size_t i = 0; i < models.size(); ++i) {
      const EstPoint& p = points[i];
      tab.row({workload::churn_name(models[i]), num(128), num(p.changes),
               num(p.n_final), num(p.iters), fp(p.worst), fp(p.per, 1),
               fp(p.per_norm, 3)});
    }
    tab.print();
  }

  subhead("distributed name assignment");
  {
    const std::vector<workload::ChurnModel> models = {
        workload::ChurnModel::kGrowOnly, workload::ChurnModel::kBirthDeath,
        workload::ChurnModel::kInternalChurn};
    std::vector<NamePoint> points(models.size());
    parallel_sweep(run, points.size(), [&](std::size_t i) {
      points[i] = run_names(models[i], seed);
    });
    Table tab({"churn", "changes", "n_final", "iters", "worst max_id/n",
               "unique?", "msgs/change"});
    for (std::size_t i = 0; i < models.size(); ++i) {
      const NamePoint& p = points[i];
      tab.row({workload::churn_name(models[i]), num(p.changes),
               num(p.n_final), num(p.iters), fp(p.worst),
               p.unique ? "yes" : "NO", fp(p.per, 1)});
    }
    tab.print();
  }

  subhead("two-phase commit rounds under churn (beta = 1.3)");
  {
    Table tab({"round", "nodes", "estimate", "threshold", "yes frac",
               "decision", "sound?"});
    Sim s;
    Rng rng(seed + 8);
    workload::build(s.tree, workload::Shape::kRandomAttach, 100, rng);
    apps::TwoPhaseCommit tpc(s.net, s.tree, 1.3);
    Rng coin(seed + 10);
    std::unordered_map<NodeId, apps::Vote> ballot;
    auto vote = [&](NodeId v, double p) {
      const auto w = coin.chance(p) ? apps::Vote::kYes : apps::Vote::kNo;
      ballot[v] = w;
      tpc.set_vote(v, w);
    };
    for (NodeId v : s.tree.alive_nodes()) vote(v, 0.8);
    workload::ChurnGenerator churn(workload::ChurnModel::kBirthDeath,
                                   Rng(seed + 12));
    for (int round = 1; round <= 6; ++round) {
      const double p = 0.9 - 0.1 * round;
      for (int i = 0; i < 30; ++i) {
        const auto spec = churn.next(s.tree);
        if (spec.type == core::RequestSpec::Type::kAddLeaf) {
          tpc.submit_add_leaf(spec.subject, [&, p](const core::Result& r) {
            if (r.granted()) vote(r.new_node, p);
          });
        } else if (spec.type == core::RequestSpec::Type::kRemove) {
          tpc.submit_remove(spec.subject, [](const core::Result&) {});
        }
      }
      s.queue.run();
      apps::Decision d = apps::Decision::kAbort;
      tpc.run_round([&](apps::Decision dd) { d = dd; });
      s.queue.run();
      std::uint64_t yes = 0;
      for (NodeId v : s.tree.alive_nodes()) {
        auto it = ballot.find(v);
        yes += it != ballot.end() && it->second == apps::Vote::kYes;
      }
      const bool sound =
          d == apps::Decision::kAbort || 2 * yes > s.tree.size();
      tab.row({num(static_cast<std::uint64_t>(round)), num(s.tree.size()),
               num(tpc.size_estimate()), num(tpc.commit_threshold()),
               fp(static_cast<double>(yes) /
                  static_cast<double>(s.tree.size())),
               d == apps::Decision::kCommit ? "COMMIT" : "abort",
               sound ? "yes" : "NO"});
    }
    tab.print();
  }

  std::printf("\ninvariants: size ratio <= beta; ids unique and <= 4n; "
              "every COMMIT backed by a strict true majority.\n");
  return 0;
}
