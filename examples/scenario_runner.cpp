// Scenario runner — drive any controller with a recorded or generated
// request trace from the command line.
//
//   usage: scenario_runner [options]
//     --controller {iterated|adaptive|distributed|trivial|aaps}
//     --shape      {path|star|binary|random|caterpillar|broom}
//     --churn      {grow|birthdeath|internal|flashcrowd|shrink}
//     --n0 N       initial tree size            (default 64)
//     --steps N    number of requests           (default 500)
//     --m N        permit budget M              (default 2*steps)
//     --w N        waste budget W               (default m/2)
//     --seed N     RNG seed                     (default 1)
//     --script F   replay the script in file F instead of generating churn
//     --dump F     write the generated request trace to file F
//
// Examples:
//   scenario_runner --controller distributed --shape caterpillar \
//                   --churn internal --n0 128 --steps 1000
//   scenario_runner --dump trace.txt && scenario_runner --script trace.txt

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/adaptive_controller.hpp"
#include "core/aaps_controller.hpp"
#include "core/distributed_controller.hpp"
#include "core/iterated.hpp"
#include "core/trivial_controller.hpp"
#include "tree/validate.hpp"
#include "workload/scenario.hpp"
#include "workload/script.hpp"
#include "workload/shapes.hpp"

using namespace dyncon;

namespace {

struct Args {
  std::string controller = "iterated";
  std::string shape = "random";
  std::string churn = "birthdeath";
  std::uint64_t n0 = 64;
  std::uint64_t steps = 500;
  std::uint64_t m = 0;  // 0 = derive
  std::uint64_t w = 0;
  std::uint64_t seed = 1;
  std::string script_file;
  std::string dump_file;
};

workload::Shape parse_shape(const std::string& s) {
  for (auto sh : workload::all_shapes()) {
    if (s == workload::shape_name(sh)) return sh;
  }
  throw ContractError("unknown shape: " + s);
}

workload::ChurnModel parse_churn(const std::string& s) {
  for (auto m : workload::all_churn_models()) {
    if (s == workload::churn_name(m)) return m;
  }
  throw ContractError("unknown churn model: " + s);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) throw ContractError("missing value for " + key);
      return argv[i];
    };
    if (key == "--controller") {
      a.controller = next();
    } else if (key == "--shape") {
      a.shape = next();
    } else if (key == "--churn") {
      a.churn = next();
    } else if (key == "--n0") {
      a.n0 = std::stoull(next());
    } else if (key == "--steps") {
      a.steps = std::stoull(next());
    } else if (key == "--m") {
      a.m = std::stoull(next());
    } else if (key == "--w") {
      a.w = std::stoull(next());
    } else if (key == "--seed") {
      a.seed = std::stoull(next());
    } else if (key == "--script") {
      a.script_file = next();
    } else if (key == "--dump") {
      a.dump_file = next();
    } else if (key == "--help" || key == "-h") {
      std::printf("see the header comment of scenario_runner.cpp\n");
      std::exit(0);
    } else {
      throw ContractError("unknown option: " + key);
    }
  }
  if (a.m == 0) a.m = 2 * a.steps;
  if (a.w == 0) a.w = a.m / 2;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  // Build (or load) the request trace against a scratch copy of the tree.
  workload::Script script;
  {
    Rng rng(args.seed);
    tree::DynamicTree scratch;
    workload::build(scratch, parse_shape(args.shape), args.n0, rng);
    if (!args.script_file.empty()) {
      std::ifstream in(args.script_file);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", args.script_file.c_str());
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      script = workload::Script::parse(buf.str());
    } else {
      workload::ChurnGenerator churn(parse_churn(args.churn),
                                     Rng(args.seed + 1));
      script = workload::Script::record(scratch, churn, args.steps);
    }
  }
  if (!args.dump_file.empty()) {
    std::ofstream out(args.dump_file);
    out << script.str();
    std::printf("wrote %zu requests to %s\n", script.size(),
                args.dump_file.c_str());
  }

  // Fresh tree, chosen controller, replay.
  Rng rng(args.seed);
  tree::DynamicTree tree;
  workload::build(tree, parse_shape(args.shape), args.n0, rng);
  const std::uint64_t U = 2 * (args.n0 + script.size());

  sim::EventQueue queue;  // used by the distributed variant only
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kUniform,
                                          args.seed * 31 + 7));
  std::unique_ptr<core::DistributedController> dist;
  std::unique_ptr<core::IController> ctrl;
  if (args.controller == "iterated") {
    ctrl = std::make_unique<core::IteratedController>(tree, args.m, args.w,
                                                      U);
  } else if (args.controller == "adaptive") {
    ctrl = std::make_unique<core::AdaptiveController>(tree, args.m, args.w);
  } else if (args.controller == "trivial") {
    ctrl = std::make_unique<core::TrivialController>(tree, args.m);
  } else if (args.controller == "aaps") {
    ctrl = std::make_unique<core::AAPSController>(tree, args.m, args.w, U);
  } else if (args.controller == "distributed") {
    dist = std::make_unique<core::DistributedController>(
        net, tree, core::Params(args.m, std::max<std::uint64_t>(args.w, 1),
                                U));
    ctrl = std::make_unique<core::DistributedSyncFacade>(queue, *dist);
  } else {
    std::fprintf(stderr, "unknown controller: %s\n",
                 args.controller.c_str());
    return 1;
  }

  const workload::ReplayStats stats = workload::replay(script, *ctrl, tree);
  const auto valid = tree::validate(tree);

  std::printf("controller=%s shape=%s churn=%s n0=%llu steps=%zu M=%llu "
              "W=%llu seed=%llu\n",
              args.controller.c_str(), args.shape.c_str(),
              args.churn.c_str(),
              static_cast<unsigned long long>(args.n0), script.size(),
              static_cast<unsigned long long>(args.m),
              static_cast<unsigned long long>(args.w),
              static_cast<unsigned long long>(args.seed));
  std::printf("submitted=%llu granted=%llu rejected=%llu skipped=%llu\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.granted),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.skipped));
  std::printf("final tree: %llu nodes (%llu ever), structure %s\n",
              static_cast<unsigned long long>(tree.size()),
              static_cast<unsigned long long>(tree.total_ever()),
              valid.ok() ? "valid" : valid.detail.c_str());
  std::printf("cost (moves / messages): %llu  (%.2f per granted request)\n",
              static_cast<unsigned long long>(ctrl->cost()),
              stats.granted
                  ? static_cast<double>(ctrl->cost()) /
                        static_cast<double>(stats.granted)
                  : 0.0);
  return valid.ok() ? 0 : 2;
}
