#pragma once

// dyncon — Controller and Estimator for Dynamic Networks (Korman & Kutten,
// PODC 2007 / Inf. Comput. 2013).  Umbrella header: include this to get
// the whole public API; fine-grained headers are listed per subsystem.

// Observability (metrics registry, typed events, run reports).
#include "obs/metrics.hpp"          // counters/gauges/histograms + ScopeTimer
#include "obs/events.hpp"           // typed trace events + EventTrace ring
#include "obs/report.hpp"           // RunReport JSON exporter
#include "obs/net_adapter.hpp"      // NetStats <-> registry/report bridge

// Substrates.
#include "sim/delay.hpp"            // message-delay adversaries
#include "sim/event_queue.hpp"      // deterministic discrete-event loop
#include "sim/network.hpp"          // message transport + cost accounting
#include "tree/dynamic_tree.hpp"    // the dynamic rooted tree (§2.1.2)
#include "tree/validate.hpp"        // structural audits
#include "agent/convergecast.hpp"   // broadcast/upcast as real messages
#include "agent/runtime.hpp"        // agent id + message-size model
#include "agent/taxi.hpp"           // Up/Down hops with graceful delivery
#include "agent/whiteboard.hpp"     // locks + FIFO wait queues (§4.3)

// The paper's contribution.
#include "core/params.hpp"                  // phi/psi arithmetic (§3.1)
#include "core/package.hpp"                 // permit/reject packages
#include "core/domain.hpp"                  // §3.2 domain invariants
#include "core/controller_iface.hpp"        // Outcome/Result/RequestSpec
#include "core/centralized_controller.hpp"  // GrantOrReject + Proc
#include "core/iterated_controller.hpp"     // Obs. 3.4
#include "core/terminating_controller.hpp"  // Obs. 2.1
#include "core/adaptive_controller.hpp"     // Thm. 3.5 (unknown U)
#include "core/distributed_controller.hpp"  // §4 agents + locks
#include "core/distributed_iterated.hpp"    // Thm. 4.7 / Obs. 2.1
#include "core/distributed_adaptive.hpp"    // Thm. 4.9 / App. A
#include "core/message_meter.hpp"           // §2.2 metered protocols
#include "core/aaps_controller.hpp"         // the [4] baseline
#include "core/trivial_controller.hpp"      // the Omega(n)/request baseline

// Applications (§5).
#include "apps/size_estimation.hpp"
#include "apps/name_assignment.hpp"
#include "apps/majority_commit.hpp"
#include "apps/distributed_size_estimation.hpp"
#include "apps/distributed_name_assignment.hpp"
#include "apps/two_phase_commit.hpp"
// §5.3–§5.4, each over either controller stack: X(tree) or X(net, tree).
#include "apps/subtree_estimator.hpp"   // Lemma 5.3
#include "apps/heavy_child.hpp"         // Thm. 5.4
#include "apps/interval_labeling.hpp"   // Obs. 5.5: ancestry + routing
#include "apps/nca_labeling.hpp"        // Obs. 5.5 over Thm. 5.4

// Workloads for experiments and tests.
#include "workload/arrival.hpp"
#include "workload/churn.hpp"
#include "workload/request_mux.hpp"
#include "workload/scenario.hpp"
#include "workload/script.hpp"
#include "workload/shapes.hpp"

// Forest runtime: sharded many-tree engine on one deterministic clock.
#include "forest/forest.hpp"
