// Trace-replay simulation engine (paper §3).
//
// Replays a block-level trace against a policy: reads are dispatched to the
// policy and their outcomes converted to latency using the technology model;
// writes, deletes, and read-attribute events update cache state. The first
// `warmup_events` events warm the caches without being counted.
//
// Events are consumed through the pull-based EventSource abstraction in
// fixed-size chunks, so replay memory never depends on trace length: a
// materialized Trace is wrapped in a MaterializedEventSource adapter, and
// the streaming synthetic generator (src/trace/event_source.h) feeds the
// same loop without ever materializing the trace (ROADMAP scale-out).
//
// State operations are delegated to the CacheEngine's single-shard fast
// path (src/engine/cache_engine.h): the simulator is one client of the same
// engine the live serve harness (src/serve) drives from many threads. The
// simulator keeps the orchestration — chunked event pull, warm-up gating,
// sampling/tracing boundaries, metrics accounting.
#ifndef COOPFS_SRC_SIM_SIMULATOR_H_
#define COOPFS_SRC_SIM_SIMULATOR_H_

#include <functional>
#include <memory>

#include "src/common/status.h"
#include "src/sim/config.h"
#include "src/sim/metrics.h"
#include "src/sim/policy.h"
#include "src/trace/event.h"
#include "src/trace/event_source.h"

namespace coopfs {

class Simulator {
 public:
  // Called with the final context after the last event, before teardown.
  using ContextInspector = std::function<void(SimContext&)>;

  // `trace` must outlive the simulator and be time-ordered.
  Simulator(SimulationConfig config, const Trace* trace);

  // Streaming form: `source` must outlive the simulator and produce
  // time-ordered events. The source is Reset() at the start of every Run,
  // so one simulator can replay several policies over one source. The
  // client count comes from config.num_clients, or the source's
  // NumClientsHint() when the config leaves it 0.
  Simulator(SimulationConfig config, EventSource* source);

  // Runs `policy` over the trace in a fresh context and returns its metrics.
  // Returns kInvalidArgument for configurations that cannot run (e.g. an
  // empty trace). `inspect`, if given, sees the end-of-run context (used by
  // the invariant-checking tests in tests/).
  Result<SimulationResult> Run(Policy& policy, const ContextInspector& inspect = nullptr);

  // Number of clients (from the config, the source hint, or inferred from
  // the trace).
  std::uint32_t num_clients() const { return num_clients_; }

  const SimulationConfig& config() const { return config_; }

 private:
  SimulationConfig config_;
  // Adapter owned for the materialized-trace constructor; shared so the
  // simulator stays copyable (copies replay the same source sequentially).
  std::shared_ptr<EventSource> owned_source_;
  EventSource* source_ = nullptr;
  std::uint32_t num_clients_ = 0;
};

}  // namespace coopfs

#endif  // COOPFS_SRC_SIM_SIMULATOR_H_
