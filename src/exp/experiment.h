// Declarative experiment specs and the process-wide registry.
//
// Every figure in the paper's evaluation — and every ext_* extension — is the
// same shape: replay a shared trace under a list of (config, policy) jobs,
// print a table, export structured metrics. An ExperimentSpec captures one
// such experiment declaratively (name, workload, banner strings, and a run
// function that prints the paper's expectation through an ExperimentContext);
// the ExperimentRegistry holds them all in canonical order. The single
// `coopfs_bench` driver executes registered specs (--list / --filter /
// --threads, src/exp/driver.h); it is the only experiment binary.
#ifndef COOPFS_SRC_EXP_EXPERIMENT_H_
#define COOPFS_SRC_EXP_EXPERIMENT_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace coopfs {

class ExperimentContext;

// Which memoized trace(s) an experiment replays. Informational (shown by
// --list, recorded in manifests); specs pull traces lazily through the
// context, so a spec may also generate private traces (ext_churn).
enum class TraceKind {
  kNone,    // pure model tables (fig01, fig03)
  kSprite,  // the synthetic Sprite-like trace (§4.1)
  kAuspex,  // the synthetic Auspex-like snooped trace (§4.4)
  kBoth,    // sprite and auspex (sec45)
  kCustom,  // generates its own trace variants (ext_churn)
};

const char* TraceKindName(TraceKind kind);

struct ExperimentSpec {
  std::string name;         // stable id, the --filter name
  std::string title;        // banner title, e.g. "Figure 4"
  std::string what;         // banner subtitle, e.g. "average block read time by algorithm"
  std::string description;  // one-liner for --list
  TraceKind trace = TraceKind::kSprite;
  std::function<Status(ExperimentContext&)> run;
};

// Process-wide ordered registry of experiment specs. Registration order is
// canonical: --list, --filter selection, and multi-experiment driver output
// all follow it.
class ExperimentRegistry {
 public:
  static ExperimentRegistry& Instance();

  // Registers a spec; aborts on a duplicate name or missing run function
  // (both are programming errors in spec definitions).
  void Register(ExperimentSpec spec);

  const ExperimentSpec* Find(std::string_view name) const;

  // Specs whose name matches `glob`, in registration order.
  std::vector<const ExperimentSpec*> Match(std::string_view glob) const;

  const std::vector<ExperimentSpec>& specs() const { return specs_; }

 private:
  std::vector<ExperimentSpec> specs_;
};

// Shell-style glob match supporting '*' and '?' (no character classes are
// needed beyond '[...]', which is also supported for ranges like fig0[456]).
bool GlobMatch(std::string_view pattern, std::string_view text);

// Registers every built-in experiment (all fig*/sec*/ext_* specs) into the
// process-wide registry, in figure order. Idempotent.
void RegisterBuiltinExperiments();

}  // namespace coopfs

#endif  // COOPFS_SRC_EXP_EXPERIMENT_H_
