#pragma once
// Versioned model registry of the serving daemon. Models are loaded from
// the PR 5 artifact envelope ("DRCSHAP-ARTIFACT v1 forest ...") and
// published through one shared_ptr slot: readers (the batch runner) grab
// a snapshot per batch, writers (SIGHUP / the reload verb) swap the pointer
// and let the old model drain — the last in-flight batch holding a snapshot
// keeps it alive, so a hot swap never invalidates work already dispatched
// and a whole batch is always served by exactly one model version.
//
// The slot is a mutex-guarded shared_ptr rather than atomic<shared_ptr>:
// current() runs once per batch (not per row), so the lock costs nothing,
// and libstdc++'s _Sp_atomic hides its synchronization in a pointer-bit
// spinlock that ThreadSanitizer cannot model — a plain mutex keeps the
// swap/drain machinery provably clean under TSan.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/explanation_cache.hpp"
#include "core/random_forest.hpp"
#include "core/tree_shap.hpp"
#include "util/artifact.hpp"

namespace drcshap::serve {

/// One immutable loaded model: forest + explainer snapshot + identity.
/// Construction happens off the serving path (ModelRegistry::load); after
/// publication the object is only ever read (the explanation cache mutates
/// internally but is thread-safe by construction).
struct ServedModel {
  ServedModel(RandomForestClassifier forest_in, std::string path_in,
              std::uint64_t digest_in);

  RandomForestClassifier forest;
  TreeShapExplainer explainer;
  /// Explanation cache of this model version, attached to `explainer`.
  /// Allocated fresh per load, so a hot swap flushes cached SHAP rows
  /// structurally: stale entries retire with the old ServedModel instead of
  /// being invalidated in place.
  std::shared_ptr<ExplanationCache> explain_cache;
  std::string path;          ///< artifact the model was loaded from
  std::uint64_t digest;      ///< FNV-1a of the artifact payload
  std::string version;       ///< "<basename>#<digest16hex>"
  std::size_t n_features;
};

class ModelRegistry {
 public:
  /// Loads the forest artifact at `path` and atomically publishes it.
  /// On failure the previous model (if any) keeps serving.
  Status load(const std::string& path);

  /// load() again: from `path`, or from the current model's path when
  /// `path` is empty (the SIGHUP case — re-read the file in place).
  Status reload(const std::string& path = {});

  /// Snapshot of the published model (nullptr before the first load).
  /// Hold the shared_ptr for the duration of a batch: it pins the version.
  std::shared_ptr<const ServedModel> current() const {
    std::lock_guard<std::mutex> lock(current_mu_);
    return current_;
  }

  /// Number of successful swaps after the initial load.
  std::uint64_t swap_count() const {
    return swaps_.load(std::memory_order_relaxed);
  }

  /// Retired (replaced) models still pinned alive by in-flight batches —
  /// the observable half of the drain guarantee. 0 once traffic drains.
  std::size_t retired_alive() const;

 private:
  /// Guards only the published pointer; never held across parsing or any
  /// other slow work, so readers cannot stall behind a reload.
  mutable std::mutex current_mu_;
  std::shared_ptr<const ServedModel> current_;
  std::atomic<std::uint64_t> swaps_{0};
  mutable std::mutex mu_;  ///< serializes load/reload and guards retired_
  std::vector<std::weak_ptr<const ServedModel>> retired_;
};

}  // namespace drcshap::serve
