#pragma once
// Inference-backend selection for the Random Forest.
//
// Two engines share one fitted ensemble: the *exact* engine walks the
// FlatForest SoA arrays with float threshold compares (the reference
// oracle), and the *compiled* engine runs the quantized, branch-free,
// batch-of-8 CompiledForest layout. Both produce byte-identical
// probabilities (proved by tests/test_compiled_forest.cpp), so selection is
// purely a performance choice, made per call via the ForestEngine argument.

#include <string_view>

namespace drcshap {

enum class ForestEngine {
  /// Batches use the compiled engine whenever the fitted model quantizes,
  /// else exact; single samples use exact.
  kAuto = 0,
  /// FlatForest float-threshold traversal — the reference oracle.
  kExact,
  /// Quantized branch-free CompiledForest traversal (SIMD when available).
  /// Falls back to exact if the model could not be compiled.
  kCompiled,
};

/// "auto" / "exact" / "compiled".
std::string_view forest_engine_name(ForestEngine engine);

}  // namespace drcshap
