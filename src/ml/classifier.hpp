#pragma once
// Common interface for every binary classifier compared in Table II
// (RF, SVM-RBF, RUSBoost, NN-1, NN-2). Besides fit/predict it exposes the
// paper's model-complexity metrics: parameter count and the number of
// arithmetic operations one prediction costs.
//
// Models with multiple inference backends keep this interface engine-
// agnostic: the Random Forest serves predict_proba/predict_proba_all from
// whichever ForestEngine (exact FlatForest walk or compiled quantized
// layout — see core/forest_engine.hpp) the call shape selects, with
// byte-identical probabilities either way, so callers of this interface
// never observe which backend ran.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.hpp"

namespace drcshap {

class BinaryClassifier {
 public:
  virtual ~BinaryClassifier() = default;

  /// Train on the dataset (labels 0/1).
  virtual void fit(const Dataset& data) = 0;

  /// P(y = 1 | x). Must only be called after fit().
  virtual double predict_proba(std::span<const float> features) const = 0;

  /// Scores for every row (default: per-row loop; models may batch — the
  /// Random Forest overrides this with a thread-parallel engine, which is
  /// what cross-validation, grid search, and the Table II benches hit).
  virtual std::vector<double> predict_proba_all(const Dataset& data) const {
    std::vector<double> out(data.n_rows());
    for (std::size_t i = 0; i < data.n_rows(); ++i) {
      out[i] = predict_proba(data.row(i));
    }
    return out;
  }

  /// "# Model param." row of Table II.
  virtual std::size_t n_parameters() const = 0;

  /// "# Prediction op." row of Table II: arithmetic operations (compares,
  /// multiply-adds, activations) for one sample.
  virtual std::size_t prediction_ops() const = 0;

  virtual std::string name() const = 0;
};

}  // namespace drcshap
