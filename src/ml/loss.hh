/**
 * @file
 * Loss functions with gradients w.r.t. network outputs.
 *
 * C51 trains by minimizing the cross-entropy between a projected target
 * distribution and the predicted distribution for the taken action, so
 * the key loss here is softmax cross-entropy against a *soft* target.
 */

#pragma once

#include "ml/matrix.hh"

namespace sibyl::ml
{

/**
 * Mean-squared error. Returns the loss and fills @p grad with
 * dL/d pred (same size as pred).
 */
float mseLoss(const Vector &pred, const Vector &target, Vector &grad);

/**
 * Softmax cross-entropy with a soft target distribution, evaluated on raw
 * logits. Returns the loss and fills @p gradLogits with the well-known
 * closed-form gradient softmax(logits) - target.
 *
 * @pre target sums to ~1 and is non-negative.
 */
float softmaxCrossEntropy(const Vector &logits, const Vector &target,
                          Vector &gradLogits);

/**
 * Batch-lane softmaxCrossEntropy() over @p rows independent rows:
 * row r's @p n logits are read in place at logits[r] and its soft
 * target at targets[r]; the loss goes to loss[r], and the gradient
 * softmax(logits[r]) - targets[r], times weights[r], is added into
 * grad[r][0..n). Rows are accumulated in ascending r, so rows that
 * share a gradient row (folded duplicate states) add in order. SIMD
 * runs across rows (lanes of eight) while each row's max, exponential
 * sum and loss stay sequential over its entries in
 * softmaxCrossEntropy()'s order, so every output bit equals the
 * per-row call's followed by grad[r][i] += gradLogits[i] * weights[r].
 *
 * @param tile Lane-major working storage (resized to n x 8 floats;
 *             reuse it across calls to stay allocation-free).
 */
void softmaxCrossEntropyRows(const float *const *logits,
                             const float *const *targets,
                             const float *weights, float *const *grad,
                             std::size_t rows, std::size_t n, float *loss,
                             Vector &tile);

/**
 * Binary cross-entropy on a single sigmoid output given its logit.
 * Returns the loss and the scalar gradient w.r.t. the logit.
 */
float binaryCrossEntropy(float logit, float target, float &gradLogit);

} // namespace sibyl::ml
