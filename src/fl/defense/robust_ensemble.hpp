#pragma once

// Robust per-example logit fusion.
//
// The mean and max fusions of ensemble_logits (fl/ensemble_distill.hpp) are both
// breakable by a single Byzantine member: one teacher emitting a huge logit
// owns the elementwise max outright and drags the mean arbitrarily far.  The
// coordinate-wise order statistics below bound the damage instead — as long
// as the poisoned members are a minority smaller than the trim width, the
// fused value stays inside the range spanned by honest members (Lin et al.
// 2020 motivate distillation fusion as the robust alternative to weight
// averaging; the trimming follows the coordinate-wise trimmed-mean /
// median estimators of the Byzantine-SGD literature).

#include <span>

#include "core/tensor.hpp"
#include "nn/module.hpp"

namespace fedkemf::fl {

/// Coordinate-wise trimmed mean: for every (example, class) cell, drop the
/// ceil(trim_fraction * members) largest and smallest values, then average
/// the rest.  The trim width is clamped so at least one value survives.
/// All members must share one [N, C] shape; trim_fraction must be in [0, 0.5).
core::Tensor trimmed_mean_logits(std::span<const core::Tensor> member_logits,
                                 double trim_fraction = 0.3);

/// Coordinate-wise median (mean of the two middle order statistics for even
/// member counts).  Equivalent to trimmed_mean with the maximum trim.
core::Tensor median_logits(std::span<const core::Tensor> member_logits);

/// Convex combination of member logits with the given non-negative weights
/// (normalized internally; at least one weight must be positive).  Used by
/// the reputation tracker's down-weighted average fusion.
core::Tensor weighted_avg_logits(std::span<const core::Tensor> member_logits,
                                 std::span<const double> weights);

/// Weight-space analogues, for the distillation warm start: a plain average
/// of member states is as breakable as a plain average of logits (a sign-flip
/// minority drives the averaged network into dead ReLUs it cannot recover
/// from), so when a robust logit strategy is selected the warm start must be
/// robust too.  Fuses every state tensor of `members` coordinate-wise into
/// `out`; all members must share `out`'s architecture.
void trimmed_mean_state(std::span<nn::Module* const> members, nn::Module& out,
                        double trim_fraction = 0.3);
void median_state(std::span<nn::Module* const> members, nn::Module& out);

}  // namespace fedkemf::fl
