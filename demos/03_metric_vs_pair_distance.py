"""Why the generalized pair distance matters.

Run with:  python3 demos/03_metric_vs_pair_distance.py

On [1, 3) with the descending order, the capped halving map expands the
plain metric at the related pair (2, 1), and even the generalized
displacement route fails there.  The pair distance |x| + |y| still
contracts the same pair with ratio 5/6, which is what lets the fixed-point
machinery go through.
"""

from relfix import (
    compare_classical,
    estimate_lambda,
    sample_space,
    scalar,
    verify_theorem,
)
from relfix.fixtures import ordered_halving_fixture, product_shrink_fixture

fx = ordered_halving_fixture()
# (2, 1) is the one related pair of {1, 2} off the diagonal
two_points = [scalar(1.0), scalar(2.0)]

print("the pair (x, y) = (2, 1):  T(2) = 2, T(1) = 1/2")
comparison = compare_classical(fx.map, fx.space, fx.relation, two_points)
row = comparison.first_banach_failure
print(f"  d(Tx, Ty) = {row.d_image}")
print(f"  d(x, y)   = {row.d_pair}        -> no factor below 1 can dominate")
print(f"  M(x, y)   = {row.m_displacement}       -> the displacement route fails too")

estimate, _ = estimate_lambda(fx.map, fx.wdistance, fx.relation, two_points)
print(f"  p(Tx, Ty) / p(x, y) = {estimate.lambda_hat}  (= 5/6, below 1)")

print()
print("the full sample tells the same story:")
sample = sample_space(fx.space, step=0.1)
full = compare_classical(fx.map, fx.space, fx.relation, sample)
print(f"  {full.pairs} related pairs: metric contraction fails on "
      f"{full.banach_failure_count}, displacement on {full.mt_failure_count}")
est, est_diag = estimate_lambda(fx.map, fx.wdistance, fx.relation, sample)
print(f"  pair-distance ratio supremum: {est.lambda_hat:.6f} off-diagonal, "
      f"{est_diag.lambda_hat:.6f} with the diagonal included")
print("  (the ratio creeps toward 1 near the fixed point, so the sample")
print("   supremum is reported as such rather than asserted uniformly)")

print()
print("the shrink fixture passes the whole hypothesis battery:")
shrink = product_shrink_fixture()
sample = sample_space(shrink.space, step=0.01)
report = verify_theorem(
    shrink.map, shrink.space, shrink.relation, shrink.wdistance, sample, scalar(1.0)
)
print(f"  start points nonempty:     {report.start_points}")
print(f"  relation map-closed:       {report.t_closed}")
print(f"  orbit self-closed witness: {report.continuity_or_self_closed}")
print(f"  space completeness proxy:  {report.r_complete_proxy}")
print(f"  contraction (lambda_hat):  {report.contraction} ({report.lambda_hat})")
print(f"  overall: {report.overall.value}")
