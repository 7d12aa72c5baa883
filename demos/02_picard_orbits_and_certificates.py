"""Picard iteration with certified geometric bounds.

Run with:  python3 demos/02_picard_orbits_and_certificates.py

The four-branch shrink map on [0, 2] contracts the pair distance
p(x, y) = y by the factor 3/4 on related pairs.  The orbit from 2 walks
through all four branches before collapsing geometrically to 0, and every
recorded index pair obeys the theoretical tail bound.
"""

from relfix import (
    certify_cauchy,
    certify_fixed_point,
    estimate_lambda,
    iterate,
    probe_uniqueness,
    sample_space,
    scalar,
)
from relfix.fixtures import product_shrink_fixture

fx = product_shrink_fixture()

print("estimating the contraction factor on the 0.01 lattice...")
sample = sample_space(fx.space, step=0.01)
estimate, _ = estimate_lambda(fx.map, fx.wdistance, fx.relation, sample)
witness = tuple(p.value for p in estimate.witness_pair)
print(f"  lambda_hat = {estimate.lambda_hat}  (worst pair {witness}, "
      f"{estimate.pairs_checked} pairs checked)")

print()
print("orbit from x0 = 2 under lambda = 3/4:")
trace = iterate(fx.map, scalar(2.0), fx.wdistance, estimate.lambda_hat, max_iter=60)
print(f"  {'n':>3}  {'x_n':>14}  {'d gap':>12}  {'p gap':>12}  {'tail bound':>12}")
for n in range(trace.steps):
    print(f"  {n:>3}  {trace.points[n].value:>14.9f}  {trace.d_gaps[n]:>12.3e}"
          f"  {trace.p_gaps[n]:>12.3e}  {trace.bound[n]:>12.3e}")
print(f"  stopped after {trace.steps} steps: {trace.stop_reason.value}, "
      f"final point {trace.final.value:.3e}")

check = certify_cauchy(trace, fx.wdistance)
print(f"\ntail bound certified on all index pairs: {check.ok} "
      f"({len(check.violations)} violations)")

certificate = certify_fixed_point(fx.map, trace.final, fx.wdistance)
print(f"fixed-point certificate: residual = {certificate.residual:.3e}, "
      f"p(x, x) = {certificate.p_self:.3e}")

probe = probe_uniqueness(
    fx.relation, fx.map, fx.wdistance, estimate.lambda_hat,
    [trace.final], sample, z_hint=fx.z_hint,
)
print(f"uniqueness probe: {probe.verdict.value} with ancestor z = {probe.z.value}")
print("(z = 0 relates to every point, and p(T^n z, x) decays geometrically)")
