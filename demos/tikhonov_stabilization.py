"""Show how a fixed damping parameter stabilizes semiconvergence.

Without damping the reconstruction error of every solver rises well above
its minimum by iteration 30.  With lambda = 26 the curves flatten: the
error at iteration 30 stays within a few percent of its own minimum, so
an imprecise stopping rule no longer ruins the reconstruction.
"""

import numpy as np

from hessketch.problems import make_tomography
from hessketch.solvers import SolverConfig, lslu, lsqr, slslu

problem = make_tomography(48, 36, noise_level=0.01, seed=0)
LAM = 26.0


def upturn(errs):
    return errs[-1] / errs.min() - 1.0


def curve(solver, lam, **kw):
    cfg = SolverConfig(maxiter=30, lam=lam, **kw)
    res = solver(problem.operator, problem.b, cfg, x_true=problem.x_true)
    return np.array(res.trace.column("rel_err"))


rows = [
    ("lsqr", curve(lsqr, 0.0), curve(lsqr, LAM)),
    ("lslu", curve(lslu, 0.0), curve(lslu, LAM)),
    ("slslu", curve(slslu, 0.0, seed=0), curve(slslu, LAM, seed=0)),
]

print(f"damping parameter lambda = {LAM}\n")
print(f"{'solver':>6}  {'undamped rise':>14}  {'damped rise':>12}")
for name, plain, damped in rows:
    print(f"{name:>6}  {upturn(plain):>13.1%}  {upturn(damped):>11.1%}")

print("\nrelative error per iteration, slslu (undamped vs damped):")
plain, damped = rows[2][1], rows[2][2]
print(f"{'iter':>4}  {'undamped':>9}  {'damped':>9}")
for k in range(0, 30, 3):
    print(f"{k + 1:>4}  {plain[k]:>9.4f}  {damped[k]:>9.4f}")
