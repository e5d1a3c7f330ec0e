"""Certify the sketched residual bounds on a random least-squares problem.

At each iteration the sketched solver's residual must sit between the
best residual attainable in the current subspace (the oracle) and that
oracle inflated by (1+eps)/(1-eps), where eps is the measured embedding
distortion of the sketch on the generated subspace.  The residual is the
trace's ``res_norm``, read off the factorization rather than formed as
b - A x_k, so each side of the sandwich allows criterion 4's slack of
1e-9 (1 + oracle) for rounding.  LSQR gives the Krylov-subspace floor for
comparison.  Any violation ends the run with a nonzero exit status.
"""

import sys

import numpy as np

from hessketch.linops import LinearOperator
from hessketch.solvers import SolverConfig, lsqr, projected_minres_oracle, slslu

rng = np.random.default_rng(11)
M = rng.standard_normal((120, 60))
b = rng.standard_normal(120)
A = LinearOperator.from_matrix(M)

cfg = SolverConfig(maxiter=15, seed=2, compute_diagnostics=True)
res = slslu(A, b, cfg)
ref = lsqr(A, b, SolverConfig(maxiter=15, compute_diagnostics=True))

state = res.factorization
print(f"sketch rows: {cfg.effective_sketch_rows(A.cols)}")
print(
    f"{'iter':>4}  {'oracle':>9}  {'sketched':>9}  {'bound':>9}  "
    f"{'lsqr':>9}  {'eps':>6}"
)
violations = 0
for k, rec in enumerate(res.trace.records, start=1):
    basis = np.column_stack(state.V_cols[:k])
    _, oracle = projected_minres_oracle(A, basis, b)
    envelope = (1.0 + rec.eps_embed) / (1.0 - rec.eps_embed) * oracle
    ref_res = ref.trace.records[k - 1].res_norm
    slack = 1e-9 * (1.0 + oracle)
    inside = oracle - slack <= rec.res_norm <= envelope + slack
    violations += not inside
    print(
        f"{k:>4}  {oracle:>9.4f}  {rec.res_norm:>9.4f}  {envelope:>9.4f}  "
        f"{ref_res:>9.4f}  {rec.eps_embed:>6.3f}  {'ok' if inside else 'VIOLATED'}"
    )

final = res.trace.final()
print(
    f"\ncounters: matvecs={final.matvecs} transpose={final.tmatvecs} "
    f"dots={final.dots} sketches={final.sketches}"
)
if violations:
    sys.exit(f"{violations} of {len(res.trace.records)} iterations VIOLATED the bounds")
