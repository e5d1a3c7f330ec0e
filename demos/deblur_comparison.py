"""Compare GMRES, CMRH and sketched CMRH on a motion-deblurring problem.

The blurred observation carries 1% noise, so every method semiconverges:
the reconstruction error bottoms out and then rises as noise is fitted.
The sketched solver tracks the GMRES error curve while using no inner
products in its basis construction (pivots come from a 5-entry sample).
"""

import os

import numpy as np

from hessketch.hessenberg import PivotStrategy
from hessketch.problems import make_deblur, motion_psf, write_image
from hessketch.solvers import SolverConfig, cmrh, gmres, scmrh, trace_to_csv

OUT = "demo_output"
os.makedirs(OUT, exist_ok=True)

problem = make_deblur(64, motion_psf(7, 30.0), noise_level=0.01, seed=0)
pivot = PivotStrategy.sampled(5, seed=7)

runs = {
    "gmres": gmres(
        problem.operator,
        problem.b,
        SolverConfig(maxiter=30, compute_diagnostics=True),
        x_true=problem.x_true,
    ),
    "cmrh": cmrh(
        problem.operator,
        problem.b,
        SolverConfig(maxiter=30, pivot=pivot, compute_diagnostics=True),
        x_true=problem.x_true,
    ),
    "scmrh": scmrh(
        problem.operator,
        problem.b,
        SolverConfig(maxiter=30, pivot=pivot, seed=1, compute_diagnostics=True),
        x_true=problem.x_true,
    ),
}

print(f"{'iter':>4}  " + "  ".join(f"{name:>10}" for name in runs))
for k in range(0, 30, 3):
    errs = [run.trace.records[k].rel_err for run in runs.values()]
    print(f"{k + 1:>4}  " + "  ".join(f"{e:>10.4f}" for e in errs))

print()
for name, run in runs.items():
    errs = np.array(run.trace.column("rel_err"))
    final = run.trace.final()
    print(
        f"{name:>6}: min rel err {errs.min():.4f} at iter {errs.argmin() + 1}, "
        f"dots={final.dots}, matvecs={final.matvecs}"
    )
    trace_to_csv(run.trace, os.path.join(OUT, f"deblur_{name}.trace.csv"))
    write_image(
        run.x.reshape(problem.image_shape),
        os.path.join(OUT, f"deblur_{name}.recon.pgm"),
    )

write_image(
    problem.x_true.reshape(problem.image_shape),
    os.path.join(OUT, "deblur_truth.pgm"),
)
print(f"\ntraces and reconstructions written to {OUT}/")
