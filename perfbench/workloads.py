"""Benchmark workloads: generated ``hessketch solve`` configs and their answers.

Each workload is a problem plus one solver per role:

* ``reference``  -- the inner-product solver (gmres or lsqr);
* ``hessenberg`` -- its pivoted-Hessenberg counterpart (cmrh or lslu);
* ``sketched``   -- the sketched Hessenberg solver (scmrh or slslu).

The workload seed reaches the program only through the generated config,
as the problem (noise), sketch and pivot seeds.  The three are drawn from
one ``SeedSequence`` so that no two generators share a stream.

``counters`` holds the exact cost-model counts of the final trace record
(iterations, matvecs, transpose matvecs, dot products, sketch applies).
They follow from the algorithms alone, so they hold for every seed:

* gmres, K steps: K matvecs, (K + 1)^2 dots (the initial norm, then per
  step k two Gram-Schmidt passes over k vectors plus one norm);
* lsqr, K steps: K matvecs, K + 1 transpose matvecs,
  2 + K(K + 1) + 2K dots (both bidiagonalization sides reorthogonalized);
* cmrh / lslu: K matvecs (lslu also K + 2 transpose matvecs), 0 dots;
* scmrh: K + 1 sketch applies (r0 and one column per step); damped slslu
  sketches two columns per step plus r0 and the first penalty column,
  2K + 2.

``best_rel_err`` is a band [lo, hi] on min_k ||x_k - x_true|| / ||x_true||.
The value depends on the seed (noise realization, sketch draw, pivot
samples): over workload seeds 0-19 its standard deviation is 0.1-2.5%
of the mean.  The band is the observed [min, max] widened by 10% at
each end, which puts it at least four deviations beyond the extremes,
so no seed should fall outside it.  A change of rounding order (a BLAS
triangular solve in place of the elimination loop, an updated QR) moves
the value by orders of magnitude less than 10%; a wrong answer (a
diverging or stalled iteration, a wrong projected solve, an unstable
pivot) moves it by more.  The benchmark also recomputes the error of
the returned x, which catches a corrupted solution the band would miss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROLES = ("reference", "hessenberg", "sketched")
COUNTER_FIELDS = ("iters", "matvecs", "tmatvecs", "dots", "sketches")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    problem: dict
    solvers: dict  # role -> {"name": solver name, plus solver.<label>.* keys}
    counters: dict  # role -> dict over COUNTER_FIELDS
    best_rel_err: dict  # role -> (lo, hi)

    def seeds(self, seed):
        """Problem, sketch and pivot seeds derived from the workload seed."""
        state = np.random.SeedSequence(int(seed)).generate_state(3)
        return tuple(int(s) for s in state)

    def config_text(self, seed, output_dir):
        problem_seed, sketch_seed, pivot_seed = self.seeds(seed)
        lines = [f"problem.{key} = {value}" for key, value in self.problem.items()]
        lines.append(f"problem.seed = {problem_seed}")
        lines.append(f"output_dir = {output_dir}")
        for spec in self.solvers.values():
            label = spec["name"]
            for key, value in spec.items():
                if key != "name":
                    lines.append(f"solver.{label}.{key} = {value}")
            lines.append(f"solver.{label}.seed = {sketch_seed}")
            if spec.get("pivot") == "sampled":
                lines.append(f"solver.{label}.pivot_seed = {pivot_seed}")
        return "\n".join(lines) + "\n"


def _counts(iters, matvecs, tmatvecs, dots, sketches):
    return dict(zip(COUNTER_FIELDS, (iters, matvecs, tmatvecs, dots, sketches)))


_MOTION_PSF = {"psf": "motion", "psf_length": 7, "psf_angle": 30, "noise_level": 0.01}


def deblur(name, why, size, k, bands):
    return Workload(
        name=name,
        why=why,
        problem={"type": "deblur", "size": size, **_MOTION_PSF},
        solvers={
            "reference": {"name": "gmres", "maxiter": k},
            "hessenberg": {"name": "cmrh", "maxiter": k},
            "sketched": {"name": "scmrh", "maxiter": k},
        },
        counters={
            "reference": _counts(k, k, 0, (k + 1) ** 2, 0),
            "hessenberg": _counts(k, k, 0, 0, 0),
            "sketched": _counts(k, k, 0, 0, k + 1),
        },
        best_rel_err=bands,
    )


def tomography(name, why, grid, angles, k, lam, sample_size, bands):
    damped = {"maxiter": k, "lambda": lam}
    return Workload(
        name=name,
        why=why,
        problem={"type": "tomography", "grid": grid, "angles": angles,
                 "noise_level": 0.01},
        solvers={
            "reference": {"name": "lsqr", **damped},
            "hessenberg": {"name": "lslu", **damped},
            "sketched": {"name": "slslu", **damped, "pivot": "sampled",
                         "sample_size": sample_size},
        },
        counters={
            "reference": _counts(k, k, k + 1, 2 + k * (k + 1) + 2 * k, 0),
            "hessenberg": _counts(k, k, k + 2, 0, 0),
            "sketched": _counts(k, k, k + 2, 0, 2 * k + 2),
        },
        best_rel_err=bands,
    )


WORKLOADS = {
    w.name: w
    for w in (
        deblur(
            "deblur128-k150",
            "long Krylov runs: the k-superlinear projected QR, basis "
            "re-stacking and 151 applies of a 198 MB sketch dominate, the "
            "operator does not",
            128, 150,
            bands={"reference": (0.0710, 0.0883),
                   "hessenberg": (0.0705, 0.0948),
                   "sketched": (0.0711, 0.0884)},
        ),
        deblur(
            "deblur256-k30",
            "large n, short k: the operator, the 163 MB sketch draw and "
            "vector work dominate; the projected solve is under 2%",
            256, 30,
            bands={"reference": (0.0577, 0.0710),
                   "hessenberg": (0.0573, 0.0738),
                   "sketched": (0.0571, 0.0721)},
        ),
        tomography(
            "tomo128-damped",
            "rectangular and damped: transpose applies, the stacked "
            "Tikhonov QR, a second sketch and sampled pivots; assembly is "
            "half the run",
            128, 90, 30, 5.0, 64,
            bands={"reference": (0.0851, 0.1050),
                   "hessenberg": (0.0855, 0.1092),
                   "sketched": (0.0848, 0.1077)},
        ),
    )
}
