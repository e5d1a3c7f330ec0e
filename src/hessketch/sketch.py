"""Gaussian sketching operators and the sketch-and-solve least-squares primitive.

Reproducibility contract: a sketch is fully determined by
``(out_rows, in_rows, seed)``.  Entries are drawn as
``numpy.random.Generator(numpy.random.PCG64(seed)).standard_normal((out_rows, in_rows))``
in row-major order and scaled by ``1/sqrt(out_rows)``, giving i.i.d.
N(0, 1/out_rows) entries.  Any two runs with the same triple produce the
same operator, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linops import dense_qr_ls

__all__ = [
    "SketchOperator",
    "make_gaussian_sketch",
    "sketch_apply",
    "sketch_and_solve_ls",
    "measured_epsilon",
    "derive_seed",
]


@dataclass(eq=False)
class SketchOperator:
    """A realized random embedding of R^in_rows into R^out_rows.

    Sketches compare by identity: sketches built from explicit entries
    share a seed, so (out_rows, in_rows, seed) does not determine one.
    ``entries`` must have the declared shape and a real dtype; neither
    check reads the entries.  The solvers check a prebuilt sketch's
    entries for NaN and inf before applying it; drawn ones are finite.
    """

    out_rows: int
    in_rows: int
    seed: int
    entries: np.ndarray

    def __post_init__(self):
        if np.shape(self.entries) != self.shape:
            raise ValueError(
                f"sketch entries must have the declared shape {self.shape}, "
                f"got {np.shape(self.entries)}"
            )
        if np.iscomplexobj(self.entries):
            raise ValueError(
                f"sketch entries must be real, got dtype {np.asarray(self.entries).dtype}"
            )

    @property
    def shape(self):
        return (self.out_rows, self.in_rows)


def make_gaussian_sketch(out_rows, in_rows, seed):
    """Draw a Gaussian sketch with i.i.d. N(0, 1/out_rows) entries.

    The scaling makes the map an isometry in expectation:
    ``E[||S v||^2] = ||v||^2`` for any fixed v.
    """
    if out_rows < 1 or in_rows < 1:
        raise ValueError("sketch dimensions must be positive")
    gen = np.random.Generator(np.random.PCG64(seed))
    entries = gen.standard_normal((out_rows, in_rows)) / np.sqrt(out_rows)
    return SketchOperator(out_rows, in_rows, int(seed), entries)


def sketch_apply(S, v, counters=None):
    """Apply the sketch to a vector, or to each column of an (in_rows, b)
    block at once.

    A block is one matrix-matrix product, a single pass over the entries,
    and charges b sketch applications; a vector charges one.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != S.in_rows:
        raise ValueError(
            f"sketch expects a vector of length {S.in_rows} or a block of "
            f"columns of that length, got shape {v.shape}"
        )
    if counters is not None:
        counters.sketch_apply_count += 1 if v.ndim == 1 else v.shape[1]
    return S.entries @ v


def sketch_and_solve_ls(S, M, rhs, counters=None):
    """Solve min_y ||S (M y - rhs)|| as a cheap proxy for min_y ||M y - rhs||.

    Sketching the k columns of M and the right-hand side costs k + 1 sketch
    applications.  Requires ``S.out_rows >= k`` so the compressed problem is
    still overdetermined (or square).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != S.in_rows:
        raise ValueError(
            f"M must have {S.in_rows} rows to be sketched, got shape {M.shape}"
        )
    if S.out_rows < M.shape[1]:
        raise ValueError(
            f"sketch with {S.out_rows} rows cannot preserve a "
            f"{M.shape[1]}-dimensional least-squares problem"
        )
    return dense_qr_ls(sketch_apply(S, M, counters), sketch_apply(S, rhs, counters))


def measured_epsilon(S, basis):
    """Measured distortion of the sketch on the span of ``basis``.

    Orthonormalizes the basis columns (economy QR) and reads the distortion
    off the condition number of the sketched orthonormal factor:
    ``kappa = (1 + eps) / (1 - eps)``.  The resulting eps certifies the
    two-sided bound  max ||S x|| / min ||S x|| <= (1+eps)/(1-eps)  over unit
    vectors x in the span, independent of any overall scaling of S.

    A diagnostic: never touches operation counters.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != S.in_rows:
        raise ValueError(
            f"basis must have {S.in_rows} rows, got shape {basis.shape}"
        )
    Q, _ = np.linalg.qr(basis)
    s = np.linalg.svd(sketch_apply(S, Q), compute_uv=False)
    if s[-1] <= 0.0 or not np.isfinite(s[0]):
        return 1.0
    kappa = s[0] / s[-1]
    return float((kappa - 1.0) / (kappa + 1.0))


def derive_seed(seed, stream):
    """Derive an independent child seed for a named stream.

    Built on ``numpy.random.SeedSequence(seed, spawn_key=(stream,))`` so
    distinct streams from one root seed give statistically independent
    generators, deterministically.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(stream),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
