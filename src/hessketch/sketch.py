"""Gaussian sketching operators and the sketch-and-solve least-squares primitive.

Reproducibility contract: a sketch is fully determined by
``(out_rows, in_rows, seed)``.  Its entries are the stream of
``numpy.random.Generator(numpy.random.PCG64(seed)).standard_normal`` in
row-major order, each divided by ``sqrt(out_rows)``, giving i.i.d.
N(0, 1/out_rows) entries.  Any two runs with the same triple produce the
same operator, bit for bit.

A drawn sketch is that triple and nothing else: making one draws nothing.
:func:`sketch_apply` draws the rows again from the seed, in chunks of at
most 8 MB into one reused buffer, and multiplies each chunk into its rows
of the result, so an apply to b columns holds O(chunk + out_rows * b)
memory, never the out_rows x in_rows matrix.  Reading ``entries`` draws
the whole matrix from the same stream, once per sketch, and every later
apply reads it instead.  Both give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linops import _is_integer, dense_qr_ls

__all__ = [
    "SketchOperator",
    "make_gaussian_sketch",
    "sketch_apply",
    "sketch_and_solve_ls",
    "measured_epsilon",
    "derive_seed",
]

# the most bytes of S's rows an apply multiplies at once, so the most a
# streamed apply draws and holds.  Each chunk's product reads the whole
# block, so smaller chunks re-read it more often: at 8 MB and in_rows =
# 16,384 a chunk is 64 rows
_CHUNK_BYTES = 8 << 20


@dataclass(eq=False, init=False)
class SketchOperator:
    """A random embedding of R^in_rows into R^out_rows.

    Without ``entries`` it is a descriptor of the seeded Gaussian draw:
    :func:`sketch_apply` streams its rows from the seed, and ``entries``
    draws and keeps the full matrix on first read.  Sketches compare by
    identity: sketches built from explicit entries share a seed, so
    (out_rows, in_rows, seed) does not determine one.  Explicit
    ``entries`` must have the declared shape and a real dtype; neither
    check reads the entries.  The solvers check held entries for NaN and
    inf before applying them; drawn ones are finite.
    """

    out_rows: int
    in_rows: int
    seed: int

    def __init__(self, out_rows, in_rows, seed, entries=None):
        for name, value in (("out_rows", out_rows), ("in_rows", in_rows)):
            _check_integer(name, value, 1, "positive")
        _check_integer("seed", seed, 0, "nonnegative")
        self.out_rows, self.in_rows, self.seed = int(out_rows), int(in_rows), int(seed)
        if entries is None:
            return
        if np.shape(entries) != self.shape:
            raise ValueError(
                f"sketch entries must have the declared shape {self.shape}, "
                f"got {np.shape(entries)}"
            )
        if np.iscomplexobj(entries):
            raise ValueError(
                f"sketch entries must be real, got dtype {np.asarray(entries).dtype}"
            )
        # held as if already read: the cached property never draws them
        self.__dict__["entries"] = entries

    @property
    def shape(self):
        return (self.out_rows, self.in_rows)

    @cached_property
    def entries(self):
        """The full matrix, drawn from the seed on first read and kept."""
        entries = np.empty(self.shape)
        for start, stop, rows in _row_chunks(self):
            entries[start:stop] = rows
        return entries


def _check_integer(name, value, least, word):
    if not _is_integer(value):
        raise ValueError(f"sketch {name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"sketch {name} must be {word}, got {value}")


def _draw_rows(gen, out, scale):
    """Fill ``out`` with the next standard normals of ``gen``, divided by
    ``scale``.  Division, not a multiply by 1/scale, which rounds differently."""
    gen.standard_normal(out=out)
    out /= scale
    return out


def _row_chunks(S):
    """The rows of S in order, as ``(start, stop, rows)`` chunks of at most
    ``_CHUNK_BYTES`` (one row at least).

    Held entries are cut into views.  A descriptor's chunks are drawn by
    :func:`_draw_rows` into the leading rows of one buffer, reused for
    every chunk: each ``rows`` is valid until the next one is drawn.
    """
    step = max(1, _CHUNK_BYTES // (8 * S.in_rows))
    ranges = [(i, min(i + step, S.out_rows)) for i in range(0, S.out_rows, step)]
    held = vars(S).get("entries")
    if held is not None:
        yield from ((start, stop, held[start:stop]) for start, stop in ranges)
        return
    gen = np.random.Generator(np.random.PCG64(S.seed))
    scale = np.sqrt(S.out_rows)
    buf = np.empty((ranges[0][1], S.in_rows))
    for start, stop in ranges:
        yield start, stop, _draw_rows(gen, buf[: stop - start], scale)


def make_gaussian_sketch(out_rows, in_rows, seed):
    """A Gaussian sketch with i.i.d. N(0, 1/out_rows) entries, as a
    descriptor: nothing is drawn until it is applied or its entries read.

    The scaling makes the map an isometry in expectation:
    ``E[||S v||^2] = ||v||^2`` for any fixed v.  The sizes must be
    positive integers and the seed a nonnegative one, bools excluded.
    """
    return SketchOperator(out_rows, in_rows, seed)


def sketch_apply(S, v, counters=None):
    """Apply the sketch to a vector, or to each column of an (in_rows, b)
    block at once.

    A block is one pass over the entries, held or streamed from the seed
    chunk by chunk, and charges b sketch applications; a vector charges one.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != S.in_rows:
        raise ValueError(
            f"sketch expects a vector of length {S.in_rows} or a block of "
            f"columns of that length, got shape {v.shape}"
        )
    if counters is not None:
        counters.sketch_apply_count += 1 if v.ndim == 1 else v.shape[1]
    out = np.empty((S.out_rows, *v.shape[1:]))
    for start, stop, rows in _row_chunks(S):
        np.matmul(rows, v, out=out[start:stop])
    return out


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
    return _distortion(sketch_apply(S, Q))


def _distortion(SQ):
    """The distortion eps of a sketch S on span(Q), from SQ = S Q for an
    orthonormal Q (or any matrix with the singular values of S Q):
    ``kappa(SQ) = (1 + eps) / (1 - eps)``.  A non-finite SQ or s_max, or
    an s_min of zero, reads 1.0, the most a distortion can be."""
    if not np.isfinite(SQ).all():
        return 1.0
    s = np.linalg.svd(SQ, compute_uv=False)
    if s[-1] <= 0.0 or not np.isfinite(s[0]):
        return 1.0
    kappa = s[0] / s[-1]
    return float((kappa - 1.0) / (kappa + 1.0))


def derive_seed(seed, stream):
    """Derive an independent child seed for a named stream.

    Built on ``numpy.random.SeedSequence(seed, spawn_key=(stream,))`` so
    distinct streams from one root seed give statistically independent
    generators, deterministically.  Both must be nonnegative integers.
    """
    for name, value in (("seed", seed), ("stream", stream)):
        if not _is_integer(value) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(stream),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
