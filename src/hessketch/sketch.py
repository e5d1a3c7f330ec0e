"""Gaussian sketching operators and the sketch-and-solve least-squares primitive.

Reproducibility contract: a sketch is fully determined by
``(out_rows, in_rows, seed)``.  Row block r, rows [32 r, 32 r + 32) (the
last may be shorter), is the stream of
``Generator(PCG64(SeedSequence(seed, spawn_key=(r,)))).standard_normal``
in row-major order, each entry divided by ``sqrt(out_rows)``: i.i.d.
N(0, 1/out_rows) entries, the same bits however the blocks are cut into
buffers and whichever thread draws them.  A problem's noise is drawn from
``default_rng(seed)``, the root stream (spawn key ``()``), which no block
repeats.

Making a sketch draws nothing.  :func:`sketch_apply` draws the blocks
again from the seed, on the caller and one helper thread of its own
executor, through :func:`hessketch.linops.run_blocks`, the runner the
sparse operators share: both take block indices from one iterator, and
each draws its blocks into its own buffer of half of ``_CHUNK_BYTES`` (in
sub-chunks, for a block taller than the buffer) and multiplies them into
their rows of the result.  A helper that has not started when the
blocks run out is cancelled, so a busy second core holds the apply up by
at most one block in flight.  A sketch that fits in one buffer is drawn
inline and starts no thread.  An apply to b columns holds
O(chunk + out_rows * b) memory, never the matrix.
Reading ``entries`` draws the same blocks into the whole matrix, once per
sketch, for the reader alone: applies keep drawing the blocks, so a read
changes no later product.  Only entries passed to the constructor are
applied, as one product.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linops import _is_integer, dense_qr_ls, run_blocks

__all__ = [
    "SketchOperator",
    "make_gaussian_sketch",
    "sketch_apply",
    "sketch_and_solve_ls",
    "measured_epsilon",
    "derive_seed",
]

# the rows of a block; each block is drawn from its own stream (part of
# the reproducibility contract: changing it changes every sketch)
_BLOCK_ROWS = 32

# the most bytes of S's rows a streamed apply holds: one buffer of half of
# it for each of the two threads.  Each buffer's product reads the whole
# block of columns, so smaller buffers re-read it more often: at 8 MB and
# in_rows = 16,384 a buffer is 32 rows
_CHUNK_BYTES = 8 << 20


@dataclass(eq=False, init=False)
class SketchOperator:
    """A random embedding of R^in_rows into R^out_rows.

    Without ``entries`` it is a descriptor of the seeded Gaussian draw:
    :func:`sketch_apply` draws its 32-row blocks from their own streams
    of the seed, and ``entries`` draws the same blocks into the full
    matrix on first read and keeps it, never to be applied.  Sketches
    compare by identity: sketches built from explicit entries share a
    seed, so (out_rows, in_rows, seed) does not determine one.  Explicit
    ``entries`` must have the declared shape and a real dtype; neither
    check reads the entries.  The solvers check explicit entries for NaN
    and inf before applying them; drawn ones are finite.
    """

    out_rows: int
    in_rows: int
    seed: int

    def __init__(self, out_rows, in_rows, seed, entries=None):
        for name, value in (("out_rows", out_rows), ("in_rows", in_rows)):
            _check_integer(name, value, 1, "positive")
        _check_integer("seed", seed, 0, "nonnegative")
        self.out_rows, self.in_rows, self.seed = int(out_rows), int(in_rows), int(seed)
        # the only entries an apply multiplies by
        self._held = entries
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

    @property
    def shape(self):
        return (self.out_rows, self.in_rows)

    @cached_property
    def entries(self):
        """The full matrix: the explicit entries, or drawn from the seed on
        first read and kept."""
        if self._held is not None:
            return self._held
        entries = np.empty(self.shape)
        for r in range(-(-self.out_rows // _BLOCK_ROWS)):
            # a buffer as tall as the rest of the matrix: the block is one
            # sub-chunk, drawn in place
            next(_block_rows(self, r, entries[r * _BLOCK_ROWS :]))
        return entries


def _check_integer(name, value, least, word):
    if not _is_integer(value):
        raise ValueError(f"sketch {name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"sketch {name} must be {word}, got {value}")


def _block_rows(S, r, buf):
    """Block r of S, as ``(start, stop, rows)`` sub-chunks drawn in order
    from the block's own stream into the leading rows of ``buf``; each
    ``rows`` is valid until the next is drawn."""
    end = min((r + 1) * _BLOCK_ROWS, S.out_rows)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(S.seed, spawn_key=(r,))))
    for start in range(r * _BLOCK_ROWS, end, len(buf)):
        rows = buf[: min(len(buf), end - start)]
        gen.standard_normal(out=rows)
        # a division, not a multiply by the inverse, which rounds differently
        rows /= np.sqrt(S.out_rows)
        yield start, start + len(rows), rows


def _apply_blocks(S, v, out, blocks, height):
    """Draw and multiply each block that ``blocks`` hands out into its rows
    of ``out``, through a buffer of ``height`` rows of this thread's own."""
    buf = np.empty((height, S.in_rows))
    for r in blocks:
        for start, stop, rows in _block_rows(S, r, buf):
            # np.dot, not np.matmul: matmul holds the GIL for an output of
            # under 500 entries, which would stall the other thread's draw
            np.dot(rows, v, out=out[start:stop])


def make_gaussian_sketch(out_rows, in_rows, seed):
    """A Gaussian sketch with i.i.d. N(0, 1/out_rows) entries, as a
    descriptor: nothing is drawn until it is applied or its entries read,
    and then in 32-row blocks, each from its own ``SeedSequence`` spawn
    of the seed (see the module docstring).

    The scaling makes the map an isometry in expectation:
    ``E[||S v||^2] = ||v||^2`` for any fixed v.  The sizes must be
    positive integers and the seed a nonnegative one, bools excluded.
    """
    return SketchOperator(out_rows, in_rows, seed)


def sketch_apply(S, v, counters=None):
    """Apply the sketch to a vector, or to each column of an (in_rows, b)
    block at once.

    A block is one pass over the explicit entries, or over the blocks
    drawn from the seed, and charges b sketch applications; a vector
    charges one.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != S.in_rows:
        raise ValueError(
            f"sketch expects a vector of length {S.in_rows} or a block of "
            f"columns of that length, got shape {v.shape}"
        )
    if counters is not None:
        counters.sketch_apply_count += 1 if v.ndim == 1 else v.shape[1]
    if S._held is not None:
        return np.dot(S._held, v)
    out = np.empty((S.out_rows, *v.shape[1:]))
    height = min(max(1, _CHUNK_BYTES // (16 * S.in_rows)), S.out_rows)
    count = -(-S.out_rows // _BLOCK_ROWS)
    if height == S.out_rows or count == 1:
        _apply_blocks(S, v, out, range(count), height)
        return out
    # the helper calls _apply_blocks alone (standard_normal, a division and
    # np.dot), none of the functions that perfbench wraps in spans: its
    # Tracer is single-threaded (tests/test_benchmark_hooks.py checks it)
    with ThreadPoolExecutor(max_workers=1) as pool:
        # leaving the executor waits for the helper's thread in any case,
        # so the runner waits for its blocks too
        run_blocks(lambda blocks: _apply_blocks(S, v, out, blocks, height), count, pool)
    return out


def sketch_and_solve_ls(S, M, rhs, counters=None):
    """Solve min_y ||S (M y - rhs)|| as a cheap proxy for min_y ||M y - rhs||.

    The k columns of M and the right-hand side are sketched together, in
    one pass over S, which costs k + 1 sketch applications.  Requires
    ``S.out_rows >= k`` so the compressed problem is still overdetermined
    (or square).
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
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (S.in_rows,):
        raise ValueError(
            f"rhs must be a vector of length {S.in_rows}, got shape {rhs.shape}"
        )
    SMr = sketch_apply(S, np.column_stack([M, rhs]), counters)
    return dense_qr_ls(SMr[:, :-1], SMr[:, -1])


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
