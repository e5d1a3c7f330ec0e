"""Gaussian sketching operators and the sketch-and-solve least-squares primitive.

Reproducibility contract: a sketch is fully determined by
``(out_rows, in_rows, seed)``.  Row block r, rows [32 r, 32 r + 32) (the
last may be shorter), is drawn from
``Generator(PCG64(SeedSequence(seed, spawn_key=(r,))))`` panel by panel:
panel c is columns [1024 c, 1024 c + 1024) (the last may be narrower).
A panel of ``size`` entries takes p = ceil(size / 2) Box-Muller pairs from
one ``random`` call of 2 p uniforms, u_1 the first p and u_2 the next p:
the radius rho = sqrt(-2 log(1 - u_1) / out_rows) in float64, the angle
2 pi u_2 cast to float32, and the panel, row-major, is the p values of
rho cos(angle) followed by the p of rho sin(angle), cos and sin taken in
float32 and the products in float64 (an odd panel drops the last).  The
entries are i.i.d. N(0, 1/out_rows) to within about 1e-7 relative, the
same bits whichever thread draws them, on a given machine and numpy
build: numpy's SIMD dispatch for float32 sin and cos and float64 log
decides their last bits, as BLAS does the products'.  A problem's noise
is drawn from ``default_rng(seed)``, the root stream (spawn key ``()``),
which no block repeats.

Making a sketch draws nothing.  :func:`sketch_apply` draws the blocks
again from the seed, on the caller and the process's one helper thread
(:func:`hessketch.linops.run_blocks`, which waits for a block the helper
has started): each thread draws a block one 32 x 1,024 tile (256 KiB) at
a time into its own buffer, which also holds the draw's 128 KiB of
scratch, and sums the tiles' products with their panels of the input
into the block's rows of the result.  A sketch of at most 2**19 entries,
or of one block, is drawn inline.  An apply to b columns holds
O(tile + out_rows * b) memory, never the matrix; reading ``entries``
draws the whole matrix for the reader and keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linops import _is_integer, _real, dense_qr_ls, run_blocks

__all__ = [
    "SketchOperator",
    "make_gaussian_sketch",
    "sketch_apply",
    "sketch_and_solve_ls",
    "measured_epsilon",
    "derive_seed",
]

# the rows of a block and the columns of a panel; each block is drawn from
# its own stream, panel by panel (part of the reproducibility contract:
# changing either changes every sketch)
_BLOCK_ROWS = 32
_PANEL_COLS = 1024
# a thread's buffer: one tile, then the draw's scratch of half as many
# float64 slots, viewed as two float32 arrays of one panel's pairs each
_TILE = _BLOCK_ROWS * _PANEL_COLS
_PAIRS = _TILE // 2

_INLINE_ENTRIES = 1 << 19  # a sketch of at most this many entries is applied inline


@dataclass
class SketchOperator:
    """A Gaussian embedding of R^in_rows into R^out_rows, as a descriptor
    of its seeded draw: the three fields determine every entry, so
    sketches compare by value.  :func:`sketch_apply` draws its 32-row
    blocks tile by tile from their own streams of the seed; nothing is held.
    """

    out_rows: int
    in_rows: int
    seed: int

    def __post_init__(self):
        for name, value in (("out_rows", self.out_rows), ("in_rows", self.in_rows)):
            _check_integer(name, value, 1, "positive")
        _check_integer("seed", self.seed, 0, "nonnegative")
        self.out_rows, self.in_rows, self.seed = int(self.out_rows), int(self.in_rows), int(self.seed)

    @property
    def shape(self):
        return (self.out_rows, self.in_rows)

    @property
    def entries(self):
        """The full matrix, drawn from the seed on each read and kept by
        no one but the reader: a test and inspection helper."""
        entries = np.empty(self.shape)
        tile = np.empty(_TILE + _PAIRS)
        for r in range(-(-self.out_rows // _BLOCK_ROWS)):
            for rows, cols, panel in _block_tiles(self, r, tile):
                entries[rows, cols] = panel
        return entries


def _check_integer(name, value, least, word):
    if not _is_integer(value):
        raise ValueError(f"sketch {name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"sketch {name} must be {word}, got {value}")


def _block_tiles(S, r, tile):
    """Block r of S, as ``(rows, cols, panel)`` tiles drawn in panel order
    from the block's own stream into the head of ``tile``, a flat buffer
    of 32 * 1,024 + 16,384 whose tail is the draw's scratch; each
    ``panel`` is valid until the next is drawn.

    Each panel is drawn by Box-Muller (see the module docstring) in place:
    no ufunc mixes dtypes, which would allocate a cast buffer, so every
    cast is an ``np.copyto`` into slots whose values are dead.
    """
    rows = slice(r * _BLOCK_ROWS, min((r + 1) * _BLOCK_ROWS, S.out_rows))
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(S.seed, spawn_key=(r,))))
    scratch = tile[_TILE:]
    first, second = scratch.view(np.float32).reshape(2, _PAIRS)
    for start in range(0, S.in_rows, _PANEL_COLS):
        cols = slice(start, min(start + _PANEL_COLS, S.in_rows))
        size = (rows.stop - rows.start) * (cols.stop - start)
        p = -(-size // 2)
        gen.random(out=tile[: 2 * p])
        rho, angle = tile[:p], tile[p : 2 * p]
        angle *= 2.0 * np.pi
        np.copyto(second[:p], angle)
        # 1 - u is never 0, and as small as 2**-53: tails to 8.6 sigma
        np.subtract(1.0, rho, out=rho)
        np.log(rho, out=rho)
        rho *= -2.0 / S.out_rows
        np.sqrt(rho, out=rho)
        np.sin(second[:p], out=first[:p])
        np.cos(second[:p], out=second[:p])
        np.copyto(angle, first[:p])
        angle *= rho
        # the cosines, half a panel at a time, through the dead sines' slots
        for half in (slice(0, p // 2), slice(p // 2, p)):
            cos = scratch[: half.stop - half.start]
            np.copyto(cos, second[half])
            rho[half] *= cos
        yield rows, cols, tile[:size].reshape(-1, cols.stop - start)


def _apply_blocks(S, v, out, blocks):
    """Sum each block's tile products with ``v`` into its rows of ``out``,
    in panel order, for the blocks that ``blocks`` hands this thread."""
    tile, product = np.empty(_TILE + _PAIRS), np.empty((_BLOCK_ROWS, *v.shape[1:]))
    # np.matmul multiplies a row slice of an F-order block in place, where
    # np.dot copies it; np.dot releases the GIL for a vector's short output
    multiply = np.dot if v.ndim == 1 else np.matmul
    for r in blocks:
        for rows, cols, panel in _block_tiles(S, r, tile):
            part = product[: len(panel)] if cols.start else out[rows]
            multiply(panel, v[cols], out=part)
            if cols.start:
                out[rows] += part


def make_gaussian_sketch(out_rows, in_rows, seed):
    """A Gaussian sketch with i.i.d. N(0, 1/out_rows) entries, as a
    descriptor: nothing is drawn until it is applied or its entries read,
    and then in 32-row blocks, each from its own ``SeedSequence`` spawn
    of the seed, in 1,024-column panels of Box-Muller pairs, float64
    radii times float32 cosines and sines (see the module docstring).

    The scaling makes the map an isometry in expectation:
    ``E[||S v||^2] = ||v||^2`` for any fixed v.  The sizes must be
    positive integers and the seed a nonnegative one, bools excluded.
    """
    return SketchOperator(out_rows, in_rows, seed)


def sketch_apply(S, v, counters=None):
    """Apply the sketch to a vector, or to each column of an (in_rows, b)
    block at once.

    A block is one pass over the blocks drawn from the seed, and charges
    b sketch applications; a vector charges one.  A complex v is refused.
    """
    v = _real("v", v)
    if v.ndim not in (1, 2) or v.shape[0] != S.in_rows:
        raise ValueError(
            f"sketch expects a vector of length {S.in_rows} or a block of "
            f"columns of that length, got shape {v.shape}"
        )
    if counters is not None:
        counters.sketch_apply_count += 1 if v.ndim == 1 else v.shape[1]
    out = np.empty((S.out_rows, *v.shape[1:]))
    count = -(-S.out_rows // _BLOCK_ROWS)
    if S.out_rows * S.in_rows <= _INLINE_ENTRIES or count == 1:
        _apply_blocks(S, v, out, range(count))
        return out
    # the helper calls _apply_blocks alone (the draw's ufuncs and the
    # products), none of the functions that perfbench wraps in spans:
    # its Tracer is single-threaded (tests/test_benchmark_hooks.py checks it)
    run_blocks(lambda blocks: _apply_blocks(S, v, out, blocks), count)
    return out


def sketch_and_solve_ls(S, M, rhs, counters=None):
    """Solve min_y ||S (M y - rhs)|| as a cheap proxy for min_y ||M y - rhs||.

    The k columns of M and the right-hand side are sketched together, in
    one pass over S, which costs k + 1 sketch applications.  Requires
    ``S.out_rows >= k`` so the compressed problem is still overdetermined
    (or square).
    """
    M = _real("M", M)
    if M.ndim != 2 or M.shape[0] != S.in_rows:
        raise ValueError(
            f"M must have {S.in_rows} rows to be sketched, got shape {M.shape}"
        )
    if S.out_rows < M.shape[1]:
        raise ValueError(
            f"sketch with {S.out_rows} rows cannot preserve a "
            f"{M.shape[1]}-dimensional least-squares problem"
        )
    rhs = _real("rhs", rhs)
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
    basis = _real("basis", basis)
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
