"""Gaussian sketching operators and the sketch-and-solve least-squares primitive.

Reproducibility contract: a sketch is fully determined by
``(out_rows, in_rows, seed)``.  Row block r, rows [32 r, 32 r + 32) (the
last may be shorter), is drawn from
``Generator(PCG64(SeedSequence(seed, spawn_key=(r,))))`` panel by panel:
panel c is columns [1024 c, 1024 c + 1024) (the last may be narrower),
and tile (r, c) is block r's rows of panel c.  A tile of ``size`` entries
takes p = ceil(size / 2) Box-Muller pairs from one
``random(dtype=np.float32)`` call of 2 p uniforms, u_1 the first p and
u_2 the next p: the radius rho = sqrt(-2 log(1 - u_1) / out_rows) and the
angle 2 pi u_2, and the tile, row-major, is the p values of
rho cos(angle) followed by the p of rho sin(angle) (an odd tile drops the
last).  Every step is float32: 1 - u_1 reaches 2**-24, so the tails reach
5.8 sigma.  The entries are i.i.d. N(0, 1/out_rows) to within float32's
rounding, about 1e-7 relative, which moves a distortion of about 0.3 by
O(1e-7).  They are the same bits whichever thread draws them, on a given
machine and numpy build: numpy's SIMD dispatch for float32 log, sqrt,
sin and cos decides their last bits, as BLAS does the products'.  A
problem's noise is drawn from ``default_rng(seed)``, the root stream
(spawn key ``()``), which no block repeats.

Making a sketch draws nothing.  :func:`sketch_apply` draws the tiles
again from the seed, panel by panel.  The caller casts the input's rows
of each panel to float32 once, into one buffer that both threads read,
as groups of 16 columns, the last zero-padded, each group held as its
rows.  The caller and the process's one helper thread
(:func:`hessketch.linops.run_blocks`, one call per panel, which waits for
a tile the helper has started) then share that panel's blocks: each
thread draws a block's next tile from the block's generator into its own
float32 buffer (a 128 KiB tile and 64 KiB of sines), multiplies each
group with it in float32, one 16 x 32 product per group, and writes
the products into the block's rows of the float64 result at panel 0, or
adds them there after.  Each block's panels are drawn and summed in
panel order, so the bits do not depend on which thread took which tile;
and every product has the same shape whatever the input's width, so BLAS
sums each column's in the same order, and a column's result does not
depend on the columns applied with it: a block apply is its columns'
applies, bit for bit, and so is any leading part of it.  A sketch of at
most 2**19 entries, or of one block, runs the same loop inline.  An
apply to b columns holds O(tile + 1,024 b + out_rows b) memory, never
the matrix; reading ``entries`` draws the whole matrix for the reader
and keeps nothing.

float32 holds magnitudes from 2**-126 to 2**128, float64 from 2**-1022
to 2**1024.  A column whose largest |entry| lies outside [2**-64, 2**64]
is cast multiplied by the power of two that brings that entry into
[1/2, 1), and its result is multiplied back: both steps are exact, so
such a column's result is the scaled column's times the power of two,
bit for bit, and every other column keeps its bits.

The float32 products do not weaken what a solve certifies: the computed
S U is S' U for S' = S + E U^+, E the product's rounding, so the
distortion read off the triangle of that product is the distortion of
S', the sketch the solve actually embeds with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .linops import _check_int, _real, dense_qr_ls, run_blocks

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
# a thread's float32 buffer: one tile, then the sines of its pairs
_TILE = _BLOCK_ROWS * _PANEL_COLS
_PAIRS = _TILE // 2
# the columns of one float32 product: every product of a tile has this
# width, the last group of columns zero-padded, so BLAS sums each column's
# product in the same order whatever the width of the input
_GROUP_COLS = 16
# a column whose largest |entry| lies outside [2**-64, 2**64] is cast to
# float32 (normal from 2**-126 to 2**128) scaled by a power of two
_CAST_RANGE = 64

_INLINE_ENTRIES = 1 << 19  # a sketch of at most this many entries is applied inline


@dataclass
class SketchOperator:
    """A Gaussian embedding of R^in_rows into R^out_rows, as a descriptor
    of its seeded draw: the three fields determine every entry, so
    sketches compare by value.  The entries are float32 Box-Muller draws,
    each 32-row block from its own stream of the seed, one 32 x 1,024
    tile at a time (see the module docstring).  :func:`sketch_apply` draws
    them again on every apply, panel by panel, and multiplies them in
    float32; nothing is held.
    """

    out_rows: int
    in_rows: int
    seed: int

    def __post_init__(self):
        self.out_rows = int(_check_int("sketch out_rows", self.out_rows, 1))
        self.in_rows = int(_check_int("sketch in_rows", self.in_rows, 1))
        self.seed = int(_check_int("sketch seed", self.seed, 0))

    @property
    def shape(self):
        return (self.out_rows, self.in_rows)

    @property
    def entries(self):
        """The full matrix, the float32 draws widened exactly to float64,
        drawn from the seed on each read and kept by no one but the
        reader: a test and inspection helper."""
        entries = np.empty(self.shape)
        gens, buffer = _block_streams(self), np.empty(_TILE + _PAIRS, np.float32)
        for c in range(-(-self.in_rows // _PANEL_COLS)):
            for r in range(len(gens)):
                rows, cols, tile = _draw_tile(self, gens, r, c, buffer)
                entries[rows, cols] = tile
        return entries


def _block_streams(S):
    """Each row block's generator, block r's from spawn key (r,) of the
    seed, made afresh for one pass over S."""
    return [np.random.Generator(np.random.PCG64(np.random.SeedSequence(S.seed, spawn_key=(r,))))
            for r in range(-(-S.out_rows // _BLOCK_ROWS))]


def _draw_tile(S, gens, r, c, buffer):
    """Tile (r, c) of S, block r's panel c, as ``(rows, cols, tile)``:
    ``tile`` is a float32 view of the head of ``buffer``, a flat float32
    buffer of 32 * 1,024 + 16,384 whose tail holds the draw's sines, and
    is valid until the next draw into it.

    ``gens[r]`` is block r's generator (:func:`_block_streams`), which
    each panel draws on from, so a block's panels are drawn in panel
    order, by whichever thread.  The tile is drawn by Box-Muller (see the
    module docstring), in place and in float32.
    """
    rows = slice(r * _BLOCK_ROWS, min((r + 1) * _BLOCK_ROWS, S.out_rows))
    cols = slice(c * _PANEL_COLS, min((c + 1) * _PANEL_COLS, S.in_rows))
    size = (rows.stop - rows.start) * (cols.stop - cols.start)
    p = -(-size // 2)
    gens[r].random(dtype=np.float32, out=buffer[: 2 * p])
    rho, angle, sines = buffer[:p], buffer[p : 2 * p], buffer[_TILE : _TILE + p]
    angle *= 2.0 * np.pi
    np.sin(angle, out=sines)
    np.cos(angle, out=angle)
    # 1 - u is never 0, and as small as 2**-24: tails to 5.8 sigma
    np.subtract(1.0, rho, out=rho)
    np.log(rho, out=rho)
    rho *= -2.0 / S.out_rows
    np.sqrt(rho, out=rho)
    sines *= rho
    rho *= angle
    angle[...] = sines
    return rows, cols, buffer[:size].reshape(-1, cols.stop - cols.start)


def _apply_tiles(S, gens, c, panel, out, blocks):
    """Multiply panel c of each block that ``blocks`` hands this thread
    with ``panel``, the input's rows of that panel cast to float32 and
    held as groups of 16 columns, one float32 product per group, and
    write the block's products into its rows of ``out`` at panel 0, or
    add them there after."""
    buffer = np.empty(_TILE + _PAIRS, np.float32)
    product = np.empty(panel.shape[0] * _GROUP_COLS * _BLOCK_ROWS, np.float32)
    for r in blocks:
        rows, _, tile = _draw_tile(S, gens, r, c, buffer)
        # part[g] is group g's product, transposed
        part = product[: product.size // _BLOCK_ROWS * len(tile)].reshape(*panel.shape[:2], len(tile))
        for group, into in zip(panel, part):
            # np.dot releases the GIL at every size; np.matmul keeps it
            # for an output of under 500 entries
            np.dot(group, tile.T, out=into)
        part = part.reshape(-1, len(tile))[: out.shape[1]].T
        if c:
            out[rows] += part
        else:
            out[rows] = part


def make_gaussian_sketch(out_rows, in_rows, seed):
    """A Gaussian sketch with i.i.d. N(0, 1/out_rows) entries, as a
    descriptor: nothing is drawn until it is applied or its entries read,
    and then in 32-row blocks, each from its own ``SeedSequence`` spawn
    of the seed, in 1,024-column panels of float32 Box-Muller pairs (see
    the module docstring).

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
    The products are float32, 16 columns at a time, summed into a
    float64 result; each column's result is the same bits whichever
    columns come with it, and a column outside float32's range is scaled
    into it by a power of two (see the module docstring).
    """
    v = _real("v", v)
    if v.ndim not in (1, 2) or v.shape[0] != S.in_rows:
        raise ValueError(
            f"sketch expects a vector of length {S.in_rows} or a block of "
            f"columns of that length, got shape {v.shape}"
        )
    if counters is not None:
        counters.sketch_apply_count += 1 if v.ndim == 1 else v.shape[1]
    cols = v.reshape(S.in_rows, -1)
    width = cols.shape[1]
    out = np.empty((S.out_rows, width))
    # a power of two scales a column into float32's range, and back, exactly
    top = np.maximum(cols.max(axis=0), -cols.min(axis=0))
    shift = -np.frexp(top)[1] * ((top > 2.0**_CAST_RANGE) | ((top < 2.0**-_CAST_RANGE) & (top > 0)))
    scaled = shift.any()
    gens = _block_streams(S)
    inline = S.out_rows * S.in_rows <= _INLINE_ENTRIES or len(gens) == 1
    # the one float32 cast of each panel of v, which both threads read:
    # column j of v is row j % 16 of group j // 16, the padding rows zero
    groups = -(-width // _GROUP_COLS)
    cast = np.zeros(groups * _GROUP_COLS * min(_PANEL_COLS, S.in_rows), np.float32)
    for c, start in enumerate(range(0, S.in_rows, _PANEL_COLS)):
        rows = min(_PANEL_COLS, S.in_rows - start)
        panel = cast[: groups * _GROUP_COLS * rows].reshape(groups, _GROUP_COLS, rows)
        flat = panel.reshape(-1, rows)
        flat[width:] = 0.0
        if scaled:
            np.ldexp(cols[start : start + rows].T, shift[:, None], out=flat[:width])
        else:
            flat[:width] = cols[start : start + rows].T
        work = partial(_apply_tiles, S, gens, c, panel, out)
        if inline:
            work(range(len(gens)))
        else:
            # the helper calls _apply_tiles alone (the draw's ufuncs and
            # the products), none of the functions that perfbench wraps in
            # spans: its Tracer is single-threaded
            # (tests/test_benchmark_hooks.py checks it)
            run_blocks(work, len(gens))
    if scaled:
        np.ldexp(out, -shift, out=out)
    return out if v.ndim == 2 else out[:, 0]


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
    seed, stream = int(_check_int("seed", seed, 0)), int(_check_int("stream", stream, 0))
    ss = np.random.SeedSequence(seed, spawn_key=(stream,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
