"""Reproducible synthetic inverse problems: deblurring, tomography, noise, images.

Two problem families are provided, both returning a :class:`Problem` bundle
(operator, noisy observation, ground truth):

* :func:`make_deblur` builds a square operator that blurs a ``size`` by
  ``size`` image with a point spread function under zero boundary
  conditions.  The forward map is 2-D convolution, the transpose is 2-D
  correlation; with an odd-sized kernel the two are exact adjoints.  Both
  are direct sums with zero fill (``scipy.ndimage.convolve`` and
  ``correlate`` with ``mode="constant"``), not FFTs.
* :func:`make_tomography` builds a rectangular parallel-beam transform.
  Rays are traced through the pixel grid and each matrix entry is the
  exact intersection length of a ray with a pixel, written straight into
  CSR and canonicalized by ``sum_duplicates`` (a peak of about 2.1 times the
  matrix), bit-identical to tracing one ray at a time.

Ray geometry (documented so tests can rebuild the matrix independently):
the image occupies the box [0, grid] x [0, grid] with pixel (row j, col i)
covering x in [i, i+1), y in [j, j+1) and flat index ``j * grid + i``.
For angle index a of ``n_angles`` the angle is ``theta = pi * a / n_angles``;
ray direction is ``(cos theta, sin theta)`` and detector offsets are
``s = j + 0.5 - grid / 2`` for detector j, applied along the normal
``(-sin theta, cos theta)`` from the grid centre.  At ``theta = 0`` detector
j therefore runs along image row j.

Noise is injected at an *exact* relative level: the Gaussian perturbation is
rescaled so that ``norm(e) / norm(b_clean)`` equals the requested level to
machine precision.

An image is its 2-D pixel array, row 0 at the top; a solution vector is
one after ``reshape(problem.image_shape)``.  Images are written as 16-bit
binary PGM (P5, big-endian samples), which keeps the quantized values
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.ndimage
import scipy.sparse

from .linops import LinearOperator, _check_int, _check_real

__all__ = [
    "Problem",
    "gaussian_psf",
    "motion_psf",
    "deblur_phantom",
    "tomography_phantom",
    "make_deblur",
    "make_tomography",
    "add_noise",
    "write_image",
]


@dataclass
class Problem:
    """An inverse problem instance ``b = A x_true + e``.

    Parameters
    ----------
    operator : LinearOperator
        The forward map A.
    b : ndarray
        Noisy observation, length ``operator.rows``.
    x_true : ndarray or None
        Ground truth, length ``operator.cols``, when known.
    noise_level : float
        Relative noise level ``norm(e) / norm(A x_true)`` (exact).
    seed : int
        Seed used for the noise draw.
    image_shape : tuple or None
        (height, width) when ``x_true`` is a flattened image, so that
        reconstructions can be written back out as images.
    """

    operator: LinearOperator
    b: np.ndarray
    x_true: Optional[np.ndarray] = None
    noise_level: float = 0.0
    seed: int = 0
    image_shape: Optional[tuple] = None

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        if self.b.ndim != 1 or self.b.size != self.operator.rows:
            raise ValueError("observation length must match operator rows")
        if self.x_true is not None:
            self.x_true = np.asarray(self.x_true, dtype=float)
            if self.x_true.ndim != 1 or self.x_true.size != self.operator.cols:
                raise ValueError("ground truth length must match operator cols")
        _check_real("noise level", self.noise_level, 0)


# ---------------------------------------------------------------------------
# point spread functions

# samples per pixel of length along a motion blur's segment
_MOTION_OVERSAMPLE = 64


def _check_fits(side, image_size):
    # the side grows with sigma or length, so a kernel that cannot fit is
    # rejected before it is allocated
    if image_size is not None and side >= image_size:
        raise ValueError("psf support must be smaller than the image")


def gaussian_psf(sigma, *, image_size=None):
    """Normalized 2-D Gaussian kernel with odd side length.

    ``sigma = 0`` degenerates to the 1x1 delta kernel (identity blur); the
    radius is ``ceil(3 * sigma)``, at least 1.  Given an ``image_size``, a
    kernel whose side is not smaller than it is refused before any array
    is built, as :func:`make_deblur` would refuse it.
    """
    if _check_real("sigma", sigma, 0) == 0:
        return np.ones((1, 1))
    radius = max(1, math.ceil(3.0 * sigma))
    _check_fits(2 * radius + 1, image_size)
    d = np.arange(-radius, radius + 1, dtype=float)
    g = np.exp(-(d**2) / (2.0 * sigma**2))
    kernel = np.outer(g, g)
    return kernel / kernel.sum()


def motion_psf(length, angle_deg, *, image_size=None):
    """Unit-mass line-segment kernel modelling linear motion blur.

    The segment has the given length in pixels, centred in the kernel, at
    ``angle_deg`` degrees from the horizontal axis.  ``_MOTION_OVERSAMPLE``
    sample points per pixel of length are deposited with bilinear weights,
    so non-axis-aligned angles produce a smoothly rasterized line.  The
    kernel side length is odd.
    ``image_size`` refuses a kernel that cannot fit, as for
    :func:`gaussian_psf`.
    """
    _check_real("length", length, 1)
    _check_real("angle_deg", angle_deg)
    half = math.ceil((length - 1.0) / 2.0)
    side = 2 * half + 1
    _check_fits(side, image_size)
    kernel = np.zeros((side, side))
    theta = math.radians(angle_deg)
    dc, dr = math.cos(theta), math.sin(theta)
    # snap axis-aligned directions so 90-degree blur is exactly vertical
    dc = 0.0 if abs(dc) < 1e-12 else dc
    dr = 0.0 if abs(dr) < 1e-12 else dr
    n_samples = max(2, int(round(length * _MOTION_OVERSAMPLE)) + 1)
    t = np.linspace(-(length - 1.0) / 2.0, (length - 1.0) / 2.0, n_samples)
    pr, pc = half + t * dr, half + t * dc
    r0, c0 = np.floor(pr).astype(int), np.floor(pc).astype(int)
    fr, fc = pr - r0, pc - c0
    # one row per sample, one column per corner of its pixel square
    rows = r0[:, None] + [0, 0, 1, 1]
    cols = c0[:, None] + [0, 1, 0, 1]
    weights = np.column_stack(
        [(1 - fr) * (1 - fc), (1 - fr) * fc, fr * (1 - fc), fr * fc]
    )
    keep = (rows >= 0) & (rows < side) & (cols >= 0) & (cols < side) & (weights > 0)
    # added in the order of the samples, then the corners: each pixel's
    # sum is rounded as a loop over the samples would round it
    np.add.at(kernel, (rows[keep], cols[keep]), weights[keep])
    return kernel / kernel.sum()


# ---------------------------------------------------------------------------
# phantoms


def deblur_phantom(size):
    """Deterministic test image with smooth regions and sharp edges.

    On a horizontal gradient background (0.10 to 0.35) sit a bright
    rectangle (0.85, rows [0.15, 0.45), cols [0.20, 0.55) in fractions of
    the side), a disc (0.70, centre (0.62, 0.40), radius 0.18), a dark disc
    (0.05, centre (0.30, 0.70), radius 0.08) and a thin bright vertical bar
    (0.95, col 0.78, rows [0.55, 0.90)).
    """
    s = size
    rows, cols = np.mgrid[0:s, 0:s].astype(float)
    img = 0.10 + 0.25 * cols / max(s - 1, 1)
    img[int(0.15 * s) : int(0.45 * s), int(0.20 * s) : int(0.55 * s)] = 0.85
    img[(rows - 0.62 * s) ** 2 + (cols - 0.40 * s) ** 2 <= (0.18 * s) ** 2] = 0.70
    img[(rows - 0.30 * s) ** 2 + (cols - 0.70 * s) ** 2 <= (0.08 * s) ** 2] = 0.05
    bar = max(1, s // 32)
    img[int(0.55 * s) : int(0.90 * s), int(0.78 * s) : int(0.78 * s) + bar] = 0.95
    return img


def tomography_phantom(grid):
    """Deterministic multi-disc absorption phantom, piecewise constant.

    Zero background with a large disc of absorption 0.55 (centre (0.50,
    0.50), radius 0.38 in fractions of the side), a dense disc of 1.0
    (centre (0.40, 0.42), radius 0.13), a lighter disc of 0.30 (centre
    (0.63, 0.58), radius 0.10) and a void of 0.0 (centre (0.52, 0.33),
    radius 0.05), applied in that order.
    """
    g = grid
    rows, cols = np.mgrid[0:g, 0:g] + 0.5
    img = np.zeros((g, g))
    discs = [
        (0.50, 0.50, 0.38, 0.55),
        (0.40, 0.42, 0.13, 1.00),
        (0.63, 0.58, 0.10, 0.30),
        (0.52, 0.33, 0.05, 0.00),
    ]
    for cr, cc, radius, value in discs:
        mask = (rows - cr * g) ** 2 + (cols - cc * g) ** 2 <= (radius * g) ** 2
        img[mask] = value
    return img


# ---------------------------------------------------------------------------
# problem builders


def make_deblur(size, psf, noise_level=0.0, seed=0):
    """Zero-boundary 2-D deblurring problem on the bundled phantom.

    ``psf`` is a 2-D kernel with odd side lengths strictly smaller than the
    image (see :func:`gaussian_psf` / :func:`motion_psf`).  The operator
    applies the blur matrix free; its transpose is correlation with the same
    kernel, which is the exact adjoint under zero boundary conditions.
    """
    _check_int("size", size, 8)
    kernel = np.asarray(psf, dtype=float)
    if kernel.ndim != 2 or kernel.shape[0] % 2 == 0 or kernel.shape[1] % 2 == 0:
        raise ValueError("psf must be a 2-D kernel with odd side lengths")
    if kernel.shape[0] >= size or kernel.shape[1] >= size:
        raise ValueError("psf support must be smaller than the image")
    n = size * size

    def forward(v):
        img = np.asarray(v, dtype=float).reshape(size, size)
        return scipy.ndimage.convolve(img, kernel, mode="constant").ravel()

    def transpose(u):
        img = np.asarray(u, dtype=float).reshape(size, size)
        return scipy.ndimage.correlate(img, kernel, mode="constant").ravel()

    operator = LinearOperator(rows=n, cols=n, forward=forward, transpose=transpose)
    x_true = deblur_phantom(size).ravel()
    b_clean = forward(x_true)
    b, _ = add_noise(b_clean, noise_level, seed)
    return Problem(operator, b, x_true, noise_level, seed, (size, size))


def tomography_matrix(grid, n_angles):
    """Assemble the parallel-beam system matrix as sparse CSR.

    Row ``a * grid + j`` holds the chord lengths of detector j at angle
    index a, following the geometry documented in the module docstring.
    The rays of one angle are traced together: each ray's crossings with
    the box and the grid lines are padded with inf, sorted, and cut into
    segments; a segment is credited to the pixel holding its midpoint.
    Segments that are not finite, belong to a ray missing the box, or are
    slivers of at most 1e-12 from corner-grazing arithmetic are dropped.
    Each angle's ray counts, int32 indices and lengths go straight into CSR,
    canonicalized by ``sum_duplicates``; the peak is about 2.1x the matrix.
    """
    offsets = np.arange(grid) + 0.5 - grid / 2.0
    planes = np.arange(1.0, grid)
    counts, cols, vals = [[0]], [], []  # indptr is the cumsum of counts
    # inf - inf between padding entries is expected and dropped below
    with np.errstate(invalid="ignore"):
        for a in range(n_angles):
            theta = math.pi * a / n_angles
            direction = (math.cos(theta), math.sin(theta))
            normal = (-math.sin(theta), math.cos(theta))
            origins = [grid / 2.0 + offsets * nk for nk in normal]
            t0, t1 = np.full(grid, -np.inf), np.full(grid, np.inf)
            alphas = np.full((grid, 2 * grid), np.inf)  # entry, exit, crossings
            for o, d, block in zip(origins, direction, np.hsplit(alphas[:, 2:], 2)):
                if abs(d) < 1e-12:
                    t1[(o <= 0.0) | (o >= grid)] = -np.inf
                else:
                    ta, tb = (0.0 - o) / d, (grid - o) / d
                    t0 = np.maximum(t0, np.minimum(ta, tb))
                    t1 = np.minimum(t1, np.maximum(ta, tb))
                    block[:] = (planes - o[:, None]) / d
            lo, hi = t0[:, None], t1[:, None]
            alphas[:, :2], lines = np.hstack([lo, hi]), alphas[:, 2:]
            np.copyto(lines, np.inf, where=~((lines > lo) & (lines < hi)))
            alphas.sort(axis=1)
            lengths = np.diff(alphas, axis=1)
            keep = np.isfinite(lengths) & (lengths > 1e-12) & (t1 > t0)[:, None]
            counts.append(np.count_nonzero(keep, axis=1))
            ray = np.repeat(np.arange(grid), counts[-1])
            mids = 0.5 * (alphas[:, :-1][keep] + alphas[:, 1:][keep])
            ci, rj = (
                np.clip(np.floor(o[ray] + mids * d).astype(np.int32), 0, grid - 1)
                for o, d in zip(origins, direction)
            )
            cols.append(rj * grid + ci)
            vals.append(lengths[keep])
    K = scipy.sparse.csr_matrix(
        (np.concatenate(vals), np.concatenate(cols), np.cumsum(np.concatenate(counts))),
        shape=(n_angles * grid, grid * grid),
    )
    K.sum_duplicates()
    return K


def make_tomography(grid, n_angles, noise_level=0.0, seed=0):
    """Parallel-beam tomography of the bundled absorption phantom.

    The operator has ``n_angles * grid`` rays (rows) and ``grid ** 2``
    pixels (columns); it is assembled once as a sparse matrix of exact
    ray-pixel intersection lengths.
    """
    _check_int("grid", grid, 8)
    _check_int("n_angles", n_angles, 2)
    K = tomography_matrix(grid, n_angles)
    operator = LinearOperator.from_matrix(K)
    x_true = tomography_phantom(grid).ravel()
    b_clean = K @ x_true
    b, _ = add_noise(b_clean, noise_level, seed)
    return Problem(operator, b, x_true, noise_level, seed, (grid, grid))


def add_noise(b_clean, level, seed):
    """Perturb a vector with Gaussian noise at an exact relative level.

    The Gaussian draw is normalized so ``norm(e) = level * norm(b_clean)``
    holds to machine precision, not merely in expectation.  Returns
    ``(b_clean + e, e)``.
    """
    b_clean = np.asarray(b_clean, dtype=float)
    if _check_real("noise level", level, 0) == 0:
        return b_clean.copy(), np.zeros_like(b_clean)
    scale = np.linalg.norm(b_clean)
    if scale == 0:
        raise ValueError("relative noise level undefined for a zero vector")
    g = np.random.default_rng(seed).standard_normal(b_clean.size)
    e = (level * scale / np.linalg.norm(g)) * g
    return b_clean + e, e


# ---------------------------------------------------------------------------
# image output (binary PGM, 16-bit)


def write_image(pixels, path):
    """Write a 2-D pixel array as binary PGM with 16-bit big-endian samples.

    Row 0 is the top of the image.  Values are clamped to [0, 1] and
    quantized to 0..65535, so a sample divided by 65535 gives back a
    quantized value exactly.  An array that is not 2-D, is empty or holds
    NaN or inf is refused before the file is opened.
    """
    pixels = np.asarray(pixels, dtype=float)
    if pixels.ndim != 2:
        raise ValueError(f"image must be a 2-D array, got shape {pixels.shape}")
    if pixels.size == 0:
        raise ValueError(f"image must not be empty, got shape {pixels.shape}")
    if not np.all(np.isfinite(pixels)):
        raise ValueError("pixel values must be finite")
    height, width = pixels.shape
    quant = np.round(np.clip(pixels, 0.0, 1.0) * 65535.0).astype(">u2")
    header = f"P5\n{width} {height}\n65535\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(quant.tobytes())
