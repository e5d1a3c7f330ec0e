import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from hessketch import problems
from hessketch.problems import (
    Problem,
    add_noise,
    deblur_phantom,
    gaussian_psf,
    make_deblur,
    make_tomography,
    motion_psf,
    tomography_matrix,
    tomography_phantom,
    write_image,
)
from hessketch.solvers import SolverConfig, lsqr


def dense_convolution_matrix(kernel, size):
    # index-relation assembly, independent of the scipy convolution path
    kr, kc = kernel.shape
    qr, qc = kr // 2, kc // 2
    n = size * size
    C = np.zeros((n, n))
    for r in range(size):
        for c in range(size):
            for i in range(size):
                for j in range(size):
                    a, b = r - i + qr, c - j + qc
                    if 0 <= a < kr and 0 <= b < kc:
                        C[r * size + c, i * size + j] = kernel[a, b]
    return C


def box_clip_chord(origin, direction, x0, x1, y0, y1):
    # Liang-Barsky interval clipping of a full line against one pixel box
    t0, t1 = -1e30, 1e30
    for o, d, lo, hi in (
        (origin[0], direction[0], x0, x1),
        (origin[1], direction[1], y0, y1),
    ):
        if abs(d) < 1e-12:
            if not lo < o < hi:
                return 0.0
        else:
            ta, tb = (lo - o) / d, (hi - o) / d
            if ta > tb:
                ta, tb = tb, ta
            t0, t1 = max(t0, ta), min(t1, tb)
    return max(0.0, t1 - t0)


def dense_tomography_matrix(grid, n_angles):
    centre = np.array([grid / 2.0, grid / 2.0])
    K = np.zeros((n_angles * grid, grid * grid))
    for a in range(n_angles):
        theta = math.pi * a / n_angles
        d = np.array([math.cos(theta), math.sin(theta)])
        nrm = np.array([-math.sin(theta), math.cos(theta)])
        for j in range(grid):
            o = centre + (j + 0.5 - grid / 2.0) * nrm
            for row in range(grid):
                for col in range(grid):
                    K[a * grid + j, row * grid + col] = box_clip_chord(
                        o, d, col, col + 1, row, row + 1
                    )
    return K


def trace_ray(origin, direction, grid):
    # one ray at a time: the scalar tracer that tomography_matrix vectorizes
    t0, t1 = -np.inf, np.inf
    for axis in range(2):
        o, d = origin[axis], direction[axis]
        if abs(d) < 1e-12:
            if o <= 0.0 or o >= grid:
                return np.empty(0, dtype=int), np.empty(0)
        else:
            ta, tb = (0.0 - o) / d, (grid - o) / d
            if ta > tb:
                ta, tb = tb, ta
            t0, t1 = max(t0, ta), min(t1, tb)
    if not t1 > t0:
        return np.empty(0, dtype=int), np.empty(0)
    crossings = [np.array([t0, t1])]
    for axis in range(2):
        o, d = origin[axis], direction[axis]
        if abs(d) >= 1e-12:
            t = (np.arange(1.0, grid) - o) / d
            crossings.append(t[(t > t0) & (t < t1)])
    alphas = np.unique(np.concatenate(crossings))
    lengths = np.diff(alphas)
    mids = origin[None, :] + (0.5 * (alphas[:-1] + alphas[1:]))[:, None] * direction
    ci = np.clip(np.floor(mids[:, 0]).astype(int), 0, grid - 1)
    rj = np.clip(np.floor(mids[:, 1]).astype(int), 0, grid - 1)
    keep = lengths > 1e-12
    return (rj[keep] * grid + ci[keep]), lengths[keep]


def scalar_tomography_matrix(grid, n_angles):
    centre = np.array([grid / 2.0, grid / 2.0])
    rows, cols, vals = [], [], []
    for a in range(n_angles):
        theta = math.pi * a / n_angles
        direction = np.array([math.cos(theta), math.sin(theta)])
        normal = np.array([-math.sin(theta), math.cos(theta)])
        for j in range(grid):
            origin = centre + (j + 0.5 - grid / 2.0) * normal
            idx, lengths = trace_ray(origin, direction, grid)
            rows.extend([a * grid + j] * idx.size)
            cols.extend(idx.tolist())
            vals.extend(lengths.tolist())
    return scipy.sparse.csr_matrix(
        (vals, (rows, cols)), shape=(n_angles * grid, grid * grid)
    )


# ---------------------------------------------------------------------------
# point spread functions


def test_gaussian_psf_properties():
    K = gaussian_psf(1.0)
    assert K.shape == (7, 7)
    assert K.sum() == pytest.approx(1.0)
    assert np.allclose(K, K.T)
    assert K[3, 3] == K.max()


def test_gaussian_psf_delta_limit():
    assert np.array_equal(gaussian_psf(0.0), [[1.0]])


def test_gaussian_psf_rejects_negative_sigma():
    with pytest.raises(ValueError):
        gaussian_psf(-1.0)
    with pytest.raises(ValueError, match="^sigma must be a real number, got True$"):
        gaussian_psf(True)


def test_motion_psf_axis_aligned():
    K = motion_psf(5, 0.0)
    assert K.shape == (5, 5)
    assert K.sum() == pytest.approx(1.0)
    assert np.all(K[np.arange(5) != 2, :] == 0)  # mass only in centre row
    Kv = motion_psf(5, 90.0)
    assert np.all(Kv[:, np.arange(5) != 2] == 0)


def loop_motion_psf(length, angle_deg):
    # the reference: each sample's four bilinear weights added one by one,
    # 64 samples per pixel of length
    half = math.ceil((length - 1.0) / 2.0)
    side = 2 * half + 1
    kernel = np.zeros((side, side))
    theta = math.radians(angle_deg)
    dc, dr = math.cos(theta), math.sin(theta)
    dc = 0.0 if abs(dc) < 1e-12 else dc
    dr = 0.0 if abs(dr) < 1e-12 else dr
    n_samples = max(2, int(round(length * 64)) + 1)
    for t in np.linspace(-(length - 1.0) / 2.0, (length - 1.0) / 2.0, n_samples):
        pr, pc = half + t * dr, half + t * dc
        r0, c0 = int(math.floor(pr)), int(math.floor(pc))
        fr, fc = pr - r0, pc - c0
        for r, c, w in (
            (r0, c0, (1 - fr) * (1 - fc)),
            (r0, c0 + 1, (1 - fr) * fc),
            (r0 + 1, c0, fr * (1 - fc)),
            (r0 + 1, c0 + 1, fr * fc),
        ):
            if 0 <= r < side and 0 <= c < side and w > 0:
                kernel[r, c] += w
    return kernel / kernel.sum()


def test_motion_psf_is_the_loop_bit_for_bit():
    # the same weights added in the same order: equal bytes, signed zeros
    # included, over 108 (length, angle) pairs
    for length in [1, 1.5, 2, 2.5, 3, 4.7, 5, 7, 9, 12, 13.3, 21]:
        for angle in [0.0, 15.0, 30.0, 45.0, 90.0, 135.0, 180.0, -33.3, 270.0]:
            got, want = motion_psf(length, angle), loop_motion_psf(length, angle)
            assert got.tobytes() == want.tobytes(), (length, angle)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_psfs_reject_non_finite_parameters(value):
    with pytest.raises(ValueError, match="sigma must be finite"):
        gaussian_psf(value)
    with pytest.raises(ValueError, match="length must be finite"):
        motion_psf(value, 0.0)


def test_psfs_that_cannot_fit_are_refused_before_allocation():
    # the sides: 2 ceil(3 sigma) + 1 and 2 ceil((length - 1) / 2) + 1
    fits = "psf support must be smaller than the image"
    assert gaussian_psf(2.3, image_size=16).shape == (15, 15)
    assert motion_psf(15, 30.0, image_size=16).shape == (15, 15)
    with pytest.raises(ValueError, match=fits):
        gaussian_psf(2.5, image_size=16)
    with pytest.raises(ValueError, match=fits):
        motion_psf(16, 30.0, image_size=16)
    # kernels of about 1e20 entries: built, they would raise MemoryError
    with pytest.raises(ValueError, match=fits):
        gaussian_psf(1e9, image_size=16)
    with pytest.raises(ValueError, match=fits):
        motion_psf(1e10, 0.0, image_size=16)


def test_motion_psf_length_one_is_delta():
    assert np.allclose(motion_psf(1, 37.0), [[1.0]])


def test_motion_psf_rejects_bad_parameters():
    with pytest.raises(ValueError):
        motion_psf(0.5, 0.0)
    with pytest.raises(ValueError):
        motion_psf(5, np.inf)
    with pytest.raises(ValueError, match="^length must be a real number, got True$"):
        motion_psf(True, 0)


# ---------------------------------------------------------------------------
# phantoms


def test_phantoms_are_deterministic_and_in_range():
    for img in (deblur_phantom(32), tomography_phantom(24)):
        assert img.min() >= 0.0 and img.max() <= 1.0
    assert np.array_equal(deblur_phantom(32), deblur_phantom(32))
    assert np.array_equal(tomography_phantom(24), tomography_phantom(24))


def test_tomography_phantom_is_piecewise_constant():
    img = tomography_phantom(48)
    assert set(np.unique(img)) == {0.0, 0.3, 0.55, 1.0}


# ---------------------------------------------------------------------------
# deblurring


def test_deblur_delta_psf_is_identity():
    p = make_deblur(16, gaussian_psf(0.0), noise_level=0.0, seed=0)
    assert np.array_equal(p.b, p.x_true)
    v = np.random.default_rng(0).standard_normal(256)
    assert np.array_equal(p.operator.forward(v), v)


def test_deblur_matches_dense_convolution_oracle():
    K = gaussian_psf(0.6)  # radius ceil(1.8) = 2
    assert K.shape == (5, 5)
    p = make_deblur(16, K, noise_level=0.0, seed=0)
    C = dense_convolution_matrix(K, 16)
    rng = np.random.default_rng(1)
    for _ in range(3):
        v = rng.standard_normal(256)
        assert np.linalg.norm(p.operator.forward(v) - C @ v) <= 1e-12
        assert np.linalg.norm(p.operator.transpose(v) - C.T @ v) <= 1e-12


@pytest.mark.parametrize(
    "kernel",
    [motion_psf(7, 30.0), np.random.default_rng(5).standard_normal((3, 5))],
    ids=["motion-7x7", "random-3x5"],
)
def test_deblur_matches_dense_oracle_for_asymmetric_kernels(kernel):
    # the random kernel is not point symmetric, so it tells convolution
    # from correlation, and being non-square it tells the row origin from
    # the column origin; the motion kernel is asymmetric about both axes
    p = make_deblur(16, kernel, noise_level=0.0, seed=0)
    C = dense_convolution_matrix(kernel, 16)
    rng = np.random.default_rng(6)
    for _ in range(3):
        v = rng.standard_normal(256)
        assert np.linalg.norm(p.operator.forward(v) - C @ v) <= 1e-12
        assert np.linalg.norm(p.operator.transpose(v) - C.T @ v) <= 1e-12


def test_deblur_motion_adjoint_consistency():
    p = make_deblur(24, motion_psf(7, 30.0), noise_level=0.0, seed=0)
    rng = np.random.default_rng(2)
    u, v = rng.standard_normal(576), rng.standard_normal(576)
    lhs = np.dot(p.operator.forward(v), u)
    rhs = np.dot(v, p.operator.transpose(u))
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_deblur_noiseless_consistency_invariant():
    p = make_deblur(16, gaussian_psf(1.0), noise_level=0.0, seed=0)
    gap = np.linalg.norm(p.b - p.operator.forward(p.x_true))
    assert gap <= 1e-12 * np.linalg.norm(p.b)


def test_deblur_noise_level_exact():
    p = make_deblur(16, gaussian_psf(1.0), noise_level=0.01, seed=3)
    b_clean = p.operator.forward(p.x_true)
    level = np.linalg.norm(p.b - b_clean) / np.linalg.norm(b_clean)
    assert level == pytest.approx(0.01, abs=1e-14)


def test_deblur_validation():
    with pytest.raises(ValueError):
        make_deblur(4, gaussian_psf(1.0))
    with pytest.raises(ValueError):
        make_deblur(16, np.ones((2, 3)) / 6.0)  # even kernel side
    with pytest.raises(ValueError):
        make_deblur(8, gaussian_psf(1.2))  # side 9: support not smaller
    # not the operator's 256.0 rows: the size itself is named
    with pytest.raises(ValueError, match=r"^size must be an integer, got 16\.0$"):
        make_deblur(16.0, gaussian_psf(1.0))


# ---------------------------------------------------------------------------
# tomography


def test_tomography_single_pixel_chords():
    # pixel (row 3, col 5) lit: the angle-0 ray along row 3 and the
    # angle-pi/2 ray through column 5 each cross it with chord length 1
    K = tomography_matrix(8, 2)
    x = np.zeros(64)
    x[3 * 8 + 5] = 1.0
    b = K @ x
    hit = np.nonzero(b)[0]
    assert b[3] == pytest.approx(1.0, abs=1e-12)
    vertical = [i for i in hit if i >= 8]
    assert len(vertical) == 1
    assert b[vertical[0]] == pytest.approx(1.0, abs=1e-12)


def test_tomography_row_sums_equal_box_chords():
    # at angle 0 every ray crosses the full width of the grid
    K = tomography_matrix(8, 4)
    sums = np.asarray(K.sum(axis=1)).ravel()
    assert np.allclose(sums[:8], 8.0, atol=1e-10)


def test_tomography_matches_dense_clipping_oracle():
    K = tomography_matrix(16, 12).toarray()
    D = dense_tomography_matrix(16, 12)
    assert np.max(np.abs(K - D)) <= 1e-12


@pytest.mark.parametrize(
    "grid, n_angles", [(8, 2), (13, 4), (16, 12), (24, 30), (32, 17)]
)
def test_tomography_matrix_bit_identical_to_per_ray_tracing(grid, n_angles):
    # the odd grid and the even angle counts include theta = pi/2, where
    # the ray direction's x component is rounding noise below 1e-12
    K = tomography_matrix(grid, n_angles)
    S = scalar_tomography_matrix(grid, n_angles)
    for field in ("indptr", "indices", "data"):
        got, want = getattr(K, field), getattr(S, field)
        assert got.dtype == want.dtype, field
        assert np.array_equal(got, want), field


def test_tomography_adjoint_consistency():
    p = make_tomography(12, 8, noise_level=0.0, seed=0)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(p.operator.rows)
    v = rng.standard_normal(p.operator.cols)
    lhs = np.dot(p.operator.forward(v), u)
    rhs = np.dot(v, p.operator.transpose(u))
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_tomography_assembly_peaks_near_the_matrix():
    # the CSR arrays are written directly: no COO copy, no int64 index
    # lists.  The peak includes the transposed copy that from_matrix keeps
    K = tomography_matrix(64, 45)
    matrix = K.data.nbytes + K.indices.nbytes + K.indptr.nbytes
    tracemalloc.start()
    try:
        make_tomography(64, 45)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * matrix


def test_tomography_transpose_is_the_transposed_csr_product():
    K = tomography_matrix(24, 30)
    operator = make_tomography(24, 30).operator
    rng = np.random.default_rng(4)
    for _ in range(3):
        y = rng.standard_normal(operator.rows)
        assert np.array_equal(operator.transpose(y), K.T.tocsr() @ y)


def test_tomography_problem_shapes_and_noise():
    p = make_tomography(12, 9, noise_level=0.02, seed=5)
    assert p.operator.shape == (9 * 12, 144)
    assert p.image_shape == (12, 12)
    b_clean = p.operator.forward(p.x_true)
    level = np.linalg.norm(p.b - b_clean) / np.linalg.norm(b_clean)
    assert level == pytest.approx(0.02, abs=1e-14)


def test_tomography_validation():
    with pytest.raises(ValueError):
        make_tomography(4, 8)
    with pytest.raises(ValueError):
        make_tomography(16, 1)
    with pytest.raises(ValueError, match=r"^grid must be an integer, got 12\.0$"):
        make_tomography(12.0, 4)
    with pytest.raises(ValueError, match=r"^n_angles must be an integer, got 4\.0$"):
        make_tomography(12, 4.0)


# ---------------------------------------------------------------------------
# noise


def test_add_noise_zero_level_is_identity():
    b = np.array([1.0, 2.0, 3.0])
    out, e = add_noise(b, 0.0, seed=0)
    assert np.array_equal(out, b)
    assert np.array_equal(e, np.zeros(3))


def test_add_noise_exact_relative_level():
    b = np.random.default_rng(4).standard_normal(100)
    out, e = add_noise(b, 0.01, seed=9)
    assert np.linalg.norm(e) / np.linalg.norm(b) == pytest.approx(0.01, abs=1e-14)
    assert np.array_equal(out, b + e)


def test_add_noise_deterministic():
    b = np.ones(50)
    _, e1 = add_noise(b, 0.1, seed=7)
    _, e2 = add_noise(b, 0.1, seed=7)
    assert np.array_equal(e1, e2)
    _, e3 = add_noise(b, 0.1, seed=8)
    assert not np.array_equal(e1, e3)


@pytest.mark.parametrize("level", [np.inf, np.nan])
def test_add_noise_rejects_non_finite_level(level):
    with pytest.raises(ValueError, match="noise level must be finite"):
        add_noise(np.ones(5), level, seed=0)


def test_add_noise_rejects_zero_vector_and_negative_level():
    with pytest.raises(ValueError):
        add_noise(np.zeros(5), 0.01, seed=0)
    with pytest.raises(ValueError):
        add_noise(np.ones(5), -0.1, seed=0)


# ---------------------------------------------------------------------------
# problem and image containers


def test_problem_validation():
    p = make_tomography(12, 4)
    with pytest.raises(ValueError):
        Problem(p.operator, np.zeros(3))
    with pytest.raises(ValueError):
        Problem(p.operator, p.b, x_true=np.zeros(7))
    with pytest.raises(ValueError):
        Problem(p.operator, p.b, noise_level=-0.5)
    with pytest.raises(ValueError, match="^noise level must be finite, got nan$"):
        Problem(p.operator, p.b, noise_level=np.nan)


# ---------------------------------------------------------------------------
# image output


def pgm_pixels(path, width, height):
    # the 16-bit P5 body after write_image's header, scaled into [0, 1]
    header = f"P5\n{width} {height}\n65535\n".encode("ascii")
    data = path.read_bytes()
    assert data.startswith(header) and len(data) == len(header) + 2 * width * height
    return np.frombuffer(data[len(header) :], ">u2").reshape(height, width) / 65535.0


def test_image_validation(tmp_path):
    # each refused before the file is opened
    path = tmp_path / "bad.pgm"
    for pixels, message in [
        (np.zeros(4), "image must be a 2-D array, got shape (4,)"),
        (np.zeros((2, 0)), "image must not be empty, got shape (2, 0)"),
        (np.array([[0.5, np.nan]]), "pixel values must be finite"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            write_image(pixels, path)
        assert not path.exists()


def test_image_values_are_clamped(tmp_path):
    path = tmp_path / "clamped.pgm"
    write_image(np.array([[-0.5, 0.25], [0.75, 2.0]]), path)
    samples = np.frombuffer(path.read_bytes()[-8:], ">u2")
    assert samples[0] == 0 and samples[-1] == 65535
    assert np.array_equal(pgm_pixels(path, 2, 2), [[0.0, 16384 / 65535], [49151 / 65535, 1.0]])


def test_image_round_trip_quantization_bound(tmp_path):
    rng = np.random.default_rng(11)
    pixels = rng.uniform(0, 1, (7, 9))
    path = tmp_path / "img.pgm"
    write_image(pixels, path)
    back = pgm_pixels(path, 9, 7)
    assert np.max(np.abs(back - pixels)) <= 0.5 / 65535 + 1e-12


def test_image_quantized_values_round_trip_exactly(tmp_path):
    vals = np.arange(12, dtype=float).reshape(3, 4) * 4369 / 65535.0
    path = tmp_path / "exact.pgm"
    write_image(vals, path)
    assert np.array_equal(pgm_pixels(path, 4, 3), vals)


def test_image_zero_round_trips_exactly(tmp_path):
    path = tmp_path / "zero.pgm"
    write_image(np.zeros((5, 5)), path)
    assert np.array_equal(pgm_pixels(path, 5, 5), np.zeros((5, 5)))


def test_image_header_magic(tmp_path):
    path = tmp_path / "img.pgm"
    write_image(np.zeros((2, 2)), path)
    assert path.read_bytes()[:2] == b"P5"


# ---------------------------------------------------------------------------
# semiconvergence witness


def test_deblur_semiconvergence_witness():
    # iterating past the optimum starts fitting the noise, so the error
    # curve turns back up; this is what early stopping guards against
    p = make_deblur(64, motion_psf(7, 30.0), noise_level=0.01, seed=0)
    res = lsqr(p.operator, p.b, SolverConfig(maxiter=30), x_true=p.x_true)
    errs = np.array(res.trace.column("rel_err"))
    kstar = int(errs.argmin()) + 1
    assert 1 < kstar < 30
    assert errs[-1] >= 1.02 * errs.min()


# ---------------------------------------------------------------------------
# package import


def test_package_import_loads_neither_scipy_signal_nor_stats():
    # together they added about 0.6 s to the import, and the package uses neither
    src = os.path.dirname(os.path.dirname(os.path.abspath(problems.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, hessketch; "
        "print(' '.join(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""
