import numpy as np
import pytest

from hessketch.linops import OpCounters, dense_qr_ls
from hessketch.sketch import (
    SketchOperator,
    derive_seed,
    make_gaussian_sketch,
    measured_epsilon,
    sketch_and_solve_ls,
    sketch_apply,
)


def test_sketch_shape_and_determinism():
    S1 = make_gaussian_sketch(20, 100, seed=42)
    S2 = make_gaussian_sketch(20, 100, seed=42)
    assert S1.shape == (20, 100)
    assert np.array_equal(S1.entries, S2.entries)
    S3 = make_gaussian_sketch(20, 100, seed=43)
    assert not np.array_equal(S1.entries, S3.entries)


def test_sketch_entry_scaling():
    # entries are N(0, 1/out_rows); check the empirical variance
    S = make_gaussian_sketch(50, 400, seed=0)
    var = S.entries.var()
    assert abs(var - 1.0 / 50) < 0.002


def test_sketch_isometry_in_expectation():
    # E ||S v||^2 = ||v||^2; average over many independent sketches
    v = np.arange(1.0, 11.0)
    target = np.dot(v, v)
    vals = [
        np.linalg.norm(sketch_apply(make_gaussian_sketch(15, 10, seed=s), v)) ** 2
        for s in range(400)
    ]
    assert abs(np.mean(vals) - target) / target < 0.05


def test_sketches_compare_by_identity():
    # explicit entries share a seed, so the seed triple cannot decide ==
    S, T = make_gaussian_sketch(3, 4, 0), make_gaussian_sketch(3, 4, 0)
    assert S == S and S != T
    assert S in [T, S] and [T, T].count(S) == 0


def test_sketch_apply_counts_and_validates():
    S = make_gaussian_sketch(5, 12, seed=1)
    c = OpCounters()
    out = sketch_apply(S, np.ones(12), counters=c)
    assert out.shape == (5,)
    assert c.sketch_apply_count == 1
    sketch_apply(S, np.ones(12))  # no counters is fine
    assert c.sketch_apply_count == 1
    with pytest.raises(ValueError):
        sketch_apply(S, np.ones(5))


def test_sketch_apply_block_charges_each_column():
    S = make_gaussian_sketch(5, 12, seed=1)
    c = OpCounters()
    out = sketch_apply(S, np.ones((12, 4)), counters=c)
    assert out.shape == (5, 4)
    assert c.sketch_apply_count == 4


def test_sketch_apply_block_agrees_with_columns():
    S = make_gaussian_sketch(30, 200, seed=2)
    V = np.random.default_rng(2).standard_normal((200, 7))
    block = sketch_apply(S, V)
    by_column = np.column_stack([sketch_apply(S, v) for v in V.T])
    assert np.linalg.norm(block - by_column) <= 1e-14 * np.linalg.norm(by_column)


@pytest.mark.parametrize("shape", [(12, 2, 2), (11, 3), (13,)])
def test_sketch_apply_rejects_misshapen_input(shape):
    S = make_gaussian_sketch(5, 12, seed=1)
    with pytest.raises(ValueError, match="length 12"):
        sketch_apply(S, np.ones(shape))


def test_sketch_apply_linearity():
    S = make_gaussian_sketch(8, 30, seed=9)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(30)
    y = rng.standard_normal(30)
    lhs = sketch_apply(S, 2.0 * x - 3.0 * y)
    rhs = 2.0 * sketch_apply(S, x) - 3.0 * sketch_apply(S, y)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_sketch_and_solve_identity_sketch_is_exact():
    # with S = I the sketched problem is the original problem
    rng = np.random.default_rng(4)
    M = rng.standard_normal((12, 3))
    rhs = rng.standard_normal(12)
    S = SketchOperator(12, 12, seed=0, entries=np.eye(12))
    y = sketch_and_solve_ls(S, M, rhs)
    assert np.array_equal(y, dense_qr_ls(M, rhs))


def test_sketch_and_solve_counts():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((40, 4))
    rhs = rng.standard_normal(40)
    S = make_gaussian_sketch(10, 40, seed=2)
    c = OpCounters()
    sketch_and_solve_ls(S, M, rhs, counters=c)
    assert c.sketch_apply_count == 5  # four columns plus the right-hand side


def test_sketch_and_solve_rejects_too_few_rows():
    M = np.ones((10, 4))
    S = make_gaussian_sketch(3, 10, seed=0)
    with pytest.raises(ValueError):
        sketch_and_solve_ls(S, M, np.ones(10))


def test_sketch_and_solve_unbiased():
    # the Gaussian sketched minimizer has mean equal to the true minimizer;
    # a light check here, the full statistical gate lives in the acceptance
    # suite
    rng = np.random.default_rng(123)
    M = rng.standard_normal((30, 3))
    rhs = rng.standard_normal(30)
    y_true = dense_qr_ls(M, rhs)
    sols = np.array(
        [
            sketch_and_solve_ls(make_gaussian_sketch(12, 30, seed=s), M, rhs)
            for s in range(600)
        ]
    )
    err = np.abs(sols.mean(axis=0) - y_true)
    se = sols.std(axis=0, ddof=1) / np.sqrt(len(sols))
    assert np.all(err < 4.0 * se + 1e-12)


def test_sketch_and_solve_residual_inflation():
    # E ||M y_sk - rhs||^2 = (1 + k/(l-k-1)) ||M y_ls - rhs||^2 for a
    # Gaussian sketch; coarse check, the tight one is in acceptance
    rng = np.random.default_rng(77)
    M = rng.standard_normal((40, 4))
    rhs = rng.standard_normal(40)
    base = np.linalg.norm(M @ dense_qr_ls(M, rhs) - rhs) ** 2
    l, k = 12, 4
    expected = (1.0 + k / (l - k - 1.0)) * base
    vals = [
        np.linalg.norm(M @ sketch_and_solve_ls(make_gaussian_sketch(l, 40, seed=s), M, rhs) - rhs) ** 2
        for s in range(600)
    ]
    assert abs(np.mean(vals) - expected) / expected < 0.25


def test_measured_epsilon_identity_sketch_is_zero():
    rng = np.random.default_rng(8)
    B = rng.standard_normal((20, 5))
    S = SketchOperator(20, 20, seed=0, entries=np.eye(20))
    assert measured_epsilon(S, B) < 1e-12


def test_measured_epsilon_known_distortion():
    # a diagonal sketch acting on the standard basis has condition number
    # 2 on that span, so eps = (2-1)/(2+1) = 1/3
    entries = np.diag([2.0, 1.0, 1.0])
    S = SketchOperator(3, 3, seed=0, entries=entries)
    eps = measured_epsilon(S, np.eye(3))
    assert eps == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_measured_epsilon_certifies_ratio_bound():
    # over unit vectors in the span, the spread of ||S x|| is bounded by
    # (1+eps)/(1-eps)
    rng = np.random.default_rng(31)
    B = rng.standard_normal((60, 6))
    S = make_gaussian_sketch(25, 60, seed=3)
    eps = measured_epsilon(S, B)
    assert 0.0 <= eps < 1.0
    Q, _ = np.linalg.qr(B)
    norms = []
    for _ in range(50):
        c = rng.standard_normal(6)
        x = Q @ (c / np.linalg.norm(c))
        norms.append(np.linalg.norm(sketch_apply(S, x)))
    ratio = max(norms) / min(norms)
    assert ratio <= (1.0 + eps) / (1.0 - eps) + 1e-10


def test_measured_epsilon_shrinks_with_more_rows():
    rng = np.random.default_rng(6)
    B = rng.standard_normal((200, 4))
    eps_small = np.median(
        [measured_epsilon(make_gaussian_sketch(10, 200, s), B) for s in range(20)]
    )
    eps_large = np.median(
        [measured_epsilon(make_gaussian_sketch(80, 200, s), B) for s in range(20)]
    )
    assert eps_large < eps_small


def test_derive_seed_deterministic_and_distinct():
    a = derive_seed(42, 0)
    b = derive_seed(42, 0)
    c = derive_seed(42, 1)
    d = derive_seed(43, 0)
    assert a == b
    assert a != c
    assert a != d
    assert isinstance(a, int)
    assert 0 <= a < 2**64


def test_derived_streams_do_not_collide_with_root():
    # the sketch drawn from a derived seed differs from the root sketch
    root = make_gaussian_sketch(6, 6, seed=42)
    child = make_gaussian_sketch(6, 6, seed=derive_seed(42, 1))
    assert not np.array_equal(root.entries, child.entries)
