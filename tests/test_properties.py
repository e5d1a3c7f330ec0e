"""Property tests of the one factorization shape all four builders share.

Each builder runs through its reference solver (Arnoldi via gmres,
Golub-Kahan via lsqr, the pivoted Hessenberg process via cmrh, the
generalized process via lslu) on small random operators, with full or
sampled pivots, and its ``factorization`` must satisfy
A V_k = U_{k+1} H_{k+1,k}.  The Hessenberg builders must also keep their
bases unit lower triangular under the pivot orders and count no inner
products; the generalized one must satisfy A^T U_{k+1} = V_{k+1} W.
Examples are derandomized, so the suite stays deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessketch.hessenberg import PivotStrategy
from hessketch.linops import LinearOperator
from hessketch.solvers import SOLVERS, SolverConfig

PIVOTS = st.one_of(
    st.just(PivotStrategy.full()),
    st.builds(PivotStrategy.sampled, st.integers(1, 4), st.integers(0, 2**16)),
)
SQUARE = {"gmres", "cmrh"}
HESSENBERG = {"cmrh", "lslu"}


def unit_lower_triangular(cols, perm):
    B = np.column_stack(cols)[np.asarray(perm)[: len(cols)], :]
    return np.array_equal(np.diag(B), np.ones(B.shape[1])) and not np.any(
        np.triu(B, 1)
    )


@pytest.mark.parametrize("name", ["gmres", "lsqr", "cmrh", "lslu"])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 12),
    n=st.integers(2, 12),
    pivot=PIVOTS,
)
def test_factorization_relations(name, seed, m, n, pivot):
    if name in SQUARE:
        n = m
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, n))
    A = LinearOperator.from_matrix(M)
    res = SOLVERS[name](A, rng.standard_normal(m), SolverConfig(maxiter=n, pivot=pivot))
    state = res.factorization
    k = len(state.h_cols)
    assert k == len(res.trace.records)
    Vk = np.column_stack(state.V_cols[:k])
    U = np.column_stack(state.U_cols)
    gap = np.linalg.norm(M @ Vk - U @ state.H_matrix(rows=U.shape[1]))
    assert gap <= 1e-10 * np.linalg.norm(M) * np.linalg.norm(Vk)
    assert res.trace.final().matvecs == k
    if name not in HESSENBERG:
        return
    assert res.trace.final().dots == 0
    assert unit_lower_triangular(state.U_cols, state.t)
    if name == "lslu":
        assert unit_lower_triangular(state.V_cols, state.g)
        V = np.column_stack(state.V_cols)
        W = state.W_matrix(rows=V.shape[1])
        gap = np.linalg.norm(M.T @ U - V @ W)
        assert gap <= 1e-10 * np.linalg.norm(M) * np.linalg.norm(U)
