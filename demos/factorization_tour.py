"""Walk through both pivoted Hessenberg factorizations on a tiny matrix.

Shows the permuted unit-lower-triangular structure of the basis, the
Hessenberg coefficient matrix, and the factorization relations, all built
without a single inner product.
"""

import numpy as np

from hessketch.hessenberg import (
    init_generalized,
    init_square,
    step_generalized,
    step_square,
)
from hessketch.linops import LinearOperator

np.set_printoptions(precision=4, suppress=True)

rng = np.random.default_rng(7)
M = rng.standard_normal((5, 5)) + 2 * np.eye(5)
b = rng.standard_normal(5)
A = LinearOperator.from_matrix(M)

print("square process on a 5x5 matrix")
state = init_square(A, b, capacity=5)
for _ in range(4):
    step_square(state, A)

L = state.V_cols.matrix()
H = state.H_matrix()
print("pivot order t:", state.t[: len(state.V_cols)])
print("L (rows in pivot order form a unit lower triangle):")
print(L[state.t[: len(state.V_cols)]])
print("H (Hessenberg coefficients):")
print(H)
gap = np.linalg.norm(M @ L[:, : state.k] - L @ H)
print(f"relation |A L_k - L_(k+1) H| = {gap:.2e}")
print(f"matvecs={A.counters.matvec_count}  dots={A.counters.dot_product_count}")

print()
print("generalized process on a 8x4 matrix (two bases, two pivot orders)")
M2 = rng.standard_normal((8, 4))
b2 = rng.standard_normal(8)
A2 = LinearOperator.from_matrix(M2)
gstate = init_generalized(A2, b2, capacity=4)
for _ in range(3):
    step_generalized(gstate, A2)

D = gstate.U_cols.matrix()
L2 = gstate.V_cols.matrix()
print("data-space pivots t:", gstate.t[: len(gstate.U_cols)])
print("solution-space pivots g:", gstate.g[: len(gstate.V_cols)])
gap1 = np.linalg.norm(M2 @ L2[:, : gstate.k] - D @ gstate.H_matrix())
W = gstate.W_matrix(rows=len(gstate.V_cols))
gap2 = np.linalg.norm(M2.T @ D - L2 @ W[:, : D.shape[1]])
print(f"relation |A L_k - D_(k+1) H| = {gap1:.2e}")
print(f"relation |A' D_(k+1) - L_(k+1) W| = {gap2:.2e}")
print(
    f"matvecs={A2.counters.matvec_count}  "
    f"transpose matvecs={A2.counters.transpose_matvec_count}  "
    f"dots={A2.counters.dot_product_count}"
)
