"""Exact linear algebra over prime fields GF(q).

Matrices are plain numpy arrays with entries reduced mod q; every
function takes q explicitly.  Elimination is integer-exact (modular
inverses via pow(x, -1, q)), so there is no floating point anywhere.
Entries are Python ints (object arrays) for every q, so that no product
or sum below wraps, and the oracle shares no arithmetic with the ring
backends it is compared against.

One row reduction T·A = R gives the constructive inner inverse G0 = S·T
(S places the pivot rows; see inner_inverse_matrix), which is reflexive
by construction.  Rank additivity gives the intersection tests behind
the inner-inverse-set comparison criterion for matrix rings.
"""

from __future__ import annotations

import numpy as np

from .errors import BadTensorShape


def _reduced(A, q: int) -> np.ndarray:
    """A mod q, as an array of Python ints."""
    return np.asarray(A, dtype=object) % q


def row_reduce(A: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """RREF with a recorded transform: returns (R, T, pivots), T·A = R mod q."""
    R = _reduced(A, q)
    m, n = R.shape
    T = np.eye(m, dtype=R.dtype)
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row == m:
            break
        hit = np.nonzero(R[row:, col])[0]
        if len(hit) == 0:
            continue
        piv = row + int(hit[0])
        if piv != row:
            R[[row, piv]] = R[[piv, row]]
            T[[row, piv]] = T[[piv, row]]
        inv = pow(int(R[row, col]), -1, q)
        R[row] = (R[row] * inv) % q
        T[row] = (T[row] * inv) % q
        others = np.nonzero(R[:, col])[0]
        for r in others:
            if r == row:
                continue
            factor = int(R[r, col])
            R[r] = (R[r] - factor * R[row]) % q
            T[r] = (T[r] - factor * T[row]) % q
        pivots.append(col)
        row += 1
    return R, T, pivots


def rank(A, q: int) -> int:
    """Row rank over GF(q)."""
    _, _, pivots = row_reduce(A, q)
    return len(pivots)


def inner_inverse_matrix(A, q: int) -> np.ndarray:
    """The canonical reflexive inner inverse G0 = S·T, from one elimination.

    row_reduce gives T·A = R, R in RREF with pivot columns p_i, and S has
    S[p_i, i] = 1 and zeros elsewhere, so row p_i of G0 is row i of T and
    the other rows are zero.  Column i of R·S is column p_i of R, the unit
    vector e_i, so R·S = D = diag(I_r, 0); also D·R = R and S·D = S.  With
    A = T^-1·R:

        A·G0·A  = T^-1·R·S·R = T^-1·D·R = T^-1·R = A,
        G0·A·G0 = S·R·S·T    = S·D·T    = S·T    = G0.
    """
    R, T, pivots = row_reduce(A, q)
    G = np.zeros(R.shape[::-1], dtype=T.dtype)
    G[pivots] = T[:len(pivots)]
    return G


def col_intersection_trivial(B, D, q: int) -> bool:
    """True iff the column spaces of B and D meet only in 0.

    Equivalent to rank([B | D]) = rank(B) + rank(D), and to
    BR ∩ DR = {0} in the matrix ring.
    """
    B, D = _reduced(B, q), _reduced(D, q)
    return rank(np.hstack([B, D]), q) == rank(B, q) + rank(D, q)


def row_intersection_trivial(B, D, q: int) -> bool:
    """True iff the row spaces of B and D meet only in 0 (RB ∩ RD dual)."""
    return col_intersection_trivial(_reduced(B, q).T, _reduced(D, q).T, q)


def membership_aR(b, a, q: int) -> bool:
    """b ∈ aR, decided by a·a⁻·b = b for the constructive inner inverse."""
    a, b = _reduced(a, q), _reduced(b, q)
    return np.array_equal((a @ inner_inverse_matrix(a, q) % q) @ b % q, b)


def membership_Ra(b, a, q: int) -> bool:
    """b ∈ Ra, decided by b·a⁻·a = b."""
    a, b = _reduced(a, q), _reduced(b, q)
    return np.array_equal((b @ inner_inverse_matrix(a, q) % q) @ a % q, b)


def inner_subset_matrices(A, B, q: int) -> bool:
    """Decides {X : AXA=A} ⊆ {X : BXB=B} without enumerating either set.

    Criterion (valid for regular elements of a semiprime ring, which all
    matrices over a field are): with D = A − B, both BR ∩ DR = {0} and
    RB ∩ RD = {0}.
    """
    B = _reduced(B, q)
    D = (_reduced(A, q) - B) % q
    return col_intersection_trivial(B, D, q) and row_intersection_trivial(B, D, q)


def inner_set_equal_matrices(A, B, q: int) -> bool:
    """Decides I(A) = I(B) via the subset criterion in both directions."""
    return inner_subset_matrices(A, B, q) and inner_subset_matrices(B, A, q)


def parse_matrix(text: str, k: int, q: int) -> np.ndarray:
    """Parse the CLI matrix form: rows split by ';', entries by ','."""
    rows = []
    for chunk in text.strip().split(";"):
        entries = chunk.split(",")
        try:
            rows.append([int(v.strip()) for v in entries])
        except ValueError as exc:
            raise BadTensorShape(f"bad matrix entry in {chunk!r}") from exc
    if len(rows) != k or any(len(r) != k for r in rows):
        shape = f"{len(rows)} rows of lengths {[len(r) for r in rows]}"
        raise BadTensorShape(f"expected a {k}x{k} matrix, got {shape}")
    return _reduced([[v % q for v in row] for row in rows], q)


def render_matrix(A) -> str:
    return ";".join(",".join(str(int(v)) for v in row) for row in A)
