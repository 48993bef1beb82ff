"""Exact linear algebra over prime fields GF(q).

Matrices are plain numpy arrays with entries reduced mod q; every
function takes q explicitly.  Elimination is integer-exact (modular
inverses via pow(x, -1, q)), so there is no floating point anywhere.
Entries are Python ints (object arrays) for every q, so that no product
or sum below wraps, and the oracle shares no arithmetic with the ring
backends it is compared against.

One row reduction T·A = R gives the constructive inner inverse G0 = S·T
(S places the pivot rows; see inner_inverse_matrix), which is reflexive
by construction.  Rank additivity decides the inner-inverse-set
comparison criterion for matrix rings.  Each oracle computes every rank,
and every G0, that it needs once.
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


def _meets_trivially(X, D, rank_sum: int, q: int) -> bool:
    """XR ∩ DR = {0} and RX ∩ RD = {0}: rank([X | D]) and rank([X ; D])
    both equal rank_sum = rank X + rank D."""
    return (rank(np.hstack([X, D]), q) == rank_sum
            and rank(np.vstack([X, D]), q) == rank_sum)


def membership(b, a, q: int) -> tuple[bool, bool]:
    """(b ∈ aR, b ∈ Ra), by a·G0·b = b and b·G0·a = b for one G0 of a."""
    a, b = _reduced(a, q), _reduced(b, q)
    g = inner_inverse_matrix(a, q)
    return (np.array_equal((a @ g % q) @ b % q, b),
            np.array_equal((b @ g % q) @ a % q, b))


def inner_subset_matrices(A, B, q: int) -> bool:
    """Decides {X : AXA=A} ⊆ {X : BXB=B} without enumerating either set.

    Criterion (valid for regular elements of a semiprime ring, which all
    matrices over a field are): with D = A − B, both BR ∩ DR = {0} and
    RB ∩ RD = {0}.
    """
    B = _reduced(B, q)
    D = (_reduced(A, q) - B) % q
    return _meets_trivially(B, D, rank(B, q) + rank(D, q), q)


def inner_set_equal_matrices(A, B, q: int) -> bool:
    """Decides I(A) = I(B) via the subset criterion in both directions;
    they share rank D, since B − A = −D spans the rows and columns of D."""
    A, B = _reduced(A, q), _reduced(B, q)
    D = (A - B) % q
    rank_d = rank(D, q)
    return (_meets_trivially(B, D, rank(B, q) + rank_d, q)
            and _meets_trivially(A, D, rank(A, q) + rank_d, q))


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
