"""Finite ring backends with exact arithmetic and canonical indexing.

Three backends: integers mod n, k-by-k matrices over a prime field, and
finite-dimensional structure-constant algebras over a prime field.
Every element is identified with a canonical index in [0, |R|): the
mixed-radix encoding of its reduced payload, most significant component
first (residue value; row-major matrix entries; coefficient vector).
The index order is the canonical order used by sets and reports.

Arithmetic is exposed two ways: Elem objects with operator overloading,
and vectorized numpy operations on index arrays for scan-heavy set
computations.  Rings with at most TABLE_CAP elements build full index
tables once and answer everything by fancy indexing; larger rings fall
back to per-backend vectorized formulas, chunked to bound memory.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import gfmatrix, parsing
from .errors import (
    BadTensorShape,
    BudgetExceeded,
    InvalidModulus,
    NoUnity,
    NotAssociative,
    RingMismatch,
    TableCapExceeded,
)

DEFAULT_BUDGET = 1 << 20
# Full op tables (and exhaustive pair quantification) below this size.
TABLE_CAP = 4096
_CHUNK = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Ring:
    """Base class; subclasses fill in payload codecs and raw arithmetic."""

    kind = "abstract"

    def __init__(self, size: int, char: int, enumeration_budget: int):
        self.size = size
        self.char = char
        self.enumeration_budget = enumeration_budget
        self._mul_table = None
        self._add_table = None
        self._neg_table = None
        self._all = None
        self._units = None

    # --- identity ----------------------------------------------------

    def descriptor(self) -> tuple:
        raise NotImplementedError

    def describe(self) -> dict:
        """Small JSON-friendly summary used by reports."""
        return {"kind": self.kind, "size": self.size}

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Ring):
            return NotImplemented
        return self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def __repr__(self):
        return f"<{type(self).__name__} size={self.size}>"

    # --- payload codec (subclass) --------------------------------------

    def payload_of_index(self, i: int):
        raise NotImplementedError

    def index_of_payload(self, payload) -> int:
        raise NotImplementedError

    def element(self, payload) -> "Elem":
        """Build an element from a payload, reducing mod the characteristic."""
        if isinstance(payload, Elem):
            if payload.ring != self:
                raise RingMismatch("element belongs to a different ring")
            return Elem(self, payload.index)
        return Elem(self, self.index_of_payload(payload))

    # --- raw vectorized index arithmetic (subclass; no tables) ---------

    def _raw_mul(self, I, J):
        raise NotImplementedError

    def _raw_add(self, I, J):
        raise NotImplementedError

    def _raw_neg(self, I):
        raise NotImplementedError

    # --- table management ----------------------------------------------

    def has_tables(self) -> bool:
        return self.size <= TABLE_CAP

    def _tables(self):
        if self._mul_table is None:
            n = self.size
            idx = self.all_indices()
            dtype = np.uint16 if n <= 0xFFFF else np.int64
            mul = np.empty((n, n), dtype=dtype)
            add = np.empty((n, n), dtype=dtype)
            step = max(1, _CHUNK // n)
            for lo in range(0, n, step):
                hi = min(n, lo + step)
                rows = idx[lo:hi, None]
                mul[lo:hi] = self._raw_mul(rows, idx[None, :])
                add[lo:hi] = self._raw_add(rows, idx[None, :])
            self._mul_table = mul
            self._add_table = add
            self._neg_table = self._raw_neg(idx).astype(dtype)
        return self._mul_table, self._add_table, self._neg_table

    def all_indices(self) -> np.ndarray:
        if self._all is None:
            self._all = np.arange(self.size, dtype=np.int64)
        return self._all

    # --- uniform index arithmetic ---------------------------------------

    def idx_mul(self, I, J):
        if self.has_tables():
            mul, _, _ = self._tables()
            return mul[I, J]
        return self._raw_mul(np.asarray(I), np.asarray(J))

    def idx_add(self, I, J):
        if self.has_tables():
            _, add, _ = self._tables()
            return add[I, J]
        return self._raw_add(np.asarray(I), np.asarray(J))

    def idx_neg(self, I):
        if self.has_tables():
            _, _, neg = self._tables()
            return neg[I]
        return self._raw_neg(np.asarray(I))

    def idx_sub(self, I, J):
        return self.idx_add(I, self.idx_neg(J))

    # --- element helpers -------------------------------------------------

    def zero(self) -> "Elem":
        return Elem(self, 0)

    def one(self) -> "Elem":
        return Elem(self, self._one_index)

    def from_index(self, i: int) -> "Elem":
        return Elem(self, int(i))

    def generator_labels(self) -> dict[str, int]:
        """Parser labels -> canonical index.  Unity ("1") is implicit."""
        return {}

    def additive_generator_indices(self) -> np.ndarray:
        """Indices of a generating set of (R, +), for linearity shortcuts."""
        raise NotImplementedError

    def scale_index(self, c: int, i: int) -> int:
        """Index of c·x where x has index i, c a plain integer."""
        raise NotImplementedError

    # --- enumeration ------------------------------------------------------

    def ensure_enumerable(self, budget: Optional[int] = None):
        limit = self.enumeration_budget if budget is None else budget
        if self.size > limit:
            raise BudgetExceeded(self.size, limit)

    def elements(self, budget: Optional[int] = None) -> Iterator["Elem"]:
        self.ensure_enumerable(budget)
        return (Elem(self, i) for i in range(self.size))

    # --- units -------------------------------------------------------------

    def try_inverse(self, i: int) -> Optional[int]:
        """Index of the two-sided inverse of element i, if it is a unit."""
        raise NotImplementedError

    def units(self) -> tuple[np.ndarray, np.ndarray]:
        """(unit indices, matching inverse indices); cached.

        Needs full tables; callers working on larger rings probe
        try_inverse on their own samples instead.
        """
        if self._units is None:
            if not self.has_tables():
                raise TableCapExceeded(self.size, TABLE_CAP)
            mul, _, _ = self._tables()
            one = self._one_index
            has_right = (mul == one).any(axis=1)
            cand = np.nonzero(has_right)[0]
            rinv = np.argmax(mul[cand] == one, axis=1)
            # in a finite ring a one-sided inverse is two-sided; verify anyway
            two_sided = mul[rinv, cand] == one
            self._units = (cand[two_sided].astype(np.int64),
                           rinv[two_sided].astype(np.int64))
        return self._units

    def unit_indices(self) -> np.ndarray:
        """Indices of all units; subclasses may avoid the table scan."""
        return self.units()[0]


class Elem:
    """A single ring element, identified by its canonical index."""

    __slots__ = ("ring", "index")

    def __init__(self, ring: Ring, index: int):
        self.ring = ring
        self.index = int(index)

    @property
    def payload(self):
        return self.ring.payload_of_index(self.index)

    def _coerce(self, other) -> "Elem":
        if not isinstance(other, Elem):
            raise TypeError(f"expected Elem, got {type(other).__name__}")
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingMismatch("operands belong to different rings")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return Elem(self.ring, int(self.ring.idx_add(self.index, other.index)))

    def __sub__(self, other):
        other = self._coerce(other)
        return Elem(self.ring, int(self.ring.idx_sub(self.index, other.index)))

    def __neg__(self):
        return Elem(self.ring, int(self.ring.idx_neg(self.index)))

    def __mul__(self, other):
        other = self._coerce(other)
        return Elem(self.ring, int(self.ring.idx_mul(self.index, other.index)))

    def __eq__(self, other):
        if not isinstance(other, Elem):
            return NotImplemented
        return self.index == other.index and (
            self.ring is other.ring or self.ring == other.ring
        )

    def __hash__(self):
        return hash((self.ring.kind, self.ring.size, self.index))

    def __bool__(self):
        return self.index != 0

    def __str__(self):
        return parsing.render_elem(self)

    def __repr__(self):
        return f"<{self.ring.kind}:{parsing.render_elem(self)}>"


class ElemSet:
    """Duplicate-free element set ordered by canonical index.

    The members live in one sorted, read-only int64 array, `idx`;
    indices() returns that array itself, not a copy.
    """

    __slots__ = ("ring", "idx")

    def __init__(self, ring: Ring, sorted_indices: np.ndarray):
        sorted_indices.flags.writeable = False
        self.ring = ring
        self.idx = sorted_indices

    @classmethod
    def from_indices(cls, ring: Ring, indices) -> "ElemSet":
        if not isinstance(indices, np.ndarray):
            indices = np.fromiter(indices, dtype=np.int64)
        # np.unique's result from one sort and a neighbour comparison:
        # numpy 2's np.unique hashes first, several times slower on indices
        arr = np.sort(indices, axis=None).astype(np.int64, copy=False)
        keep = np.empty(len(arr), dtype=bool)
        keep[:1] = True
        np.not_equal(arr[1:], arr[:-1], out=keep[1:])
        return cls(ring, arr[keep])

    @classmethod
    def from_elems(cls, ring: Ring, elems) -> "ElemSet":
        out = []
        for e in elems:
            if e.ring is not ring and e.ring != ring:
                raise RingMismatch("set members belong to different rings")
            out.append(e.index)
        return cls.from_indices(ring, out)

    def indices(self) -> np.ndarray:
        return self.idx

    def __len__(self):
        return len(self.idx)

    def __iter__(self):
        return (Elem(self.ring, i) for i in self.idx.tolist())

    def __contains__(self, e):
        if isinstance(e, Elem):
            if e.ring is not self.ring and e.ring != self.ring:
                return False
            key = e.index
        else:
            key = int(e)
        pos = int(np.searchsorted(self.idx, key))
        return pos < len(self.idx) and int(self.idx[pos]) == key

    def __eq__(self, other):
        if not isinstance(other, ElemSet):
            return NotImplemented
        return np.array_equal(self.idx, other.idx) and self.ring == other.ring

    def __hash__(self):
        return hash((self.ring.kind, self.ring.size, self.idx.tobytes()))

    def __repr__(self):
        shown = ", ".join(parsing.render_elem(Elem(self.ring, i))
                          for i in self.idx[:8].tolist())
        tail = ", ..." if len(self.idx) > 8 else ""
        return f"{{{shown}{tail}}} ({len(self.idx)} elements)"

    def intersection(self, other: "ElemSet") -> "ElemSet":
        if other.ring != self.ring:
            raise RingMismatch("sets belong to different rings")
        return ElemSet(self.ring, np.intersect1d(self.idx, other.idx,
                                                   assume_unique=True))

    def issubset(self, other: "ElemSet") -> bool:
        if other.ring != self.ring:
            raise RingMismatch("sets belong to different rings")
        return bool(np.isin(self.idx, other.idx).all())


# ---------------------------------------------------------------------------
# modular backend


class ZmodRing(Ring):
    kind = "zmod"

    def __init__(self, n: int, enumeration_budget: int = DEFAULT_BUDGET):
        super().__init__(n, n, enumeration_budget)
        self.n = n
        self._one_index = 1 % n

    def descriptor(self):
        return ("zmod", self.n)

    def payload_of_index(self, i):
        return int(i)

    def index_of_payload(self, payload):
        return int(payload) % self.n

    def _raw_mul(self, I, J):
        return (I * J) % self.n

    def _raw_add(self, I, J):
        return (I + J) % self.n

    def _raw_neg(self, I):
        return (-I) % self.n

    def additive_generator_indices(self):
        return np.asarray([self._one_index], dtype=np.int64)

    def scale_index(self, c, i):
        return (c * i) % self.n

    def try_inverse(self, i):
        try:
            return pow(int(i), -1, self.n)
        except ValueError:
            return None

    def unit_indices(self):
        idx = self.all_indices()
        return idx[np.gcd(idx, self.n) == 1]


# ---------------------------------------------------------------------------
# matrix backend


class MatrixRing(Ring):
    kind = "matrix"

    def __init__(self, k: int, q: int, enumeration_budget: int = DEFAULT_BUDGET):
        super().__init__(q ** (k * k), q, enumeration_budget)
        self.k = k
        self.q = q
        self._powers = q ** np.arange(k * k - 1, -1, -1, dtype=np.int64)
        eye = np.eye(k, dtype=np.int64)
        self._one_index = int(eye.reshape(-1) @ self._powers)

    def descriptor(self):
        return ("matrix", self.k, self.q)

    def describe(self):
        return {"kind": self.kind, "size": self.size, "k": self.k, "q": self.q}

    def _decode(self, I) -> np.ndarray:
        I = np.asarray(I, dtype=np.int64)
        flat = (I[..., None] // self._powers) % self.q
        return flat.reshape(I.shape + (self.k, self.k))

    def _encode(self, grids) -> np.ndarray:
        k = self.k
        flat = grids.reshape(grids.shape[:-2] + (k * k,))
        return flat @ self._powers

    def payload_of_index(self, i):
        grid = self._decode(np.int64(i))
        return tuple(tuple(int(v) for v in row) for row in grid)

    def index_of_payload(self, payload):
        arr = np.asarray(payload, dtype=np.int64) % self.q
        if arr.shape != (self.k, self.k):
            raise BadTensorShape(f"expected a {self.k}x{self.k} grid")
        return int(self._encode(arr))

    def matrix_of(self, e: Elem) -> np.ndarray:
        return self._decode(np.int64(e.index))

    def _raw_mul(self, I, J):
        I, J = np.broadcast_arrays(np.asarray(I), np.asarray(J))
        shape = I.shape
        A = self._decode(I.reshape(-1))
        B = self._decode(J.reshape(-1))
        C = np.einsum("mij,mjk->mik", A, B) % self.q
        return self._encode(C).reshape(shape)

    def _raw_add(self, I, J):
        I, J = np.broadcast_arrays(np.asarray(I), np.asarray(J))
        shape = I.shape
        C = (self._decode(I.reshape(-1)) + self._decode(J.reshape(-1))) % self.q
        return self._encode(C).reshape(shape)

    def _raw_neg(self, I):
        I = np.asarray(I)
        C = (-self._decode(I.reshape(-1))) % self.q
        return self._encode(C).reshape(I.shape)

    def generator_labels(self):
        if self.k > 9:
            return {}
        labels = {}
        for r in range(self.k):
            for c in range(self.k):
                grid = np.zeros((self.k, self.k), dtype=np.int64)
                grid[r, c] = 1
                labels[f"e{r + 1}{c + 1}"] = int(self._encode(grid))
        return labels

    def additive_generator_indices(self):
        # the k*k matrix units, i.e. one power of q at a time
        return self._powers.copy()

    def scale_index(self, c, i):
        grid = (c * self._decode(np.int64(i))) % self.q
        return int(self._encode(grid))

    def try_inverse(self, i):
        inv = gfmatrix.invert(self._decode(np.int64(i)), self.q)
        return None if inv is None else int(self._encode(inv))


# ---------------------------------------------------------------------------
# structure-constant backend


class TableRing(Ring):
    kind = "table"

    def __init__(self, p: int, labels: Sequence[str], unity: Sequence[int],
                 tensor: np.ndarray, enumeration_budget: int = DEFAULT_BUDGET):
        dim = len(labels)
        super().__init__(p ** dim, p, enumeration_budget)
        self.p = p
        self.dim = dim
        self.labels = tuple(labels)
        self.unity = tuple(int(u) % p for u in unity)
        self.tensor = tensor  # dim x dim x dim, entries in [0, p)
        self._powers = p ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        self._one_index = int(np.asarray(self.unity, dtype=np.int64) @ self._powers)
        self._bitmask_products = None
        if p == 2:
            # GF(2) indices are bitmasks; pairwise basis products as masks
            masks = np.zeros((dim, dim), dtype=np.int64)
            for i in range(dim):
                for j in range(dim):
                    masks[i, j] = int(tensor[i, j] @ self._powers)
            self._bitmask_products = masks

    def descriptor(self):
        return ("table", self.p, self.labels, self.unity, self.tensor.tobytes())

    def describe(self):
        return {"kind": self.kind, "size": self.size, "p": self.p,
                "dim": self.dim, "basis": list(self.labels)}

    def _decode(self, I) -> np.ndarray:
        I = np.asarray(I, dtype=np.int64)
        return (I[..., None] // self._powers) % self.p

    def _encode(self, coeffs) -> np.ndarray:
        return np.asarray(coeffs, dtype=np.int64) @ self._powers

    def payload_of_index(self, i):
        return tuple(int(c) for c in self._decode(np.int64(i)))

    def index_of_payload(self, payload):
        vec = np.asarray(payload, dtype=np.int64) % self.p
        if vec.shape != (self.dim,):
            raise BadTensorShape(f"expected a coefficient vector of length {self.dim}")
        return int(self._encode(vec))

    def _raw_mul(self, I, J):
        I, J = np.broadcast_arrays(np.asarray(I), np.asarray(J))
        if self._bitmask_products is not None:
            acc = np.zeros(I.shape, dtype=np.int64)
            d = self.dim
            bm = self._bitmask_products
            for i in range(d):
                bi = (I >> (d - 1 - i)) & 1
                for j in range(d):
                    m = bm[i, j]
                    if m == 0:
                        continue
                    acc ^= (bi & ((J >> (d - 1 - j)) & 1)) * m
            return acc
        shape = I.shape
        X = self._decode(I.reshape(-1))
        Y = self._decode(J.reshape(-1))
        Z = np.einsum("mi,mj,ijk->mk", X, Y, self.tensor) % self.p
        return self._encode(Z).reshape(shape)

    def _raw_add(self, I, J):
        I, J = np.broadcast_arrays(np.asarray(I), np.asarray(J))
        if self.p == 2:
            return I ^ J
        shape = I.shape
        Z = (self._decode(I.reshape(-1)) + self._decode(J.reshape(-1))) % self.p
        return self._encode(Z).reshape(shape)

    def _raw_neg(self, I):
        I = np.asarray(I)
        if self.p == 2:
            return I
        return self._encode((-self._decode(I.reshape(-1))) % self.p).reshape(I.shape)

    def generator_labels(self):
        out = {}
        for m, label in enumerate(self.labels):
            if label == "1":
                continue
            vec = np.zeros(self.dim, dtype=np.int64)
            vec[m] = 1
            out[label] = int(self._encode(vec))
        return out

    def additive_generator_indices(self):
        return self._powers.copy()  # basis vectors: one coefficient set to 1

    def scale_index(self, c, i):
        return int(self._encode((c * self._decode(np.int64(i))) % self.p))

    def try_inverse(self, i):
        # right inverse first: solve (Σ u_m b_m)·w = 1 as a linear system
        u = self._decode(np.int64(i))
        lhs = np.einsum("i,ijk->jk", u, self.tensor) % self.p  # maps w-coeffs
        one = np.asarray(self.unity, dtype=np.int64)
        w = gfmatrix.solve(lhs.T, one, self.p)
        if w is None:
            return None
        j = int(self._encode(w % self.p))
        if int(self.idx_mul(j, i)) != self._one_index:
            return None
        return j


# ---------------------------------------------------------------------------
# constructors


def build_zmod(n: int, enumeration_budget: int = DEFAULT_BUDGET) -> ZmodRing:
    """The ring of integers modulo n."""
    if not isinstance(n, int) or n < 2:
        raise InvalidModulus(f"modulus must be an integer >= 2, got {n!r}")
    return ZmodRing(n, enumeration_budget)


def build_matrix_ring(k: int, q: int,
                      enumeration_budget: int = DEFAULT_BUDGET) -> MatrixRing:
    """The ring of k-by-k matrices over GF(q), q prime, 1 <= k <= 9.

    The upper bound keeps the e{row}{col} generator labels unambiguous;
    rings beyond it would be far past any enumeration budget anyway.
    """
    if not isinstance(k, int) or not 1 <= k <= 9:
        raise InvalidModulus(f"matrix dimension must be an integer in 1..9, got {k!r}")
    if not _is_prime(q):
        raise InvalidModulus(f"field order must be prime, got {q!r}")
    return MatrixRing(k, q, enumeration_budget)


def build_table_algebra(p: int, basis: Sequence[str], unity: Sequence[int],
                        constants, enumeration_budget: int = DEFAULT_BUDGET) -> TableRing:
    """A finite-dimensional algebra over GF(p) from structure constants.

    constants: either a dense dim^3 array c[i][j][k], or a sparse list of
    [i, j, k, c] quadruples with omitted entries zero.  Associativity is
    checked in full for dimension <= 16 and unity is always checked.
    """
    if not _is_prime(p):
        raise InvalidModulus(f"base characteristic must be prime, got {p!r}")
    dim = len(basis)
    if dim == 0:
        raise BadTensorShape("basis must be nonempty")
    if len(set(basis)) != dim:
        raise BadTensorShape("basis labels must be distinct")
    for label in basis:
        if label != "1" and not parsing.LABEL_RE.fullmatch(label):
            raise BadTensorShape(f"bad basis label {label!r}")
    if len(unity) != dim:
        raise BadTensorShape("unity vector length must match basis size")

    if isinstance(constants, np.ndarray):
        if constants.shape != (dim, dim, dim):
            raise BadTensorShape(
                f"dense tensor must have shape {(dim, dim, dim)}, got {constants.shape}")
        tensor = constants.astype(np.int64) % p
    else:
        tensor = np.zeros((dim, dim, dim), dtype=np.int64)
        for entry in constants:
            if len(entry) != 4:
                raise BadTensorShape(f"sparse entry must be [i,j,k,c], got {entry!r}")
            i, j, k, c = (int(v) for v in entry)
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise BadTensorShape(f"index out of range in entry {entry!r}")
            tensor[i, j, k] = c % p

    # associativity: sum_m c[i,j,m] c[m,l,k] == sum_m c[j,l,m] c[i,m,k]
    if dim <= 16:
        left = np.einsum("ijm,mlk->ijlk", tensor, tensor) % p
        right = np.einsum("jlm,imk->ijlk", tensor, tensor) % p
        bad = np.argwhere((left != right).any(axis=3))
        if len(bad):
            i, j, l = (int(v) for v in bad[0])
            raise NotAssociative(
                f"(b{i}·b{j})·b{l} != b{i}·(b{j}·b{l})", triple=(i, j, l))

    u = np.asarray([int(v) % p for v in unity], dtype=np.int64)
    left_mul = np.einsum("i,ijk->jk", u, tensor) % p
    right_mul = np.einsum("j,ijk->ik", u, tensor) % p
    if not (np.array_equal(left_mul, np.eye(dim, dtype=np.int64))
            and np.array_equal(right_mul, np.eye(dim, dtype=np.int64))):
        raise NoUnity("declared unity is not a two-sided identity")

    ring = TableRing(p, basis, unity, tensor, enumeration_budget)
    if "1" in basis:
        pos = basis.index("1")
        vec = np.zeros(dim, dtype=np.int64)
        vec[pos] = 1
        if int(vec @ ring._powers) != ring._one_index:
            raise BadTensorShape('basis label "1" must denote the unity element')
    return ring


# ---------------------------------------------------------------------------
# module-level helpers


def is_regular(a: Elem) -> Optional[Elem]:
    """Some a0 with a·a0·a = a, or None.

    Matrix rings get a constructive (rank-factorization) witness with no
    enumeration; other backends scan in canonical order.
    """
    ring = a.ring
    if ring.kind == "matrix":
        g = gfmatrix.inner_inverse_matrix(ring.matrix_of(a), ring.q)
        return ring.element(g)
    ring.ensure_enumerable()
    idx = ring.all_indices()
    ax = ring.idx_mul(a.index, idx)
    axa = ring.idx_mul(ax, a.index)
    hits = np.nonzero(axa == a.index)[0]
    if len(hits) == 0:
        return None
    return Elem(ring, int(hits[0]))


def regular_elements(ring: Ring) -> ElemSet:
    """Reg(R) = {a : a x a = a for some x}."""
    ring.ensure_enumerable()
    if ring.kind == "matrix":
        # constructive: every matrix over a field is regular
        return ElemSet(ring, np.arange(ring.size, dtype=np.int64))
    if ring.has_tables():
        mul, _, _ = ring._tables()
        idx = ring.all_indices()
        prod = mul[mul, idx[:, None]]  # prod[a, x] = (a·x)·a
        mask = (prod == idx[:, None]).any(axis=1)
        return ElemSet.from_indices(ring, idx[mask])
    # large non-matrix ring: quadratic scan would blow the budget
    raise TableCapExceeded(ring.size, TABLE_CAP)


class SemiprimeVerdict(NamedTuple):
    semiprime: bool
    witness: Optional[Elem]


def is_semiprime(ring: Ring) -> SemiprimeVerdict:
    """True iff no nonzero a has a·t·a = 0 for all t.

    a R a = 0 is linear in t, so t ranges over additive generators only.
    The witness, when present, is the first such a in canonical order.
    """
    ring.ensure_enumerable()
    idx = ring.all_indices()
    mask = np.ones(ring.size, dtype=bool)
    for g in ring.additive_generator_indices():
        ag = ring.idx_mul(idx, int(g))
        aga = ring.idx_mul(ag, idx)
        mask &= aga == 0
    mask[0] = False
    hits = np.nonzero(mask)[0]
    if len(hits):
        return SemiprimeVerdict(False, Elem(ring, int(hits[0])))
    return SemiprimeVerdict(True, None)


def squarefree(n: int) -> bool:
    """Exact integer-factorization check, used to cross-check is_semiprime."""
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        while n % d == 0:
            n //= d
        d += 1
    return True
