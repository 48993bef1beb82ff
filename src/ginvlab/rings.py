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
Either way idx_mul, idx_add, idx_neg and idx_sub accept operands of any
integer dtype and return int64 of the broadcast shape: the tables are
uint16 storage that only this module reads, cast at the gather.

Z/n computes in int64, so it refuses a modulus whose residue products
could pass 2^63 (n > 3037000500) with InvalidModulus.

Matrix rings and odd-p table algebras share one digit kernel
(_DigitRing): an index splits once into its base-q digits, digit o of a
product is the sum of c·x_i·y_j over the ring's nonzero structure
constants c = c[i][j][o] (the k^3 terms E_rj·E_jc = E_rc of M_k(GF(q))),
reduced mod q once, and the digits are re-encoded with multiply-adds.
It is exact while q^n <= 2^63 and no digit sum can pass 2^63; past that
the ring still builds, and the first use of an element raises
InvalidModulus.

Over GF(2) a table algebra's index is a bitmask of basis coefficients, so
addition is XOR, and a product is the XOR of a few lookups into
precomputed products of bit chunks (TableRing._chunk_tables): 4 lookups
into 512 KB of tables for dim 13, and at most 2 MB of tables for any
dim <= 20.
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


# Miller–Rabin with these bases decides every n below _PRIME_LIMIT exactly
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _int64_exact(q: int, terms: int) -> bool:
    """Whether any sum of `terms` products of two residues mod q stays
    below 2^63, so that int64 arithmetic computes it exactly."""
    return terms * (q - 1) ** 2 < 1 << 63


def _is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin; n at or above _PRIME_LIMIT raises InvalidModulus."""
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    if n >= _PRIME_LIMIT:
        raise InvalidModulus(f"cannot decide whether {n} is prime; "
                             f"the limit is {_PRIME_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_int(value) -> bool:
    """True for Python and numpy integers; bools are not integers here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        self._semiprime = None

    # --- identity ----------------------------------------------------

    def descriptor(self) -> tuple:
        raise NotImplementedError

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
    # Operands may have any integer dtype; each kernel converts them to
    # int64 once and returns int64.

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
            for rows in _row_blocks(n, n):
                mul[rows] = self._raw_mul(idx[rows, None], idx[None, :])
                add[rows] = self._raw_add(idx[rows, None], idx[None, :])
            self._mul_table = mul
            self._add_table = add
            self._neg_table = self._raw_neg(idx).astype(dtype)
        return self._mul_table, self._add_table, self._neg_table

    def all_indices(self) -> np.ndarray:
        if self._all is None:
            self._all = np.arange(self.size, dtype=np.int64)
        return self._all

    # --- uniform index arithmetic ---------------------------------------

    # Every idx_* result is int64, of the operands' broadcast shape (an
    # int64 scalar or 0-d array for scalar operands), whatever the integer
    # dtype of the operands; the uint16 op tables never leave this module.

    def idx_mul(self, I, J):
        if self.has_tables():
            return self._tables()[0][I, J].astype(np.int64)
        return self._raw_mul(I, J)

    def idx_add(self, I, J):
        if self.has_tables():
            return self._tables()[1][I, J].astype(np.int64)
        return self._raw_add(I, J)

    def idx_neg(self, I):
        if self.has_tables():
            return self._tables()[2][I].astype(np.int64)
        return self._raw_neg(I)

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

    def ensure_enumerable(self):
        if self.size > self.enumeration_budget:
            raise BudgetExceeded(self.size, self.enumeration_budget)

    def elements(self) -> Iterator["Elem"]:
        self.ensure_enumerable()
        return (Elem(self, i) for i in range(self.size))

    # --- units -------------------------------------------------------------

    def unit_indices(self) -> np.ndarray:
        """Indices of all units, from the op tables; cached.

        Subclasses may avoid the table scan.
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
            self._units = cand[two_sided]
        return self._units


def _row_blocks(count: int, width: int) -> Iterator[slice]:
    """Slices over range(count) in blocks of max(1, _CHUNK // width) rows,
    so that a block gathered against `width` columns holds at most
    max(_CHUNK, width) entries."""
    step = max(1, _CHUNK // width)
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _distinct(ring: Ring, blocks) -> np.ndarray:
    """Sorted distinct int64 indices over an iterable of index blocks.

    This is the one way ring indices are deduplicated: a boolean mask over
    range(|R|) collects every block, so the cost is linear in the input
    plus |R|, no sort runs, and the op tables play no part.  The mask
    spans the ring, so the ring must be enumerable (BudgetExceeded
    otherwise).
    """
    ring.ensure_enumerable()
    mask = np.zeros(ring.size, dtype=bool)
    for block in blocks:
        mask[block] = True
    return np.flatnonzero(mask)


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
        """The distinct indices given, through _distinct's ring mask."""
        if not isinstance(indices, np.ndarray):
            indices = np.fromiter(indices, dtype=np.int64)
        return cls(ring, _distinct(ring, [indices]))

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
        if not _int64_exact(n, 1):
            raise InvalidModulus(
                f"Z/{n} multiplies residues up to {(n - 1) ** 2}, past int64 "
                f"(2^63); the modulus must be at most 3037000500")
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
        I, J = np.asarray(I, dtype=np.int64), np.asarray(J, dtype=np.int64)
        return I * J % self.n

    def _raw_add(self, I, J):
        I, J = np.asarray(I, dtype=np.int64), np.asarray(J, dtype=np.int64)
        return (I + J) % self.n

    def _raw_neg(self, I):
        return -np.asarray(I, dtype=np.int64) % self.n

    def additive_generator_indices(self):
        return np.asarray([self._one_index], dtype=np.int64)

    def scale_index(self, c, i):
        return (c * i) % self.n

    def unit_indices(self):
        idx = self.all_indices()
        return idx[np.gcd(idx, self.n) == 1]


# ---------------------------------------------------------------------------
# digit kernel, shared by the matrix and structure-constant backends


def _buffers(*shapes):
    """A zeroed result and two scratch int64 arrays of the broadcast shape."""
    shape = np.broadcast_shapes(*shapes)
    return (np.zeros(shape, dtype=np.int64), np.empty(shape, dtype=np.int64),
            np.empty(shape, dtype=np.int64))


class _DigitRing(Ring):
    """Elements as n digits in [0, q), indexed base q, most significant first.

    terms[o] lists the (i, j, c) with c = c[i][j][o] != 0, so digit o of
    x·y is sum(c·x_i·y_j) mod q.  The products sum in int64 and reduce
    once, which is exact while q^n <= 2^63 (every index fits) and
    max_o sum(c)·(q-1)^2 < 2^63; otherwise _powers, and with it every
    use of an element, raises InvalidModulus.
    """

    def __init__(self, q: int, n: int, terms, one_digits,
                 enumeration_budget: int):
        super().__init__(q ** n, q, enumeration_budget)
        self._ndigits = n
        self._terms = terms
        self._one_index = sum(int(d) * q ** (n - 1 - m)
                              for m, d in enumerate(one_digits))
        self._digit_powers = None

    def _exactness_error(self) -> Optional[str]:
        q, n = self.char, self._ndigits
        if q ** n > 1 << 63:
            return (f"{self.kind} ring has {q}^{n} elements; "
                    f"indices must fit in int64 (at most 2^63)")
        terms = max(sum(c for _, _, c in t) for t in self._terms)
        if not _int64_exact(q, terms):
            return (f"{self.kind} ring over GF({q}) sums digit products up to "
                    f"{terms * (q - 1) ** 2}, past int64 (2^63)")
        return None

    @property
    def _powers(self) -> np.ndarray:
        """q^(n-1), ..., q, 1 as int64, once the arithmetic is known exact."""
        if self._digit_powers is None:
            error = self._exactness_error()
            if error is not None:
                raise InvalidModulus(error)
            self._digit_powers = self.char ** np.arange(
                self._ndigits - 1, -1, -1, dtype=np.int64)
        return self._digit_powers

    def _digits(self, I: np.ndarray) -> np.ndarray:
        """(n,) + I.shape int64 array of I's digits, most significant first."""
        powers = self._powers.tolist()
        out = np.empty((len(powers),) + I.shape, dtype=np.int64)
        for m, power in enumerate(powers):
            np.floor_divide(I, power, out=out[m, ...])  # I // q^(n-1-m)
        out[1:] -= self.char * out[:-1]
        return out

    def _fold(self, out, digit, scratch):
        """out = out·q + digit mod q, in place; clobbers digit and scratch.

        numpy divides by a scalar several times faster than it takes %,
        and writing into buffers avoids fresh allocations.
        """
        np.floor_divide(digit, self.char, out=scratch)
        scratch *= self.char
        digit -= scratch
        out *= self.char
        out += digit

    def _int_digits(self, i) -> list:
        """The digits of a 0-d index as Python ints, most significant first."""
        i = int(i)
        return [i // power % self.char for power in self._powers.tolist()]

    def _int_index(self, sums) -> np.ndarray:
        """The index whose digits are the given Python-int sums mod q."""
        acc = 0
        for s in sums:
            acc = acc * self.char + s % self.char
        return np.asarray(acc, dtype=np.int64)

    # One product or sum of two elements (Elem arithmetic) runs on Python
    # ints: the array kernel makes O(n + terms) numpy calls whatever the size.

    def _raw_mul(self, I, J):
        I, J = np.asarray(I, dtype=np.int64), np.asarray(J, dtype=np.int64)
        if I.ndim == J.ndim == 0:
            x, y = self._int_digits(I), self._int_digits(J)
            return self._int_index(sum(c * x[i] * y[j] for i, j, c in terms)
                                   for terms in self._terms)
        X, Y = self._digits(I), self._digits(J)
        out, acc, part = _buffers(I.shape, J.shape)
        for terms in self._terms:
            acc[...] = 0
            for i, j, c in terms:
                np.multiply(X[i], Y[j], out=part)
                if c != 1:
                    part *= c
                acc += part
            self._fold(out, acc, part)
        return out

    def _raw_add(self, I, J):
        I, J = np.asarray(I, dtype=np.int64), np.asarray(J, dtype=np.int64)
        if I.ndim == J.ndim == 0:
            return self._int_index(x + y for x, y in
                                   zip(self._int_digits(I), self._int_digits(J)))
        out, acc, part = _buffers(I.shape, J.shape)
        for x, y in zip(self._digits(I), self._digits(J)):
            np.add(x, y, out=acc)
            self._fold(out, acc, part)
        return out

    def _raw_neg(self, I):
        I = np.asarray(I, dtype=np.int64)
        if I.ndim == 0:
            return self._int_index(-x for x in self._int_digits(I))
        out, acc, part = _buffers(I.shape)
        for x in self._digits(I):
            np.negative(x, out=acc)
            self._fold(out, acc, part)
        return out

    def additive_generator_indices(self):
        return self._powers.copy()  # one digit set to 1: matrix units, basis

    def scale_index(self, c, i):
        return int(self._int_index(c * d for d in self._int_digits(i)))


# ---------------------------------------------------------------------------
# matrix backend


class MatrixRing(_DigitRing):
    """k-by-k matrices over GF(q), q prime, on the digit kernel.

    Digit r·k + c is entry (r, c), row-major.  A product has the k^3
    terms E_rj·E_jc = E_rc, so it is exact while q^(k^2) <= 2^63 and
    k·(q-1)^2 < 2^63; M_8(GF(2)) and M_1 over a 62-bit prime build but
    refuse element use.
    """

    kind = "matrix"

    def __init__(self, k: int, q: int, enumeration_budget: int = DEFAULT_BUDGET):
        terms = [[(r * k + j, j * k + c, 1) for j in range(k)]
                 for r in range(k) for c in range(k)]
        eye = [int(r == c) for r in range(k) for c in range(k)]
        super().__init__(q, k * k, terms, eye, enumeration_budget)
        self.k = k
        self.q = q

    def descriptor(self):
        return ("matrix", self.k, self.q)

    def payload_of_index(self, i):
        d, k = self._int_digits(i), self.k
        return tuple(tuple(d[r * k:r * k + k]) for r in range(k))

    def index_of_payload(self, payload):
        arr = np.asarray(payload, dtype=np.int64) % self.q
        if arr.shape != (self.k, self.k):
            raise BadTensorShape(f"expected a {self.k}x{self.k} grid")
        return int(self._int_index(arr.ravel().tolist()))

    def matrix_of(self, e: Elem) -> np.ndarray:
        return np.reshape(self._int_digits(e.index), (self.k, self.k))

    def generator_labels(self):
        if self.k > 9:
            return {}
        k, powers = self.k, self._powers.tolist()
        return {f"e{r + 1}{c + 1}": powers[r * k + c]
                for r in range(k) for c in range(k)}


# ---------------------------------------------------------------------------
# structure-constant backend


class TableRing(_DigitRing):
    """A GF(p)-algebra given by structure constants c[i][j][k].

    Digit m is the coefficient of basis element m.  Over GF(2) products
    go through chunk-pair product tables, built once per ring on the first
    product, and addition is XOR.  Odd p uses the digit kernel with the
    nonzero c[i][j][k] as terms, exact while p^dim <= 2^63 (checked when
    the algebra is built) and max_k sum_ij c[i][j][k]·(p-1)^2 < 2^63
    (checked on the first use of an element).
    """

    kind = "table"

    def __init__(self, p: int, labels: Sequence[str], unity: Sequence[int],
                 tensor: np.ndarray, enumeration_budget: int = DEFAULT_BUDGET):
        dim = len(labels)
        terms = [[] for _ in range(dim)]
        nonzero = np.nonzero(tensor)
        for i, j, o, c in zip(*(v.tolist() for v in nonzero),
                              tensor[nonzero].tolist()):
            terms[o].append((i, j, c))
        unity = tuple(int(u) % p for u in unity)
        super().__init__(p, dim, terms, unity, enumeration_budget)
        self.p = p
        self.dim = dim
        self.labels = tuple(labels)
        self.unity = unity
        self.tensor = tensor  # dim x dim x dim, entries in [0, p)
        self._chunk_products = None

    def descriptor(self):
        return ("table", self.p, self.labels, self.unity, self.tensor.tobytes())

    def payload_of_index(self, i):
        return tuple(self._int_digits(i))

    def index_of_payload(self, payload):
        vec = np.asarray(payload, dtype=np.int64) % self.p
        if vec.shape != (self.dim,):
            raise BadTensorShape(f"expected a coefficient vector of length {self.dim}")
        return int(self._int_index(vec.tolist()))

    def _chunk_tables(self):
        """GF(2) chunk-pair product tables; built on the first product.

        Returns (tables, w, nc).  An index is a dim-bit mask, bit b standing
        for basis element dim-1-b.  It splits into nc = ceil(dim/8) chunks
        of w = ceil(dim/nc) bits, least significant first, and
        tables[c·nc + e][x·2^w + y] = (x << c·w)·(y << e·w).  The product
        is bilinear, so each entry is an XOR of basis products.
        """
        if self._chunk_products is None:
            d = self.dim
            nc = -(-d // 8)
            w = -(-d // nc)
            basis = self.tensor @ self._powers  # [i, j] = mask of b_i·b_j
            bits = np.zeros((nc * w, nc * w), dtype=np.int64)
            bits[:d, :d] = basis[::-1, ::-1]  # [a, b] = (1 << a)·(1 << b)
            bits = bits.reshape(nc, w, nc, w)
            # rows[c, a, e, y] = (1 << c·w + a)·(y << e·w), one bit of y at a time
            rows = np.zeros((nc, w, nc, 1 << w), dtype=np.int64)
            for b in range(w):
                rows[..., 1 << b:2 << b] = rows[..., :1 << b] ^ bits[..., b, None]
            tables = np.zeros((nc, nc, 1 << w, 1 << w), dtype=np.int64)
            for a in range(w):
                tables[:, :, 1 << a:2 << a] = (tables[:, :, :1 << a]
                                               ^ rows[:, a, :, None, :])
            self._chunk_products = (tables.reshape(nc * nc, -1), w, nc)
        return self._chunk_products

    def _raw_mul(self, I, J):
        if self.p == 2:
            # XOR over the chunk pairs of I and J of one table lookup each
            tables, w, nc = self._chunk_tables()
            I = np.asarray(I, dtype=np.int64)
            J = np.asarray(J, dtype=np.int64)
            low = (1 << w) - 1
            rows = [(I >> c * w & low) << w for c in range(nc)]
            cols = [J >> e * w & low for e in range(nc)]
            shape = np.broadcast_shapes(I.shape, J.shape)
            acc = np.empty(shape, dtype=np.int64)
            key = np.empty(shape, dtype=np.int64)
            part = np.empty(shape, dtype=np.int64)
            for c, row in enumerate(rows):
                for e, col in enumerate(cols):
                    np.add(row, col, out=key)
                    table = tables[c * nc + e]
                    # keys are in range by construction; "clip" skips a copy
                    if c == e == 0:
                        table.take(key, out=acc, mode="clip")
                    else:
                        table.take(key, out=part, mode="clip")
                        acc ^= part
            return acc
        return super()._raw_mul(I, J)

    def _raw_add(self, I, J):
        if self.p == 2:
            return np.asarray(I, dtype=np.int64) ^ np.asarray(J, dtype=np.int64)
        return super()._raw_add(I, J)

    def _raw_neg(self, I):
        if self.p == 2:
            return np.array(I, dtype=np.int64)  # a copy: never the operand
        return super()._raw_neg(I)

    def generator_labels(self):
        return {label: power for label, power
                in zip(self.labels, self._powers.tolist()) if label != "1"}


# ---------------------------------------------------------------------------
# constructors


def build_zmod(n: int, enumeration_budget: int = DEFAULT_BUDGET) -> ZmodRing:
    """The ring of integers modulo n."""
    if not _is_int(n) or n < 2:
        raise InvalidModulus(f"modulus must be an integer >= 2, got {n!r}")
    return ZmodRing(int(n), enumeration_budget)


def build_matrix_ring(k: int, q: int,
                      enumeration_budget: int = DEFAULT_BUDGET) -> MatrixRing:
    """The ring of k-by-k matrices over GF(q), q prime, 1 <= k <= 9.

    The upper bound keeps the e{row}{col} generator labels unambiguous;
    rings beyond it would be far past any enumeration budget anyway.
    """
    if not _is_int(k) or not 1 <= k <= 9:
        raise InvalidModulus(f"matrix dimension must be an integer in 1..9, got {k!r}")
    if not _is_int(q) or not _is_prime(int(q)):
        raise InvalidModulus(f"field order must be prime, got {q!r}")
    return MatrixRing(int(k), int(q), enumeration_budget)


def _strict_int(value, what: str) -> int:
    """value as an int; bools, floats and other types are refused, not cut."""
    if not _is_int(value):
        raise BadTensorShape(f"{what} must be an integer, got {value!r}")
    return int(value)


def build_table_algebra(p: int, basis: Sequence[str], unity: Sequence[int],
                        constants, enumeration_budget: int = DEFAULT_BUDGET) -> TableRing:
    """A finite-dimensional algebra over GF(p) from structure constants.

    constants: either a dense dim^3 array c[i][j][k], or a sparse list of
    [i, j, k, c] quadruples with omitted entries zero.  Associativity and
    unity are always checked in full.  p**dim must be at most 2^63, so
    that every index fits in an int64.
    """
    if not _is_int(p) or not _is_prime(int(p)):
        raise InvalidModulus(f"base characteristic must be prime, got {p!r}")
    p = int(p)
    dim = len(basis)
    if dim == 0:
        raise BadTensorShape("basis must be nonempty")
    if p ** dim > 1 << 63:
        raise InvalidModulus(
            f"algebra has {p}^{dim} elements; indices must fit in int64 (at most 2^63)")
    for label in basis:
        if label != "1" and not (isinstance(label, str)
                                 and parsing.LABEL_RE.fullmatch(label)):
            raise BadTensorShape(f"bad basis label {label!r}")
    if len(set(basis)) != dim:
        raise BadTensorShape("basis labels must be distinct")
    if len(unity) != dim:
        raise BadTensorShape("unity vector length must match basis size")
    unity = [_strict_int(v, "unity entry") for v in unity]

    if isinstance(constants, np.ndarray):
        if constants.shape != (dim, dim, dim):
            raise BadTensorShape(
                f"dense tensor must have shape {(dim, dim, dim)}, got {constants.shape}")
        if constants.dtype.kind not in "iu":
            raise BadTensorShape(
                f"dense tensor must have an integer dtype, got {constants.dtype}")
        tensor = constants.astype(np.int64) % p
    else:
        tensor = np.zeros((dim, dim, dim), dtype=np.int64)
        for entry in constants:
            if not isinstance(entry, (list, tuple, np.ndarray)) or len(entry) != 4:
                raise BadTensorShape(f"sparse entry must be [i,j,k,c], got {entry!r}")
            i, j, k, c = (_strict_int(v, "sparse entry value") for v in entry)
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise BadTensorShape(f"index out of range in entry {entry!r}")
            tensor[i, j, k] = c % p

    # the checks sum dim products of constants: past int64, use Python ints
    exact = tensor if _int64_exact(p, dim) else tensor.astype(object)
    # associativity: sum_m c[i,j,m] c[m,l,k] == sum_m c[j,l,m] c[i,m,k]
    left = np.einsum("ijm,mlk->ijlk", exact, exact) % p
    right = np.einsum("jlm,imk->ijlk", exact, exact) % p
    bad = np.argwhere((left != right).any(axis=3))
    if len(bad):
        i, j, l = (int(v) for v in bad[0])
        raise NotAssociative(
            f"(b{i}·b{j})·b{l} != b{i}·(b{j}·b{l})", triple=(i, j, l))

    u = np.asarray(unity, dtype=exact.dtype) % p
    left_mul = np.einsum("i,ijk->jk", u, exact) % p
    right_mul = np.einsum("j,ijk->ik", u, exact) % p
    if not (np.array_equal(left_mul, np.eye(dim, dtype=np.int64))
            and np.array_equal(right_mul, np.eye(dim, dtype=np.int64))):
        raise NoUnity("declared unity is not a two-sided identity")

    ring = TableRing(p, basis, unity, tensor, enumeration_budget)
    if "1" in basis:
        pos = basis.index("1")
        if ring.unity != tuple(int(m == pos) for m in range(dim)):
            raise BadTensorShape('basis label "1" must denote the unity element')
    return ring


# ---------------------------------------------------------------------------
# module-level helpers


def is_regular(a: Elem) -> Optional[Elem]:
    """Some a0 with a·a0·a = a, or None.

    Matrix rings get a constructive witness (one row reduction) with no
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
        return ElemSet(ring, np.flatnonzero(mask))
    # large non-matrix ring: quadratic scan would blow the budget
    raise TableCapExceeded(ring.size, TABLE_CAP)


class SemiprimeVerdict(NamedTuple):
    semiprime: bool
    witness: Optional[Elem]


def is_semiprime(ring: Ring) -> SemiprimeVerdict:
    """True iff no nonzero a has a·t·a = 0 for all t.

    The first scan's witness index is kept on the ring, as unit_indices
    keeps the units, so the suite and the report header share one scan.
    An index, not an Elem: an Elem would refer back to the ring, and that
    cycle would keep every checked ring and its op tables alive until the
    garbage collector next ran.
    """
    if ring._semiprime is None:
        ring._semiprime = _semiprime_scan(ring)
    w = ring._semiprime
    return SemiprimeVerdict(w < 0, None if w < 0 else Elem(ring, w))


def _semiprime_scan(ring: Ring) -> int:
    """The first nonzero a in canonical order with a·R·a = 0, or -1.

    a R a = 0 is linear in t, so t ranges over additive generators only.
    """
    ring.ensure_enumerable()
    idx = ring.all_indices()
    mask = np.ones(ring.size, dtype=bool)
    for g in ring.additive_generator_indices():
        ag = ring.idx_mul(idx, int(g))
        aga = ring.idx_mul(ag, idx)
        mask &= aga == 0
    mask[0] = False
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else -1
