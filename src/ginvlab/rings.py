"""Finite ring backends with exact arithmetic and canonical indexing.

Two backends: integers mod n (ZmodRing), and finite-dimensional
structure-constant algebras over a prime field (TableRing).  k-by-k
matrices over GF(q) are the table algebra on the matrix units
(MatrixRing, a thin TableRing subclass).  An element has one encoding,
its canonical index in [0, |R|): the residue in Z/n, and in a table
algebra the base-p number whose digits are its basis coefficients, most
significant first (for matrices the row-major entries; TableRing.digits
decodes it).  Text goes through parsing (parse_element, render_elem).
The index order is the canonical order used by sets and reports.

Arithmetic is exposed two ways: Elem objects with operator overloading,
and vectorized numpy operations on index arrays for scan-heavy set
computations.  Each backend has two vectorized kernels, a product and a
sum (raw arithmetic), for arrays and 0-d operands alike; -x is x·(-1),
so negation and subtraction go through the product.  Products run raw
until build_tables() builds the |R|^2 product table, which then answers
by one flat take on the raveled table, key I*|R| + J.  The table pays
only for quadratic work, so only theoremlab's _Scan and regular_elements
build it, and only on rings of at most TABLE_CAP elements, Z/n
included.  Sums always run raw, and single queries too.
The set kernels read whole-ring rows a*R and R*a from mul_rows: rows or
columns of the product table, or one broadcast raw product.  idx_*() and
mul_rows take any integer dtype and return int64 (the uint16 table stays
here).
_inner_rows, the one scan of a*x*a = a over R, gives I(a), Reg(R), Ref(a)
and is_regular's witness, on every backend.

Z/n computes in int64, so it refuses a modulus whose residue products
could pass 2^63 (n > 3037000500) with InvalidModulus.

TableRing has one kernel per characteristic.  For odd p an index splits
once into its base-p digits, digit o of a product is the sum of c·x_i·y_j
over the ring's nonzero structure constants c = c[i][j][o] (the k^3 terms
e_rj·e_jc = e_rc of M_k(GF(q))), reduced mod p once, and the digits are
re-encoded with multiply-adds.  It is exact while p^dim <= 2^63 and no
digit sum can pass 2^63; past that the ring still builds, and the first
use of an element raises InvalidModulus.

Over GF(2) the index is a bitmask of basis coefficients, so addition is
XOR, and a product is the XOR of a few lookups into precomputed products
of bit chunks (TableRing._chunk_tables): 4 lookups into 512 KB of tables
for dim 13, and at most 2 MB of tables for any dim <= 20.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import parsing
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
# The product table (built by build_tables) and exhaustive pair
# quantification up to this size.
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
    """Base class; subclasses fill in raw arithmetic on indices."""

    kind = "abstract"

    def __init__(self, size: int, char: int, enumeration_budget: int):
        self.size = size
        self.char = char
        self.enumeration_budget = enumeration_budget
        self._mul_table = None
        self._all = None
        self._units = None
        self._semiprime = None
        self._minus_one = None

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

    # --- raw vectorized index arithmetic (subclass; no tables) ---------
    # Operands may have any integer dtype; each kernel converts them to
    # int64 once and returns int64.

    def _raw_mul(self, I, J):
        raise NotImplementedError

    def _raw_add(self, I, J):
        raise NotImplementedError

    # --- table management ----------------------------------------------

    def build_tables(self) -> None:
        """Build the product table once, if the ring has at most TABLE_CAP
        elements, on every backend; larger rings stay on raw arithmetic.
        A table row copy beats even a Z/n residue product.  Sums always run
        raw: a table of them costs about what it saves.  Negations are
        products by -1, so they read the table too.

        Building costs |R|^2 products, which only a quadratic scan earns
        back, so only _Scan and regular_elements call this.
        """
        if self.size <= TABLE_CAP:
            self._tables()

    def _tables(self) -> np.ndarray:
        """The (|R|, |R|) product table, built on the first call."""
        if self._mul_table is None:
            n = self.size
            idx = self.all_indices()
            mul = np.empty((n, n), dtype=np.uint16 if n <= 0xFFFF else np.int64)
            for rows in _row_blocks(n, n):
                mul[rows] = self._raw_mul(idx[rows, None], idx[None, :])
            self._mul_table = mul
        return self._mul_table

    def all_indices(self) -> np.ndarray:
        if self._all is None:
            self._all = np.arange(self.size, dtype=np.int64)
        return self._all

    # --- uniform index arithmetic ---------------------------------------

    # Every idx_* result is int64, of the operands' broadcast shape (an
    # int64 scalar or 0-d array for scalar operands), whatever the integer
    # dtype of the operands; the uint16 product table never leaves this
    # module.  Only idx_mul and mul_rows read it (idx_neg and idx_sub through
    # idx_mul): sums run raw.

    def idx_mul(self, I, J):
        if self._mul_table is not None:
            return _gather(self._mul_table, I, J)
        return self._raw_mul(I, J)

    def idx_add(self, I, J):
        return self._raw_add(I, J)

    def idx_neg(self, I):
        """-I as I·(-1).  The index of -1 is kept after the first call; a
        ring past int64 refuses element use here, inside scale_index."""
        if self._minus_one is None:
            self._minus_one = self.scale_index(self.char - 1, self._one_index)
        return self.idx_mul(I, self._minus_one)

    def mul_rows(self, a, side: str) -> np.ndarray:
        """Row k is a_k*R (side "right") or R*a_k (side "left"): a fresh,
        C-ordered int64 (len(a), |R|) array.  The rows span the ring, so
        past the enumeration budget this raises BudgetExceeded.  With the
        product table they are its rows or columns, read whole."""
        self.ensure_enumerable()
        a, table = np.asarray(a, dtype=np.int64).reshape(-1), self._mul_table
        if table is not None:
            rows = table[a] if side == "right" else table.take(a, axis=1).T
            return rows.astype(np.int64, order="C")
        idx = self.all_indices()[None, :]
        return (self._raw_mul(a[:, None], idx) if side == "right"
                else self._raw_mul(idx, a[:, None]))

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

    # --- units -------------------------------------------------------------

    def unit_indices(self) -> np.ndarray:
        """Indices of all units, by one row-blocked scan of x·y = 1; cached.

        The scan is quadratic: rings above TABLE_CAP raise TableCapExceeded,
        rings past the budget BudgetExceeded.  It reads the product table
        if built, else runs raw, and builds none.  Subclasses may avoid the
        scan.
        """
        if self._units is None:
            if self.size > TABLE_CAP:
                raise TableCapExceeded(self.size, TABLE_CAP)
            idx, one = self.all_indices(), self._one_index
            cand, rinv = [], []
            for rows in _row_blocks(self.size, self.size):
                hit = self.mul_rows(idx[rows], "right") == one
                has_right = hit.any(axis=1)
                cand.append(idx[rows][has_right])
                rinv.append(np.argmax(hit[has_right], axis=1))
            cand, rinv = np.concatenate(cand), np.concatenate(rinv)
            # in a finite ring a one-sided inverse is two-sided; verify anyway
            self._units = cand[self.idx_mul(rinv, cand) == one]
        return self._units


def _gather(table: np.ndarray, I, J) -> np.ndarray:
    """table[I, J] as int64, by one take on the raveled table.  The flat
    key I*|R| + J is formed in int64, so uint16 operands cannot wrap, in
    the result's buffer, which the gathered entries then overwrite."""
    key = np.empty(np.broadcast_shapes(np.shape(I), np.shape(J)), np.int64)
    np.multiply(I, len(table), out=key, dtype=np.int64)
    key += J
    key[...] = table.take(key)
    return key


def _mod(x, n: int, scratch=None):
    """x mod n, in place on the fresh int64 x, as x - (x // n)*n beats x % n."""
    q = np.floor_divide(x, n, out=scratch)
    q *= n
    x -= q
    return x


def _row_blocks(count: int, width: int) -> Iterator[slice]:
    """Slices over range(count) in blocks of max(1, _CHUNK // width) rows,
    so that a block gathered against `width` columns holds at most
    max(_CHUNK, width) entries."""
    step = max(1, _CHUNK // width)
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _inner_rows(ring: Ring, a) -> Iterator[tuple[slice, np.ndarray]]:
    """The one scan of a*x*a = a over R: per row block of the index array a
    (_row_blocks), (rows, hit) with hit[k, x] whether a_k*x*a_k = a_k for
    a_k = a[rows][k], read off a_k*R (mul_rows) times a_k."""
    a = np.asarray(a, dtype=np.int64).reshape(-1, 1)
    for rows in _row_blocks(len(a), ring.size):
        # kept until the next block: freed sooner, its pages go back to the
        # system, and the next block pays to fault them in again
        axa = ring.idx_mul(ring.mul_rows(a[rows], "right"), a[rows])
        yield rows, axa == a[rows]


def _distinct(ring: Ring, blocks) -> np.ndarray:
    """Sorted distinct int64 indices over an iterable of index blocks.

    The one way ring indices are deduplicated without inverses or counts
    (np.unique gives those): a boolean mask over range(|R|) collects every
    block, so the cost is linear in the input plus |R|, no sort runs, and
    the product table plays no part.  The mask spans the ring, so the ring
    must be enumerable (BudgetExceeded otherwise).
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

    def _raw_mul(self, I, J):
        I, J = np.asarray(I, dtype=np.int64), np.asarray(J, dtype=np.int64)
        return _mod(I * J, self.n)

    def _raw_add(self, I, J):
        I, J = np.asarray(I, dtype=np.int64), np.asarray(J, dtype=np.int64)
        return _mod(I + J, self.n)

    def additive_generator_indices(self):
        return np.asarray([self._one_index], dtype=np.int64)

    def scale_index(self, c, i):
        return (c * i) % self.n

    def unit_indices(self):
        idx = self.all_indices()
        return idx[np.gcd(idx, self.n) == 1]


# ---------------------------------------------------------------------------
# structure-constant backend, and matrix rings on it


def _buffers(*shapes):
    """A zeroed result and two scratch int64 arrays of the broadcast shape."""
    shape = np.broadcast_shapes(*shapes)
    return (np.zeros(shape, dtype=np.int64), np.empty(shape, dtype=np.int64),
            np.empty(shape, dtype=np.int64))


class TableRing(Ring):
    """A GF(p)-algebra given by structure constants c[i][j][k].

    An element is dim digits in [0, p), digit m the coefficient of basis
    element m, indexed base p, most significant first.  Over GF(2) the
    index is a bitmask: products go through chunk-pair product tables,
    built once per ring on the first product, and addition is XOR.  Odd p
    uses the digit kernel: terms[o] lists the (i, j, c) with
    c = c[i][j][o] != 0, so digit o of x·y is sum(c·x_i·y_j) mod p.  The
    products sum in int64 and reduce once, which is exact while
    p^dim <= 2^63 (every index fits) and max_o sum(c)·(p-1)^2 < 2^63;
    otherwise _powers, and with it every use of an element, raises
    InvalidModulus.
    """

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
        self._terms = [[] for _ in range(dim)]
        nonzero = np.nonzero(tensor)
        for i, j, o, c in zip(*(v.tolist() for v in nonzero),
                              tensor[nonzero].tolist()):
            self._terms[o].append((i, j, c))
        self._one_index = sum(u * p ** (dim - 1 - m)
                              for m, u in enumerate(self.unity))
        self._digit_powers = None
        self._chunk_products = None

    def descriptor(self):
        return ("table", self.p, self.labels, self.unity, self.tensor.tobytes())

    # --- digit codec -------------------------------------------------------

    def _exactness_error(self) -> Optional[str]:
        p, dim = self.p, self.dim
        if p ** dim > 1 << 63:
            return (f"{self.kind} ring has {p}^{dim} elements; "
                    f"indices must fit in int64 (at most 2^63)")
        terms = max(sum(c for _, _, c in t) for t in self._terms)
        if not _int64_exact(p, terms):
            return (f"{self.kind} ring over GF({p}) sums digit products up to "
                    f"{terms * (p - 1) ** 2}, past int64 (2^63)")
        return None

    @property
    def _powers(self) -> np.ndarray:
        """p^(dim-1), ..., p, 1 as int64, once the arithmetic is known exact."""
        if self._digit_powers is None:
            error = self._exactness_error()
            if error is not None:
                raise InvalidModulus(error)
            self._digit_powers = self.p ** np.arange(
                self.dim - 1, -1, -1, dtype=np.int64)
        return self._digit_powers

    def digits(self, i) -> list:
        """The digits of index i as Python ints, most significant first."""
        i = int(i)
        return [i // power % self.p for power in self._powers.tolist()]

    def _int_index(self, sums) -> int:
        """The index whose digits are the given Python-int sums mod p; it
        reads _powers, so an element past int64 is refused here too."""
        return sum(s % self.p * power
                   for s, power in zip(sums, self._powers.tolist()))

    def _digit_arrays(self, I: np.ndarray) -> np.ndarray:
        """(dim,) + I.shape int64 array of I's digits, most significant first."""
        powers = self._powers.tolist()
        out = np.empty((len(powers),) + I.shape, dtype=np.int64)
        for m, power in enumerate(powers):
            np.floor_divide(I, power, out=out[m, ...])  # I // p^(dim-1-m)
        out[1:] -= self.p * out[:-1]
        return out

    def _fold(self, out, digit, scratch):
        """out = out·p + digit mod p, in place; clobbers digit and scratch,
        as writing into buffers avoids fresh allocations."""
        out *= self.p
        out += _mod(digit, self.p, scratch)

    # --- raw arithmetic ------------------------------------------------------

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
        I, J = np.asarray(I, dtype=np.int64), np.asarray(J, dtype=np.int64)
        if self.p == 2:
            # XOR over the chunk pairs of I and J of one table lookup each
            tables, w, nc = self._chunk_tables()
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
        X, Y = self._digit_arrays(I), self._digit_arrays(J)
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
        if self.p == 2:
            return I ^ J
        out, acc, part = _buffers(I.shape, J.shape)
        for x, y in zip(self._digit_arrays(I), self._digit_arrays(J)):
            np.add(x, y, out=acc)
            self._fold(out, acc, part)
        return out

    def generator_labels(self):
        return {label: power for label, power
                in zip(self.labels, self._powers.tolist()) if label != "1"}

    def additive_generator_indices(self):
        return self._powers.copy()  # one digit set to 1: the basis

    def scale_index(self, c, i):
        return self._int_index(c * d for d in self.digits(i))


class MatrixRing(TableRing):
    """k-by-k matrices over GF(q), q prime: the GF(q)-algebra on the matrix
    units e_rc, with e_rj·e_jc = e_rc.

    Digit r·k + c is entry (r, c), row-major, labelled e{r+1}{c+1}.  The
    kernel is exact while q^(k^2) <= 2^63 and k·(q-1)^2 < 2^63;
    M_8(GF(2)) and M_1 over a 62-bit prime build but refuse element use.
    The ring is simple, hence semiprime: the verdict is preset, not scanned.
    """

    kind = "matrix"

    def __init__(self, k: int, q: int, enumeration_budget: int = DEFAULT_BUDGET):
        units = np.zeros((k,) * 6, dtype=np.int64)  # [r, j, j', c, r', c']
        r, j, c = np.indices((k, k, k))
        units[r, j, j, c, r, c] = 1
        labels = [f"e{r + 1}{c + 1}" for r in range(k) for c in range(k)]
        super().__init__(q, labels, np.eye(k, dtype=np.int64).ravel(),
                         units.reshape((k * k,) * 3), enumeration_budget)
        self.k = k
        self.q = q
        self._semiprime = -1

    def descriptor(self):
        return ("matrix", self.k, self.q)


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
    # associativity: sum_m c[i,j,m] c[m,l,k] == sum_m c[j,l,m] c[i,m,k],
    # both sides as (i, j, l, k) arrays from one matmul each
    pairs, quad = exact.reshape(dim * dim, dim), (dim,) * 4
    left = (pairs @ exact.reshape(dim, -1)).reshape(quad) % p
    right = (pairs @ exact.transpose(1, 0, 2).reshape(dim, -1)).reshape(
        quad).transpose(2, 0, 1, 3) % p
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
    """The least a0 with a·a0·a = a, the first member of I(a), or None:
    the first hit of one _inner_rows row, so past the enumeration budget
    this raises BudgetExceeded."""
    hits = np.flatnonzero(next(_inner_rows(a.ring, a.index))[1])
    return Elem(a.ring, int(hits[0])) if len(hits) else None


def regular_elements(ring: Ring) -> ElemSet:
    """Reg(R) = {a : a x a = a for some x}.

    Matrix rings need no scan: every matrix over a field is regular.
    Other rings of at most TABLE_CAP elements mark the rows of _inner_rows
    with a hit, on the product table of build_tables().  Larger ones raise
    TableCapExceeded, as the scan is quadratic.
    """
    ring.ensure_enumerable()
    if ring.kind == "matrix":
        return ElemSet(ring, np.arange(ring.size, dtype=np.int64))
    if ring.size > TABLE_CAP:
        raise TableCapExceeded(ring.size, TABLE_CAP)
    ring.build_tables()
    mask = np.empty(ring.size, dtype=bool)
    for rows, hit in _inner_rows(ring, ring.all_indices()):
        mask[rows] = hit.any(axis=1)
    return ElemSet(ring, np.flatnonzero(mask))


class SemiprimeVerdict(NamedTuple):
    semiprime: bool
    witness: Optional[Elem]


def is_semiprime(ring: Ring) -> SemiprimeVerdict:
    """True iff no nonzero a has a·t·a = 0 for all t.

    M_k(GF(q)) is simple, hence semiprime: MatrixRing presets the verdict,
    as regular_elements presets its regularity (every matrix is regular).
    Every ring past the enumeration budget raises BudgetExceeded, preset or
    not.  Other rings run _semiprime_scan once, on raw arithmetic unless
    the product table was already built: it builds none, so a single query
    pays no |R|^2 table build.

    The first verdict's witness index is kept on the ring, as unit_indices
    keeps the units, so the suite and the report header share one scan.
    An index, not an Elem: an Elem would refer back to the ring, and that
    cycle would keep every checked ring and its product table alive until
    the garbage collector next ran.
    """
    ring.ensure_enumerable()
    if ring._semiprime is None:
        ring._semiprime = _semiprime_scan(ring)
    w = ring._semiprime
    return SemiprimeVerdict(w < 0, None if w < 0 else Elem(ring, w))


def _semiprime_scan(ring: Ring) -> int:
    """The first nonzero a in canonical order with a·R·a = 0, or -1.

    Such an a has a·a = 0 (t = 1), so one product over R keeps the
    square-zero a as candidates, in canonical order.  a·t·a is linear in
    t, so each candidate is then tested against the additive generators
    only, one (candidates, generators) block at a time (_row_blocks).
    """
    idx = ring.all_indices()[1:]
    cand = idx[ring.idx_mul(idx, idx) == 0]
    gens = ring.additive_generator_indices()[None, :]
    for rows in _row_blocks(len(cand), gens.size):
        a = cand[rows, None]
        hit = (ring.idx_mul(ring.idx_mul(a, gens), a) == 0).all(axis=1)
        if hit.any():
            return int(a[hit.argmax(), 0])
    return -1
