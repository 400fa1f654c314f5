"""Integer matrix algebra: Smith normal form, kernels, cokernels.

All routines are exact over Z with Python ints, so there is no size limit on
entries.  The Smith normal form keeps full transformation matrices so callers
can pull kernels and cokernel invariants out of one decomposition.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "IntMatrix",
    "SnfResult",
    "AbelianGroupStructure",
    "smith_normal_form",
    "integer_kernel",
    "cokernel_invariants",
    "solve_gcd_chain_row",
    "solve_diophantine",
    "hermite_row_basis",
    "lattices_equal",
]


def _integers(values: Iterable, message: str,
              length: Optional[int] = None) -> Tuple[int, ...]:
    """The values as ints; ValueError(message) unless they are iterable
    and each is integral (2.0 becomes 2; 2.5, "2", None and infinity are
    refused) and, given ``length``, there are that many."""
    try:
        values = tuple(values)
        ints = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        raise ValueError(message) from None
    if ints != values or length not in (None, len(ints)):
        raise ValueError(message)
    return ints


def _integer(value, message: str) -> int:
    """The value as an int, by the rule of ``_integers``."""
    return _integers((value,), message)[0]


class _Value:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__`` and writes its own
    ``__init__``: it validates and normalizes its arguments, then calls
    ``_store`` once with the fields in slot order.  ``_store`` keeps them,
    and their tuple as ``_key``, through the slots' own setters, which pass
    the refusing ``__setattr__``.  Equality (same class only), the hash,
    pickling and copying read ``_key``, and the default repr names every
    field.  Assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ("_key",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        cls._setters = fields + (_Value._key.__set__,)

    def _store(self, *fields):
        """Store the fields, given in slot order, and their tuple as _key."""
        setters = self._setters
        for store, value in zip(setters, fields):
            store(self, value)
        setters[-1](self, fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % item for item in zip(self.__slots__, self._key)))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return type(self), self._key


class IntMatrix(_Value):
    """Immutable integer matrix, stored row-major as a tuple of row tuples."""

    __slots__ = ("rows",)

    def __init__(self, rows: Tuple[Tuple[int, ...], ...]):
        if len(set(map(len, rows))) > 1:
            raise ValueError("ragged rows")
        self._store(rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return cls(tuple(_integers(r, "matrix entries must be integers")
                         for r in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls(tuple(tuple(0 for _ in range(ncols)) for _ in range(nrows)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, idx):
        i, j = idx
        return self.rows[i][j]

    def column(self, j: int) -> Tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows))) if self.rows else IntMatrix(())

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.transpose().rows
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def apply(self, vec: Sequence[int]) -> Tuple[int, ...]:
        if len(vec) != self.ncols:
            raise ValueError("length mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    def delete_column(self, j: int) -> "IntMatrix":
        return IntMatrix(tuple(r[:j] + r[j + 1 :] for r in self.rows))

    def det(self) -> int:
        """Determinant by fraction-free Bareiss elimination."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if n == 0:
            return 1
        m = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


class SnfResult(_Value):
    """U * M * V = D with U, V unimodular and D in Smith normal form."""

    __slots__ = ("U", "D", "V")

    def __init__(self, U: IntMatrix, D: IntMatrix, V: IntMatrix):
        self._store(U, D, V)

    @property
    def diagonal(self) -> Tuple[int, ...]:
        n = min(self.D.nrows, self.D.ncols)
        return tuple(self.D[i, i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


class AbelianGroupStructure(_Value):
    """A finitely generated abelian group: free rank plus invariant factors.

    ``torsion`` lists the invariant factors > 1 in divisibility order.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: Tuple[int, ...] = ()):
        free_rank = _integer(free_rank, "rank must be an integer")
        torsion = _integers(torsion, "torsion factors must be integers")
        if free_rank < 0:
            raise ValueError("negative rank")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion factors must form a divisibility chain")
        if any(t < 2 for t in torsion):
            raise ValueError("torsion factors must exceed 1")
        self._store(free_rank, torsion)

    @property
    def order(self):
        """Group order, or None when the group is infinite."""
        if self.free_rank:
            return None
        return math.prod(self.torsion) if self.torsion else 1


def smith_normal_form(matrix: IntMatrix) -> SnfResult:
    """Smith normal form with transformations, U*M*V = D.

    Pivots are chosen by minimal absolute value to keep intermediate entries
    small; diagonal entries are nonnegative and divide their successors.
    """
    m = [list(r) for r in matrix.rows]
    nr, nc = matrix.nrows, matrix.ncols
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        # row dst += k * row src
        for jj in range(nc):
            m[dst][jj] += k * m[src][jj]
        for jj in range(nr):
            u[dst][jj] += k * u[src][jj]

    def add_col(src, dst, k):
        for row in m:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        done = False
        while True:
            # re-select the minimal-absolute-value pivot every sweep; this is
            # what keeps intermediate entries from exploding
            best = None
            for i in range(t, nr):
                for j in range(t, nc):
                    if m[i][j] != 0 and (
                        best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])
                    ):
                        best = (i, j)
            if best is None:
                done = True
                break
            if best[0] != t:
                swap_rows(t, best[0])
            if best[1] != t:
                swap_cols(t, best[1])
            piv = m[t][t]
            dirty = False
            for i in range(t + 1, nr):
                if m[i][t] != 0:
                    add_row(t, i, -(m[i][t] // piv))
                    if m[i][t] != 0:
                        dirty = True
            for j in range(t + 1, nc):
                if m[t][j] != 0:
                    add_col(t, j, -(m[t][j] // piv))
                    if m[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # divisibility fix-up: fold a non-multiple row into the pivot row,
            # then the next sweep finds a strictly smaller pivot
            offender = None
            for i in range(t + 1, nr):
                if any(m[i][j] % piv != 0 for j in range(t + 1, nc)):
                    offender = i
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if done:
            break
        if m[t][t] < 0:
            negate_row(t)
        t += 1

    U = IntMatrix.from_rows(u)
    V = IntMatrix.from_rows(v)
    D = IntMatrix.from_rows(m)
    return SnfResult(U=U, D=D, V=V)


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0, iterative and deterministic."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def solve_diophantine(coeffs: Sequence[int], target: int) -> Tuple[int, ...]:
    """One solution of sum(coeffs[i] * x[i]) = target, or ValueError.

    The coefficients are combined by extended Euclid left to right, which
    fixes the answer deterministically.

    >>> solve_diophantine((1, 1), -1)
    (0, -1)
    """
    coeffs = _integers(coeffs, "coefficients must be integers")
    target = _integer(target, "target must be an integer")
    if not coeffs:
        if target != 0:
            raise ValueError("no solution")
        return ()
    # prefix gcds with Bezout data: g[i] = gcd of coeffs[:i+1]
    gs = [coeffs[0]]
    bez = [(1,)]
    for c in coeffs[1:]:
        g, x, y = _xgcd(gs[-1], c)
        gs.append(g)
        bez.append((x, y))
    g_all = gs[-1]
    if g_all == 0:
        if target != 0:
            raise ValueError("no solution")
        return tuple(0 for _ in coeffs)
    if target % g_all != 0:
        raise ValueError("no solution: %s does not divide %s" % (g_all, target))
    # back-substitute the multiplier through the prefix chain
    mult = target // g_all
    out = [0] * len(coeffs)
    for i in range(len(coeffs) - 1, 0, -1):
        x, y = bez[i]
        out[i] = y * mult
        mult = x * mult
    out[0] = mult
    return tuple(out)


def integer_kernel(matrix: IntMatrix) -> Tuple[Tuple[int, ...], ...]:
    """Canonical basis of {v : M v = 0} over Z, Hermite-reduced row style.

    Returns a tuple of basis vectors (possibly empty).  Two calls on matrices
    with the same kernel lattice return identical bases.
    """
    snf = smith_normal_form(matrix)
    # zeros come last on the SNF diagonal: V's trailing columns span the kernel
    return hermite_row_basis([snf.V.column(j) for j in range(snf.rank, matrix.ncols)])


def hermite_row_basis(vectors: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """Row-style Hermite normal form of the lattice spanned by ``vectors``.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), and zero rows are dropped; this is the canonical form used
    to compare lattices.
    """
    ncols = len(vectors[0]) if len(vectors) else 0
    rows = [list(_integers(v, "lattice vectors must be integers of one "
                              "length", ncols)) for v in vectors]
    if not rows:
        return ()
    out: List[List[int]] = []
    pivot_cols: List[int] = []
    for col in range(ncols):
        live = [r for r in rows if r[col] != 0]
        if not live:
            continue
        # fold all rows with a nonzero entry in this column into one
        acc = live[0]
        for r in live[1:]:
            while r[col] != 0:
                if abs(acc[col]) > abs(r[col]):
                    acc, r = r, acc
                q = r[col] // acc[col]
                for j in range(ncols):
                    r[j] -= q * acc[j]
        rows = [r for r in rows if r is not acc and any(x != 0 for x in r)]
        if acc[col] < 0:
            acc = [-x for x in acc]
        out.append(acc)
        pivot_cols.append(col)
    # reduce entries above each pivot
    for idx in range(len(out) - 1, -1, -1):
        col = pivot_cols[idx]
        piv = out[idx][col]
        for above in range(idx):
            q = out[above][col] // piv
            if q:
                for j in range(ncols):
                    out[above][j] -= q * out[idx][j]
    return tuple(tuple(r) for r in out)


def lattices_equal(basis_a: Sequence[Sequence[int]], basis_b: Sequence[Sequence[int]]) -> bool:
    """Whether two generating sets span the same integer lattice."""
    return hermite_row_basis(basis_a) == hermite_row_basis(basis_b)


def solve_linear_system(matrix: IntMatrix, target: Sequence[int]):
    """One integer solution x of M x = target, or None when there is none."""
    if len(target) != matrix.nrows:
        raise ValueError("length mismatch")
    snf = smith_normal_form(matrix)
    c = snf.U.apply(target)
    y = [0] * matrix.ncols
    for i in range(matrix.nrows):
        d = snf.D[i, i] if i < min(snf.D.nrows, snf.D.ncols) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            if i < matrix.ncols:
                y[i] = c[i] // d
    return snf.V.apply(y)


def cokernel_invariants(matrix: IntMatrix) -> AbelianGroupStructure:
    """Structure of Z^rows / (column span of the matrix)."""
    snf = smith_normal_form(matrix)
    torsion = tuple(d for d in snf.diagonal if d > 1)
    return AbelianGroupStructure(free_rank=matrix.nrows - snf.rank, torsion=torsion)


def _suffix_gcds(weights: Sequence[int]) -> List[int]:
    out = [0] * (len(weights) + 1)
    for i in range(len(weights) - 1, -1, -1):
        out[i] = math.gcd(weights[i], out[i + 1])
    return out


def solve_gcd_chain_row(weights: Sequence[int], i: int) -> Tuple[int, ...]:
    """Row i (1-based) of the weight-relation matrix for positive ``weights``.

    With lam_i = gcd(weights[i-1:]), row i for i < n is
    ``(0,...,0, lam_{i+1}/lam_i, b_{i,i+1}, ..., b_{i,n+1})`` where the b's
    solve (lam_{i+1}/lam_i) * w_i + sum b_{ij} w_j = 0, and row n is the
    closed form (0,...,0, w_{n+1}/lam_n, -w_n/lam_n).

    >>> solve_gcd_chain_row((1, 1, 1), 1)
    (1, 0, -1)
    >>> solve_gcd_chain_row((2, 3), 1)
    (3, -2)
    """
    ws = _integers(weights, "weights must be integers")
    if any(w <= 0 for w in ws):
        raise ValueError("weights must be positive")
    n = len(ws) - 1
    if not 1 <= i <= n:
        raise ValueError("row index out of range")
    lam = _suffix_gcds(ws)
    if i == n:
        ln = lam[n - 1]
        return tuple([0] * (n - 1) + [ws[n] // ln, -ws[n - 1] // ln])
    step = lam[i] // lam[i - 1]
    rest = solve_diophantine(ws[i:], -step * ws[i - 1])
    return tuple([0] * (i - 1) + [step] + list(rest))
