"""Exact integer matrices: arithmetic, Smith normal form, linear solving.

Everything runs on Python's arbitrary-precision integers; no floating
point enters at any stage.  Matrices are stored as tuples of row tuples
and treated as immutable.  A matrix with zero rows or zero columns is
legal and must carry an explicit column count, since several quotient
and kernel computations produce genuinely empty shapes.

One elimination serves a matrix: `smith_normal_form` returns the
inverse of its row transform u together with d, u and v, built by
mirroring each row operation, and `solve` answers a whole matrix of
right-hand sides from a single normal form.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Sequence


class IntMatrix:
    """Immutable integer matrix with an explicit shape.

    >>> a = IntMatrix([[2, 0], [0, 3]])
    >>> d, u, v, uinv = smith_normal_form(a)
    >>> d.diagonal()
    (1, 6)
    >>> u @ uinv == IntMatrix.identity(2)
    True
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable[int]], ncols: int | None = None):
        rs = tuple(tuple(map(int, r)) for r in rows)
        if rs:
            w = len(rs[0])
            if any(len(r) != w for r in rs):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != w:
                raise ValueError("ncols disagrees with row length")
            ncols = w
        elif ncols is None:
            raise ValueError("zero-row matrix needs an explicit ncols")
        self.rows = rs
        self.nrows = len(rs)
        self.ncols = ncols

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMatrix":
        return cls([[0] * n for _ in range(m)], n)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[int]], nrows: int) -> "IntMatrix":
        for c in cols:
            if len(c) != nrows:
                raise ValueError("column length mismatch")
        return cls([[c[i] for c in cols] for i in range(nrows)], len(cols))

    @classmethod
    def hstack(cls, mats: Sequence["IntMatrix"]) -> "IntMatrix":
        if not mats:
            raise ValueError("nothing to stack")
        m = mats[0].nrows
        if any(a.nrows != m for a in mats):
            raise ValueError("row count mismatch")
        rows = [sum((list(a.rows[i]) for a in mats), []) for i in range(m)]
        return cls(rows, sum(a.ncols for a in mats))

    @classmethod
    def block_diag(cls, mats: Sequence["IntMatrix"]) -> "IntMatrix":
        m = sum(a.nrows for a in mats)
        n = sum(a.ncols for a in mats)
        out = [[0] * n for _ in range(m)]
        r = c = 0
        for a in mats:
            for i in range(a.nrows):
                out[r + i][c : c + a.ncols] = list(a.rows[i])
            r += a.nrows
            c += a.ncols
        return cls(out, n)

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    def cols(self) -> list[tuple[int, ...]]:
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix([self.col(j) for j in range(self.ncols)], self.nrows)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(mul, r, vec)) for r in self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        bt = other.transpose()
        return IntMatrix(
            [[sum(map(mul, r, c)) for c in bt.rows] for r in self.rows],
            other.ncols,
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(
            [[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(
            [[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-a for a in r] for r in self.rows], self.ncols)

    def _same_shape(self, other: "IntMatrix") -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.rows[i][i] for i in range(min(self.nrows, self.ncols)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.ncols))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]!r}, ncols={self.ncols})"


def smith_normal_form(
    a: IntMatrix,
) -> tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """Return (d, u, v, uinv) with u*a*v = d in Smith normal form.

    d is diagonal with nonnegative entries d_1 | d_2 | ... (zeros trail),
    u and v are unimodular and uinv is the inverse of u.  Elementary row
    operations accumulate in u, column operations in v, and every row
    operation on u is mirrored in uinv as the inverse column operation
    (a row swap as the same column swap, a row negation as the same
    column negation, row_i -= q*row_j as col_j += q*col_i), so the
    inverse costs no second elimination.

    The pivot is the first entry of least absolute value in row-major
    order, so the search stops at the first entry of absolute value 1;
    and a pivot 1 divides everything, so the divisibility scan of the
    remaining submatrix is skipped for it.  Neither shortcut changes
    which operations run, hence d, u and v are the same as without them.
    """
    m, n = a.nrows, a.ncols
    s = [list(r) for r in a.rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    # uinv is kept transposed, so its column operations are row operations
    w = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]
        w[i], w[j] = w[j], w[i]

    def swap_cols(i, j):
        for r in s:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]
        w[i] = [-x for x in w[i]]

    def row_sub(i, j, q):
        # row_i -= q * row_j; uinv: col_j += q * col_i
        s[i] = [x - q * y for x, y in zip(s[i], s[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]
        w[j] = [x + q * y for x, y in zip(w[j], w[i])]

    def col_sub(i, j, q):
        # col_i -= q * col_j
        for r in s:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def row_add(i, j):
        # row_i += row_j; uinv: col_j -= col_i
        s[i] = [x + y for x, y in zip(s[i], s[j])]
        u[i] = [x + y for x, y in zip(u[i], u[j])]
        w[j] = [x - y for x, y in zip(w[j], w[i])]

    def find_pivot(t):
        # the first nonzero entry of least absolute value in the trailing
        # submatrix, in row-major order; nothing is smaller than a unit
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = s[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    if abs(x) == 1:
                        return (i, j)
                    best = abs(x)
                    piv = (i, j)
        return piv

    t = 0
    while t < min(m, n):
        piv = find_pivot(t)
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])
        if s[t][t] < 0:
            negate_row(t)
        while True:
            restart = False
            for i in range(t + 1, m):
                if s[i][t]:
                    q = s[i][t] // s[t][t]
                    if q:
                        row_sub(i, t, q)
                    if s[i][t]:
                        # remainder is a strictly smaller pivot
                        swap_rows(i, t)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if s[t][j]:
                    q = s[t][j] // s[t][t]
                    if q:
                        col_sub(j, t, q)
                    if s[t][j]:
                        swap_cols(j, t)
                        restart = True
                        break
            if restart:
                continue
            if any(s[i][t] for i in range(t + 1, m)):
                continue
            if any(s[t][j] for j in range(t + 1, n)):
                continue
            # pivot must divide the whole remaining submatrix
            p = s[t][t]
            if p == 1:
                break
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if s[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_add(t, bad)
        t += 1
    for i in range(min(m, n)):
        if s[i][i] < 0:
            negate_row(i)
    return (IntMatrix(s, n), IntMatrix(u, m), IntMatrix(v, n),
            IntMatrix(zip(*w), m))


def determinant(a: IntMatrix) -> int:
    """Fraction-free Bareiss determinant of a square matrix."""
    if a.nrows != a.ncols:
        raise ValueError("determinant needs a square matrix")
    n = a.nrows
    if n == 0:
        return 1
    s = [list(r) for r in a.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if s[k][k] == 0:
            for i in range(k + 1, n):
                if s[i][k]:
                    s[k], s[i] = s[i], s[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                s[i][j] = (s[i][j] * s[k][k] - s[i][k] * s[k][j]) // prev
        prev = s[k][k]
    return sign * s[n - 1][n - 1]


def solve(
    a: IntMatrix, b: Sequence[int] | IntMatrix
) -> tuple[int, ...] | IntMatrix | None:
    """One integer solution x of a @ x = b, or None if none exists.

    b is a vector, or a matrix whose columns are right-hand sides; then x
    is a matrix, and None means some column of b has no solution.  A
    single Smith normal form u*a*v = d serves every column: a @ x = c has
    a solution exactly when u*c has entries d_i*y_i for integers y_i, and
    then x = v*y.
    """
    if isinstance(b, IntMatrix):
        rhs, height = b.cols(), b.nrows
    else:
        rhs, height = [b], len(b)
    if height != a.nrows:
        raise ValueError("rhs length mismatch")
    d, u, v, _uinv = smith_normal_form(a)
    diag = d.diagonal()
    xs = []
    for c in rhs:
        y = [0] * a.ncols
        for i, ci in enumerate(u.apply(c)):
            di = diag[i] if i < len(diag) else 0
            if di:
                y[i], r = divmod(ci, di)
                if r:
                    return None
            elif ci:
                return None
        xs.append(v.apply(y))
    if isinstance(b, IntMatrix):
        return IntMatrix.from_cols(xs, a.ncols)
    return xs[0]


def kernel_basis(a: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the integer kernel of a, as a list of column vectors."""
    d, _u, v, _uinv = smith_normal_form(a)
    k = min(a.nrows, a.ncols)
    free = [j for j in range(a.ncols) if j >= k or d.rows[j][j] == 0]
    return [v.col(j) for j in free]
