"""Exact integer matrices: arithmetic, Smith normal form, linear solving.

Everything runs on Python's arbitrary-precision integers; no floating
point enters at any stage.  Matrices are stored as tuples of row tuples
and treated as immutable.  A matrix with zero rows or zero columns is
legal and must carry an explicit column count, since several quotient
and kernel computations produce genuinely empty shapes.

One elimination serves a matrix: `smith_normal_form` returns the
inverse of its row transform u together with d, u and v, built by
mirroring each row operation, and `solve` answers a whole matrix of
right-hand sides from a single normal form.  `kernel_basis` runs the
same elimination without u and its inverse, which a kernel never
reads.  The elimination keeps its matrices as sparse rows, so each step
costs the nonzeros it touches; coboundaries are a few percent nonzero.
Once a pivot has passed the divisibility scan it divides everything
below it, so it is a floor: the next pivot search stops at the first
row holding an entry equal to it, and a pivot equal to it skips the
scan.  The pivot order is fixed, because the canonical coordinates of
every presented group are read off u: another order would give the
same groups in other coordinates.  Products (`apply`, `@`) skip the
zero entries of the vector and of both factors.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import add, itemgetter, neg, sub
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
    def _of_rows(cls, rows: tuple[tuple[int, ...], ...],
                 ncols: int) -> "IntMatrix":
        # rows already are tuples of ncols ints: no checks, no copies
        out = object.__new__(cls)
        out.rows = rows
        out.nrows = len(rows)
        out.ncols = ncols
        return out

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of_rows(_dense([{i: 1} for i in range(n)], n), n)

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMatrix":
        return cls._of_rows(((0,) * n,) * m, n)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[int]], nrows: int) -> "IntMatrix":
        for c in cols:
            if len(c) != nrows:
                raise ValueError("column length mismatch")
        rows = tuple(zip(*cols)) if cols else ((),) * nrows
        return cls._of_rows(rows, len(cols))

    @classmethod
    def hstack(cls, mats: Sequence["IntMatrix"]) -> "IntMatrix":
        if not mats:
            raise ValueError("nothing to stack")
        m = mats[0].nrows
        if any(a.nrows != m for a in mats):
            raise ValueError("row count mismatch")
        rows = tuple(tuple(chain.from_iterable(rs))
                     for rs in zip(*(a.rows for a in mats)))
        return cls._of_rows(rows, sum(a.ncols for a in mats))

    @classmethod
    def block_diag(cls, mats: Sequence["IntMatrix"]) -> "IntMatrix":
        placed = []
        r = c = 0
        for a in mats:
            placed.append((r, c, a))
            r += a.nrows
            c += a.ncols
        return cls.from_blocks(r, c, placed)

    @classmethod
    def from_blocks(cls, nrows: int, ncols: int,
                    placed: Iterable[tuple[int, int, "IntMatrix"]]) \
            -> "IntMatrix":
        """The nrows x ncols sum of blocks, each (r, c, a) putting the
        top left entry of a at row r, column c; blocks must fit."""
        out = [[0] * ncols for _ in range(nrows)]
        for r, c, a in placed:
            for i, row in enumerate(a.rows, r):
                target = out[i]
                for j, x in enumerate(row, c):
                    target[j] += x
        return cls._of_rows(tuple(map(tuple, out)), ncols)

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(map(itemgetter(j), self.rows))

    def cols(self) -> list[tuple[int, ...]]:
        return list(self._columns())

    def _columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.rows)) if self.rows else ((),) * self.ncols

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of_rows(self._columns(), self.nrows)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        # only the nonzero entries of vec contribute
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        nz = list(_nonzeros(vec))
        return tuple([sum([r[j] * x for j, x in nz]) for r in self.rows])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        # row i of the product is the sum of a_ik * (row k of other) over
        # the nonzero a_ik, each row k taken at its nonzero entries
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        n = other.ncols
        sparse = [list(_nonzeros(r)) for r in other.rows]
        out = []
        for r in self.rows:
            acc = [0] * n
            for k in compress(range(self.ncols), r):
                x = r[k]
                for j, y in sparse[k]:
                    acc[j] += x * y
            out.append(tuple(acc))
        return IntMatrix._of_rows(tuple(out), n)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._of_rows(
            tuple(tuple(map(add, r, s)) for r, s in zip(self.rows, other.rows)),
            self.ncols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._of_rows(
            tuple(tuple(map(sub, r, s)) for r, s in zip(self.rows, other.rows)),
            self.ncols,
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of_rows(tuple(tuple(map(neg, r)) for r in self.rows),
                                  self.ncols)

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


# sparse rows: {column: value} dicts that store no zero

def _nonzeros(row: Sequence[int]) -> Iterable[tuple[int, int]]:
    """The (index, entry) pairs of the nonzero entries of row."""
    return zip(compress(range(len(row)), row), filter(None, row))


def _axpy(dst: dict, src: dict, q: int) -> None:
    """dst += q * src, for q != 0."""
    for c, y in src.items():
        x = dst.get(c, 0) + q * y
        if x:
            dst[c] = x
        else:
            del dst[c]


def _dense(rows: list[dict], width: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for r in rows:
        row = [0] * width
        for j, x in r.items():
            row[j] = x
        out.append(tuple(row))
    return tuple(out)


def _dense_transposed(rows: list[dict],
                      height: int) -> tuple[tuple[int, ...], ...]:
    out = [[0] * len(rows) for _ in range(height)]
    for i, r in enumerate(rows):
        for j, x in r.items():
            out[j][i] = x
    return tuple(map(tuple, out))


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
    order.  Once a pivot p passes the divisibility scan, p divides every
    entry of the rows below it, and p becomes the floor (it starts at
    1): the search for the next pivot stops at the first row holding an
    entry of absolute value floor, since no entry can be smaller, and a
    pivot equal to the floor skips the scan, since it divides
    everything.  Neither shortcut changes which operations run, hence
    d, u and v are the same as without them.

    All four matrices are kept as sparse rows while the elimination
    runs, with v and uinv transposed so that their column operations are
    row operations, and a column index of the working matrix; each
    operation costs the nonzeros it touches.  The pivot order is part of
    the contract, not a tuning choice: the canonical coordinates of every
    presented group are read off u, so an order that picks other pivots
    (unit pivots first, say) would print the same groups in other
    coordinates.
    """
    m, n = a.nrows, a.ncols
    s, vt, u, w = _eliminate(a, True)
    return (IntMatrix._of_rows(_dense(s, n), n),
            IntMatrix._of_rows(_dense(u, m), m),
            IntMatrix._of_rows(_dense_transposed(vt, n), n),
            IntMatrix._of_rows(_dense_transposed(w, m), m))


def _eliminate(a: IntMatrix, with_u: bool):
    """The elimination of `smith_normal_form` on sparse rows.

    Returns (s, vt, u, w): the reduced matrix, v transposed, u, and uinv
    transposed, each a list of {column: value} rows.  Without with_u the
    row transforms u and w are not kept (both come back None); the row
    and column operations that run are the same either way.
    """
    m, n = a.nrows, a.ncols
    s = [dict(_nonzeros(r)) for r in a.rows]
    # rows_of[j]: the rows of s with a nonzero in column j
    rows_of = [set() for _ in range(n)]
    for i, r in enumerate(s):
        for j in r:
            rows_of[j].add(i)
    vt = [{j: 1} for j in range(n)]
    if with_u:
        u = [{i: 1} for i in range(m)]
        w = [{i: 1} for i in range(m)]  # uinv, transposed
    else:
        u = w = None

    def swap_rows(i, j):
        si, sj = s[i], s[j]
        for c in si:
            if c not in sj:
                rs = rows_of[c]
                rs.remove(i)
                rs.add(j)
        for c in sj:
            if c not in si:
                rs = rows_of[c]
                rs.remove(j)
                rs.add(i)
        s[i], s[j] = sj, si
        if u is not None:
            u[i], u[j] = u[j], u[i]
            w[i], w[j] = w[j], w[i]

    def swap_cols(i, j):
        for r in rows_of[i] | rows_of[j]:
            row = s[r]
            x = row.pop(i, 0)
            y = row.pop(j, 0)
            if y:
                row[i] = y
            if x:
                row[j] = x
        rows_of[i], rows_of[j] = rows_of[j], rows_of[i]
        vt[i], vt[j] = vt[j], vt[i]

    def negate_row(i):
        for row in (s[i],) if u is None else (s[i], u[i], w[i]):
            for c in row:
                row[c] = -row[c]

    def add_to_row(i, j, q):
        # s: row_i += q * row_j, keeping the column index
        dst = s[i]
        for c, y in s[j].items():
            x = dst.get(c)
            if x is None:
                dst[c] = q * y
                rows_of[c].add(i)
            else:
                x += q * y
                if x:
                    dst[c] = x
                else:
                    del dst[c]
                    rows_of[c].remove(i)

    def row_sub(i, j, q):
        # row_i -= q * row_j; uinv: col_j += q * col_i
        add_to_row(i, j, -q)
        if u is not None:
            _axpy(u[i], u[j], -q)
            _axpy(w[j], w[i], q)

    def col_sub(i, j, q):
        # col_i -= q * col_j
        ri = rows_of[i]
        for r in rows_of[j]:
            row = s[r]
            x = row.get(i)
            y = q * row[j]
            if x is None:
                row[i] = -y
                ri.add(r)
            elif x == y:
                del row[i]
                ri.remove(r)
            else:
                row[i] = x - y
        _axpy(vt[i], vt[j], -q)

    def row_add(i, j):
        # row_i += row_j; uinv: col_j -= col_i
        add_to_row(i, j, 1)
        if u is not None:
            _axpy(u[i], u[j], 1)
            _axpy(w[j], w[i], -1)

    def find_pivot(t, floor):
        # the first nonzero entry of least absolute value in the trailing
        # submatrix, in row-major order; every entry there is a multiple
        # of floor, so nothing is smaller.  Rows t.. hold no entry left
        # of column t.
        best = bi = bj = 0
        for i in range(t, m):
            for j, x in s[i].items():
                ax = abs(x)
                if best == 0 or ax < best:
                    best, bi, bj = ax, i, j
                elif ax == best and i == bi and j < bj:
                    bj = j
            if best == floor:
                break
        return (bi, bj) if best else None

    # floor divides every entry of rows t..: the last pivot that passed
    # the divisibility scan (1 before any did)
    floor = 1
    t = 0
    while t < min(m, n):
        piv = find_pivot(t, floor)
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])
        if s[t][t] < 0:
            negate_row(t)
        while True:
            # clear column t below the pivot, rows ascending, then row t
            # right of it, columns ascending; a nonzero remainder is a
            # strictly smaller pivot and starts the pass again
            restart = False
            p = s[t][t]
            for i in sorted(rows_of[t]):
                if i == t:
                    continue
                q = s[i][t] // p
                if q:
                    row_sub(i, t, q)
                if t in s[i]:
                    swap_rows(i, t)
                    restart = True
                    break
            if restart:
                continue
            for j in sorted(s[t]):
                if j == t:
                    continue
                q = s[t][j] // p
                if q:
                    col_sub(j, t, q)
                if j in s[t]:
                    swap_cols(j, t)
                    restart = True
                    break
            if restart:
                continue
            # pivot must divide the whole remaining submatrix; the floor
            # divides it already
            if p == floor:
                break
            bad = None
            for i in range(t + 1, m):
                if any(map(p.__rmod__, s[i].values())):
                    bad = i
                    break
            if bad is None:
                floor = p
                break
            row_add(t, bad)
        t += 1
    for i in range(min(m, n)):
        if s[i].get(i, 0) < 0:
            negate_row(i)
    return s, vt, u, w


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
    """Basis of the integer kernel of a, as a list of column vectors.

    These are the columns j of v in u*a*v = d whose d_j is zero, read
    off the same elimination as `smith_normal_form` without keeping u
    or uinv, which a kernel does not need.

    >>> kernel_basis(IntMatrix([[2, 4, 6]]))
    [(-2, 1, 0), (-3, 0, 1)]
    >>> kernel_basis(IntMatrix([[1, 0], [0, 3]]))
    []
    """
    s, vt, _u, _w = _eliminate(a, False)
    # d_j is zero past the last row, or where s keeps no diagonal entry
    free = [vt[j] for j in range(a.ncols) if j >= a.nrows or j not in s[j]]
    return list(_dense(free, a.ncols))
