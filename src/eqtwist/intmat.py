"""Exact integer matrices: arithmetic, Smith normal form, linear solving.

Everything runs on Python's arbitrary-precision integers; no floating
point enters at any stage.  A matrix stores sparse rows, one {column:
value} dict per row holding no zero, and is treated as immutable; `rows`
is a dense view built on demand.  A matrix with zero rows or zero
columns is legal and carries an explicit column count, since several
quotient and kernel computations produce genuinely empty shapes.

One elimination serves a matrix: `smith_normal_form` returns the
inverse of its row transform u together with d, u and v, built by
mirroring each row operation, and `solve` answers a whole matrix of
right-hand sides from a single normal form.  `kernel_basis` runs the
same elimination without u and its inverse.  The elimination runs on
copies of the stored rows and returns its rows as they are, so no
elimination converts formats, and each step, like every product and
sum, costs the nonzeros it touches.  A pivot that has passed the
divisibility scan divides everything below it, so it is a floor: the
next pivot search stops at the first row holding an entry equal to it,
and a pivot equal to it skips the scan.  The pivot order is fixed,
because the canonical coordinates of every presented group are read off
u: another order would give the same groups in other coordinates.
"""

from __future__ import annotations

from itertools import accumulate, compress
from typing import Iterable, Sequence


class IntMatrix:
    """Immutable integer matrix with an explicit shape.

    `sparse` holds the rows and `rows` is the dense view.  The
    constructor takes dense rows of ints: it is where dense becomes sparse.

    >>> a = IntMatrix([[2, 0], [0, 3]])
    >>> d, u, v, uinv = smith_normal_form(a)
    >>> d.diagonal()
    (1, 6)
    >>> u @ uinv == IntMatrix.identity(2)
    True
    """

    __slots__ = ("sparse", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable[int]], ncols: int | None = None):
        rs = [tuple(r) for r in rows]
        if rs:
            w = len(rs[0])
            if any(len(r) != w for r in rs):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != w:
                raise ValueError("ncols disagrees with row length")
            ncols = w
        elif ncols is None:
            raise ValueError("zero-row matrix needs an explicit ncols")
        for i, r in enumerate(rs):
            for j, x in enumerate(r):
                if type(x) is not int:
                    raise ValueError(f"matrix entry ({i}, {j}) is {x!r}, "
                                     f"not an integer")
        self.sparse = tuple(dict(_nonzeros(r)) for r in rs)
        self.nrows = len(rs)
        self.ncols = ncols

    @classmethod
    def _of_sparse(cls, sparse: tuple[dict, ...], ncols: int) -> "IntMatrix":
        # zero-free dicts with keys below ncols: no checks, no copies
        out = object.__new__(cls)
        out.sparse = sparse
        out.nrows = len(sparse)
        out.ncols = ncols
        return out

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of_sparse(tuple({i: 1} for i in range(n)), n)

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMatrix":
        return cls._of_sparse(({},) * m, n)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[int]], nrows: int) -> "IntMatrix":
        out = [{} for _ in range(nrows)]
        for j, c in enumerate(cols):
            if len(c) != nrows:
                raise ValueError("column length mismatch")
            for i, x in _nonzeros(c):
                out[i][j] = x
        return cls._of_sparse(tuple(out), len(cols))

    @classmethod
    def hstack(cls, mats: Sequence["IntMatrix"]) -> "IntMatrix":
        if not mats:
            raise ValueError("nothing to stack")
        m = mats[0].nrows
        if any(a.nrows != m for a in mats):
            raise ValueError("row count mismatch")
        cols = accumulate((a.ncols for a in mats), initial=0)
        placed = [(0, c, a) for c, a in zip(cols, mats)]
        return cls.from_blocks(m, sum(a.ncols for a in mats), placed)

    @classmethod
    def block_diag(cls, mats: Sequence["IntMatrix"]) -> "IntMatrix":
        rows = accumulate((a.nrows for a in mats), initial=0)
        cols = accumulate((a.ncols for a in mats), initial=0)
        return cls.from_blocks(sum(a.nrows for a in mats),
                               sum(a.ncols for a in mats), zip(rows, cols, mats))

    @classmethod
    def from_blocks(cls, nrows: int, ncols: int,
                    placed: Iterable[tuple[int, int, "IntMatrix"]]) \
            -> "IntMatrix":
        """The nrows x ncols sum of blocks (r, c, a), a's top left at (r, c)."""
        out = [{} for _ in range(nrows)]
        for r, c, a in placed:
            if r + a.nrows > nrows or c + a.ncols > ncols:
                raise ValueError("block does not fit")
            for i, row in enumerate(a.sparse, r):
                _axpy(out[i], {j + c: x for j, x in row.items()}, 1)
        return cls._of_sparse(tuple(out), ncols)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        out = []
        for r in self.sparse:
            row = [0] * self.ncols
            for j, x in r.items():
                row[j] = x
            out.append(tuple(row))
        return tuple(out)

    def top(self, k: int) -> "IntMatrix":
        """The first k rows."""
        return IntMatrix._of_sparse(self.sparse[:k], self.ncols)

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r.get(j, 0) for r in self.sparse)

    def cols(self) -> list[tuple[int, ...]]:
        return list(self.transpose().rows)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of_sparse(_transpose(self.sparse, self.ncols),
                                    self.nrows)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple([sum([x * vec[j] for j, x in r.items()])
                      for r in self.sparse])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        # row i of the product is the sum of a_ik * (row k of other) over
        # the stored a_ik
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        rows = other.sparse
        out = []
        for r in self.sparse:
            acc = {}
            for k, x in r.items():
                for j, y in rows[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            out.append({j: z for j, z in acc.items() if z})
        return IntMatrix._of_sparse(tuple(out), other.ncols)

    def _plus(self, other: "IntMatrix", q: int) -> "IntMatrix":
        # self + q * other, for q != 0
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        pairs = zip(self.sparse, other.sparse)
        return IntMatrix._of_sparse(
            tuple(_axpy(dict(r), s, q) for r, s in pairs), self.ncols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._plus(other, -1)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of_sparse(
            tuple({j: -x for j, x in r.items()} for r in self.sparse),
            self.ncols)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.sparse[i].get(i, 0)
                     for i in range(min(self.nrows, self.ncols)))

    def __eq__(self, other) -> bool:
        # dict equality ignores the order the entries were stored in
        return (isinstance(other, IntMatrix) and self.ncols == other.ncols
                and self.sparse == other.sparse)

    def __hash__(self) -> int:
        return hash((tuple(frozenset(r.items()) for r in self.sparse),
                     self.ncols))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]!r}, ncols={self.ncols})"


# sparse rows: {column: value} dicts that store no zero

def _nonzeros(row: Sequence[int]) -> Iterable[tuple[int, int]]:
    """The (index, entry) pairs of the nonzero entries of row."""
    return zip(compress(range(len(row)), row), filter(None, row))


def _axpy(dst: dict, src: dict, q: int) -> dict:
    """dst += q * src, for q != 0; returns dst."""
    for c, y in src.items():
        x = dst.get(c, 0) + q * y
        if x:
            dst[c] = x
        else:
            del dst[c]
    return dst


def _transpose(rows: Sequence[dict], width: int) -> tuple[dict, ...]:
    """The sparse rows of the transpose of rows, whose keys are < width."""
    out = [{} for _ in range(width)]
    for i, r in enumerate(rows):
        for j, x in r.items():
            out[j][i] = x
    return tuple(out)


def _column_index(rows: Sequence[dict], ncols: int) -> list[set]:
    """index[c]: the set of rows holding a nonzero in column c."""
    index = [set() for _ in range(ncols)]
    for i, r in enumerate(rows):
        for c in r:
            index[c].add(i)
    return index


def _add_row(rows: list[dict], index: list[set], i: int, src: dict,
             q: int) -> None:
    """rows[i] += q * src, for q != 0, keeping the column index."""
    dst = rows[i]
    for c, y in src.items():
        x = dst.get(c)
        if x is None:
            dst[c] = q * y
            index[c].add(i)
        elif x := x + q * y:
            dst[c] = x
        else:
            del dst[c]
            index[c].remove(i)


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

    The elimination keeps v and uinv transposed, so that their column
    operations are row operations, and a column index of the working
    matrix; v and uinv are transposed back once at the end.  The pivot
    order is part of the contract: the canonical coordinates of every
    presented group are read off u, so an order that picks other pivots
    (unit pivots first, say) would print the same groups in other
    coordinates.
    """
    m, n = a.nrows, a.ncols
    s, vt, u, w = _eliminate(a, True)
    return (IntMatrix._of_sparse(tuple(s), n),
            IntMatrix._of_sparse(tuple(u), m),
            IntMatrix._of_sparse(_transpose(vt, n), n),
            IntMatrix._of_sparse(_transpose(w, m), m))


def _eliminate(a: IntMatrix, with_u: bool):
    """The elimination of `smith_normal_form` on sparse rows.

    Returns (s, vt, u, w): the reduced matrix, v transposed, u, and uinv
    transposed, each a list of {column: value} rows.  Without with_u the
    row transforms u and w are not kept (both come back None); the row
    and column operations that run are the same either way.
    """
    m, n = a.nrows, a.ncols
    s = [dict(r) for r in a.sparse]
    # rows_of[j]: the rows of s with a nonzero in column j
    rows_of = _column_index(s, n)
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

    def row_sub(i, j, q):
        # row_i -= q * row_j; uinv: col_j += q * col_i
        _add_row(s, rows_of, i, s[j], -q)
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
        _add_row(s, rows_of, i, s[j], 1)
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
    return list(IntMatrix._of_sparse(tuple(free), a.ncols).rows)
