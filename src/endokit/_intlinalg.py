"""Exact linear algebra over Z: the one elimination kernel of the package.

Everything here works on plain lists/tuples of Python ints; matrices are
row-major.  All algorithms are classical fraction-free or Euclidean
eliminations, adequate for the small dense matrices (rank <= ~20) this
package manipulates.  Rational inputs are scaled to integers by the caller.
"""

from __future__ import annotations

from typing import Iterable, Sequence

IntRow = tuple[int, ...]
IntRows = tuple[IntRow, ...]


def _as_int_rows(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    return [list(map(int, r)) for r in rows]


def _hnf_in_place(a: list[list[int]], ncols: int, u: list[list[int]] | None) -> None:
    """Reduce ``a`` to row-style Hermite normal form in place.

    When ``u`` is given, every row operation is applied to it as well, so a
    unimodular ``u`` with ``u @ rows == a`` is maintained.
    """
    m = len(a)
    row = 0
    for col in range(ncols):
        if row == m:
            break
        while True:
            nz = [i for i in range(row, m) if a[i][col] != 0]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: (abs(a[i][col]), i))
            p = a[i0]
            for i in nz:
                if i == i0:
                    continue
                q = a[i][col] // p[col]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], p)]
                    if u is not None:
                        u[i] = [x - q * y for x, y in zip(u[i], u[i0])]
        nz = [i for i in range(row, m) if a[i][col] != 0]
        if not nz:
            continue
        i0 = nz[0]
        if i0 != row:
            a[row], a[i0] = a[i0], a[row]
            if u is not None:
                u[row], u[i0] = u[i0], u[row]
        if a[row][col] < 0:
            a[row] = [-x for x in a[row]]
            if u is not None:
                u[row] = [-x for x in u[row]]
        p = a[row]
        for i in range(row):
            q = a[i][col] // p[col]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], p)]
                if u is not None:
                    u[i] = [x - q * y for x, y in zip(u[i], u[row])]
        row += 1


def hnf_with_transform(rows: Iterable[Sequence[int]], ncols: int) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite normal form.

    Returns (h, u) with u unimodular and u @ rows == h, where h is in
    canonical form: pivots positive, entries above a pivot reduced into
    [0, pivot), zero rows at the bottom.
    """
    a = _as_int_rows(rows)
    m = len(a)
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    _hnf_in_place(a, ncols, u)
    return a, u


def hnf_rows(rows: Iterable[Sequence[int]], ncols: int) -> IntRows:
    """Canonical HNF basis (nonzero rows only) of the span of ``rows``.

    Runs the elimination of :func:`hnf_with_transform` without tracking
    the transform.
    """
    a = _as_int_rows(rows)
    _hnf_in_place(a, ncols, None)
    return tuple(tuple(r) for r in a if any(r))


def left_kernel(rows: Iterable[Sequence[int]], ncols: int) -> IntRows:
    """Basis (canonical HNF) of {x : x @ rows == 0} over Z."""
    a = _as_int_rows(rows)
    m = len(a)
    h, u = hnf_with_transform(a, ncols)
    ker = [u[i] for i in range(m) if not any(h[i])]
    return hnf_rows(ker, m)


def snf_with_transforms(
    rows: Iterable[Sequence[int]], ncols: int
) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Smith normal form with transforms.

    Returns (d, u, v) with u, v unimodular, u @ rows @ v diagonal with
    diagonal d, d[0] | d[1] | ..., nonnegative, zeros trailing.
    """
    a = _as_int_rows(rows)
    m = len(a)
    n = ncols
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i: int, j: int, q: int) -> None:  # row_i -= q*row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i: int, j: int, q: int) -> None:  # col_i -= q*col_j
        for r in range(m):
            a[r][i] -= q * a[r][j]
        for r in range(n):
            v[r][i] -= q * v[r][j]

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for r in range(m):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while t < min(m, n):
        # locate a pivot of minimal absolute value in the trailing block
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        swap_rows(i, t)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        swap_cols(j, t)
                        dirty = True
            if not dirty:
                break
        # enforce divisibility of the remaining block by the pivot
        p = a[t][t]
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % p != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, -1)  # add row `bad` to row t, restart this pivot
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    d = [a[i][i] for i in range(min(m, n))]
    return d, u, v


def solve_int(basis: Sequence[Sequence[int]], target: Sequence[int]) -> list[int] | None:
    """Integer coordinates of ``target`` in the HNF basis, or None.

    ``basis`` must consist of HNF rows (as produced by :func:`hnf_rows`).
    """
    v = [int(x) for x in target]
    n = len(v)
    coords = [0] * len(basis)
    for idx, row in enumerate(basis):
        piv = next((c for c in range(n) if row[c] != 0), None)
        if piv is None:
            continue
        if v[piv] % row[piv] != 0:
            return None
        q = v[piv] // row[piv]
        coords[idx] = q
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    if any(v):
        return None
    return coords


def det_int(mat: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix.

    Fraction-free Bareiss elimination (Bareiss 1968): every intermediate
    entry is a minor of the input, so each division is exact over Z.
    """
    a = _as_int_rows(mat)
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        row_k = a[k]
        akk = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
        prev = akk
    return sign * a[n - 1][n - 1] if n else 1
