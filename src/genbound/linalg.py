"""Exact matrix arithmetic over prime fields F_p.

Matrices are tuples of row tuples with entries reduced mod p. Everything
here is integer arithmetic; no floating point is involved.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def mat_identity(dim: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))


def normalize_matrix(rows: Sequence[Sequence[int]], p: int) -> Matrix:
    m = tuple(tuple(x % p for x in row) for row in rows)
    dim = len(m)
    if any(len(row) != dim for row in m):
        raise ValueError("matrix is not square")
    return m


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple([sum(map(mul, row, col)) % p for col in bt]) for row in a)


def mat_vec(a: Matrix, v: Vector, p: int) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) % p for row in a)


def mat_inv(a: Matrix, p: int) -> Matrix:
    """Inverse by Gauss-Jordan elimination; raises on singular input."""
    dim = len(a)
    aug = [list(row) + [1 if i == j else 0 for j in range(dim)] for i, row in enumerate(a)]
    for col in range(dim):
        pivot = next((r for r in range(col, dim) if aug[r][col] % p), None)
        if pivot is None:
            raise ValueError("matrix is singular mod %d" % p)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_pivot = pow(aug[col][col], -1, p)
        aug[col] = [(x * inv_pivot) % p for x in aug[col]]
        for r in range(dim):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [(x - factor * y) % p for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[dim:]) for row in aug)


def block_diag(blocks: Sequence[Matrix]) -> Matrix:
    dim = sum(len(b) for b in blocks)
    rows = []
    offset = 0
    for b in blocks:
        for row in b:
            rows.append((0,) * offset + tuple(row) + (0,) * (dim - offset - len(b)))
        offset += len(b)
    return tuple(rows)


class _RowReducer:
    """Incremental row-echelon basis for a subspace of F_p^dim, kept for
    its rank: each pivot row is zero at the pivots added before it."""

    def __init__(self, p: int):
        self.p = p
        self.pivots: dict[int, Vector] = {}

    def add(self, v: Vector) -> bool:
        """Add v to the span; True if it was independent. Clearing the
        pivots in the order they were added leaves v zero at all of them."""
        p = self.p
        for col, row in self.pivots.items():
            if v[col]:
                factor = v[col]
                v = [(x - factor * y) % p for x, y in zip(v, row)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            return False
        inv_lead = pow(v[lead], -1, p)
        self.pivots[lead] = tuple((x * inv_lead) % p for x in v)
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


def spin_dimension(v: Vector, matrices: Sequence[Matrix], p: int) -> int:
    """Dimension of the smallest subspace containing v invariant under matrices."""
    dim = len(v)
    reducer = _RowReducer(p)
    queue = []
    if reducer.add(v):
        queue.append(v)
    while queue:
        w = queue.pop()
        for m in matrices:
            image = mat_vec(m, w, p)
            if reducer.add(image):
                queue.append(image)
        if reducer.rank == dim:
            return dim
    return reducer.rank


def has_no_joint_fixed_vector(matrices: Sequence[Matrix], p: int) -> bool:
    """True iff the only v with Av = v for every matrix A is v = 0.

    Equivalent to the stacked system (A - I)v = 0 having full rank.
    """
    if not matrices:
        return False
    dim = len(matrices[0])
    reducer = _RowReducer(p)
    for a in matrices:
        for i in range(dim):
            row = tuple((a[i][j] - (1 if i == j else 0)) % p for j in range(dim))
            reducer.add(row)
        if reducer.rank == dim:
            return True
    return reducer.rank == dim
