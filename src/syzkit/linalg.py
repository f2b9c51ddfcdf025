"""Dense exact matrices with rank, kernel, solving and seeded random sampling,
the incremental row echelon, primitive integer scaling and the fit of a
binomial-basis Hilbert polynomial.

Over Q the forward elimination is fraction-free (Bareiss): rows are scaled
to integers once and every intermediate entry stays an integer (a minor of
the scaled matrix), so no rational blow-up occurs mid-elimination.  Kernel
extraction back-substitutes over Fraction afterwards.  Over F_p elimination
is plain row reduction mod p.
"""

import random
from fractions import Fraction
from math import comb, gcd, lcm

from .errors import UnsupportedFieldError
from .fields import GF, QQ, PrimeField, check_same_field


class Matrix:
    """Row-major dense matrix over an exact field."""

    def __init__(self, field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls(field, [[field.zero] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    def transpose(self):
        return Matrix(self.field, [[self.rows[i][j] for i in range(self.nrows)]
                                   for j in range(self.ncols)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows)

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"

    def mul(self, other):
        check_same_field(self.field, other.field, "matrix product")
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        f = self.field
        out = []
        bt = other.transpose().rows
        for row in self.rows:
            out.append([_dot(f, row, col) for col in bt])
        return Matrix(f, out)

    def mul_vector(self, vec):
        f = self.field
        return [_dot(f, row, vec) for row in self.rows]

    # -- elimination -------------------------------------------------------

    def rank(self):
        return self._echelon()[0]

    def rank_and_kernel(self):
        """Return (rank, kernel basis).  Rank-nullity is asserted, and every
        kernel vector is re-multiplied through the matrix exactly."""
        rank, pivots, rows = self._echelon()
        kernel = self._kernel_from_echelon(pivots, rows)
        assert rank + len(kernel) == self.ncols
        for v in kernel:
            img = self.mul_vector(v)
            assert all(self.field.is_zero(c) for c in img)
        return rank, kernel

    def kernel(self):
        return self.rank_and_kernel()[1]

    def solve(self, b):
        """Particular solution of A x = b, or None if inconsistent."""
        f = self.field
        aug = Matrix(f, [row + [b[i]] for i, row in enumerate(self.rows)])
        rank_a = self.rank()
        rank_aug, pivots, rows = aug._echelon()
        if rank_aug != rank_a:
            return None
        # back substitution on the echelon form, treating the last column as rhs
        x = [f.zero] * self.ncols
        for i in reversed(range(rank_aug)):
            p = pivots[i]
            acc = rows[i][self.ncols]
            for j in range(p + 1, self.ncols):
                acc = f.sub(acc, f.mul(rows[i][j], x[j]))
            x[p] = f.div(acc, rows[i][p])
        check = self.mul_vector(x)
        assert all(f.is_zero(f.sub(check[i], b[i])) for i in range(self.nrows))
        return x

    def _echelon(self):
        if isinstance(self.field, PrimeField):
            return self._echelon_fp()
        return self._echelon_qq()

    def _echelon_fp(self):
        p = self.field.p
        rows = [[int(c) % p for c in r] for r in self.rows]
        pivots = []
        r = 0
        for c in range(self.ncols):
            piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = pow(rows[r][c], p - 2, p)
            rows[r] = [v * inv % p for v in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    m = rows[i][c]
                    rows[i] = [(a - m * b) % p for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == len(rows):
                break
        return r, pivots, rows

    def _echelon_qq(self):
        # scale each row to a primitive integer row, then Bareiss
        rows = [primitive_integers(r) for r in self.rows]
        pivots = []
        prev = 1
        r = 0
        for c in range(self.ncols):
            piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            pc = rows[r][c]
            for i in range(r + 1, len(rows)):
                ic = rows[i][c]
                row_i, row_r = rows[i], rows[r]
                new = []
                for j in range(self.ncols):
                    num = pc * row_i[j] - ic * row_r[j]
                    q, rem = divmod(num, prev)
                    assert rem == 0  # Bareiss exact-division invariant
                    new.append(q)
                new[c] = 0
                rows[i] = new
            prev = pc
            pivots.append(c)
            r += 1
            if r == len(rows):
                break
        return r, pivots, rows[:r]

    def _kernel_from_echelon(self, pivots, rows):
        f = self.field
        rank = len(pivots)
        pivot_set = set(pivots)
        free_cols = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for fc in free_cols:
            v = [f.zero] * self.ncols
            v[fc] = f.one
            for i in reversed(range(rank)):
                p = pivots[i]
                acc = f.zero
                for j in range(p + 1, self.ncols):
                    if not f.is_zero(v[j]):
                        acc = f.add(acc, f.mul(_coerce(f, rows[i][j]), v[j]))
                v[p] = f.neg(f.div(acc, _coerce(f, rows[i][p])))
            if not isinstance(f, PrimeField):
                ints = primitive_integers(v)
                if next((c for c in ints if c), 0) < 0:
                    ints = [-c for c in ints]
                v = [Fraction(c) for c in ints]
            basis.append(v)
        return basis


def _coerce(field, v):
    if isinstance(field, PrimeField):
        return v % field.p
    return Fraction(v)


def _dot(field, u, v):
    acc = field.zero
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def primitive_integers(vec):
    """Coprime integers proportional to a rational vector.  The sign is left
    alone and the zero vector maps to zeros."""
    den = lcm(*(c.denominator for c in vec))
    ints = [int(c * den) for c in vec]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


class Span:
    """Incremental row echelon over a field: the span of the rows added so
    far, kept as pivot-normalized rows."""

    def __init__(self, field):
        self.field = field
        self.rows = []
        self.pivots = []

    def add(self, vec):
        """Reduce vec against the span and insert it; True when the span grew."""
        f = self.field
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if not f.is_zero(v[p]):
                c = v[p]
                v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
        p = next((i for i, c in enumerate(v) if not f.is_zero(c)), None)
        if p is None:
            return False
        inv = f.inv(v[p])
        self.rows.append([f.mul(inv, c) for c in v])
        self.pivots.append(p)
        return True


def fit_hilbert_polynomial(n, points, value):
    """Integer coefficients (a_0..a_n) with value(k) = sum a_j C(k+j, j),
    solved on the first n+1 points and checked on the remaining ones.
    Returns None when the values fit no such integer polynomial."""
    fit = points[:n + 1]
    rows = [[comb(k + j, j) for j in range(n + 1)] for k in fit]
    sol = Matrix(QQ, rows).solve([Fraction(value(k)) for k in fit])
    if sol is None or any(a.denominator != 1 for a in sol):
        return None
    coeffs = tuple(int(a) for a in sol)
    for k in points[n + 1:]:
        if sum(c * comb(k + j, j) for j, c in enumerate(coeffs)) != value(k):
            return None
    return coeffs


def random_matrix(field, nrows, ncols, seed):
    """Uniform random matrix over F_p; identical (seed, dims, p) gives an
    identical matrix.  Rationals have no uniform distribution: rejected."""
    if not isinstance(field, PrimeField):
        raise UnsupportedFieldError("random sampling is defined over prime fields only")
    rng = random.Random(seed)
    return Matrix(field, [[rng.randrange(field.p) for _ in range(ncols)]
                          for _ in range(nrows)])


def random_int_matrix(nrows, ncols, seed, bound=None):
    """Seeded integer matrix over Q: entries are uniform lifts from [0, p)."""
    p = GF().p if bound is None else bound
    rng = random.Random(seed)
    return Matrix(QQ, [[Fraction(rng.randrange(p)) for _ in range(ncols)]
                       for _ in range(nrows)])
