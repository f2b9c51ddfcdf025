"""Dense exact matrices with rank, kernel, solving and seeded random sampling,
the incremental row echelon, the rank tests over Q and F_p, primitive
integer scaling and the fit of a binomial-basis Hilbert polynomial.

Over Q the forward elimination is fraction-free (Bareiss): rows are scaled
to integers once and every intermediate entry stays an integer (a minor of
the scaled matrix), so no rational blow-up occurs mid-elimination.  The
kernel stays fraction-free too: back-substitution on the Bareiss echelon
keeps an integer vector and rescales it only by what the next pivot
division needs, and each kernel vector is verified exactly against every
scaled integer row.  Over F_p a kernel or a solution comes from the
reduced echelon form mod p; a rank is forward-only, the row count of a
Span, with no clearing above the pivots.

A Span over F_p reduces packed rows, one Python int each, so reducing by
a stored row is one big-int multiply-add (the slot width that keeps every
slot from carrying is argued at Span).

rank_reaches is the one test "is the rank at least target?"; over Q a
rank mod CERT_PRIME that reaches target proves it, and Bareiss runs only
on a miss.  rank_at_least is the exact rank under a proven upper bound.
"""

import random
from fractions import Fraction
from math import comb, gcd, lcm

from .errors import CertificateError, UnsupportedFieldError
from .fields import GF, QQ, PrimeField, check_same_field

# the prime of the rank tests over Q: 2^31 - 1, large enough that a rank drop
# mod p on the integer rows syzkit ranks is rare
CERT_PRIME = 2 ** 31 - 1


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
        if isinstance(self.field, PrimeField):
            return rank_at_least(self.field, self.rows,
                                 min(self.nrows, self.ncols))
        return self._echelon()[0]

    def rank_and_kernel(self):
        """Return (rank, kernel basis), one basis vector per free column.
        Over Q each vector is a primitive integer vector with a positive
        leading entry, given as Fractions.  Certified by rank-nullity and by
        an exact integer product of every kernel vector with every row of
        the scaled matrix; a failure raises CertificateError."""
        rank, pivots, echelon, ints = self._echelon()
        if isinstance(self.field, PrimeField):
            p = self.field.p
            kernel = _kernel_from_rref(pivots, echelon, self.ncols, p)
        else:
            p = None
            kernel = _integer_kernel(pivots, echelon, self.ncols)
        if rank + len(kernel) != self.ncols:
            raise CertificateError("kernel fails rank-nullity", rank=rank,
                                   nullity=len(kernel), ncols=self.ncols)
        _verify_kernel(ints, kernel, p)
        if p is None:
            kernel = [[Fraction(c) for c in w] for w in kernel]
        return rank, kernel

    def kernel(self):
        return self.rank_and_kernel()[1]

    def solve(self, b):
        """Particular solution of A x = b, or None if inconsistent."""
        f = self.field
        aug = Matrix(f, [row + [b[i]] for i, row in enumerate(self.rows)])
        rank_a = self.rank()
        rank_aug, pivots, rows, _ = aug._echelon()
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
        if not all(f.is_zero(f.sub(c, bi)) for c, bi in zip(check, b)):
            raise CertificateError("solution fails A x = b")
        return x

    def _echelon(self):
        """(rank, pivots, echelon rows, integer rows).  The integer rows are
        the matrix as residues mod p, or over Q each row scaled to primitive
        integers; elimination replaces rows and never mutates one, so they
        come back unchanged."""
        if isinstance(self.field, PrimeField):
            p = self.field.p
            ints = [[int(c) % p for c in r] for r in self.rows]
            return (*self._echelon_fp(list(ints)), ints)
        ints = [primitive_integers(r) for r in self.rows]
        return (*_bareiss(list(ints), self.ncols), ints)

    def _echelon_fp(self, rows):
        p = self.field.p
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


def _bareiss(rows, ncols):
    """(rank, pivots, echelon rows) of integer rows by fraction-free forward
    elimination; every division by the previous pivot must be exact
    (CertificateError otherwise)."""
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pc = rows[r][c]
        for i in range(r + 1, len(rows)):
            ic = rows[i][c]
            row_i, row_r = rows[i], rows[r]
            # rows from r on are zero left of c, and column c cancels
            new = [0] * (c + 1)
            for j in range(c + 1, ncols):
                q, rem = divmod(pc * row_i[j] - ic * row_r[j], prev)
                if rem:
                    raise CertificateError("Bareiss division is not exact",
                                           column=c, row=i)
                new.append(q)
            rows[i] = new
        prev = pc
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return r, pivots, rows[:r]


def _kernel_from_rref(pivots, rows, ncols, p):
    """Kernel basis mod p from a reduced row echelon form."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [0] * ncols
        v[fc] = 1
        for p_i, row in zip(pivots, rows):
            v[p_i] = -row[fc] % p
        basis.append(v)
    return basis


def _integer_kernel(pivots, rows, ncols):
    """Kernel basis over Q from a Bareiss echelon, in integers throughout:
    per free column, a primitive integer vector with a positive leading
    entry (the rational back-substitution scaled to coprime integers)."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        w = [0] * ncols
        w[fc] = 1
        support = [fc]
        for i in reversed(range(len(pivots))):
            p, row = pivots[i], rows[i]
            # row is zero left of its pivot, so the sum only sees j > p
            s = sum(row[j] * w[j] for j in support)
            if s:
                rp = row[p]
                scale = abs(rp // gcd(s, rp))
                if scale != 1:
                    w = [c * scale for c in w]
                w[p] = -s * scale // rp
                support.append(p)
        g = gcd(*w)
        if w[min(support)] < 0:
            g = -g
        basis.append([c // g for c in w])
    return basis


def _verify_kernel(rows, kernel, p):
    """Certificate: every kernel vector times every integer row is zero
    (mod p unless p is None), summed over the vector's nonzero entries."""
    for w in kernel:
        nonzero = [(j, c) for j, c in enumerate(w) if c]
        for row in rows:
            s = sum(row[j] * c for j, c in nonzero)
            if s and (p is None or s % p):
                raise CertificateError("kernel vector is not in the kernel")


def _dot(field, u, v):
    acc = field.zero
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def primitive_integers(vec):
    """Coprime integers proportional to a rational vector.  The sign is left
    alone and the zero vector maps to zeros."""
    den = lcm(*(c.denominator for c in vec))
    ints = [c.numerator * (den // c.denominator) for c in vec]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


class Span:
    """Incremental row echelon over a field: the span of the rows added so
    far.  A stored row is zero left of its pivot and at the pivots of the
    rows stored before it, so a new row reduces in one pass over the stored
    rows.  rows holds the stored rows and pivots their pivot columns.

    Over F_p rows are residues scaled to pivot 1.  The reduction packs a
    row into one Python int of fixed-width slots, column j in bits
    [j*W, (j+1)*W), so reducing it by a stored row R at pivot c is one
    big-int multiply-add V += (p - a)*R, with a the residue of V's slot c.
    A slot starts below p and each of at most ncols updates adds at most
    (p-1)^2, so it stays below p + ncols*(p-1)^2 <
    2^(2*bitlen(p) + bitlen(ncols) + 1).  W is that width rounded up to
    whole bytes: no slot carries into the next, and the residues are read
    back exactly, once per row, after the pass.  Packing is lazy: a row is
    packed at its first nonzero pivot residue (a row that needs no
    reduction is never packed), and a stored row at its first use.

    Over Q rows are primitive integer rows, and a reduction cross-multiplies
    by the two pivot entries over their gcd and strips the content, so the
    rows selected are those Fraction arithmetic would select."""

    def __init__(self, field):
        self.p = field.p if isinstance(field, PrimeField) else None
        self.rows = []
        self.pivots = []
        self._packed = []  # over F_p: each stored row packed, or None until used
        self._ncols = None

    def add(self, vec):
        """Reduce vec against the span and insert it; True when the span grew."""
        p = self.p
        if p is None:
            return self._add_rational(primitive_integers(vec))
        ncols = len(vec)
        if self._ncols is None:
            self._ncols = ncols
            self._bytes = -(-(2 * p.bit_length() + ncols.bit_length() + 1) // 8)
        elif ncols != self._ncols:
            raise ValueError("ragged rows")
        v = [c % p for c in vec]
        lo = next((i for i, c in enumerate(v) if c), None)  # v is 0 left of lo
        if lo is None:
            return False
        w = 8 * self._bytes
        mask = (1 << w) - 1
        packed = None
        for k, piv in enumerate(self.pivots):
            if piv < lo:
                continue  # the residue at piv is already 0
            if packed is None:
                a = v[piv]
                if a:
                    packed = self._pack(v, lo)
            else:
                a = (packed >> piv * w & mask) % p
            if a:
                row = self._packed[k]
                if row is None:
                    row = self._packed[k] = self._pack(self.rows[k], piv)
                packed += (p - a) * row
            if lo == piv:
                lo += 1
        if packed is not None:
            v[lo:] = [(packed >> s & mask) % p for s in range(lo * w, ncols * w, w)]
            v[:lo] = [0] * lo
        piv = next((i for i in range(lo, ncols) if v[i]), None)
        if piv is None:
            return False
        inv = pow(v[piv], -1, p)
        v[piv:] = [inv * c % p for c in v[piv:]]
        self.rows.append(v)
        self.pivots.append(piv)
        self._packed.append(None)
        return True

    def _pack(self, v, lo):
        """The residues v as one int of byte-wide slots; v is 0 left of lo."""
        size = self._bytes
        return int.from_bytes(b"".join([c.to_bytes(size, "little")
                                        for c in v[lo:]]),
                              "little") << 8 * size * lo

    def _add_rational(self, v):
        lo = next((i for i, c in enumerate(v) if c), None)  # v is 0 left of lo
        if lo is None:
            return False
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if not c:
                continue
            a = row[piv]
            g = gcd(a, c)
            a, c = a // g, c // g
            if a != 1:
                v[lo:piv] = [a * x for x in v[lo:piv]]
            v[piv:] = [a * x - c * y for x, y in zip(v[piv:], row[piv:])]
            g = gcd(*v[lo:])
            if g > 1:
                v[lo:] = [x // g for x in v[lo:]]
            if lo == piv:
                lo += 1
        piv = next((i for i in range(lo, len(v)) if v[i]), None)
        if piv is None:
            return False
        self.rows.append(v)
        self.pivots.append(piv)
        return True


def rank_reaches(field, rows, target):
    """Is the rank of rows over the field at least target?

    False at once when there are fewer rows than target.  Over F_p the rows
    go forward-only through one Span, which stops with True once it holds
    target rows and with False once the rows left cannot bring it there.
    Over Q each row is scaled to primitive integers and ranked that way mod
    CERT_PRIME: rank mod p <= rank over Q, so reaching target is a proof,
    and only a miss is decided by Bareiss."""
    if len(rows) < target:
        return False
    if not isinstance(field, PrimeField):
        ints = [primitive_integers(r) for r in rows]
        return (rank_reaches(GF(CERT_PRIME), ints, target)
                or Matrix(field, rows).rank() >= target)
    span = Span(field)
    left = len(rows)
    for row in rows:
        left -= 1
        if span.add(row) and len(span.rows) >= target:
            return True
        if len(span.rows) + left < target:
            return False
    return len(span.rows) >= target


def rank_at_least(field, rows, bound):
    """The exact rank of rows over the field, given a proven upper bound.

    rank_reaches settles the common case, the rank reaching the bound, in
    one forward pass mod p (over Q on primitive integer rows mod
    CERT_PRIME).  On a miss the rank is counted exactly: by Bareiss over Q,
    by a full forward pass over F_p."""
    if isinstance(field, PrimeField):
        if rank_reaches(field, rows, bound):
            return bound
        span = Span(field)
        return sum(span.add(r) for r in rows)
    ints = [primitive_integers(r) for r in rows]
    if rank_reaches(GF(CERT_PRIME), ints, bound):
        return bound
    return Matrix(field, rows).rank()


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
