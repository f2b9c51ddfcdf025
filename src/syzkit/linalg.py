"""Dense exact matrices with rank, kernel and seeded random sampling, the
incremental row echelon, the rank tests over Q and F_p and primitive
integer scaling.  There is no linear solve: Hilbert polynomials, K-classes
and Chern characters convert by closed forms (groebner.series_polynomial,
chow.KClass).

Every rank and kernel is decided by one elimination, the incremental row
echelon Span: a rank counts the rows a Span accepts, and a kernel
back-substitutes on its rows, latest stored first, one vector per free
column, each verified exactly against every integer row.  Over Q a Span keeps
primitive integer rows, so no rational blow-up occurs mid-elimination, and
back-substitution rescales its integer vector only by what the next pivot
division needs.  Over F_p a Span keeps each row packed in one Python int
(a reduction step is one big-int multiply-add, and one slot-wise Barrett
reduction per pass restores exact residues; see Span), and a kernel
back-substitutes mod p on the rows unpacked to pivot 1.

rank_reaches is the one test "is the rank at least target?"; over Q a
rank mod CERT_PRIME that reaches target proves it, and the Span over Q
runs only on a miss.  Rows that already are ints (the integer rows
polyring builds) are ranked as they are, with no second scaling.
rank_at_least is the exact rank under a proven upper bound.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import CertificateError, UnsupportedFieldError
from .fields import GF, PrimeField

# the prime of the rank tests over Q: 2^31 - 1, large enough that a rank drop
# mod p on the integer rows syzkit ranks is rare
CERT_PRIME = 2 ** 31 - 1


class Matrix:
    """Row-major dense matrix over an exact field; a Span decides its rank
    and its kernel."""

    def __init__(self, field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows)

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"

    # -- elimination -------------------------------------------------------

    def rank(self):
        """The number of rows a Span accepts."""
        return sum(map(Span(self.field).add, self.rows))

    def rank_and_kernel(self):
        """Return (rank, kernel basis), one basis vector per free column.
        Over Q each vector is a primitive integer vector with a positive
        leading entry, given as Fractions.  The rows, as residues mod p or
        over Q scaled to primitive integers, go through one Span, and the
        kernel back-substitutes on its rows.
        Certified by rank-nullity and by an exact integer product of every
        kernel vector with every integer row; a failure raises
        CertificateError."""
        p = self.field.p if isinstance(self.field, PrimeField) else None
        if p is None:
            ints = [primitive_integers(r) for r in self.rows]
        else:
            ints = [[int(c) % p for c in r] for r in self.rows]
        span = Span(self.field)
        for r in ints:
            if p is None:
                # r is primitive already; the copy keeps it for the
                # certificate, as _add_rational reduces its row in place
                span._add_rational(list(r))
            else:
                span.add(r)
        # a Span row is zero at the pivots of the rows stored before it, so
        # the rows in reverse order of storage back-substitute like an echelon
        if p is None:
            kernel = _integer_kernel(span.pivots, span.rows, self.ncols)
        else:
            kernel = _kernel_mod_p(span.pivots, span.rows, self.ncols, p)
        rank = len(span.pivots)
        if rank + len(kernel) != self.ncols:
            raise CertificateError("kernel fails rank-nullity", rank=rank,
                                   nullity=len(kernel), ncols=self.ncols)
        _verify_kernel(ints, kernel, p)
        if p is None:
            kernel = [[Fraction(c) for c in w] for w in kernel]
        return rank, kernel

    def kernel(self):
        return self.rank_and_kernel()[1]


def _kernel_mod_p(pivots, rows, ncols, p):
    """Kernel basis mod p from the rows of a Span over F_p (pivot entry 1,
    each zero at the pivots of the rows before it), back-substituted last
    row first: per free column, the vector that is 1 there and 0 at every
    other free column."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [0] * ncols
        v[fc] = 1
        support = [fc]
        for piv, row in zip(reversed(pivots), reversed(rows)):
            s = sum(row[j] * v[j] for j in support) % p
            if s:
                v[piv] = p - s
                support.append(piv)
        basis.append(v)
    return basis


def _integer_kernel(pivots, rows, ncols):
    """Kernel basis over Q from the integer rows of a Span (each zero at
    the pivots of the rows before it), back-substituted last row first, in
    integers throughout: per free column, a primitive integer vector with a
    positive leading entry (the rational back-substitution scaled to
    coprime integers)."""
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


def primitive_integers(vec):
    """Coprime integers proportional to a rational vector.  The sign is left
    alone and the zero vector maps to zeros."""
    den = lcm(*(c.denominator for c in vec))
    ints = [c.numerator * (den // c.denominator) for c in vec]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


@lru_cache(maxsize=None)
def _slots(p, ncols):
    """(W, slot mask, normalize) of ncols packed residues mod p (see Span)."""
    b = p.bit_length()
    s = 2 * b + (ncols + 1).bit_length() + 1
    w = -(-(2 * s - 2 * b + 2) // 8) * 8
    ones = ((1 << w * ncols) - 1) // ((1 << w) - 1)
    low = ones * ((1 << s - b + 1) - 1)
    mu = (1 << s) // p
    off = ones * ((1 << b + 1) - p)

    def normalize(x):
        x -= ((x >> b - 1 & low) * mu >> s - b + 1 & low) * p
        x -= ((x + off) >> b + 1 & ones) * p
        return x - ((x + off) >> b + 1 & ones) * p

    return w, (1 << w) - 1, normalize


class Span:
    """Incremental row echelon over a field: the span of the rows added so
    far.  A stored row is zero left of its pivot and at the pivots of the
    rows stored before it, so a new row reduces in one pass over the stored
    rows.  pivots holds their pivot columns; rows of unequal length raise.

    Over F_p a row is one int of W-bit slots, column j in bits [j*W,
    (j+1)*W); a stored row holds residues in [0, p) and the inverse of its
    pivot residue.  Reducing x by the row R at pivot c is x += (p - a)*R
    with a = slot(x, c)*inv mod p.  Let b = bitlen(p), s = 2b +
    bitlen(ncols+1) + 1: a slot starts below p and gains at most (p-1)^2
    in each of at most ncols steps, so it stays below (ncols+1)*p^2 < 2^s.
    If a step changed x, a slot-wise Barrett step q = ((x >> (b-1) & M)*mu
    >> (s-b+1)) & M, x -= q*p, with mu = 2^s // p and M the low s-b+1 bits
    of every slot, leaves each slot below 3p; its products are below
    2^(2s-2b+2), that width rounded up to bytes is W, and no slot carries.
    Two conditional subtractions (add 2^(b+1) - p to every slot, read bit
    b+1, subtract p where it is set) leave exact residues: x == 0 is a
    dependent row, the slot of its lowest set bit the pivot.  rows is a
    view that unpacks and scales to pivot 1 on each read.

    Over Q rows are primitive integer rows, and a reduction cross-multiplies
    by the two pivot entries over their gcd and strips the content, so the
    rows selected are those Fraction arithmetic would select."""

    def __init__(self, field):
        self.p = field.p if isinstance(field, PrimeField) else None
        self.pivots = []
        self._rows = []  # over F_p packed ints, over Q integer lists
        self._invs = []  # over F_p the inverse of each pivot residue
        self._ncols = None

    @property
    def rows(self):
        if self.p is None or not self._rows:
            return list(self._rows)
        w, mask, _ = _slots(self.p, self._ncols)
        return [[(x >> s & mask) * inv % self.p
                 for s in range(0, self._ncols * w, w)]
                for x, inv in zip(self._rows, self._invs)]

    def add(self, vec):
        """Reduce vec against the span and insert it; True when the span grew."""
        if self._ncols is None:
            self._ncols = len(vec)
        elif len(vec) != self._ncols:
            raise ValueError("ragged rows")
        p = self.p
        if p is None:
            return self._add_rational(primitive_integers(vec))
        w, mask, normalize = _slots(p, self._ncols)
        x = sum([c % p << s for s, c in zip(range(0, len(vec) * w, w), vec)
                 if c])
        if not x:
            return False
        lo = ((x & -x).bit_length() - 1) // w  # x is 0 left of slot lo
        reduced = False
        for row, piv, inv in zip(self._rows, self.pivots, self._invs):
            if piv >= lo:
                a = (x >> piv * w & mask) * inv % p
                if a:
                    x += (p - a) * row
                    reduced = True
        if reduced:
            x = normalize(x)
            if not x:
                return False
            lo = ((x & -x).bit_length() - 1) // w
        self._rows.append(x)
        self.pivots.append(lo)
        self._invs.append(pow(x >> lo * w & mask, -1, p))
        return True

    def _add_rational(self, v):
        lo = next((i for i, c in enumerate(v) if c), None)  # v is 0 left of lo
        if lo is None:
            return False
        for row, piv in zip(self._rows, self.pivots):
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
        self._rows.append(v)
        self.pivots.append(piv)
        return True


def _integer_rows(rows):
    """Rational rows as integers for a rank mod p: a row of ints as it is,
    any other scaled to primitive integers.  Each row changes by a nonzero
    scalar only, and the rank mod p of integer rows is at most their rank
    over Q, whatever the scaling."""
    return [r if set(map(type, r)) <= {int} else primitive_integers(r)
            for r in rows]


def rank_reaches(field, rows, target):
    """Is the rank of rows over the field at least target?

    False at once when there are fewer rows than target.  Over F_p the rows
    go forward-only through one Span, which stops with True once it holds
    target rows and with False once the rows left cannot bring it there.
    Over Q the _integer_rows are ranked mod CERT_PRIME: rank mod p <= rank
    over Q, so reaching target is a proof, and only a miss is decided by a
    Span over Q."""
    if len(rows) < target:
        return False
    if not isinstance(field, PrimeField):
        return (rank_reaches(GF(CERT_PRIME), _integer_rows(rows), target)
                or Matrix(field, rows).rank() >= target)
    span = Span(field)
    left = len(rows)
    for row in rows:
        left -= 1
        if span.add(row) and len(span.pivots) >= target:
            return True
        if len(span.pivots) + left < target:
            return False
    return len(span.pivots) >= target


def rank_at_least(field, rows, bound):
    """The exact rank of rows over the field, given a proven upper bound.

    rank_reaches settles the common case, the rank reaching the bound, in
    one forward pass mod p (over Q on the _integer_rows mod CERT_PRIME).
    On a miss the rank is counted exactly, by a Span over the field."""
    if isinstance(field, PrimeField):
        reached = rank_reaches(field, rows, bound)
    else:
        reached = rank_reaches(GF(CERT_PRIME), _integer_rows(rows), bound)
    return bound if reached else Matrix(field, rows).rank()


def random_matrix(field, nrows, ncols, seed):
    """Uniform random matrix over F_p; identical (seed, dims, p) gives an
    identical matrix.  Rationals have no uniform distribution: rejected."""
    if not isinstance(field, PrimeField):
        raise UnsupportedFieldError("random sampling is defined over prime fields only")
    rng = random.Random(seed)
    return Matrix(field, [[rng.randrange(field.p) for _ in range(ncols)]
                          for _ in range(nrows)])
