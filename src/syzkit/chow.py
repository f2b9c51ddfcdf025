"""Chow ring of P^n over Q: truncated classes in the hyperplane generator,
Chern class / Chern character conversion by Newton identities, Todd classes,
Euler characteristics, K-classes as binomial-basis Hilbert polynomials, and
the Bezout pairing on c2 values.

Classes are stored as coefficients of powers of the line class L (the
hyperplane of P^n itself); a polarization scale d is carried along so that
values print in H = dL.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import CertificateError, CoprimalityError, InputError
from .fields import QQ
from .linalg import Matrix, fit_hilbert_polynomial


def gbinom(a, b):
    """Binomial coefficient with arbitrary integer top, C(a, b) for b >= 0."""
    if b < 0:
        return 0
    num = 1
    for i in range(b):
        num *= a - i
    return Fraction(num, factorial(b))


class ChowClass:
    """Element of Q[L]/(L^{n+1}); scale records the polarization H = scale*L."""

    __slots__ = ("n", "coeffs", "scale")

    def __init__(self, n, coeffs, scale=1):
        self.n = n
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > n + 1:
            raise InputError(f"class has {len(cs)} coefficients on P^{n}")
        cs += [Fraction(0)] * (n + 1 - len(cs))
        self.coeffs = tuple(cs)
        self.scale = int(scale)

    @classmethod
    def unit(cls, n, scale=1):
        return cls(n, [1], scale)

    @classmethod
    def zero(cls, n, scale=1):
        return cls(n, [], scale)

    @classmethod
    def point(cls, n, scale=1):
        """The class of a point, L^n."""
        return cls(n, [0] * n + [1], scale)

    def _check(self, other):
        if self.n != other.n or self.scale != other.scale:
            raise InputError("ambient or polarization mismatch in Chow arithmetic")

    def __add__(self, other):
        self._check(other)
        return ChowClass(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)],
                         self.scale)

    def __sub__(self, other):
        self._check(other)
        return ChowClass(self.n, [a - b for a, b in zip(self.coeffs, other.coeffs)],
                         self.scale)

    def __neg__(self):
        return ChowClass(self.n, [-a for a in self.coeffs], self.scale)

    def __mul__(self, other):
        if isinstance(other, ChowClass):
            self._check(other)
            out = [Fraction(0)] * (self.n + 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if i + j <= self.n and b:
                        out[i + j] += a * b
            return ChowClass(self.n, out, self.scale)
        return ChowClass(self.n, [a * Fraction(other) for a in self.coeffs],
                         self.scale)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, ChowClass) and self.n == other.n
                and self.coeffs == other.coeffs and self.scale == other.scale)

    def __hash__(self):
        return hash((self.n, self.coeffs, self.scale))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coeffs)

    def l_ints(self):
        """Integer coefficients in the L basis; CertificateError unless
        every coefficient is an integer."""
        if not self.is_integral():
            raise CertificateError("class is not integral in the L basis",
                                   coeffs=self.coeffs)
        return tuple(int(c) for c in self.coeffs)

    def integrate(self):
        """Degree of the top piece against the fundamental class (L^n = [pt])."""
        return self.coeffs[self.n]

    def with_scale(self, scale):
        return ChowClass(self.n, self.coeffs, scale)

    def h_coeffs(self):
        """Coefficients rewritten in powers of H = scale*L."""
        return tuple(c / Fraction(self.scale) ** k for k, c in enumerate(self.coeffs))

    def to_str(self):
        parts = []
        for k, c in enumerate(self.h_coeffs()):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "H" if k == 1 else f"H^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        poly = " ".join(parts) if parts else "0"
        note = "H = L" if self.scale == 1 else f"H = {self.scale}L"
        return f"{poly} ({note})"

    def __repr__(self):
        return f"ChowClass[{self.to_str()}]"


class ChernVector:
    """Total Chern class with the rank of the underlying class."""

    __slots__ = ("rank", "total")

    def __init__(self, rank, total):
        if total.coeffs[0] != 1:
            raise InputError("total Chern class must start at 1")
        self.rank = int(rank)
        self.total = total

    def c(self, i):
        return self.total.coeffs[i]

    def __eq__(self, other):
        return (isinstance(other, ChernVector) and self.rank == other.rank
                and self.total == other.total)

    def __repr__(self):
        return f"ChernVector(rank={self.rank}, c={self.total.to_str()})"


def chern_of_twist(c, t):
    """Total Chern class after twisting by O(tH); Chern-root shift formula
    c'_k = sum_j C(r-j, k-j) s^(k-j) c_j with s = t*scale in L units."""
    n, d = c.total.n, c.total.scale
    s = t * d
    r = c.rank
    out = []
    for k in range(n + 1):
        acc = Fraction(0)
        for j in range(k + 1):
            acc += gbinom(r - j, k - j) * Fraction(s) ** (k - j) * c.total.coeffs[j]
        out.append(acc)
    return ChernVector(r, ChowClass(n, out, d))


def exp_class(n, s, scale=1):
    """exp(sL) truncated: the Chern character of O(sL)."""
    return ChowClass(n, [Fraction(s) ** k / factorial(k) for k in range(n + 1)],
                     scale)


def ch_from_c(c):
    """Chern character from a ChernVector via Newton identities;
    ch_0 = rank, ch_k = p_k / k! with p_k the root power sums."""
    n = c.total.n
    e = c.total.coeffs
    p = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        acc = Fraction(k) * e[k] * (-1) ** (k - 1)
        for i in range(1, k):
            acc += (-1) ** (i - 1) * e[i] * p[k - i]
        p[k] = acc
    out = [Fraction(c.rank)]
    for k in range(1, n + 1):
        out.append(p[k] / factorial(k))
    return ChowClass(n, out, c.total.scale)


def c_from_ch(ch):
    """Inverse of ch_from_c; the recovered Chern classes must be integral
    in L units and ch_0 must be an integer rank (CertificateError
    otherwise)."""
    n = ch.n
    rank = ch.coeffs[0]
    if rank.denominator != 1:
        raise CertificateError("Chern character has a non-integer rank",
                               rank=str(rank))
    p = [Fraction(0)] + [ch.coeffs[k] * factorial(k) for k in range(1, n + 1)]
    e = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        acc = p[k]
        for i in range(1, k):
            acc -= (-1) ** (i - 1) * e[i] * p[k - i]
        e[k] = acc * (-1) ** (k - 1) / k
    total = ChowClass(n, e, ch.scale)
    if not total.is_integral():
        raise CertificateError("Chern classes recovered from ch are not "
                               "integral", total=[str(c) for c in e])
    return ChernVector(int(rank), total)


@lru_cache(maxsize=None)
def todd(n, scale=1):
    """Todd class of P^n: (L / (1 - e^{-L}))^{n+1} truncated (computed once
    per argument; a ChowClass is never mutated)."""
    d = [Fraction((-1) ** k, factorial(k + 1)) for k in range(n + 1)]
    q = [Fraction(1)] + [Fraction(0)] * n
    for m in range(1, n + 1):
        q[m] = -sum(d[i] * q[m - i] for i in range(1, m + 1))
    base = ChowClass(n, q, scale)
    out = ChowClass.unit(n, scale)
    for _ in range(n + 1):
        out = out * base
    return out


def euler_characteristic(ch):
    """chi(F) = integral of ch(F) * Td(P^n); exact rational."""
    return (ch * todd(ch.n, ch.scale)).integrate()


def chi_of_twist(ch, k):
    """chi(F(kL)) by multiplying with exp(kL) before integrating."""
    return euler_characteristic(ch * exp_class(ch.n, k, ch.scale))


@lru_cache(maxsize=None)
def _chi_system(n):
    """The matrix of chi(F(k)) = sum_j ch_j * g_j(k) for k, j = 0..n, with
    g_j(k) = sum_s td_{n-j-s} k^s / s! (computed once per n; Matrix.solve
    does not mutate it)."""
    td = todd(n)
    rows = []
    for k in range(n + 1):
        row = []
        for j in range(n + 1):
            acc = Fraction(0)
            for s in range(0, n - j + 1):
                acc += td.coeffs[n - j - s] * Fraction(k) ** s / factorial(s)
            row.append(acc)
        rows.append(row)
    return Matrix(QQ, rows)


def ch_from_chi_values(n, values, scale=1, verify=None):
    """Chern character from exact Euler characteristics chi(F(kL)) at
    k = 0..n; the system is triangular in total degree so the solution is
    unique.  Optional verify: extra (k, chi) pairs checked afterwards.
    CertificateError when the system has no solution or a pair fails."""
    sol = _chi_system(n).solve([Fraction(v) for v in values])
    if sol is None:
        raise CertificateError("chi values give no Chern character", n=n)
    ch = ChowClass(n, sol, scale)
    for k, v in verify or ():
        got = chi_of_twist(ch.with_scale(1), k)
        if got != v:
            raise CertificateError("Chern character does not reproduce chi "
                                   "at a verification point", k=k,
                                   expected=str(v), got=str(got))
    return ch


def kclass_chi(coeffs, k):
    """Evaluate a binomial-basis Hilbert polynomial at any integer k."""
    return sum(Fraction(a) * gbinom(k + j, j) for j, a in enumerate(coeffs))


class KClass:
    """Class in K(P^n) recorded as the binomial-basis coefficient vector of
    its Hilbert polynomial chi(F(k)) = sum a_j C(k+j, j)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        self.n = n
        cs = list(coeffs) + [0] * (n + 1 - len(coeffs))
        if len(cs) > n + 1:
            raise InputError("K-class vector longer than n+1")
        self.coeffs = tuple(int(c) for c in cs)

    @classmethod
    def from_chi(cls, n, values):
        """Recover the integer binomial coefficients from chi at k = 0..n
        plus verification points (values may be longer than n+1)."""
        coeffs = fit_hilbert_polynomial(n, range(len(values)), values.__getitem__)
        if coeffs is None:
            raise CertificateError("chi values fit no integer Hilbert "
                                   "polynomial", values=values)
        return cls(n, coeffs)

    @classmethod
    def of_line_bundle(cls, n, t):
        """[O(tL)] on P^n."""
        return _line_bundle_class(n, t)

    def chi(self, k):
        v = kclass_chi(self.coeffs, k)
        if v.denominator != 1:
            raise CertificateError("K-class has a non-integer chi", k=str(k),
                                   chi=str(v))
        return int(v)

    def twist(self, t):
        vals = [self.chi(k + t) for k in range(self.n + 4)]
        return KClass.from_chi(self.n, vals)

    def _check(self, other):
        if self.n != other.n:
            raise InputError("ambient mismatch in K-class arithmetic",
                             n=self.n, other=other.n)

    def __add__(self, other):
        self._check(other)
        return KClass(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return KClass(self.n, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __eq__(self, other):
        return (isinstance(other, KClass) and self.n == other.n
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def to_ch(self, scale=1):
        vals = [self.chi(k) for k in range(self.n + 1)]
        extra = [(k, self.chi(k)) for k in range(self.n + 1, self.n + 3)]
        return ch_from_chi_values(self.n, vals, scale, verify=extra)

    def __repr__(self):
        return f"KClass(n={self.n}, coeffs={self.coeffs})"


@lru_cache(maxsize=None)
def _line_bundle_class(n, t):
    """[O(tL)] on P^n, computed once per argument (a KClass is never
    mutated)."""
    vals = [gbinom(k + t + n, n) for k in range(n + 4)]
    if any(v.denominator != 1 for v in vals):
        raise CertificateError("line bundle has a non-integer chi", n=n, t=t)
    return KClass.from_chi(n, [int(v) for v in vals])


def ch_ideal_sheaf(n, quotient_hp, scale=1):
    """Chern character of an ideal sheaf I_Z on P^n from the Hilbert
    polynomial of the quotient ring (binomial basis): chi(I_Z(k)) =
    C(k+n, n) - HP(k)."""
    ring_k = KClass.of_line_bundle(n, 0)
    z_k = KClass(n, quotient_hp)
    return (ring_k - z_k).to_ch(scale)


def bezout_h2(m1, m2):
    """Integers (a, b) with a(m1^2 - 1) + b(m2^2 - 1) = 1, expressing the
    hyperplane-square class through the two kernel c2 values; requires the
    two values coprime."""
    if m1 < 2 or m2 < 2:
        raise InputError("both twists must be at least 2", m1=m1, m2=m2)
    u, v = m1 * m1 - 1, m2 * m2 - 1
    old_r, r = u, v
    old_a, a = 1, 0
    old_b, b = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_a, a = a, old_a - q * a
        old_b, b = b, old_b - q * b
    if old_r != 1:
        raise CoprimalityError(
            f"c2 values {u} and {v} share a factor", gcd=old_r, m1=m1, m2=m2)
    if old_a * u + old_b * v != 1:
        raise CertificateError("Bezout coefficients fail their identity",
                               m1=m1, m2=m2)
    return old_a, old_b
