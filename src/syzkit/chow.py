"""Chow ring of P^n over Q: truncated classes in the hyperplane generator,
Chern class / Chern character conversion by Newton identities, Todd classes,
Euler characteristics, K-classes as binomial-basis Hilbert polynomials, and
the Bezout pairing on c2 values.

Classes are stored as coefficients of powers of the line class L (the
hyperplane of P^n itself); a polarization scale d is carried along so that
values print in H = dL.

Every conversion between Hilbert series, K-classes and Chern characters is
a closed form, with no linear solve.  The binomial-basis class C(k+j, j) is
[O_{P^j}]: its Hilbert series is 1/(1-z)^(j+1), i.e. the numerator
(1-z)^(n-j) over (1-z)^(n+1), and by its Koszul complex its Chern character
is (1 - e^{-L})^(n-j).  So a numerator reads as a K-class through
groebner.series_polynomial, a twist by t multiplies the numerator by z^-t,
and ch = sum a_j (1 - e^{-L})^(n-j), certified by Riemann-Roch.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import CertificateError, CoprimalityError, InputError
from .groebner import gbinom, series_polynomial


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


def kclass_chi(coeffs, k):
    """Evaluate a binomial-basis Hilbert polynomial at any integer k."""
    return sum(Fraction(a) * gbinom(k + j, j) for j, a in enumerate(coeffs))


class KClass:
    """Class in K(P^n) recorded as the binomial-basis coefficient vector of
    its Hilbert polynomial chi(F(k)) = sum a_j C(k+j, j): integers, the
    class being sum a_j [O_{P^j}]."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        self.n = n
        cs = list(coeffs) + [0] * (n + 1 - len(coeffs))
        if len(cs) > n + 1:
            raise InputError("K-class vector longer than n+1")
        self.coeffs = tuple(int(c) for c in cs)
        if self.coeffs != tuple(cs):
            raise InputError("K-class coefficients must be integers",
                             coeffs=[str(c) for c in cs])

    @classmethod
    def of_line_bundle(cls, n, t):
        """[O(tL)] on P^n, whose Hilbert series numerator is z^-t."""
        return cls(n, series_polynomial({-t: 1}, n + 1))

    def chi(self, k):
        v = kclass_chi(self.coeffs, k)
        if v.denominator != 1:
            raise CertificateError("K-class has a non-integer chi", k=str(k),
                                   chi=str(v))
        return int(v)

    def twist(self, t):
        """[F(tL)]: the numerator sum a_j (1-z)^(n-j) times z^-t."""
        n, num = self.n, {}
        for j, a in enumerate(self.coeffs):
            for i in range(n - j + 1):
                num[i - t] = num.get(i - t, 0) + (-1) ** i * gbinom(n - j, i) * a
        return KClass(n, series_polynomial(num, n + 1))

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

    @lru_cache(maxsize=None)
    def to_ch(self, scale=1):
        """sum a_j (1 - e^{-L})^(n-j), computed once per class and scale (a
        KClass and a ChowClass are never mutated).  Certificate: chi(ch *
        e^{kL}) equals chi(k) at k = 0..n, n+1 values of two polynomials of
        degree n, so they agree everywhere; CertificateError otherwise."""
        n = self.n
        u = ChowClass.unit(n, scale) - exp_class(n, -1, scale)
        ch, power = ChowClass.zero(n, scale), ChowClass.unit(n, scale)
        for a in reversed(self.coeffs):
            ch = ch + power * a
            power = power * u
        for k in range(n + 1):
            got = chi_of_twist(ch, k)
            if got != self.chi(k):
                raise CertificateError("Chern character fails Riemann-Roch",
                                       k=k, expected=self.chi(k),
                                       got=str(got))
        return ch

    def __repr__(self):
        return f"KClass(n={self.n}, coeffs={self.coeffs})"


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
