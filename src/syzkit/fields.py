"""Exact scalars: the rationals, the one coefficient field, and prime
fields, which only certify and sample.

A field object validates and coerces; arithmetic is the operators of its
elements.  Rationals are ``fractions.Fraction`` (stdlib keeps lowest terms
and a positive denominator); polynomials, ideals and kernels have them as
coefficients.  Mod-p residues are plain ints in ``[0, p)``: the rank tests
of linalg, the Groebner leads mod CERT_PRIME and the sampling field of the
experiments.
"""

from fractions import Fraction

from .errors import UnsupportedFieldError

DEFAULT_PRIME = 32003


def _is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin, valid far beyond 64 bits of input
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field Q; elements are Fraction."""

    name = "QQ"
    characteristic = 0

    def __call__(self, a, b=None):
        if b is not None:
            return Fraction(a, b)
        if isinstance(a, (int, Fraction)):
            return Fraction(a)
        raise UnsupportedFieldError(f"cannot coerce {a!r} into QQ")

    zero = Fraction(0)
    one = Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_p; elements are ints in [0, p)."""

    characteristic = None  # set per instance

    def __init__(self, p):
        if not _is_prime(p):
            raise UnsupportedFieldError(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def __call__(self, a, b=None):
        p = self.p
        if b is not None:
            if b % p == 0:
                raise ZeroDivisionError(f"denominator {b} is zero in {self.name}")
            return self(a) * pow(b, -1, p) % p
        if isinstance(a, int):
            return a % p
        if isinstance(a, Fraction):
            return self(a.numerator, a.denominator)
        raise UnsupportedFieldError(f"cannot coerce {a!r} into {self.name}")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()

_gf_cache = {}


def GF(p=DEFAULT_PRIME):
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]
