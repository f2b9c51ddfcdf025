"""Homogeneous multivariate polynomials over Q, with Fraction coefficients.

Variables are x0..xn (n+1 of them for P^n).  Monomials are exponent
tuples; supported orders are grevlex (default) and lex.  Every polynomial
is homogeneous: graded pieces are the whole data model, so inhomogeneous
input is rejected at construction.

Integer work starts from one scaling per form, computed once:
GradedPoly.int_terms, its primitive integers (a nonzero rescaling, which
changes no rank and no zero set).  A ring caches, next to its degree-d
monomial lists, a product-column table: for an exponent e and a multiplier
degree k, the columns of the products e*m, m over the degree-k monomials
(k = 0 is the column of e).  multiple_rows reads it to build integer rows
of multiples, with no product polynomial formed.

A form is evaluated at a point only as the sum c*value over its integer
terms, against monomial_values: one table of the degree-t monomials at
integer_powers of the point per degree.
"""

from fractions import Fraction
from math import comb
from operator import mul

from .errors import (CertificateError, HomogeneityError, ParseError,
                     RingMismatchError)
from .fields import QQ
from .linalg import Matrix, primitive_integers


def grevlex_key(exps):
    # larger key = larger monomial: graded, ties broken so the last nonzero
    # entry of the difference is negative
    return (sum(exps), tuple(-e for e in reversed(exps)))


def lex_key(exps):
    return exps


ORDER_KEYS = {"grevlex": grevlex_key, "lex": lex_key}

# the order keys negated entry by entry: the smallest key is the largest
# monomial, so a min-heap pops terms in descending order
DESCENDING_KEYS = {"grevlex": lambda e: (-sum(e), e[::-1]),
                   "lex": lambda e: tuple(-a for a in e)}


class PolyRing:
    """Q[x0..xn] with a monomial order."""

    field = QQ

    def __init__(self, num_vars, order="grevlex"):
        if order not in ORDER_KEYS:
            raise ParseError(f"unknown monomial order {order!r}")
        self.num_vars = num_vars
        self.order = order
        self.key = ORDER_KEYS[order]
        self.descending_key = DESCENDING_KEYS[order]
        self._mon_cache = {}
        self._col_cache = {}

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.num_vars == other.num_vars
                and self.order == other.order)

    def __hash__(self):
        return hash((self.num_vars, self.order))

    def __repr__(self):
        return f"{self.field!r}[x0..x{self.num_vars - 1}]/{self.order}"

    def gens(self):
        n = self.num_vars
        return [self.monomial(tuple(1 if j == i else 0 for j in range(n)))
                for i in range(n)]

    def zero(self, degree=None):
        return GradedPoly(self, {}, degree)

    def one(self):
        return self.monomial((0,) * self.num_vars)

    def monomial(self, exps, coeff=None):
        c = QQ.one if coeff is None else coeff
        return GradedPoly(self, {tuple(exps): c})

    def from_terms(self, terms, degree=None):
        return GradedPoly(self, dict(terms), degree)

    def monomials_of_degree(self, d):
        """All degree-d monomials sorted descending in the ring order."""
        if d < 0:
            return []
        if d not in self._mon_cache:
            n = self.num_vars
            mons = [e for e in _compositions(d, n)]
            mons.sort(key=self.key, reverse=True)
            if len(mons) != comb(d + n - 1, n - 1):
                raise CertificateError("monomial count is not the piece dimension",
                                       degree=d, count=len(mons))
            self._mon_cache[d] = mons
        return self._mon_cache[d]

    def product_columns(self, e, k):
        """The position in monomials_of_degree(sum(e) + k) of e*m for each m
        in monomials_of_degree(k), in that order; cached per (e, k)."""
        cols = self._col_cache.get((e, k))
        if cols is None:
            index = {f: i for i, f in
                     enumerate(self.monomials_of_degree(sum(e) + k))}
            cols = self._col_cache[(e, k)] = [
                index[tuple(a + b for a, b in zip(e, m))]
                for m in self.monomials_of_degree(k)]
        return cols

    def piece_dim(self, d):
        if d < 0:
            return 0
        return comb(d + self.num_vars - 1, self.num_vars - 1)

    def to_vector(self, poly, degree=None):
        """Coefficient vector of a homogeneous poly in the degree basis."""
        d = poly.degree if degree is None else degree
        if poly.is_zero():
            return [QQ.zero] * self.piece_dim(d)
        if poly.degree != d:
            raise HomogeneityError(f"degree {poly.degree} piece requested at {d}")
        return [poly.coeffs.get(m, QQ.zero) for m in self.monomials_of_degree(d)]

    def parse(self, text):
        return _parse_poly(self, text)


def _compositions(d, n):
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _compositions(d - first, n - 1):
            yield (first,) + rest


class GradedPoly:
    """Homogeneous polynomial: dict of exponent-tuple -> nonzero coefficient."""

    __slots__ = ("ring", "coeffs", "_degree", "_ints")

    def __init__(self, ring, coeffs, degree=None):
        self.ring = ring
        clean = {}
        deg = degree
        for exps, c in coeffs.items():
            if not c:
                continue
            e = tuple(exps)
            if len(e) != ring.num_vars:
                raise HomogeneityError(f"exponent tuple {e} has wrong arity")
            d = sum(e)
            if deg is None:
                deg = d
            elif d != deg:
                raise HomogeneityError(
                    f"mixed degrees {deg} and {d} in one graded polynomial")
            clean[e] = c
        self.coeffs = clean
        self._degree = deg
        self._ints = None

    @property
    def degree(self):
        return self._degree

    @property
    def int_terms(self):
        """integer_terms of the coefficients, computed once and shared:
        callers must not mutate the dict."""
        if self._ints is None:
            self._ints = integer_terms(self.coeffs)
        return self._ints

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("polynomials from different rings")

    def __add__(self, other):
        self._check(other)
        if not self.is_zero() and not other.is_zero() and self.degree != other.degree:
            raise HomogeneityError("sum of different degrees is not graded")
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, QQ.zero) + c
        return GradedPoly(self.ring, out, self._degree if self._degree is not None else other._degree)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GradedPoly(self.ring, {e: -c for e, c in self.coeffs.items()},
                          self._degree)

    def scale(self, c):
        if not c:
            return GradedPoly(self.ring, {}, self._degree)
        return GradedPoly(self.ring, {e: c * v for e, v in self.coeffs.items()},
                          self._degree)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        deg = None
        if self._degree is not None and other._degree is not None:
            deg = self._degree + other._degree
        return GradedPoly(self.ring, out, deg)

    def mul_monomial(self, exps, coeff=None):
        out = {tuple(a + b for a, b in zip(e, exps)):
               v if coeff is None else coeff * v
               for e, v in self.coeffs.items()}
        deg = None if self._degree is None else self._degree + sum(exps)
        return GradedPoly(self.ring, out, deg)

    def leading(self):
        """(exponents, coefficient) of the largest monomial."""
        if self.is_zero():
            raise ValueError("leading term of zero")
        e = max(self.coeffs, key=self.ring.key)
        return e, self.coeffs[e]

    def evaluate(self, point):
        """The exact value at a point of rationals or integers."""
        acc = QQ.zero
        for e, c in self.coeffs.items():
            for xi, ei in zip(point, e):
                c *= xi ** ei
            acc += c
        return acc

    def sorted_terms(self):
        return sorted(self.coeffs.items(), key=lambda t: self.ring.key(t[0]),
                      reverse=True)

    def __eq__(self, other):
        return (isinstance(other, GradedPoly) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        return self.to_str()

    def to_str(self):
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"x{i}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e) if k > 0)
            cs = str(c)
            if mono:
                if cs == "1":
                    term = mono
                elif cs == "-1":
                    term = "-" + mono
                else:
                    term = f"{cs}*{mono}"
            else:
                term = cs
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term[1:])
            else:
                parts.append(term)
        return " ".join(parts)


def multiplied_elements(ring, elems, d):
    """The nonzero elems of degree at most d, each with the monomials of
    degree d - deg g it is multiplied by.  This is the one order of the
    multiples m*g that piece_multiples and multiple_rows both follow."""
    return [(g, ring.monomials_of_degree(d - g.degree)) for g in elems
            if not g.is_zero() and g.degree <= d]


def piece_multiples(ring, elems, d):
    """The monomial multiples m*g (deg m = d - deg g) of the nonzero elems
    of degree at most d, in the order of multiplied_elements: they span the
    degree-d piece of the ideal or submodule that elems generate.  Elements
    are polynomials or module elements."""
    return [g.mul_monomial(m)
            for g, mons in multiplied_elements(ring, elems, d) for m in mons]


def integer_terms(terms):
    """A new dict of the terms with primitive integer coefficients, a
    nonzero rescaling of the form that changes no rank, no zero set and no
    rows a Span picks."""
    return dict(zip(terms, primitive_integers(list(terms.values()))))


def multiple_rows(ring, elems, d):
    """The rows of piece_multiples(ring, elems, d) as integers, in the same
    order, in the degree-d basis: the monomial basis for polynomials and
    FreeModule.piece_basis(d) for module elements (read off their free
    module's shifts).  Each element enters by its integer terms (int_terms
    of a polynomial), and a multiple's row is zeros with those integers at
    the columns ring.product_columns gives."""
    rows = []
    for g, mons in multiplied_elements(ring, elems, d):
        free = getattr(g, "free", None)
        if free is None:
            offsets = [0, ring.piece_dim(d)]
            terms = [((0, e), c) for e, c in g.int_terms.items()]
        else:
            offsets = [0]
            for s in free.shifts:
                offsets.append(offsets[-1] + ring.piece_dim(d - s))
            terms = integer_terms(g.terms).items()
        k = d - g.degree
        block = [[0] * offsets[-1] for _ in mons]
        for (comp, e), c in terms:
            for row, col in zip(block, ring.product_columns(e, k)):
                row[offsets[comp] + col] = c
        rows += block
    return rows


def graded_piece_dim(ring, gens, d):
    """dim of the degree-d piece of the ideal (gens)."""
    return span_dim(ring, piece_multiples(ring, gens, d), d)


def span_dim(ring, polys, d):
    """Dimension of the linear span of homogeneous degree-d polynomials."""
    rows = [ring.to_vector(p, d) for p in polys if not p.is_zero()]
    if not rows:
        return 0
    return Matrix(QQ, rows).rank()


def integer_powers(point, top):
    """Powers x^0..x^top of each coordinate of the point scaled to primitive
    integers.  The scaling is a projective rescaling: a form vanishes at the
    scaled point exactly when it vanishes at the point, and a row of its
    Jacobian there only changes by a nonzero constant."""
    return [[x ** k for k in range(top + 1)] for x in primitive_integers(point)]


def monomial_values(ring, powers, t, q=None):
    """{exponents: value} of the degree-t monomials at a point given by its
    integer_powers: exact integers, or residues mod q when q is given."""
    values = {}
    for e in ring.monomials_of_degree(t):
        v = 1
        for pw, k in zip(powers, e):
            v *= pw[k]
        values[e] = v if q is None else v % q
    return values


def terms_value(terms, values):
    """The sum of c * values[e] over the integer terms {e: c}."""
    return sum(map(mul, terms.values(), map(values.__getitem__, terms)))


def values_at(polys, point):
    """Lazily, the value at the point of each form's int_terms at
    integer_powers of the point, from one monomial_values table per degree.
    Both scalings are nonzero, so a value is zero exactly when the form
    vanishes at the point."""
    ring = polys[0].ring
    powers = integer_powers(point, max(f.degree or 0 for f in polys))
    tables = {}
    for f in polys:
        t = f.degree or 0
        if t not in tables:
            tables[t] = monomial_values(ring, powers, t)
        yield terms_value(f.int_terms, tables[t])


def vanish_at(polys, points):
    """True when every form vanishes at every point, by values_at: per
    point one table of monomial values per degree, and per form one sum
    over its integer terms; the first nonzero value ends the test."""
    return not polys or not any(any(values_at(polys, pt)) for pt in points)


# -- parser ---------------------------------------------------------------
#
# poly   := ['+'|'-'] term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := coeff | var ['^' int]
# coeff  := int ['/' int]
# var    := 'x' int


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch == "x":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(f"variable without index at position {i}")
            tokens.append(text[i:j])
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
    return tokens


def _parse_poly(ring, text):
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial")
    result = None
    pos = 0
    sign = 1
    while pos < len(tokens):
        if tokens[pos] in "+-":
            sign = -1 if tokens[pos] == "-" else 1
            pos += 1
            if pos >= len(tokens) or tokens[pos] in "+-":
                raise ParseError("dangling sign")
        coeff = Fraction(sign)
        exps = [0] * ring.num_vars
        expect_factor = True
        while pos < len(tokens) and tokens[pos] not in "+-":
            tok = tokens[pos]
            if tok == "*":
                pos += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise ParseError(f"missing '*' before {tok!r}")
            if tok.isdigit():
                num = int(tok)
                pos += 1
                if pos < len(tokens) and tokens[pos] == "/":
                    pos += 1
                    if pos >= len(tokens) or not tokens[pos].isdigit():
                        raise ParseError("malformed rational coefficient")
                    den = int(tokens[pos])
                    if not den:
                        raise ParseError(f"coefficient {num}/{den} has a zero "
                                         f"denominator in QQ")
                    coeff *= Fraction(num, den)
                    pos += 1
                else:
                    coeff *= num
            elif tok.startswith("x"):
                idx = int(tok[1:])
                if idx >= ring.num_vars:
                    raise ParseError(f"variable {tok} out of range "
                                     f"(ring has x0..x{ring.num_vars - 1})")
                pos += 1
                power = 1
                if pos < len(tokens) and tokens[pos] == "^":
                    pos += 1
                    if pos >= len(tokens) or not tokens[pos].isdigit():
                        raise ParseError("malformed exponent")
                    power = int(tokens[pos])
                    pos += 1
                exps[idx] += power
            else:
                raise ParseError(f"unexpected token {tok!r}")
            expect_factor = False
        term = GradedPoly(ring, {tuple(exps): coeff})
        result = term if result is None else result + term
        sign = 1
    return result
