"""Graded Groebner machinery: Buchberger for ideals and free-module
submodules, syzygies, minimal free resolutions, Betti data, Hilbert series
of monomial ideals and modules, bases of ideal pieces read off leading
monomials, ideal quotients and saturation.

Module elements live in a shifted free module R(-a_0) + ... + R(-a_r);
the module order is position-over-term (lower component index dominates),
induced from the ring order.  Syzygies are computed by the tag-block
elimination: append a unit tag component per generator and intersect the
Groebner basis with the tag block.

Coefficients are rationals.  Inside this layer an element is a dict
{(comp, exps): int} of integer terms: primitive integers over Q, or
residues in [0, p) for the leads mod CERT_PRIME, so one reduction loop
serves both and no Fraction is formed.  The loop takes the next term off
a heap, keyed once per term by the ring's descending key.  Over Q a
reducer g with leading coefficient lc clears a term with coefficient c by
pseudo-division: with q = gcd(c, lc) the remainder is scaled by lc/q and
(c/q)*x^u*g is subtracted.  Mod p the reducers are stored monic and
c*x^u*g is subtracted mod p.  A normal form is therefore the remainder up
to a nonzero scalar, which is all its callers read: they test it for zero
or rescale it.  Fractions are built only where a Vec leaves the layer.

An ideal answers emptiness and dimension questions first from one
Groebner basis mod CERT_PRIME of its primitive integer generators, and
computes the basis over Q only when that misses (Ideal.is_projectively_empty
gives the proof).
"""

import heapq
from fractions import Fraction
from functools import reduce
from math import comb, factorial, gcd

from .errors import (BudgetError, CertificateError, HomogeneityError,
                     NonMinimalError, RingMismatchError)
from .fields import GF, QQ
from .linalg import CERT_PRIME, Span
from .polyring import (GradedPoly, integer_terms, multiple_rows,
                       multiplied_elements)


class FreeModule:
    """Free graded module with generator shifts (degrees of basis vectors)."""

    def __init__(self, ring, shifts):
        self.ring = ring
        self.shifts = tuple(shifts)
        self.rank = len(self.shifts)

    def __eq__(self, other):
        return (isinstance(other, FreeModule) and self.ring == other.ring
                and self.shifts == other.shifts)

    def __hash__(self):
        return hash((self.ring, self.shifts))

    def __repr__(self):
        return f"Free(rank={self.rank}, shifts={self.shifts})"

    def piece_dim(self, d):
        return sum(self.ring.piece_dim(d - s) for s in self.shifts)

    def piece_basis(self, d):
        """[(comp, exps)] basis of the degree-d piece, deterministic order."""
        out = []
        for comp, s in enumerate(self.shifts):
            for m in self.ring.monomials_of_degree(d - s):
                out.append((comp, m))
        return out


class Vec:
    """Homogeneous element of a shifted free module."""

    __slots__ = ("free", "terms", "_degree")

    def __init__(self, free, terms, degree=None):
        self.free = free
        clean = {}
        deg = degree
        for (comp, exps), c in terms.items():
            if not c:
                continue
            d = sum(exps) + free.shifts[comp]
            if deg is None:
                deg = d
            elif d != deg:
                raise HomogeneityError(f"mixed degrees {deg} and {d} in module element")
            clean[(comp, tuple(exps))] = c
        self.terms = clean
        self._degree = deg

    @property
    def degree(self):
        return self._degree

    def is_zero(self):
        return not self.terms

    def _key(self):
        rk = self.free.ring.key
        return lambda t: (-t[0], rk(t[1]))

    def lead(self):
        if not self.terms:
            raise ValueError("lead of zero element")
        t = max(self.terms, key=self._key())
        return t[0], t[1], self.terms[t]

    def scale(self, c):
        if not c:
            return Vec(self.free, {}, self._degree)
        return Vec(self.free, {t: c * v for t, v in self.terms.items()},
                   self._degree)

    def __add__(self, other):
        if self.free != other.free:
            raise RingMismatchError("module elements from different free modules")
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = out.get(t, QQ.zero) + c
        deg = self._degree if self._degree is not None else other._degree
        return Vec(self.free, out, deg)

    def __sub__(self, other):
        return self + other.scale(-QQ.one)

    def mul_monomial(self, exps, coeff=None):
        out = {}
        for (comp, e), v in self.terms.items():
            out[(comp, tuple(a + b for a, b in zip(e, exps)))] = \
                v if coeff is None else coeff * v
        deg = None if self._degree is None else self._degree + sum(exps)
        return Vec(self.free, out, deg)

    def component(self, comp):
        """The comp-th coordinate as a polynomial."""
        ring = self.free.ring
        terms = {e: c for (cc, e), c in self.terms.items() if cc == comp}
        deg = None if self._degree is None else self._degree - self.free.shifts[comp]
        return GradedPoly(ring, terms, deg if deg is None or deg >= 0 else None)

    def project(self, free, offset):
        """Restrict to components [offset, offset+free.rank) re-indexed from 0."""
        terms = {(comp - offset, e): c for (comp, e), c in self.terms.items()
                 if offset <= comp < offset + free.rank}
        return Vec(free, terms)

    def coords(self, basis_index, d):
        """Coefficient vector in the degree-d piece basis (index dict)."""
        out = [QQ.zero] * len(basis_index)
        for t, c in self.terms.items():
            out[basis_index[t]] = c
        return out

    def __eq__(self, other):
        return (isinstance(other, Vec) and self.free == other.free
                and self.terms == other.terms)

    def __repr__(self):
        items = ", ".join(f"e{c}*[{GradedPoly(self.free.ring, {e: v})}]"
                          for (c, e), v in sorted(self.terms.items()))
        return f"Vec({items or '0'})"


def poly_to_vec(free, comp, poly):
    return Vec(free, {(comp, e): c for e, c in poly.coeffs.items()})


def vecs_from_polys(ring, polys):
    free = FreeModule(ring, (0,))
    return free, [poly_to_vec(free, 0, p) for p in polys if not p.is_zero()]


# -- integer terms -----------------------------------------------------------


def _to_vec(free, terms, lc=1, degree=None):
    """Integer terms divided by lc, as a Vec with Fraction coefficients."""
    return Vec(free, {t: Fraction(c, lc) for t, c in terms.items()}, degree)


def _lead(terms, desc):
    """The leading term: lowest component, then largest monomial."""
    return min(terms, key=lambda t: (t[0], desc(t[1])))


def _normalize(terms, p, desc):
    """Scale integer terms in place: monic mod p when p is given; over Q
    (p None) primitive with a positive leading coefficient (tames growth
    inside Buchberger).  Returns the leading term."""
    lead = _lead(terms, desc)
    c = terms[lead]
    if p is not None:
        if c != 1:
            inv = pow(c, -1, p)
            for t in terms:
                terms[t] = terms[t] * inv % p
        return lead
    g = gcd(*terms.values())
    if c < 0:
        g = -g
    if g != 1:
        for t in terms:
            terms[t] //= g
    return lead


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


class _Reducers:
    """Normalized reducers (lead exps, lead coefficient, tail terms) grouped
    by the component of their lead, searched in the order they were added."""

    def __init__(self, p):
        self.p = p
        self.by_comp = {}

    def add(self, terms, lead):
        tail = [(t, c) for t, c in terms.items() if t != lead]
        self.by_comp.setdefault(lead[0], []).append((lead[1], terms[lead], tail))

    def without(self, lead):
        """The same reducers less the one with this lead."""
        out = _Reducers(self.p)
        out.by_comp = dict(self.by_comp)
        out.by_comp[lead[0]] = [r for r in self.by_comp[lead[0]] if r[0] != lead[1]]
        return out

    def find(self, comp, exps):
        for red in self.by_comp.get(comp, ()):
            if all(x <= y for x, y in zip(red[0], exps)):
                return red
        return None


def _reduce_full(work, reducers, desc):
    """Full normal form of the integer terms work (consumed) by the
    reducers, up to a nonzero scalar.  The remainder's terms come back in
    descending order, so its first key is its lead."""
    p = reducers.p
    heap = [(comp, desc(e), e) for comp, e in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    out = {}
    while heap:
        comp, _, exps = pop(heap)
        t = (comp, exps)
        c = work.pop(t, 0)
        if not c:
            continue  # cancelled, or a second heap entry of a re-added term
        red = reducers.find(comp, exps)
        if red is None:
            out[t] = c
            continue
        le, lc, tail = red
        if p is None:
            q = gcd(c, lc)
            m, c = lc // q, c // q
            if m != 1:
                for s in work:
                    work[s] *= m
                for s in out:
                    out[s] *= m
        u = tuple(a - b for a, b in zip(exps, le))
        for (gc, ge), gv in tail:
            e = tuple(a + b for a, b in zip(ge, u))
            s = (gc, e)
            cur = work.get(s)
            if cur is None:
                work[s] = -c * gv if p is None else -c * gv % p
                push(heap, (gc, desc(e), e))
                continue
            nxt = cur - c * gv if p is None else (cur - c * gv) % p
            if nxt:
                work[s] = nxt
            else:
                del work[s]
    return out


def _interreduce(free, elems, p):
    """The integer elements in echelon form degree by degree (one Span per
    degree holding two or more): the same submodule from fewer elements
    with distinct leads in each degree.  Only for callers that read a
    reduced basis or leads; never for syzygies, whose tag components index
    the input elements."""
    by_deg = {}
    for terms in elems:
        comp, e = next(iter(terms))
        by_deg.setdefault(sum(e) + free.shifts[comp], []).append(terms)
    out = []
    for d in sorted(by_deg):
        group = by_deg[d]
        if len(group) > 1:
            basis = free.piece_basis(d)
            index = {t: i for i, t in enumerate(basis)}
            span = Span(QQ if p is None else GF(p))
            for terms in group:
                row = [0] * len(basis)
                for t, c in terms.items():
                    row[index[t]] = c
                span.add(row)
            group = [{basis[i]: c for i, c in enumerate(row) if c}
                     for row in span.rows]
        out += group
    return out


def _groebner(free, elems, p):
    """Groebner basis of nonzero integer elements, normalized in place
    (normal selection, product criterion for rank-1 input, chain criterion
    always).  Each S-polynomial is built in integers and its remainder
    normalized as the elements are, so the basis does not depend on the
    field's representation."""
    ring = free.ring
    desc = ring.descending_key
    rank_one = free.rank == 1
    basis = list(elems)
    leads = []
    reducers = _Reducers(p)
    for terms in basis:
        lead = _normalize(terms, p, desc)
        leads.append((lead[0], lead[1], terms[lead]))
        reducers.add(terms, lead)

    pending = set()
    heap = []

    def push_pairs(j):
        cj, ej, _ = leads[j]
        for i in range(j):
            ci, ei, _ = leads[i]
            if ci != cj:
                continue
            lcm = tuple(max(a, b) for a, b in zip(ei, ej))
            deg = sum(lcm) + free.shifts[cj]
            heapq.heappush(heap, (deg, cj, ring.key(lcm), i, j))
            pending.add((i, j))

    for j in range(len(basis)):
        push_pairs(j)

    while heap:
        deg, comp, _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        ci, ei, lci = leads[i]
        cj, ej, lcj = leads[j]
        lcm = tuple(max(a, b) for a, b in zip(ei, ej))
        if rank_one and all(a + b == c for a, b, c in zip(ei, ej, lcm)):
            continue  # coprime leads: S-poly reduces to zero (ideals only)
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            ck, ek, _ = leads[k]
            if ck != comp or not _divides(ek, lcm):
                continue
            a, b = (min(i, k), max(i, k)), (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                skip = True
                break
        if skip:
            continue
        # (lc_j/g)*x^{u_i}*f_i - (lc_i/g)*x^{u_j}*f_j with g = gcd(lc_i, lc_j)
        ui = tuple(a - b for a, b in zip(lcm, ei))
        uj = tuple(a - b for a, b in zip(lcm, ej))
        g = gcd(lci, lcj)
        ai, aj = lcj // g, lci // g
        work = {(c, tuple(a + b for a, b in zip(e, ui))): ai * v
                for (c, e), v in basis[i].items()}
        for (c, e), v in basis[j].items():
            t = (c, tuple(a + b for a, b in zip(e, uj)))
            nxt = work.get(t, 0) - aj * v
            if p is not None:
                nxt %= p
            if nxt:
                work[t] = nxt
            else:
                work.pop(t, None)
        rem = _reduce_full(work, reducers, desc)
        if not rem:
            continue
        lead = _normalize(rem, p, desc)
        basis.append(rem)
        leads.append((lead[0], lead[1], rem[lead]))
        reducers.add(rem, lead)
        push_pairs(len(basis) - 1)
    return basis


def normal_form(vec, basis):
    """Full normal form of vec against a list of module elements, up to a
    nonzero scalar: callers test it for zero or rescale it."""
    if vec.is_zero():
        return vec
    free = vec.free
    desc = free.ring.descending_key
    rem = _reduce_full(integer_terms(vec.terms), _reducers_of(basis, desc),
                       desc)
    return _to_vec(free, rem, degree=vec.degree)


def _reducers_of(vecs, desc):
    """The nonzero vecs as reducers over Q."""
    reducers = _Reducers(None)
    for v in vecs:
        if not v.is_zero():
            terms = integer_terms(v.terms)
            reducers.add(terms, _normalize(terms, None, desc))
    return reducers


def buchberger(vecs, interreduce=False):
    """Groebner basis of the submodule generated by vecs (normal selection,
    product criterion for rank-1 input, chain criterion always).  With
    interreduce the input is first put in echelon form degree by degree,
    which keeps the submodule but not the correspondence of basis elements
    to the input."""
    vecs = [v for v in vecs if not v.is_zero()]
    if not vecs:
        return []
    free = vecs[0].free
    for v in vecs:
        if v.free != free:
            raise RingMismatchError("module elements from different free modules")
    elems = [integer_terms(v.terms) for v in vecs]
    if interreduce:
        elems = _interreduce(free, elems, None)
    return [_to_vec(free, t) for t in _groebner(free, elems, None)]


def reduced_basis(gb):
    """Canonical reduced Groebner basis: minimal, tail-reduced, monic,
    sorted descending by leading term."""
    gb = [g for g in gb if not g.is_zero()]
    if not gb:
        return []
    free = gb[0].free
    desc = free.ring.descending_key
    elems = [integer_terms(g.terms) for g in gb]
    leads = [_normalize(t, None, desc) for t in elems]
    keep = []
    for i, (ci, ei) in enumerate(leads):
        if not any(cj == ci and _divides(ej, ei) and (ej != ei or j < i)
                   for j, (cj, ej) in enumerate(leads) if j != i):
            keep.append(i)
    reducers = _Reducers(None)
    for i in keep:
        reducers.add(elems[i], leads[i])
    out = []
    for i in keep:
        r = _reduce_full(dict(elems[i]), reducers.without(leads[i]), desc)
        comp, exps = leads[i]
        if not r or next(iter(r)) != (comp, exps):
            raise CertificateError("lead does not survive tail reduction",
                                   lead=exps)
        out.append(((comp, desc(exps)),
                    _to_vec(free, r, r[comp, exps], gb[i].degree)))
    out.sort(key=lambda kv: kv[0])
    return [v for _, v in out]


def syzygies(vecs):
    """Generators (a Groebner basis) of the syzygy module of vecs.

    Returned elements live in a free module with one component per input
    vector, shifted by that vector's degree."""
    vecs = [v for v in vecs if not v.is_zero()]
    if not vecs:
        return []
    free = vecs[0].free
    ring = free.ring
    tag_shifts = tuple(v.degree for v in vecs)
    big = FreeModule(ring, free.shifts + tag_shifts)
    r = free.rank
    big_vecs = []
    for i, v in enumerate(vecs):
        terms = {(comp, e): c for (comp, e), c in v.terms.items()}
        terms[(r + i, (0,) * ring.num_vars)] = QQ.one
        big_vecs.append(Vec(big, terms))
    gb = buchberger(big_vecs)
    tag_free = FreeModule(ring, tag_shifts)
    out = []
    for g in gb:
        comp, _, _ = g.lead()
        if comp >= r:
            out.append(g.project(tag_free, r))
    return out


# -- Hilbert series -------------------------------------------------------------


def series_product(a, b):
    """Product of Laurent polynomials in z given as {exponent: coefficient}."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: c for k, c in out.items() if c}


def hilbert_numerator(leads):
    """{degree: coefficient} of N, no zeros, with Hilbert series N(z)/(1-z)^n
    of R/J for the monomial ideal J the exponent tuples leads generate.

    Bayer-Stillman: N(J) = N(J + (p)) + z^deg p * N(J : p) for a monomial p
    off J.  Pure powers alone give the product of the 1 - z^deg g.  Else p =
    x_i^e for the variable x_i in the most mixed generators and its least
    exponent e there, off J by minimality: J + (p) is p plus the generators
    free of x_i, and J : p lowers every exponent of x_i by e."""
    gens = []
    for g in sorted(set(leads), key=sum):
        if not any(_divides(h, g) for h in gens):
            gens.append(g)
    mixed = [g for g in gens if sum(map(bool, g)) > 1]
    if not mixed:
        return reduce(series_product, [{0: 1, sum(g): -1} if sum(g) else {}
                                       for g in gens], {0: 1})
    counts = [sum(1 for g in mixed if g[i]) for i in range(len(mixed[0]))]
    i = counts.index(max(counts))
    e = min(g[i] for g in mixed if g[i])
    out = series_product(hilbert_numerator([g for g in gens if not g[i]]),
                         {0: 1, e: -1})
    colon = [g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in gens]
    for k, c in hilbert_numerator(colon).items():
        out[k + e] = out.get(k + e, 0) + c
    return {k: c for k, c in out.items() if c}


def series_coefficient(numerator, nvars, d):
    """The coefficient of z^d in N(z)/(1-z)^nvars."""
    return sum(c * comb(d - k + nvars - 1, nvars - 1)
               for k, c in numerator.items() if k <= d)


def gbinom(a, b):
    """The generalized binomial C(a, b) = a(a-1)...(a-b+1)/b! for b >= 0,
    0 for b < 0; exact for any rational a, and an int for an int a."""
    if b < 0:
        return 0
    num = 1
    for i in range(b):
        num *= a - i
    return num // factorial(b) if isinstance(num, int) else num / factorial(b)


def series_polynomial(numerator, nvars):
    """(a_0..a_n), n = nvars - 1: sum a_j C(k+j, j) is the coefficient of z^k
    in N(z)/(1-z)^nvars from the top exponent of N on.  There a term
    z^e/(1-z)^nvars contributes C(k-e+n, n), which is sum_j (-1)^(n-j)
    C(e, n-j) C(k+j, j) by Vandermonde, so a_j = (-1)^(n-j) sum_e c_e
    C(e, n-j); C is gbinom, so a Laurent numerator (e < 0) reads the same."""
    n = nvars - 1
    return tuple((-1) ** (n - j) * sum(c * gbinom(e, n - j)
                                       for e, c in numerator.items())
                 for j in range(nvars))


class Submodule:
    """Submodule of a shifted free module with cached Groebner data: the
    reduced basis, its leads, the Hilbert-series numerator of the quotient,
    and one reducer index for every contains."""

    def __init__(self, free, gens):
        self.free = free
        self.gens = [g for g in gens if not g.is_zero()]
        self._gb = None
        self._leads = None
        self._reducers = None
        self._numerator = None

    @property
    def gb(self):
        if self._gb is None:
            self._gb = reduced_basis(buchberger(self.gens, interreduce=True))
        return self._gb

    def gb_leads(self):
        if self._leads is None:
            self._leads = [g.lead()[:2] for g in self.gb]
        return self._leads

    def contains(self, vec):
        if vec.is_zero():
            return True
        desc = self.free.ring.descending_key
        if self._reducers is None:
            self._reducers = _reducers_of(self.gb, desc)
        return not _reduce_full(integer_terms(vec.terms), self._reducers, desc)

    def equals(self, other):
        if self.free != other.free:
            return False
        a, b = self.gb, other.gb
        return len(a) == len(b) and all(x == y for x, y in zip(a, b))

    def numerator(self):
        """N(z) of free/self: the sum of z^shift * N(leads) by component."""
        if self._numerator is None:
            out = {}
            for comp, s in enumerate(self.free.shifts):
                leads = [e for c, e in self.gb_leads() if c == comp]
                for k, c in hilbert_numerator(leads).items():
                    out[k + s] = out.get(k + s, 0) + c
            self._numerator = {k: c for k, c in out.items() if c}
        return self._numerator

    def quotient_piece_dim(self, d):
        return series_coefficient(self.numerator(), self.free.ring.num_vars, d)

    def piece_dim(self, d):
        return self.free.piece_dim(d) - self.quotient_piece_dim(d)

    def hilbert_polynomial(self):
        """HP of free/self in the binomial basis (see series_polynomial)."""
        return series_polynomial(self.numerator(), self.free.ring.num_vars)


def ideal_piece_basis(ideal, k):
    """A basis of the degree-k piece of the ideal, deterministic order: for
    each monomial of in(I)_k, the first multiple m*g of the reduced basis,
    in multiplied_elements order, that has it as leading monomial.  Over a
    Groebner basis these reach every monomial of in(I)_k, and with distinct
    leading monomials they are triangular, hence independent."""
    out, seen = [], set()
    for g, mons in multiplied_elements(ideal.ring, ideal.gb, k):
        lead = g.leading()[0]
        for m in mons:
            e = tuple(a + b for a, b in zip(lead, m))
            if e not in seen:
                seen.add(e)
                out.append(g.mul_monomial(m))
    return out


# -- minimal generators and resolutions ------------------------------------


def minimal_generators(vecs):
    """Subset of vecs that minimally generates the same submodule.

    Graded Nakayama: working degree by degree, an element is redundant iff
    it lies in the span of monomial multiples of lower-degree generators
    plus the same-degree generators already kept."""
    vecs = [v for v in vecs if not v.is_zero()]
    if not vecs:
        return []
    ring = vecs[0].free.ring
    by_deg = {}
    for v in vecs:
        by_deg.setdefault(v.degree, []).append(v)
    kept = []
    for d in sorted(by_deg):
        span = Span(QQ)
        for row in multiple_rows(ring, kept, d):
            span.add(row)
        for v, row in zip(by_deg[d], multiple_rows(ring, by_deg[d], d)):
            if span.add(row):
                kept.append(v)
    return kept


class PolyMatrix:
    """Graded matrix: entry (i, j) is homogeneous of degree
    col_shifts[j] - row_shifts[i] (or zero)."""

    def __init__(self, ring, row_shifts, col_shifts, entries):
        self.ring = ring
        self.row_shifts = tuple(row_shifts)
        self.col_shifts = tuple(col_shifts)
        self.entries = entries
        for i, row in enumerate(entries):
            for j, p in enumerate(row):
                if p.is_zero():
                    continue
                if p.degree != self.col_shifts[j] - self.row_shifts[i]:
                    raise HomogeneityError(
                        f"entry ({i},{j}) degree {p.degree} != "
                        f"{self.col_shifts[j]} - {self.row_shifts[i]}")

    @property
    def nrows(self):
        return len(self.row_shifts)

    @property
    def ncols(self):
        return len(self.col_shifts)

    @classmethod
    def from_columns(cls, free, cols):
        ring = free.ring
        entries = [[None] * len(cols) for _ in range(free.rank)]
        for j, v in enumerate(cols):
            for i in range(free.rank):
                entries[i][j] = v.component(i) if not v.is_zero() else ring.zero()
        col_shifts = tuple(v.degree for v in cols)
        return cls(ring, free.shifts, col_shifts, entries)

    def columns(self):
        free = FreeModule(self.ring, self.row_shifts)
        out = []
        for j in range(self.ncols):
            terms = {}
            for i in range(self.nrows):
                for e, c in self.entries[i][j].coeffs.items():
                    terms[(i, e)] = c
            out.append(Vec(free, terms, self.col_shifts[j]))
        return out

    def compose(self, other):
        """self * other (apply other first)."""
        if other.row_shifts != self.col_shifts:
            raise HomogeneityError("composed maps disagree on the middle shifts",
                                   left=self.col_shifts, right=other.row_shifts)
        ring = self.ring
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = ring.zero()
                for k in range(self.ncols):
                    a, b = self.entries[i][k], other.entries[k][j]
                    if a.is_zero() or b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return PolyMatrix(ring, self.row_shifts, other.col_shifts, out)

    def is_zero(self):
        return all(p.is_zero() for row in self.entries for p in row)

    def transpose(self):
        ring = self.ring
        ents = [[self.entries[i][j] for i in range(self.nrows)]
                for j in range(self.ncols)]
        return PolyMatrix(ring, tuple(-s for s in self.col_shifts),
                          tuple(-s for s in self.row_shifts), ents)

    def has_unit_entry(self):
        return any((not p.is_zero()) and p.degree == 0
                   for row in self.entries for p in row)


class Resolution:
    """Graded free resolution ... -> F_1 -> F_0 -> target; maps[i] presents
    F_i inside F_{i-1} (maps[0] lands in the ambient free module)."""

    def __init__(self, ambient, maps):
        self.ambient = ambient
        self.maps = maps
        for i, (a, b) in enumerate(zip(maps, maps[1:])):
            if not a.compose(b).is_zero():
                raise CertificateError("consecutive maps do not compose to zero",
                                       level=i + 1)

    @property
    def length(self):
        return len(self.maps) - 1

    def betti(self):
        out = {}
        for i, m in enumerate(self.maps):
            for d in m.col_shifts:
                out[(i, d)] = out.get((i, d), 0) + 1
        return out

    def is_minimal(self):
        return not any(m.has_unit_entry() for m in self.maps[1:])

    def regularity(self):
        if not self.is_minimal():
            raise NonMinimalError(
                "regularity requires a minimal resolution; relation matrices "
                "contain unit entries")
        return max(d - i for (i, d) in self.betti())


def minimal_free_resolution(free, gens, max_length=None):
    """Minimal graded free resolution of the submodule of `free` generated
    by gens.  Stage generators are minimalized via graded Nakayama, so the
    maps carry no unit entries and Betti numbers are minimal."""
    ring = free.ring
    cap = ring.num_vars + 1 if max_length is None else max_length
    current = minimal_generators(gens)
    maps = []
    ambient = free
    level = 0
    while current:
        maps.append(PolyMatrix.from_columns(ambient, current))
        syz = syzygies(current)
        nxt = minimal_generators(syz)
        ambient = FreeModule(ring, tuple(v.degree for v in current))
        current = [v for v in nxt]
        level += 1
        if level > cap + 1:
            raise CertificateError("resolution exceeds the syzygy-theorem bound",
                                   level=level, cap=cap)
    res = Resolution(free, maps)
    if res.length > ring.num_vars:
        raise CertificateError("resolution is longer than the number of "
                               "variables", length=res.length)
    return res


# -- ideals -----------------------------------------------------------------


def _series_dim(leads, nvars):
    """Affine Krull dimension of R/J for the monomial ideal J the leads
    generate: one past the degree of its Hilbert polynomial, 0 when that is
    zero and R/J is not, -1 for the unit ideal."""
    num = hilbert_numerator(leads)
    hp = series_polynomial(num, nvars)
    return max((j + 1 for j, a in enumerate(hp) if a), default=0 if num else -1)


class Ideal:
    """Homogeneous ideal with cached Groebner data."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = [g for g in gens if g is not None and not g.is_zero()]
        for g in self.gens:
            if g.ring != ring:
                raise RingMismatchError("generator from a different ring")
        self._free, self._vecs = vecs_from_polys(ring, self.gens)
        self._sub = Submodule(self._free, self._vecs)
        self._gb = None
        self._resolution = None
        self._leads_p = None

    @property
    def gb(self):
        """Reduced Groebner basis as polynomials (monic, sorted)."""
        if self._gb is None:
            self._gb = [v.component(0) for v in self._sub.gb]
        return self._gb

    def gb_leads(self):
        return [exps for _, exps in self._sub.gb_leads()]

    def contains(self, poly):
        if poly.is_zero():
            return True
        return self._sub.contains(poly_to_vec(self._free, 0, poly))

    def equals(self, other):
        return self.ring == other.ring and self._sub.equals(other._sub)

    @classmethod
    def on_reduced_basis(cls, ring, basis):
        """The ideal on basis, known to be its reduced Groebner basis."""
        out = cls(ring, basis)
        out._sub._gb = out._vecs
        return out

    def is_unit(self):
        gb = self.gb
        return len(gb) == 1 and gb[0].degree == 0

    def is_zero(self):
        return not self.gens

    def piece_dim(self, d):
        """dim (I)_d."""
        return self._sub.piece_dim(d)

    def quotient_piece_dim(self, d):
        """dim (R/I)_d, a coefficient of the Hilbert series of in(I)."""
        return self._sub.quotient_piece_dim(d)

    def sum(self, polys):
        return Ideal(self.ring, self.gens + list(polys))

    def resolution(self):
        if self._resolution is None:
            self._resolution = minimal_free_resolution(self._free, self._vecs)
        return self._resolution

    def regularity(self):
        if self.is_zero():
            return 0
        return self.resolution().regularity()

    def _mod_p_leads(self):
        """The leads of one (unreduced) Groebner basis mod CERT_PRIME of the
        primitive integer generators, cached.  None once the basis over Q
        is known."""
        if self._sub._gb is not None:
            return None
        if self._leads_p is None:
            p = CERT_PRIME
            elems = []
            for v in self._vecs:
                terms = {t: c % p for t, c in
                         integer_terms(v.terms).items() if c % p}
                if terms:
                    elems.append(terms)
            desc = self.ring.descending_key
            gb = _groebner(self._free, _interreduce(self._free, elems, p), p)
            self._leads_p = [_lead(t, desc)[1] for t in gb]
        return self._leads_p

    def is_projectively_empty(self):
        """True iff the vanishing locus in P^n is empty: the Hilbert series
        of the initial ideal is a polynomial (dim R/I <= 0).

        The leads mod CERT_PRIME are read first.  The degree-N piece
        of I, and of the ideal I_p of the primitive integer generators mod
        p, is the row space of one integer matrix of degree-N multiples,
        whose rank mod p is at most its rank over Q; so HF_{R/I}(N) <=
        HF_{R/I_p}(N) for every N.  A polynomial series of the leads mod p
        makes HF_{R/I_p}, hence HF_{R/I}, vanish in high degree: the locus
        is empty.  Only a miss computes the basis over Q."""
        n = self.ring.num_vars
        leads = self._mod_p_leads()
        if leads is not None and _series_dim(leads, n) <= 0:
            return True
        return _series_dim(self.gb_leads(), n) <= 0

    def krull_dim_quotient(self):
        """Affine Krull dimension of R/I (via the Hilbert series of the
        initial ideal); -1 for the unit ideal."""
        return _series_dim(self.gb_leads(), self.ring.num_vars)

    def krull_dim_at_most(self, bound):
        """Is the affine Krull dimension of R/I at most bound?  Leads mod
        CERT_PRIME of dimension <= bound prove it: HF_{R/I}
        <= HF_{R/I_p} (see is_projectively_empty), so dim R/I <= dim R/I_p.
        Only a miss computes the basis over Q."""
        leads = self._mod_p_leads()
        if leads is not None and _series_dim(leads, self.ring.num_vars) <= bound:
            return True
        return self.krull_dim_quotient() <= bound

    def quotient(self, polys):
        """(I : (f_1..f_k)) = {g : g*f ∈ I for every f}."""
        polys = [p for p in polys if not p.is_zero()]
        if not polys:
            return self
        ring = self.ring
        k = len(polys)
        target = FreeModule(ring, tuple(-p.degree for p in polys))
        col = Vec(target, {(l, e): c for l, p in enumerate(polys)
                           for e, c in p.coeffs.items()})
        vecs = [col]
        for l in range(k):
            for g in self.gens:
                vecs.append(poly_to_vec(target, l, g))
        syz = syzygies(vecs)
        out = []
        for s in syz:
            p = s.component(0)
            if not p.is_zero():
                out.append(p)
        return Ideal(ring, self.gens + out)

    def saturate(self):
        """(I : m^infinity) for the irrelevant maximal ideal m = (x0..xn)."""
        current = self
        for _ in range(200):
            nxt = current.quotient(self.ring.gens())
            if nxt.equals(current):
                return current
            current = nxt
        raise BudgetError("saturation failed to stabilize")

    def is_saturated(self):
        return self.quotient(self.ring.gens()).equals(self)

    def intersect(self, other):
        """I ∩ J via syzygies of the concatenated generators."""
        ring = self.ring
        a, b = self.gens, other.gens
        if not a:
            return self
        if not b:
            return other
        free = FreeModule(ring, (0,))
        vecs = [poly_to_vec(free, 0, p) for p in a + b]
        syz = syzygies(vecs)
        out = []
        for s in syz:
            acc = ring.zero()
            for i, p in enumerate(a):
                c = s.component(i)
                if not c.is_zero():
                    acc = acc + c * p
            if not acc.is_zero():
                out.append(acc)
        return Ideal(ring, out)

    def hilbert_polynomial(self):
        """(a_0..a_n) with HP_{R/I}(k) = sum a_j * C(k+j, j), from in(I)."""
        return self._sub.hilbert_polynomial()
