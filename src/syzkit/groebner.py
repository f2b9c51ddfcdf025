"""Graded Groebner machinery: Buchberger for ideals and free-module
submodules, syzygies, minimal free resolutions, Betti data, staircase
Hilbert functions, ideal quotients and saturation.

Module elements live in a shifted free module R(-a_0) + ... + R(-a_r);
the module order is position-over-term (lower component index dominates),
induced from the ring order.  Syzygies are computed by the tag-block
elimination: append a unit tag component per generator and intersect the
Groebner basis with the tag block.
"""

import heapq
from fractions import Fraction
from math import comb

from .errors import (BudgetError, CertificateError, HomogeneityError,
                     NonMinimalError, RingMismatchError)
from .fields import PrimeField
from .linalg import Span, fit_hilbert_polynomial, primitive_integers
from .polyring import GradedPoly, piece_multiples


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
        field = free.ring.field
        clean = {}
        deg = degree
        for (comp, exps), c in terms.items():
            if field.is_zero(c):
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
        f = self.free.ring.field
        if f.is_zero(c):
            return Vec(self.free, {}, self._degree)
        return Vec(self.free, {t: f.mul(c, v) for t, v in self.terms.items()},
                   self._degree)

    def __add__(self, other):
        assert self.free == other.free
        f = self.free.ring.field
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = f.add(out.get(t, f.zero), c)
        deg = self._degree if self._degree is not None else other._degree
        return Vec(self.free, out, deg)

    def __sub__(self, other):
        return self + other.scale(self.free.ring.field.neg(self.free.ring.field.one))

    def mul_monomial(self, exps, coeff=None):
        f = self.free.ring.field
        out = {}
        for (comp, e), v in self.terms.items():
            out[(comp, tuple(a + b for a, b in zip(e, exps)))] = \
                v if coeff is None else f.mul(coeff, v)
        deg = None if self._degree is None else self._degree + sum(exps)
        return Vec(self.free, out, deg)

    def mul_poly(self, poly):
        f = self.free.ring.field
        out = {}
        for pe, pc in poly.coeffs.items():
            for (comp, e), v in self.terms.items():
                t = (comp, tuple(a + b for a, b in zip(e, pe)))
                cur = out.get(t)
                out[t] = f.mul(pc, v) if cur is None else f.add(cur, f.mul(pc, v))
        deg = None
        if self._degree is not None and poly.degree is not None:
            deg = self._degree + poly.degree
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
        f = self.free.ring.field
        out = [f.zero] * len(basis_index)
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


def _normalize(vec):
    """Monic over F_p; primitive integer coefficients with positive leading
    coefficient over Q (tames growth inside Buchberger)."""
    if vec.is_zero():
        return vec
    f = vec.free.ring.field
    if isinstance(f, PrimeField):
        _, _, lc = vec.lead()
        return vec.scale(f.inv(lc))
    ints = primitive_integers(list(vec.terms.values()))
    _, _, lc = vec.lead()
    if lc < 0:
        ints = [-c for c in ints]
    return Vec(vec.free, {t: Fraction(c) for t, c in zip(vec.terms, ints)},
               vec.degree)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


class _BasisIndex:
    """Leads of the working basis grouped by component."""

    def __init__(self):
        self.by_comp = {}

    def add(self, idx, vec):
        comp, exps, coeff = vec.lead()
        self.by_comp.setdefault(comp, []).append((exps, coeff, idx, vec))

    def find_reducer(self, comp, exps):
        for le, lc, idx, vec in self.by_comp.get(comp, ()):
            if _divides(le, exps):
                return le, lc, vec
        return None


def normal_form(vec, basis):
    """Full normal form of vec against a list of module elements."""
    if vec.is_zero():
        return vec
    idx = _BasisIndex()
    for i, g in enumerate(basis):
        if not g.is_zero():
            idx.add(i, g)
    return _reduce_full(vec, idx)


def _reduce_full(vec, idx):
    free = vec.free
    f = free.ring.field
    rk = free.ring.key
    work = dict(vec.terms)
    out = {}
    while work:
        t = max(work, key=lambda s: (-s[0], rk(s[1])))
        comp, exps = t
        c = work.pop(t)
        if f.is_zero(c):
            continue
        red = idx.find_reducer(comp, exps)
        if red is None:
            out[t] = c
            continue
        le, lc, g = red
        u = tuple(a - b for a, b in zip(exps, le))
        factor = f.div(c, lc)
        for (gc, ge), gv in g.terms.items():
            if gc == comp and ge == le:
                continue
            t2 = (gc, tuple(a + b for a, b in zip(ge, u)))
            cur = work.get(t2, f.zero)
            nxt = f.sub(cur, f.mul(factor, gv))
            if f.is_zero(nxt):
                work.pop(t2, None)
            else:
                work[t2] = nxt
    return Vec(free, out, vec.degree)


def buchberger(vecs):
    """Groebner basis of the submodule generated by vecs (normal selection,
    product criterion for rank-1 input, chain criterion always)."""
    vecs = [v for v in vecs if not v.is_zero()]
    if not vecs:
        return []
    free = vecs[0].free
    for v in vecs:
        if v.free != free:
            raise RingMismatchError("module elements from different free modules")
    ring = free.ring
    f = ring.field
    rank_one = free.rank == 1
    basis = []
    leads = []
    for v in vecs:
        nv = _normalize(v)
        if not nv.is_zero():
            basis.append(nv)
            leads.append(nv.lead())

    idx = _BasisIndex()
    for t, g in enumerate(basis):
        idx.add(t, g)

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
        ui = tuple(a - b for a, b in zip(lcm, ei))
        uj = tuple(a - b for a, b in zip(lcm, ej))
        spoly = basis[i].mul_monomial(ui, lcj) - basis[j].mul_monomial(uj, lci)
        rem = _normalize(_reduce_full(spoly, idx))
        if rem.is_zero():
            continue
        basis.append(rem)
        leads.append(rem.lead())
        idx.add(len(basis) - 1, rem)
        push_pairs(len(basis) - 1)
    return basis


def reduced_basis(gb):
    """Canonical reduced Groebner basis: minimal, tail-reduced, monic,
    sorted descending by leading term."""
    gb = [g for g in gb if not g.is_zero()]
    if not gb:
        return []
    ring = gb[0].free.ring
    f = ring.field
    keep = []
    for i, g in enumerate(gb):
        ci, ei, _ = g.lead()
        dominated = False
        for j, h in enumerate(gb):
            if i == j:
                continue
            cj, ej, _ = h.lead()
            if cj == ci and _divides(ej, ei) and (ej != ei or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(g)
    out = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        r = normal_form(g, others)
        assert not r.is_zero()  # lead survives tail reduction
        _, _, lc = r.lead()
        out.append(r.scale(f.inv(lc)))
    rk = ring.key
    out.sort(key=lambda v: (-v.lead()[0], rk(v.lead()[1])), reverse=True)
    return out


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
    f = ring.field
    big_vecs = []
    for i, v in enumerate(vecs):
        terms = {(comp, e): c for (comp, e), c in v.terms.items()}
        terms[(r + i, (0,) * ring.num_vars)] = f.one
        big_vecs.append(Vec(big, terms))
    gb = buchberger(big_vecs)
    tag_free = FreeModule(ring, tag_shifts)
    out = []
    for g in gb:
        comp, _, _ = g.lead()
        if comp >= r:
            out.append(g.project(tag_free, r))
    return out


def submodule_piece_dims(gb_leads, free, d):
    """dim of the degree-d pieces (quotient, submodule) from the staircase
    of the initial module."""
    quot = 0
    by_comp = {}
    for comp, exps in gb_leads:
        by_comp.setdefault(comp, []).append(exps)
    for comp, s in enumerate(free.shifts):
        leads = by_comp.get(comp, ())
        for m in free.ring.monomials_of_degree(d - s):
            if not any(_divides(le, m) for le in leads):
                quot += 1
    total = free.piece_dim(d)
    return quot, total - quot


class Submodule:
    """Submodule of a shifted free module with cached Groebner data."""

    def __init__(self, free, gens):
        self.free = free
        self.gens = [g for g in gens if not g.is_zero()]
        self._gb = None
        self._leads = None

    @property
    def gb(self):
        if self._gb is None:
            self._gb = reduced_basis(buchberger(self.gens))
        return self._gb

    def gb_leads(self):
        if self._leads is None:
            self._leads = [g.lead()[:2] for g in self.gb]
        return self._leads

    def contains(self, vec):
        return normal_form(vec, self.gb).is_zero()

    def equals(self, other):
        if self.free != other.free:
            return False
        a, b = self.gb, other.gb
        return len(a) == len(b) and all(x == y for x, y in zip(a, b))

    def quotient_piece_dim(self, d):
        return submodule_piece_dims(self.gb_leads(), self.free, d)[0]

    def piece_dim(self, d):
        return submodule_piece_dims(self.gb_leads(), self.free, d)[1]


# -- minimal generators and resolutions ------------------------------------


def minimal_generators(vecs):
    """Subset of vecs that minimally generates the same submodule.

    Graded Nakayama: working degree by degree, an element is redundant iff
    it lies in the span of monomial multiples of lower-degree generators
    plus the same-degree generators already kept."""
    vecs = [v for v in vecs if not v.is_zero()]
    if not vecs:
        return []
    free = vecs[0].free
    ring = free.ring
    by_deg = {}
    for v in vecs:
        by_deg.setdefault(v.degree, []).append(v)
    kept = []
    for d in sorted(by_deg):
        basis = free.piece_basis(d)
        index = {t: i for i, t in enumerate(basis)}
        span = Span(ring.field)
        for w in piece_multiples(ring, kept, d):
            span.add(w.coords(index, d))
        for v in by_deg[d]:
            if span.add(v.coords(index, d)):
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
        assert other.row_shifts == self.col_shifts
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
        for a, b in zip(maps, maps[1:]):
            assert a.compose(b).is_zero()  # consecutive maps compose to zero

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

    def betti_table(self):
        """Macaulay-style text table: columns are homological degrees,
        rows are j - i."""
        b = self.betti()
        imax = max(i for i, _ in b)
        rows = sorted({d - i for (i, d) in b})
        cols = list(range(imax + 1))
        totals = [sum(v for (i, d), v in b.items() if i == c) for c in cols]
        grid = [["total:"] + [str(t) for t in totals]]
        for r in rows:
            line = [f"{r}:"]
            for c in cols:
                v = b.get((c, c + r), 0)
                line.append(str(v) if v else ".")
            grid.append(line)
        head = [""] + [str(c) for c in cols]
        widths = [max(len(row[k]) for row in [head] + grid) for k in range(len(head))]
        fmt = lambda row: " ".join(s.rjust(w) for s, w in zip(row, widths)).rstrip()
        return "\n".join([fmt(head)] + [fmt(row) for row in grid])


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
        assert level <= cap + 1, "resolution exceeds the syzygy-theorem bound"
    res = Resolution(free, maps)
    assert res.length <= ring.num_vars
    return res


# -- ideals -----------------------------------------------------------------


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

    def normal_form(self, poly):
        if poly.is_zero():
            return poly
        return normal_form(poly_to_vec(self._free, 0, poly), self._sub.gb).component(0)

    def equals(self, other):
        return self.ring == other.ring and self._sub.equals(other._sub)

    def reduced(self):
        """The same ideal generated by its reduced Groebner basis, which the
        result shares instead of recomputing."""
        out = Ideal(self.ring, self.gb)
        out._gb = self.gb
        out._sub._gb = self._sub.gb
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
        """dim (R/I)_d, from the staircase of the initial ideal."""
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

    def is_projectively_empty(self):
        """True iff the vanishing locus in P^n is empty (the initial ideal
        contains a pure power of every variable)."""
        leads = self.gb_leads()
        if any(sum(e) == 0 for e in leads):
            return True
        n = self.ring.num_vars
        return all(any(sum(e) == e[i] > 0 for e in leads) for i in range(n))

    def krull_dim_quotient(self):
        """Affine Krull dimension of R/I (via the initial-ideal staircase);
        -1 for the unit ideal."""
        leads = self.gb_leads()
        if any(sum(e) == 0 for e in leads):
            return -1
        n = self.ring.num_vars
        best = 0
        for mask in range(1 << n):
            sset = {i for i in range(n) if mask >> i & 1}
            if any(all(e[i] == 0 or i in sset for i in range(n)) for e in leads):
                continue
            best = max(best, len(sset))
        return best

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

    def hilbert_polynomial(self, reg=None):
        """Integer vector (a_0..a_n): HP_{R/I}(k) = sum a_j * C(k+j, j),
        valid for k beyond the regularity.  It is fitted past reg, a known
        regularity (the minimal resolution's by default), and verified on
        extra points (CertificateError if the staircase fits no such
        polynomial there)."""
        n = self.ring.num_vars - 1
        if self.is_zero():
            return tuple(1 if j == n else 0 for j in range(n + 1))
        if reg is None:
            reg = self.regularity()
        k0 = max(reg, 0) + 1
        coeffs = fit_hilbert_polynomial(n, range(k0, k0 + n + 3),
                                        self.quotient_piece_dim)
        if coeffs is None:
            raise CertificateError(
                "Hilbert function is not polynomial past the regularity",
                regularity=reg)
        return coeffs

    def hp_value(self, k):
        return sum(c * comb(k + j, j) for j, c in enumerate(self.hilbert_polynomial()))
