"""Concrete subschemes of P^n: saturated ideals with cached Hilbert data,
vanishing ideals of reduced point sets read off the kernels of monomial
evaluation matrices, section counts of twisted ideal
sheaves, the h1 closed form for point sets on the plane, Riemann-Roch
section counts on polarization curves, and the restriction-to-curve
injectivity test.

The polarization is H = d*L; all degree arguments of the cohomology
counters are in L units (twist by kH passes k*d here).
"""

from fractions import Fraction
from itertools import count
from math import comb

from .errors import (CertificateError, CodimensionError, InputError,
                     NotSaturatedError, SpecialityError)
from .fields import QQ
from .groebner import (Ideal, hilbert_numerator, ideal_piece_basis,
                       series_product)
from .linalg import Matrix, rank_at_least
from .polyring import (PolyRing, integer_powers, monomial_values,
                       multiple_rows, vanish_at)


class Polarization:
    """H = d*L on P^n together with the genus of the induced curve C in |H|
    (a plane curve for n = 2, the complete intersection of two degree-d
    forms for n = 3)."""

    def __init__(self, n, d):
        if d < 1:
            raise InputError("polarization multiplier must be at least 1", d=d)
        if n not in (2, 3):
            raise InputError("ambient must be P^2 or P^3", n=n)
        self.n = n
        self.d = d
        if n == 2:
            self.genus = (d - 1) * (d - 2) // 2
        else:
            self.genus = d * d * (d - 2) + 1
        # slope hypotheses downstream assume g >= 1
        self.genus_warning = self.genus < 1

    def curve_degree(self, m):
        """deg O_C(mH) in L-intersection units: m * d^n."""
        return m * self.d ** self.n

    def __repr__(self):
        return f"Polarization(n={self.n}, d={self.d}, g={self.genus})"


def points_ideal(ring, points):
    """Saturated vanishing ideal of a reduced point set, read off its
    evaluation kernels (Abbott, Bigatti, Kreuzer and Robbiano, 2000).
    (I_Z)_t is the kernel of the degree-t monomials evaluated at the points,
    in integers by monomial_values at integer_powers of each point (a row
    scaling).  The columns ascend, so the pivots are the standard monomials
    and each kernel vector is its free column, a lead of I_Z, over standard
    monomials: made monic, a reduced Groebner basis element, kept unless an
    earlier lead divides its lead.
    HF_{R/I_Z}(t) is the evaluation rank, #points from the first full-rank
    degree t0 on, so R/I_Z has series numerator (1-z)^n * ΔHF; the leads lie
    in in(I_Z) and generate it once their numerator is that one.  Gotzmann
    persistence bounds the leads' degrees by max(#points, t0) = #points;
    past that a CertificateError is raised."""
    f = ring.field
    pts = []
    seen = set()
    for p in points:
        cp = tuple(f(c) for c in p)
        lead = next((c for c in cp if not f.is_zero(c)), None)
        if lead is None:
            raise InputError("projective point cannot be all zeros")
        normal = tuple(f.div(c, lead) for c in cp)
        if normal in seen:
            raise InputError("projective point listed twice",
                             point=[f.to_str(c) for c in cp])
        seen.add(normal)
        pts.append(cp)
    if not pts:
        return Ideal(ring, [ring.one()])
    n = ring.num_vars - 1
    powers = [integer_powers(p, len(pts)) for p in pts]
    hf, leads, basis = [1], [], []
    for t in count(1):
        mons = ring.monomials_of_degree(t)[::-1]
        values = [[vals[e] for e in mons]
                  for vals in (monomial_values(ring, pw, t) for pw in powers)]
        rank, kernel = Matrix(f, values).rank_and_kernel()
        hf.append(rank)
        for w in kernel:
            j = max(i for i, c in enumerate(w) if c)
            if not any(all(a <= b for a, b in zip(le, mons[j])) for le in leads):
                leads.append(mons[j])
                basis.append(ring.from_terms(
                    ((e, f.div(c, w[j])) for e, c in zip(mons, w) if c),
                    degree=t))
        delta = {k: b - a for k, (a, b) in enumerate(zip([0] + hf, hf))}
        if rank == len(pts) and hilbert_numerator(leads) == series_product(
                delta, {i: (-1) ** i * comb(n, i) for i in range(n + 1)}):
            break
        if t >= len(pts):
            raise CertificateError("point ideal misses the evaluation rank",
                                   degree=t, rank=rank, points=len(pts))
    basis.sort(key=lambda g: ring.descending_key(g.leading()[0]))
    return Ideal.on_reduced_basis(ring, basis)


class SubschemeData:
    """A saturated subscheme of P^n with cached ideal-theoretic data.

    Construction rejects non-saturated generators and codimension <= 1
    (an invertible ideal sheaf twists to a line bundle, which is already
    stable, so the kernel machinery has nothing to do).  Listed points
    must be the whole scheme: every generator vanishes there, the degree
    is the point count, and so is the Hilbert function past the
    regularity.  A scheme built by from_points takes points_ideal's
    certified I_Z, so it skips the Groebner saturation check.

    A zero-dimensional scheme reads its regularity off the staircase:
    reg = 1 + min{t : HF(t) = HF(t+1)}.  For a saturated ideal, HF (which
    field extension leaves unchanged) grows until it reaches deg Z and is
    constant from then on, since a linear form off Z is a nonzerodivisor;
    and R/I_Z is Cohen-Macaulay of dimension 1, so reg I_Z is one past that
    plateau.  Curves take the regularity of the minimal free resolution.
    The Hilbert polynomial is read off the Hilbert series."""

    def __init__(self, ring, gens, points=None, name=None, saturated=False):
        """gens: generating polynomials, or an Ideal used as it is.
        saturated: the caller has proved the ideal saturated."""
        self.ring = ring
        self.n = ring.num_vars - 1
        self.ideal = gens if isinstance(gens, Ideal) else Ideal(ring, gens)
        self.points = [tuple(ring.field(c) for c in p) for p in points] if points else None
        self.name = name
        if not (saturated or self.ideal.is_zero() or self.ideal.is_saturated()):
            raise NotSaturatedError(
                "subscheme ideal is not saturated; saturate before constructing")
        aff = self.ideal.krull_dim_quotient() if not self.ideal.is_zero() else self.n + 1
        self.proj_dim = aff - 1
        self.codim = self.n - self.proj_dim
        if self.codim < 2:
            raise CodimensionError(
                "codimension must be at least 2: a divisor has invertible "
                "ideal sheaf, which is a line bundle and already stable",
                codim=self.codim)
        self._hp = None
        self._degree = None
        self._reg = None
        if self.points is not None:
            if not vanish_at(self.ideal.gens, self.points):
                raise InputError("generator does not vanish at a listed point")
            if self.degree != len(self.points):
                raise CertificateError("degree differs from the point count",
                                       degree=self.degree, points=len(self.points))
            r = max(self.regularity(), 0)
            for k in range(r, r + 3):
                hf = self.ideal.quotient_piece_dim(k)
                if hf != len(self.points):
                    raise CertificateError(
                        "Hilbert function differs from the point count past "
                        "the regularity", degree=k, hf=hf, points=len(self.points))

    @classmethod
    def from_points(cls, ring, points, name=None):
        """The reduced scheme of a point set, on the ideal points_ideal
        certifies as I_Z."""
        return cls(ring, points_ideal(ring, points), points=points, name=name,
                   saturated=True)

    @property
    def is_empty(self):
        return self.ideal.is_unit()

    def hilbert_polynomial(self):
        if self._hp is None:
            self._hp = self.ideal.hilbert_polynomial()
        return self._hp

    @property
    def degree(self):
        if self._degree is None:
            if self.is_empty:
                self._degree = 0
            else:
                hp = self.hilbert_polynomial()
                top = max((j for j, a in enumerate(hp) if a), default=0)
                self._degree = hp[top]
        return self._degree

    def regularity(self):
        if self._reg is None:
            if self.proj_dim == 0:
                hf = self.ideal.quotient_piece_dim
                self._reg = 1 + next(t for t in count() if hf(t) == hf(t + 1))
            else:
                self._reg = self.ideal.regularity()
        return self._reg

    def quotient_hf(self, k):
        return self.ideal.quotient_piece_dim(k)

    def __repr__(self):
        tag = self.name or "Z"
        return f"Subscheme({tag}, P^{self.n}, codim={self.codim}, deg={self.degree})"


def h0_ideal_twist(z, k):
    """h^0(P^n, I_Z(kL)) = dim of the degree-k piece of the saturated ideal."""
    if k < 0:
        raise InputError("twist degree must be nonnegative", k=k)
    return z.ideal.piece_dim(k)


def h1_ideal_twist(z, k):
    """h^1(P^2, I_Z(kL)) for zero-dimensional Z, via chi(I_Z(k)) =
    C(k+2, 2) - deg Z and the vanishing of h^2 for k >= -2."""
    if z.n != 2:
        raise InputError("closed form implemented on the plane only", n=z.n)
    if not (z.is_empty or z.proj_dim == 0):
        raise InputError("h1 closed form requires a zero-dimensional subscheme",
                         dim=z.proj_dim)
    if k < 0:
        raise InputError("twist degree must be nonnegative", k=k)
    h0 = h0_ideal_twist(z, k)
    h1 = z.degree - (comb(k + 2, 2) - h0)
    if h1 < 0:
        raise CertificateError("h1 of the twisted ideal sheaf is negative",
                               k=k, h0=h0, degree=z.degree)
    return h1


def curve_sections(pol, n, m):
    """h^0(C, O_C(mH)) by Riemann-Roch under non-speciality
    (deg > 2g - 2): h0 = deg + 1 - g."""
    if n != pol.n:
        raise InputError("ambient mismatch", n=n, pol_n=pol.n)
    if m < 1:
        raise InputError("twist must be at least 1", m=m)
    deg = pol.curve_degree(m)
    g = pol.genus
    if deg <= 2 * g - 2:
        raise SpecialityError(
            "degree does not exceed 2g-2; Riemann-Roch alone cannot "
            "determine h0", degree=deg, genus=g)
    return deg + 1 - g


def restrict_to_curve(z, v_basis, forms):
    """Restriction of a section space V of I_Z(mH) to the curve C = V(forms),
    one degree-d plane curve on P^2 or a complete intersection of two on
    P^3.  Returns (injective, image_dim).

    C is a complete intersection, so it is projectively normal and the
    kernel of V -> H^0(C, O_C(md)) is V ∩ (forms)_md, against
    ideal_piece_basis of (forms)_md as multiple_rows at md.  V lies in I_Z
    (check_generation tests every V a stage keeps) and the forms avoid Z
    (_draw_curve_forms), so on P^2 f is a nonzerodivisor on R/I_Z and the
    kernel is V ∩ f·(I_Z)_{md-d}."""
    if not v_basis:
        return True, 0
    md = v_basis[0].degree
    if any(v.degree != md for v in v_basis):
        raise InputError("section space basis must be equigraded")
    ring = z.ring
    basis = ideal_piece_basis(Ideal(ring, forms), md)
    return restriction_kernel(v_basis, multiple_rows(ring, basis, md))


def restriction_kernel(v_basis, w_rows):
    """(injective, image_dim) of V -> S_md / span(W) for a basis V of
    degree-md polynomials and a basis W given as integer rows in the
    degree-md monomial basis (multiple_rows at md): the kernel V ∩ span(W)
    has dimension #V + #W - rank(V + W).  V's rows are multiple_rows(ring,
    V, md), its int_terms.  #V and rank(V + W) <= min(#V + #W, dim S_md)
    are rank_at_least checks, so a Span over Q runs only when a mod-p rank
    misses its bound; V + W that fills S_md is certified mod p."""
    ring = v_basis[0].ring
    field = ring.field
    md = v_basis[0].degree
    v_rows = multiple_rows(ring, v_basis, md)
    rank_v = rank_at_least(field, v_rows, len(v_rows))
    if rank_v != len(v_basis):
        raise CertificateError("section basis is linearly dependent",
                               rank=rank_v, size=len(v_basis))
    rank_union = rank_at_least(field, v_rows + w_rows,
                               min(rank_v + len(w_rows), ring.piece_dim(md)))
    kernel = rank_v + len(w_rows) - rank_union
    return kernel == 0, rank_v - kernel


# -- builtin instances -------------------------------------------------------


def builtin_subscheme(name, field=QQ):
    """Canonical test subschemes; returns (SubschemeData, default d)."""
    if name == "three-points":
        pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        return SubschemeData.from_points(PolyRing(field, 3), pts, name=name), 3
    if name == "collinear-points":
        pts = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
        return SubschemeData.from_points(PolyRing(field, 3), pts, name=name), 3
    if name == "one-point":
        ring = PolyRing(field, 3)
        pts = [(0, 0, 1)]
        gens = [ring.parse("x0"), ring.parse("x1")]
        return SubschemeData(ring, gens, points=pts, name=name), 1
    if name == "empty":
        ring = PolyRing(field, 3)
        return SubschemeData(ring, [ring.one()], name=name), 1
    if name == "line-p3":
        ring = PolyRing(field, 4)
        gens = [ring.parse("x0"), ring.parse("x1")]
        return SubschemeData(ring, gens, name=name), 2
    if name == "twisted-cubic":
        ring = PolyRing(field, 4)
        gens = [ring.parse("x0*x2 - x1^2"), ring.parse("x0*x3 - x1*x2"),
                ring.parse("x1*x3 - x2^2")]
        return SubschemeData(ring, gens, name=name), 2
    raise InputError(f"unknown builtin subscheme '{name}'",
                     known=sorted(BUILTIN_NAMES))


BUILTIN_NAMES = ("three-points", "collinear-points", "one-point", "empty",
                 "line-p3", "twisted-cubic")


# -- input file grammar -------------------------------------------------------


def parse_subscheme_file(text, field=QQ):
    """Parse the subscheme input format:

        ambient: 2
        d: 3
        points:
        1 0 0
        0 1 0

    or with an `ideal:` section of one polynomial per line.  Returns
    (SubschemeData, Polarization).  Blank lines and `#` comments ignored."""
    n = None
    d = None
    mode = None
    points = []
    polys = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        low = line.lower()
        if low.startswith("ambient:"):
            n = _parse_int(line)
            continue
        if low.startswith("d:"):
            d = _parse_int(line)
            continue
        if low == "points:":
            mode = "points"
            continue
        if low == "ideal:":
            mode = "ideal"
            continue
        if mode == "points":
            parts = line.replace(",", " ").split()
            points.append(tuple(_parse_coord(c) for c in parts))
        elif mode == "ideal":
            polys.append(line)
        else:
            raise InputError(f"unrecognized header line: {line!r}")
    if n is None:
        raise InputError("missing 'ambient:' line")
    if d is None:
        raise InputError("missing 'd:' line")
    ring = PolyRing(field, n + 1)
    if points and polys:
        raise InputError("give either points or ideal generators, not both")
    if points:
        for p in points:
            if len(p) != n + 1:
                raise InputError("point coordinate count does not match ambient",
                                 point=[str(c) for c in p])
        z = SubschemeData.from_points(ring, points)
    elif polys:
        gens = [ring.parse(s) for s in polys]
        z = SubschemeData(ring, gens)
    else:
        raise InputError("no points or ideal generators given")
    return z, Polarization(n, d)


def _parse_int(line):
    try:
        return int(line.split(":", 1)[1])
    except ValueError:
        raise InputError(f"expected an integer in header line: {line!r}") from None


def _parse_coord(tok):
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"coordinate {tok!r} is not a rational number") from None
