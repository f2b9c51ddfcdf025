"""Riemann-Roch arithmetic on the polarization curve: section counts of
evaluation-kernel bundles, the slope hypothesis gate, and the bookkeeping
that ties a surface stage to its restriction sequences on the curve."""

from fractions import Fraction

from .errors import (CertificateError, DegenerateKernelError, HypothesisError,
                     SpecialityError)


class CurveBundleInvariants:
    """Numeric invariants of a vector bundle on a smooth curve."""

    __slots__ = ("genus", "rank", "degree", "semistable", "stable_by_butler",
                 "_h0")

    def __init__(self, genus, rank, degree, semistable=False,
                 stable_by_butler=False, h0=None):
        self.genus = int(genus)
        self.rank = int(rank)
        self.degree = int(degree)
        self.semistable = semistable
        self.stable_by_butler = stable_by_butler
        self._h0 = h0

    @property
    def slope(self):
        return Fraction(self.degree, self.rank)

    def chi(self):
        """deg + r(1-g), valid unconditionally."""
        return self.degree + self.rank * (1 - self.genus)

    @property
    def h0(self):
        """Section count; determined only past the speciality bound and
        under the semistability flag (h1 = 0 then)."""
        if self._h0 is not None:
            return self._h0
        if not self.semistable:
            raise SpecialityError(
                "h0 undetermined without the semistable-by-hypothesis flag; "
                "only chi is available")
        if self.slope <= 2 * self.genus - 2:
            raise SpecialityError(
                "slope does not exceed 2g-2; h1 need not vanish",
                slope=str(self.slope), genus=self.genus)
        return self.chi()

    def as_dict(self):
        return {"genus": self.genus, "rank": self.rank, "degree": self.degree,
                "slope": str(self.slope)}

    def __repr__(self):
        return (f"CurveBundle(g={self.genus}, r={self.rank}, "
                f"deg={self.degree}, mu={self.slope})")


def butler_kernel_invariants(e):
    """Invariants of M_E = ker(H^0(E) ⊗ O_C -> E) under the slope
    hypothesis mu(E) > 2g, g >= 1.  The stability of M_E is recorded as a
    trusted flag; every numeric consequence is recomputed here."""
    if e.genus < 1:
        raise HypothesisError("genus must be at least 1", genus=e.genus)
    mu = e.slope
    if mu <= 2 * e.genus:
        raise HypothesisError(
            "slope must strictly exceed 2g",
            slope=str(mu), bound=2 * e.genus, margin=str(mu - 2 * e.genus))
    h0 = e.degree + e.rank * (1 - e.genus)
    if h0 <= e.rank:
        raise DegenerateKernelError(
            "kernel rank h0 - r is not positive", h0=h0, rank=e.rank)
    return CurveBundleInvariants(
        e.genus, h0 - e.rank, -e.degree, semistable=True,
        stable_by_butler=True)


def restriction_bookkeeping(stage, pol):
    """The three restriction sequences of a surface-type stage with their
    exact rank/degree labels:

      (a) the stage sequence restricted to C,
      (b) the curve-side evaluation sequence of V on E = O_C(mH),
      (c) the full-section kernel sequence of M_E,

    with the cross-check that M|_C invariants read off the stage's Chern
    data agree with butler_kernel_invariants when dim V = h0(E)."""
    n = stage.chern.total.n
    d = pol.d
    g = pol.genus
    deg_e = pol.curve_degree(stage.m)
    c1_l = stage.chern.total.coeffs[1]
    deg_restricted = int(c1_l * d ** (n - 1))
    if stage.rank != stage.dim_v - 1:
        raise CertificateError("stage rank is not dim V - 1",
                               rank=stage.rank, dim_v=stage.dim_v)
    if deg_restricted != -deg_e:
        raise CertificateError("Chern restriction disagrees with RR degree",
                               restricted=deg_restricted, deg_e=deg_e)
    seqs = [
        {
            "label": "stage-restricted-to-curve",
            "sub": {"name": "M|_C", "rank": stage.rank, "degree": deg_restricted},
            "middle": {"name": "V x O_C", "rank": stage.dim_v, "degree": 0},
            "quotient": {"name": "O_C(mH)", "rank": 1, "degree": deg_e},
        },
        {
            "label": "curve-evaluation",
            "sub": {"name": "M_{V,E}", "rank": stage.dim_v - 1, "degree": -deg_e},
            "middle": {"name": "V x O_C", "rank": stage.dim_v, "degree": 0},
            "quotient": {"name": "E", "rank": 1, "degree": deg_e},
        },
    ]
    report = {"sequences": seqs, "genus": g, "deg_E": deg_e}
    if g < 1:
        report["butler"] = {"skipped": "g >= 1 required"}
        return report
    e_inv = CurveBundleInvariants(g, 1, deg_e, semistable=True)
    m_e = butler_kernel_invariants(e_inv)
    seqs.append({
        "label": "full-sections-kernel",
        "sub": {"name": "M_E", "rank": m_e.rank, "degree": m_e.degree},
        "middle": {"name": "H0(E) x O_C", "rank": e_inv.h0, "degree": 0},
        "quotient": {"name": "E", "rank": 1, "degree": deg_e},
    })
    full = stage.dim_v == e_inv.h0
    report["butler"] = {
        "m_e": m_e.as_dict(),
        "stable_by_butler": m_e.stable_by_butler,
        "sections_equal_v": full,
    }
    if full:
        if m_e.rank != stage.rank or m_e.degree != deg_restricted:
            raise CertificateError(
                "Butler kernel invariants disagree with the restricted stage",
                rank=m_e.rank, stage_rank=stage.rank, degree=m_e.degree,
                restricted=deg_restricted)
        report["butler"]["sequences_coincide"] = True
    return report
