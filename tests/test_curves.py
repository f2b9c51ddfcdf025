"""Riemann-Roch arithmetic for evaluation kernels on the polarization curve."""

from fractions import Fraction

import pytest

import syzkit.curves as curves
from syzkit.curves import (CurveBundleInvariants, butler_kernel_invariants,
                           restriction_bookkeeping)
from syzkit.errors import CertificateError, HypothesisError, SpecialityError
from syzkit.resolver import build_surface_kernel
from syzkit.schemes import Polarization, builtin_subscheme


def test_butler_elliptic_cubic():
    e = CurveBundleInvariants(1, 1, 3, semistable=True)
    m = butler_kernel_invariants(e)
    assert (m.rank, m.degree) == (2, -3)
    assert m.slope == Fraction(-3, 2)
    assert m.stable_by_butler
    assert m.semistable


def test_butler_elliptic_degree_nine():
    m = butler_kernel_invariants(CurveBundleInvariants(1, 1, 9, semistable=True))
    assert (m.rank, m.degree) == (8, -9)
    assert m.slope == Fraction(-9, 8)


def test_butler_genus_two_rank_three():
    e = CurveBundleInvariants(2, 3, 15, semistable=True)
    assert e.h0 == 12
    m = butler_kernel_invariants(e)
    assert (m.rank, m.degree) == (9, -15)
    assert m.slope == Fraction(-5, 3)


def test_butler_boundary_slope_exactly_2g():
    for g, r, deg in [(1, 1, 2), (2, 2, 8)]:
        e = CurveBundleInvariants(g, r, deg, semistable=True)
        with pytest.raises(HypothesisError) as exc:
            butler_kernel_invariants(e)
        payload = exc.value.payload()
        assert payload["code"] == "hypothesis-violation"
        assert payload["details"]["margin"] == "0"


def test_butler_rejects_rational_curves():
    e = CurveBundleInvariants(0, 1, 5, semistable=True)
    with pytest.raises(HypothesisError):
        butler_kernel_invariants(e)


def test_kernel_identities_above_threshold():
    for g in (1, 2, 3):
        for r in (1, 2, 3):
            for deg in range(2 * g * r + 1, 2 * g * r + 8):
                e = CurveBundleInvariants(g, r, deg, semistable=True)
                m = butler_kernel_invariants(e)
                assert m.degree == -e.degree
                assert m.rank == e.h0 - e.rank
                assert m.slope < 0 < e.slope
                assert m.chi() == m.degree + m.rank * (1 - g)


def test_h0_needs_semistability_flag():
    e = CurveBundleInvariants(1, 2, 10)
    assert e.chi() == 10
    with pytest.raises(SpecialityError):
        e.h0


def test_h0_needs_slope_above_2g_minus_2():
    e = CurveBundleInvariants(3, 1, 4, semistable=True)  # slope == 2g-2
    with pytest.raises(SpecialityError) as exc:
        e.h0
    assert exc.value.payload()["details"]["slope"] == "4"
    assert CurveBundleInvariants(3, 1, 5, semistable=True).h0 == 3


def test_h0_explicit_override():
    e = CurveBundleInvariants(2, 1, 2, h0=1)
    assert e.h0 == 1


def test_as_dict_string_slope():
    e = CurveBundleInvariants(1, 1, 9, semistable=True)
    assert e.as_dict() == {"genus": 1, "rank": 1, "degree": 9, "slope": "9"}


def test_bookkeeping_rational_curve_skips_butler():
    z, _ = builtin_subscheme("one-point")
    pol = Polarization(2, 1)
    stage = build_surface_kernel(z, pol, m=1)
    report = restriction_bookkeeping(stage, pol)
    assert report["genus"] == 0
    assert report["deg_E"] == 1
    assert report["butler"] == {"skipped": "g >= 1 required"}
    assert [s["label"] for s in report["sequences"]] == [
        "stage-restricted-to-curve", "curve-evaluation"]


def test_bookkeeping_full_sections_coincide():
    z, _ = builtin_subscheme("one-point")
    pol = Polarization(2, 3)
    stage = build_surface_kernel(z, pol, m=1)
    assert (stage.dim_v, stage.rank) == (9, 8)
    report = restriction_bookkeeping(stage, pol)
    assert report["genus"] == 1
    assert report["deg_E"] == 9
    assert report["butler"]["sections_equal_v"] is True
    assert report["butler"]["sequences_coincide"] is True
    assert report["butler"]["stable_by_butler"] is True
    assert report["butler"]["m_e"] == {"genus": 1, "rank": 8, "degree": -9,
                                       "slope": "-9/8"}
    assert [s["label"] for s in report["sequences"]] == [
        "stage-restricted-to-curve", "curve-evaluation", "full-sections-kernel"]


def test_bookkeeping_three_points_matches_stage_chern():
    z, d = builtin_subscheme("three-points")
    pol = Polarization(2, d)
    stage = build_surface_kernel(z, pol, m=2)
    report = restriction_bookkeeping(stage, pol)
    assert report["deg_E"] == 18
    first = report["sequences"][0]
    assert first["sub"] == {"name": "M|_C", "rank": 17, "degree": -18}
    assert report["butler"]["sequences_coincide"] is True


def test_bookkeeping_sequences_are_additive():
    z, _ = builtin_subscheme("one-point")
    pol = Polarization(2, 3)
    stage = build_surface_kernel(z, pol, m=1)
    report = restriction_bookkeeping(stage, pol)
    for seq in report["sequences"]:
        assert seq["sub"]["rank"] + seq["quotient"]["rank"] == seq["middle"]["rank"]
        assert (seq["sub"]["degree"] + seq["quotient"]["degree"]
                == seq["middle"]["degree"])


def _full_sections_stage():
    z, _ = builtin_subscheme("one-point")
    pol = Polarization(2, 3)
    return build_surface_kernel(z, pol, m=1), pol


def test_bookkeeping_rejects_a_stage_rank_off_dim_v(monkeypatch):
    stage, pol = _full_sections_stage()
    monkeypatch.setattr(stage, "rank", stage.rank + 1)
    with pytest.raises(CertificateError, match="dim V - 1"):
        restriction_bookkeeping(stage, pol)


def test_bookkeeping_rejects_a_restriction_off_the_rr_degree(monkeypatch):
    stage, pol = _full_sections_stage()
    exact = Polarization.curve_degree
    monkeypatch.setattr(Polarization, "curve_degree",
                        lambda self, m: exact(self, m) + 1)
    with pytest.raises(CertificateError, match="RR degree"):
        restriction_bookkeeping(stage, pol)


@pytest.mark.parametrize("rank_off,degree_off", [(1, 0), (0, 1)],
                         ids=["rank", "degree"])
def test_bookkeeping_rejects_butler_invariants_off_the_stage(
        monkeypatch, rank_off, degree_off):
    stage, pol = _full_sections_stage()
    exact = butler_kernel_invariants

    def off(e):
        m = exact(e)
        return CurveBundleInvariants(m.genus, m.rank + rank_off,
                                     m.degree + degree_off, semistable=True,
                                     stable_by_butler=True)

    monkeypatch.setattr(curves, "butler_kernel_invariants", off)
    with pytest.raises(CertificateError, match="Butler"):
        restriction_bookkeeping(stage, pol)
