"""Kernel stages, the chain on P^3, and the seeded experiments."""

import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

import syzkit.groebner as groebner
import syzkit.resolver as resolver
from syzkit.chow import ChernVector, ChowClass, KClass
from syzkit.errors import (CertificateError, GenericityError, InputError,
                           ThresholdError)
from syzkit.fields import GF, QQ
from syzkit.groebner import (FreeModule, Ideal, Submodule, Vec, syzygies,
                             vecs_from_polys)
from syzkit.linalg import Matrix, rank_at_least, rank_reaches
from syzkit.linalg import primitive_integers
from syzkit.polyring import (GradedPoly, PolyRing, integer_powers,
                             monomial_values, multiple_rows)
from syzkit.resolver import (_chern_inverse, _gradient_rows, _jacobian_rows,
                             _partials,
                             build_chain, build_surface_kernel,
                             chain_character_residual,
                             check_generation, genericity_experiment,
                             hoppe_stage, ideal_piece_basis,
                             stage_kernel_generators, uniformity_experiment)
from syzkit.schemes import (BUILTIN_NAMES, Polarization, SubschemeData,
                            builtin_subscheme, parse_subscheme_file,
                            restrict_to_curve)


def three_points():
    z, d = builtin_subscheme("three-points")
    return z, Polarization(2, d)


# -- generation certificates ---------------------------------------------------


def test_generation_certified_three_quadrics():
    z, _ = three_points()
    v = [z.ring.parse(s) for s in ("x0*x1", "x0*x2", "x1*x2")]
    rep = check_generation(v, z.ideal, points=z.points)
    assert rep.verdict == "certified"
    assert rep.certified_at == 2
    assert rep.table == [(2, 3, 3)]


def test_generation_false_with_fiber_witness():
    z, _ = three_points()
    v = [z.ring.parse(s) for s in ("x0*x1", "x0*x2")]
    rep = check_generation(v, z.ideal, points=z.points)
    assert rep.verdict == "false"
    assert rep.fiber_witness == ["0", "1", "0"]
    assert rep.first_mismatch == 2


def _field_jacobian_rank(ring, polys, point, field):
    """Reference: the Jacobian at the point in the field's own arithmetic.
    Over Q that of the forms at the point; over F_p that of the forms'
    int_terms at the primitive integers of the point, reduced mod p."""
    if field != QQ:
        point = primitive_integers(point)
    rows = []
    for p in polys:
        terms = p.coeffs if field == QQ else p.int_terms
        row = []
        for i in range(ring.num_vars):
            acc = QQ.zero
            for e, c in terms.items():
                if e[i]:
                    val = c * e[i]
                    for j, x in enumerate(point):
                        val *= x ** (e[j] - (j == i))
                    acc += val
            row.append(field(acc))
        rows.append(row)
    return Matrix(field, rows).rank()


def _gradient_rank_at(ring, polys, point):
    """Rank of the integer Jacobian rows of the polys at a point."""
    return Matrix(QQ, _gradient_rows(ring, polys, point)).rank()


def _screen_rows(ring, polys, point, q):
    """The Jacobian rows of check_generation's screen mod q: the _partials
    at the monomial_values mod q of the point's integer_powers."""
    powers = integer_powers(point, max(p.degree for p in polys) - 1)
    values = {}
    for t in {p.degree - 1 for p in polys}:
        values.update(monomial_values(ring, powers, t, q))
    return list(_jacobian_rows(_partials(ring, polys), values))


@pytest.mark.parametrize("field", [QQ, GF(3), GF(101)], ids=str)
def test_integer_jacobian_rank_matches_field_jacobian(field):
    """Over Q the integer Jacobian rows have the rank of the Jacobian.  Over
    F_p the rows of the mod-p screen of check_generation have the rank of
    the Jacobian mod p, which is at most the rank over Q: at p = 3 it drops
    on some of these points, at p = 101 on none."""
    rng = random.Random(f"jacobian {field}")

    def scalar():
        if field is QQ:
            return Fraction(rng.randrange(-6, 7), rng.choice((1, 2, 3, 5)))
        return Fraction(rng.randrange(-6, 7))

    ranks = set()
    drops = 0
    for _ in range(80):
        ring = PolyRing(rng.choice((3, 4)))
        n = ring.num_vars
        point = [scalar() for _ in range(n)]
        if not any(point):
            continue
        polys = []
        for _ in range(rng.randrange(1, 5)):
            # products of linear forms, some through the point, so that the
            # point is smooth or singular on each form
            form = ring.one()
            for _ in range(rng.randrange(1, 4)):
                lin = [scalar() for _ in range(n)]
                if rng.random() < 0.6:
                    k = next(i for i, x in enumerate(point) if x)
                    at = sum(a * x for a, x in zip(lin, point))
                    lin[k] -= at / point[k]
                form = form * sum((x.scale(a) for x, a in zip(ring.gens(), lin)),
                                  ring.zero(1))
            if not form.is_zero():
                polys.append(form)
        if not polys:
            continue
        rank = _gradient_rank_at(ring, polys, point)
        rows = _gradient_rows(ring, polys, point)
        if field != QQ:
            rank_q = rank
            rows = _screen_rows(ring, polys, point, field.p)
            rank = Matrix(field, rows).rank()
            assert rank <= rank_q
            drops += rank < rank_q
        assert rank == _field_jacobian_rank(ring, polys, point, field)
        # the screen's question, answered mod p first
        for target in range(n + 1):
            assert rank_reaches(field, rows, target) == (rank >= target)
        ranks.add(rank)
    assert {0, 1, 2, 3} <= ranks
    assert drops if field == GF(3) else not drops


@pytest.mark.parametrize("field", [QQ], ids=str)
def test_a_section_off_the_points_is_rejected(field):
    """Negative control of the point path: x0^2 vanishes at two of the
    three points but not at (1:0:0), so V is not in I_Z."""
    z, _ = builtin_subscheme("three-points")
    ring = z.ring
    v = [ring.parse(s) for s in ("x0*x1", "x1*x2", "x0^2")]
    with pytest.raises(InputError, match="target ideal"):
        check_generation(v, z.ideal, points=z.points)
    # the same V without the stray section passes the membership test
    assert check_generation(v[:2], z.ideal, points=z.points).verdict == "false"


def test_jacobian_screen_needs_exact_rows_only_at_a_witness(monkeypatch):
    z, _ = three_points()
    calls = []
    exact = resolver._gradient_rows

    def spy(ring, polys, point):
        calls.append(tuple(point))
        return exact(ring, polys, point)

    monkeypatch.setattr(resolver, "_gradient_rows", spy)
    v = [z.ring.parse(s) for s in ("x0*x1", "x0*x2", "x1*x2")]
    assert check_generation(v, z.ideal, points=z.points).certified
    assert calls == []
    # the rank at (1:0:0) reaches 2 mod p; at (0:1:0) it is 1, and only
    # there are the exact rows built
    v = [z.ring.parse(s) for s in ("x0*x1", "x0*x2")]
    rep = check_generation(v, z.ideal, points=z.points)
    assert rep.fiber_witness == ["0", "1", "0"]
    assert calls == [(0, 1, 0)]


def test_generation_false_by_piece_comparison_alone():
    z, _ = three_points()
    v = [z.ring.parse(s) for s in ("x0*x1", "x0*x2")]
    rep = check_generation(v, z.ideal)
    assert rep.verdict == "false"
    assert rep.fiber_witness is None
    assert rep.first_mismatch == 2


def test_generation_principal_ideal():
    ring = PolyRing(3)
    ideal = Ideal(ring, [ring.parse("x0")])
    rep = check_generation([ring.parse("x0")], ideal)
    assert rep.verdict == "certified"
    assert rep.certified_at == 1


def test_generation_input_errors():
    z, _ = three_points()
    with pytest.raises(InputError):
        check_generation([], z.ideal)
    with pytest.raises(InputError):
        check_generation([z.ring.parse("x0^2")], z.ideal)
    with pytest.raises(InputError):
        check_generation([z.ring.parse("x0*x1"),
                          z.ring.parse("x0*x1*x2")], z.ideal)


def test_ideal_piece_basis_is_independent():
    z, _ = three_points()
    basis = ideal_piece_basis(z.ideal, 3)
    assert len(basis) == 7  # 10 - 3 conditions
    assert all(b.degree == 3 for b in basis)


# -- surface stages -------------------------------------------------------------


def test_koszul_stage_frozen():
    z, _ = builtin_subscheme("one-point")
    stage = build_surface_kernel(z, Polarization(2, 1), m=1)
    assert (stage.dim_v, stage.rank) == (2, 1)
    assert stage.chern.total.l_ints() == (1, -1, 0)
    assert stage.slope == Fraction(-1)
    assert stage.slope_l == Fraction(-1)
    assert stage.flags == {
        "attempts": 1,
        "butler_applicable": False,
        "curve_sections": 2,
        "generates": "certified",
        "generation_certified_at": 1,
        "h0": 2,
        "h1_prev_twist_vanishes": True,
        "policy": "full",
        "reg_bound_met": False,
        "restriction_image_dim": 2,
        "restriction_injective": True,
        "v_full_space": True,
        "warning_mode": True,
    }


def test_omega_stage_frozen():
    z, _ = builtin_subscheme("empty")
    stage = build_surface_kernel(z, Polarization(2, 1), m=1)
    assert (stage.dim_v, stage.rank) == (3, 2)
    assert stage.chern.total.l_ints() == (1, -1, 1)
    assert stage.slope == Fraction(-1, 2)
    # the full linear system never injects into a line's sections
    assert stage.flags["restriction_injective"] is False
    assert stage.flags["v_full_space"] is True
    assert stage.flags["policy"] == "full"


def test_three_points_stage_frozen():
    z, pol = three_points()
    stage = build_surface_kernel(z, pol)
    assert stage.m == 2  # auto-selected minimal feasible twist
    assert (stage.dim_v, stage.rank) == (18, 17)
    assert stage.chern.total.l_ints() == (1, -6, 33)
    assert stage.slope == Fraction(-2, 17)
    assert stage.slope_l == Fraction(-6, 17)
    assert stage.flags == {
        "attempts": 1,
        "butler_applicable": True,
        "curve_sections": 18,
        "generates": "certified",
        "generation_certified_at": 7,
        "h0": 25,
        "h1_prev_twist_vanishes": True,
        "policy": "curve-sections",
        "reg_bound_met": True,
        "restriction_image_dim": 18,
        "restriction_injective": True,
        "stable_by_restriction": True,
        "v_full_space": False,
        "warning_mode": False,
    }
    assert stage.restriction is not None
    assert stage.restriction["butler"]["sequences_coincide"] is True
    rep = stage.report_dict()
    assert sorted(rep.keys()) == ["chern", "dimV", "flags", "i", "m",
                                  "rank", "slope"]
    assert rep["chern"] == (1, -6, 33)
    assert rep["slope"] == "-2/17"


def test_point_class_identity():
    # [Z] = -c2 + m^2 H^2 in point units: 3 = -33 + 4 * 9
    z, pol = three_points()
    stage = build_surface_kernel(z, pol)
    c2_l = stage.chern.total.l_ints()[2]
    m, d = stage.m, pol.d
    assert z.degree == -c2_l + m * m * d * d


def test_stage_rejects_sub_threshold_twist():
    z, pol = three_points()
    with pytest.raises(ThresholdError) as exc:
        build_surface_kernel(z, pol, m=1)
    assert exc.value.payload()["details"] == {
        "h0": "7", "m": "1", "minimal_m": "2", "regularity": "2",
        "target": "9"}


def test_stage_rejects_nonpositive_twist():
    z, pol = three_points()
    with pytest.raises(ThresholdError) as exc:
        build_surface_kernel(z, pol, m=0)
    assert exc.value.payload()["details"] == {"m": "0", "minimal_m": "2"}


def test_stage_retry_budget_exhausted(monkeypatch):
    z, pol = three_points()
    monkeypatch.setattr(resolver, "RETRY_BUDGET", 0)
    with pytest.raises(GenericityError) as exc:
        build_surface_kernel(z, pol)
    details = exc.value.payload()["details"]
    assert details["attempts"] == "0"


class _ScriptedRng:
    """An rng whose randrange returns the scripted values in order."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, *args):
        return self.values.pop(0)


def _curve_script(ring, *forms):
    """The randrange values that make _draw_curve_forms draw the forms: one
    integer coefficient per monomial, in monomials_of_degree order."""
    out = []
    for text in forms:
        f = ring.parse(text)
        out += [int(f.coeffs.get(e, 0))
                for e in ring.monomials_of_degree(f.degree)]
    return out


def test_curve_forms_are_redrawn_until_they_avoid_z(monkeypatch):
    """A points: scheme on P^2 rejects a form that vanishes at a listed
    point; an ideal: scheme on P^3 rejects a pair with a common zero on Z."""
    z, _ = builtin_subscheme("three-points")
    ring = z.ring
    # x1 + x2 vanishes at (1:0:0)
    rng = _ScriptedRng(_curve_script(ring, "x1 + x2", "x0 + x1 + x2"))
    forms = resolver._draw_curve_forms(rng, z, 1, 1)
    assert forms == [ring.parse("x0 + x1 + x2")]
    assert rng.values == []
    z, _ = parse_subscheme_file("ambient: 3\nd: 1\nideal:\nx0\nx1\n")
    ring = z.ring
    assert z.points is None
    # x0 = x2 = 0 meets the line x0 = x1 = 0 at (0:0:0:1)
    rng = _ScriptedRng(_curve_script(ring, "x0", "x2", "x2", "x3"))
    assert resolver._draw_curve_forms(rng, z, 1, 2) == [ring.parse("x2"),
                                                        ring.parse("x3")]
    assert rng.values == []
    monkeypatch.setattr(resolver, "CURVE_TRIES", 1)
    rng = _ScriptedRng(_curve_script(ring, "x0", "x2", "x2", "x3"))
    with pytest.raises(GenericityError, match="avoiding") as exc:
        resolver._draw_curve_forms(rng, z, 1, 2)
    assert exc.value.details == {"tries": 1}


def test_every_built_stage_draws_curve_forms_off_z():
    """The forms of a built stage avoid Z: none vanishes at a listed point,
    and with the ideal of Z they cut an empty locus."""
    cases = [builtin_subscheme(name) for name in BUILTIN_NAMES]
    rng = random.Random("curve-forms-off-z")
    for n, size, d in ((2, 3, 1), (2, 10, 3), (3, 4, 2), (3, 8, 2)):
        pts = {}
        while len(pts) < size:
            p = tuple(rng.randrange(-9, 10) for _ in range(n + 1))
            if any(p):
                lead = next(c for c in p if c)
                pts.setdefault(tuple(Fraction(c, lead) for c in p), p)
        ring = PolyRing(n + 1)
        cases.append((SubschemeData.from_points(ring, list(pts.values())), d))
    for z, d in cases:
        forms = build_chain(z, Polarization(z.n, d)).stages[0].curve_forms
        assert len(forms) == z.n - 1
        assert z.ideal.sum(forms).krull_dim_quotient() <= 0
        for p in z.points or ():
            assert all(f.evaluate(p) != 0 for f in forms)


def test_stage_input_validation():
    z, pol = three_points()
    with pytest.raises(InputError):
        build_surface_kernel(z, pol, mode="symbolic")
    with pytest.raises(InputError):
        build_surface_kernel(z, pol, policy="slope")
    with pytest.raises(InputError):
        build_surface_kernel(z, Polarization(3, 2))
    zl, _ = builtin_subscheme("line-p3")
    with pytest.raises(InputError):
        build_surface_kernel(zl, Polarization(3, 2))


# -- the chain ------------------------------------------------------------------


def test_chain_on_p2_is_the_surface_stage():
    z, pol = three_points()
    chain = build_chain(z, pol)
    stage = build_surface_kernel(z, pol)
    assert len(chain.stages) == 1
    assert chain.stages[0].report_dict() == stage.report_dict()
    rep = chain.report()
    assert rep["identity_holds"] is True
    # terminal E = K(-mH): c1 = -6 - 17*2*3, c2 follows from the twist rule
    assert rep["terminal"]["chern"] == (1, -108, 5505)
    assert rep["terminal"]["rank"] == 17


@pytest.mark.parametrize("name", ["three-points", "line-p3"])
def test_one_resolve_computes_the_ideal_sheaf_character_once(name):
    # stage 0 and the chain residual both read ch(I_Z) at scale d
    z, d = builtin_subscheme(name)
    KClass.to_ch.cache_clear()
    build_chain(z, Polarization(z.n, d))
    info = KClass.to_ch.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_chain_line_p3_frozen():
    z, _ = builtin_subscheme("line-p3")
    chain = build_chain(z, Polarization(3, 2))
    rep = chain.report()
    assert (rep["ambient"], rep["d"], rep["degree"]) == (3, 2, 1)
    s0, s1 = rep["stages"]
    assert (s0["m"], s0["dimV"], s0["rank"]) == (2, 16, 15)
    assert s0["chern"] == (1, -4, 15, -54)
    assert (s1["m"], s1["dimV"], s1["rank"]) == (2, 224, 209)
    scan = s1["flags"]["twist_scan"]
    assert scan[0] == {"m": 1, "deg_restricted": 104, "mu": "104/15",
                       "h0_curve": 104, "h0_ambient": 83,
                       "rejected": "section count"}
    assert scan[1] == {"m": 2, "deg_restricted": 224, "mu": "224/15",
                       "h0_curve": 224, "h0_ambient": 404}
    assert s1["flags"]["butler_margin"] == "194/15"
    assert s1["flags"]["stable_by_restriction"] is True
    assert s1["flags"]["acm_defects"] == {"4": 0, "6": 0, "8": 0, "10": 0}
    assert s1["flags"]["intermediate_cohomology_vanishes"] is True
    assert rep["terminal"]["rank"] == 209
    assert rep["terminal"]["chern"] == (1, -1728, 1485953, -847837886)
    assert rep["terminal"]["flags"]["untwist"] == -4
    assert rep["residual"] == ["0", "0", "0", "0"]
    assert rep["identity_holds"] is True


def test_chain_twisted_cubic_frozen():
    z, _ = builtin_subscheme("twisted-cubic")
    chain = build_chain(z, Polarization(3, 2))
    rep = chain.report()
    assert rep["degree"] == 3
    s0, s1 = rep["stages"]
    assert (s0["m"], s0["dimV"], s0["rank"]) == (2, 16, 15)
    assert s0["chern"] == (1, -4, 13, -38)
    assert (s1["m"], s1["dimV"], s1["rank"]) == (2, 224, 209)
    assert s1["flags"]["twist_scan"][0]["h0_ambient"] == 95
    assert rep["terminal"]["chern"] == (1, -1728, 1485955, -847841334)
    assert rep["residual"] == ["0", "0", "0", "0"]
    assert rep["identity_holds"] is True


def test_chain_forced_second_twist_rejection():
    z, _ = builtin_subscheme("line-p3")
    with pytest.raises(ThresholdError) as exc:
        build_chain(z, Polarization(3, 2), m_list=[2, 1])
    assert "section-count" in str(exc.value)
    with pytest.raises(ThresholdError):
        build_chain(z, Polarization(3, 2), m_list=[2, 0])


def test_chain_ambient_mismatch():
    z, pol = three_points()
    with pytest.raises(InputError):
        build_chain(z, Polarization(3, 2))


def test_character_residual_negative_control():
    z, _ = builtin_subscheme("line-p3")
    chain = build_chain(z, Polarization(3, 2))
    data = [(s.m, s.dim_v) for s in chain.stages]
    good = chain_character_residual(3, 2, z.hilbert_polynomial(), data,
                                    chain.terminal_chern)
    assert good.is_zero()
    perturbed = [(data[0][0], data[0][1] + 1), data[1]]
    bad = chain_character_residual(3, 2, z.hilbert_polynomial(), perturbed,
                                   chain.terminal_chern)
    assert not bad.is_zero()


# -- module mode ----------------------------------------------------------------


def test_module_mode_koszul():
    z, _ = builtin_subscheme("one-point")
    stage = build_surface_kernel(z, Polarization(2, 1), m=1, mode="module")
    assert stage.flags["locally_free"] == "locally-free"
    assert stage.flags["locally_free_detail"] == "1"
    assert [g.degree for g in stage.kernel_gens] == [1]
    assert hoppe_stage(stage) == ("stable-certified",
                                  {"reason": "rank 1: line bundle"})


def test_module_mode_omega():
    z, _ = builtin_subscheme("empty")
    stage = build_surface_kernel(z, Polarization(2, 1), m=1, mode="module")
    assert stage.flags["locally_free"] == "locally-free"
    assert stage.flags["locally_free_detail"] == "2"
    assert [g.degree for g in stage.kernel_gens] == [1, 1, 1]
    verdict, detail = hoppe_stage(stage)
    assert verdict == "stable-certified"
    assert detail["checks"] == [{"q": 1, "twist": 0, "h0": 0}]


def test_module_mode_three_points_budgeted():
    z, pol = three_points()
    stage = build_surface_kernel(z, pol, mode="module")
    assert stage.flags["locally_free"] == "inconclusive"
    assert "presentation budget 12 exceeded" in stage.flags["locally_free_detail"]
    degrees = [g.degree for g in stage.kernel_gens]
    assert len(degrees) == 24
    assert sorted(set(degrees)) == [1, 2]
    assert stage.presentation is None


MODULE_CASES = [("one-point", 1, 1), ("empty", 1, 1), ("empty", 1, 2),
                ("three-points", 1, 3), ("collinear-points", 1, 3),
                ("empty", 2, None)]


@pytest.mark.parametrize("name,d,m", MODULE_CASES,
                         ids=[f"{n}-d{d}-m{m}" for n, d, m in MODULE_CASES])
def test_kernel_generators_match_groebner_syzygies(name, d, m):
    z, _ = builtin_subscheme(name)
    stage = build_surface_kernel(z, Polarization(2, d), m=m, mode="module")
    ring = z.ring
    # oracle: the Groebner syzygies of V, re-embedded in unshifted R^dimV
    _, vecs = vecs_from_polys(ring, stage.v_basis)
    ambient = FreeModule(ring, (0,) * stage.dim_v)
    oracle = [Vec(ambient, dict(s.terms)) for s in syzygies(vecs)]
    assert Submodule(ambient, stage.kernel_gens).equals(
        Submodule(ambient, oracle))
    # the proven degree cap: scanning two degrees past it finds nothing new
    md = stage.m * d
    cap = max(z.regularity(), stage.flags["generation_certified_at"]) + 1 - md
    _, at_cap, _ = stage_kernel_generators(ring, stage.v_basis, cap)
    _, past_cap, _ = stage_kernel_generators(ring, stage.v_basis, cap + 2)
    assert len(past_cap) <= len(at_cap) == len(stage.kernel_gens)
    assert stage.flags["locally_free"] == "locally-free"
    assert stage.flags["locally_free_detail"] == str(stage.rank)


@pytest.mark.parametrize("name,c0", [("line-p3", (1, -4, 15, -54)),
                                     ("twisted-cubic", (1, -4, 13, -38))])
def test_module_mode_p3_chains_within_budget(name, c0):
    z, _ = builtin_subscheme(name)
    t0 = time.time()
    chain = build_chain(z, Polarization(3, 2), mode="module")
    dt = time.time() - t0
    rep = chain.report()
    assert rep["stages"][0]["chern"] == c0
    assert rep["residual"] == ["0", "0", "0", "0"]
    stage0 = chain.stages[0]
    assert stage0.flags["locally_free"] == "inconclusive"
    assert "presentation budget 12 exceeded" in stage0.flags[
        "locally_free_detail"]
    assert stage0.kernel_gens
    assert dt < 30, f"{name}: {dt:.2f}s exceeded the 30s P^3 budget"


def test_module_mode_rejects_kernel_pieces_off_rank_nullity(monkeypatch):
    z, _ = builtin_subscheme("empty")
    exact = stage_kernel_generators

    def inflated(*args):
        ambient, gens, dims = exact(*args)
        return ambient, gens, dims[:-1] + [dims[-1] + 1]

    monkeypatch.setattr(resolver, "stage_kernel_generators", inflated)
    with pytest.raises(CertificateError, match="rank-nullity"):
        build_surface_kernel(z, Polarization(2, 1), m=1, mode="module")


def test_module_mode_rejects_a_fitting_rank_off_the_stage_rank(monkeypatch):
    z, _ = builtin_subscheme("empty")
    monkeypatch.setattr(resolver, "certify_locally_free",
                        lambda pres: ("locally-free", 5))
    with pytest.raises(CertificateError, match="Fitting rank"):
        build_surface_kernel(z, Polarization(2, 1), m=1, mode="module")


def test_chain_rejects_a_nonzero_character_residual(monkeypatch):
    z, pol = three_points()
    bad = chain_character_residual(
        2, 3, z.hilbert_polynomial(), [(2, 19)],
        build_chain(z, pol).terminal_chern)
    assert not bad.is_zero()
    monkeypatch.setattr(resolver, "chain_character_residual",
                        lambda *args: bad)
    with pytest.raises(CertificateError, match="character identity"):
        build_chain(z, pol)


def test_whitney_inverse_rejects_a_non_integral_class():
    half = ChernVector(1, ChowClass(2, [1, Fraction(1, 2)]))
    with pytest.raises(CertificateError, match="non-integer"):
        _chern_inverse(half, 1)


def test_fiber_witness_contradicting_piece_equality_is_rejected(monkeypatch):
    z, _ = three_points()
    v = [z.ring.parse(s) for s in ("x0*x1", "x0*x2", "x1*x2")]
    # a zero Jacobian at every point: the screen finds a witness of rank 0
    monkeypatch.setattr(resolver, "_jacobian_rows",
                        lambda partials, powers: [[0] * len(powers)
                                                  for _ in partials])
    with pytest.raises(CertificateError, match="fiber witness"):
        check_generation(v, z.ideal, points=z.points)


def test_hoppe_stage_needs_module_mode():
    z, _ = builtin_subscheme("one-point")
    stage = build_surface_kernel(z, Polarization(2, 1), m=1)
    with pytest.raises(InputError):
        hoppe_stage(stage)


# -- experiments ----------------------------------------------------------------


def test_genericity_positive_controls():
    for r, n, v in [(1, 1, 2), (1, 2, 3), (2, 2, 4)]:
        rep = genericity_experiment(r, n, v, trials=20, seed=0)
        assert rep["failures"] == 0
        assert rep["hypothesis_met"] is True
        assert rep["failure_probability_bound"] == "20/32003"


def test_genericity_negative_control():
    rep = genericity_experiment(1, 2, 2, trials=20, seed=0)
    assert rep["failures"] == 20
    assert rep["hypothesis_met"] is False


def _reference_failures(r, n, v, trials, p, t_cap, rng):
    """The full-matrix trial: the sections drawn in genericity_experiment's
    order generate when, for some t <= t_cap, their multiples m*s (deg m =
    t), v dim R_t integer rows, reach rank r dim R_(t+1) over F_p."""
    fp = GF(p)
    ring = PolyRing(n + 1)
    free = FreeModule(ring, (-1,) * r)
    failures = 0
    for _ in range(trials):
        vecs = []
        for _ in range(v):
            terms = {}
            for comp in range(r):
                for mono in ring.monomials_of_degree(1):
                    c = rng.randrange(p)
                    if c:
                        terms[(comp, mono)] = c
            vecs.append(Vec(free, terms, degree=0))
        if not any(rank_reaches(fp, multiple_rows(ring, vecs, t),
                                free.piece_dim(t))
                   for t in range(t_cap + 1)):
            failures += 1
    return failures


def test_genericity_matches_the_full_matrix_reference_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    seen = []

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from((2, 3, 5, 7, 101)), st.integers(1, 3),
               st.integers(1, 3), st.integers(1, 6), st.integers(0, 99),
               st.data())
    def check(p, r, n, v, seed, data):
        t_cap = data.draw(st.integers(0, n + 2))
        rep = genericity_experiment(r, n, v, trials=3, seed=seed, p=p,
                                    t_cap=t_cap)
        want = _reference_failures(r, n, v, 3, p, t_cap,
                                   random.Random(f"genericity:{seed}"))
        assert rep["failures"] == want
        seen.append(want)

    check()
    assert 0 < sum(seen) < 3 * len(seen)


class _Scripted:
    """Stands in for random.Random: randrange returns the next value."""

    def __init__(self, values):
        self._values = iter(values)

    def randrange(self, p):
        return next(self._values)


def _rank_reaches_spy(monkeypatch):
    calls = []

    def spy(field, rows, target):
        calls.append((len(rows), sorted({len(row) for row in rows}), target))
        return rank_reaches(field, rows, target)

    monkeypatch.setattr(resolver, "rank_reaches", spy)
    return calls


def test_genericity_fails_a_singular_x0_block_without_a_rank_test(
        monkeypatch):
    """Each section's x0 coefficients are (a, 2a), so the x0 block has rank
    1 < r = 2: at the point (1:0:0) the sections span one line only."""
    draws = random.Random(5)
    values = []
    for _ in range(4):
        a = draws.randrange(1, 101)
        values += [a, draws.randrange(101), draws.randrange(101),
                   2 * a % 101, draws.randrange(101), draws.randrange(101)]
    monkeypatch.setattr(resolver, "random", SimpleNamespace(
        Random=lambda seed: _Scripted(values)))
    calls = _rank_reaches_spy(monkeypatch)
    rep = genericity_experiment(2, 2, 4, trials=1, seed=0, p=101)
    assert rep["failures"] == 1 and rep["hypothesis_met"] is True
    assert calls == []
    assert _reference_failures(2, 2, 4, 1, 101, 4, _Scripted(values)) == 1


def test_genericity_ranks_the_x0_normal_forms(monkeypatch):
    """On (r, n, v) = (3, 3, 6) degrees 0 and 1 have too few multiples, and
    degree 2 ranks the (v - r) dim R_2 = 30 normal forms in R'^3_3, 30
    columns (the full matrix had 60 rows of 60 columns)."""
    calls = _rank_reaches_spy(monkeypatch)
    rep = genericity_experiment(3, 3, 6, trials=1, seed=0, p=1073741789)
    assert rep["failures"] == 0
    assert calls == [(30, [30], 30)]


def test_uniformity_frozen():
    rep = uniformity_experiment(3, 1, num_points=3, seed=0)
    assert rep == {"d": 3, "m": 1, "points": 3, "seed": 0, "dimV": 9,
                   "rank": 8, "chern": [1, -3, 8], "identical": True}


def test_uniformity_below_threshold_is_uniform():
    with pytest.raises(ThresholdError) as exc:
        uniformity_experiment(3, 0, num_points=3, seed=0)
    assert exc.value.payload()["details"] == {"m": "0", "minimal_m": "1",
                                              "points": "3"}


def _fake_stage(dim_v):
    chern = SimpleNamespace(total=SimpleNamespace(l_ints=lambda: [1, -3, 8]))
    return SimpleNamespace(dim_v=dim_v, rank=dim_v - 1, chern=chern)


def test_uniformity_rejects_a_mixed_threshold_outcome(monkeypatch):
    calls = []

    def build(z, pol, **kwargs):
        calls.append(kwargs["seed"])
        if len(calls) == 2:
            raise ThresholdError("below threshold", m=1)
        return _fake_stage(9)

    monkeypatch.setattr(resolver, "build_surface_kernel", build)
    with pytest.raises(CertificateError, match="not uniform") as exc:
        uniformity_experiment(3, 1, num_points=3, seed=0)
    assert exc.value.details == {"failed": 1, "points": 3}
    assert calls == ["0:0", "0:1", "0:2"]


def test_uniformity_rejects_differing_invariants(monkeypatch):
    dims = iter((9, 9, 10))
    monkeypatch.setattr(resolver, "build_surface_kernel",
                        lambda z, pol, **kwargs: _fake_stage(next(dims)))
    with pytest.raises(CertificateError, match="invariants differ"):
        uniformity_experiment(3, 1, num_points=3, seed=0)


def test_kernel_generators_reject_non_integer_coordinates(monkeypatch):
    ring = PolyRing(3)
    exact = Matrix.kernel
    monkeypatch.setattr(Matrix, "kernel",
                        lambda self: [[c / 2 for c in v] for v in exact(self)])
    with pytest.raises(CertificateError, match="non-integer"):
        stage_kernel_generators(ring, ring.gens(), 1)


# -- point schemes from evaluation data, certified ranks ----------------------


class _Reached(Exception):
    pass


def test_points_route_never_reaches_saturation_or_resolution(monkeypatch):
    def forbidden(*args, **kwargs):
        raise _Reached("a Groebner-only check ran on a points input")

    monkeypatch.setattr(groebner, "minimal_free_resolution", forbidden)
    monkeypatch.setattr(Ideal, "is_saturated", forbidden)
    for text in ("ambient: 2\nd: 3\npoints:\n1 0 0\n0 1 0\n0 0 1\n"
                 "2 3 5\n-1 4 7\n",
                 "ambient: 3\nd: 2\npoints:\n1 0 0 0\n0 1 0 0\n1 1 1 1\n"
                 "2 -1 3 1/2\n"):
        z, pol = parse_subscheme_file(text)
        assert build_chain(z, pol).report()["identity_holds"] is True
    with pytest.raises(_Reached):
        parse_subscheme_file("ambient: 2\nd: 3\nideal:\nx0\nx1\n")


def test_generation_and_restriction_ranks_need_no_rank_over_q(monkeypatch):
    z, pol = three_points()
    ring = z.ring
    # a drawn V of dimension 18 in (I_Z)_6: its degree-7 multiples outnumber
    # dim (I_Z)_7 = 33, so that rank must stop at the piece dimension
    v = build_surface_kernel(z, pol).v_basis
    by_resolution = check_generation(v, z.ideal)
    assert by_resolution.table == [(6, 18, 25), (7, 33, 33)]
    q_ranks = []
    exact = Matrix.rank

    def spy(self):
        if self.field == QQ:
            q_ranks.append((self.nrows, self.ncols))
        return exact(self)

    monkeypatch.setattr(Matrix, "rank", spy)
    rep = check_generation(v, z.ideal, reg=z.regularity())
    assert rep.certified and rep.table == by_resolution.table
    # V meets (conic)_4 = conic * R_2 only in 0, so the union rank reaches
    # its bound
    conic = ring.parse("x0^2 + x1^2 + x2^2")
    v4 = [ring.parse(m) for m in ("x0^3*x1", "x0^3*x2", "x0*x1^3",
                                  "x1^3*x2", "x0*x2^3", "x1*x2^3")]
    assert restrict_to_curve(z, v4, [conic]) == (True, 6)
    assert q_ranks == []
    # a kernel vector makes the union rank miss rank V + rank W: a Q rank
    planted = v4 + [conic * ring.parse("x0*x1")]
    assert restrict_to_curve(z, planted, [conic]) == (False, 6)
    assert q_ranks == [(13, 15)]
    # the full space V = (I_Z)_6 and (f)_6 = f * R_3 have 25 + 10 rows in 28
    # columns: the union rank is bounded by the column count, reached mod p
    stage = build_surface_kernel(z, pol, m=2, policy="full")
    assert stage.flags["v_full_space"] and stage.dim_v == 25
    assert not stage.flags["restriction_injective"]
    assert stage.flags["restriction_image_dim"] == 18
    assert q_ranks == [(13, 15)]


def test_generation_and_genericity_build_no_product_polynomials(monkeypatch):
    """Their multiplication matrices come from multiple_rows, which places
    integers at cached columns instead of forming each multiple."""
    z, pol = three_points()
    v = build_surface_kernel(z, pol).v_basis
    reg = z.regularity()
    expected = check_generation(v, z.ideal, points=z.points, reg=reg).table

    def forbidden(*args, **kwargs):
        raise _Reached("a monomial multiple was formed")

    monkeypatch.setattr(GradedPoly, "mul_monomial", forbidden)
    monkeypatch.setattr(Vec, "mul_monomial", forbidden)
    rep = check_generation(v, z.ideal, points=z.points, reg=reg)
    assert rep.certified and rep.table == expected
    assert genericity_experiment(2, 2, 4, trials=5, seed=0)["failures"] == 0
    assert genericity_experiment(1, 2, 2, trials=5, seed=0)["failures"] == 5


def test_stage_rejects_a_rank_below_one():
    with pytest.raises(CertificateError, match="not positive"):
        resolver.KernelStage(0, 1, 1, 0, ChernVector(0, ChowClass(2, [1])), {})


def _chern_inverse_off(monkeypatch, rank_off=0, coeff=None):
    """Make _chern_inverse return its class with the rank or one Chern
    coefficient moved by one."""
    exact = resolver._chern_inverse

    def off(cv, rank):
        real = exact(cv, rank)
        coeffs = list(real.total.coeffs)
        if coeff is not None:
            coeffs[coeff] += 1
        return ChernVector(real.rank + rank_off,
                           ChowClass(real.total.n, coeffs, real.total.scale))

    monkeypatch.setattr(resolver, "_chern_inverse", off)


def test_stage_rejects_a_chern_rank_off_the_stage_rank(monkeypatch):
    z, pol = three_points()
    _chern_inverse_off(monkeypatch, rank_off=1)
    with pytest.raises(CertificateError, match="Chern rank"):
        build_surface_kernel(z, pol)


@pytest.mark.parametrize("coeff", [1, 2], ids=["c1", "c2"])
def test_surface_stage_rejects_chern_classes_off_the_formula(monkeypatch,
                                                             coeff):
    z, pol = three_points()
    _chern_inverse_off(monkeypatch, coeff=coeff)
    with pytest.raises(CertificateError, match="surface stage Chern"):
        build_surface_kernel(z, pol)


def test_chain_rejects_a_stage_count_off_n_minus_one():
    z, pol = three_points()
    chain = build_chain(z, pol)
    with pytest.raises(CertificateError, match="chain length"):
        resolver.ResolutionChain(z, pol, chain.stages * 2,
                                 chain.terminal_chern, {}, "numeric", 0)


def test_chain_rejects_h0_below_the_certified_degree(monkeypatch):
    z, d = builtin_subscheme("line-p3")
    exact = resolver._build_kernel_stage

    def uncertified(*args, **kwargs):
        stage = exact(*args, **kwargs)
        stage.flags["generation_certified_at"] = None
        return stage

    monkeypatch.setattr(resolver, "_build_kernel_stage", uncertified)
    with pytest.raises(CertificateError, match="certified generation degree"):
        build_chain(z, Polarization(3, d))


@pytest.mark.parametrize("rank_off,degree_off", [(1, 0), (0, 1)],
                         ids=["rank", "degree"])
def test_chain_rejects_butler_invariants_off_the_second_stage(
        monkeypatch, rank_off, degree_off):
    z, d = builtin_subscheme("line-p3")
    exact = resolver.butler_kernel_invariants

    def off(e):
        m = exact(e)
        return SimpleNamespace(rank=m.rank + rank_off,
                               degree=m.degree + degree_off)

    monkeypatch.setattr(resolver, "butler_kernel_invariants", off)
    with pytest.raises(CertificateError, match="Butler"):
        build_chain(z, Polarization(3, d))


def test_stage_rejects_a_piece_basis_off_h0(monkeypatch):
    z, pol = three_points()
    honest = resolver.ideal_piece_basis
    monkeypatch.setattr(resolver, "ideal_piece_basis",
                        lambda ideal, k: honest(ideal, k)[:-1])
    with pytest.raises(CertificateError, match="h0"):
        build_surface_kernel(z, pol)


def test_rank_tests_and_genericity_never_unpack_span_rows(monkeypatch):
    def unpack(self):
        raise RuntimeError("Span.rows was read")

    monkeypatch.setattr(resolver.Span, "rows", property(unpack))
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]]
    for field in (GF(101), QQ):
        vecs = [[field(c) for c in r] for r in rows]
        assert rank_reaches(field, vecs, 2)
        assert not rank_reaches(field, vecs, 3)
        assert rank_at_least(field, vecs, 3) == 2
        assert Matrix(field, vecs).rank() == 2
    rep = genericity_experiment(2, 2, 4, trials=10, seed=0,
                                p=1073741789)
    assert rep["failures"] == 0
    assert genericity_experiment(1, 2, 2, trials=5, seed=0)["failures"] == 5
