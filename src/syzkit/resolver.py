"""Evaluation-kernel stages: seeded generic section spaces with explicit
certificates (generation, restriction injectivity, cohomology bookkeeping),
Whitney and slope arithmetic per stage, the two-stage chain on P^3, and the
genericity/uniformity experiments.

All certificates are exact: generation is a graded-piece comparison that
propagates upward from one certified degree, restriction injectivity is a
rank computation over Q, and every Chern/character identity
is checked in exact rational arithmetic.
"""

import random
from fractions import Fraction
from math import comb, lcm

from .chow import (ChernVector, ChowClass, c_from_ch, ch_from_c,
                   ch_ideal_sheaf, chern_of_twist, exp_class, kclass_chi)
from .curves import (CurveBundleInvariants, butler_kernel_invariants,
                     restriction_bookkeeping)
from .errors import (CertificateError, GenericityError, HypothesisError,
                     InputError, SpecialityError, ThresholdError)
from .fields import DEFAULT_PRIME, GF, QQ
from .groebner import FreeModule, Ideal, PolyMatrix, Vec, ideal_piece_basis
from .linalg import CERT_PRIME, Matrix, Span, rank_at_least, rank_reaches
from .modtools import GradedModulePresentation, certify_locally_free, hoppe_check
from .polyring import (PolyRing, integer_powers, monomial_values,
                       multiple_rows, piece_multiples, terms_value, values_at,
                       vanish_at)
from .schemes import (Polarization, SubschemeData, curve_sections,
                      h0_ideal_twist, h1_ideal_twist, restrict_to_curve)

RETRY_BUDGET = 8
CURVE_TRIES = 40
TWIST_CAP_FACTOR = 10
PRESENTATION_BUDGET = 12


# -- generation certificates --------------------------------------------------


class GenerationReport:
    """Outcome of the graded-piece generation check.

    verdict is "certified" or "false".  Certification logic: once the span
    of V * R_(k-m) equals the full ideal piece at a single degree
    k0 >= reg, multiplying by R_1 propagates the equality to every higher
    degree, so the twisted ideal sheaf is generated by V.
    """

    __slots__ = ("verdict", "max_degree_checked", "certified_at",
                 "first_mismatch", "fiber_witness", "table")

    def __init__(self, verdict, max_degree_checked, certified_at=None,
                 first_mismatch=None, fiber_witness=None, table=None):
        self.verdict = verdict
        self.max_degree_checked = max_degree_checked
        self.certified_at = certified_at
        self.first_mismatch = first_mismatch
        self.fiber_witness = fiber_witness
        self.table = table or []

    @property
    def certified(self):
        return self.verdict == "certified"

    def __repr__(self):
        return (f"GenerationReport({self.verdict}, "
                f"max_checked={self.max_degree_checked})")


def _partials(ring, polys):
    """Per form, per variable, the integer terms {e - unit_i: c * e_i} of
    the partial derivative of the form's int_terms.  The scaling multiplies
    a Jacobian row by a nonzero constant, so no rank changes."""
    return [[{e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
              for e, c in f.int_terms.items() if e[i]}
             for i in range(ring.num_vars)] for f in polys]


def _jacobian_rows(partials, values):
    """The Jacobian rows at a point, one form at a time, from the values of
    the monomials there (monomial_values: exact integers, or residues mod a
    prime)."""
    for form in partials:
        yield [terms_value(terms, values) for terms in form]


def _gradient_rows(ring, polys, point):
    """The Jacobian of the polys at a point, in integers: the polys scaled
    as _partials scales them and the point by integer_powers (a projective
    rescaling, which multiplies a row by a nonzero constant)."""
    powers = integer_powers(point, max(p.degree for p in polys) - 1)
    values = {}
    for t in {p.degree - 1 for p in polys}:
        values.update(monomial_values(ring, powers, t))
    return list(_jacobian_rows(_partials(ring, polys), values))


def check_generation(v_polys, ideal, points=None, reg=None):
    """Does V generate the twisted ideal sheaf?

    Compares dim span(V * R_(k-m)) with dim (I)_k for k from m to
    max(reg + 1, m) + 2 and certifies generation at the first equality
    degree k0 >= reg(I); the equality then propagates upward because
    R_1 * (I)_k = (I)_(k+1) for k >= reg.  A V that this window does not
    certify is "false".  reg is the known regularity of the ideal (by
    default that of its minimal resolution).  Each span dimension is a
    rank_at_least against min(#multiples, dim (I)_k), so a Span over Q runs
    only when the mod-p rank misses that bound.
    points, when given, are the reduced points the ideal vanishes on
    exactly: membership of V is then checked by vanish_at, and a fiberwise
    Jacobian-spanning screen at each point supplies definitive failure
    witnesses.  Each form enters by its int_terms; at each point one table
    of the degree md-1 monomial values mod CERT_PRIME gives the Jacobian
    rows, one form at a time, into a Span that stops
    once it holds n rows.  Rank mod p <= rank over Q, so that proves the
    point is no witness; only a point where it falls short is decided
    exactly, by _gradient_rows and rank_reaches.
    """
    if not v_polys:
        raise InputError("empty section space")
    ring = ideal.ring
    md = v_polys[0].degree
    for v in v_polys:
        if v.degree != md:
            raise InputError("section space must be equigraded")
    if not (vanish_at(v_polys, points) if points
            else all(ideal.contains(v) for v in v_polys)):
        raise InputError("section does not lie in the target ideal")
    if reg is None:
        reg = ideal.regularity()
    t_max = max(reg + 1, md) + 2
    witness = None
    if points:
        n = ring.num_vars - 1
        partials = _partials(ring, v_polys)
        for pt in points:
            values = monomial_values(ring, integer_powers(pt, md - 1), md - 1,
                                     CERT_PRIME)
            span = Span(GF(CERT_PRIME))
            reached = any(span.add(row) and len(span.pivots) >= n
                          for row in _jacobian_rows(partials, values))
            if not (reached or rank_reaches(
                    QQ, _gradient_rows(ring, v_polys, pt), n)):
                witness = [str(c) for c in pt]
                break
    table = []
    certified_at = None
    first_mismatch = None
    for k in range(md, t_max + 1):
        rows = multiple_rows(ring, v_polys, k)
        want = ideal.piece_dim(k)
        got = rank_at_least(QQ, rows, min(len(rows), want))
        table.append((k, got, want))
        if got == want and k >= reg:
            certified_at = k
            break
        if got != want and first_mismatch is None:
            first_mismatch = k
    if witness is not None:
        # a fiberwise failure at a reduced point is a proof of non-generation
        if certified_at is not None:
            raise CertificateError("piece equality contradicts fiber witness",
                                   degree=certified_at, point=witness)
        return GenerationReport("false", t_max, first_mismatch=first_mismatch,
                                fiber_witness=witness, table=table)
    if certified_at is not None:
        return GenerationReport("certified", certified_at,
                                certified_at=certified_at, table=table)
    return GenerationReport("false", t_max, first_mismatch=first_mismatch,
                            table=table)


# -- kernel stages -------------------------------------------------------------


class KernelStage:
    """One evaluation-kernel stage 0 -> K -> V x O -> K_prev(mH) -> 0."""

    def __init__(self, index, m, dim_v, rank, chern, flags, v_basis=None,
                 curve_forms=None, kernel_gens=None, ambient=None,
                 presentation=None, restriction=None, seed=None):
        self.index = index
        self.m = m
        self.dim_v = dim_v
        self.rank = rank
        self.chern = chern
        self.flags = flags
        self.v_basis = v_basis
        self.curve_forms = curve_forms
        self.kernel_gens = kernel_gens
        self.ambient = ambient
        self.presentation = presentation
        self.restriction = restriction
        self.seed = seed
        if rank < 1:
            raise CertificateError("kernel stage rank is not positive",
                                   rank=rank)
        if chern.rank != rank:
            raise CertificateError("Chern rank disagrees with the stage rank",
                                   rank=rank, chern_rank=chern.rank)

    @property
    def slope(self):
        """mu = c1/rank measured against H."""
        c1_l = self.chern.total.coeffs[1]
        return Fraction(c1_l, self.chern.total.scale * self.rank)

    @property
    def slope_l(self):
        """mu measured against L (the units hoppe_check expects)."""
        return Fraction(self.chern.total.coeffs[1], self.rank)

    def report_dict(self):
        return {
            "i": self.index,
            "m": self.m,
            "dimV": self.dim_v,
            "rank": self.rank,
            "chern": self.chern.total.l_ints(),
            "slope": str(self.slope),
            "flags": dict(sorted(self.flags.items())),
        }

    def __repr__(self):
        return (f"KernelStage(i={self.index}, m={self.m}, dimV={self.dim_v}, "
                f"rank={self.rank}, c={self.chern.total.to_str()})")


def _chern_inverse(cv, rank):
    """Whitney inverse: the total Chern class u with c * u = 1."""
    n = cv.total.n
    c = cv.total.coeffs
    u = [Fraction(1)]
    for k in range(1, n + 1):
        u.append(-sum(c[i] * u[k - i] for i in range(1, k + 1)))
    total = ChowClass(n, u, cv.total.scale)
    if not total.is_integral():
        raise CertificateError("Whitney inverse has non-integer classes")
    if total * cv.total != ChowClass.unit(n, cv.total.scale):
        raise CertificateError("Whitney inverse does not invert the class")
    return ChernVector(rank, total)


def _ideal_sheaf_chern(z, d):
    """Exact rank-1 Chern data of I_Z from the quotient Hilbert polynomial."""
    ch = ch_ideal_sheaf(z.n, z.hilbert_polynomial(), scale=d)
    return c_from_ch(ch)


def _draw_sections(rng, basis, dim_v, p):
    """dim_v seeded combinations of the basis with integer lifts from [0,p).
    The sums run in integers, over one common denominator of the basis."""
    h0 = len(basis)
    coeffs = [[rng.randrange(p) for _ in range(h0)] for _ in range(dim_v)]
    if not rank_reaches(GF(p), coeffs, dim_v):
        return None
    den = lcm(*(c.denominator for b in basis for c in b.coeffs.values()))
    nums = [{e: c.numerator * (den // c.denominator) for e, c in b.coeffs.items()}
            for b in basis]
    ring, md = basis[0].ring, basis[0].degree
    out = []
    for row in coeffs:
        acc = {}
        for a, num in zip(row, nums):
            if a:
                for e, c in num.items():
                    acc[e] = acc.get(e, 0) + a * c
        out.append(ring.from_terms({e: Fraction(c, den) for e, c in acc.items()},
                                   degree=md))
    return out


def _draw_curve_forms(rng, z, d, count):
    """count degree-d forms cutting a complete intersection avoiding Z."""
    ring = z.ring
    mons = ring.monomials_of_degree(d)
    for _ in range(CURVE_TRIES):
        forms = []
        for _ in range(count):
            f = ring.zero(d)
            while f.is_zero():
                f = sum((ring.monomial(m, Fraction(rng.randrange(-9, 10)))
                         for m in mons), ring.zero(d))
            forms.append(f)
        # no form vanishes at a point of Z: then the forms meet Z nowhere
        if z.points is not None:
            if not all(all(values_at(forms, pt)) for pt in z.points):
                continue
        elif not z.ideal.sum(forms).is_projectively_empty():
            continue
        # Krull's principal ideal theorem gives dim R/(forms) >= n + 1 -
        # count, so the forms cut a complete intersection iff it is at most
        # that; a dimension mod p that reaches it is a proof, since
        # HF_{R/(forms)} <= HF_{R/(forms mod p)} (Ideal.is_projectively_empty)
        if not Ideal(ring, forms).krull_dim_at_most(ring.num_vars - count):
            continue
        return forms
    raise GenericityError("could not draw a curve avoiding the subscheme",
                          tries=CURVE_TRIES)


def _feasible_twist(z, pol, policy, mm):
    """(ok, h0, target) for the twist thresholds at m = mm."""
    reg = z.regularity()
    d = pol.d
    if mm < 1:
        return False, 0, None
    h0 = h0_ideal_twist(z, mm * d)
    if policy == "full":
        target = h0
        ok = mm * d >= reg + 1 and h0 >= 2
        return ok, h0, target
    try:
        target = curve_sections(pol, pol.n, mm)
    except SpecialityError:
        return False, h0, None
    ok = mm * d >= reg + 1 and h0 >= target and target >= 2
    return ok, h0, target


def _minimal_twist(z, pol, policy):
    reg = z.regularity()
    cap = TWIST_CAP_FACTOR * (reg + 1)
    for mm in range(1, cap + 1):
        ok, _, _ = _feasible_twist(z, pol, policy, mm)
        if ok:
            return mm
    raise ThresholdError("no twist satisfies the thresholds within the cap",
                         cap=cap)


def stage_kernel_generators(ring, v_basis, scan_cap):
    """Generators of ker(V ⊗ R -> R(md)) by degreewise exact nullspaces.

    No Groebner machinery: the degree-t piece of the kernel is the exact
    nullspace of the multiplication matrix, scaled to coprime integers;
    the new generators in degree t are a complement of R_1 * (K)_(t-1),
    picked greedily.  The span bookkeeping runs mod p, and that choice is
    still certified: every row reduces from an integer vector inside the
    exact kernel lattice, so the mod-p span dimension is at most the
    rational piece dimension, and reaching it proves the chosen
    generators span over Q as well (checked per degree, CertificateError
    otherwise).
    The scan covers t = 0..scan_cap.  The kernel is the first syzygy
    module of V, so its generators lie in degrees t <= reg J + 1 - md for
    the ideal J = (V); any scan_cap at or above that bound returns a
    complete, minimal generating set (_build_kernel_stage proves the bound
    it passes).
    Returns (ambient, gens, piece_dims) with piece_dims[t] = dim (K)_t
    for t = 0..scan_cap.
    """
    fp = GF(DEFAULT_PRIME)
    dim_v = len(v_basis)
    md = v_basis[0].degree
    ambient = FreeModule(ring, (0,) * dim_v)
    gens = []
    piece_dims = []
    for t in range(scan_cap + 1):
        tmons = ring.monomials_of_degree(t)
        labels = [(i, mo) for i in range(dim_v) for mo in tmons]
        # not multiple_rows: a kernel vector depends on the scaling of each
        # column, and primitive scaling over Q would change the generators
        cols = [ring.to_vector(v_basis[i].mul_monomial(mo), md + t)
                for i, mo in labels]
        kern = Matrix(QQ, zip(*cols)).kernel()
        piece_dims.append(len(kern))
        basis = ambient.piece_basis(t)
        index = {b: i for i, b in enumerate(basis)}
        span = Span(fp)
        # not multiple_rows: this span checks the exact kernel lattice, and
        # primitive scaling could change which rows are picked mod p
        for w in piece_multiples(ring, gens, t):
            span.add(_integer_coords(w, index, t))
        for vec in kern:
            terms = {}
            for lab, c in zip(labels, vec):
                if c:
                    terms[lab] = c
            w = Vec(ambient, terms, degree=t)
            if span.add(_integer_coords(w, index, t)):
                gens.append(w)
        if len(span.pivots) != len(kern):
            raise CertificateError(
                "mod-p generator span missed the exact kernel piece",
                degree=t, span=len(span.pivots), kernel=len(kern))
    return ambient, gens, piece_dims


def _integer_coords(w, index, t):
    """The coordinates of a kernel-lattice element as integers, for the
    mod-p span; a coordinate off the lattice raises CertificateError."""
    coords = w.coords(index, t)
    if any(c.denominator != 1 for c in coords):
        raise CertificateError("kernel generator has a non-integer coordinate",
                               degree=t)
    return [c.numerator for c in coords]


def _build_kernel_stage(z, pol, m=None, policy="auto", seed=0, mode="numeric",
                        p=None):
    """Shared stage-0 construction on P^2 or P^3."""
    if mode not in ("numeric", "module"):
        raise InputError("mode must be numeric or module", mode=mode)
    if policy not in ("auto", "curve-sections", "full"):
        raise InputError("unknown V-dimension policy", policy=policy)
    if pol.n != z.n:
        raise InputError("polarization ambient disagrees with the subscheme",
                         pol_n=pol.n, z_n=z.n)
    if p is None:
        p = DEFAULT_PRIME
    GF(p)  # a modulus that is not prime fails here, also when nothing is sampled
    ring = z.ring
    d = pol.d
    n = pol.n
    warning = pol.genus_warning
    resolved = policy if policy != "auto" else ("full" if warning
                                                else "curve-sections")
    reg = z.regularity()
    if m is not None and m < 1:
        raise ThresholdError("twist must be at least 1",
                             m=m, minimal_m=_minimal_twist(z, pol, resolved))
    if m is None:
        m = _minimal_twist(z, pol, resolved)
    ok, h0, target = _feasible_twist(z, pol, resolved, m)
    if not ok and not warning:
        raise ThresholdError(
            "twist below the surface thresholds",
            m=m, h0=h0, target=target, regularity=reg,
            minimal_m=_minimal_twist(z, pol, resolved))
    try:
        cs = curve_sections(pol, n, m)
    except SpecialityError:
        cs = None
    dim_v = h0 if resolved == "full" else cs
    if dim_v is None or dim_v < 2 or dim_v > h0:
        raise ThresholdError("section space dimension target is unusable",
                             m=m, h0=h0, target=dim_v)
    basis = ideal_piece_basis(z.ideal, m * d)
    if len(basis) != h0:
        raise CertificateError("ideal piece basis misses h0", degree=m * d,
                               basis=len(basis), h0=h0)

    curve_rng = random.Random(f"curve:{seed}")
    forms = _draw_curve_forms(curve_rng, z, d, n - 1)
    full_space = dim_v == h0
    enforce = resolved == "curve-sections"
    attempts = 0
    last_failure = None
    v_basis = injective = image_dim = gen_report = None
    budget = 1 if full_space else RETRY_BUDGET
    while attempts < budget:
        attempts += 1
        if full_space:
            cand = list(basis)
        else:
            rng = random.Random(f"sections:{seed}:{attempts}")
            cand = _draw_sections(rng, basis, dim_v, p)
            if cand is None:
                last_failure = "coefficient matrix drop"
                continue
        inj, img = restrict_to_curve(z, cand, forms)
        if enforce and not inj:
            last_failure = "restriction not injective"
            continue
        rep = check_generation(cand, z.ideal, points=z.points, reg=reg)
        if not rep.certified:
            last_failure = f"generation {rep.verdict}"
            continue
        v_basis, injective, image_dim, gen_report = cand, inj, img, rep
        break
    if v_basis is None:
        raise GenericityError(
            "no drawn section space passed the stage certificates",
            seed=seed, attempts=attempts, last_failure=last_failure)

    rank = dim_v - 1
    c_iz = _ideal_sheaf_chern(z, d)
    c_twist = chern_of_twist(c_iz, m)
    chern = _chern_inverse(c_twist, rank)
    if n == 2:
        deg_z = z.degree
        md = m * d
        c1, c2 = chern.total.coeffs[1:3]
        if c1 != -md or c2 != md * md - deg_z:
            raise CertificateError(
                "surface stage Chern classes are not c1 = -md, "
                "c2 = md^2 - deg Z", c1=c1, c2=c2, md=md, degree=deg_z)

    flags = {
        "policy": resolved,
        "warning_mode": warning,
        "reg_bound_met": m * d >= reg + 1,
        "h0": h0,
        "curve_sections": cs,
        "v_full_space": full_space,
        "restriction_injective": injective,
        "restriction_image_dim": image_dim,
        "generates": gen_report.verdict,
        "generation_certified_at": gen_report.certified_at,
        "attempts": attempts,
    }
    if n == 2:
        try:
            flags["h1_prev_twist_vanishes"] = \
                h1_ideal_twist(z, (m - 1) * d) == 0
        except InputError:
            flags["h1_prev_twist_vanishes"] = None

    stage = KernelStage(0, m, dim_v, rank, chern, flags,
                        v_basis=v_basis, curve_forms=forms, seed=seed)
    if not warning and cs is not None and dim_v == cs:
        try:
            stage.restriction = restriction_bookkeeping(stage, pol)
            flags["stable_by_restriction"] = \
                stage.restriction["butler"].get("stable_by_butler", False)
            flags["butler_applicable"] = True
        except HypothesisError as exc:
            flags["butler_applicable"] = False
            flags["butler_obstruction"] = str(exc)
    else:
        flags["butler_applicable"] = False

    if mode == "module":
        # Scan cap: V is a basis of one graded piece, so it minimally
        # generates J = (V).  J_k = (I_Z)_k for k >= k0 (the certified
        # degree), so I_Z/J has finite length and vanishes from k0 on, and
        # reg J <= max(reg I_Z, k0).  The kernel is the first syzygy module
        # of V, generated in degrees md + t <= reg J + 1.
        md = m * d
        cap = max(reg, gen_report.certified_at) + 1 - md
        ambient, gens, dims = stage_kernel_generators(ring, v_basis, cap)
        # the generation table holds dim span(V * R_t) for degrees md + t up
        # to the certified degree; beyond it the span is the full ideal piece
        table = gen_report.table
        for t, got in enumerate(dims):
            image = (table[t][1] if t < len(table)
                     else z.ideal.piece_dim(md + t))
            expected = dim_v * comb(t + n, n) - image
            if got != expected:
                raise CertificateError(
                    "kernel piece dimension disagrees with rank-nullity",
                    degree=t, kernel=got, expected=expected)
        stage.ambient = ambient
        stage.kernel_gens = gens
        if dim_v <= PRESENTATION_BUDGET:
            pres = GradedModulePresentation.of_submodule(ambient, gens)
            if pres.relations:
                gmat = PolyMatrix.from_columns(ambient, pres.embedding)
                if not gmat.compose(pres.relation_matrix()).is_zero():
                    raise CertificateError(
                        "generators times syzygies is not zero")
            stage.presentation = pres
            verdict = certify_locally_free(pres)
            flags["locally_free"] = verdict[0]
            flags["locally_free_detail"] = str(verdict[1])
            if verdict[0] == "locally-free" and verdict[1] != rank:
                raise CertificateError(
                    "Fitting rank disagrees with the stage rank",
                    fitting_rank=verdict[1], rank=rank)
        else:
            # syzygy presentations of this many generators exceed desk
            # scale; report the local-freeness certificate as out of budget
            flags["locally_free"] = "inconclusive"
            flags["locally_free_detail"] = (
                f"presentation budget {PRESENTATION_BUDGET} exceeded; "
                f"kernel generators computed degreewise")
    return stage


def build_surface_kernel(z, pol, m=None, policy="auto", seed=0,
                         mode="numeric", p=None):
    """The evaluation-kernel bundle of a generic section space on P^2.

    Auto twist selection takes the minimal m with m*d >= reg+1 and
    h0(I_Z(mdL)) >= h0(C, O_C(mH)); a forced sub-threshold m is an error
    unless the polarization is in the warning regime (g < 1), where the
    thresholds are recorded as flags instead.
    """
    if pol.n != 2 or z.n != 2:
        raise InputError("surface stage requires P^2", n=z.n)
    return _build_kernel_stage(z, pol, m=m, policy=policy, seed=seed,
                               mode=mode, p=p)


def hoppe_stage(stage):
    """Section-vanishing stability check of a module-mode stage kernel."""
    if stage.kernel_gens is None:
        raise InputError("stability check needs a module-mode stage")
    return hoppe_check(stage.ambient, stage.kernel_gens, stage.rank,
                       stage.slope_l)


# -- the chain on P^3 ----------------------------------------------------------


def chain_character_residual(n, d, quotient_hp, stage_data, terminal_chern):
    """ch(I_Z) - [(-1)^(e+1) ch(E) + sum (-1)^i dimV_i ch(O(-M_i H))] where
    M_i is the accumulated twist m_0 + ... + m_i; exactly zero for an
    honest chain."""
    ch_iz = ch_ideal_sheaf(n, quotient_hp, scale=d)
    e = len(stage_data) - 1
    rhs = ch_from_c(terminal_chern) * Fraction((-1) ** (e + 1))
    acc = 0
    for i, (m_i, dim_v) in enumerate(stage_data):
        acc += m_i
        term = exp_class(n, -acc * d, scale=d) * Fraction((-1) ** i * dim_v)
        rhs = rhs + term
    return ch_iz - rhs


class ResolutionChain:
    """The full kernel chain 0 -> E -> V_e x O(-M_e H) -> ... -> I_Z -> 0.
    Construction computes the character residual once and rejects a
    nonzero one."""

    def __init__(self, z, pol, stages, terminal_chern, terminal_flags, mode,
                 seed):
        self.z = z
        self.pol = pol
        self.stages = stages
        self.terminal_chern = terminal_chern
        self.terminal_flags = terminal_flags
        self.mode = mode
        self.seed = seed
        if len(stages) != pol.n - 1:
            raise CertificateError("chain length is not n - 1",
                                   stages=len(stages), n=pol.n)
        self.residual = chain_character_residual(
            pol.n, pol.d, z.hilbert_polynomial(),
            [(s.m, s.dim_v) for s in stages], terminal_chern)
        if not self.residual.is_zero():
            raise CertificateError("character identity failed")

    def report(self):
        res = self.residual
        return {
            "ambient": self.pol.n,
            "d": self.pol.d,
            "subscheme": self.z.name or "custom",
            "degree": self.z.degree,
            "mode": self.mode,
            "seed": self.seed,
            "stages": [s.report_dict() for s in self.stages],
            "terminal": {
                "rank": self.terminal_chern.rank,
                "chern": self.terminal_chern.total.l_ints(),
                "flags": dict(sorted(self.terminal_flags.items())),
            },
            "residual": [str(c) for c in res.coeffs],
            "identity_holds": res.is_zero(),
        }


def _acm_defect_table(z, degrees):
    """HP(k) - HF(R/I)(k) at the listed degrees; all-zero is the exact
    bookkeeping certificate that the intermediate cohomology used by the
    restriction steps vanishes (valid for projectively normal curves)."""
    hp = z.hilbert_polynomial()
    out = {}
    for k in degrees:
        if k < 0:
            out[k] = 0
            continue
        out[k] = int(kclass_chi(hp, k)) - z.quotient_hf(k)
    return out


def build_chain(z, pol, mode="numeric", seed=0, p=None, m_list=None,
                policy="auto"):
    """The length-(n-1) evaluation-kernel chain resolving I_Z on P^n.

    P^2 delegates to build_surface_kernel (single stage).  On P^3 the
    second twist m_1 is the minimal one with h0(X, K_0(m_1 H)) at least
    the Riemann-Roch section count of the restriction to the complete
    intersection curve; dim V_1 is that curve count.  The terminal object
    E is the last kernel untwisted by the accumulated m_0 + m_1.
    """
    n = pol.n
    if z.n != n:
        raise InputError("ambient mismatch", z_n=z.n, pol_n=n)
    if m_list and len(m_list) > n - 1:
        raise InputError(f"--m given {len(m_list)} times; a chain on P^{n} "
                         f"has {n - 1} stage{'s' if n > 2 else ''}",
                         given=len(m_list), stages=n - 1)
    if mode == "module" and n == 3 and z.proj_dim == 0:
        # R/(I_Z + f_1) has finite length once f_1 avoids Z, so f_2 is a
        # zero divisor on it for every draw
        raise HypothesisError(
            "module mode on P^3 needs the curve forms to be a regular "
            "sequence on R/I_Z, which no pair of forms is for a "
            "zero-dimensional Z", degree=z.degree)
    d = pol.d
    m0 = m_list[0] if m_list else None
    stage0 = _build_kernel_stage(z, pol, m=m0, policy=policy, seed=seed,
                                 mode=mode, p=p)
    if n == 2:
        terminal = chern_of_twist(stage0.chern, -stage0.m)
        flags = {"locally_free": stage0.flags.get(
            "locally_free", "assumed-cohomological-dimension")}
        return ResolutionChain(z, pol, [stage0], terminal, flags, mode, seed)

    # P^3: one more kernel stage on top of K_0
    g = pol.genus
    r0 = stage0.rank
    c1_l = int(stage0.chern.total.coeffs[1])
    deg_c = d * d                  # deg_L of the complete intersection curve
    deg0_c = c1_l * deg_c          # deg K_0|_C
    h_dot_c = d ** 3               # (H . C) in point units
    reg = z.regularity()
    cert_at = stage0.flags.get("generation_certified_at")

    def h0_x(m1):
        t = m1 * d
        k = stage0.m * d + t
        if cert_at is None or k < cert_at:
            raise CertificateError(
                "h0 read off a piece below the certified generation degree",
                degree=k, certified_at=cert_at)
        return stage0.dim_v * comb(t + 3, 3) - z.ideal.piece_dim(k)

    def curve_count(m1):
        deg_e = deg0_c + r0 * m1 * h_dot_c
        mu = Fraction(deg_e, r0)
        if mu <= 2 * g:
            return None, deg_e, mu
        return deg_e + r0 * (1 - g), deg_e, mu

    scan = []
    cap = TWIST_CAP_FACTOR * (reg + 1)
    chosen = None
    m1_forced = m_list[1] if m_list and len(m_list) > 1 else None
    candidates = [m1_forced] if m1_forced is not None else range(1, cap + 1)
    for m1 in candidates:
        if m1 < 1:
            raise ThresholdError("second twist must be at least 1", m1=m1)
        h0c, deg_e, mu = curve_count(m1)
        row = {"m": m1, "deg_restricted": deg_e, "mu": str(mu)}
        if h0c is None:
            row["rejected"] = "slope hypothesis"
            scan.append(row)
            continue
        h0x = h0_x(m1)
        row.update({"h0_curve": h0c, "h0_ambient": h0x})
        if h0x >= h0c and h0c > r0:
            chosen = (m1, h0c, deg_e, mu, h0x)
            scan.append(row)
            break
        row["rejected"] = "section count"
        scan.append(row)
    if chosen is None:
        raise ThresholdError("no second twist satisfies the section-count "
                             "inequality", cap=cap, scan=scan)
    m1, dim_v1, deg_e, mu, h0x = chosen

    rank1 = dim_v1 - r0
    c_twisted = chern_of_twist(stage0.chern, m1)
    chern1 = _chern_inverse(c_twisted, rank1)
    e_inv = CurveBundleInvariants(g, r0, deg_e, semistable=True)
    m_e = butler_kernel_invariants(e_inv)
    if m_e.rank != rank1 or m_e.degree != -deg_e:
        raise CertificateError(
            "Butler kernel invariants disagree with the second stage",
            rank=m_e.rank, stage_rank=rank1, degree=m_e.degree,
            stage_degree=-deg_e)
    window = [(stage0.m + m1 + s) * d for s in (-2, -1, 0, 1)]
    defects = _acm_defect_table(z, window)
    flags1 = {
        "twist_scan": scan,
        "h0_ambient": h0x,
        "h1_ambient_vanishes": True,   # exact: certified generation makes
                                       # the evaluation piece map surjective
        "restriction_semistable_assumed": True,
        "butler_margin": str(mu - 2 * g),
        "stable_by_restriction": m_e.stable_by_butler,
        "acm_defects": {str(k): v for k, v in defects.items()},
        "intermediate_cohomology_vanishes": all(v == 0 for v in defects.values()),
    }
    stage1 = KernelStage(1, m1, dim_v1, rank1, chern1, flags1, seed=seed)

    if mode == "module":
        forms = stage0.curve_forms
        q1 = z.ideal.quotient([forms[0]])
        assert_regular = q1.equals(z.ideal)
        step2 = z.ideal.sum([forms[0]])
        q2 = step2.quotient([forms[1]])
        assert_regular2 = q2.equals(step2)
        stage1.flags["regular_sequence"] = bool(assert_regular and
                                                assert_regular2)
        if not stage1.flags["regular_sequence"]:
            raise GenericityError("drawn forms are not a regular sequence",
                                  seed=seed)

    m_total = stage0.m + m1
    terminal = chern_of_twist(chern1, -m_total)
    flags = {"locally_free": "assumed-cohomological-dimension"
             if mode == "numeric" else "inconclusive: presentation budget",
             "untwist": -m_total}
    return ResolutionChain(z, pol, [stage0, stage1], terminal, flags, mode,
                           seed)


# -- experiments ---------------------------------------------------------------


def _x0_block_to_identity(secs, r, p):
    """Row operations mod p on the section rows, whose first r entries are
    the x0 block, bringing that block to [I_r; 0] in place: rows 0..r-1
    start with the unit vectors, the rest with zeros.  The rows change by
    an invertible matrix, so they span what they spanned.  False when the
    x0 block has rank below r."""
    for c in range(r):
        piv = next((j for j in range(c, len(secs)) if secs[j][c]), None)
        if piv is None:
            return False
        secs[c], secs[piv] = secs[piv], secs[c]
        inv = pow(secs[c][c], -1, p)
        head = secs[c] = [x * inv % p for x in secs[c]]
        for j, s in enumerate(secs):
            a = s[c]
            if a and j != c:
                secs[j] = [(x - a * y) % p for x, y in zip(s, head)]
    return True


def _form_multiples(forms, r, count, cols, block):
    """The multiples m*g in R'^r_(d+1), R' = F_p[x1..xn], for each g in
    forms (a section row: entry k*r + i is the x_k coefficient of component
    i; its x0 entries are not read) and each of the count degree-d
    monomials m of R', in that order, each as (column, coefficient) pairs.
    cols[k-1][m] is the position of x_k*m among the degree-(d+1) monomials,
    and component i starts at column i*block."""
    return [[(i * block + col_k[m], g[k * r + i])
             for k, col_k in enumerate(cols, 1) for i in range(r)
             if g[k * r + i]]
            for g in forms for m in range(count)]


def genericity_experiment(r, n, v, trials=100, seed=0, p=None, t_cap=None):
    """Count generation failures of seeded-random v-dimensional section
    subspaces of O(1)^r on P^n over F_p.

    A trial is the r x v matrix A = sum x_k A_k of linear forms whose
    columns are the sections.  They generate iff the submodule they span
    fills the whole degree-t piece of R(1)^r for some t <= t_cap (piece
    equality propagates upward).  With R' = F_p[x1..xn]:
    - If rank A_0 < r the trial fails: a filled degree t puts
      x0^(t+1) e_j in the submodule, and evaluating at the point with
      x0 = 1 and x1 = .. = xn = 0 puts e_j in the column space of A_0.
    - Otherwise column operations, which keep the span of the sections,
      bring A_0 to [I_r | 0], so s_i = x0 e_i + L e_i for i < r, with L an
      r x r matrix of linear forms of R'.  Their leads x0 e_i lie in
      distinct components, so they are a Groebner basis with no S-pairs;
      the standard monomials span R'^r, on which x0 acts as -L.  Degree t
      fills iff the normal forms (-L)^a (m s_i), i >= r, m in R'_(t-a),
      span R'^r_(t+1): one rank_reaches test on (v - r) dim R_t rows of
      r dim R'_(t+1) columns.  The rows of degree t are those of degree
      t - 1 times L and the m s_i with deg m = t.
    A degree with v dim R_t < r dim R_(t+1), which is (v - r) dim R_t <
    r dim R'_(t+1) as dim R_(t+1) = dim R_t + dim R'_(t+1), is skipped
    untested: the rank is at most the number of rows, so it cannot reach
    the number of columns."""
    if p is None:
        p = DEFAULT_PRIME
    fp = GF(p)
    ring = PolyRing(n + 1)
    if t_cap is None:
        t_cap = n + 2
    tested = [t for t in range(t_cap + 1)
              if v * ring.piece_dim(t) >= r * ring.piece_dim(t + 1)]
    levels = tested[-1] + 1 if tested else 0
    dims = [ring.piece_dim(d) - ring.piece_dim(d - 1)  # dim R'_d
            for d in range(levels + 1)]
    rest = PolyRing(n)
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    cols = [[rest.product_columns(e, d) for e in units] for d in range(levels)]
    variables = [e.index(1) for e in ring.monomials_of_degree(1)]
    slot = 2 * p.bit_length() + (r * n).bit_length()
    mask = (1 << slot) - 1
    rng = random.Random(f"genericity:{seed}")
    failures = 0
    for _ in range(trials):
        secs = []
        for _ in range(v):
            s = [0] * (r * (n + 1))
            for i in range(r):
                for k in variables:
                    s[k * r + i] = rng.randrange(p)
            secs.append(s)
        if not _x0_block_to_identity(secs, r, p):
            failures += 1
            continue
        rows = []
        for t in range(levels):
            block = dims[t + 1]
            width = r * block
            if rows:
                # L on R'^r_t, one packed int per basis image (a slot sums at
                # most r*n products below p^2): L^a rather than (-L)^a
                # changes a row by the sign (-1)^a only
                step = [sum(c << q * slot for q, c in pairs)
                        for pairs in _form_multiples(secs[:r], r, dims[t],
                                                     cols[t], block)]
                rows = [[(x >> j & mask) % p
                         for j in range(0, width * slot, slot)]
                        for x in (sum(a * b for a, b in zip(f, step) if a)
                                  for f in rows)]
            for pairs in _form_multiples(secs[r:], r, dims[t], cols[t], block):
                row = [0] * width
                for q, c in pairs:
                    row[q] = c
                rows.append(row)
            if t in tested and rank_reaches(fp, rows, width):
                break
        else:
            failures += 1
    return {
        "r": r, "n": n, "v": v, "p": p, "trials": trials, "seed": seed,
        "failures": failures,
        "hypothesis_met": v >= r + n,
        "failure_probability_bound": str(Fraction(trials, p)),
    }


def uniformity_experiment(d, m, num_points=10, seed=0, p=None):
    """build_surface_kernel at num_points seeded single points with the
    same (d, m); the numeric invariants must coincide point-for-point.
    A uniform threshold failure re-raises; a mixed outcome would be a bug
    and raises CertificateError, as do differing invariants."""
    ring = PolyRing(3)
    pol = Polarization(2, d)
    rng = random.Random(f"uniformity:{seed}")
    pts = []
    seen = set()
    while len(pts) < num_points:
        pt = tuple(Fraction(rng.randrange(-9, 10)) for _ in range(3))
        if all(c == 0 for c in pt):
            continue
        lead = next(c for c in pt if c != 0)
        normal = tuple(c / lead for c in pt)
        if normal in seen:
            continue
        seen.add(normal)
        pts.append(pt)
    invariants = []
    threshold_errors = []
    for i, pt in enumerate(pts):
        z = SubschemeData.from_points(ring, [pt])
        try:
            stage = build_surface_kernel(z, pol, m=m, seed=f"{seed}:{i}", p=p)
        except ThresholdError as exc:
            threshold_errors.append(exc)
            continue
        invariants.append((stage.dim_v, stage.rank,
                           tuple(stage.chern.total.l_ints())))
    if threshold_errors:
        if len(threshold_errors) != len(pts):
            raise CertificateError(
                "threshold failure was not uniform across the sample",
                failed=len(threshold_errors), points=len(pts))
        first = threshold_errors[0]
        raise ThresholdError("below threshold uniformly across the sample",
                             points=num_points, **first.details)
    if len(set(invariants)) != 1:
        raise CertificateError("stage invariants differ across points",
                               distinct=len(set(invariants)))
    dim_v, rank, chern = invariants[0]
    return {
        "d": d, "m": m, "points": num_points, "seed": seed,
        "dimV": dim_v, "rank": rank, "chern": list(chern),
        "identical": True,
    }
