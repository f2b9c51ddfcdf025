"""Graded module tooling on top of the Groebner layer: presentations,
duals and double duals, torsion splitting, exact local-freeness
certification through Fitting ideals, the wedge-power section test for
stability, and filtration descriptors with K-class bookkeeping.

A module is carried as a presentation M = coker(A: F1 -> F0); when M was
built as a kernel inside an ambient free module the embedding generators
are kept alongside for section counts.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

from .chow import KClass
from .errors import CertificateError, InputError
from .fields import GF, QQ
from .groebner import (FreeModule, Ideal, PolyMatrix, Submodule, Vec,
                       minimal_generators, syzygies)
from .linalg import Matrix

MINOR_BUDGET = 3000
WEDGE_BUDGET = 80
AMBIENT_BUDGET = 220


class GradedModulePresentation:
    """M = coker(relations: F1 -> F0); gen_shifts are the degrees of the
    chosen generators (shifts of F0)."""

    def __init__(self, ring, gen_shifts, relations, ambient=None, embedding=None):
        self.ring = ring
        self.gen_shifts = tuple(gen_shifts)
        self.free = FreeModule(ring, self.gen_shifts)
        self.relations = [r for r in relations if not r.is_zero()]
        for r in self.relations:
            if r.free != self.free:
                raise InputError("relation lives in the wrong free module")
        self.ambient = ambient
        self.embedding = embedding
        self._rel_sub = None

    @classmethod
    def of_submodule(cls, free, gens):
        """Present the submodule generated by gens: minimal generators,
        relations their minimal syzygies, embedding retained."""
        mgens = minimal_generators(gens)
        rels = minimal_generators(syzygies(mgens)) if mgens else []
        return cls(free.ring, tuple(v.degree for v in mgens), rels,
                   ambient=free, embedding=mgens)

    @property
    def num_gens(self):
        return len(self.gen_shifts)

    def relation_matrix(self):
        return PolyMatrix.from_columns(self.free, self.relations)

    def _relation_sub(self):
        if self._rel_sub is None:
            self._rel_sub = Submodule(self.free, self.relations)
        return self._rel_sub

    def piece_dim(self, d):
        """dim M_d, a coefficient of the Hilbert series of F0/in(im A)."""
        return self._relation_sub().quotient_piece_dim(d)

    def is_zero_module(self):
        """M = 0 iff its Hilbert series, hence its numerator, is 0."""
        return not self._relation_sub().numerator()

    def hilbert_polynomial(self):
        """The Hilbert polynomial in the binomial basis (series_polynomial)."""
        return self._relation_sub().hilbert_polynomial()

    def kclass(self):
        return KClass(self.ring.num_vars - 1, self.hilbert_polynomial())

    def generic_rank(self):
        """Leading binomial coefficient of the Hilbert polynomial."""
        return self.hilbert_polynomial()[self.ring.num_vars - 1]

    def twist(self, t):
        """M(t): shift all generator and relation degrees by -t."""
        shifts = tuple(s - t for s in self.gen_shifts)
        free = FreeModule(self.ring, shifts)
        rels = [Vec(free, dict(r.terms)) for r in self.relations]
        return GradedModulePresentation(self.ring, shifts, rels)

    def __repr__(self):
        return (f"ModulePresentation(gens={self.num_gens}, "
                f"rels={len(self.relations)})")


def kernel_of_matrix(pm):
    """Generators of ker(pm) as a submodule of the free module on the
    columns (shifts = col_shifts)."""
    cols = pm.columns()
    free = FreeModule(pm.ring, pm.col_shifts)
    nonzero = [(j, c) for j, c in enumerate(cols) if not c.is_zero()]
    if not nonzero:
        return [Vec(free, {(j, (0,) * pm.ring.num_vars): QQ.one})
                for j in range(len(cols))]
    syz = syzygies([c for _, c in nonzero])
    out = []
    for s in syz:
        terms = {}
        for (comp, e), c in s.terms.items():
            terms[(nonzero[comp][0], e)] = c
        out.append(Vec(free, terms))
    for j, c in enumerate(cols):
        if c.is_zero():
            out.append(Vec(free, {(j, (0,) * pm.ring.num_vars): QQ.one}))
    return minimal_generators(out)


def dual_generators(presentation):
    """Generators of M^* = Hom(M, R) as vectors in the dual of F0:
    the kernel of the transposed relation matrix."""
    if not presentation.relations:
        dual_free = FreeModule(presentation.ring,
                               tuple(-s for s in presentation.gen_shifts))
        nv = presentation.ring.num_vars
        return [Vec(dual_free, {(i, (0,) * nv): QQ.one})
                for i in range(dual_free.rank)]
    return kernel_of_matrix(presentation.relation_matrix().transpose())


def _pairing_matrix(presentation, duals):
    """Matrix of the evaluation map F0 -> G sending x to (lam_k(x))_k."""
    ring = presentation.ring
    rows = []
    row_shifts = []
    for lam in duals:
        row = [lam.component(i) for i in range(presentation.free.rank)]
        rows.append(row)
        row_shifts.append(-lam.degree)
    return PolyMatrix(ring, tuple(row_shifts), presentation.gen_shifts, rows)


def torsion_split(presentation):
    """(torsion part, torsion-free part) of M = coker(A).

    T(M) is the kernel of the evaluation pairing against a generating set
    of M^*: over a domain this equals the kernel of M -> M^** exactly, so
    no nonzerodivisor search is needed.  The split is certified by
    re-splitting the quotient (zero torsion) in the calling tests."""
    ring = presentation.ring
    duals = dual_generators(presentation)
    if not duals:
        # M^* = 0: the whole module is torsion
        t = GradedModulePresentation(ring, presentation.gen_shifts,
                                     presentation.relations)
        q = GradedModulePresentation(ring, (), [])
        return t, q
    pairing = _pairing_matrix(presentation, duals)
    ker = kernel_of_matrix(pairing)
    # elements of ker already inside im(A) contribute nothing
    rel_sub = Submodule(presentation.free, presentation.relations)
    t_gens = [v for v in ker if not (presentation.relations and rel_sub.contains(v))]
    t_gens = minimal_generators(t_gens)
    if not t_gens:
        torsion = GradedModulePresentation(ring, (), [])
    else:
        # relations of T = coefficients r with sum r_i t_i in im(A)
        combined = t_gens + presentation.relations
        syz = syzygies(combined)
        t_free = FreeModule(ring, tuple(v.degree for v in t_gens))
        t_rels = []
        for s in syz:
            terms = {(c, e): v for (c, e), v in s.terms.items() if c < len(t_gens)}
            vec = Vec(t_free, terms)
            if not vec.is_zero():
                t_rels.append(vec)
        torsion = GradedModulePresentation(
            ring, t_free.shifts, minimal_generators(t_rels))
    quotient = GradedModulePresentation(
        ring, presentation.gen_shifts,
        minimal_generators(presentation.relations + t_gens))
    return torsion, quotient


# -- local freeness ----------------------------------------------------------


def poly_det(entries):
    """Exact determinant of a square matrix of GradedPoly (Laplace)."""
    m = len(entries)
    if m == 0:
        raise InputError("empty determinant")
    if m == 1:
        return entries[0][0]
    ring = entries[0][0].ring
    acc = ring.zero()
    sign = 1
    for j in range(m):
        piv = entries[0][j]
        if not piv.is_zero():
            minor = [[row[k] for k in range(m) if k != j] for row in entries[1:]]
            term = piv * poly_det(minor)
            acc = acc + (term if sign > 0 else -term)
        sign = -sign
    return acc


def _minor_entries(pm, rows, cols):
    return [[pm.entries[i][j] for j in cols] for i in rows]


def certify_locally_free(presentation):
    """Exact local-freeness verdict for the sheaf of M = coker(A).

    verdict: ("locally-free", rank) | ("not-locally-free", locus_dim)
             | ("inconclusive", reason)
    Certification: a nonzero rho-minor plus identical vanishing of all
    (rho+1)-minors pins the generic rank rho of A; the sheaf is locally
    free iff the rho-minor ideal has empty projective vanishing locus.
    Emptiness is read off the initial ideal, with no saturation: for a
    homogeneous ideal, sat(I) = R exactly when in(I) contains a pure power
    of every variable."""
    ring = presentation.ring
    a = presentation.relation_matrix()
    if not presentation.relations:
        return ("locally-free", presentation.num_gens)
    nr, nc = a.nrows, a.ncols
    rng = random.Random(0)
    fp = GF()
    pt = tuple(rng.randrange(1, fp.p) for _ in range(ring.num_vars))
    rho = Matrix(fp, [[fp(p.evaluate(pt)) for p in row]
                      for row in a.entries]).rank()
    max_rho = min(nr, nc)
    while rho <= max_rho:
        if comb(nr, rho) * comb(nc, rho) > MINOR_BUDGET:
            return ("inconclusive",
                    f"minor count exceeds budget {MINOR_BUDGET}")
        if rho < max_rho and comb(nr, rho + 1) * comb(nc, rho + 1) > MINOR_BUDGET:
            return ("inconclusive",
                    f"minor count exceeds budget {MINOR_BUDGET}")
        # all (rho+1)-minors must vanish identically
        bigger_all_zero = True
        if rho < max_rho:
            for rows in combinations(range(nr), rho + 1):
                for cols in combinations(range(nc), rho + 1):
                    if not poly_det(_minor_entries(a, rows, cols)).is_zero():
                        bigger_all_zero = False
                        break
                if not bigger_all_zero:
                    break
        if not bigger_all_zero:
            rho += 1
            continue
        minors = []
        witness = False
        if rho == 0:
            witness = True  # zero matrix: rank 0
        for rows in combinations(range(nr), rho):
            for cols in combinations(range(nc), rho):
                d = poly_det(_minor_entries(a, rows, cols))
                if not d.is_zero():
                    witness = True
                    minors.append(d)
        if not witness:
            return ("inconclusive", "no nonzero minor found at screened rank")
        rank_m = presentation.num_gens - rho
        if rho == 0:
            return ("locally-free", rank_m)
        fitting = Ideal(ring, minors)
        if fitting.is_projectively_empty():
            return ("locally-free", rank_m)
        locus_dim = fitting.krull_dim_quotient() - 1
        return ("not-locally-free", locus_dim)
    return ("inconclusive", "rank screen exceeded matrix size")


# -- wedge powers and the section-vanishing stability test --------------------


def wedge_submodule_gens(free, gens, q):
    """Wedges of q-tuples of gens inside Lambda^q(free): coordinates are
    q x q polynomial determinants indexed by row subsets."""
    ring = free.ring
    subsets = list(combinations(range(free.rank), q))
    shift_map = {s: sum(free.shifts[i] for i in s) for s in subsets}
    wfree = FreeModule(ring, tuple(shift_map[s] for s in subsets))
    out = []
    for pick in combinations(range(len(gens)), q):
        chosen = [gens[p] for p in pick]
        cols = [[v.component(i) for v in chosen] for i in range(free.rank)]
        terms = {}
        for si, s in enumerate(subsets):
            d = poly_det([cols[i] for i in s])
            for e, c in d.coeffs.items():
                terms[(si, e)] = c
        vec = Vec(wfree, terms)
        if not vec.is_zero():
            out.append(vec)
    return wfree, out


def section_dim_double_dual(free, gens, t):
    """dim H^0((W~)^{vv}(t)) for the submodule W spanned by gens:
    W^** is the kernel of the transposed relation matrix of W^*, and its
    degree-t piece is an exact linear-algebra kernel."""
    pres = GradedModulePresentation.of_submodule(free, gens)
    duals = dual_generators(pres)
    if not duals:
        return 0
    dual_free = duals[0].free
    dual_pres = GradedModulePresentation.of_submodule(dual_free, duals)
    b = dual_pres.relation_matrix()
    if not dual_pres.relations:
        # W^* free: W^** free on the dual-dual basis
        return FreeModule(free.ring, tuple(-s for s in dual_pres.gen_shifts)).piece_dim(t)
    bt = b.transpose()
    return _matrix_kernel_piece_dim(bt, t)


def _matrix_kernel_piece_dim(pm, t):
    """dim of ker(pm)_t by exact rank-nullity on graded pieces."""
    ring = pm.ring
    dom = FreeModule(ring, pm.col_shifts)
    cod = FreeModule(ring, pm.row_shifts)
    dom_basis = dom.piece_basis(t)
    if not dom_basis:
        return 0
    cod_basis = cod.piece_basis(t)
    cod_index = {b: i for i, b in enumerate(cod_basis)}
    rows = []
    for (j, e) in dom_basis:
        out = [QQ.zero] * len(cod_basis)
        for i in range(pm.nrows):
            p = pm.entries[i][j]
            if p.is_zero():
                continue
            for pe, pc in p.coeffs.items():
                key = (i, tuple(a + b for a, b in zip(pe, e)))
                out[cod_index[key]] += pc
        rows.append(out)
    if not cod_basis:
        return len(dom_basis)
    mat = Matrix(QQ, rows)
    return len(dom_basis) - mat.rank()


def hoppe_check(free, gens, rank, slope):
    """Section-vanishing stability test for the sheaf of the submodule
    generated by gens (assumed locally free of the given rank; slope is
    c1/rank in L units, a Fraction).

    For each 1 <= q < rank the normalizing twist t = -ceil(q*slope) puts
    the slope of (Lambda^q)(t) in (-1, 0]; vanishing of all those section
    spaces certifies stability.  Returns ("stable-certified", detail) or
    ("inconclusive", detail); instability is never claimed."""
    if rank == 1:
        return ("stable-certified", {"reason": "rank 1: line bundle"})
    qs = range(1, rank)
    # certification needs every q, so any out-of-budget exterior power makes
    # the verdict inconclusive; scan budgets before doing any real work
    for q in qs:
        ambient = comb(free.rank, q)
        wedges = comb(len(gens), q)
        if ambient > AMBIENT_BUDGET or wedges > WEDGE_BUDGET:
            return ("inconclusive", {
                "q": q, "reason": "wedge budget exceeded",
                "ambient_rank": ambient, "wedge_count": wedges})
    details = []
    for q in qs:
        mu_q = Fraction(slope) * q
        t = -_ceil_fraction(mu_q)
        wfree, wgens = wedge_submodule_gens(free, gens, q)
        if not wgens:
            return ("inconclusive", {"q": q, "reason": "wedge power vanished"})
        h0 = section_dim_double_dual(wfree, wgens, t)
        details.append({"q": q, "twist": t, "h0": h0})
        if h0 != 0:
            return ("inconclusive", {
                "q": q, "twist": t, "h0": h0,
                "reason": "normalized exterior power has sections"})
    return ("stable-certified", {"checks": details})


def _ceil_fraction(x):
    x = Fraction(x)
    return -((-x.numerator) // x.denominator)


# -- filtration bookkeeping ---------------------------------------------------


def filtration_report(presentation):
    """Ordered quotient descriptors of the torsion filtration followed by
    the generic-section free part of the torsion-free piece.  K-class
    additivity across the filtration is verified exactly."""
    ring = presentation.ring
    n = ring.num_vars - 1
    total = presentation.kclass()
    torsion, quotient = torsion_split(presentation)
    report = []
    acc = KClass(n, [0] * (n + 1))
    if not torsion.is_zero_module():
        tk = torsion.kclass()
        hp = torsion.hilbert_polynomial()
        top = max((j for j, a in enumerate(hp) if a), default=0)
        report.append({"kind": "torsion", "kclass": tk.coeffs,
                       "support_dim": top if any(hp) else None})
        acc = acc + tk
    if not quotient.is_zero_module():
        rank = quotient.generic_rank()
        if rank > 0:
            m = max(quotient.gen_shifts)
            free_part = KClass.of_line_bundle(n, -m)
            fk = KClass(n, [rank * c for c in free_part.coeffs])
            report.append({"kind": "free", "rank": rank, "twist": -m,
                           "kclass": fk.coeffs})
            rest = quotient.kclass() - fk
            acc = acc + fk
            if any(rest.coeffs):
                hp = rest.coeffs
                top = max((j for j, a in enumerate(hp) if a), default=0)
                if top >= n:
                    raise CertificateError("residual quotient is not torsion",
                                           support_dim=top, n=n)
                report.append({"kind": "torsion-quotient", "kclass": rest.coeffs,
                               "support_dim": top})
                acc = acc + rest
        else:
            qk = quotient.kclass()
            if any(qk.coeffs):
                report.append({"kind": "torsion-quotient", "kclass": qk.coeffs,
                               "support_dim": None})
                acc = acc + qk
    if acc != total:
        raise CertificateError(
            "K-class additivity failed across the filtration",
            total=total.coeffs, summed=acc.coeffs)
    return report
