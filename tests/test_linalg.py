"""Exact linear algebra: rank, kernel (with its certificates and a sympy
differential test), rank-nullity, determinism, the incremental span and
primitive scaling."""

import random
from fractions import Fraction
from math import gcd

import pytest

from syzkit import linalg
from syzkit.errors import CertificateError, UnsupportedFieldError
from syzkit.fields import GF, QQ
from syzkit.linalg import (CERT_PRIME, Matrix, Span, primitive_integers,
                           random_matrix, rank_at_least, rank_reaches)


def random_int_matrix(nrows, ncols, seed, bound=None):
    """Seeded integer matrix over Q: entries are uniform lifts from [0, p)."""
    p = GF().p if bound is None else bound
    rng = random.Random(seed)
    return Matrix(QQ, [[Fraction(rng.randrange(p)) for _ in range(ncols)]
                       for _ in range(nrows)])


def identity(field, n):
    return Matrix(field, [[field.one if i == j else field.zero for j in range(n)]
                          for i in range(n)])


def zeros(field, nrows, ncols):
    return Matrix(field, [[field.zero] * ncols for _ in range(nrows)])


def transpose(m):
    return Matrix(m.field, [[m.rows[i][j] for i in range(m.nrows)]
                            for j in range(m.ncols)])


def mul_vector(m, vec):
    """The product m * vec over Q."""
    return [sum((a * b for a, b in zip(row, vec)), QQ.zero) for row in m.rows]


def test_identity_rank_and_kernel():
    m = identity(QQ, 2)
    rank, kernel = m.rank_and_kernel()
    assert rank == 2
    assert kernel == []


def test_zero_matrix_kernel():
    m = zeros(QQ, 3, 4)
    rank, kernel = m.rank_and_kernel()
    assert rank == 0
    assert len(kernel) == 4


def test_evaluation_matrix_of_three_coordinate_points():
    # rows: evaluation at (1:0:0), (0:1:0), (0:0:1); columns: the six
    # degree-2 monomials x^2, y^2, z^2, xy, xz, yz
    points = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    monos = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]

    def ev(pt, e):
        return Fraction(pt[0] ** e[0] * pt[1] ** e[1] * pt[2] ** e[2])

    m = Matrix(QQ, [[ev(pt, e) for e in monos] for pt in points])
    rank, kernel = m.rank_and_kernel()
    assert rank == 3
    assert len(kernel) == 3
    # the kernel is spanned by the coefficient vectors of xy, xz, yz
    supports = sorted(frozenset(j for j, c in enumerate(v) if c)
                      for v in kernel)
    assert supports == [frozenset({3}), frozenset({4}), frozenset({5})]


def test_rank_nullity_and_exact_kernel_200_random():
    # the seeded residues of random_matrix over F_p, as integers over Q
    fp = GF()
    rng = random.Random("rank-nullity")
    for trial in range(200):
        nr = rng.randrange(1, 21)
        nc = rng.randrange(1, 21)
        m = Matrix(QQ, [[Fraction(c) for c in row] for row in
                        random_matrix(fp, nr, nc, f"rn:{trial}").rows])
        rank, kernel = m.rank_and_kernel()
        assert rank + len(kernel) == nc
        assert rank <= min(nr, nc)
        for v in kernel:
            assert not any(mul_vector(m, v))


def test_kernel_over_a_prime_field_is_refused():
    # F_p only certifies ranks: the rank stays, a kernel raises
    m = Matrix(GF(7), [[1, 2, 3], [2, 4, 6]])
    assert m.rank() == 1
    with pytest.raises(UnsupportedFieldError):
        m.rank_and_kernel()
    with pytest.raises(UnsupportedFieldError):
        m.kernel()


def _canonical(vec):
    """Primitive integers with a positive leading entry."""
    ints = primitive_integers([Fraction(c) for c in vec])
    return [-c for c in ints] if next(c for c in ints if c) < 0 else ints


def _random_q_matrix(rng):
    """Seeded rational matrix: random shape (1 x n and n x 1 included),
    zero columns, dependent rows, denominators and 10+ digit entries."""
    nr, nc = rng.choice([(1, rng.randrange(1, 8)), (rng.randrange(1, 8), 1),
                         (rng.randrange(1, 8), rng.randrange(1, 8))])
    big = rng.random() < 0.3
    rows = []
    for _ in range(nr):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            k = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
            rows.append([x + k * y for x, y in zip(a, b)])
            continue
        row = []
        for _ in range(nc):
            num = rng.randrange(-10 ** 12, 10 ** 12) if big \
                else rng.randrange(-4, 5)
            row.append(Fraction(num, rng.randrange(1, 7)))
        rows.append(row)
    for j in range(nc):
        if rng.random() < 0.15:
            for row in rows:
                row[j] = Fraction(0)
    return Matrix(QQ, rows)


def test_q_kernel_matches_sympy_nullspace():
    sympy = pytest.importorskip("sympy")
    rng = random.Random("sympy-kernel")
    for _ in range(120):
        m = _random_q_matrix(rng)
        rank, kernel = m.rank_and_kernel()
        ref = sympy.Matrix(m.rows).nullspace()
        assert rank == sympy.Matrix(m.rows).rank()
        assert kernel == [[Fraction(c) for c in _canonical(
            [Fraction(int(x.p), int(x.q)) for x in v])] for v in ref]
        assert kernel == [[Fraction(c) for c in _canonical(v)] for v in kernel]


def test_q_kernel_rescales_at_non_unit_pivots():
    # echelon pivots 2 and 3: back-substitution from the free column z must
    # scale the integer vector by 3, then by 2, to keep every division exact
    m = Matrix(QQ, [[Fraction(2), Fraction(0), Fraction(1)],
                    [Fraction(0), Fraction(3), Fraction(1)]])
    rank, kernel = m.rank_and_kernel()
    assert rank == 2
    assert kernel == [[Fraction(3), Fraction(2), Fraction(-6)]]
    # the leading entry is made positive
    m = Matrix(QQ, [[Fraction(2), Fraction(4), Fraction(0)],
                    [Fraction(0), Fraction(0), Fraction(5)]])
    assert m.kernel() == [[Fraction(2), Fraction(-1), Fraction(0)]]


def test_corrupted_kernel_vector_is_rejected(monkeypatch):
    m = Matrix(QQ, [[Fraction(1), Fraction(2), Fraction(3)],
                    [Fraction(4), Fraction(5), Fraction(6)]])
    assert m.kernel() == [[Fraction(1), Fraction(-2), Fraction(1)]]
    honest = linalg._integer_kernel

    def corrupt(pivots, rows, ncols):
        basis = honest(pivots, rows, ncols)
        basis[0][0] += 1
        return basis

    monkeypatch.setattr(linalg, "_integer_kernel", corrupt)
    with pytest.raises(CertificateError):
        m.rank_and_kernel()
    monkeypatch.setattr(linalg, "_integer_kernel",
                        lambda pivots, rows, ncols: [])
    with pytest.raises(CertificateError):
        m.rank_and_kernel()


def test_fp_rank_never_exceeds_q_rank():
    fp = GF()
    agree = 0
    for trial in range(200):
        rng = random.Random(f"qp:{trial}")
        nr, nc = rng.randrange(1, 13), rng.randrange(1, 13)
        mq = random_int_matrix(nr, nc, f"qp:{trial}:ints")
        mp = Matrix(fp, [[int(c) % fp.p for c in row] for row in mq.rows])
        rq, rp = mq.rank(), mp.rank()
        assert rp <= rq
        if rp == rq:
            agree += 1
    assert agree >= 190  # >= 95% of 200


def test_hilbert_like_matrix_rank_matches_naive_elimination():
    n = 10
    rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    m = Matrix(QQ, rows)

    # naive fraction elimination, no pivot scaling tricks
    work = [row[:] for row in rows]
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, n) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(rank + 1, n):
            f = work[i][col] / work[rank][col]
            work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    assert m.rank() == rank == n


def test_random_matrix_determinism():
    fp = GF(5)
    a = random_matrix(fp, 3, 3, "seed-0")
    b = random_matrix(fp, 3, 3, "seed-0")
    assert a.rows == b.rows
    c = random_matrix(fp, 1, 1, 0)
    assert 0 <= c.rows[0][0] < 5


def test_random_square_matrices_generically_full_rank():
    fp = GF()
    failures = 0
    for seed in range(100):
        m = random_matrix(fp, 30, 30, f"fr:{seed}")
        if m.rank() != 30:
            failures += 1
    assert failures <= 1


def test_random_matrix_needs_prime_field():
    with pytest.raises(UnsupportedFieldError):
        random_matrix(QQ, 2, 2, 0)


def mul(a, b):
    """The matrix product a * b, from mul_vector on the columns of b."""
    cols = [mul_vector(a, col) for col in transpose(b).rows]
    return transpose(Matrix(a.field, cols))


def test_matrix_product_and_transpose():
    a = Matrix(QQ, [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]])
    b = mul(a, a)
    assert b.rows == [[Fraction(1), Fraction(4)], [Fraction(0), Fraction(1)]]
    assert transpose(a).rows == [[Fraction(1), Fraction(0)],
                                  [Fraction(2), Fraction(1)]]


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
def test_span_agrees_with_matrix_rank(field):
    rng = random.Random(7)
    for _ in range(40):
        ncols = rng.randrange(1, 7)
        rows = []
        for _ in range(rng.randrange(1, 9)):
            kind = rng.random()
            if kind < 0.15:
                rows.append([0] * ncols)
            elif kind < 0.3 and rows:
                rows.append(list(rng.choice(rows)))
            elif kind < 0.45 and len(rows) >= 2:
                a, b = rng.sample(rows, 2)
                rows.append([x + 2 * y for x, y in zip(a, b)])
            else:
                rows.append([rng.randrange(-3, 4) for _ in range(ncols)])
        rows = [[field(c) for c in r] for r in rows]
        span = Span(field)
        for i, r in enumerate(rows):
            before = Matrix(field, rows[:i]).rank() if i else 0
            grew = span.add(r)
            assert grew == (Matrix(field, rows[:i + 1]).rank() > before)
        assert len(span.rows) == Matrix(field, rows).rank()


def test_span_mod_p_reduces_raw_integers():
    span = Span(GF(7))
    assert span.add([8, 14, -1])
    assert span.rows == [[1, 0, 6]]
    assert not span.add([3, 7, 4])
    assert span.add([0, 9, 0])
    assert span.pivots == [0, 1]


def test_primitive_integers():
    vec = [Fraction(-2, 3), Fraction(4, 9), 0, Fraction(-10, 3)]
    ints = primitive_integers(vec)
    assert ints == [-3, 2, 0, -15]
    assert gcd(*ints) == 1
    # proportional to the input, sign of every entry unchanged
    assert all(Fraction(a) * vec[0] == b * ints[0] for a, b in zip(ints, vec))
    assert primitive_integers([Fraction(0)] * 3) == [0, 0, 0]
    assert primitive_integers([4, 6, -8]) == [2, 3, -4]


# -- forward-only and certified ranks -----------------------------------------


def _deficient_rows(rng, nr, nc, field):
    """nr rows of width nc over the field, of rank at most about nr/2: the
    later rows are combinations of the earlier ones."""
    base = [[field(rng.randrange(-5, 6)) for _ in range(nc)]
            for _ in range(max(1, nr // 2))]
    rows = list(base)
    while len(rows) < nr:
        a, b = rng.sample(range(len(base)), 2) if len(base) > 1 else (0, 0)
        s, t = field(rng.randrange(-3, 4)), field(rng.randrange(-3, 4))
        rows.append([field(s * x + t * y) for x, y in zip(base[a], base[b])])
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_certified_and_forward_ranks_match_the_echelon_ranks(field):
    rng = random.Random(f"ranks:{field!r}")
    for trial in range(120):
        nr, nc = rng.randrange(1, 11), rng.randrange(1, 11)
        if trial % 2:
            rows = _deficient_rows(rng, nr, nc, field)
        else:
            rows = [[field(rng.randrange(-4, 5)) for _ in range(nc)]
                    for _ in range(nr)]
        m = Matrix(field, rows)
        # sympy over Q, the dense reduced echelon form over F_p
        if field == QQ:
            exact = pytest.importorskip("sympy").Matrix(rows).rank()
        else:
            exact = _dense_rank(field.p, rows)
        assert m.rank() == exact
        # any proven upper bound gives the exact rank
        for bound in {exact, min(nr, nc), nr}:
            assert rank_at_least(field, rows, bound) == exact


def test_certified_rank_falls_back_to_the_q_span_on_a_rank_drop_mod_p(
        monkeypatch):
    rows = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(CERT_PRIME)]]
    assert Matrix(GF(CERT_PRIME), [[1, 0], [1, CERT_PRIME]]).rank() == 1
    calls = []
    exact = Matrix.rank

    def spy(self):
        calls.append(self.field)
        return exact(self)

    monkeypatch.setattr(Matrix, "rank", spy)
    assert rank_at_least(QQ, rows, 2) == 2
    assert calls == [QQ]
    # a bound the mod-p rank reaches needs no rank over Q
    calls.clear()
    assert rank_at_least(QQ, [[Fraction(1), Fraction(0)],
                              [Fraction(1), Fraction(3)]], 2) == 2
    assert calls == []


def test_span_over_q_keeps_primitive_integer_rows():
    p = 7
    span = Span(QQ)
    # the greedy pick over Q is {r1, r2}, which differs from the pick mod p
    assert span.add([Fraction(1), Fraction(0)])
    assert span.add([Fraction(1), Fraction(p)])
    assert not span.add([Fraction(0), Fraction(1)])
    assert span.rows == [[1, 0], [0, 1]]
    span = Span(QQ)
    assert span.add([Fraction(2, 3), Fraction(4, 3), Fraction(0)])
    assert span.add([Fraction(3), Fraction(1), Fraction(5, 2)])
    assert not span.add([Fraction(11, 3), Fraction(7, 3), Fraction(5, 2)])
    assert span.rows == [[1, 2, 0], [0, -2, 1]]
    assert span.pivots == [0, 1]
    # a row reduced at a later pivot than its first nonzero entry: the
    # cross-multiplication scales the entries left of the pivot too
    span = Span(QQ)
    rows = [[0, 4, 3, -4], [1, 2, 0, -4], [-2, -1, 1, -2], [-5, -4, 2, 0]]
    assert [span.add([Fraction(c) for c in r]) for r in rows] \
        == [True, True, True, False]


# -- packed F_p rows -----------------------------------------------------------

PRIMES = (2, 3, 7, 32003, 2 ** 31 - 1, 2 ** 61 - 1, 2 ** 127 - 1)


def _raw_rows(rng, p, nr, nc):
    """nr integer rows of width nc, neither reduced mod p nor nonnegative,
    with zero rows, duplicate rows (up to a multiple of p) and combinations
    of earlier rows mixed in."""
    rows = []
    for _ in range(nr):
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * nc)
        elif kind < 0.2 and rows:
            rows.append([c + p * rng.randrange(-2, 3) for c in rng.choice(rows)])
        elif kind < 0.4 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            s, t = rng.randrange(-p, 2 * p), rng.randrange(-p, 2 * p)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        elif kind < 0.5:
            rows.append([rng.choice((0, 0, p - 1, -1)) for _ in range(nc)])
        else:
            rows.append([rng.randrange(-3 * p, 3 * p) for _ in range(nc)])
    return rows


def _dense_echelon(p, rows):
    """(pivots, rows) of the reduced row echelon form mod p, by dense
    Gauss-Jordan elimination on lists of residues: the reference for the
    packed Span."""
    rows = [[c % p for c in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                m = rows[i][c]
                rows[i] = [(a - m * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots, rows[:r]


def _dense_rank(p, rows):
    """The rank from the reduced echelon form mod p."""
    return len(_dense_echelon(p, rows)[0])


@pytest.mark.parametrize("p", PRIMES, ids=str)
def test_packed_span_and_ranks_match_the_dense_echelon(p):
    field = GF(p)
    rng = random.Random(f"packed:{p}")
    shapes = [(rng.randrange(1, 6), rng.randrange(6, 14)) for _ in range(10)]
    shapes += [(rng.randrange(6, 14), rng.randrange(1, 6)) for _ in range(10)]
    shapes += [(k, k) for k in (1, 2, 5, 9, 12)]
    for nr, nc in shapes:
        rows = _raw_rows(rng, p, nr, nc)
        exact = _dense_rank(p, rows)
        span = Span(field)
        grew = [span.add(r) for r in rows]
        assert sum(grew) == len(span.rows) == len(span.pivots) == exact
        for i, (row, piv) in enumerate(zip(span.rows, span.pivots)):
            assert all(0 <= c < p for c in row)
            assert row[piv] == 1 and not any(row[:piv])
            assert all(row[q] == 0 for q in span.pivots[:i])
        # each accepted row raised the rank of the prefix, each rejected one not
        for i, g in enumerate(grew):
            assert g == (_dense_rank(p, rows[:i + 1]) > _dense_rank(p, rows[:i]))
        assert Matrix(field, rows).rank() == exact
        for target in range(nr + 2):
            assert rank_reaches(field, rows, target) == (exact >= target)
        assert rank_at_least(field, rows, min(nr, nc)) == exact


def test_packed_slots_do_not_carry_with_200_stored_rows():
    # every slot gains up to (p-1)^2 per stored row: the worst growth the
    # width bound allows for, with entries and multipliers near p
    p = 2 ** 127 - 1
    nc, stored = 230, 200
    rng = random.Random("slot-stress")
    base = [[rng.choice((p - 1, p - 2, rng.randrange(p))) for _ in range(nc)]
            for _ in range(stored)]
    span = Span(GF(p))
    assert all(span.add(r) for r in base)
    assert len(span.rows) == stored
    for i, (row, piv) in enumerate(zip(span.rows, span.pivots)):
        assert row[piv] == 1 and all(row[q] == 0 for q in span.pivots[:i])
    # combinations of the stored rows reduce to zero, unit vectors off the
    # pivots do not
    for _ in range(20):
        coeffs = [rng.choice((p - 1, rng.randrange(p))) for _ in range(stored)]
        combo = [sum(c * r[j] for c, r in zip(coeffs, base)) for j in range(nc)]
        assert not span.add(combo)
    free = [j for j in range(nc) if j not in set(span.pivots)]
    assert len(free) == nc - stored
    assert span.add([int(j == free[-1]) for j in range(nc)])
    assert len(span.rows) == stored + 1
    # the slot width was fixed for nc columns
    with pytest.raises(ValueError, match="ragged"):
        span.add([1] * (nc + 1))


def test_rank_reaches_stops_as_soon_as_the_answer_is_known(monkeypatch):
    calls = []
    add = Span.add

    def spy(self, vec):
        calls.append(list(vec))
        return add(self, vec)

    monkeypatch.setattr(Span, "add", spy)
    field = GF(7)
    # fewer rows than the target: no row is reduced
    assert not rank_reaches(field, [[1, 0, 0], [0, 1, 0]], 3)
    assert calls == []
    # after three zero rows, two rows left cannot bring the rank to 3
    assert not rank_reaches(field, [[0, 0, 0]] * 5, 3)
    assert len(calls) == 3
    # the target is reached by the third row; the rest are never looked at
    calls.clear()
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]] + [[1, 2, 3]] * 4
    assert rank_reaches(field, rows, 3)
    assert len(calls) == 3
    # over Q too: a zero target holds and too few rows miss, unreduced
    calls.clear()
    assert rank_reaches(QQ, [], 0)
    assert not rank_reaches(QQ, [[Fraction(1), Fraction(1)]], 2)
    assert calls == []


def test_packed_rank_matches_sympy_property():
    pytest.importorskip("sympy")
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from sympy.polys.domains import GF as SymGF
    from sympy.polys.matrices import DomainMatrix

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from(PRIMES), st.integers(1, 7), st.integers(1, 7),
               st.data())
    def check(p, nr, nc, data):
        rows = data.draw(st.lists(
            st.lists(st.integers(-2 * p, 2 * p), min_size=nc, max_size=nc),
            min_size=nr, max_size=nr))
        dom = SymGF(p)
        expected = DomainMatrix([[dom(c % p) for c in r] for r in rows],
                                (nr, nc), dom).rank()
        field = GF(p)
        assert Matrix(field, rows).rank() == expected
        span = Span(field)
        assert sum(span.add(r) for r in rows) == expected
        assert rank_reaches(field, rows, expected)
        assert not rank_reaches(field, rows, expected + 1)

    check()


def test_span_over_q_rejects_ragged_rows():
    span = Span(QQ)
    assert span.add([1, 2, 3])
    with pytest.raises(ValueError, match="ragged"):
        span.add([2, 4])


SLOT_PRIMES = (2, 3, 101, 32003, 1073741789, 2 ** 31 - 1, 2 ** 61 - 1,
               2 ** 127 - 1)


@pytest.mark.parametrize("ncols", (1, 2, 7, 64, 300))
@pytest.mark.parametrize("p", SLOT_PRIMES, ids=str)
def test_slotwise_reduction_matches_per_slot_mod_p(p, ncols):
    # a slot of a reduced row stays below (ncols+1)*p^2 (see Span); the
    # largest value it can reach is below (ncols+1)*(p-1)^2
    w, mask, normalize = linalg._slots(p, ncols)
    top = (ncols + 1) * p * p
    worst = (ncols + 1) * (p - 1) ** 2
    rng = random.Random(f"slots:{p}:{ncols}")
    cases = [[worst] * ncols, [top - 1] * ncols, [p] * ncols, [0] * ncols]
    for _ in range(25):
        cases.append([rng.choice((0, p - 1, p, 2 * p, 3 * p - 1, worst,
                                  top - 1, rng.randrange(p),
                                  rng.randrange(top), rng.randrange(top)))
                      for _ in range(ncols)])
    for slots in cases:
        x = sum(v << j * w for j, v in enumerate(slots))
        y = normalize(x)
        assert y >> ncols * w == 0
        assert [y >> j * w & mask for j in range(ncols)] \
            == [v % p for v in slots]


@pytest.mark.parametrize("p", (2, 3, 257), ids=str)
def test_slotwise_reduction_is_exact_on_every_value_below_the_bound(p):
    # at p = 257 = 2^8 + 1 the Barrett quotient of some slots falls two
    # short, which only the second conditional subtraction corrects
    ncols = 7
    w, mask, normalize = linalg._slots(p, ncols)
    values = list(range((ncols + 1) * p * p))
    for i in range(0, len(values), ncols):
        slots = values[i:i + ncols]
        y = normalize(sum(v << j * w for j, v in enumerate(slots)))
        assert [y >> j * w & mask for j in range(len(slots))] \
            == [v % p for v in slots]


def test_q_rank_tests_give_the_same_answer_on_int_and_fraction_rows_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 6),
               st.data())
    def check(nr, nc, inner, data):
        # a product through an inner dimension caps the rank at inner
        entries = st.integers(-4, 4)
        a = data.draw(st.lists(st.lists(entries, min_size=inner,
                                        max_size=inner),
                               min_size=nr, max_size=nr))
        b = data.draw(st.lists(st.lists(entries, min_size=nc, max_size=nc),
                               min_size=inner, max_size=inner))
        # each row times its own factor: int rows need not be primitive
        factors = data.draw(st.lists(st.integers(1, 12), min_size=nr,
                                     max_size=nr))
        rows = [[k * sum(x * y for x, y in zip(r, col)) for col in zip(*b)]
                if inner else [0] * nc for r, k in zip(a, factors)]
        dens = data.draw(st.lists(st.integers(1, 9), min_size=nr,
                                  max_size=nr))
        fracs = [[Fraction(c, den) for c in r] for r, den in zip(rows, dens)]
        rank = Matrix(QQ, fracs).rank()
        for target in range(nr + 2):
            assert (rank_reaches(QQ, rows, target)
                    == rank_reaches(QQ, fracs, target) == (rank >= target))
        bound = min(nr, nc)
        assert (rank_at_least(QQ, rows, bound)
                == rank_at_least(QQ, fracs, bound) == rank)

    check()


def test_q_rank_tests_do_not_rescale_int_rows(monkeypatch):
    def forbidden(vec):
        raise AssertionError("int row rescaled")

    monkeypatch.setattr(linalg, "primitive_integers", forbidden)
    rows = [[2, 4, 6], [0, 3, 9]]
    assert rank_reaches(QQ, rows, 2)
    assert rank_at_least(QQ, rows, 2) == 2
