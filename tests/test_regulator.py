import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import char_referee
from dihedral_parity import regulator
from dihedral_parity.characters import THETA, DihedralContext
from dihedral_parity.lattice import InvalidGroupError
from dihedral_parity.regulator import (DegeneratePairingError,
                                       InvalidRepresentationError, RationalRep,
                                       SquareClass, direct_sum, faithful_rep,
                                       invariant_pairing, regulator_constant,
                                       sign_rep, t_theta_member, trivial_rep)
from dihedral_parity.regulator import _det, _gram, _matmul, _rotation_sum


# --- representations -------------------------------------------------------

def image(rep, g):
    """rho(s^i t^e) for g = (i, e), from the kept powers of s and t, with
    the product by the triple loop."""
    i, e = g
    d = rep.dimension
    m = rep._powers[i % rep.p]
    return loop_product(m, rep.t, d, d) if e else m


def group_images(rep):
    """rho(g) for the 2p elements g of D_2p: the rotations s^i, then the
    reflections s^i t."""
    return [image(rep, (i, e)) for e in (0, 1) for i in range(rep.p)]


def test_rep_relation_validation():
    with pytest.raises(InvalidRepresentationError):
        RationalRep(5, ((-1,),), ((1,),))  # s^5 = -1
    with pytest.raises(InvalidRepresentationError):
        RationalRep(5, ((1,),), ((2,),))  # t^2 = 4
    good = faithful_rep(5)
    ident = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    with pytest.raises(InvalidRepresentationError):
        RationalRep(5, good.s, ident)  # t s t = s, not s^-1
    with pytest.raises(InvalidRepresentationError):
        RationalRep(5, ((1, 0), (0, 1)), ((1,),))  # size mismatch


@pytest.mark.parametrize("p", [-3, 0, 1, True, 9])
def test_rep_rejects_a_p_that_is_not_an_odd_prime(p):
    # the 1 x 1 identity satisfies every relation, so only p can be wrong
    with pytest.raises(InvalidGroupError, match="p must be an odd prime"):
        RationalRep(p, ((1,),), ((1,),))


@pytest.mark.parametrize("p", [1, 0, -3, True, 2, 9])
def test_faithful_rep_rejects_a_p_that_is_not_an_odd_prime(p):
    with pytest.raises(InvalidGroupError, match=f"^p must be an odd prime, got {p}$"):
        faithful_rep(p)


def test_faithful_rep_shape():
    for p in (3, 5, 7):
        rep = faithful_rep(p)
        assert rep.dimension == p - 1
        assert len(rep._powers) == p
        assert len(set(group_images(rep))) == 2 * p  # faithful


def test_direct_sum():
    a = direct_sum(trivial_rep(5), sign_rep(5))
    assert a.dimension == 2
    with pytest.raises(InvalidRepresentationError):
        direct_sum(trivial_rep(5), trivial_rep(7))
    with pytest.raises(ValueError):
        direct_sum()


def block_diagonal(mats):
    """The block-diagonal matrix of square blocks, entry by entry."""
    n = sum(len(m) for m in mats)
    out = [[0] * n for _ in range(n)]
    off = 0
    for m in mats:
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(m)
    return out


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_direct_sum_matches_the_validating_constructor(p):
    parts = [trivial_rep(p), sign_rep(p), faithful_rep(p)]
    for summands in (parts, parts[::-1], parts[1:], [parts[2], parts[2]], parts[:1],
                     [direct_sum(*parts), parts[1]]):
        built = direct_sum(*summands)
        checked = RationalRep(p, block_diagonal([r.s for r in summands]),
                              block_diagonal([r.t for r in summands]))
        for name in RationalRep.__slots__:
            assert getattr(built, name) == getattr(checked, name), name
        assert all(type(x) is int for m in built._powers for row in m for x in row)


# --- pairings --------------------------------------------------------------

def _symmetric(d):
    return _matrix(d, d).map(lambda a: tuple(tuple(x + y for x, y in zip(row, col))
                                             for row, col in zip(a, zip(*a))))


@settings(max_examples=30, deadline=None)
@given(st.data())
@pytest.mark.parametrize("p", range(1, 14, 2))
def test_rotation_sum_by_doubling_matches_the_term_by_term_sum(p, data):
    # the doubling steps are identities for the powers of any matrix s, so
    # s need not have order p here
    d = data.draw(st.integers(1, 4))
    S = data.draw(_symmetric(d))
    s = data.draw(_matrix(d, d))
    powers = [tuple(tuple(int(i == j) for j in range(d)) for i in range(d))]
    for _ in range(p - 1):
        powers.append(loop_product(powers[-1], s, d, d))
    want = [[0] * d for _ in range(d)]
    for m in powers:
        term = loop_product(loop_product(_transpose(m, d, d), S, d, d), m, d, d)
        want = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(want, term)]
    assert _rotation_sum(S, powers) == tuple(map(tuple, want))


def test_pairing_is_symmetric_invariant_deterministic():
    rep = faithful_rep(5)
    B = invariant_pairing(rep, seed=3)
    assert B == invariant_pairing(rep, seed=3)
    assert B == tuple(zip(*B))
    for m in group_images(rep):
        mt = tuple(zip(*m))
        lhs = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*B))
                    for row in mt)
        lhs = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*m))
                    for row in lhs)
        assert lhs == B


def test_pairing_redraws_past_singular_seed():
    # seed 23 first draws 0 for a 1-dim rep; the stream must recover
    B = invariant_pairing(trivial_rep(5), seed=23)
    assert B[0][0] != 0


def test_pairing_singular_on_a_fixed_space_rejected(monkeypatch):
    # nondegenerate on the whole space, but it pairs the trivial line only
    # with the sign line, so it vanishes on the vectors fixed by D2
    rep = direct_sum(trivial_rep(5), sign_rep(5), faithful_rep(5))
    hyperbolic = ((0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
                  (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    monkeypatch.setattr(regulator, "_pairing_and_det",
                        lambda rep, seed: (hyperbolic, _det(hyperbolic)))
    with pytest.raises(DegeneratePairingError, match="fixed by D2"):
        regulator_constant(rep)


# --- the constant ----------------------------------------------------------

@pytest.mark.parametrize("p", [5, 7])
def test_constant_on_one_dimensionals_is_exact(p):
    # the pairing scalar cancels, so these are equalities, not just classes
    for seed in range(6):
        assert regulator_constant(trivial_rep(p), seed=seed) == Fraction(1, p)
        assert regulator_constant(sign_rep(p), seed=seed) == p


@pytest.mark.parametrize("p", [5, 7])
def test_square_class_is_seed_independent(p):
    rep = faithful_rep(p)
    classes = {SquareClass.of(regulator_constant(rep, seed=s)) for s in range(12)}
    assert len(classes) == 1


@pytest.mark.parametrize("p", [5, 7])
def test_faithful_constant_has_odd_p_valuation(p):
    c = regulator_constant(faithful_rep(p))
    assert SquareClass.of(c).ord_parity(p) == 1


def test_constant_multiplicative_on_sums():
    for summands in [(trivial_rep(5), sign_rep(5)),
                     (sign_rep(5), faithful_rep(5)),
                     (trivial_rep(5), trivial_rep(5))]:
        whole = SquareClass.of(regulator_constant(direct_sum(*summands)))
        parts = SquareClass.of(1)
        for r in summands:
            parts = parts * SquareClass.of(regulator_constant(r))
        assert whole == parts


@pytest.mark.parametrize("p", [5, 7])
def test_t_theta_membership(p):
    assert t_theta_member(trivial_rep(p))       # ord_p(1/p) = -1
    assert t_theta_member(sign_rep(p))          # ord_p(p) = 1
    assert t_theta_member(faithful_rep(p))
    assert not t_theta_member(direct_sum(trivial_rep(p), sign_rep(p)))
    assert not t_theta_member(direct_sum(faithful_rep(p), faithful_rep(p)))


# --- square classes --------------------------------------------------------

def test_square_class_basics():
    assert SquareClass.of(Fraction(9, 4)).is_square
    assert SquareClass.of(Fraction(1, 5)) == SquareClass.of(5)
    assert SquareClass.of(-18).representative == -2
    assert SquareClass.of(50).representative == 2
    assert SquareClass.of(Fraction(5, 7)).representative == 35
    assert (SquareClass.of(10) * SquareClass.of(5)).representative == 2
    assert SquareClass.of(75).ord_parity(3) == 1
    assert SquareClass.of(75).ord_parity(5) == 0
    with pytest.raises(ValueError):
        SquareClass.of(0)


@pytest.mark.parametrize("x", [0.1, 2.0, "3/4", True, 1j], ids=repr)
def test_square_class_takes_an_int_or_a_fraction(x):
    # a float's class would be read off its binary expansion
    with pytest.raises(TypeError, match=re.escape(repr(x))):
        SquareClass.of(x)


# --- exact values ----------------------------------------------------------

# C_Theta as computed by the earlier Fraction-matrix implementation; the
# integer one must reproduce each value exactly, not just its square class.
PINNED = {5: Fraction(80), 7: Fraction(1792), 11: Fraction(720896)}


@pytest.mark.parametrize("p", sorted(PINNED))
@pytest.mark.parametrize("seed", [0, 3])
def test_pinned_exact_constants(p, seed):
    for rep in (faithful_rep(p),
                direct_sum(trivial_rep(p), sign_rep(p), faithful_rep(p))):
        assert regulator_constant(rep, seed=seed) == PINNED[p]


def test_non_integral_generators_rejected():
    # conjugating rho2 by diag(2, 1, 1, 1) puts 1/2 into s
    good = faithful_rep(5)
    diag = (Fraction(2), 1, 1, 1)

    def conj(m):
        return tuple(tuple(diag[i] * x / diag[j] for j, x in enumerate(row))
                     for i, row in enumerate(m))

    with pytest.raises(InvalidRepresentationError, match="integer entries"):
        RationalRep(5, conj(good.s), conj(good.t))


@pytest.mark.parametrize("x", [Fraction(2, 1), Fraction(3, 2), True, 2.0, 1.5j], ids=repr)
def test_generator_entries_that_are_not_ints_rejected(x):
    # even an integral Fraction, a bool or a whole float: every entry is an int
    ident = ((1, 0), (0, 1))
    assert RationalRep(3, ident, ((1, 2), (0, -1))).t == ((1, 2), (0, -1))  # 1 + eta, conjugated
    with pytest.raises(InvalidRepresentationError, match="integer entries"):
        RationalRep(3, ident, ((1, x), (0, -1)))
    with pytest.raises(InvalidRepresentationError, match="integer entries"):
        RationalRep(3, ((x, 0), (0, 1)), ident)


def test_matrices_stay_integral():
    # guards against a Fraction matrix layer creeping back in
    rep = faithful_rep(7)
    whole = direct_sum(trivial_rep(7), sign_rep(7), rep)
    for m in (rep.s, rep.t, whole.s, whole.t, invariant_pairing(whole, seed=3)):
        assert all(type(x) is int for row in m for x in row)


def fraction_det(a):
    """Gaussian elimination over Q, the reference for the Bareiss determinant."""
    rows = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(len(rows)):
        piv = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            f = rows[r][col] / rows[col][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def test_bareiss_determinant_matches_fraction_elimination():
    # sparse entries force zero pivots (row swaps) and singular matrices
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(0, 6)
        a = [[rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n)]
             for _ in range(n)]
        assert _det(a) == fraction_det(a)


# --- the matrix kernels against a triple loop ------------------------------

def loop_product(a, b, inner, cols):
    """a b from the definition, for a len(a) x inner matrix a and an
    inner x cols matrix b."""
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols))
                 for i in range(len(a)))


def _transpose(a, rows, cols):
    return tuple(tuple(a[i][j] for i in range(rows)) for j in range(cols))


# mostly zeros and units, as in the images of s^i and t and the projectors
_entries = st.sampled_from((0, 0, 0, 1, -1)) | st.integers(-9, 9)


def _matrix(rows, cols):
    return st.lists(st.lists(_entries, min_size=cols, max_size=cols).map(tuple),
                    min_size=rows, max_size=rows).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_matmul_matches_the_triple_loop(data):
    rows, inner, cols = (data.draw(st.integers(0, 6)) for _ in range(3))
    a = data.draw(_matrix(rows, inner))
    b = data.draw(_matrix(inner, cols))
    # a 0 x cols matrix is (), which does not carry cols, so the product of
    # a rows x 0 matrix and it has empty rows
    assert _matmul(a, b) == loop_product(a, b, inner, cols if inner else 0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gram_matches_the_triple_loop(data):
    # b need not be symmetric: _gram gives the transpose of v^T b v, whose
    # determinant is the same; k = 0 is the empty basis of a fixed space
    # (sign_rep has no vector fixed by D_2)
    d = data.draw(st.integers(0, 6))
    k = data.draw(st.integers(0, d))
    b = data.draw(_matrix(d, d))
    v = data.draw(_matrix(d, k))
    vt = _transpose(v, d, k)
    want = loop_product(loop_product(vt, b, d, d), v, d, k)
    got = _gram(b, v)
    assert got == _transpose(want, k, k)
    assert _det(got) == _det(want) == fraction_det(want)
    symmetric = tuple(tuple(x + y for x, y in zip(row, col)) for row, col in zip(b, zip(*b)))
    assert _gram(symmetric, v) == loop_product(loop_product(vt, symmetric, d, d), v, d, k)


# --- the pairing against the literal group sum -----------------------------

def reference_invariant_pairing(rep, seed):
    """The first nonsingular sum over every g of image(g)^T S image(g), with
    S drawn from the seed's stream as invariant_pairing draws it."""
    rng = random.Random(seed)
    d = rep.dimension
    for _ in range(64):
        raw = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
        S = tuple(tuple(raw[i][j] + raw[j][i] for j in range(d)) for i in range(d))
        total = [[0] * d for _ in range(d)]
        for m in group_images(rep):
            term = loop_product(loop_product(_transpose(m, d, d), S, d, d), m, d, d)
            total = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(total, term)]
        if fraction_det(total) != 0:
            return tuple(map(tuple, total))
    raise AssertionError("no nonsingular draw")


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_invariant_pairing_matches_the_group_sum(p):
    reps = [trivial_rep(p), sign_rep(p), faithful_rep(p)]
    reps.append(direct_sum(*reps))
    for rep in reps:
        for seed in (0, 3, 23, 2024):
            assert invariant_pairing(rep, seed) == reference_invariant_pairing(rep, seed)


# --- the projectors against the literal subgroup sums ----------------------

def reference_regulator_constant(rep, seed):
    """C_Theta with each projector summed as image(h) over the elements of
    H, the basis of rho^H its independent columns (by Fraction rank)."""
    pairing = invariant_pairing(rep, seed)
    ctx = DihedralContext(rep.p)
    d = rep.dimension
    result = Fraction(1)
    for tag, weight in THETA:
        elements = char_referee.elements(ctx.subgroup(tag))
        proj = [[0] * d for _ in range(d)]
        for h in elements:
            proj = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(proj, image(rep, h))]
        cols, rank = [], 0
        for j in range(d):
            trial = [[row[c] for c in cols + [j]] for row in proj]
            if fraction_rank(trial) > rank:
                cols, rank = cols + [j], rank + 1
        basis = [[row[c] for c in cols] for row in proj]
        k = len(cols)
        gram = loop_product(loop_product(_transpose(basis, d, k), pairing, d, d), basis, d, k)
        result *= Fraction(fraction_det(gram), len(elements) ** (3 * k)) ** weight
    return result


def fraction_rank(a):
    m = [[Fraction(x) for x in row] for row in a]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_constant_matches_the_elementwise_projectors(p):
    reps = [trivial_rep(p), sign_rep(p), faithful_rep(p)]
    reps.append(direct_sum(*reps))
    for rep in reps:
        for seed in (0, 3, 23):
            assert regulator_constant(rep, seed=seed) == reference_regulator_constant(rep, seed)


# --- the integer combination against the Fraction product -----------------

def fraction_product_constant(rep, seed):
    """C_Theta as the product of one Fraction factor per H of Theta, each
    det(P_J^T B P_J) / |H|^(3k) to its weight, over the library's own
    projectors, bases and determinants: only the combination differs from
    `regulator_constant`, which multiplies integers and builds one
    Fraction at the end."""
    pairing, det = regulator._pairing_and_det(rep, seed)
    ident, t = rep._powers[0], rep.t
    rotations = regulator._matsum(rep._powers)
    result = Fraction(1)
    for tag, weight in THETA:
        order = tag.order(rep.p)
        proj = rotations if tag.level else ident
        if tag.reflects:
            proj = regulator._matsum((proj, _matmul(t, proj)))
        cols = regulator._independent_columns(proj)
        basis = tuple(tuple(row[j] for j in cols) for row in proj)
        factor = Fraction(det) if order == 1 else Fraction(
            _det(_gram(pairing, basis)), order ** (3 * len(cols)))
        result *= factor ** weight
    return result


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_integer_constant_matches_the_fraction_product(p):
    one, sign, faithful = trivial_rep(p), sign_rep(p), faithful_rep(p)
    reps = [one, sign, faithful, direct_sum(one, sign), direct_sum(sign, faithful),
            direct_sum(one, sign, faithful)]
    for rep in reps:
        for seed in (0, 3, 99):
            got = regulator_constant(rep, seed=seed)
            assert type(got) is Fraction
            assert got == fraction_product_constant(rep, seed), (p, rep.dimension, seed)
