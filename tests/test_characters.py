import gc
import operator
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from char_referee import (ClassFunction, add, class_sizes, conj, conjugate, divide_exact,
                          elements, integer, mul, rational_value, reference_induce,
                          reference_inner_product, times, value_at, zeta)
from dihedral_parity.characters import (Cyclotomic, DihedralContext,
                                        GroupMismatchError, InvalidGroupError,
                                        InvalidSubgroupError, ORDER2,
                                        Subgroup, SubgroupTag, TRIVIAL,
                                        VirtualCharacter,
                                        cyclic_characters, cyclic_p_power,
                                        dihedral_p_power, eta, induce,
                                        inner_product, irreducibles, restrict,
                                        two_dim, verify_reduction_identity)
from dihedral_parity import characters
from dihedral_parity import regulator
from dihedral_parity.regulator import (direct_sum, faithful_rep, invariant_pairing,
                                       regulator_constant, sign_rep, trivial_rep)


# --- cyclotomic ring -------------------------------------------------------

def test_cyclotomic_reduction_rule():
    # z^4 = -(1 + z + z^2 + z^3) for p = 5
    z4 = zeta(5, 1, 4)
    assert z4.coeffs == (-1, -1, -1, -1)
    # z^5 = 1
    assert zeta(5, 1, 5) == integer(5, 1, 1)
    # for p^n = 25: z^20 = -(1 + z^5 + z^10 + z^15)
    z20 = zeta(5, 2, 20)
    want = [0] * 20
    for i in (0, 5, 10, 15):
        want[i] = -1
    assert z20.coeffs == tuple(want)


def test_cyclotomic_arithmetic():
    """The reference arithmetic in Z[zeta] that the value-level tests use."""
    a = zeta(7, 1, 3)
    b = zeta(7, 1, 4)
    assert times(a, b) == integer(7, 1, 1)
    assert conj(add(a, b)) == add(a, b)  # z^3 + z^4 is conjugation-stable
    assert conj(a) == b
    full = integer(7, 1, 0)
    for k in range(1, 7):
        full = add(full, zeta(7, 1, k))
    assert full == integer(7, 1, -1) and rational_value(full) == -1
    with pytest.raises(ValueError):
        rational_value(a)
    assert divide_exact(times(a, 3), 3) == a
    with pytest.raises(ValueError):
        divide_exact(times(a, 3), 2)
    with pytest.raises(GroupMismatchError):
        add(a, zeta(5, 1, 1))


# --- group and subgroup structure ------------------------------------------

def test_group_validation():
    for p, n in [(4, 1), (2, 1), (9, 1), (15, 1), (5, 0), (7, -1)]:
        with pytest.raises(InvalidGroupError):
            DihedralContext(p, n)
    for n in (True, 1.0, 2.0):
        with pytest.raises(InvalidGroupError, match=f"^n must be a positive integer, got {n}$"):
            DihedralContext(5, n)
    ctx = DihedralContext(3, 1)  # odd primes below 5 are fine as groups
    assert ctx.m == 3


def test_subgroup_tags():
    with pytest.raises(InvalidSubgroupError):
        SubgroupTag("weird")
    with pytest.raises(InvalidSubgroupError):
        SubgroupTag("cyclic", 0)
    with pytest.raises(InvalidSubgroupError):
        SubgroupTag("trivial", 1)
    ctx = DihedralContext(5, 1)
    with pytest.raises(InvalidSubgroupError):
        ctx.subgroup(cyclic_p_power(2))  # does not fit in D_10


def test_subgroup_orders_and_classes():
    ctx = DihedralContext(5, 2)
    assert ctx.subgroup(TRIVIAL).order == 1
    assert ctx.subgroup(ORDER2).order == 2
    assert ctx.subgroup(cyclic_p_power(1)).order == 5
    assert ctx.subgroup(cyclic_p_power(2)).order == 25
    assert ctx.subgroup(dihedral_p_power(1)).order == 10
    G = ctx.full()
    assert G.order == 50
    assert len(G.class_reps) == 2 + (25 - 1) // 2
    # class map: s^3 and s^22 are conjugate, reflections fuse
    assert G.class_index((3, 0)) == G.class_index((22, 0))
    assert G.class_index((0, 1)) == G.class_index((7, 1))
    with pytest.raises(GroupMismatchError):
        ctx.subgroup(cyclic_p_power(1)).class_index((1, 0))  # not in C_5 <= D_50


@pytest.mark.parametrize("p, n", [(3, 1), (5, 2), (3, 3)])
def test_tag_shape_matches_the_elements(p, n):
    """A tag's reflects and order, read off the tag alone, are those of the
    elements of its Subgroup."""
    ctx = DihedralContext(p, n)
    tags = [TRIVIAL, ORDER2] + [f(k) for k in range(1, n + 1)
                                for f in (cyclic_p_power, dihedral_p_power)]
    for tag in tags:
        group = elements(ctx.subgroup(tag))
        assert tag.order(p) == len(group) == ctx.subgroup(tag).order
        assert tag.reflects == any(e for _, e in group)


def test_characters_reexports_the_lattice():
    from dihedral_parity import characters, lattice
    for name in ("InvalidGroupError", "InvalidSubgroupError", "SubgroupTag", "TRIVIAL",
                 "ORDER2", "cyclic_p_power", "dihedral_p_power", "CYCLIC", "DIHEDRAL",
                 "THETA", "check_odd_prime"):
        assert getattr(characters, name) is getattr(lattice, name)


def test_counts_degrees_sum_of_squares():
    for (p, n), want in [((5, 1), 4), ((7, 1), 5), ((5, 2), 14), ((3, 1), 3)]:
        ctx = DihedralContext(p, n)
        irr = irreducibles(ctx)
        assert len(irr) == want
        degs = [c.degree for c in irr]
        assert degs == [1, 1] + [2] * (want - 2)
        assert sum(d * d for d in degs) == 2 * p ** n


@pytest.mark.parametrize("p,n", [(5, 1), (7, 1), (5, 2), (3, 3)])
def test_orthogonality(p, n):
    irr = irreducibles(DihedralContext(p, n))
    for i, a in enumerate(irr):
        for j, b in enumerate(irr):
            assert inner_product(a, b) == (1 if i == j else 0)


def test_two_dim_values_are_real():
    for chi in irreducibles(DihedralContext(5, 2))[2:]:
        for v in chi.values:
            assert v == conj(v)


def test_induction_from_trivial_gives_regular_character():
    ctx = DihedralContext(5, 1)
    H = ctx.subgroup(TRIVIAL)
    irr = irreducibles(ctx)
    reg = induce(restrict(irr[0], H), ctx.full())
    total = ClassFunction.of(irr[0])
    for c in irr[1:]:
        total = total + ClassFunction.of(c) * c.degree
    assert ClassFunction.of(reg) == total
    assert reg.degree == 10


def test_induction_from_rotations():
    ctx = DihedralContext(5, 1)
    chars = cyclic_characters(ctx, 1)
    G = ctx.full()
    irr = irreducibles(ctx)
    assert ClassFunction.of(induce(chars[0], G)) == (ClassFunction.of(irr[0])
                                                    + ClassFunction.of(irr[1]))  # 1 + eta
    for k in (1, 2):
        assert induce(chars[k], G) == two_dim(ctx, k)
    # folding: chi_k and chi_{p-k} induce the same character
    assert induce(chars[3], G) == two_dim(ctx, 2)
    assert induce(chars[4], G) == two_dim(ctx, 1)


def test_restriction_values():
    ctx = DihedralContext(5, 1)
    G = ctx.full()
    H2 = ctx.subgroup(ORDER2)
    assert restrict(eta(ctx), H2).values[1] == integer(5, 1, -1)
    Cp = ctx.subgroup(cyclic_p_power(1))
    res = restrict(two_dim(ctx, 1), Cp)
    chars = cyclic_characters(ctx, 1)
    assert ClassFunction.of(res) == ClassFunction.of(chars[1]) + ClassFunction.of(chars[4])
    with pytest.raises(GroupMismatchError):
        restrict(chars[1], H2)  # D_2 is not inside C_5


def _assert_frobenius_exhaustive(ctx):
    G = ctx.full()
    girr = irreducibles(ctx)
    for level in range(1, ctx.n + 1):
        H = ctx.subgroup(cyclic_p_power(level))
        for f in cyclic_characters(ctx, level):
            indf = induce(f, G)
            for g in girr:
                assert inner_product(indf, g) == inner_product(f, restrict(g, H))


def test_frobenius_reciprocity_exhaustive_d50():
    _assert_frobenius_exhaustive(DihedralContext(5, 2))


def test_frobenius_reciprocity_exhaustive_d54():
    _assert_frobenius_exhaustive(DihedralContext(3, 3))


def test_reduction_identity():
    assert verify_reduction_identity(5, 2) is True
    assert verify_reduction_identity(7, 2) is True
    with pytest.raises(InvalidGroupError):
        verify_reduction_identity(5, 1)
    ctx = DihedralContext(5, 2)
    assert verify_reduction_identity(5, 2, ctx=ctx) is True
    with pytest.raises(GroupMismatchError):
        verify_reduction_identity(7, 2, ctx=ctx)
    # negative control: a table with I(chi_1) and I(chi_2) swapped fails
    table = irreducibles(ctx)
    table[2], table[3] = table[3], table[2]
    ctx.__dict__["_irreducibles"] = tuple(table)
    assert verify_reduction_identity(5, 2, ctx=ctx) is False


def test_reduction_identity_rejects_one_wrong_right_hand_term():
    # For k = 1 the right-hand side is I(chi_j) over j = 1, 6, 11, 16 -> 9
    # and 21 -> 4.  Put I(chi_5) where I(chi_6) stands: the left side of
    # k = 1 is untouched, one term on its right is another irreducible, and
    # the difference of lifts is no longer of period 5.
    ctx = DihedralContext(5, 2)
    table = irreducibles(ctx)
    table[1 + 6] = table[1 + 5]
    ctx.__dict__["_irreducibles"] = tuple(table)
    assert verify_reduction_identity(5, 2, ctx=ctx) is False


def test_character_mismatch_errors():
    c5 = irreducibles(DihedralContext(5, 1))[0]
    c7 = irreducibles(DihedralContext(7, 1))[0]
    with pytest.raises(GroupMismatchError):
        inner_product(c5, c7)
    assert inner_product(c5, irreducibles(DihedralContext(5, 1))[0]) == 1  # equal groups
    with pytest.raises(GroupMismatchError):
        inner_product(c5, cyclic_characters(DihedralContext(5, 1), 1)[0])


def test_containment_across_groups_raises():
    # C_5 of D_10 holds the pairs (i, 0) for i < 5, which are also pairs of
    # D_50; a character of D_50 must still not restrict to it
    chi = irreducibles(DihedralContext(5, 2))[2]
    small = DihedralContext(5, 1)
    Cp = small.subgroup(cyclic_p_power(1))
    with pytest.raises(GroupMismatchError):
        small.full().contains(chi.group)
    with pytest.raises(GroupMismatchError):
        restrict(chi, Cp)
    with pytest.raises(GroupMismatchError):
        induce(cyclic_characters(small, 1)[1], chi.group)


def test_induce_and_class_map_name_the_group_that_is_not_inside():
    ctx = DihedralContext(5, 2)
    Cp, D2p = ctx.subgroup(cyclic_p_power(1)), ctx.subgroup(dihedral_p_power(1))
    with pytest.raises(GroupMismatchError, match=r"^D2\*p\^2 is not inside Cp$"):
        induce(irreducibles(ctx)[2], Cp)
    with pytest.raises(GroupMismatchError, match=r"^D2p is not inside Cp$"):
        Cp.class_map(D2p)


def test_irreducible_table_built_once_per_context():
    ctx = DihedralContext(5, 2)
    irr = irreducibles(ctx)
    irr.append(None)  # the caller owns the list it gets
    assert len(irreducibles(ctx)) == 14
    assert eta(ctx) is irreducibles(ctx)[1]
    assert two_dim(ctx, 3) is two_dim(ctx, 3) is irreducibles(ctx)[4]
    fresh = DihedralContext(5, 2)
    assert irreducibles(fresh) == irreducibles(ctx)
    assert eta(fresh) is not eta(ctx)


@pytest.mark.parametrize("p, n", [(3, 1), (3, 3), (5, 2), (7, 2), (13, 1)])
def test_table_built_characters_match_fresh_powers(p, n):
    # the reference reduces every power of zeta afresh
    ctx = DihedralContext(p, n)
    m = p ** n
    nrot = (m - 1) // 2
    irr = irreducibles(ctx)
    for k in range(1, nrot + 1):
        want = [add(zeta(p, n, k * j), zeta(p, n, -k * j)) for j in range(nrot + 1)]
        assert irr[1 + k].values == tuple(want + [integer(p, n, 0)])
    for level in range(1, n + 1):
        mk = p ** level
        lift = p ** (n - level)
        chars = cyclic_characters(ctx, level)
        assert len(chars) == mk
        for t, f in enumerate(chars):
            assert f.values == tuple(zeta(p, n, t * i * lift) for i in range(mk))


def test_fusion_table():
    ctx = DihedralContext(5, 2)
    G = ctx.full()
    # inside G itself, every x in G conjugates a class rep into its own class
    assert G.fusion(G) == tuple(((c, 50),) for c in range(len(G.class_reps)))
    # s^5 generates C_5; its class {s^5, s^20} meets C_5 in two classes, and
    # each element of the class is hit by the 25 rotations
    C5 = ctx.subgroup(cyclic_p_power(1))
    assert G.fusion(C5)[G.class_index((5, 0))] == ((1, 25), (4, 25))
    assert G.fusion(C5)[G.class_index((1, 0))] == ()
    assert G.fusion(C5) is G.fusion(ctx.subgroup(cyclic_p_power(1)))
    assert ctx.full().fusion(C5) is G.fusion(C5)  # one Subgroup per tag and context


GROUPS = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1)]


def _standard_tags(n):
    return ([TRIVIAL, ORDER2] + [cyclic_p_power(k) for k in range(1, n + 1)]
            + [dihedral_p_power(k) for k in range(1, n + 1)])


@pytest.mark.parametrize("p,n", GROUPS)
def test_subgroup_classes_match_conjugation_orbits(p, n):
    """Each standard subgroup against brute force: its elements are those
    generated by s^(p^(n-k)) (and the reflection t when it has one), and
    its classes are the orbits of conjugation by its own elements."""
    ctx = DihedralContext(p, n)
    G = ctx.full()
    for tag in _standard_tags(n):
        H = ctx.subgroup(tag)
        gens = [(p ** (n - tag.level) % ctx.m, 0)]
        if tag.kind in ("order2", "dihedral"):
            gens.append((0, 1))
        generated = {(0, 0)}
        while True:
            grown = generated | {mul(ctx.m, a, b) for a in generated for b in gens}
            if grown == generated:
                break
            generated = grown
        group = elements(H)
        assert len(group) == len(set(group)) and set(group) == generated
        orbit = {h: frozenset(conjugate(ctx.m, x, h) for x in group) for h in group}
        rep_orbits = [orbit[g] for g in H.class_reps]
        assert H.class_reps[0] == (0, 0)
        assert len(set(rep_orbits)) == len(rep_orbits) and set(rep_orbits) == set(orbit.values())
        for h in group:
            assert h in rep_orbits[H.class_index(h)]
        for g in elements(G):
            if g not in generated:
                with pytest.raises(GroupMismatchError):
                    H.class_index(g)


def _combine(chars, coeffs):
    """The virtual character sum c chi of characters of one group, as the
    sum of their spectra: the multiplicities that do not cancel, in
    increasing index."""
    group = chars[0].group
    acc = {}
    v = 0
    for c, chi in zip(coeffs, chars):
        chi_ms, chi_v = chi._spectrum
        for t, x in chi_ms.items():
            acc[t] = acc.get(t, 0) + c * x
        v = None if chi_v is None else v + c * chi_v
    return VirtualCharacter._of(group, ({t: acc[t] for t in sorted(acc) if acc[t]}, v))


def test_the_zero_character_has_a_zero_value_at_every_class():
    ctx = DihedralContext(5, 2)
    for H in (ctx.full(), ctx.subgroup(cyclic_p_power(1)), ctx.subgroup(TRIVIAL)):
        zero = _combine([restrict(irreducibles(ctx)[2], H)], [0])
        assert zero.values == (integer(5, 2, 0),) * len(H.class_reps)


@st.composite
def _combination(draw, basis):
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
    return _combine(basis, coeffs)


@st.composite
def _function_on(draw, ctx, tag):
    """A random integer combination of irreducibles of D_{2p^n} restricted to
    the subgroup of `tag`, or of cyclic characters when it is cyclic."""
    H = ctx.subgroup(tag)
    how = draw(st.sampled_from(["irreducibles", "cyclic"]))
    if how == "cyclic" and tag.kind == "cyclic":
        return draw(_combination(cyclic_characters(ctx, tag.level)))
    return restrict(draw(_combination(irreducibles(ctx))), H)


@st.composite
def _tower(draw):
    """A context, a subgroup H and a subgroup G containing it."""
    ctx = DihedralContext(*draw(st.sampled_from(GROUPS)))
    tags = _standard_tags(ctx.n)
    H = draw(st.sampled_from(tags))
    G = draw(st.sampled_from([t for t in tags
                              if ctx.subgroup(t).contains(ctx.subgroup(H))]))
    return ctx, H, G


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inner_product_matches_reference(data):
    ctx, tag, _ = data.draw(_tower())
    f1 = data.draw(_function_on(ctx, tag))
    f2 = data.draw(_function_on(ctx, tag))
    assert inner_product(f1, f2) == reference_inner_product(f1, f2)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_induce_matches_reference(data):
    ctx, tag, up = data.draw(_tower())
    chi = data.draw(_function_on(ctx, tag))
    G = ctx.subgroup(up)
    assert ClassFunction.of(induce(chi, G)) == reference_induce(chi, G)


# --- sparse preimages ------------------------------------------------------

def terms_inner_product(f1, f2):
    """The inner product summed over the nonzero coefficients of the reduced
    values, with the period test run by run: the class-function kernel
    restated."""
    H = f1.group
    m = H.m
    acc = [0] * m
    for size, a, b in zip(class_sizes(H), f1.values, f2.values):
        bs = [(j, d) for j, d in enumerate(b.coeffs) if d]
        for i, c in enumerate(a.coeffs):
            if not c:
                continue
            c *= size
            for j, d in bs:
                acc[(i - j) % m] += c * d
    q = m // H.p
    if all(run.count(run[0]) == len(run)
           for run in [acc[q::q]] + [acc[j::q] for j in range(1, q)]):
        r = acc[0] - acc[q]
        if r % H.order == 0:
            return r // H.order
    return rational_value(divide_exact(Cyclotomic.make(H.p, H.n, acc), H.order))


def _characters_by_subgroup(ctx):
    """For each standard subgroup H: the restrictions of the irreducibles
    to H, the cyclic characters when H is cyclic, and the inductions of
    the cyclic characters of each level up to H's when H is dihedral."""
    irr = irreducibles(ctx)
    out = []
    for tag in _standard_tags(ctx.n):
        H = ctx.subgroup(tag)
        chars = [restrict(chi, H) for chi in irr]
        if tag.kind == "cyclic":
            chars += cyclic_characters(ctx, tag.level)
        if tag.kind == "dihedral":
            chars += [induce(f, H) for level in range(1, tag.level + 1)
                      for f in cyclic_characters(ctx, level)]
        out.append(chars)
    return out


@pytest.mark.parametrize("p,n", GROUPS)
def test_inner_product_matches_the_terms_loop_on_every_pair(p, n):
    ctx = DihedralContext(p, n)
    for chars in _characters_by_subgroup(ctx):
        for f1 in chars:
            for f2 in chars:
                assert inner_product(f1, f2) == terms_inner_product(f1, f2)


@pytest.mark.parametrize("p,n", GROUPS)
def test_recorded_lifts_are_sparse_preimages(p, n):
    """The lifts (preimages in Z[x]/(x^m - 1)) that the value rule reads
    off a spectrum: every term has 0 <= i < m and c != 0, a class of an
    irreducible has at most two and one of a cyclic character one, and
    each reduces, afresh, to the value."""
    ctx = DihedralContext(p, n)
    m = ctx.m
    cyclic = [f for level in range(1, n + 1) for f in cyclic_characters(ctx, level)]
    for chi in irreducibles(ctx) + cyclic:
        bound = 2 if chi.group.reflects else 1
        for lift, v in zip(characters._preimages(chi), chi.values):
            assert len(lift) <= bound
            dense = [0] * m
            for i, c in lift:
                assert 0 <= i < m and c != 0
                dense[i] += c
            assert Cyclotomic.make(p, n, dense) == v


def test_rotation_preimages_are_shared_through_known():
    """The tower reads every irreducible's preimages at once: at D_250 that
    is 64 * 63 rotation preimages, built as at most two tuples per value
    when they share one dict of known preimages."""
    ctx = DihedralContext(5, 3)
    known = {}
    tables = [characters._preimages(chi, known) for chi in ctx._irreducibles]
    rotations = [pre for table in tables for pre in table[:-1]]
    assert len(rotations) == 64 * 63
    assert len({id(pre) for pre in rotations}) <= 2 * ctx.m
    assert characters._preimages(ctx._irreducibles[5], known)[3] is tables[5][3]
    assert characters._preimages(ctx._irreducibles[5])[3] is not tables[5][3]


@pytest.mark.parametrize("p,n", GROUPS)
def test_preimages_read_through_one_dict_equal_those_read_alone(p, n):
    """One dict of known preimages, shared by every library character of
    every subgroup, gives each the preimages that a fresh dict gives it:
    sharing never hands one character another's preimage."""
    ctx = DihedralContext(p, n)
    known = {}
    for chars in [irreducibles(ctx)] + _characters_by_subgroup(ctx):
        for chi in chars:
            assert characters._preimages(chi, known) == characters._preimages(chi)


def test_one_subgroup_per_tag():
    ctx = DihedralContext(5, 2)
    for tag in _standard_tags(2):
        assert ctx.subgroup(tag) is ctx.subgroup(tag)
        assert ctx.subgroup(tag) is ctx.subgroup(SubgroupTag(tag.kind, tag.level))
    assert ctx.full() is ctx.subgroup(dihedral_p_power(2))
    assert irreducibles(ctx)[0].group is ctx.full()
    assert cyclic_characters(ctx, 1)[0].group is ctx.subgroup(cyclic_p_power(1))
    # another context of the same group has its own, equal subgroups
    other = DihedralContext(5, 2)
    assert other.full() is not ctx.full() and other.full() == ctx.full()
    for _ in range(2):  # a tag that does not fit is never cached
        with pytest.raises(InvalidSubgroupError):
            ctx.subgroup(cyclic_p_power(3))


# --- induction on preimages -----------------------------------------------

# every (p, n) with p^n <= 125, one context each, shared across examples
SMALL_GROUPS = [(p, n) for p in range(3, 126, 2)
                if all(p % q for q in range(3, p, 2))
                for n in range(1, 5) if p ** n <= 125]
_CONTEXTS = {}


def _context(p, n):
    if (p, n) not in _CONTEXTS:
        _CONTEXTS[p, n] = DihedralContext(p, n)
    return _CONTEXTS[p, n]


@st.composite
def _cyclic_combination(draw):
    """A context, a level and a random integer combination of a few cyclic
    characters of C_{p^level}."""
    ctx = _context(*draw(st.sampled_from(SMALL_GROUPS)))
    level = draw(st.integers(1, ctx.n))
    chars = cyclic_characters(ctx, level)
    picks = draw(st.dictionaries(st.integers(0, len(chars) - 1),
                                 st.integers(-3, 3).filter(bool), min_size=1, max_size=4))
    return ctx, level, _combine([chars[t] for t in picks], list(picks.values()))


@settings(max_examples=40, deadline=None)
@given(_cyclic_combination())
def test_induced_values_reduce_from_their_recorded_lifts(case):
    """The values of Ind f, for f a combination of cyclic characters, reduce
    from the lifts read off its spectrum to the reference, and to the same
    combination of the values of the inductions of f's cyclic summands."""
    ctx, level, f = case
    G = ctx.full()
    induced = ClassFunction.of(induce(f, G))
    assert induced == reference_induce(f, G)
    summed = None
    for psi in cyclic_characters(ctx, level):
        c = inner_product(f, psi)
        if c:
            term = ClassFunction.of(induce(psi, G)) * c
            summed = term if summed is None else summed + term
    assert induced == summed


@settings(max_examples=60, deadline=None)
@given(_cyclic_combination())
def test_frobenius_reciprocity_on_combinations(case):
    ctx, level, f = case
    G, H = ctx.full(), ctx.subgroup(cyclic_p_power(level))
    induced = induce(f, G)
    for g in irreducibles(ctx):
        assert inner_product(induced, g) == inner_product(f, restrict(g, H))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inner_products_do_not_read_recorded_lifts(data):
    ctx, level, f = data.draw(_cyclic_combination())
    H = ctx.subgroup(cyclic_p_power(level))
    induced = induce(f, ctx.full())
    irr = irreducibles(ctx)
    pairs = [(g, restrict(g, H)) for g in (irr[index] for index in data.draw(
        st.lists(st.integers(0, len(irr) - 1), min_size=1, max_size=3)))]
    got = [(inner_product(induced, g), inner_product(f, res)) for g, res in pairs]
    assert not _built(induced, "values") and not _built(f, "values")
    assert got == [(reference_inner_product(induced, g), reference_inner_product(f, res))
                   for g, res in pairs]


@pytest.mark.parametrize("p, n", [(p, n) for p, n in SMALL_GROUPS if n in (2, 3)])
def test_reduction_identity_for_every_small_tower(p, n):
    assert verify_reduction_identity(p, n, ctx=_context(p, n)) is True


def test_restrict_and_induce_match_the_reference_values():
    ctx = DihedralContext(5, 2)
    G, C5 = ctx.full(), ctx.subgroup(cyclic_p_power(1))
    chi = two_dim(ctx, 3)
    res = restrict(chi, C5)
    picked = ClassFunction(C5, [value_at(chi, h) for h in C5.class_reps])
    assert ClassFunction.of(res) == picked
    assert ClassFunction.of(induce(res, G)) == reference_induce(res, G)
    # a restriction is kept on chi: one object, equal to a fresh one
    assert restrict(chi, C5) is res
    assert restrict(two_dim(DihedralContext(5, 2), 3), C5) == res
    # a Subgroup of another context of the same group is the same group; a
    # restriction to it is built afresh on it and not kept, so chi holds no
    # other context's value table
    other_ctx = DihedralContext(5, 2)
    other = other_ctx.subgroup(cyclic_p_power(1))
    again = restrict(chi, other)
    assert again.group is other and restrict(chi, other) is not again
    assert again == res == restrict(two_dim(other_ctx, 3), other)
    assert all(K is ctx.subgroup(K.tag) for K in chi._restrictions)


def test_induction_rejects_a_fusion_count_that_the_order_does_not_divide():
    ctx = DihedralContext(5, 1)
    G, C5 = ctx.full(), ctx.subgroup(cyclic_p_power(1))
    preimages = characters._preimages(cyclic_characters(ctx, 1)[1])
    table = G.fusion(C5)
    G._fusion[C5] = (((0, 7),),) + table[1:]
    with pytest.raises(RuntimeError, match="^fusion count 7 not divisible by 5$"):
        characters._fused(G, C5, preimages)


# --- deferred values -------------------------------------------------------

def _built(chi, name):
    """Whether chi's private slot behind name is set, read through the slot
    descriptor, so that the read builds nothing."""
    try:
        VirtualCharacter.__dict__["_" + name].__get__(chi, VirtualCharacter)
    except AttributeError:
        return False
    return True


def _frobenius_loop(ctx):
    """The Frobenius checks of the `chars` workload item, returning every
    cyclic character with its induction."""
    G, irr, pairs = ctx.full(), irreducibles(ctx), []
    for level in range(1, ctx.n + 1):
        H = ctx.subgroup(cyclic_p_power(level))
        for f in cyclic_characters(ctx, level):
            induced = induce(f, G)
            for g in irr:
                assert inner_product(induced, g) == inner_product(f, restrict(g, H))
            pairs.append((level, f, induced))
    return pairs


@pytest.mark.parametrize("p, n", SMALL_GROUPS)
def test_frobenius_checks_build_no_induced_or_cyclic_value(p, n):
    ctx = DihedralContext(p, n)
    G = ctx.full()
    pairs = _frobenius_loop(ctx)
    for _, f, induced in pairs:
        assert not _built(f, "values") and not _built(induced, "values")
    for level, f, induced in pairs:
        (t,) = f._spectrum[0]  # the one multiplicity m_t of a cyclic character
        step = p ** (n - level)
        # values read later: the cyclic ones are the reference powers of zeta
        assert f.values == tuple(zeta(p, n, t * i * step) for i in range(p ** level))
    # the elementwise reference, and fresh inductions, on a few per level
    for level, f, induced in pairs:
        (t,) = f._spectrum[0]
        if t not in (0, 1, p ** level - 1):
            continue
        assert induced.values == reference_induce(f, G).values
        again = [induce(f, G) for _ in range(3)]
        assert again[0] == induced and hash(again[1]) == hash(induced)
        assert repr(again[2]) == repr(induced)
        assert all(_built(chi, "values") for chi in again)


@pytest.mark.parametrize("p, n", [(p, n) for p, n in SMALL_GROUPS if n in (2, 3)])
def test_tower_identity_builds_lifts_only(monkeypatch, p, n):
    """The tower restricts the irreducibles' lifts through the class map and
    induces them through the fusion table: it calls neither `restrict` nor
    `induce` and reduces no value, and each left side it sums is the lift
    of the reference Ind Res I(chi_k)."""
    def refuse(*args):
        raise AssertionError("the tower builds no character")

    left = []

    def recording(G, H, lifts, _real=characters._fused):
        left.append((G, H, _real(G, H, lifts)))
        return left[-1][2]

    monkeypatch.setattr(characters, "restrict", refuse)
    monkeypatch.setattr(characters, "induce", refuse)
    monkeypatch.setattr(characters, "_fused", recording)
    ctx = DihedralContext(p, n)
    assert verify_reduction_identity(p, n, ctx=ctx) is True
    monkeypatch.undo()
    ks = [k for k in range(1, (p ** n - 1) // 2 + 1) if k % p]
    assert len(left) == len(ks)
    G, H = ctx.full(), ctx.subgroup(dihedral_p_power(n - 1))
    assert all(K is G and L is H for K, L, _ in left)
    assert not any(_built(chi, "values") for chi in irreducibles(ctx)) and not ctx._values
    for k, (_, _, lifts) in list(zip(ks, left))[:2]:
        want = reference_induce(ClassFunction(H, [value_at(two_dim(ctx, k), h)
                                                  for h in H.class_reps]), G)
        for lift, v in zip(lifts, want.values):
            dense = [0] * ctx.m
            for i, c in lift:
                dense[i] += c
            assert Cyclotomic.make(p, n, dense) == v


def test_restriction_folds_without_building_values():
    ctx = DihedralContext(5, 2)
    G, C5 = ctx.full(), ctx.subgroup(cyclic_p_power(1))
    f = cyclic_characters(ctx, 2)[7]
    want = reference_induce(cyclic_characters(ctx, 2)[7], G)
    induced = induce(f, G)
    res = restrict(induced, C5)  # folds the spectrum: builds no value of induced
    assert not _built(induced, "values") and res._spectrum is not None
    assert ClassFunction.of(res) == ClassFunction(C5, [value_at(want, h) for h in C5.class_reps])
    assert not _built(induced, "values")
    assert induce(f, G).degree == 2 and value_at(induce(f, G), (5, 0)) == value_at(want, (5, 0))
    with pytest.raises(AttributeError, match="has no attribute 'missing'"):
        induced.missing
    with pytest.raises(AttributeError, match="has no attribute '_restrictions'"):
        induce(f, G)._restrictions


@pytest.mark.parametrize("p, n", [(3, 1), (3, 3), (5, 2), (13, 1)])
def test_degree_reads_the_spectrum(p, n):
    """Ind f reads its degree [G : H] f(1) off its multiplicities, with no
    value built, and that is its value at the identity class."""
    ctx = DihedralContext(p, n)
    G = ctx.full()
    for level in range(1, n + 1):
        for f in cyclic_characters(ctx, level):
            induced = induce(f, G)
            degree = induced.degree
            assert not _built(induced, "values")
            assert degree == rational_value(induced.values[0]) == 2 * p ** (n - level)
    for chi in irreducibles(ctx):
        assert chi.degree == rational_value(chi.values[0])


def test_levels_and_indices_are_integers():
    ctx = DihedralContext(5, 2)
    for bad in (True, False, 1.0, 2.0, "1", None):
        with pytest.raises(InvalidSubgroupError):
            SubgroupTag("cyclic", bad)
        with pytest.raises(InvalidSubgroupError):
            SubgroupTag("dihedral", bad)
    for kind in ("trivial", "order2"):
        with pytest.raises(InvalidSubgroupError):
            SubgroupTag(kind, False)
        assert SubgroupTag(kind, 0) == SubgroupTag(kind)
    with pytest.raises(InvalidSubgroupError):
        dihedral_p_power(1.0)
    with pytest.raises(InvalidSubgroupError):
        cyclic_characters(ctx, True)
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match="^k must lie in 1..12, got "):
            two_dim(ctx, bad)
    assert len(cyclic_characters(ctx, 1)) == 5 and two_dim(ctx, 1) is irreducibles(ctx)[2]


# --- multiplicities --------------------------------------------------------

@st.composite
def _library_pair(draw, ctx, tag):
    """A character of the subgroup of tag that the library builds: an
    irreducible or a cyclic character, restricted to a standard subgroup K
    below tag's (1 and D_2 included) and, when K is smaller, induced up.
    With it, the same function built by hand: the textbook values over
    fresh powers of zeta, each element of K's classes read by `value_at`,
    then `reference_induce`."""
    H = ctx.subgroup(tag)
    K = ctx.subgroup(draw(st.sampled_from([t for t in _standard_tags(ctx.n)
                                           if H.contains(ctx.subgroup(t))])))
    levels = [0] + [level for level in range(1, ctx.n + 1)
                    if ctx.subgroup(cyclic_p_power(level)).contains(K)]
    level = draw(st.sampled_from(levels))  # 0: the irreducibles
    if level:
        t = draw(st.integers(0, ctx.p ** level - 1))
        chi = cyclic_characters(ctx, level)[t]
        fresh = tuple(zeta(ctx.p, ctx.n, t * i * chi.group.step) for i in range(chi.group.count))
    else:
        index = draw(st.integers(0, (ctx.m + 1) // 2))  # 1, eta, then I(chi_k)
        chi, rot = irreducibles(ctx)[index], range((ctx.m + 1) // 2)
        p, n = ctx.p, ctx.n
        if index < 2:
            one = integer(p, n, 1)
            fresh = (one,) * len(rot) + (integer(p, n, -1) if index else one,)
        else:
            k = index - 1
            fresh = tuple(add(zeta(p, n, k * j), zeta(p, n, -k * j)) for j in rot) + (integer(p, n, 0),)
    ref = ClassFunction(chi.group, fresh)
    if chi.group is not K:
        chi = restrict(chi, K)
        ref = ClassFunction(K, [value_at(ref, h) for h in K.class_reps])
    if K is H:
        return chi, ref
    return induce(chi, H), reference_induce(ref, H)


def _library_character(ctx, tag):
    return _library_pair(ctx, tag).map(lambda pair: pair[0])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_library_values_match_the_references(data):
    """Every value of a built character, read off its spectrum, is the
    textbook value: fresh powers of zeta for irreducibles and cyclic
    characters, picked element by element for a restriction, and
    `reference_induce` for an induction."""
    ctx, tag, _ = data.draw(_tower())
    f, ref = data.draw(_library_pair(ctx, tag))
    assert f._spectrum is not None and isinstance(ref, ClassFunction)
    assert f.values == ref.values


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inner_product_from_multiplicities_matches_the_lift_sum(data):
    ctx, tag, _ = data.draw(_tower())
    f1, f2 = (data.draw(_library_character(ctx, tag)) for _ in range(2))
    assert f1._spectrum is not None and f2._spectrum is not None
    assert (inner_product(f1, f2)
            == terms_inner_product(f1, f2)
            == reference_inner_product(f1, f2))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_multiplicities_are_those_of_the_character(data):
    """The stored multiplicities are positive, at indices 0 <= t < count in
    increasing order, sum to the degree and give back every rotation value
    as sum m_t zeta_c^(t j); the reflection value is the value on the
    reflection class."""
    ctx, tag, _ = data.draw(_tower())
    f = data.draw(_library_character(ctx, tag))
    H, (ms, v) = f.group, f._spectrum
    assert list(ms) == sorted(ms) and all(0 <= t < H.count for t in ms)
    assert min(ms.values()) > 0 and sum(ms.values()) == f.degree
    for j, value in enumerate(f.values[:H._rotation_classes]):
        total = integer(ctx.p, ctx.n, 0)
        for t, c in ms.items():
            total = add(total, times(zeta(ctx.p, ctx.n, t * j * H.step), c))
        assert total == value
    assert v == (rational_value(f.values[-1]) if H.reflects else None)


@pytest.mark.parametrize("p,n", [(p, n) for p, n in GROUPS if n >= 2])
def test_multiplicities_of_the_tower_identity(p, n):
    """Ind Res I(chi_k) has the multiplicities of the sum of the p terms on
    the right of the tower identity."""
    ctx = DihedralContext(p, n)
    G, H, m = ctx.full(), ctx.subgroup(dihedral_p_power(n - 1)), ctx.m
    for k in range(1, (m - 1) // 2 + 1):
        if k % p:
            ms, v = induce(restrict(two_dim(ctx, k), H), G)._spectrum
            want = {}
            for t in range(p):
                j = (k + t * m // p) % m
                for i, c in two_dim(ctx, min(j, m - j))._spectrum[0].items():
                    want[i] = want.get(i, 0) + c
            assert (list(ms.items()), v) == (sorted((i, c) for i, c in want.items() if c), 0)


def test_only_library_characters_carry_multiplicities():
    ctx = DihedralContext(5, 1)
    G, C5 = ctx.full(), ctx.subgroup(cyclic_p_power(1))
    chi = two_dim(ctx, 1)

    def entries(f):
        ms, v = f._spectrum
        return list(ms.items()), v

    assert entries(chi) == ([(1, 1), (4, 1)], 0)
    assert entries(restrict(chi, C5)) == ([(1, 1), (4, 1)], None)
    assert entries(cyclic_characters(ctx, 1)[2]) == ([(2, 1)], None)
    assert entries(induce(restrict(chi, C5), G)) == ([(1, 2), (4, 2)], 0)
    with pytest.raises(TypeError):
        VirtualCharacter(G, chi.values)  # no constructor from values
    # an odd S + v1 v2 is no inner product of virtual characters
    one = irreducibles(ctx)[0]
    odd = VirtualCharacter._of(G, (one._spectrum[0], 0))
    with pytest.raises(RuntimeError, match="^1 / 2 is not an integer$"):
        inner_product(odd, one)


def _dense(f):
    """f's multiplicities as the dense vector (m_0, ..., m_{count-1}), with
    its reflection value, after checking the sparse form: indices in
    range and increasing, and no stored 0."""
    ms, v = f._spectrum
    assert list(ms) == sorted(ms) and all(0 <= t < f.group.count for t in ms), ms
    assert 0 not in ms.values(), ms
    dense = [0] * f.group.count
    for t, c in ms.items():
        dense[t] = c
    return dense, v


def _dense_inner(H, a, b):
    """The dot product S of two dense spectra, or (S + v1 v2) / 2 on a
    reflecting group."""
    total = sum(map(operator.mul, a[0], b[0]))
    return (total + a[1] * b[1]) // 2 if H.reflects else total


def _dense_restrict(K, a):
    """Fold: m_u = sum of the m_s with s = u mod count_K."""
    ms, v = a
    return [sum(ms[u::K.count]) for u in range(K.count)], (v if K.reflects else None)


def _dense_induce(H, G, a):
    """Repeat up to count_G, plus the conjugate m_(-s) and reflection value
    0 when only G reflects."""
    ms, v = a
    if G.reflects and not H.reflects:
        ms, v = [ms[s] + ms[-s % H.count] for s in range(H.count)], 0
    return ms * (G.count // H.count), v


def _sparse_test_characters(ctx, H):
    """On H: the restrictions of the irreducibles, the cyclic characters
    when H is cyclic, and virtual characters whose multiplicities are
    negative or cancel: 1 - eta, which stores none, psi_t - psi_-t, which
    cancels when induced to a reflecting group, and psi_t - psi_(t + c/p),
    which cancels when folded to the next smaller cyclic group."""
    chars = [restrict(chi, H) for chi in irreducibles(ctx)]
    one, eta_H = chars[:2]
    if H.reflects:
        chars.append(_combine([one, eta_H], [1, -1]))
    if H.tag.kind == "cyclic":
        psi = cyclic_characters(ctx, H.tag.level)
        c = H.count
        chars += psi
        chars += [_combine([psi[t], psi[-t % c]], [1, -1]) for t in (1, 2) if t < c]
        chars += [_combine([psi[1], psi[(1 + c // ctx.p) % c]], [1, -1])]
        chars += [_combine(psi[:3], [2, -3, 1])]
    chars.append(_combine(chars[2:5], [3, -1, 2]))
    return chars


@pytest.mark.parametrize("p, n", SMALL_GROUPS)
def test_sparse_spectra_follow_the_dense_rules(p, n):
    """Each character's stored entries, expanded into the dense vector of
    length count, give its inner products, restrictions and inductions by
    the dense rules: a dot product, a fold and a repeat plus the
    conjugate.  No stored entry is 0, so a cancelled one is dropped."""
    ctx = _context(p, n)
    subgroups = [ctx.subgroup(tag) for tag in _standard_tags(n)]
    on = {H: _sparse_test_characters(ctx, H) for H in subgroups}
    dense = {H: [_dense(f) for f in chars] for H, chars in on.items()}
    assert {} in [f._spectrum[0] for f in on[ctx.full()]]  # 1 - eta
    for H in subgroups:
        for f, a in zip(on[H], dense[H]):
            for g, b in zip(on[H], dense[H]):
                assert inner_product(f, g) == _dense_inner(H, a, b)
            for K in subgroups:
                if K is not H and H.contains(K):
                    assert _dense(restrict(f, K)) == _dense_restrict(K, a)
                if K is not H and K.contains(H):
                    up = _dense_induce(H, K, a)
                    induced = induce(f, K)
                    assert _dense(induced) == up
                    for g, b in zip(on[K], dense[K]):
                        assert inner_product(induced, g) == _dense_inner(K, up, b)


# --- the lattice from its shape --------------------------------------------

def brute_fusion(K, H):
    """K.fusion(H) by conjugating each class rep of K by every element of
    K, each image's class in H read off the orbits of H's class reps."""
    m = K.m
    class_of = {y: d for d, r in enumerate(H.class_reps)
                for y in {conjugate(m, x, r) for x in elements(H)}}
    inside = set(elements(H))
    rows = []
    for g in K.class_reps:
        counts = {}
        for x in elements(K):
            y = conjugate(m, x, g)
            if y in inside:
                counts[class_of[y]] = counts.get(class_of[y], 0) + 1
        rows.append(tuple(counts.items()))
    return tuple(rows)


@pytest.mark.parametrize("p,n", GROUPS)
def test_lattice_closed_forms_match_the_element_sets(p, n):
    ctx = DihedralContext(p, n)
    m = ctx.m
    subgroups = [ctx.subgroup(tag) for tag in _standard_tags(n)]
    outside = [(m, 0), (-1, 0), (m, 1), (-ctx.p, 1), (0, 2), (1, -1)]
    for H in subgroups:
        inside = set(elements(H))
        assert H.order == len(inside)
        for g in elements(ctx.full()) + tuple(outside):
            assert (g in H) == (g in inside), (H, g)
    for K in subgroups:
        for H in subgroups:
            assert K.contains(H) == (set(elements(H)) <= set(elements(K))), (K, H)
            # tuple for tuple, in the order a walk over K meets them
            assert K.fusion(H) == brute_fusion(K, H), (K, H)


def test_no_lattice_question_walks_the_group(monkeypatch):
    """One round of character theory, one tower identity and one regulator
    constant build only the subgroups they read, and the library has no
    group multiplication or element list to walk with."""
    assert not any(hasattr(DihedralContext, name) for name in ("mul", "inv"))
    assert not any(hasattr(Subgroup, name) for name in ("elements", "element_set"))
    built = []
    real_init = Subgroup.__init__

    def init(self, ctx, tag):
        real_init(self, ctx, tag)
        built.append(self)

    monkeypatch.setattr(Subgroup, "__init__", init)
    ctx = DihedralContext(5, 2)
    G, irr = ctx.full(), irreducibles(ctx)
    for level in (1, 2):
        H = ctx.subgroup(cyclic_p_power(level))
        for f in cyclic_characters(ctx, level):
            induced = induce(f, G)
            for g in irr:
                assert inner_product(induced, g) == inner_product(f, restrict(g, H))
    assert verify_reduction_identity(7, 2)
    regulator_constant(direct_sum(trivial_rep(5), sign_rep(5), faithful_rep(5)), seed=1)
    assert len(built) == 3 + 2  # G, C_5, C_25; D_98, D_14; THETA is read off its tags


def test_a_dropped_context_is_freed_without_the_collector():
    """A Subgroup holds no reference to its context, so a context and
    everything built on it are freed by reference counting alone."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        ctx = DihedralContext(5, 2)
        irr = irreducibles(ctx)
        subgroups = [ctx.subgroup(tag) for tag in _standard_tags(2)]
        built = [restrict(chi, H) for chi in irr for H in subgroups]
        built += [induce(f, H) for level in (1, 2) for f in cyclic_characters(ctx, level)
                  for H in subgroups if H.contains(f.group)]
        values = [chi.values for chi in irr + built]
        assert verify_reduction_identity(5, 2, ctx=ctx)
        alive = weakref.ref(ctx)
        del ctx, irr, subgroups, built, values
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_no_regulator_kernel_goes_term_by_term(monkeypatch):
    """A direct sum of built summands multiplies no matrices, one draw
    of invariant_pairing at p = 11 makes about 2 log2(p) Gram products,
    not one per power of s, and regulator_constant takes the trivial
    subgroup's determinant from the accepted draw."""
    calls = []
    for name in ("_matmul", "_gram", "_det"):
        def counted(*args, _real=getattr(regulator, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(regulator, name, counted)
    p = 11
    parts = (trivial_rep(p), sign_rep(p), faithful_rep(p))
    calls.clear()
    whole = direct_sum(*parts)
    assert calls == []
    invariant_pairing(whole, seed=1)
    assert calls.count("_det") == 1  # one draw: the first is nonsingular
    assert calls.count("_gram") <= 2 * (p - 1).bit_length() + 1  # 2 ceil(log2 p) + 1
    calls.clear()
    regulator_constant(whole, seed=1)
    assert calls.count("_det") == 1 + 3  # the draw, then D_2, C_p and D_2p; not H = 1
