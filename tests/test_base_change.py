import pytest

from char_referee import elements, mul
from dihedral_parity.base_change import (AdditivePotGood, AdditivePotMult,
                                         ConstrainedRange, Good,
                                         InadmissibleSettingError,
                                         InvalidDescriptorError, NonsplitMult,
                                         SplitMult, degrees, omega_ordp_parity,
                                         tamagawa_over)
from dihedral_parity.characters import (DihedralContext, InvalidGroupError,
                                        InvalidSubgroupError, ORDER2, TRIVIAL,
                                        cyclic_p_power, dihedral_p_power)

CP = cyclic_p_power(1)
D2P = dihedral_p_power(1)
ALL_H = (TRIVIAL, ORDER2, CP, D2P)


# --- degrees ---------------------------------------------------------------

def test_degree_table_p5():
    want = {
        (D2P, CP, TRIVIAL): (5, 2),
        (D2P, CP, ORDER2): (5, 1),
        (D2P, CP, CP): (1, 2),
        (D2P, CP, D2P): (1, 1),
        (D2P, D2P, TRIVIAL): (10, 1),
        (D2P, D2P, ORDER2): (5, 1),
        (D2P, D2P, CP): (2, 1),
        (D2P, D2P, D2P): (1, 1),
        (CP, CP, TRIVIAL): (5, 1),
        (CP, CP, ORDER2): (5, 1),
        (CP, TRIVIAL, TRIVIAL): (1, 5),
        (CP, TRIVIAL, ORDER2): (1, 5),
        (ORDER2, ORDER2, TRIVIAL): (2, 1),
        (ORDER2, ORDER2, ORDER2): (1, 1),
        (ORDER2, ORDER2, CP): (2, 1),
        (ORDER2, TRIVIAL, CP): (1, 2),
        (TRIVIAL, TRIVIAL, D2P): (1, 1),
    }
    for (G, I, H), ef in want.items():
        assert degrees(5, G, I, H) == ef, (G.label, I.label, H.label)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_degree_product_identity(p):
    # e_H = [I_v : I_v cap H] and f_H = [G_v : I_v (H cap G_v)], counted on
    # the element sets; e_H * f_H = |G_v| / |H cap G_v|
    ctx = DihedralContext(p, 1)
    for G in ALL_H:
        for I in ALL_H:
            gset = set(elements(ctx.subgroup(G)))
            iset = set(elements(ctx.subgroup(I)))
            if not iset <= gset:
                continue
            for H in ALL_H:
                e, f = degrees(p, G, I, H)
                hset = set(elements(ctx.subgroup(H)))
                hg = hset & gset
                assert e == len(iset) // len(iset & hset)
                assert f == len(gset) // len({mul(p, a, b) for a in iset for b in hg})
                assert e * f == len(gset) // len(hg)


def test_degrees_rejects_inertia_outside_decomposition():
    with pytest.raises(ValueError):
        degrees(5, ORDER2, CP, TRIVIAL)
    with pytest.raises(ValueError):
        degrees(5, TRIVIAL, ORDER2, TRIVIAL)


def test_degrees_rejects_groups_outside_d2p():
    for tags in ((cyclic_p_power(2), TRIVIAL, TRIVIAL), (D2P, dihedral_p_power(2), CP),
                 (D2P, CP, cyclic_p_power(2))):
        with pytest.raises(InvalidSubgroupError):
            degrees(5, *tags)
    # 5 is accepted first: a cached answer for it must not admit 5.0 or True
    degrees(5, D2P, CP, TRIVIAL)
    for p in (9, 2, 1, 5.0, True):
        with pytest.raises(InvalidGroupError):
            degrees(p, D2P, CP, TRIVIAL)


# --- descriptors -----------------------------------------------------------

def test_descriptor_validation():
    for bad in (0, -1):
        with pytest.raises(ValueError):
            SplitMult(bad)
        with pytest.raises(ValueError):
            NonsplitMult(bad)
        with pytest.raises(ValueError):
            AdditivePotMult(bad)
    for bad in (0, -3):
        with pytest.raises(ValueError):
            AdditivePotGood(bad)


@pytest.mark.parametrize("cls", [SplitMult, NonsplitMult, AdditivePotMult, AdditivePotGood])
@pytest.mark.parametrize("bad", [2.5, 6.0, True, False, "3", None])
def test_descriptor_valuations_must_be_ints(cls, bad):
    # a float or a bool used to pass (2.5 >= 1, True >= 1) and yield a verdict
    # or fail later in the engine with a TypeError
    name = "delta" if cls is AdditivePotGood else "n"
    with pytest.raises(InvalidDescriptorError, match=f"^{name} must be a positive integer, got {bad!r}$"):
        cls(bad)


def test_descriptors_of_different_types_differ():
    kinds = (SplitMult, NonsplitMult, AdditivePotMult)
    for a in kinds:
        assert a(3) == a(3) and a(3) != a(4)
        for b in kinds:
            assert (a(3) == b(3)) == (a is b)
        with pytest.raises(ValueError, match=r"^n must be a positive integer, got 0$"):
            a(0)


def test_constrained_range():
    r = ConstrainedRange((4, 2, 2, 1))
    assert r.members == (1, 2, 4)
    assert 2 in r.members and 3 not in r.members
    assert ConstrainedRange((1, 2, 3, 4)).ord_parity(5) == 0
    assert ConstrainedRange((5, 20)).ord_parity(5) == 1
    with pytest.raises(RuntimeError):
        ConstrainedRange((1, 2)).ord_parity(2)  # parity differs
    with pytest.raises(ValueError):
        ConstrainedRange(())
    with pytest.raises(ValueError):
        ConstrainedRange((0, 1))


def test_constrained_range_keeps_only_pinned_parities():
    ambiguous = ConstrainedRange((1, 2))
    for _ in range(2):  # an ambiguous parity raises on every call
        with pytest.raises(RuntimeError, match=r"^2-valuation parity is ambiguous over \(1, 2\)$"):
            ambiguous.ord_parity(2)
    assert ambiguous.ord_parity(3) == ambiguous.ord_parity(3) == 0
    a, b = ConstrainedRange((5, 20, 5)), ConstrainedRange((20, 5))
    assert a.ord_parity(5) == 1 and a.ord_parity(5) == 1
    # a cached parity is not a field: a still equals b and hashes alike
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert repr(a) == repr(b) == "ConstrainedRange(members=(5, 20))"
    assert b.ord_parity(5) == 1 and b.ord_parity(2) == 0


# --- tamagawa numbers ------------------------------------------------------

def test_tamagawa_good_and_split():
    for H in ALL_H:
        assert tamagawa_over(Good(), 5, D2P, CP, H) == 1
    assert tamagawa_over(SplitMult(3), 5, D2P, CP, TRIVIAL) == 15
    assert tamagawa_over(SplitMult(3), 5, D2P, CP, CP) == 3
    assert tamagawa_over(SplitMult(1), 5, D2P, D2P, TRIVIAL) == 10


def test_tamagawa_nonsplit_is_always_exact():
    # f even: the nonsplit class dies, full n * e survives
    assert tamagawa_over(NonsplitMult(3), 5, D2P, CP, TRIVIAL) == 15
    # f odd: component group of a nonsplit I_k has order gcd(2, k)
    assert tamagawa_over(NonsplitMult(3), 5, D2P, CP, ORDER2) == 1
    assert tamagawa_over(NonsplitMult(2), 5, D2P, CP, ORDER2) == 2
    assert tamagawa_over(NonsplitMult(1), 5, CP, TRIVIAL, TRIVIAL) == 1
    assert tamagawa_over(NonsplitMult(1), 5, ORDER2, TRIVIAL, TRIVIAL) == 1


def test_tamagawa_additive_pot_good():
    # e * delta divisible by 12: reduction becomes good upstairs
    assert tamagawa_over(AdditivePotGood(6), 5, ORDER2, ORDER2, TRIVIAL) == 1
    assert tamagawa_over(AdditivePotGood(6), 5, D2P, D2P, TRIVIAL) == 1
    assert tamagawa_over(AdditivePotGood(6), 7, D2P, D2P, TRIVIAL) == 1  # e = 14
    out = tamagawa_over(AdditivePotGood(4), 5, D2P, D2P, TRIVIAL)
    assert isinstance(out, ConstrainedRange)
    assert out.ord_parity(5) == 0


def test_tamagawa_additive_pot_mult():
    exact = tamagawa_over(AdditivePotMult(1), 5, D2P, D2P, TRIVIAL,
                          ell=7, becomes_split=True)
    assert exact == 10
    for kwargs in ({}, {"ell": 7}, {"becomes_split": True},
                   {"ell": 2, "becomes_split": True},
                   {"ell": 7, "becomes_split": False}):
        out = tamagawa_over(AdditivePotMult(1), 5, D2P, D2P, TRIVIAL, **kwargs)
        assert isinstance(out, ConstrainedRange)


def ladder_tamagawa(base, e, f, ell, becomes_split):
    """The Tamagawa rule as one isinstance ladder over the descriptor
    kinds, kept as a referee for the descriptors' own rules."""
    unpinned = ConstrainedRange((1, 2, 3, 4))
    if isinstance(base, Good):
        return 1
    if isinstance(base, SplitMult):
        return base.n * e
    if isinstance(base, NonsplitMult):
        if f % 2 == 0:
            return base.n * e
        return 2 if (base.n * e) % 2 == 0 else 1
    if isinstance(base, AdditivePotGood):
        if (e * base.delta) % 12 == 0:
            return 1
        return unpinned
    if isinstance(base, AdditivePotMult):
        if becomes_split is True and ell is not None and ell != 2:
            return base.n * e
        return unpinned
    raise TypeError(f"unknown reduction descriptor {base!r}")


REFEREE_BASES = ([Good()] + [cls(n) for cls in (SplitMult, NonsplitMult, AdditivePotMult)
                             for n in (1, 2, 3, 5, 6)]
                 + [AdditivePotGood(delta) for delta in (1, 2, 3, 4, 6, 9, 10, 12, 14)])


@pytest.mark.parametrize("p", [5, 7])
def test_each_descriptor_rule_matches_the_ladder(p):
    for base in REFEREE_BASES:
        for e in (1, 2, p, 2 * p):
            for f in (1, 2):
                for ell in (2, 3, 5, 7, p):
                    for becomes_split in (None, False, True):
                        args = (e, f, ell, becomes_split)
                        assert base._tamagawa(*args) == ladder_tamagawa(base, *args), \
                            (base, args)


@pytest.mark.parametrize("p", [5, 7])
def test_tamagawa_over_matches_the_ladder_on_every_place(p):
    for base in REFEREE_BASES:
        for G in ALL_H:
            for I in ALL_H:
                for H in ALL_H:
                    try:
                        e, f = degrees(p, G, I, H)
                    except ValueError:
                        continue  # inertia outside decomposition
                    for ell in (2, 3, 5, 7, p):
                        for becomes_split in (None, False, True):
                            got = tamagawa_over(base, p, G, I, H, ell=ell,
                                                becomes_split=becomes_split)
                            assert got == ladder_tamagawa(base, e, f, ell, becomes_split)


@pytest.mark.parametrize("ell", [4, 1, 0, -5, True, 5.0, "5"])
def test_tamagawa_over_checks_ell_as_a_setting_does(ell):
    with pytest.raises(InadmissibleSettingError, match=f"^ell must be prime, got {ell!r}$"):
        tamagawa_over(AdditivePotMult(3), 5, D2P, D2P, TRIVIAL, ell=ell,
                      becomes_split=True)


@pytest.mark.parametrize("flag", [1, 0, "yes", "", 1.0])
def test_tamagawa_over_takes_only_a_bool_becomes_split(flag):
    with pytest.raises(InadmissibleSettingError,
                       match=f"^becomes_split must be None or a bool, got {flag!r}$"):
        tamagawa_over(AdditivePotMult(3), 5, D2P, D2P, TRIVIAL, ell=5,
                      becomes_split=flag)


def test_tamagawa_over_answers_each_becomes_split():
    def over(flag):
        return tamagawa_over(AdditivePotMult(3), 5, D2P, D2P, TRIVIAL, ell=5,
                             becomes_split=flag)
    assert over(True) == 30
    assert over(False) == over(None) == ConstrainedRange((1, 2, 3, 4))


# --- period ratio parity ---------------------------------------------------

@pytest.mark.parametrize("r", [0, -1, True, 1.5, "1"])
def test_omega_checks_r_as_a_setting_does(r):
    with pytest.raises(InadmissibleSettingError,
                       match=f"^r must be a positive integer, got {r!r}$"):
        omega_ordp_parity(AdditivePotGood(2), 5, 5, r, D2P, D2P, TRIVIAL)


@pytest.mark.parametrize("ell", [4, 1, 0, -5, True, 5.0, None])
def test_omega_checks_ell_as_a_setting_does(ell):
    with pytest.raises(InadmissibleSettingError, match=f"^ell must be prime, got {ell}$"):
        omega_ordp_parity(AdditivePotGood(2), ell, 5, 1, D2P, D2P, TRIVIAL)


def test_tamagawa_and_omega_reject_what_is_not_a_descriptor():
    with pytest.raises(TypeError, match="^unknown reduction descriptor 'split'$"):
        tamagawa_over("split", 5, D2P, CP, TRIVIAL, ell=7)
    # the period ratio checks the descriptor first, at every ell
    with pytest.raises(TypeError, match="^unknown reduction descriptor 'split'$"):
        omega_ordp_parity("split", 5, 5, 1, D2P, D2P, TRIVIAL)


@pytest.mark.parametrize("base, p, G, H", [
    ("split", 5, D2P, TRIVIAL),           # not a descriptor
    (Good(), 4, D2P, TRIVIAL),            # not an odd prime
    (Good(), 5, D2P, dihedral_p_power(3)),    # an H that does not fit in D_2p
    (SplitMult(2), 5, cyclic_p_power(3), CP),  # a G_v that does not fit
])
def test_omega_away_from_p_rejects_what_tamagawa_over_rejects(base, p, G, H):
    with pytest.raises(Exception) as want:
        tamagawa_over(base, p, G, CP, H, ell=7)
    with pytest.raises(Exception) as got:
        omega_ordp_parity(base, 7, p, 1, G, CP, H)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_omega_is_a_unit_at_wild_places():
    # the period ratio at 2 or 3 is a power of ell, a unit at p >= 5
    for ell in (2, 3):
        for base in (Good(), SplitMult(3), NonsplitMult(2), AdditivePotMult(4),
                     AdditivePotGood(2), AdditivePotGood(12)):
            for G, I in ((D2P, CP), (CP, CP), (ORDER2, ORDER2)):
                for H in ALL_H:
                    assert omega_ordp_parity(base, ell, 5, 1, G, I, H) == 1
    # at ell = p = 3 the place itself is wild
    with pytest.raises(ValueError, match="wild"):
        omega_ordp_parity(AdditivePotGood(2), 3, 3, 1, D2P, D2P, TRIVIAL)


def test_omega_trivial_cases():
    assert omega_ordp_parity(Good(), 11, 5, 1, D2P, CP, TRIVIAL) == 1
    assert omega_ordp_parity(SplitMult(2), 5, 5, 1, D2P, CP, TRIVIAL) == 1
    assert omega_ordp_parity(NonsplitMult(2), 5, 5, 3, D2P, CP, ORDER2) == 1
    # additive but at a prime other than p
    assert omega_ordp_parity(AdditivePotGood(3), 7, 5, 1, D2P, D2P, TRIVIAL) == 1
    # potentially multiplicative at p contributes evenly
    assert omega_ordp_parity(AdditivePotMult(2), 5, 5, 1, D2P, D2P, TRIVIAL) == 1


def test_omega_additive_at_p():
    # exponent is r * f * floor(delta * e / 12); here e = 10, f = 1
    cases = {2: -1, 3: 1, 4: -1, 6: -1, 8: 1, 9: -1, 10: 1}
    for delta, sign in cases.items():
        got = omega_ordp_parity(AdditivePotGood(delta), 5, 5, 1, D2P, D2P, TRIVIAL)
        assert got == sign, delta
        # doubling r always evens the exponent out
        assert omega_ordp_parity(AdditivePotGood(delta), 5, 5, 2, D2P, D2P, TRIVIAL) == 1
    # smaller e through a bigger H
    assert omega_ordp_parity(AdditivePotGood(2), 5, 5, 1, D2P, D2P, CP) == 1
    assert omega_ordp_parity(AdditivePotGood(3), 5, 5, 1, D2P, D2P, ORDER2) == -1
