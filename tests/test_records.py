"""The small immutable records: equality within one type, a hash that
agrees with it, and the dataclass-style repr that reports print."""

import pytest

from dihedral_parity.base_change import (AdditivePotGood, AdditivePotMult,
                                         ConstrainedRange, Good, NonsplitMult,
                                         SplitMult)
from dihedral_parity.characters import (CYCLIC, DIHEDRAL, Cyclotomic, DihedralContext,
                                        InvalidSubgroupError, SubgroupTag, irreducibles)
from dihedral_parity.parity import (GlobalVerdict, LocalSetting, LocalVerdict,
                                    verify_local)
from dihedral_parity.regulator import RationalRep, SquareClass, faithful_rep, trivial_rep
from dihedral_parity.surgery import SurgeryCertificate, certify, make_semistable
from dihedral_parity.weierstrass import InvariantSet, WeierstrassCurve, invariants


def _setting(**changes):
    fields = dict(p=5, ell=5, r=1, base=AdditivePotMult(2), G_v=DIHEDRAL,
                  I_v=DIHEDRAL, eta_equals_chi=True)
    fields.update(changes)
    return LocalSetting(**fields)


# Each row: a factory called twice for two equal, separately built values,
# and a value of the same type that differs in one field.
EQUAL_PAIRS = [
    (lambda: SubgroupTag("cyclic", 2), SubgroupTag("cyclic", 1)),
    (lambda: Cyclotomic(5, 1, (1, 0, -2, 0)), Cyclotomic(5, 1, (1, 0, 2, 0))),
    (lambda: Good(), None),
    (lambda: SplitMult(3), SplitMult(4)),
    (lambda: NonsplitMult(3), NonsplitMult(4)),
    (lambda: AdditivePotMult(3), AdditivePotMult(4)),
    (lambda: AdditivePotGood(8), AdditivePotGood(9)),
    (lambda: ConstrainedRange((4, 1, 2)), ConstrainedRange((1, 2))),
    (lambda: _setting(), _setting(eta_equals_chi=False)),
    (lambda: trivial_rep(5), trivial_rep(7)),
    (lambda: faithful_rep(5), faithful_rep(7)),
    (lambda: SquareClass.of(-18), SquareClass(2)),
]


@pytest.mark.parametrize("make,other", EQUAL_PAIRS)
def test_equal_values_hash_alike(make, other):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    if other is not None:
        assert a != other and not a == other


def test_virtual_characters_compare_by_group_and_values():
    ctx = DihedralContext(5, 1)
    a = irreducibles(ctx)[2]
    b = irreducibles(DihedralContext(5, 1))[2]  # an equal group of another context
    assert a is not b and a.group is not b.group
    assert a == b and hash(a) == hash(b)
    assert a != irreducibles(ctx)[3]


def test_descriptors_of_different_types_are_unequal():
    descriptors = [Good(), SplitMult(3), NonsplitMult(3), AdditivePotMult(3),
                   AdditivePotGood(3)]
    for i, a in enumerate(descriptors):
        for j, b in enumerate(descriptors):
            assert (a == b) == (i == j)
    assert len(set(descriptors)) == 5
    assert SubgroupTag("cyclic", 1) != ("cyclic", 1)
    assert SquareClass(2) != 2


def test_local_verdict_equality_ignores_the_traces():
    v = verify_local(_setting(ell=7, r=2, base=SplitMult(2), I_v=CYCLIC,
                              eta_equals_chi=None))
    w = LocalVerdict(v.setting, v.c_side, v.w_side)
    assert v == w and hash(v) == hash(w)
    assert v != LocalVerdict(v.setting, -v.c_side, v.w_side)
    assert LocalVerdict._compared == ("setting", "c_side", "w_side", "agree")


def test_global_verdicts_compare_by_value():
    curve = WeierstrassCurve(0, -1, 1, -10, -20)
    v = verify_local(_setting(ell=11, base=SplitMult(5), I_v=CYCLIC, eta_equals_chi=None))
    a = GlobalVerdict(curve, 5, (v,))
    assert (a.c_product, a.w_product, a.agree) == (-1, -1, True)
    assert a == GlobalVerdict(curve, 5, (v,))
    assert hash(a) == hash(GlobalVerdict(curve, 5, (v,)))
    assert a != GlobalVerdict(curve, 7, (v,))
    assert a != GlobalVerdict(curve, 5, (v, v))


def test_reprs_are_pinned():
    assert repr(SubgroupTag("cyclic", 2)) == "SubgroupTag(kind='cyclic', level=2)"
    assert repr(SubgroupTag("trivial")) == "SubgroupTag(kind='trivial', level=0)"
    assert repr(Good()) == "Good()"
    assert repr(NonsplitMult(n=3)) == "NonsplitMult(n=3)"
    assert repr(AdditivePotGood(delta=8)) == "AdditivePotGood(delta=8)"
    assert repr(ConstrainedRange((4, 1, 2, 2))) == "ConstrainedRange(members=(1, 2, 4))"
    assert repr(_setting()) == (
        "LocalSetting(p=5, ell=5, r=1, base=AdditivePotMult(n=2), "
        "G_v=SubgroupTag(kind='dihedral', level=1), "
        "I_v=SubgroupTag(kind='dihedral', level=1), eta_equals_chi=True)")
    assert repr(RationalRep(3, ((1,),), ((-1,),))) == "RationalRep(p=3, s=((1,),), t=((-1,),))"
    assert repr(SquareClass.of(-18)) == "SquareClass(representative=-2)"
    v = verify_local(_setting(ell=7, r=2, base=SplitMult(2), I_v=CYCLIC,
                              eta_equals_chi=None))
    assert repr(v).startswith("LocalVerdict(setting=LocalSetting(p=5, ell=7, r=2, ")
    assert repr(v).endswith(", c_side=-1, w_side=-1, agree=True, c_trace={'branch': "
                            "'split-multiplicative', '1': 1, 'Cp': 0}, "
                            "w_trace={'branch': 'pot-multiplicative', 'chi_class': "
                            "'trivial', 'eta_class': 'unramified', "
                            "'eta_equals_chi': False})")


def test_table_values_compare_as_plain_cyclotomics():
    z = Cyclotomic(5, 1, (0, 3, 0, -1))
    fresh = Cyclotomic(5, 1, (0, 3, 0, -1))
    assert z == fresh and hash(z) == hash(fresh)
    assert repr(z) == repr(fresh) == "Cyclotomic(p=5, n=1, coeffs=(0, 3, 0, -1))"
    table = DihedralContext(5, 1)._values[((4, 1),)]  # zeta^4 from the context's table
    assert table.coeffs == (-1, -1, -1, -1)
    plain = Cyclotomic(5, 1, table.coeffs)
    assert table == plain and hash(table) == hash(plain) and repr(table) == repr(plain)


@pytest.mark.parametrize("record,key", [
    (Good(), ()),
    (SplitMult(3), (3,)),
    (SquareClass(-2), (-2,)),
    (SubgroupTag("cyclic", 2), ("cyclic", 2)),
    (WeierstrassCurve(0, -1, 1, -10, -20), (0, -1, 1, -10, -20)),
])
def test_the_hash_is_that_of_the_tuple_of_compared_fields(record, key):
    # one attrgetter reads two or more fields; keys are tuples for any count
    assert hash(record) == hash(key)


def test_weierstrass_curves_compare_by_coefficients():
    e = WeierstrassCurve(0, -1, 1, -10, -20)
    assert repr(e) == "WeierstrassCurve(0, -1, 1, -10, -20)"
    same = WeierstrassCurve(a1=0, a2=-1, a3=1, a4=-10, a6=-20)
    assert e == same and hash(e) == hash(same) == hash(e.coefficients())
    assert e != WeierstrassCurve(0, -1, 1, -10, -21)
    assert e != (0, -1, 1, -10, -20)
    # the invariants are fields, set once, but equality reads a1 ... a6 only
    assert (e.b2, e.c4, e.c6, e.discriminant) == (-4, 496, 20008, -161051)
    assert WeierstrassCurve._compared == ("a1", "a2", "a3", "a4", "a6")
    with pytest.raises(TypeError, match="coefficient a3 must be an int, got True"):
        WeierstrassCurve(0, 0, True, 0, 1)
    with pytest.raises(TypeError, match="coefficient a1 must be an int, got 1.0"):
        WeierstrassCurve(1.0, 0, 0, 0, 1)


def test_curve_layer_records_compare_hash_and_print_as_before():
    # the reprs are those the frozen dataclasses printed; the hash is that of
    # the tuple of all fields, as theirs was
    def build():
        curve = WeierstrassCurve(0, -1, 1, -10, -20)
        plan = make_semistable(curve, 11, 5)
        return invariants(curve), plan, certify(plan)

    first, second = build(), build()
    for a, b in zip(first, second):
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(a) == hash(tuple(getattr(a, name) for name in a._fields))
    inv, plan, cert = first
    assert repr(inv) == ("InvariantSet(b2=-4, b4=-20, b6=-79, b8=-21, c4=496, c6=20008, "
                         "discriminant=-161051, j=Fraction(-122023936, 161051))")
    assert repr(plan) == (
        "SurgeryPlan(original=WeierstrassCurve(0, -1, 1, -10, -20), p0=11, v=5, n=8, "
        "d1=1071794405, d2=1500512167, d3=857435524, d4=0, c=0, "
        "after_step1=(1071794405, -1, 1, -10, -20), "
        "after_step2=(1071794405, 1500512166, 857435525, -10, -20), "
        "final=WeierstrassCurve(1071794405, 1500512166, 857435525, -10, -20))")
    assert repr(cert) == (
        "SurgeryCertificate(ok=True, p0_match=True, p0_before=('I5', 5, 5, 1), "
        "p0_after=('I5', 5, 5, 1), v_class='multiplicative', v_split='split', "
        "residual_gcd=1)")
    assert plan != make_semistable(plan.original, 11, 7)
    with pytest.raises(TypeError):
        InvariantSet(-4, -20, -79, -21, 496, 20008, -161051, inv.j)  # keywords only
    with pytest.raises(TypeError):
        SurgeryCertificate(True, True, (), (), "multiplicative", "split", 1)


def test_validation_messages_are_kept():
    with pytest.raises(InvalidSubgroupError, match="cyclic needs level >= 1"):
        SubgroupTag("cyclic")
    with pytest.raises(InvalidSubgroupError, match="unknown subgroup kind 'x'"):
        SubgroupTag("x")
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        SplitMult(0)
    with pytest.raises(ValueError, match="delta must be >= 1, got 0"):
        AdditivePotGood(0)
    with pytest.raises(ValueError, match="members must be positive"):
        ConstrainedRange(())
