"""Behaviour of local invariants of an elliptic curve under base change
inside a D_{2p} extension.

A place of the subfield fixed by H is described by the decomposition and
inertia subgroups (G_v, I_v) of a place above it, all given as standard
subgroups of D_{2p}.  `degrees` returns its ramification and residue
degrees over the rational base place, `tamagawa_over` the Tamagawa number
of the curve there (exact whenever group data determines it, otherwise a
small constrained range whose p-valuation is still pinned for p >= 5),
and `omega_ordp_parity` the parity of the p-valuation of the local period
ratio.  Each checks its arguments and then calls its unchecked half
(`_degrees`, the descriptor's own `_tamagawa` and `_period` rules), which
the parity engine calls directly on settings that `LocalSetting` has
checked.
"""

from __future__ import annotations

import enum
from functools import partial
from math import gcd, lcm

from .arith import brief, check_positive, check_prime, is_positive_int, valuation
from .lattice import InvalidSubgroupError, SubgroupTag, check_odd_prime
from .records import Record


# --- reduction descriptors over the base field -----------------------------

class InvalidDescriptorError(ValueError):
    """A descriptor's valuation is not a positive integer."""


class InadmissibleSettingError(ValueError):
    """The local setting is internally inconsistent."""


check_ell = partial(check_prime, name="ell", error=InadmissibleSettingError)
check_r = partial(check_positive, name="r", error=InadmissibleSettingError)


class QuadCharClass(enum.Enum):
    TRIVIAL = "trivial"
    UNRAMIFIED = "unramified"
    RAMIFIED = "ramified"


class ReductionDescriptor(Record):
    """The reduction of a curve over the base field.  Each kind carries
    `chi`, the class of the quadratic twist that makes it split
    multiplicative (None when no twist does), `branch`, its label in the
    c-side trace, `_tamagawa`, its Tamagawa number at a place of degrees
    (e, f) over the base, and `_period`, the parity of ord_p of its local
    period ratio there, or None where that ratio is a p-adic unit at every
    place, as it is for all but additive potentially good reduction."""
    __slots__ = ()
    chi: QuadCharClass | None = None
    branch: str
    _period = None


class Good(ReductionDescriptor):
    """Good reduction."""
    __slots__ = ()
    branch = "good"

    def _tamagawa(self, e, f, ell, becomes_split):
        return 1


class _PositiveN(ReductionDescriptor):
    """A descriptor carrying a valuation n >= 1.  Records compare equal only
    within one type, so descriptors of different types never do."""
    __slots__ = ("n",)

    def __init__(self, n: int):
        check_positive(n, "n", InvalidDescriptorError)
        self.n = n


class SplitMult(_PositiveN):
    """Split multiplicative reduction; n = valuation of the minimal
    discriminant = -v(j)."""
    __slots__ = ()
    chi = QuadCharClass.TRIVIAL
    branch = "split-multiplicative"

    def _tamagawa(self, e, f, ell, becomes_split):
        return self.n * e


class NonsplitMult(_PositiveN):
    """Nonsplit multiplicative reduction; n = valuation of the minimal
    discriminant."""
    __slots__ = ()
    chi = QuadCharClass.UNRAMIFIED
    branch = "nonsplit-multiplicative"

    def _tamagawa(self, e, f, ell, becomes_split):
        # the quadratic unramified class dies exactly when f is even
        if f % 2 == 0:
            return self.n * e
        return 2 if (self.n * e) % 2 == 0 else 1


class AdditivePotMult(_PositiveN):
    """Additive reduction, potentially multiplicative; n = -v(j) > 0."""
    __slots__ = ()
    chi = QuadCharClass.RAMIFIED
    branch = "additive-pot-multiplicative"

    def _tamagawa(self, e, f, ell, becomes_split):
        if becomes_split is True and ell is not None and ell != 2:
            return self.n * e
        return _UNPINNED


class AdditivePotGood(ReductionDescriptor):
    """Additive reduction, potentially good; delta = valuation of the
    minimal discriminant: in `parity.POT_GOOD_DELTAS` at ell >= 5, any at 2 and 3."""
    __slots__ = ("delta",)
    branch = "additive-pot-good"

    def __init__(self, delta: int):
        check_positive(delta, "delta", InvalidDescriptorError)
        self.delta = delta

    def _tamagawa(self, e, f, ell, becomes_split):
        if (e * self.delta) % 12 == 0:
            return 1  # reduction turns good over the extension
        return _UNPINNED

    def _period(self, e, f, ell, p, r):
        # at ell = p, the exponent r f floor(delta e / 12); away from p, at
        # 2 and 3 too, the ratio is a power of ell, so a p-adic unit
        return r * f * ((self.delta * e) // 12) % 2 if ell == p else 0


class ConstrainedRange(Record):
    """A Tamagawa number known only up to a small finite set.  Each pinned
    `ord_parity` is kept, per q, in _parities."""
    __slots__ = ("members", "_parities")

    def __init__(self, members: tuple[int, ...]):
        if not members or not all(map(is_positive_int, members)):
            raise ValueError(f"members must be positive integers, got {brief(members)}")
        self.members = tuple(sorted(set(members)))
        self._parities = {}

    def ord_parity(self, q: int) -> int:
        """Common parity of the q-valuation over all members; raises if the
        members disagree, on every call."""
        parity = self._parities.get(q)
        if parity is None:
            parities = {valuation(m, q) % 2 for m in self.members}
            if len(parities) != 1:
                raise RuntimeError(f"{q}-valuation parity is ambiguous over {self.members}")
            parity = self._parities[q] = parities.pop()
        return parity


_UNPINNED = ConstrainedRange((1, 2, 3, 4))  # additive, not fixed by group data


# --- degrees ---------------------------------------------------------------

def degrees(p: int, G_v: SubgroupTag, I_v: SubgroupTag,
            H: SubgroupTag) -> tuple[int, int]:
    """(e_H, f_H): ramification and residue degree over the base place of
    the induced place of the field fixed by H.

    e_H = [I_v : I_v cap H],  f_H = [G_v : I_v (H cap G_v)].
    """
    check_odd_prime(p)
    for tag in (G_v, I_v, H):
        if tag.level > 1:
            raise InvalidSubgroupError(f"{tag} does not fit inside D_2p")
    if G_v.order(p) % I_v.order(p):
        raise ValueError(f"inertia {I_v.label} is not inside decomposition {G_v.label}")
    return _degrees(p, G_v, I_v, H)


def _degrees(p: int, G_v: SubgroupTag, I_v: SubgroupTag,
             H: SubgroupTag) -> tuple[int, int]:
    """`degrees` for arguments already checked, as a LocalSetting's are.  The
    standard subgroups of D_2p all hold the same reflection, so each is fixed
    by its order, and meet and join are the gcd and lcm of orders."""
    g, i, h = G_v.order(p), I_v.order(p), H.order(p)
    return i // gcd(i, h), g // lcm(i, gcd(h, g))


# --- Tamagawa numbers over the extension place -----------------------------

def tamagawa_over(base: ReductionDescriptor, p: int, G_v: SubgroupTag,
                  I_v: SubgroupTag, H: SubgroupTag, *, ell: int | None = None,
                  becomes_split: bool | None = None) -> int | ConstrainedRange:
    """Tamagawa number at the induced place of the H-fixed field.

    Exact for good and multiplicative reduction; for additive reduction the
    answer depends on data beyond (G_v, I_v), so a constrained range is
    returned unless the caller certifies the potentially multiplicative
    twist dies and lands split (becomes_split, needs ell != 2).  ell, when
    given, must be prime, and becomes_split must be None or a bool.
    """
    e, f = degrees(p, G_v, I_v, H)
    if not isinstance(base, ReductionDescriptor):
        raise TypeError(f"unknown reduction descriptor {base!r}")
    if ell is not None:
        check_ell(ell)
    if becomes_split is not None and not isinstance(becomes_split, bool):
        raise InadmissibleSettingError(
            f"becomes_split must be None or a bool, got {becomes_split!r}")
    return base._tamagawa(e, f, ell, becomes_split)


# --- period ratio ----------------------------------------------------------

def omega_ordp_parity(base: ReductionDescriptor, ell: int, p: int, r: int,
                      G_v: SubgroupTag, I_v: SubgroupTag,
                      H: SubgroupTag) -> int:
    """+1 or -1: parity of ord_p of the local period ratio at the induced
    place, for a curve of multiplicity r at the prime ell; r must be a
    positive integer.  The ratio is a p-adic unit except for additive
    potentially good reduction at ell = p: away from p, at 2 and 3 too, it
    is a power of ell (the descriptor's `_period` rule).  Needs p >= 5 when
    ell = p.
    """
    if not isinstance(base, ReductionDescriptor):
        raise TypeError(f"unknown reduction descriptor {base!r}")
    check_ell(ell)
    check_r(r)
    if ell == p and p < 5:
        raise ValueError(f"the period ratio at ell = p = {p} is wild")
    e, f = degrees(p, G_v, I_v, H)
    period = base._period
    return -1 if period is not None and period(e, f, ell, p, r) else 1
