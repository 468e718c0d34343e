"""Behaviour of local invariants of an elliptic curve under base change
inside a D_{2p} extension.

A place of the subfield fixed by H is described by the decomposition and
inertia subgroups (G_v, I_v) of a place above it, all given as standard
subgroups of D_{2p}.  `degrees` returns its ramification and residue
degrees over the rational base place, `tamagawa_over` the Tamagawa number
of the curve there (exact whenever group data determines it, otherwise a
small constrained range whose p-valuation is still pinned for p >= 5),
and `omega_ordp_parity` the parity of the p-valuation of the local period
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

from .characters import DihedralContext, SubgroupTag
from .tate import valuation


class UnsupportedCaseError(ValueError):
    """Requested invariant is outside the supported (tame) range."""


# --- reduction descriptors over the base field -----------------------------

@dataclass(frozen=True)
class Good:
    """Good reduction."""


@dataclass(frozen=True)
class SplitMult:
    """Split multiplicative reduction; n = valuation of the minimal
    discriminant = -v(j)."""
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")


@dataclass(frozen=True)
class NonsplitMult:
    """Nonsplit multiplicative reduction; n = valuation of the minimal
    discriminant."""
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")


@dataclass(frozen=True)
class AdditivePotMult:
    """Additive reduction, potentially multiplicative; n = -v(j) > 0."""
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")


@dataclass(frozen=True)
class AdditivePotGood:
    """Additive reduction, potentially good; delta = valuation of the
    minimal discriminant (at most 11 when ell >= 5, unbounded at 2 and 3)."""
    delta: int

    def __post_init__(self):
        if self.delta < 1:
            raise ValueError(f"delta must be >= 1, got {self.delta}")


ReductionDescriptor = Good | SplitMult | NonsplitMult | AdditivePotMult | AdditivePotGood


@dataclass(frozen=True)
class ConstrainedRange:
    """A Tamagawa number known only up to a small finite set."""
    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members or any(m < 1 for m in self.members):
            raise ValueError("members must be positive")
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))

    def __contains__(self, x) -> bool:
        return x in self.members

    def __iter__(self):
        return iter(self.members)

    def ord_parity(self, q: int) -> int:
        """Common parity of the q-valuation over all members; raises if the
        members disagree."""
        parities = {valuation(m, q) % 2 for m in self.members}
        if len(parities) != 1:
            raise ValueError(f"{q}-valuation parity is ambiguous over {self.members}")
        return parities.pop()


# --- degrees ---------------------------------------------------------------

def degrees(p: int, G_v: SubgroupTag, I_v: SubgroupTag,
            H: SubgroupTag) -> tuple[int, int]:
    """(e_H, f_H): ramification and residue degree over the base place of
    the induced place of the field fixed by H.

    e_H = [I_v : I_v cap H],  f_H = [G_v : I_v (H cap G_v)].
    """
    ctx = DihedralContext(p, 1)
    gset = ctx.subgroup(G_v).element_set
    iset = ctx.subgroup(I_v).element_set
    hset = ctx.subgroup(H).element_set
    if not iset <= gset:
        raise ValueError(f"inertia {I_v.label} is not inside decomposition {G_v.label}")
    e = len(iset) // len(iset & hset)
    hg = hset & gset
    prod = {ctx.mul(a, b) for a in iset for b in hg}
    if len(gset) % len(prod):
        raise ValueError("I_v (H cap G_v) is not a subgroup here")
    f = len(gset) // len(prod)
    return e, f


# --- Tamagawa numbers over the extension place -----------------------------

def tamagawa_over(base: ReductionDescriptor, p: int, G_v: SubgroupTag,
                  I_v: SubgroupTag, H: SubgroupTag, *, ell: int | None = None,
                  becomes_split: bool | None = None) -> int | ConstrainedRange:
    """Tamagawa number at the induced place of the H-fixed field.

    Exact for good and multiplicative reduction; for additive reduction the
    answer depends on data beyond (G_v, I_v), so a constrained range is
    returned unless the caller certifies the potentially multiplicative
    twist dies and lands split (becomes_split, needs ell != 2).
    """
    e, f = degrees(p, G_v, I_v, H)
    if isinstance(base, Good):
        return 1
    if isinstance(base, SplitMult):
        return base.n * e
    if isinstance(base, NonsplitMult):
        # the quadratic unramified class dies exactly when f is even
        if f % 2 == 0:
            return base.n * e
        return 2 if (base.n * e) % 2 == 0 else 1
    if isinstance(base, AdditivePotGood):
        if (e * base.delta) % 12 == 0:
            return 1  # reduction turns good over the extension
        return ConstrainedRange((1, 2, 3, 4))
    if isinstance(base, AdditivePotMult):
        if becomes_split is True and ell is not None and ell != 2:
            return base.n * e
        return ConstrainedRange((1, 2, 3, 4))
    raise TypeError(f"unknown reduction descriptor {base!r}")


# --- period ratio ----------------------------------------------------------

def omega_ordp_parity(base: ReductionDescriptor, ell: int, p: int, r: int,
                      G_v: SubgroupTag, I_v: SubgroupTag,
                      H: SubgroupTag) -> int:
    """+1 or -1: parity of ord_p of the local period ratio at the induced
    place, for a curve of multiplicity r.  Only tame places are supported.
    """
    if ell in (2, 3):
        raise UnsupportedCaseError(f"period ratios at ell = {ell} are wild; not supported")
    if isinstance(base, (Good, SplitMult, NonsplitMult)):
        return 1
    if ell != p:
        return 1
    if isinstance(base, AdditivePotGood):
        e, f = degrees(p, G_v, I_v, H)
        exponent = r * f * ((base.delta * e) // 12)
        return -1 if exponent % 2 else 1
    if isinstance(base, AdditivePotMult):
        return 1
    raise TypeError(f"unknown reduction descriptor {base!r}")
