"""The standard subgroups of D_{2p^n} and the Brauer relation Theta of D_2p.

A standard subgroup (SubgroupTag) is 1, D_2 (the reflection t), C_{p^k} or
D_{2p^k}, and its shape is read off the tag: whether it reflects, and its
order.  THETA is the relation [1] - 2[D_2] - [C_p] + 2[D_{2p}] that the
regulator constants, the parity engine and the completion-file tokens
read.  Nothing here needs character theory, so the commands that read
only the lattice do not load `characters`.
"""

from __future__ import annotations

from functools import partial

from .arith import check_prime
from .records import Record


class InvalidGroupError(ValueError):
    """p is not an odd prime, or n < 1."""


class InvalidSubgroupError(ValueError):
    """Subgroup tag outside the lattice of D_{2p^n}."""


check_odd_prime = partial(check_prime, name="p", error=InvalidGroupError, least=3)


class SubgroupTag(Record):
    """One of the standard subgroups of D_{2p^n}, up to the fixed embedding.

    kind "trivial" or "order2" (the chosen reflection), or "cyclic" /
    "dihedral" with level k meaning C_{p^k} / D_{2p^k}; a level is an int,
    not a bool, and 0 for the first two kinds.
    """
    __slots__ = ("kind", "level")

    def __init__(self, kind: str, level: int = 0):
        if not isinstance(level, int) or isinstance(level, bool):
            raise InvalidSubgroupError(f"level must be an integer, got {level!r}")
        if kind in ("trivial", "order2"):
            if level != 0:
                raise InvalidSubgroupError(f"{kind} takes no level")
        elif kind in ("cyclic", "dihedral"):
            if level < 1:
                raise InvalidSubgroupError(f"{kind} needs level >= 1")
        else:
            raise InvalidSubgroupError(f"unknown subgroup kind {kind!r}")
        self.kind = kind
        self.level = level

    @property
    def reflects(self) -> bool:
        """Whether the subgroup holds reflections: D_2 and D_{2p^k} do."""
        return self.kind in ("order2", "dihedral")

    def order(self, p: int) -> int:
        """The order of the subgroup: p^level rotations, twice that when it
        reflects."""
        return (2 if self.reflects else 1) * p ** self.level

    @property
    def label(self) -> str:
        if self.kind == "trivial":
            return "1"
        if self.kind == "order2":
            return "D2"
        base = "C" if self.kind == "cyclic" else "D2*"
        return f"{base}p^{self.level}" if self.level != 1 else ("Cp" if self.kind == "cyclic" else "D2p")


TRIVIAL = SubgroupTag("trivial")
ORDER2 = SubgroupTag("order2")


def cyclic_p_power(k: int) -> SubgroupTag:
    return SubgroupTag("cyclic", k)


def dihedral_p_power(k: int) -> SubgroupTag:
    return SubgroupTag("dihedral", k)


CYCLIC = cyclic_p_power(1)
DIHEDRAL = dihedral_p_power(1)

# The Brauer relation Theta = [1] - 2[D_2] - [C_p] + 2[D_2p] over the four
# subgroups of D_2p up to conjugacy, as (subgroup, weight) pairs.
THETA = ((TRIVIAL, 1), (ORDER2, -2), (CYCLIC, -1), (DIHEDRAL, 2))
