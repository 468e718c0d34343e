"""Exact local parity bookkeeping for elliptic curves in dihedral extensions.

Subpackages cover: integral Weierstrass models, reduction types at a prime
(Kodaira symbol, Tamagawa number, conductor exponent), character theory of
the dihedral groups D_{2p^n} in exact cyclotomic arithmetic, regulator
constants as rational square classes, base-change bookkeeping without
re-running reduction over extensions, the two-sided local parity check, and
the semistabilising curve surgery.

Importing the package loads none of them.  A public name or a submodule is
imported on first access (PEP 562), so a one-shot command pays only for
the modules it runs.  A public name is looked up in its home module on
every access, never copied here, so a patch of `tate.local_reduction` is
also what `dihedral_parity.local_reduction` returns.
"""

import importlib
import sys

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOMES = {
    "DihedralContext": "characters", "irreducibles": "characters",
    "verify_reduction_identity": "characters",
    "LocalSetting": "parity", "enumerate_settings": "parity",
    "global_parity": "parity", "verify_local": "parity",
    "RationalRep": "regulator", "SquareClass": "regulator",
    "regulator_constant": "regulator", "t_theta_member": "regulator",
    "certify": "surgery", "make_semistable": "surgery",
    "LocalReductionData": "tate", "local_reduction": "tate",
    "WeierstrassCurve": "weierstrass", "invariants": "weierstrass",
    "transform": "weierstrass",
}
_SUBMODULES = frozenset(_HOMES.values()) | {"arith", "base_change", "cli", "lattice", "records"}

__all__ = sorted(_HOMES) + ["__version__"]


def _submodule(name: str):
    # sys.modules first: every access to a public name runs through here,
    # and import_module takes about three times as long as the dict lookup
    return sys.modules.get(f"{__name__}.{name}") or importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is not None:
        return getattr(_submodule(home), name)
    if name in _SUBMODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
