"""Spans around the library's public functions, kept in memory.

`Tracer.install` replaces each public function of the package, and the two
sympy functions it uses, in every module namespace that holds it, so a call
is recorded wherever its caller looks the name up.  Classes are traced
through `__init__`, which covers construction and the validating checks.
A span is [name, start, end, parent index, note]; the note carries what a
per-layer ratio needs (u != 1 for transforms, digit count for factorint).
`uninstall` puts every original back.

Run as a script, this file is the traced form of the command line:

    python3 bench/tracing.py SPANS.json <dihedral-parity arguments>

runs the CLI in this process with tracing on and writes the spans as JSON.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (module, public callables); a dotted name is a classmethod.
TRACED = {
    "weierstrass": ["WeierstrassCurve", "invariants", "transform", "a6_shift_delta"],
    "tate": ["local_reduction", "potential_class", "kodaira_symbol",
             "tamagawa_number", "conductor_exponent", "split_type"],
    "parity": ["LocalSetting", "c_parity", "w_ratio", "verify_local",
               "enumerate_settings", "pot_good_table", "base_descriptor",
               "global_parity"],
    "base_change": ["degrees", "tamagawa_over", "omega_ordp_parity"],
    "characters": ["irreducibles", "eta", "two_dim", "cyclic_characters",
                   "inner_product", "restrict", "induce",
                   "verify_reduction_identity"],
    "regulator": ["RationalRep", "trivial_rep", "sign_rep", "faithful_rep",
                  "direct_sum", "invariant_pairing", "regulator_constant",
                  "SquareClass.of", "t_theta_member"],
    "surgery": ["crt", "make_semistable", "closeness_check", "certify"],
}
CLI_COMMANDS = ["reduce", "chars", "regulator", "verify-local", "verify-global", "surgery"]

NOTES = {
    "weierstrass.transform": lambda args: args[1] != 1,
    "sympy.factorint": lambda args: len(str(abs(args[0]))),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    note(args) if note else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, modules, original, wrapped) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, attr, wrapped)

    def install(self) -> None:
        import sympy
        import dihedral_parity as dp
        modules = [m for n, m in list(sys.modules.items())
                   if n == "dihedral_parity" or n.startswith("dihedral_parity.")]
        for mod_name, names in TRACED.items():
            mod = getattr(dp, mod_name)
            for name in names:
                full = f"{mod_name}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    func = cls.__dict__[meth].__func__
                    self.patch(cls, meth, classmethod(self.wrap(full, func)))
                    continue
                obj = getattr(mod, name)
                if isinstance(obj, type):
                    self.patch(obj, "__init__", self.wrap(full, obj.__init__))
                else:
                    self._replace_everywhere(modules, obj, self.wrap(full, obj))
        for name in ("factorint", "isprime"):
            original = getattr(sympy, name)
            self._replace_everywhere(modules, original,
                                     self.wrap(f"sympy.{name}", original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def summarize(spans) -> dict:
    """Per-name calls, self time and notes.  Self time is a span's duration
    minus the time its direct child spans cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent, note) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "notes": []})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        if note is not None:
            entry["notes"].append(note)
    return out


def calls_under(spans, name: str, ancestor: str) -> int:
    """Number of `name` spans that have an `ancestor` span above them."""
    count = 0
    for span_name, _, _, parent, _ in spans:
        if span_name != name:
            continue
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        count += parent >= 0
    return count


def _cli_main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    from dihedral_parity import cli
    tracer = Tracer()
    tracer.install()
    for command in CLI_COMMANDS:
        fn_name = "cmd_" + command.replace("-", "_")
        tracer.patch(cli, fn_name, tracer.wrap(f"cli.{command}", getattr(cli, fn_name)))
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        spans_path.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(_cli_main(sys.argv[1:]))
