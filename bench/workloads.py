"""The four workloads: seeded inputs, one operation each, and the checks.

A workload is a list of items, one operation per item.  A run repeats the
whole list (a round) until its time is up, so every run attempts the same
operations in the same proportions, and `check` judges one item's output
with the independent oracles in `oracle.py`.  Library errors (ValueError,
ArithmeticError and their subclasses) count as failed operations.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from pathlib import Path

from sympy import factorint

import dihedral_parity as dp
from dihedral_parity import characters, parity, regulator
from dihedral_parity.base_change import (AdditivePotMult, ConstrainedRange,
                                         omega_ordp_parity, tamagawa_over)

import oracle

OP_ERRORS = (ValueError, ArithmeticError)

GROUP_PRIMES = (5, 7, 11, 13)
_TAGS = {"1": characters.TRIVIAL, "D2": characters.ORDER2,
         "Cp": characters.cyclic_p_power(1), "D2p": characters.dihedral_p_power(1)}
# Admissible (G_v, I_v) pairs; dihedral inertia needs ell = p.
_PAIRS = (("1", "1"), ("D2", "1"), ("D2", "D2"), ("Cp", "1"), ("Cp", "Cp"),
          ("D2p", "Cp"), ("D2p", "D2p"))

# Curves that hit the delta >= 12 fault of AdditivePotGood at 2 (I2* with
# delta 12, and II* with delta 14).  They are the same in every run, so the
# share of failed operations does not depend on the seed.
FAULT_CURVES = ((-6, 3, -20, 0, 12), (-20, -12, 20, 8, -4))


def bad_primes(a) -> list[int]:
    return sorted(int(q) for q in factorint(abs(oracle.c4_c6_delta(a)[2])))


def _depth_model(rng, ell: int, depth: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(ell ** k * rng.randint(-9, 9) for k in depth)


DEPTHS = ((1, 1, 1, 1, 1), (1, 1, 2, 2, 3), (1, 2, 2, 3, 4))


def curve_kinds(n: int) -> list[tuple]:
    """The make-up of n curves in fixed proportions, so that seeds differ
    in the curves drawn, not in the mix: two fifths small, two fifths deep
    at ell in {2, 3, 5, 7} with each depth pattern, one fifth rescaled by
    u in {2, 3, 5}."""
    kinds = []
    for i in range(n):
        j = i // 5
        if i % 5 < 2:
            kinds.append(("small",))
        elif i % 5 < 4:
            k = 2 * j + i % 5 - 2
            kinds.append(("deep", (2, 3, 5, 7)[k % 4], DEPTHS[k // 4 % 3]))
        else:
            kinds.append(("rescaled", (2, 3, 5)[j % 3]))
    return kinds


def random_curve(rng, kind) -> tuple[int, ...]:
    """A nonsingular integral model of the given kind.  Before any
    rescaling the valuation of Delta at 2 and 3 is below 12, so the
    minimal discriminant valuation there is too."""
    while True:
        if kind[0] == "deep":
            a = _depth_model(rng, kind[1], kind[2])
        else:
            a = tuple(rng.randint(-30, 30) for _ in range(5))
        d = oracle.c4_c6_delta(a)[2]
        if d != 0 and oracle.val(d, 2) < 12 and oracle.val(d, 3) < 12:
            break
    return oracle.scale_up(a, kind[1]) if kind[0] == "rescaled" else a


def random_completion(rng, a, bad, p) -> dict[int, tuple[str, str, bool | None]]:
    """Admissible local data at every bad prime, as file tokens."""
    out = {}
    for ell in bad:
        pairs = [pr for pr in _PAIRS if pr[1] != "D2p" or ell == p]
        g, i = rng.choice(pairs)
        flag = None
        if i == "D2p":
            want = oracle.reduction_at(a, ell)
            if want["conductor"] == 2 and want["pot_mult"]:
                flag = rng.random() < 0.5
        out[ell] = (g, i, flag)
    return out


def _choose_p(rng, bad) -> int:
    at_bad = [q for q in GROUP_PRIMES if q in bad]
    if at_bad and rng.random() < 0.5:
        return rng.choice(at_bad)
    return rng.choice(GROUP_PRIMES)


def _tags(completion):
    return {ell: (_TAGS[g], _TAGS[i], flag) for ell, (g, i, flag) in completion.items()}


class Workload:
    """Items, the operation on one item, and its check."""
    name = ""
    items: list
    # whether every round's outputs must equal the first round's
    compare_rounds = False

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# --- curves ----------------------------------------------------------------

@dataclass
class CurveItem:
    a: tuple[int, ...]
    bad: list[int]
    p: int
    r: int
    completion: dict
    rst: tuple[int, int, int]


def _reduction_key(d):
    return (d.kodaira, d.delta, d.tamagawa, d.conductor_exp, d.split)


class Curves(Workload):
    """Reduce a curve at each bad prime and run the global identity."""
    name = "curves"
    SEEDED = 574

    def __init__(self, seed: int):
        rng = random.Random(seed)
        fixed = random.Random(0)
        self.items = []
        kinds = curve_kinds(self.SEEDED)
        for k in range(self.SEEDED + len(FAULT_CURVES)):
            a = random_curve(rng, kinds[k]) if k < self.SEEDED else FAULT_CURVES[k - self.SEEDED]
            src = rng if k < self.SEEDED else fixed
            bad = bad_primes(a)
            p = _choose_p(src, bad)
            self.items.append(CurveItem(
                a, bad, p, src.choice((1, 2)),
                _tags(random_completion(src, a, bad, p)),
                tuple(src.randint(-5, 5) for _ in range(3))))

    def run(self, item: CurveItem):
        E = dp.WeierstrassCurve(*item.a)
        reductions = [dp.local_reduction(E, ell) for ell in item.bad]
        return reductions, dp.global_parity(E, item.p, item.completion, r=item.r)

    def check(self, item: CurveItem, out) -> list[str]:
        reductions, verdict = out
        problems = []
        for ell, d in zip(item.bad, reductions):
            if ell >= 5 and not oracle.reduction_matches(d, ell, item.a):
                problems.append(f"{item.a} at {ell}: {d} disagrees with the table")
            for alt in (oracle.change_rst(item.a, *item.rst), oracle.scale_up(item.a, ell)):
                again = dp.local_reduction(dp.WeierstrassCurve(*alt), ell)
                if _reduction_key(again) != _reduction_key(d):
                    problems.append(f"{item.a} at {ell}: {alt} reduces differently")
        if not verdict.agree:
            problems.append(f"{item.a}: the two sides disagree")
        if verdict.c_product != prod(v.c_side for v in verdict.locals) \
                or verdict.w_product != prod(v.w_side for v in verdict.locals):
            problems.append(f"{item.a}: products are not the products of local signs")
        places = [v.setting.ell for v in verdict.locals]
        if places != [ell for ell, d in zip(item.bad, reductions) if d.conductor_exp]:
            problems.append(f"{item.a}: identity ran at {places}")
        return problems


# --- surgery ---------------------------------------------------------------

def additive_curve(rng, p0: int) -> tuple[int, ...]:
    """A model with every a_i divisible by p0 and v_p0(Delta) < 12: it is
    minimal at p0 and reduces to the cusp y^2 = x^3, so the fibre is additive."""
    while True:
        a = _depth_model(rng, p0, (1, 1, 1, rng.choice((1, 2)), rng.choice((1, 2, 3))))
        d = oracle.c4_c6_delta(a)[2]
        if d != 0 and oracle.val(d, p0) < 12:
            return a


class Surgery(Workload):
    """make_semistable + certify.  Factoring cost per curve is heavy-tailed
    (under 1 ms to seconds), so the factor-heavy part at p0 in {3, 5, 7, 11}
    is a fixed set drawn once from seed 0, and the seed draws the rest at
    p0 = 2.  Throughput then does not hinge on which curves a seed drew."""
    name = "surgery"
    CORE_P0 = (3, 5, 7, 11)
    CORE_PER_P0 = 3
    SEEDED = 432

    def __init__(self, seed: int):
        self.items = []
        core = random.Random(0)
        for p0 in self.CORE_P0:
            for _ in range(self.CORE_PER_P0):
                v = core.choice([q for q in (3, 5, 7) if q != p0])
                self.items.append((additive_curve(core, p0), p0, v))
        rng = random.Random(seed)
        for _ in range(self.SEEDED):
            self.items.append((additive_curve(rng, 2), 2, rng.choice((3, 5, 7, 11, 13))))

    def run(self, item):
        a, p0, v = item
        plan = dp.make_semistable(dp.WeierstrassCurve(*a), p0, v)
        return plan, dp.certify(plan)

    def check(self, item, out) -> list[str]:
        a, p0, v = item
        plan, cert = out
        shifts = (plan.d1, plan.d2, plan.d3, plan.d4, plan.c)
        problems = oracle.surgery_problems(a, plan.final.coefficients(), shifts, p0, v, plan.n)
        if not cert.ok:
            problems.append("certificate not ok")
        return [f"{a} p0={p0} v={v}: {msg}" for msg in problems]


# --- algebra ---------------------------------------------------------------

PAPER_RESIDUES = (1, 5, 7, 11)


def theta_route_sign(s) -> int:
    """The c side rebuilt from the base-change primitives: of the
    subgroups in Theta only 1 and C_p carry odd weight, each counted once
    per place of its fixed field above v."""
    order = {"trivial": 1, "order2": 2, "cyclic": s.p, "dihedral": 2 * s.p}
    places_full = 2 * s.p // order[s.G_v.kind]
    places_quad = 1 if s.G_v.kind in ("order2", "dihedral") else 2
    becomes = None
    if isinstance(s.base, AdditivePotMult) and s.I_v.kind == "dihedral":
        becomes = s.eta_equals_chi
    total = 0
    for H, places in ((_TAGS["1"], places_full), (_TAGS["Cp"], places_quad)):
        tam = tamagawa_over(s.base, s.p, s.G_v, s.I_v, H, ell=s.ell, becomes_split=becomes)
        par = tam.ord_parity(s.p) if isinstance(tam, ConstrainedRange) \
            else oracle.val(tam, s.p) % 2
        if s.ell not in (2, 3) and \
                omega_ordp_parity(s.base, s.ell, s.p, s.r, s.G_v, s.I_v, H) == -1:
            par += 1
        total += places * par
    return -1 if total % 2 else 1


class Algebra(Workload):
    """The local theory without curves: parity sweeps, character theory,
    the tower identity and regulator constants.  The seed draws the
    pairing seeds; the groups are fixed so every round costs the same."""
    name = "algebra"
    CHAR_GROUPS = ((5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (3, 3))
    TOWERS = (5, 7)
    REGULATOR_PRIMES = (5, 7, 11)
    REPS = ("1", "eta", "rho2", "1+eta+rho2")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.items = [("sweep", p) for p in GROUP_PRIMES]
        self.items += [("chars", p, n) for p, n in self.CHAR_GROUPS]
        self.items += [("tower", p) for p in self.TOWERS]
        self.items += [("regulator", p, rep, rng.randrange(10 ** 6))
                       for p in self.REGULATOR_PRIMES for rep in self.REPS]

    def run(self, item):
        kind = item[0]
        if kind == "sweep":
            settings = dp.enumerate_settings(item[1])
            verdicts = [(v.c_side, v.w_side) for v in map(dp.verify_local, settings)]
            return settings, verdicts, parity.pot_good_table("c"), parity.pot_good_table("w")
        if kind == "chars":
            return self._chars(*item[1:])
        if kind == "tower":
            return dp.verify_reduction_identity(item[1], 2)
        _, p, rep_name, pairing_seed = item
        parts = {"1": regulator.trivial_rep, "eta": regulator.sign_rep,
                 "rho2": regulator.faithful_rep}
        if rep_name in parts:
            rep = parts[rep_name](p)
        else:
            rep = regulator.direct_sum(*(f(p) for f in parts.values()))
        value = dp.regulator_constant(rep, seed=pairing_seed)
        return value, dp.SquareClass.of(value).representative

    @staticmethod
    def _chars(p: int, n: int):
        ctx = dp.DihedralContext(p, n)
        G = ctx.full()
        irr = dp.irreducibles(ctx)
        gram = [[characters.inner_product(a, b) for b in irr] for a in irr]
        frobenius = []
        for level in range(1, n + 1):
            H = ctx.subgroup(characters.cyclic_p_power(level))
            for t, f in enumerate(characters.cyclic_characters(ctx, level)):
                induced = characters.induce(f, G)
                for index, g in enumerate(irr):
                    frobenius.append((level, t, index,
                                      characters.inner_product(induced, g),
                                      characters.inner_product(f, characters.restrict(g, H))))
        return [[v.coeffs for v in chi.values] for chi in irr], gram, frobenius

    def check(self, item, out) -> list[str]:
        kind = item[0]
        if kind == "sweep":
            settings, verdicts, tc, tw = out
            bad = sum(1 for s, (c, w) in zip(settings, verdicts)
                      if c != w or c != theta_route_sign(s))
            problems = [f"sweep p={item[1]}: {bad} settings off"] if bad else []
            for side, table in (("c", tc), ("w", tw)):
                if table != oracle.PAPER_TABLE:
                    problems.append(f"sign table from side {side} differs from the paper")
            return problems
        if kind == "chars":
            return self._check_chars(*item[1:], *out)
        if kind == "tower":
            return [] if out is True else [f"tower identity fails at ({item[1]}, 2)"]
        _, p, rep_name, pairing_seed = item
        value, representative = out
        exact = {"1": Fraction(1, p), "eta": Fraction(p)}
        if rep_name in exact and value != exact[rep_name]:
            return [f"C_Theta({rep_name}) at p={p} is {value}"]
        if not oracle.is_square_class_of(value, p) or representative != p:
            return [f"C_Theta({rep_name}) at p={p}, seed {pairing_seed} is not p mod squares"]
        return []

    @staticmethod
    def _check_chars(p, n, values, gram, frobenius) -> list[str]:
        F = oracle.RootField(p, n)
        m = p ** n
        problems = []
        ident = [[int(i == j) for j in range(len(values))] for i in range(len(values))]
        if len(values) != (m + 3) // 2:
            problems.append(f"D_{2 * m}: {len(values)} irreducibles")
        if sum(chi[0][0] ** 2 for chi in values) != 2 * m:
            problems.append(f"D_{2 * m}: degrees squared do not sum to {2 * m}")
        if gram != ident or F.gram(values) != ident:
            problems.append(f"D_{2 * m}: irreducibles are not orthonormal")
        for level, t, index, lhs, rhs in frobenius:
            if not lhs == rhs == F.frobenius_rhs(level, t, index):
                problems.append(f"D_{2 * m}: Frobenius reciprocity fails at "
                                f"level {level}, character {t}, irreducible {index}")
        return problems


# --- cli -------------------------------------------------------------------

@dataclass
class Command:
    name: str
    args: list[str]
    expect: dict = field(default_factory=dict)


# A child that runs this long has hung; it is killed and counts as failed.
CHILD_TIMEOUT_S = 60


class Cli(Workload):
    """One fresh `dihedral-parity` process per operation, one of each
    subcommand per round, every one writing --json.  Rounds must write
    byte-identical reports."""
    name = "cli"
    compare_rounds = True

    def __init__(self, seed: int, root: Path, workdir: Path):
        rng = random.Random(seed)
        self.root = root
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        curves = [random_curve(rng, kind) for kind in (("small",), ("deep", 2, DEPTHS[1]),
                                                        ("rescaled", 3))]
        (workdir / "reduce.txt").write_text(_curve_lines(curves))
        gcurve = random_curve(rng, ("small",))
        p = _choose_p(rng, bad_primes(gcurve))
        completion = random_completion(rng, gcurve, bad_primes(gcurve), p)
        (workdir / "global.txt").write_text(_curve_lines([gcurve]))
        (workdir / "completion.txt").write_text("".join(
            f"{ell} {g} {i}" + ("" if flag is None else f" {str(flag).lower()}") + "\n"
            for ell, (g, i, flag) in sorted(completion.items())))
        scurve = additive_curve(rng, 2)
        (workdir / "surgery.txt").write_text(_curve_lines([scurve]))
        self.context = {"reduce": curves, "global": [gcurve], "surgery": (scurve, 2)}
        self.items = [
            Command("reduce", ["reduce", str(workdir / "reduce.txt")]),
            Command("chars", ["chars", "--p", "5", "--n", "2", "--verify-reduction"],
                    {"p": 5, "n": 2}),
            Command("regulator", ["regulator", "--p", "7", "--seed",
                                  str(rng.randrange(10 ** 6))], {"p": 7}),
            Command("verify-local", ["verify-local", "--p", str(rng.choice(GROUP_PRIMES)),
                                     "--sweep", "--emit-table"]),
            Command("verify-global", ["verify-global", str(workdir / "global.txt"),
                                      "--p", str(p), "--completion",
                                      str(workdir / "completion.txt")]),
            Command("surgery", ["surgery", str(workdir / "surgery.txt"), "--p0", "2",
                                "--v", str(rng.choice((3, 5, 7)))]),
        ]
        # set while tracing: children then run through tracing.py into this directory
        self.trace_spans: Path | None = None
        self.runs = 0

    def run(self, item: Command):
        self.runs += 1
        out = self.workdir / f"out-{self.runs}.json"
        if self.trace_spans is None:
            argv = [sys.executable, "-m", "dihedral_parity.cli"]
        else:
            argv = [sys.executable, str(Path(__file__).with_name("tracing.py")),
                    str(self.trace_spans / f"spans-{self.runs}.json")]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        try:
            proc = subprocess.run(argv + item.args + ["--json", str(out)], env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise ValueError(f"{item.name} ran past {CHILD_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            raise ValueError(f"{item.name} exited {proc.returncode}: "
                             f"{proc.stderr.decode().strip()}")
        data = out.read_bytes()
        out.unlink()
        return data

    def check(self, item: Command, out: bytes) -> list[str]:
        report = json.loads(out)
        check = getattr(self, "_check_" + item.name.replace("-", "_"))
        return [f"cli {item.name}: {msg}" for msg in check(item, report)]

    def _check_reduce(self, item, report):
        problems = []
        rows = {(tuple(r["curve"]), r["ell"]): r for r in report}
        for a in self.context["reduce"]:
            if sorted(ell for c, ell in rows if c == a) != bad_primes(a):
                problems.append(f"{a}: not reduced at exactly its bad primes")
            for ell in bad_primes(a):
                row = rows.get((a, ell))
                if row and ell >= 5:
                    want = oracle.reduction_at(a, ell)
                    if (row["kodaira"], row["delta"], row["conductor_exp"], row["split"]) != \
                            (want["kodaira"], want["delta"], want["conductor"], want["split"]) \
                            or row["tamagawa"] not in want["tamagawa"]:
                        problems.append(f"{a} at {ell}: disagrees with the table")
        return problems

    def _check_chars(self, item, report):
        p, n = item.expect["p"], item.expect["n"]
        m = p ** n
        degrees = [int(r["values"][0]) for r in report["irreducibles"]]
        problems = []
        if len(degrees) != (m + 3) // 2 or sum(d * d for d in degrees) != 2 * m:
            problems.append("wrong irreducible degrees")
        if report.get("reduction_identity") is not True:
            problems.append("tower identity not reported true")
        return problems

    def _check_regulator(self, item, report):
        p = item.expect["p"]
        reps = report["reps"]
        problems = []
        if reps["1"]["value"] != f"1/{p}" or reps["eta"]["value"] != str(p):
            problems.append("C_Theta(1) or C_Theta(eta) is wrong")
        for name, entry in reps.items():
            if not oracle.is_square_class_of(Fraction(entry["value"]), p) \
                    or entry["square_class"] != p or entry["t_theta_member"] is not True:
                problems.append(f"C_Theta({name}) is not p mod squares")
        return problems

    def _check_verify_local(self, item, report):
        paper = {str(e): {str(r): oracle.PAPER_TABLE[(e, r)] for r in PAPER_RESIDUES}
                 for e in (6, 4, 3, 2)}
        problems = []
        if report["sweep_disagreements"] != 0:
            problems.append("sweep disagreements")
        if not (report["tables_match"] and report["c_side"] == report["w_side"] == paper):
            problems.append("sign tables differ from the paper")
        return problems

    def _check_verify_global(self, item, report):
        problems = []
        if [tuple(r["curve"]) for r in report] != self.context["global"]:
            problems.append("curves missing from the report")
        for r in report:
            if not r["agree"] or r["c_product"] != prod(x["c"] for x in r["locals"]) \
                    or r["w_product"] != prod(x["w"] for x in r["locals"]):
                problems.append(f"{r['curve']}: sides or products disagree")
        return problems

    def _check_surgery(self, item, report):
        a, p0 = self.context["surgery"]
        v = int(item.args[item.args.index("--v") + 1])
        (r,) = report
        problems = oracle.surgery_problems(a, r["final"], r["shifts"], p0, v, r["n"])
        if not r["ok"]:
            problems.append("certificate not ok")
        return problems

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _curve_lines(curves) -> str:
    return "".join(" ".join(map(str, a)) + "\n" for a in curves)


WORKLOADS = {"curves": Curves, "surgery": Surgery, "algebra": Algebra, "cli": Cli}
