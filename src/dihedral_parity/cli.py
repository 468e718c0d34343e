"""Command line interface.

Subcommands:

  reduce         Kodaira types / Tamagawa numbers / conductor exponents
  chars          character table of D_{2p^n}, reduction-identity check
  regulator      regulator constants and square classes for D_{2p}
  verify-local   the local parity identity: sweep or sign table
  verify-global  the identity at every bad prime of given curves
  surgery        make curves semistable away from a chosen prime

Curve files carry one curve per line as five integers "a1 a2 a3 a4 a6";
completion files carry lines "prime G_v I_v [true|false]" with subgroup
tokens 1, D2, Cp, D2p.  Blank lines and '#' comments are allowed in both.
Each subcommand returns its report, the --json payload, and whether the
report's verdicts passed; `main` alone writes --json and sets the exit
status: 0 all checks passed, 1 a verdict failed, 2 usage error, 3 internal
error (a failed internal consistency check, or any other fault).

`reduce` without --ell and `verify-global` find bad primes by factoring
the discriminant (for `verify-global`, only what is left after dividing
out the completion's primes).  Factoring refuses a cofactor of more than
arith.PRIME_MAX_DIGITS digits and stops at a fixed budget of rho work;
past either, the command exits 2 and names the cofactor's digit count.

Each subcommand imports the library modules it runs inside its own
function, so a fresh process loads only those: `chars`, for one, loads
`characters` and `arith` and no curve code, and `regulator`,
`verify-local` and `verify-global` read the subgroup lattice from
`lattice` and load no `characters`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .lattice import SubgroupTag
    from .weierstrass import WeierstrassCurve


# The largest group order `chars` accepts, checked before any table is
# built.  D_{2 * 5^4} (order 1250) took 1.7 s; D_{2 * 5^5} did not finish in
# a minute.
CHARS_MAX_ORDER = 1000

# The largest p `regulator` accepts, checked before any matrix is built:
# `faithful_rep` keeps p matrices of (p - 1)^2 entries, and the time grows
# about as p^4.  In one process p = 101 took 1.0 s of CPU and peaked at
# 35 MiB, p = 151 4.8 s and 84 MiB (2-core Xeon, Python 3.11).
REGULATOR_MAX_P = 101

# The widest a `chars` column is padded.  A wider cell is printed whole and
# unpadded, so the table grows with its summed cell lengths, not with the
# rows times the widest cell; every cell of D_50 (30 characters at most)
# fits.
CHARS_CELL_WIDTH = 32


class InputFileError(ValueError):
    """A curve or completion file failed to parse."""


class UsageError(ValueError):
    """Command-line arguments that the command cannot run with."""


def _data_lines(path: str):
    """Yield (line number, tokens) for each line of the file that is not
    blank once its '#' comment is cut off."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split("#", 1)[0].split()
            if parts:
                yield lineno, parts


def _read_ints(path: str, lineno: int, tokens, what: str, bad: str) -> list[int]:
    """The tokens as ints.  A token with more digits than Python reads is an
    InputFileError that names the limit; any other bad token reads `bad`."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if limit and any(sum(map(str.isdigit, t)) > limit for t in tokens):
            raise InputFileError(f"{path}:{lineno}: {what} of more than {limit} "
                                 "digits, Python's limit on reading an integer") from None
        raise InputFileError(f"{path}:{lineno}: {bad}") from None


def parse_curve_file(path: str) -> list[WeierstrassCurve]:
    from .weierstrass import SingularModelError, WeierstrassCurve
    curves = []
    for lineno, parts in _data_lines(path):
        if len(parts) != 5:
            raise InputFileError(
                f"{path}:{lineno}: expected five integers, got {len(parts)} tokens")
        coeffs = _read_ints(path, lineno, parts, "coefficient", "non-integer coefficient")
        try:
            curves.append(WeierstrassCurve(*coeffs))
        except SingularModelError:
            raise InputFileError(f"{path}:{lineno}: model is singular") from None
    if not curves:
        raise InputFileError(f"{path}: no curves found")
    return curves


def parse_completion_file(path: str) -> dict[int, tuple[SubgroupTag, SubgroupTag, bool | None]]:
    from .arith import brief, check_prime
    from .lattice import THETA
    tokens = {tag.label: tag for tag, _ in THETA}
    out: dict[int, tuple[SubgroupTag, SubgroupTag, bool | None]] = {}
    for lineno, parts in _data_lines(path):
        if len(parts) not in (3, 4):
            raise InputFileError(
                f"{path}:{lineno}: expected 'prime G_v I_v [true|false]'")
        prime, = _read_ints(path, lineno, parts[:1], "prime",
                            f"bad prime {brief(parts[0])}")
        check_prime(prime, f"{path}:{lineno}: the first token", InputFileError)
        tags = []
        for tok in parts[1:3]:
            if tok not in tokens:
                raise InputFileError(
                    f"{path}:{lineno}: unknown subgroup token {brief(tok)} "
                    f"(use {', '.join(tokens)})")
            tags.append(tokens[tok])
        flag: bool | None = None
        if len(parts) == 4:
            if parts[3] not in ("true", "false"):
                raise InputFileError(
                    f"{path}:{lineno}: flag must be 'true' or 'false'")
            flag = parts[3] == "true"
        if prime in out:
            raise InputFileError(f"{path}:{lineno}: duplicate prime {prime}")
        out[prime] = (tags[0], tags[1], flag)
    return out


def _check_json_path(path: str) -> None:
    """Reject a --json path that cannot be written, before any work."""
    if os.path.isdir(path):
        raise UsageError(f"--json {path}: is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise UsageError(f"--json {path}: no directory {parent}")


def _write_json(path: str | None, payload) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


# --- subcommands -----------------------------------------------------------

def cmd_reduce(args) -> tuple[list, bool]:
    from .arith import FactoringBudgetError, brief
    from .tate import bad_primes, local_reduction
    curves = parse_curve_file(args.curves)
    report = []
    for curve in curves:
        try:
            ells = [args.ell] if args.ell is not None else bad_primes(curve)
        except FactoringBudgetError as exc:
            coeffs = ", ".join(map(brief, curve.coefficients()))
            exc.args = (f"({coeffs}): {exc}; pass --ell to reduce at one prime",)
            raise
        for ell in ells:
            d = local_reduction(curve, ell)
            tail = d.reduction_class
            if d.split is not None:
                tail += f" {d.split_label}"
            print(f"{curve.coefficients()} ell={ell}: {d.kodaira} "
                  f"delta={d.delta} c={d.tamagawa} f={d.conductor_exp} {tail}")
            report.append({"curve": list(curve.coefficients()), "ell": ell,
                           "kodaira": d.kodaira, "delta": d.delta,
                           "tamagawa": d.tamagawa, "conductor_exp": d.conductor_exp,
                           "class": d.reduction_class, "split": d.split})
    return report, True


def cmd_chars(args) -> tuple[dict, bool]:
    from .characters import DihedralContext, irreducibles, verify_reduction_identity
    from .arith import brief
    from .lattice import check_odd_prime
    # checked before primality, whose cost grows with p's digits; at p >= 3,
    # 2 p^n > CHARS_MAX_ORDER once n reaches its bit length
    if args.p >= 3 and args.n >= 1 and (args.n >= CHARS_MAX_ORDER.bit_length()
                                        or 2 * args.p ** args.n > CHARS_MAX_ORDER):
        raise UsageError(f"D_2p^n for p={brief(args.p)}, n={args.n} has order above "
                         f"{CHARS_MAX_ORDER}, the largest chars accepts")
    check_odd_prime(args.p)
    ctx = DihedralContext(args.p, args.n)
    if args.verify_reduction and ctx.n < 2:
        raise UsageError("reduction identity: needs n >= 2")
    irr = irreducibles(ctx)
    G = ctx.full()
    labels = []
    for i, e in G.class_reps:
        if e:
            labels.append("refl")
        elif i == 0:
            labels.append("1")
        else:
            labels.append(f"s^{i}" if i != 1 else "s")
    names = ["1", "eta"] + [f"I(chi_{k})" for k in range(1, len(irr) - 1)]
    rows = [[str(v) for v in chi.values] for chi in irr]
    widths = [min(CHARS_CELL_WIDTH, max(len(labels[j]), *(len(r[j]) for r in rows)))
              for j in range(len(labels))]
    name_w = max(len(n) for n in names)
    print(f"D_{2 * ctx.m} (p={ctx.p}, n={ctx.n}): {len(irr)} irreducible characters")
    print(" " * name_w + "  " + "  ".join(l.rjust(w) for l, w in zip(labels, widths)))
    for name, row in zip(names, rows):
        print(name.ljust(name_w) + "  "
              + "  ".join(v.rjust(w) for v, w in zip(row, widths)))
    payload = {"p": ctx.p, "n": ctx.n, "classes": labels,
               "irreducibles": [{"name": nm, "values": row}
                                for nm, row in zip(names, rows)]}
    if args.verify_reduction:
        ok = verify_reduction_identity(ctx.p, ctx.n, ctx=ctx)
        print(f"reduction identity at (p={ctx.p}, n={ctx.n}): "
              + ("PASS" if ok else "FAIL"))
        payload["reduction_identity"] = ok
    return payload, payload.get("reduction_identity", True)


def cmd_regulator(args) -> tuple[dict, bool]:
    from .arith import brief
    from .lattice import check_odd_prime
    from .regulator import (SquareClass, direct_sum, faithful_rep, in_t_theta,
                            regulator_constant, sign_rep, trivial_rep)
    p = args.p
    if p > REGULATOR_MAX_P:  # before primality, as for chars
        raise UsageError(f"p={brief(p)} is above {REGULATOR_MAX_P}, the largest regulator accepts")
    check_odd_prime(p)
    reps = [("1", trivial_rep(p)), ("eta", sign_rep(p)), ("rho2", faithful_rep(p))]
    reps.append(("1+eta+rho2", direct_sum(*(r for _, r in reps))))
    payload = {"p": p, "seed": args.seed, "reps": {}}
    for name, rep in reps:
        value = regulator_constant(rep, seed=args.seed)
        sq = SquareClass.of(value)
        parity = sq.ord_parity(p)
        member = in_t_theta(sq, p)
        print(f"C_Theta({name}) = {value}  square class {sq.representative}  "
              f"ord_{p} parity {parity}  T_Theta member: {member}")
        payload["reps"][name] = {"value": str(value),
                                 "square_class": sq.representative,
                                 "ord_p_parity": parity,
                                 "t_theta_member": member}
    return payload, True


def _table_payload(table) -> dict:
    return {str(e): {str(res): table[(e, res)] for res in (1, 5, 7, 11)}
            for e in (6, 4, 3, 2)}


def cmd_verify_local(args) -> tuple[dict, bool]:
    from .parity import (FROZEN_POT_GOOD_TABLE, check_p, enumerate_settings,
                         pot_good_table, verify_local)
    check_p(args.p)
    if not args.emit_table and not args.sweep:
        raise UsageError("nothing to do: pass --sweep and/or --emit-table")
    payload = {"p": args.p}
    if args.emit_table:
        tc = pot_good_table("c")
        tw = pot_good_table("w")
        match = tc == FROZEN_POT_GOOD_TABLE and tw == FROZEN_POT_GOOD_TABLE
        print("potential-good sign table (rows e = 6,4,3,2; "
              "columns p mod 12 = 1,5,7,11)")
        for name, table in (("frozen", FROZEN_POT_GOOD_TABLE),
                            ("c-side", tc), ("w-side", tw)):
            for e in (6, 4, 3, 2):
                row = "  ".join(f"{table[(e, res)]:+d}" for res in (1, 5, 7, 11))
                print(f"  {name:>6} e={e}: {row}")
        print("tables match: " + ("PASS" if match else "FAIL"))
        payload.update({"frozen": _table_payload(FROZEN_POT_GOOD_TABLE),
                        "c_side": _table_payload(tc), "w_side": _table_payload(tw),
                        "tables_match": match})
    if args.sweep:
        settings = enumerate_settings(args.p)
        bad = [v for v in map(verify_local, settings) if not v.agree]
        print(f"sweep p={args.p}: {len(settings)} settings, "
              f"{len(settings) - len(bad)} agree, {len(bad)} disagree")
        for v in bad[:10]:
            print(f"  DISAGREE: {v.setting}")
        payload.update({"sweep_total": len(settings),
                        "sweep_disagreements": len(bad)})
    return payload, payload.get("tables_match", True) and not payload.get("sweep_disagreements")


def cmd_verify_global(args) -> tuple[list, bool]:
    from .parity import check_p, check_r, global_parity
    check_p(args.p)
    check_r(args.r)
    curves = parse_curve_file(args.curves)
    completion = parse_completion_file(args.completion)
    report = []
    for curve in curves:
        verdict = global_parity(curve, args.p, completion, r=args.r)
        locals_json = []
        for lv in verdict.locals:
            branch = lv.c_trace["branch"]
            print(f"{curve.coefficients()} ell={lv.setting.ell}: "
                  f"c={lv.c_side:+d} w={lv.w_side:+d} "
                  f"{'agree' if lv.agree else 'DISAGREE'} [{branch}]")
            locals_json.append({"ell": lv.setting.ell, "c": lv.c_side,
                                "w": lv.w_side, "agree": lv.agree, "branch": branch})
        print(f"{curve.coefficients()} p={args.p}: c_product={verdict.c_product:+d} "
              f"w_product={verdict.w_product:+d} "
              + ("agree" if verdict.agree else "DISAGREE"))
        report.append({"curve": list(curve.coefficients()), "p": args.p,
                       "locals": locals_json, "c_product": verdict.c_product,
                       "w_product": verdict.w_product, "agree": verdict.agree})
    return report, all(r["agree"] for r in report)


def cmd_surgery(args) -> tuple[list, bool]:
    from .surgery import SurgeryFailedError, certify, make_semistable
    limit = sys.get_int_max_str_digits()  # 0: no limit
    too_long = (f"needs integers of more than {limit} digits, Python's limit on "
                "printing one; pass a smaller --n")
    p0, n = args.p0, args.n
    # every shift is p0^n times a cofactor, nonzero unless the curve meets its
    # congruence; p0^n >= 2^(4 limit) > 10^limit once n (bits of p0 - 1) >= 4 limit
    if limit and n is not None and n > 0 and p0 > 1 and (
            n * (p0.bit_length() - 1) >= 4 * limit or p0 ** n >= 10 ** limit):
        raise UsageError(f"surgery at n={n} {too_long}")
    curves = parse_curve_file(args.curves)
    report = []
    for curve in curves:
        try:
            plan = make_semistable(curve, p0, args.v, n=n)
        except SurgeryFailedError as exc:
            print(f"{curve.coefficients()}: FAILED ({exc})")
            report.append({"curve": list(curve.coefficients()), "ok": False,
                           "error": str(exc)})
            continue
        shifts = [plan.d1, plan.d2, plan.d3, plan.d4, plan.c]
        final = list(plan.final.coefficients())
        if limit and max(map(abs, shifts + final)) >= 10 ** limit:
            raise UsageError(f"surgery at n={plan.n} {too_long}")
        cert = certify(plan)
        print(f"{curve.coefficients()} p0={p0} v={args.v}: n={plan.n} "
              f"shifts=({','.join(map(str, shifts))})")
        print(f"  p0 data {cert.p0_before} -> {cert.p0_after} "
              f"({'kept' if cert.p0_match else 'LOST'}); "
              f"v: {cert.v_class} {cert.v_split}; residual gcd {cert.residual_gcd}; "
              + ("PASS" if cert.ok else "FAIL"))
        report.append({"curve": list(curve.coefficients()), "p0": p0, "v": args.v,
                       "n": plan.n, "shifts": shifts, "final": final, "ok": cert.ok})
    return report, all(r["ok"] for r in report)


# --- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dihedral-parity",
        description="local parity identities for elliptic curves in dihedral extensions")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", help="write a JSON report to this path")

    r = sub.add_parser("reduce", parents=[common], help="Kodaira/Tamagawa/conductor data")
    r.add_argument("curves", help="curve file")
    r.add_argument("--ell", type=int, help="single prime (default: all bad primes)")
    r.set_defaults(func=cmd_reduce)

    c = sub.add_parser("chars", parents=[common], help="character table of D_2p^n")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--n", type=int, default=1)
    c.add_argument("--verify-reduction", action="store_true",
                   help="check the induction-restriction reduction identity")
    c.set_defaults(func=cmd_chars)

    g = sub.add_parser("regulator", parents=[common], help="regulator constants for D_2p")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_regulator)

    vl = sub.add_parser("verify-local", parents=[common], help="local parity identity")
    vl.add_argument("--p", type=int, required=True)
    vl.add_argument("--sweep", action="store_true",
                    help="verify the identity over the full setting sweep")
    vl.add_argument("--emit-table", action="store_true",
                    help="print the potential-good sign table from both sides")
    vl.set_defaults(func=cmd_verify_local)

    vg = sub.add_parser("verify-global", parents=[common],
                        help="identity at all bad primes of curves")
    vg.add_argument("curves", help="curve file")
    vg.add_argument("--p", type=int, required=True)
    vg.add_argument("--completion", required=True,
                    help="completion data file: 'prime G_v I_v [true|false]'")
    vg.add_argument("--r", type=int, default=1,
                    help="residue degree of K_v over Q_ell at every place (default: 1)")
    vg.set_defaults(func=cmd_verify_global)

    s = sub.add_parser("surgery", parents=[common],
                       help="make curves semistable away from p0")
    s.add_argument("curves", help="curve file")
    s.add_argument("--p0", type=int, required=True)
    s.add_argument("--v", type=int, required=True)
    s.add_argument("--n", type=int, help="fixed p0-adic depth (default: adaptive)")
    s.set_defaults(func=cmd_surgery)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.json:
            _check_json_path(args.json)
        report, passed = args.func(args)
        _write_json(args.json, report)
        return 0 if passed else 1
    except (ValueError, OSError) as exc:
        # bad input files and inadmissible or incomplete data are ValueErrors;
        # a path that cannot be read or written is an OSError naming it
        if not (isinstance(exc, OSError) and exc.filename is None):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        fault = exc  # a failed write to a pipe, a full disk: no path to blame
    except Exception as exc:
        fault = exc
    if isinstance(fault, BrokenPipeError):
        # stdout is gone; point it at devnull so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    print(f"internal error: {fault}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
