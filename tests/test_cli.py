import errno
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dihedral_parity
from dihedral_parity import parity, surgery
from dihedral_parity.arith import PRIME_MAX_DIGITS
from dihedral_parity.cli import (CHARS_CELL_WIDTH, CHARS_MAX_ORDER, REGULATOR_MAX_P,
                                 InputFileError, UsageError, _check_json_path,
                                 build_parser, main, parse_completion_file,
                                 parse_curve_file)


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def curves_11a1(tmp_path):
    return put(tmp_path, "curves.txt",
               "# the conductor-11 curve\n0 -1 1 -10 -20\n")


# --- reduce ----------------------------------------------------------------

def test_reduce_single_prime(curves_11a1, capsys):
    assert main(["reduce", curves_11a1, "--ell", "11"]) == 0
    out = capsys.readouterr().out
    assert "I5" in out and "multiplicative split" in out


def test_reduce_all_bad_primes(tmp_path, capsys):
    curves = put(tmp_path, "c.txt", "1 0 1 4 -6\n")  # bad at 2 and 7
    assert main(["reduce", curves]) == 0
    out = capsys.readouterr().out
    assert "ell=2" in out and "ell=7" in out


def test_reduce_json_is_byte_deterministic(curves_11a1, tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["reduce", curves_11a1, "--json", str(a)]) == 0
    assert main(["reduce", curves_11a1, "--json", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report[0]["kodaira"] == "I5" and report[0]["tamagawa"] == 5


def test_reduce_parse_errors(tmp_path, capsys):
    for body in ("1 2 3 4\n", "1 2 3 4 x\n", "0 0 0 0 0\n", ""):
        path = put(tmp_path, "bad.txt", body)
        assert main(["reduce", path]) == 2
        assert "error:" in capsys.readouterr().err
    assert main(["reduce", str(tmp_path / "missing.txt")]) == 2


def test_reduce_ell_zero_is_a_usage_error(curves_11a1, capsys):
    assert main(["reduce", curves_11a1, "--ell", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "ell must be prime, got 0" in err


# --- chars -----------------------------------------------------------------

def test_chars_table(capsys):
    assert main(["chars", "--p", "5"]) == 0
    out = capsys.readouterr().out
    assert "D_10" in out and "I(chi_2)" in out and "eta" in out


def test_chars_reduction_identity(capsys):
    assert main(["chars", "--p", "5", "--n", "2", "--verify-reduction"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["chars", "--p", "5", "--verify-reduction"]) == 2


def test_chars_reduction_identity_at_n_1_is_rejected_before_any_output(capsys):
    assert main(["chars", "--p", "5", "--n", "1", "--verify-reduction"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: reduction identity: needs n >= 2\n"


# SHA-256 of stdout and of the --json report of `chars --p P --n N
# --verify-reduction`, recorded before character values were read off
# spectra alone
CHARS_DIGESTS = [
    ("5", "2", "aaa439c9903a4753f94efb8ed98eba9f42045c5e92d7519906061b20cf84c708",
     "c685252cdcff9a45991e704b329ae729cb46ab04f4beeabea87d4ff675c40144"),
    ("3", "3", "cf3b44ce60aa588e549ff7a47bece19e883b8e00461bf6102310df0b2a5f8068",
     "450b8fa610bbbfc659c6d0375ea516f5396b36ff6a611e23456719128a6238f0"),
    ("7", "2", "3468db63c0d8bfa06c0da03a56fea6cc3912b9cbb2c2b8df2a784ff56d58a066",
     "0a8b27a2a3acae03ac838a15a97a122e6d82060a8e6b964f327026682acb8843"),
]


@pytest.mark.parametrize("p, n, stdout_sha, json_sha", CHARS_DIGESTS)
def test_chars_output_is_byte_for_byte_the_recorded_table(tmp_path, capsys, p, n,
                                                           stdout_sha, json_sha):
    report = tmp_path / "chars.json"
    assert main(["chars", "--p", p, "--n", n, "--verify-reduction",
                 "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(report.read_bytes()).hexdigest() == json_sha


# SHA-256 of stdout and of the --json report of the character tables of
# D_226 and D_486 and of the p = 13 sweep, recorded before each character
# value was reduced from its preimage by Cyclotomic.make alone
TABLE_DIGESTS = [
    (["chars", "--p", "113"],
     "913114788011079b39b6cadc85339e9fae9564044522f27ebbc734c29890900d",
     "2d576863516c57252790bc8f8b1aa1eb766232119c3f6fb3a1287fddb8ed9a8d"),
    (["chars", "--p", "3", "--n", "5"],
     "75201020f8f36ba7340f27b8f5f389a7ade4ed4cd3138a797ecb9c6c677eca0c",
     "6cbb6b4636c4c5bfc2c3e854a23947c9bc085e2766e0b485dc7730f5910ed7e9"),
    (["verify-local", "--p", "13", "--sweep", "--emit-table"],
     "75a61a5ec857d9f39207fc15ab230db9c11aa124516d7cc997b1bc5ce8f85e68",
     "fbec90b44151216786bf0e1c8581727593fc91c3b07651bae6d0e18c3b97db87"),
]


@pytest.mark.parametrize("argv, stdout_sha, json_sha", TABLE_DIGESTS,
                         ids=lambda a: " ".join(a) if isinstance(a, list) else "")
def test_tables_and_sweep_are_byte_for_byte_the_recorded_output(tmp_path, capsys, argv,
                                                                 stdout_sha, json_sha):
    report = tmp_path / "report.json"
    assert main(argv + ["--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(report.read_bytes()).hexdigest() == json_sha


def test_chars_bad_group(capsys):
    assert main(["chars", "--p", "4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_chars_pads_columns_to_a_capped_width(capsys):
    # every cell of D_50 fits under the cap, so its table is aligned as before
    assert main(["chars", "--p", "5", "--n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == 1 + 14 and len({len(line) for line in lines}) == 1
    # at p = 241 one value in each row has 239 terms; padding every cell of
    # its column to it printed 26.6 MB.  That value is still printed whole.
    assert main(["chars", "--p", "241"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(len(line) + 1 for line in lines) < 10 ** 6
    assert len(lines) == 2 + 122
    assert all(len(row) > 122 * (CHARS_CELL_WIDTH + 2) for row in lines[4:])  # the I(chi_k)


def _no_context(*args, **kwargs):
    raise AssertionError("a DihedralContext was built")


@pytest.mark.parametrize("n", ["1", "10", str(10 ** 12)])
def test_chars_past_the_order_limit_is_a_usage_error(n, monkeypatch, capsys):
    # D_{2 * 499} is the largest D_2p inside the limit and D_{2 * 503} the
    # smallest past it; the limit is checked before any group is built
    assert 2 * 499 <= CHARS_MAX_ORDER < 2 * 503
    monkeypatch.setattr("dihedral_parity.characters.DihedralContext", _no_context)
    p = "503" if n == "1" else "3"
    assert main(["chars", "--p", p, "--n", n]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: D_2p^n for p={p}, n={n} has order above "
                   f"{CHARS_MAX_ORDER}, the largest chars accepts\n")


# --- regulator -------------------------------------------------------------

def test_regulator_output(tmp_path, capsys):
    out_json = tmp_path / "reg.json"
    assert main(["regulator", "--p", "5", "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "C_Theta(1) = 1/5" in out
    assert out.count("T_Theta member: True") == 4
    payload = json.loads(out_json.read_text())
    assert payload["reps"]["eta"]["square_class"] == 5
    assert payload["reps"]["rho2"]["ord_p_parity"] == 1


@pytest.mark.parametrize("p", ["-1", "0", "1", "2", "4", "9"])
def test_regulator_rejects_p_that_is_not_an_odd_prime(p):
    # p is checked before any representation is built, so p <= 1 is a usage
    # error too, not an internal one; run fresh to see the whole stderr
    proc = subprocess.run([sys.executable, "-m", "dihedral_parity.cli", "regulator", "--p", p],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: p must be an odd prime, got {p}\n"


def _no_rep(*args, **kwargs):
    raise AssertionError("a representation was built")


@pytest.mark.parametrize("p", ["103", "151", "1009"])
def test_regulator_past_the_prime_limit_is_a_usage_error(p, monkeypatch, capsys):
    # 101 is the largest prime inside the limit; the limit is checked
    # before any representation is built
    assert REGULATOR_MAX_P == 101
    for name in ("trivial_rep", "sign_rep", "faithful_rep"):
        monkeypatch.setattr(f"dihedral_parity.regulator.{name}", _no_rep)
    assert main(["regulator", "--p", p]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: p={p} is above 101, the largest regulator accepts\n"


MERSENNE_4423 = str(2 ** 4423 - 1)  # a prime of 1332 digits


class _Reached(Exception):
    pass


def _reached(*args, **kwargs):
    raise _Reached("past the bounds")


@pytest.mark.parametrize("command", ["chars", "regulator"])
def test_a_huge_prime_token_meets_its_bound_before_primality(command, capsys):
    # is_prime costs about 2.6 s on this token, so the bound comes first,
    # and the message names its digit count, not its digits
    start = time.perf_counter()
    assert main([command, "--p", MERSENNE_4423]) == 2
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 100
    assert "p=<1332 digits>" in err


@pytest.mark.parametrize("command, p, builder", [
    ("chars", "499", "dihedral_parity.characters.DihedralContext"),
    ("regulator", "101", "dihedral_parity.regulator.trivial_rep")])
def test_the_largest_p_inside_a_bound_passes_every_check(command, p, builder, monkeypatch,
                                                         capsys):
    # the builder stands in for the work: reaching it means every check passed
    monkeypatch.setattr(builder, _reached)
    assert main([command, "--p", p]) == 3
    assert capsys.readouterr().err == "internal error: past the bounds\n"


def test_a_long_token_is_named_by_its_digit_count(capsys):
    assert main(["chars", "--p", "-" + "9" * 40]) == 2
    assert capsys.readouterr().err == "error: p must be an odd prime, got <40 digits>\n"
    assert main(["regulator", "--p", "-" + "9" * 39]) == 2
    assert capsys.readouterr().err == f"error: p must be an odd prime, got -{'9' * 39}\n"


# --- the digit bound on prime arguments ------------------------------------

AT_BOUND = 10 ** (PRIME_MAX_DIGITS - 1) + 153  # the least prime of that many digits
PAST_BOUND = 10 ** PRIME_MAX_DIGITS + 1
PRIME_FLAGS = ["verify-local --p", "verify-global --p", "reduce --ell", "surgery --p0",
               "surgery --v", "completion prime"]


def prime_flag_argv(tmp_path, flag, prime):
    """(argv passing prime to the flag, the name its error gives it)."""
    curves = put(tmp_path, "c.txt", "0 -1 1 -10 -20\n")
    comp = put(tmp_path, "comp.txt", f"{prime} D2p Cp\n11 D2p Cp\n")
    p = str(prime)
    return {
        "verify-local --p": (["verify-local", "--p", p, "--emit-table"], "p"),
        "verify-global --p": (["verify-global", curves, "--p", p, "--completion", comp], "p"),
        "reduce --ell": (["reduce", curves, "--ell", p], "ell"),
        "surgery --p0": (["surgery", curves, "--p0", p, "--v", "3"], "p0"),
        "surgery --v": (["surgery", curves, "--p0", "11", "--v", p], "v"),
        "completion prime": (["verify-global", curves, "--p", "5", "--completion", comp],
                             f"{comp}:1: the first token"),
    }[flag]


@pytest.mark.parametrize("flag", PRIME_FLAGS)
def test_a_prime_flag_still_answers_at_the_digit_bound(tmp_path, capsys, flag):
    argv, _ = prime_flag_argv(tmp_path, flag, AT_BOUND)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out and err == ""


@pytest.mark.parametrize("flag", PRIME_FLAGS)
def test_a_prime_flag_past_the_digit_bound_exits_2_at_once(tmp_path, capsys, flag):
    argv, name = prime_flag_argv(tmp_path, flag, PAST_BOUND)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert out == "" and err == (f"error: {name} has {PRIME_MAX_DIGITS + 1} digits, more than "
                                 f"the {PRIME_MAX_DIGITS} a prime argument may have\n")


@pytest.mark.parametrize("command", ["reduce", "verify-global"])
def test_a_curve_past_the_factoring_bound_exits_2_at_once(tmp_path, capsys, command):
    rng = random.Random(4300)
    a4, a6 = (rng.randrange(10 ** 4299, 10 ** 4300) for _ in range(2))
    curves = put(tmp_path, "c.txt", f"0 0 0 {a4} {a6}\n")
    comp = put(tmp_path, "comp.txt", "11 D2p Cp\n")
    argv = {"reduce": ["reduce", curves],
            "verify-global": ["verify-global", curves, "--p", "5", "--completion", comp]}
    start = time.perf_counter()
    assert main(argv[command]) == 2
    assert time.perf_counter() - start < 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err) < 200
    assert err.startswith("error: (0, 0, 0, <4300 digits>, <4300 digits>): a 1"
                          if command == "reduce" else "error: cannot list the bad primes")
    assert f"-digit cofactor has more than the {PRIME_MAX_DIGITS} digits" in err


# --- verify-local ----------------------------------------------------------

def test_verify_local_sweep(capsys):
    assert main(["verify-local", "--p", "5", "--sweep"]) == 0
    assert "0 disagree" in capsys.readouterr().out


def test_verify_local_table(capsys):
    assert main(["verify-local", "--p", "7", "--emit-table"]) == 0
    assert "tables match: PASS" in capsys.readouterr().out


def test_verify_local_needs_a_job(capsys):
    assert main(["verify-local", "--p", "5"]) == 2
    assert capsys.readouterr().err == "error: nothing to do: pass --sweep and/or --emit-table\n"


@pytest.mark.parametrize("p", ["4", "-7", "3"])
@pytest.mark.parametrize("jobs", [["--emit-table"], ["--sweep", "--emit-table"], ["--sweep"]])
def test_verify_local_checks_p_before_any_output(tmp_path, capsys, p, jobs):
    report = tmp_path / "out.json"
    assert main(["verify-local", "--p", p, *jobs, "--json", str(report)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: p must be a prime >= 5, got {p}\n"
    assert not report.exists()


# --- verify-global ---------------------------------------------------------

def test_verify_global_pass(tmp_path, capsys):
    curves = put(tmp_path, "c.txt", "0 -1 1 -10 -20\n0 0 1 -1 0\n")
    comp = put(tmp_path, "comp.txt",
               "11 D2p Cp\n37 D2p Cp  # nonsplit place\n")
    assert main(["verify-global", curves, "--p", "5",
                 "--completion", comp]) == 0
    out = capsys.readouterr().out
    assert out.count("c_product=-1 w_product=-1 agree") == 2


def test_verify_global_delta_12_at_2(tmp_path, capsys):
    # I2* at 2 with minimal discriminant valuation 12
    curves = put(tmp_path, "c.txt", "-6 3 -20 0 12\n")
    comp = put(tmp_path, "comp.txt", "2 D2p Cp\n3 D2p Cp\n")
    assert main(["verify-global", curves, "--p", "5",
                 "--completion", comp]) == 0
    assert "p=5: c_product=+1 w_product=+1 agree" in capsys.readouterr().out


# curve file, p, completion file, and per curve the (ell, branch, c, w) of
# each place in the --json report
GLOBAL_REPORTS = [
    ("0 -1 1 -10 -20\n0 0 1 -1 0\n1 0 1 4 -6\n0 0 1 0 -7\n-6 3 -20 0 12\n", "5",
     "2 D2p Cp\n3 D2p Cp\n7 D2p Cp\n11 D2p Cp\n37 D2p Cp\n",
     [[(11, "split-multiplicative", -1, -1)],
      [(37, "nonsplit-multiplicative", -1, -1)],
      [(2, "nonsplit-multiplicative", -1, -1), (7, "split-multiplicative", -1, -1)],
      [(3, "additive-pot-good", 1, 1)],
      [(2, "additive-pot-good", 1, 1), (3, "additive-pot-good", 1, 1)]]),
    ("0 0 1 0 -7\n", "5", "3 Cp Cp\n", [[(3, "small-decomposition", 1, 1)]]),
    # type II at ell = p with dihedral inertia: the period floors survive
    ("0 0 0 0 5\n", "5", "2 D2p Cp\n3 D2p Cp\n5 D2p D2p\n",
     [[(2, "additive-pot-good", 1, 1), (3, "additive-pot-good", 1, 1),
       (5, "additive-pot-good", -1, -1)]]),
]


@pytest.mark.parametrize("curves, p, completion, want", GLOBAL_REPORTS)
def test_verify_global_json_report(tmp_path, capsys, curves, p, completion, want):
    args = ["verify-global", put(tmp_path, "c.txt", curves), "--p", p,
            "--completion", put(tmp_path, "comp.txt", completion)]
    reports = []
    for name in ("a.json", "b.json"):
        assert main(args + ["--json", str(tmp_path / name)]) == 0
        reports.append((tmp_path / name).read_bytes())
    assert reports[0] == reports[1]
    got = [[(lv["ell"], lv["branch"], lv["c"], lv["w"]) for lv in entry["locals"]]
           for entry in json.loads(reports[0])]
    assert got == want


@pytest.mark.parametrize("curves, p, completion, want", GLOBAL_REPORTS)
def test_global_products_are_the_products_of_the_local_signs(tmp_path, curves, p,
                                                             completion, want):
    completion = parse_completion_file(put(tmp_path, "comp.txt", completion))
    curves = parse_curve_file(put(tmp_path, "c.txt", curves))
    for curve, places in zip(curves, want, strict=True):
        verdict = parity.global_parity(curve, int(p), completion)
        signs = [(ell, c, w) for ell, _, c, w in places]
        assert [(v.setting.ell, v.c_side, v.w_side) for v in verdict.locals] == signs
        assert verdict.c_product == math.prod(c for _, c, _ in signs)
        assert verdict.w_product == math.prod(w for _, _, w in signs)
        assert verdict.agree is all(c == w for _, c, w in signs)


@pytest.mark.parametrize("flags, message", [
    (["--p", "9"], "p must be a prime >= 5, got 9"),
    (["--p", "1"], "p must be a prime >= 5, got 1"),
    (["--p", "-5"], "p must be a prime >= 5, got -5"),
    (["--p", "5", "--r", "0"], "r must be a positive integer, got 0"),
])
def test_verify_global_checks_p_and_r_before_reading_files(tmp_path, capsys, flags, message):
    # the completion file lacks the bad prime 11, which reading it would name
    curves = put(tmp_path, "c.txt", "0 -1 1 -10 -20\n")
    comp = put(tmp_path, "comp.txt", "")
    assert main(["verify-global", curves, "--completion", comp, *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_verify_global_missing_completion(tmp_path, capsys):
    curves = put(tmp_path, "c.txt", "0 -1 1 -10 -20\n")
    comp = put(tmp_path, "comp.txt", "37 D2p Cp\n")
    assert main(["verify-global", curves, "--p", "5",
                 "--completion", comp]) == 2
    assert "no completion data" in capsys.readouterr().err


def test_verify_global_inadmissible_completion(tmp_path, capsys):
    curves = put(tmp_path, "c.txt", "0 -1 1 -10 -20\n")
    comp = put(tmp_path, "comp.txt", "11 1 D2\n")
    assert main(["verify-global", curves, "--p", "5",
                 "--completion", comp]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("11 1 Cp", "inertia Cp is impossible under decomposition 1 (quotient must be cyclic)"),
    ("11 D2p Cp true", "eta_equals_chi is determined here and must be left as None"),
    ("11 D2p D2p", "dihedral inertia is wild and forces ell = p"),
])
def test_inadmissible_completion_names_its_prime(tmp_path, capsys, line, message):
    curves = put(tmp_path, "c.txt", "0 -1 1 -10 -20\n")
    comp = put(tmp_path, "comp.txt", line + "\n")
    assert main(["verify-global", curves, "--p", "5", "--completion", comp]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: completion for 11: {message}\n"


@pytest.mark.parametrize("entry", ["4", "0", "1", "-11"])
def test_completion_entry_that_is_not_a_prime_is_rejected(tmp_path, capsys, entry):
    # tate.bad_primes skips such an entry, so it would be dropped unread
    curves = put(tmp_path, "c.txt", "0 -1 1 -10 -20\n")
    comp = put(tmp_path, "comp.txt", f"{entry} D2p Cp\n11 D2p Cp\n")
    assert main(["verify-global", curves, "--p", "5", "--completion", comp]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {comp}:1: the first token must be prime, got {entry}\n"
    with pytest.raises(InputFileError, match=f"the first token must be prime, got {entry}"):
        parse_completion_file(comp)


def test_completion_parse_errors(tmp_path, capsys):
    curves = put(tmp_path, "c.txt", "0 -1 1 -10 -20\n")
    for body in ("11 D2p\n", "x D2p Cp\n", "11 D4 Cp\n",
                 "11 D2p Cp maybe\n", "11 D2p Cp\n11 D2p Cp\n"):
        comp = put(tmp_path, "comp.txt", body)
        assert main(["verify-global", curves, "--p", "5",
                     "--completion", comp]) == 2
        assert "error:" in capsys.readouterr().err


# Surgery output at p0 = 101, v = 3: its Delta has 99 digits, and after 2,
# 3 and a 7-digit prime a 92-digit composite is left (an 18-digit prime
# times a 74-digit one), far past the rho budget.
SURGERED_INPUT = "-10 -47 -48 -47 33\n"


def surgered_curve(tmp_path, capsys):
    out_json = tmp_path / "s.json"
    assert main(["surgery", put(tmp_path, "in.txt", SURGERED_INPUT), "--p0", "101",
                 "--v", "3", "--json", str(out_json)]) == 0
    capsys.readouterr()
    final = json.loads(out_json.read_text())[0]["final"]
    return put(tmp_path, "out.txt", " ".join(map(str, final)) + "\n")


def test_verify_global_stops_at_the_factoring_budget(tmp_path, capsys):
    curves = surgered_curve(tmp_path, capsys)
    comp = put(tmp_path, "comp.txt", "101 Cp Cp\n")
    start = time.perf_counter()
    assert main(["verify-global", curves, "--p", "5", "--completion", comp]) == 2
    assert time.perf_counter() - start < 15
    err = capsys.readouterr().err
    assert "cannot list the bad primes" in err and "92-digit cofactor" in err


def test_reduce_without_ell_stops_at_the_factoring_budget(tmp_path, capsys):
    assert main(["reduce", surgered_curve(tmp_path, capsys)]) == 2
    err = capsys.readouterr().err
    assert "92-digit cofactor" in err and "--ell" in err


# --- surgery ---------------------------------------------------------------

def test_surgery_pass(tmp_path, capsys):
    curves = put(tmp_path, "c.txt", "0 -1 1 -10 -20\n")
    out_json = tmp_path / "s.json"
    assert main(["surgery", curves, "--p0", "11", "--v", "3",
                 "--json", str(out_json)]) == 0
    assert "PASS" in capsys.readouterr().out
    payload = json.loads(out_json.read_text())
    assert payload[0]["ok"] is True
    assert payload[0]["final"][1] % 3 == 1  # a2 = 1 mod v


def test_surgery_shallow_depth_fails(tmp_path, capsys):
    curves = put(tmp_path, "c.txt", "0 0 1 0 -7\n")
    assert main(["surgery", curves, "--p0", "3", "--v", "5", "--n", "1"]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_surgery_bad_parameters(tmp_path, capsys):
    curves = put(tmp_path, "c.txt", "0 -1 1 -10 -20\n")
    assert main(["surgery", curves, "--p0", "4", "--v", "3"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-2"])
def test_surgery_depth_must_be_positive(tmp_path, capsys, n):
    curves = put(tmp_path, "c.txt", "0 -1 1 -10 -20\n")
    assert main(["surgery", curves, "--p0", "11", "--v", "3", "--n", n]) == 2
    assert capsys.readouterr().err == f"error: n must be a positive integer, got {n}\n"


@pytest.mark.parametrize("p0, n", [(5, 10000), (13, 4000)])
def test_surgery_past_the_digit_limit_is_a_usage_error_before_any_work(tmp_path, capsys,
                                                                         p0, n):
    # 4000 is under surgery.N_CAP, but 13^4000 has 4456 digits
    curves = put(tmp_path, "c.txt", "0 -1 1 -10 -20\n")
    assert main(["surgery", curves, "--p0", str(p0), "--v", "7", "--n", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: surgery at n={n} needs integers of more than 4300 "
                            "digits, Python's limit on printing one; pass a smaller --n\n")


@pytest.mark.parametrize("p0, n", [(2, 5000), (5, 3000), (11, 4096)])
def test_surgery_depths_under_the_digit_limit_pass(tmp_path, capsys, p0, n):
    curves = put(tmp_path, "c.txt", "0 -1 1 -10 -20\n")
    assert main(["surgery", curves, "--p0", str(p0), "--v", "7", "--n", str(n)]) == 0
    assert capsys.readouterr().out.endswith("; PASS\n")


def test_surgery_near_the_digit_limit_never_ends_in_pythons_message(tmp_path, capsys):
    # 2^n < 10^640 for n <= 2126, so the check before any work passes every
    # depth below; the shifts, multiples of 2^n * 3, can still pass the limit
    curves = put(tmp_path, "c.txt", "0 -1 1 -10 -20\n")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        codes = {n: main(["surgery", curves, "--p0", "2", "--v", "3", "--n", str(n)])
                 for n in range(2122, 2130)}
        err = capsys.readouterr().err
    finally:
        sys.set_int_max_str_digits(limit)
    assert set(codes.values()) == {0, 2}
    assert any(code == 2 and 2 ** n < 10 ** 640 for n, code in codes.items())
    assert err.splitlines() == [
        f"error: surgery at n={n} needs integers of more than 640 digits, "
        "Python's limit on printing one; pass a smaller --n"
        for n, code in codes.items() if code == 2]


# --- paths -----------------------------------------------------------------

def test_directory_as_curve_file_exits_2(tmp_path, capsys):
    assert main(["reduce", str(tmp_path), "--ell", "37"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_directory_as_json_path_exits_2(curves_11a1, tmp_path, capsys):
    assert main(["reduce", curves_11a1, "--ell", "11", "--json", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --json {tmp_path}: is a directory\n"


def test_json_path_is_checked_before_any_work(tmp_path, capsys):
    missing = tmp_path / "missing"
    target = str(missing / "x.json")
    assert main(["chars", "--p", "5", "--json", target]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no table printed
    assert captured.err == f"error: --json {target}: no directory {missing}\n"
    assert not missing.exists()


# --- exit statuses ---------------------------------------------------------

def test_internal_fault_exits_3(curves_11a1, monkeypatch, capsys):
    def broken(curve, ell):
        raise RuntimeError("star arrangement failed")
    monkeypatch.setattr(dihedral_parity.tate, "local_reduction", broken)
    assert main(["reduce", curves_11a1, "--ell", "11"]) == 3
    assert "internal error: star arrangement failed" in capsys.readouterr().err


@pytest.mark.parametrize("error", [TypeError, KeyError])
def test_untyped_internal_fault_exits_3(error, curves_11a1, monkeypatch, capsys):
    def broken(curve, ell):
        raise error("no such branch")
    monkeypatch.setattr(dihedral_parity.tate, "local_reduction", broken)
    assert main(["reduce", curves_11a1, "--ell", "11"]) == 3
    assert "internal error: " in capsys.readouterr().err


def test_write_failure_without_a_path_exits_3(curves_11a1, tmp_path, monkeypatch, capsys):
    # a full disk fails the write after the file is open: the OSError names no path
    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")
    monkeypatch.setattr(json, "dump", full_disk)
    assert main(["reduce", curves_11a1, "--ell", "11",
                 "--json", str(tmp_path / "out.json")]) == 3
    assert "internal error: [Errno 28] No space left on device" in capsys.readouterr().err


def test_closed_stdout_pipe_exits_3():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to standard output now fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "dihedral_parity.cli", "chars", "--p", "3"],
                              env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=write_end,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr == "internal error: [Errno 32] Broken pipe\n"


# --- argparse plumbing -----------------------------------------------------

def test_each_usage_error_of_the_cli_is_typed(tmp_path):
    for argv in (["chars", "--p", "3", "--n", "7"], ["chars", "--p", "5", "--verify-reduction"],
                 ["regulator", "--p", "103"], ["verify-local", "--p", "5"]):
        args = build_parser().parse_args(argv)
        with pytest.raises(UsageError):
            args.func(args)
    for path in (tmp_path, tmp_path / "missing" / "out.json"):
        with pytest.raises(UsageError):
            _check_json_path(str(path))


def test_usage_errors_exit_2():
    for argv in ([], ["reduce"], ["frobnicate"], ["chars"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# --- failed verdicts --------------------------------------------------------

def _negated_w_sign(monkeypatch):
    """Make every setting at G_v = D_2p disagree: its w side flips."""
    w_sign = parity._w_sign
    monkeypatch.setattr(parity, "_w_sign", lambda s: -w_sign(s))


def test_a_sign_table_that_differs_from_the_frozen_one_exits_1(tmp_path, capsys,
                                                               monkeypatch):
    frozen = dict(parity.FROZEN_POT_GOOD_TABLE)
    frozen[(6, 1)] = -1
    monkeypatch.setattr(parity, "FROZEN_POT_GOOD_TABLE", frozen)
    report = tmp_path / "r.json"
    assert main(["verify-local", "--p", "5", "--emit-table", "--json", str(report)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "  frozen e=6: -1  -1  +1  -1"
    assert lines[5] == "  c-side e=6: +1  -1  +1  -1"
    assert lines[-1] == "tables match: FAIL"
    payload = json.loads(report.read_text())
    assert payload["tables_match"] is False
    assert payload["frozen"]["6"]["1"] == -1
    assert payload["c_side"]["6"]["1"] == payload["w_side"]["6"]["1"] == 1


def test_a_sweep_disagreement_exits_1_and_lists_the_first_ten(tmp_path, capsys,
                                                              monkeypatch):
    _negated_w_sign(monkeypatch)
    settings = list(parity.enumerate_settings(5))
    bad = [s for s in settings if s.G_v.kind == "dihedral"]
    report = tmp_path / "r.json"
    assert main(["verify-local", "--p", "5", "--sweep", "--json", str(report)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (f"sweep p=5: {len(settings)} settings, "
                        f"{len(settings) - len(bad)} agree, {len(bad)} disagree")
    assert lines[1:] == [f"  DISAGREE: {s}" for s in bad[:10]]
    assert json.loads(report.read_text()) == {
        "p": 5, "sweep_total": len(settings), "sweep_disagreements": len(bad)}


def test_a_global_disagreement_exits_1(tmp_path, capsys, monkeypatch):
    _negated_w_sign(monkeypatch)
    curves = put(tmp_path, "c.txt", "0 -1 1 -10 -20\n")
    comp = put(tmp_path, "comp.txt", "11 D2p Cp\n")
    report = tmp_path / "r.json"
    assert main(["verify-global", curves, "--p", "5", "--completion", comp,
                 "--json", str(report)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "(0, -1, 1, -10, -20) ell=11: c=-1 w=+1 DISAGREE [split-multiplicative]",
        "(0, -1, 1, -10, -20) p=5: c_product=-1 w_product=+1 DISAGREE"]
    [entry] = json.loads(report.read_text())
    assert entry["agree"] is False and (entry["c_product"], entry["w_product"]) == (-1, 1)
    assert entry["locals"] == [{"ell": 11, "c": -1, "w": 1, "agree": False,
                                "branch": "split-multiplicative"}]


def test_a_failed_surgery_certificate_exits_1(tmp_path, capsys, monkeypatch):
    certify = surgery.certify

    def failing(plan):
        cert = certify(plan)
        return surgery.SurgeryCertificate(
            ok=False, p0_match=False, p0_before=cert.p0_before, p0_after=cert.p0_after,
            v_class=cert.v_class, v_split=cert.v_split, residual_gcd=cert.residual_gcd)

    monkeypatch.setattr(surgery, "certify", failing)
    curves = put(tmp_path, "c.txt", "0 -1 1 -10 -20\n")
    report = tmp_path / "s.json"
    assert main(["surgery", curves, "--p0", "11", "--v", "3", "--json", str(report)]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert "(LOST)" in last and last.endswith("; FAIL")
    [entry] = json.loads(report.read_text())
    assert entry["ok"] is False and (entry["p0"], entry["v"]) == (11, 3)


def test_a_failed_reduction_identity_exits_1(tmp_path, capsys, monkeypatch):
    from dihedral_parity import characters
    monkeypatch.setattr(characters, "verify_reduction_identity", lambda p, n, ctx: False)
    report = tmp_path / "c.json"
    assert main(["chars", "--p", "5", "--n", "2", "--verify-reduction",
                 "--json", str(report)]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "reduction identity at (p=5, n=2): FAIL"
    assert '"reduction_identity": false' in report.read_text()


def test_a_broken_fusion_table_exits_3(capsys, monkeypatch):
    # a fusion count that |H| does not divide is the library's own fault,
    # not bad input
    from dihedral_parity import characters
    fusion = characters.Subgroup.fusion

    def corrupted(G, H):
        return tuple(tuple((d, count + 1) for d, count in row) for row in fusion(G, H))
    monkeypatch.setattr(characters.Subgroup, "fusion", corrupted)
    assert main(["chars", "--p", "5", "--n", "2", "--verify-reduction"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: fusion count ") and err.count("\n") == 1


# --- imports ---------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_fresh(code: str) -> str:
    """Standard output of `code` run in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True).stdout


def _loaded_submodules(code: str) -> set[str]:
    """The dihedral_parity submodules a fresh interpreter holds after `code`,
    read from the last line it prints."""
    out = _run_fresh(code + "\nimport sys; print(' '.join(m.split('.')[1] for m in sys.modules "
                            "if m.startswith('dihedral_parity.')))")
    return set(out.splitlines()[-1].split())


def test_cli_import_does_not_load_sympy():
    out = _run_fresh("import sys, dihedral_parity.cli; print(sorted(m for m in sys.modules "
                     "if m == 'sympy' or m.startswith('sympy.')))")
    assert out.strip() == "[]"
    importers = [path.name for path in (SRC / "dihedral_parity").glob("*.py")
                 if re.search(r"^\s*(import|from)\s+sympy\b", path.read_text(), re.M)]
    assert importers == []


def test_each_subcommand_loads_only_what_it_runs(tmp_path):
    curves = put(tmp_path, "c.txt", "0 -1 1 -10 -20\n")
    run = "from dihedral_parity.cli import main; main({!r})"
    assert _loaded_submodules("import dihedral_parity") == set()
    chars = _loaded_submodules(run.format(["chars", "--p", "5", "--n", "2",
                                           "--verify-reduction"]))
    assert "characters" in chars and not chars & {"parity", "tate", "surgery", "regulator"}
    reduce = _loaded_submodules(run.format(["reduce", curves, "--ell", "11"]))
    assert "tate" in reduce and not reduce & {"characters", "parity", "regulator"}


@pytest.mark.parametrize("argv", [["chars", "--p", "5", "--n", "2", "--verify-reduction"],
                                  ["verify-local", "--p", "13", "--sweep", "--emit-table"]])
def test_chars_and_verify_local_load_no_curve_layer_or_dataclasses(argv):
    # a fresh process compiles each module it imports; these two stay off
    # the curve layer (tate, weierstrass) and off dataclasses and inspect
    out = _run_fresh(f"from dihedral_parity.cli import main; main({argv!r})\n"
                     "import sys; print(sorted(m for m in ('dataclasses', 'inspect', 'fractions',"
                     " 'dihedral_parity.tate', 'dihedral_parity.weierstrass') if m in sys.modules))")
    assert out.splitlines()[-1] == "[]"


def test_lattice_readers_load_no_character_table(tmp_path):
    # the local identity and the regulator constants read only the subgroup
    # lattice, so a fresh process of each compiles no characters module
    curves = put(tmp_path, "c.txt", "0 -1 1 -10 -20\n")
    completion = put(tmp_path, "comp.txt", "11 D2p Cp\n")
    run = "from dihedral_parity.cli import main; main({!r})"
    loaded = {argv[0]: _loaded_submodules(run.format(argv)) for argv in (
        ["verify-local", "--p", "13", "--sweep", "--emit-table"],
        ["verify-global", curves, "--p", "5", "--completion", completion],
        ["regulator", "--p", "7"])}
    for command, modules in loaded.items():
        assert "lattice" in modules and "characters" not in modules, command
    assert not loaded["regulator"] & {"tate", "weierstrass", "parity", "surgery"}
    assert _loaded_submodules("import dihedral_parity.lattice") == {"lattice", "arith", "records"}


def test_package_resolves_every_public_name_and_submodule(monkeypatch):
    submodules = {path.stem for path in (SRC / "dihedral_parity").glob("*.py")} - {"__init__"}
    names = sorted(submodules) + dihedral_parity.__all__
    # each name is the first one asked of a freshly imported package
    _run_fresh("import importlib, sys\n"
               f"for name in {names!r}:\n"
               "    for m in [m for m in sys.modules if m.split('.')[0] == 'dihedral_parity']:\n"
               "        del sys.modules[m]\n"
               "    getattr(importlib.import_module('dihedral_parity'), name)")
    assert _loaded_submodules("import dihedral_parity as dp\n"
                              f"for name in {names!r}: getattr(dp, name)") == submodules
    assert set(names) <= set(dir(dihedral_parity))
    with pytest.raises(AttributeError):
        dihedral_parity.no_such_name

    def patched(curve, ell):
        return "patched"
    assert dihedral_parity.local_reduction is dihedral_parity.tate.local_reduction
    monkeypatch.setattr(dihedral_parity.tate, "local_reduction", patched)
    assert dihedral_parity.local_reduction is patched


# --- input file messages ---------------------------------------------------

CURVE_FILE_ERRORS = [
    ("1 2 3 4\n", "{path}:1: expected five integers, got 4 tokens"),
    ("# header\n\n1 2 3 4 x\n", "{path}:3: non-integer coefficient"),
    ("0 -1 1 -10 -20\n0 0 0 0 0  # singular\n", "{path}:2: model is singular"),
    ("# only a comment\n   \n", "{path}: no curves found"),
    pytest.param("0 -1 1 -10 -2" + "0" * 5000 + "\n",
                 "{path}:1: coefficient of more than 4300 digits, "
                 "Python's limit on reading an integer", id="past-the-digit-limit"),
]

COMPLETION_FILE_ERRORS = [
    ("11 D2p\n", "{path}:1: expected 'prime G_v I_v [true|false]'"),
    ("# header\nx D2p Cp\n", "{path}:2: bad prime 'x'"),
    ("1x D2p Cp\n", "{path}:1: bad prime '1x'"),
    pytest.param("1" * 5000 + " D2p Cp\n", "{path}:1: prime of more than 4300 digits, "
                 "Python's limit on reading an integer", id="past-the-digit-limit"),
    ("11 D4 Cp\n", "{path}:1: unknown subgroup token 'D4' (use 1, D2, Cp, D2p)"),
    ("11 D2p Cp maybe\n", "{path}:1: flag must be 'true' or 'false'"),
    ("11 D2p Cp\n\n11 D2p Cp true\n", "{path}:3: duplicate prime 11"),
]


@pytest.mark.parametrize("body, message", CURVE_FILE_ERRORS)
def test_curve_file_error_messages(tmp_path, capsys, body, message):
    path = put(tmp_path, "c.txt", body)
    assert main(["reduce", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + message.format(path=path) + "\n"


@pytest.mark.parametrize("body, message", COMPLETION_FILE_ERRORS)
def test_completion_file_error_messages(tmp_path, capsys, body, message):
    curves = put(tmp_path, "c.txt", "0 -1 1 -10 -20\n")
    path = put(tmp_path, "comp.txt", body)
    assert main(["verify-global", curves, "--p", "5", "--completion", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + message.format(path=path) + "\n"
