"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Run from the root of a checkout.  The valuation-table oracle must agree
with the ell >= 5 rows of tests/corpus.py (read, never changed), and each
check must reject a deliberately corrupted output: a wrong Kodaira symbol,
a flipped sign-table entry, a surgery result whose gcd(c4, Delta) carries a
stray prime, and a character table with a wrong value.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from corpus import TATE_CORPUS  # noqa: E402


def test_oracle_matches_corpus():
    rows = [row for row in TATE_CORPUS if row[1] >= 5]
    assert len(rows) >= 10
    for coeffs, ell, kodaira, delta, tamagawa, conductor, split in rows:
        want = oracle.reduction_at(coeffs, ell)
        got = (want["kodaira"], want["delta"], want["conductor"],
               None if want["split"] is None else ("split" if want["split"] else "nonsplit"))
        assert got == (kodaira, delta, conductor, split), (coeffs, ell, got)
        assert tamagawa in want["tamagawa"], (coeffs, ell, want["tamagawa"])


def test_paper_table_follows_the_legendre_rule():
    # (-3/p) = 1 iff p = 1 mod 3, (-1/p) = 1 iff p = 1 mod 4
    for (e, residue), sign in oracle.PAPER_TABLE.items():
        if e in (3, 6):
            assert sign == (1 if residue % 3 == 1 else -1)
        elif e == 4:
            assert sign == (1 if residue % 4 == 1 else -1)
        else:
            assert sign == 1


def test_wrong_kodaira_symbol_is_caught():
    w = workloads.Curves(0)
    item = next(it for it in w.items if any(ell >= 5 for ell in it.bad)
                and it.a not in workloads.FAULT_CURVES)
    reductions, verdict = w.run(item)
    assert w.check(item, (reductions, verdict)) == []
    k = next(i for i, ell in enumerate(item.bad) if ell >= 5)
    wrong = "II" if reductions[k].kodaira != "II" else "III"
    reductions[k] = dataclasses.replace(reductions[k], kodaira=wrong)
    assert any("disagrees with the table" in p for p in w.check(item, (reductions, verdict)))


def test_flipped_sign_table_entry_is_caught():
    w = workloads.Algebra(0)
    item = ("sweep", 5)
    settings, verdicts, tc, tw = w.run(item)
    assert w.check(item, (settings, verdicts, tc, tw)) == []
    tc = dict(tc)
    tc[(4, 7)] = -tc[(4, 7)]
    assert w.check(item, (settings, verdicts, tc, tw))


def test_stray_prime_in_gcd_is_caught():
    w = workloads.Surgery(0)
    a, p0, v = item = w.items[-1]
    plan, cert = w.run(item)
    assert w.check(item, (plan, cert)) == []
    shifts = (plan.d1, plan.d2, plan.d3, plan.d4, plan.c)
    final = oracle.scale_up(plan.final.coefficients(), 13)
    problems = oracle.surgery_problems(a, final, shifts, p0, v, plan.n)
    assert any("stray factor" in p for p in problems), problems


def test_wrong_character_value_is_caught():
    w = workloads.Algebra(0)
    item = ("chars", 5, 1)
    values, gram, frobenius = w.run(item)
    assert w.check(item, (values, gram, frobenius)) == []
    values[2][1] = (values[2][1][0] + 1,) + tuple(values[2][1][1:])
    assert w.check(item, (values, gram, frobenius))


def main() -> int:
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"selftest: {len(tests)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
