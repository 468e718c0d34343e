"""Every checked integer argument, fuzzed: each invalid value raises the
site's documented error class at once, with a short message.

The prime sites (p, ell, p0, v and a completion-file prime) and the
positive-integer sites (r, n, delta, n_max) all admit a caller's value
through `arith.check_prime` or `arith.check_positive`.
"""

import os
import time

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import isprime

from dihedral_parity.arith import PRIME_MAX_DIGITS
from dihedral_parity.base_change import (AdditivePotGood, Good, InadmissibleSettingError,
                                         InvalidDescriptorError, SplitMult, check_ell, check_r)
from dihedral_parity.characters import DihedralContext, InvalidGroupError, check_odd_prime
from dihedral_parity.cli import InputFileError, parse_completion_file
from dihedral_parity.lattice import TRIVIAL
from dihedral_parity.parity import LocalSetting, check_p, enumerate_settings
from dihedral_parity.surgery import make_semistable
from dihedral_parity.tate import local_reduction
from dihedral_parity.weierstrass import WeierstrassCurve

E = WeierstrassCurve(0, -1, 1, -10, -20)

# site: (call, documented error class, least prime admitted)
PRIME_SITES = {
    "check_odd_prime p": (check_odd_prime, InvalidGroupError, 3),
    "DihedralContext p": (lambda v: DihedralContext(v, 1), InvalidGroupError, 3),
    "check_p p": (check_p, InadmissibleSettingError, 5),
    "LocalSetting p": (lambda v: LocalSetting(v, 7, 1, Good(), TRIVIAL, TRIVIAL),
                       InadmissibleSettingError, 5),
    "check_ell ell": (check_ell, InadmissibleSettingError, 2),
    "LocalSetting ell": (lambda v: LocalSetting(5, v, 1, Good(), TRIVIAL, TRIVIAL),
                         InadmissibleSettingError, 2),
    "local_reduction ell": (lambda v: local_reduction(E, v), ValueError, 2),
    "make_semistable p0": (lambda v: make_semistable(E, v, 3), ValueError, 2),
    "make_semistable v": (lambda v: make_semistable(E, 11, v), ValueError, 3),
}
# site: (call, documented error class)
POSITIVE_SITES = {
    "check_r r": (check_r, InadmissibleSettingError),
    "DihedralContext n": (lambda v: DihedralContext(5, v), InvalidGroupError),
    "SplitMult n": (SplitMult, InvalidDescriptorError),
    "AdditivePotGood delta": (AdditivePotGood, InvalidDescriptorError),
    "enumerate_settings n_max": (lambda v: enumerate_settings(5, n_max=v),
                                 InadmissibleSettingError),
    # None is make_semistable's default depth, so it is not drawn there
    "make_semistable n": (lambda v: make_semistable(E, 11, 3, n=v), ValueError),
}

values = st.one_of(
    st.booleans(), st.floats(), st.text(max_size=60), st.none(),
    st.integers(-10 ** 6, 10 ** 6),
    st.integers(-10 ** 4300 + 1, 10 ** 4300 - 1),  # up to Python's 4300-digit reading limit
    st.builds(int.__mul__, st.integers(2, 10 ** 30), st.integers(2, 10 ** 30)),  # composites
    st.integers(PRIME_MAX_DIGITS, 4300).map(lambda k: 10 ** (k - 1) + 153),
)


def is_valid_prime(v, least: int) -> bool:
    return (type(v) is int and least <= v < 10 ** PRIME_MAX_DIGITS
            and isprime(v))


def check_raises(call, error, value):
    start = time.perf_counter()
    with pytest.raises(error) as exc:
        call(value)
    assert time.perf_counter() - start < 0.5
    assert type(exc.value) is error and len(str(exc.value)) < 100


@pytest.mark.parametrize("site", PRIME_SITES)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(value=values)
def test_an_invalid_prime_argument_raises_the_sites_error(site, value):
    call, error, least = PRIME_SITES[site]
    if is_valid_prime(value, least) and not (site == "make_semistable v" and value == 11):
        return  # a valid prime: the site goes on to its work
    check_raises(call, error, value)


@pytest.mark.parametrize("site", POSITIVE_SITES)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(value=values)
def test_an_invalid_positive_argument_raises_the_sites_error(site, value):
    call, error = POSITIVE_SITES[site]
    if (type(value) is int and value >= 1) or (site == "make_semistable n" and value is None):
        return
    check_raises(call, error, value)


@example(value="\x01" * 60)  # its repr is 242 characters
@settings(max_examples=60, deadline=None, derandomize=True)
@given(value=values)
def test_an_invalid_completion_prime_raises_an_input_file_error(tmp_path_factory, value):
    token = str(value)
    try:
        read = int(token)  # as the parser reads it: "+7", "1_1" and "٣" are ints
    except ValueError:
        read = None
    if token.split() != [token] or "#" in token or is_valid_prime(read, 2):
        return  # not one token, or a valid prime
    directory = tmp_path_factory.mktemp("comp")
    (directory / "c.txt").write_text(f"{token} D2p Cp\n", encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(directory)  # a short path keeps the message's own length in view
    try:
        check_raises(parse_completion_file, InputFileError, "c.txt")
    finally:
        os.chdir(cwd)
