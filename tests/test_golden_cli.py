"""Golden CLI outputs: each command of `golden_cli.json` runs through
`cli.main` in process, and one SHA-256 over its exit status, stdout, stderr
and `--json` bytes must equal the digest checked in beside it.

The list holds the 60 `cli` benchmark commands of seeds 201-210 (argv and
input files, taken once from `bench/workloads.Cli` and checked in, so that a
change of workload does not move them), `verify-local --p P --sweep
--emit-table` for P in 5, 7, 11, 13, `chars --verify-reduction` at
(3, 3), (5, 2), (7, 2) and (5, 3), and `chars --p 113`.  Each command runs in
its own directory, whose path reads "{dir}" in the argv and before hashing.

A change that means to move an output rewrites the digests with
`PYTHONPATH=src python tests/test_golden_cli.py` and names the commands
that moved.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dihedral_parity.cli import main

TABLE = Path(__file__).with_name("golden_cli.json")
COMMANDS = json.loads(TABLE.read_text())["commands"]


def digest(command: dict, workdir: Path) -> str:
    """The SHA-256 of one command's exit status, stdout, stderr and --json
    bytes, run in workdir with its input files written there."""
    workdir.mkdir()
    for name, text in command["files"].items():
        (workdir / name).write_text(text)
    where = str(workdir)
    argv = [arg.replace("{dir}", where) for arg in command["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    report = workdir / "out.json"
    parts = [str(status), out.getvalue(), err.getvalue(),
             report.read_text() if report.exists() else "<no json>"]
    h = hashlib.sha256()
    for part in parts:
        h.update(part.replace(where, "{dir}").encode() + b"\0")
    return h.hexdigest()


def test_the_table_lists_each_command_once():
    names = [c["name"] for c in COMMANDS]
    assert len(names) == len(set(names)) == 69
    assert sum(name.startswith("seed") for name in names) == 60


@pytest.mark.parametrize("command", COMMANDS, ids=[c["name"] for c in COMMANDS])
def test_output_matches_its_golden_digest(command, tmp_path):
    assert digest(command, tmp_path / "run") == command["sha256"]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for i, command in enumerate(COMMANDS):
            command["sha256"] = digest(command, Path(tmp) / str(i))
    TABLE.write_text(json.dumps({"commands": COMMANDS}, indent=1) + "\n")
