"""The benchmark of dihedral-parity: one command, four workloads.

    python3 bench/run.py --workload {curves,surgery,algebra,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ./src.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones (setup_s, ops_per_s, op_p50_ms, peak_rss_mib); with
--trace 1 they are the per-layer ones, read from spans that are also
written to .bench_out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
IMPORT_PROBES = 3
CLI_PROBE_ROUNDS = 3
P50_BAND = 0.1

# The speed of a shared virtual machine swings by up to a factor of two over
# seconds to minutes, whatever runs.  So a fixed block of pure-Python work
# that does not touch the library, the reference block, is timed between
# operations, for REF_SHARE of the time they take, and each operation's
# time is scaled by the mean of the REF_WINDOW blocks before it and the
# REF_WINDOW blocks after it, to a machine on which one block takes
# REF_BLOCK_S.
REF_SUMS = 4
REF_BLOCK_S = 0.0035
REF_SHARE = 0.1
REF_WINDOW = 2
SETUP_REF_BLOCKS = 10


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("curves", "surgery", "algebra", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def build(name: str, seed: int, tag: str):
    """Set-up: import the package and generate the workload's inputs."""
    import workloads
    cls = workloads.WORKLOADS[name]
    if cls is workloads.Cli:
        return cls(seed, ROOT, OUT_DIR / f"cli-{tag}-{os.getpid()}")
    return cls(seed)


def reference_block() -> Fraction:
    """Fixed work of about REF_BLOCK_S: sums of rationals, whose
    big-integer gcds and short-lived objects are what the library's inner
    loops are made of, but none of its code."""
    total = Fraction(0)
    for _ in range(REF_SUMS):
        s = Fraction(0)
        for i in range(1, 200):
            s += Fraction(i % 7 + 1, i * i + 1)
        total += s
    return total


class SpeedProbe:
    """Times reference blocks between the measured operations, for
    REF_SHARE of their time, and gives the machine's slowness around each
    operation: 1 on a machine on which one block takes REF_BLOCK_S."""

    def __init__(self, blocks: int = 1):
        self.times: list[float] = []
        self.took: list[float] = []
        self.after: list[int] = []  # index of the first block after each operation
        self.owed = 0.0
        self.sample(blocks)

    def sample(self, blocks: int = 1) -> None:
        for _ in range(blocks):
            t0 = time.perf_counter()
            reference_block()
            self.times.append(time.perf_counter() - t0)

    def follow(self, took: float) -> None:
        """Record an operation that took `took` seconds, then run blocks
        until they have taken REF_SHARE of all operations so far."""
        self.took.append(took)
        self.after.append(len(self.times))
        self.owed += took * REF_SHARE
        while self.owed > 0:
            before = len(self.times)
            self.sample()
            self.owed -= self.times[before]

    def slowness(self) -> list[float]:
        """The slowness around each recorded operation, in order."""
        return [statistics.fmean(self.times[max(0, i - REF_WINDOW):i + REF_WINDOW]) / REF_BLOCK_S
                for i in self.after]

    def mean_slowness(self) -> float:
        return statistics.fmean(self.times) / REF_BLOCK_S


def run_rounds(workload, *, seconds: float = 0.0, rounds: int = 1, probe=None):
    """Closed loop over whole rounds: at least `rounds`, and more until
    `seconds` have passed.  Returns the first round's outputs, the
    latencies (None for a failed operation), the time spent in operations
    (failed ones too) and any outputs of later rounds that differ from the
    first.  With a SpeedProbe, reference blocks run between operations.

    Rounds repeat their inputs, so sympy's cache of prime factors is
    emptied before each operation: every round then pays the factoring a
    caller with new curves, or a fresh CLI process, pays."""
    from sympy.ntheory.factor_ import factor_cache
    from workloads import OP_ERRORS
    first, latencies, changed = [], [], []
    busy = 0.0
    start = time.perf_counter()
    done = 0
    while True:
        for i, item in enumerate(workload.items):
            factor_cache.cache_clear()
            t0 = time.perf_counter()
            try:
                out = workload.run(item)
                latencies.append(time.perf_counter() - t0)
            except OP_ERRORS as exc:
                out = exc
                latencies.append(None)
            took = time.perf_counter() - t0
            busy += took
            if probe is not None:
                probe.follow(took)
            if done == 0:
                first.append(out)
            elif workload.compare_rounds and out != first[i]:
                changed.append(item)
        done += 1
        if done >= rounds and time.perf_counter() - start >= seconds:
            break
    return first, latencies, busy, changed


def check_outputs(workload, first, changed) -> list[str]:
    problems = [f"{item}: output differs between rounds" for item in changed]
    for item, out in zip(workload.items, first):
        if not isinstance(out, Exception):
            problems += workload.check(item, out)
    return problems


def median_p50(latencies) -> float:
    """Median latency in ms, as the mean of the middle tenth of the ranked
    latencies: a round mixes operations of very different cost, and the
    plain middle value jumps between neighbouring operations from run to
    run.  A failed operation counts as slower than any."""
    ranked = sorted(float("inf") if x is None else x for x in latencies)
    lo = int(len(ranked) * (0.5 - P50_BAND / 2))
    hi = max(lo + 1, round(len(ranked) * (0.5 + P50_BAND / 2)))
    return statistics.fmean(ranked[lo:hi]) * 1000


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def setup_seconds(args) -> float:
    """Median time from starting a fresh interpreter to the end of set-up,
    each probe scaled by the reference blocks timed just before and after
    it."""
    times = []
    for _ in range(SETUP_PROBES):
        probe = SpeedProbe(SETUP_REF_BLOCKS)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--setup-probe"], stdout=subprocess.PIPE, env=child_env())
        line = proc.stdout.readline()
        took = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up probe failed")
        probe.sample(SETUP_REF_BLOCKS)
        times.append(took / probe.mean_slowness())
    return statistics.median(times)


def import_seconds(module: str) -> float:
    """Median time to import `module` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                                  capture_output=True, text=True).stdout)
             for _ in range(IMPORT_PROBES)]
    return statistics.median(times)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, workload):
    probe = SpeedProbe()
    first, latencies, _, changed = run_rounds(
        workload, seconds=args.seconds, rounds=2 if workload.compare_rounds else 1,
        probe=probe)
    slowness = probe.slowness()
    scaled = [None if x is None else x / k for x, k in zip(latencies, slowness)]
    busy = sum(t / k for t, k in zip(probe.took, slowness))
    # for cli the children of the timed loop are the only ones reaped so far
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    peak_kib = resource.getrusage(who).ru_maxrss
    problems = check_outputs(workload, first, changed)
    failed = sum(1 for x in latencies if x is None)
    metrics = {
        "setup_s": metric(setup_seconds(args), "s"),
        "ops_per_s": metric((len(latencies) - failed) / busy, "ops/s"),
        "op_p50_ms": metric(median_p50(scaled), "ms"),
        "peak_rss_mib": metric(peak_kib / 1024, "MiB"),
    }
    return problems, len(latencies), failed, metrics


# Per-layer metrics read straight off the span summary: (span, field, unit).
SPAN_METRICS = [
    ("weierstrass.transform", "calls", "count"),
    ("weierstrass.transform", "self_s", "s"),
    ("weierstrass.WeierstrassCurve", "calls", "count"),
    ("tate.local_reduction", "calls", "count"),
    ("tate.local_reduction", "self_s", "s"),
    ("parity.global_parity", "self_s", "s"),
    ("parity.base_descriptor", "self_s", "s"),
    ("parity.verify_local", "calls", "count"),
    ("parity.c_parity", "self_s", "s"),
    ("parity.w_ratio", "self_s", "s"),
    ("parity.LocalSetting", "self_s", "s"),
    ("parity.enumerate_settings", "self_s", "s"),
    ("base_change.degrees", "calls", "count"),
    ("base_change.degrees", "self_s", "s"),
    ("base_change.tamagawa_over", "calls", "count"),
    ("characters.irreducibles", "calls", "count"),
    ("characters.irreducibles", "self_s", "s"),
    ("characters.inner_product", "self_s", "s"),
    ("characters.induce", "self_s", "s"),
    ("characters.restrict", "self_s", "s"),
    ("characters.verify_reduction_identity", "self_s", "s"),
    ("regulator.regulator_constant", "calls", "count"),
    ("regulator.regulator_constant", "self_s", "s"),
    ("regulator.invariant_pairing", "self_s", "s"),
    ("regulator.RationalRep", "self_s", "s"),
    ("regulator.faithful_rep", "self_s", "s"),
    ("regulator.SquareClass.of", "self_s", "s"),
    ("surgery.make_semistable", "calls", "count"),
    ("surgery.make_semistable", "self_s", "s"),
    ("surgery.closeness_check", "calls", "count"),
    ("surgery.certify", "self_s", "s"),
    ("sympy.factorint", "calls", "count"),
    ("sympy.factorint", "self_s", "s"),
    ("sympy.isprime", "calls", "count"),
    ("sympy.isprime", "self_s", "s"),
]


def layer_metrics(spans) -> dict:
    import tracing
    summary = tracing.summarize(spans)
    empty = {"calls": 0, "self_s": 0.0, "notes": []}
    out = {f"{name}.{fld}": metric(summary.get(name, empty)[fld], unit)
           for name, fld, unit in SPAN_METRICS}

    def calls(name):
        return summary.get(name, empty)["calls"]

    out["weierstrass.transform.rescale_calls"] = metric(
        sum(summary.get("weierstrass.transform", empty)["notes"]), "count")
    reductions = calls("tate.local_reduction")
    out["tate.transforms_per_reduction"] = metric(
        tracing.calls_under(spans, "weierstrass.transform", "tate.local_reduction")
        / reductions if reductions else 0.0, "ratio")
    curves = calls("surgery.make_semistable")
    out["surgery.depth_attempts_per_curve"] = metric(
        calls("surgery.closeness_check") / curves if curves else 0.0, "ratio")
    out["sympy.factorint.digits_max"] = metric(
        max(summary.get("sympy.factorint", empty)["notes"], default=0), "digits")
    return out


def traced(args, workload):
    """Per-layer metrics.  After an untraced warm-up round, untraced and
    traced rounds alternate for --seconds, so drift in machine speed falls
    on both alike; the overhead is the traced time over the untraced time,
    minus one.  The spans and counts come from the first traced round, so
    they depend only on the seed."""
    import tracing
    first, warm, _, _ = run_rounds(workload)
    spans_dir = OUT_DIR / f"spans-{args.workload}-{args.seed}-{os.getpid()}"
    spans_dir.mkdir(parents=True, exist_ok=True)
    plain_rounds, latencies = [warm], list(warm)
    plain_s = traced_s = 0.0
    spans = None
    start = time.perf_counter()
    while spans is None or time.perf_counter() - start < args.seconds:
        _, lat, busy, _ = run_rounds(workload)
        plain_rounds.append(lat)
        latencies += lat
        plain_s += busy
        tracer = tracing.Tracer()
        with _tracing_on(workload, tracer, spans_dir):
            _, lat, busy, _ = run_rounds(workload)
        latencies += lat
        traced_s += busy
        round_spans = tracer.spans + _child_spans(spans_dir)
        if spans is None:
            spans = round_spans
    spans_dir.rmdir()
    problems = check_outputs(workload, first, [])
    (OUT_DIR / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(spans))
    metrics = layer_metrics(spans)
    metrics["trace.overhead_pct"] = metric((traced_s / plain_s - 1) * 100, "%")
    metrics["cli.import_s"] = metric(import_seconds("dihedral_parity.cli"), "s")
    metrics["sympy.import_s"] = metric(import_seconds("sympy"), "s")
    if workload.name == "cli":
        cli = workload
    else:
        cli = build("cli", args.seed, "probe")
        try:
            plain_rounds = [run_rounds(cli)[1] for _ in range(CLI_PROBE_ROUNDS)]
        finally:
            cli.close()
    for k, command in enumerate(cli.items):
        samples = [r[k] for r in plain_rounds if r[k] is not None]
        metrics[f"cli.{command.name}.p50_ms"] = metric(
            statistics.median(samples) * 1000 if samples else float("inf"), "ms")
    return problems, len(latencies), sum(1 for x in latencies if x is None), metrics


def _child_spans(spans_dir: Path) -> list:
    """Spans the traced CLI children wrote, in run order, as one list;
    the files are removed."""
    spans: list = []
    for path in sorted(spans_dir.glob("spans-*.json"), key=lambda p: int(p.stem[6:])):
        spans += [[n, s, e, p + len(spans) if p >= 0 else -1, note]
                  for n, s, e, p, note in json.loads(path.read_text())]
        path.unlink()
    return spans


@contextlib.contextmanager
def _tracing_on(workload, tracer, spans_dir: Path):
    """In-process workloads trace in this process; the CLI workload runs
    its children through tracing.py, which writes spans to spans_dir."""
    if workload.name == "cli":
        workload.trace_spans = spans_dir
        try:
            yield
        finally:
            workload.trace_spans = None
    else:
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts, on the CPU it started
    on: the virtual CPUs of a shared machine may drift in speed each on
    its own, and the reference blocks must run where the operations they
    scale run.  Where affinity is not available, nothing is pinned."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        cpu = int(fields[36])
        if cpu in os.sched_getaffinity(0):
            os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, IndexError, ValueError):
        pass


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    if not (ROOT / "src" / "dihedral_parity" / "__init__.py").is_file():
        print("error: run from the root of a dihedral-parity checkout "
              "(src/dihedral_parity not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        workload = build(args.workload, args.seed, "setup")
        print("ready", flush=True)
        workload.close()
        return 0
    workload = build(args.workload, args.seed, "run")
    try:
        run = traced if args.trace else end_to_end
        problems, attempted, failed, metrics = run(args, workload)
    finally:
        workload.close()
    for msg in problems:
        print("CHECK FAILED:", msg)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    line = json.dumps(result)
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
