"""The orbitkit benchmark: one workload, end to end through the CLI.

    python3 perfbench/run.py --workload long-small --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --compare BASE NEW

With ``--trace 0`` it runs ``python -m orbitkit.cli`` as a closed loop,
one child process at a time, and reports the end-to-end metrics.  With
``--trace 1`` it runs the same invocations in its own process, through
``orbitkit.cli.main``, with and without per-layer wrappers, and reports
the per-layer metrics.  Every output is checked.  The last line of
stdout is a JSON summary; the line before it, starting ``record``, holds
everything a later comparison needs, so saved stdout is a record file
for ``--compare``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import compare
import tracing
from workloads import WORKLOADS, Invocation, digest, expect_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 8  # no-op invocations before the first pass
NOOP_EVERY = 16  # and one before every 16th invocation of each pass
IMPORT_SAMPLES = 3
TIMEOUT_S = 60.0  # per invocation; none takes more than a few seconds
REFERENCE_ITERATIONS = 100_000  # about 10 ms of pure-Python integer work

# The no-op invocation behind setup_s: interpreter start, `import orbitkit`
# and argparse, with almost no work after them.
NOOP = Invocation("noop seq delta", ("seq", "delta", "--terms", "1"), expect_text("1 1\n"))

E2E_UNITS = {"wall_ref": "ref", "cpu_ref": "ref", "peak_rss_mb": "MB", "setup_ref": "ref",
             "setup_s": "s", "ok_frac": "ratio"}
# Reported in the record and by --compare, but not in the summary line.
RAW_UNITS = {"wall_s": "s", "cpu_s": "s", "reference_s": "s"}


@dataclass(frozen=True)
class Measured:
    returncode: object  # int exit code, or the exception an in-process call raised
    wall: float
    cpu: float
    rss_mb: float
    out: bytes
    err: str


def reference_s() -> float:
    """Time of a fixed pure-Python loop in this process.

    On a shared host the speed of the CPU drifts by a quarter and more
    over minutes, for every process alike; pass times divided by this
    yardstick, taken during the same pass, do not drift with it.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def child_env(work: Path) -> dict[str, str]:
    """Environment for orbitkit children: the sources under test, and a
    bytecode cache in the work directory even where the caller disabled
    caching, since an installed orbitkit does not recompile on every call."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(work / "pycache"))
    return env


class Cli:
    """Runs ``python -m orbitkit.cli`` through launcher.py and measures it."""

    def __init__(self, work: Path) -> None:
        self.command = [sys.executable, "-m", "orbitkit.cli"]
        self.work = work
        self.launcher = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         env=child_env(work), text=True)

    def __enter__(self) -> "Cli":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()

    def __call__(self, argv) -> Measured:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        request = {"argv": [*self.command, *argv], "cwd": str(self.work), "timeout": TIMEOUT_S,
                   "stdout": str(out_path), "stderr": str(err_path)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("launcher.py exited early")
        got = json.loads(reply)
        return Measured(got["returncode"], got["wall"], got["cpu"], got["rss_mb"],
                        out_path.read_bytes(), err_path.read_text(errors="replace"))


class InProcess:
    """Runs ``orbitkit.cli.main`` in this process, stdout to a file."""

    def __init__(self, work: Path) -> None:
        sys.path.insert(0, str(ROOT / "src"))
        self.cli = importlib.import_module("orbitkit.cli")
        self.out_path = work / "stdout"

    def __call__(self, argv) -> Measured:
        err = io.StringIO()
        start = time.perf_counter()
        with open(self.out_path, "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(argv))  # looked up per call: the tracer swaps it
            except Exception as exc:  # a crash of the program under test fails one operation
                code = exc
        wall = time.perf_counter() - start
        return Measured(code, wall, 0.0, 0.0, self.out_path.read_bytes(), err.getvalue())


class Checker:
    """Checks every output; records the first failure reason per invocation."""

    def __init__(self) -> None:
        self.digests: dict[str, str] = {}
        self.failures: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def reason(self, inv, got: Measured):
        if got.returncode != 0:
            last = (got.err.strip().splitlines() or [""])[-1]
            return f"exit {got.returncode!r}: {last[:200]}"
        out_digest = digest(got.out)
        if self.digests.setdefault(inv.label, out_digest) != out_digest:
            return "output differs from an earlier pass"
        try:
            return inv.check(got.out)
        except (ValueError, IndexError) as exc:
            return f"output cannot be parsed: {exc}"[:200]

    def __call__(self, inv, got: Measured) -> None:
        self.attempted += 1
        why = self.reason(inv, got)
        if why is not None:
            self.failed += 1
            self.failures.setdefault(inv.label, why)


def run_pass(invoke, plan, checker: Checker) -> list[Measured]:
    results = []
    for inv in plan.invocations:
        results.append(invoke(inv.argv))
        checker(inv, results[-1])
    return results


def timed_passes(seconds: float, one_pass) -> list:
    """Repeat one_pass for about `seconds`: stop once another pass would
    probably end more than half a pass late.  At least one pass runs."""
    results, start = [], time.perf_counter()
    while True:
        results.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(results) > seconds:
            return results


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "p25": values[0], "p75": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "p25": q1, "p75": q3}


def run_probes(invoke, plan) -> dict[str, str]:
    """Each probe once, untimed: 'pass' or the failure reason."""
    checker, outcome = Checker(), {}
    for inv in plan.probes:
        checker(inv, invoke(inv.argv))
        outcome[inv.label] = checker.failures.get(inv.label, "pass")
    return outcome


def measure_end_to_end(cli: Cli, plan, seconds: float, record: dict) -> Checker:
    checker, setup, setup_refs = Checker(), [], []

    def noop() -> None:
        reference = reference_s()
        got = cli(NOOP.argv)
        checker(NOOP, got)
        setup.append(got.wall)
        setup_refs.append(got.wall / reference)

    def one_pass() -> tuple[list[Measured], float]:
        results, references = [], []
        for i, inv in enumerate(plan.invocations):
            if i % NOOP_EVERY == 0:
                noop()  # set-up samples spread over the run, outside the pass's wall time
            references.append(reference_s())  # once: a repeated loop runs warmer
            results.append(cli(inv.argv))
            checker(inv, results[-1])
        return results, statistics.median(references)

    for _ in range(SETUP_SAMPLES):
        noop()
    probes = run_probes(cli, plan)
    passes = timed_passes(seconds, one_pass)
    walls = [sum(m.wall for m in p) for p, _ in passes]
    cpus = [sum(m.cpu for m in p) for p, _ in passes]
    references = [ref for _, ref in passes]
    samples = {
        "wall_ref": [wall / ref for wall, ref in zip(walls, references)],
        "cpu_ref": [cpu / ref for cpu, ref in zip(cpus, references)],
        "peak_rss_mb": [max(m.rss_mb for m in p) for p, _ in passes],
        "setup_ref": setup_refs,
        "setup_s": setup,
        "wall_s": walls,
        "cpu_s": cpus,
        "reference_s": references,
    }
    labels = [inv.label for inv in plan.invocations]
    ok = sum(label not in checker.failures for label in labels)
    ok += sum(outcome == "pass" for outcome in probes.values())
    record["metrics"] = {name: statistics.median(v) for name, v in samples.items()}
    record["metrics"]["ok_frac"] = ok / (len(labels) + len(probes))
    record["spread"] = {name: spread(v) for name, v in samples.items()}
    record["probes"] = probes
    record["passes"] = len(passes)
    record["invocation_wall_s"] = {
        label: statistics.median(p[i].wall for p, _ in passes) for i, label in enumerate(labels)
    }
    return checker


def measure_layers(work: Path, plan, seconds: float, record: dict) -> Checker:
    timed_import = [sys.executable, "-c",
                    "import time; t = time.perf_counter(); import orbitkit.cli; "
                    "print(time.perf_counter() - t)"]
    imports = [float(subprocess.run(timed_import, env=child_env(work), cwd=work, check=True,
                                    capture_output=True, text=True, timeout=TIMEOUT_S).stdout)
               for _ in range(IMPORT_SAMPLES)]
    invoke, tracer, checker = InProcess(work), tracing.Tracer(), Checker()

    def traced_pass() -> float:
        tracer.reset()
        tracer.install()
        try:
            return sum(m.wall for m in run_pass(invoke, plan, checker))
        finally:
            tracer.uninstall()

    order = itertools.count()

    def pair():
        # alternate which side goes first, so warm-up and drift favour neither
        if next(order) % 2:
            traced = traced_pass()
            plain = sum(m.wall for m in run_pass(invoke, plan, checker))
        else:
            plain = sum(m.wall for m in run_pass(invoke, plan, checker))
            traced = traced_pass()
        return plain, traced, {**tracer.seconds, **tracer.counts}

    pairs = timed_passes(seconds, pair)
    metrics = {"cli.import_s": statistics.median(imports)}
    for name in tracing.METRICS:
        if name not in ("cli.import_s", "trace.overhead_s"):
            metrics[name] = statistics.median(layers.get(name, 0) for _, _, layers in pairs)
    record["pass_s"] = statistics.median(p for p, _, _ in pairs)  # untraced, for layer shares
    metrics["trace.overhead_s"] = statistics.median(t for _, t, _ in pairs) - record["pass_s"]
    record["metrics"] = metrics
    record["absent"] = tracer.absent
    record["passes"] = len(pairs)
    return checker


def commit_id() -> str:
    """HEAD of the repository the benchmark sits in, or 'unknown'."""
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return got.stdout.strip() if got.returncode == 0 else "unknown"


def report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {record['passes']}  python {record['python']}  nproc {record['nproc']}  "
          f"commit {record['commit']}")
    if "pass_s" in record:
        print(f"  untraced pass {record['pass_s']:.6f} s")
    for name, info in record["inputs"].items():
        print(f"  input {name}: {info['terms']} terms, {info['bytes']} bytes, "
              f"max {info['max_digits']} digits")
    for name, unit in record["units"].items():
        line = f"{name:32s} {record['metrics'][name]:14.6f} {unit}"
        if name in record.get("spread", {}):
            s = record["spread"][name]
            line += f"  (median of {s['n']}; quartiles {s['p25']:.6f} .. {s['p75']:.6f})"
        if name in record.get("absent", ()):
            line += "  (absent)"
        elif "pass_s" in record and unit == "s" and name != "cli.import_s":
            line += f"  ({100 * record['metrics'][name] / record['pass_s']:.1f}% of a pass)"
        print(line)
    for label, outcome in record.get("probes", {}).items():
        print(f"{label}: {'PASS' if outcome == 'pass' else 'FAIL: ' + outcome}")
    for label, why in record["failures"].items():
        print(f"FAILED {label}: {why}")


def run_workload(args, work: Path, cli: Cli) -> tuple[dict, Checker]:
    cli(NOOP.argv)  # compiles the bytecode cache before anything is timed

    def untimed(argv) -> bytes:
        got = cli(argv)
        if got.returncode != 0:
            raise RuntimeError(f"orbitkit {' '.join(argv)} failed: {got.err[-300:]}")
        return got.out

    plan = WORKLOADS[args.workload](work, random.Random(f"{args.workload}/{args.seed}"), untimed)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": commit_id(), "inputs": plan.inputs,
    }
    if args.trace:
        record["units"] = tracing.METRICS
        return record, measure_layers(work, plan, args.seconds, record)
    record["units"] = {**E2E_UNITS, **RAW_UNITS}
    return record, measure_end_to_end(cli, plan, args.seconds, record)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two files of records instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if not (ROOT / "src" / "orbitkit" / "cli.py").is_file():
        print(f"no orbitkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        with Cli(work) as cli:
            record, checker = run_workload(args, work, cli)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(digests=checker.digests, failures=checker.failures,
                  attempted=checker.attempted, failed=checker.failed)
    report(record)
    print("record " + json.dumps(record, sort_keys=True))
    units = tracing.METRICS if args.trace else E2E_UNITS
    summary = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
