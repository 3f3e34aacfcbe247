#!/usr/bin/env python3
"""Benchmark of the harmchoice command line, run from the root of a checkout.

    python3 perfbench/run.py --workload analyze-ladder --seed 1 --seconds 36 --trace 0

Each workload is a closed loop: one client runs ``python -m harmchoice.cli``
invocations one after another, each in a fresh process that imports the
package from the checkout's ``src/``. Set-up writes the workload's inputs with
the package's generators and runs one warm-up invocation; it is repeated and
its median reported as ``setup_s``. Passes over the invocations then repeat
for about ``--seconds`` (at least one), and the end-to-end metrics describe
a typical pass: each invocation's median over the passes. Every output is
checked by ``oracle.py`` on the first pass and must come back byte-identical
on later passes.

Times are reported at a fixed reference speed of the machine. A shared
virtual machine runs the same code a third or more slower for minutes at a
time, so the spawner times a fixed pure-Python loop run alone and then on
every core at once (``spawner.speed_probe``) just before and just after each
child and each set-up. Wall times the run measures are multiplied by ``REFERENCE_PROBE_S``
over the median of the probes' wall times, and CPU times by
``REFERENCE_PROBE_CPU_S`` over the median of their CPU times. The loop runs
no package code, so a change to the package moves the scaled times as much
as the raw ones. The raw times are printed above the result.

``--trace 1`` instead runs one plain pass, one pass through
``traced_cli.py`` that records spans around the package's layers, and (for
the census workload) one pass at ``--workers 1``, and reports the per-layer
metrics. Metric names and units come from ``BENCHMARK.json``. The last line
of stdout is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import spans
from workloads import TRACED_SPANS, WARM_UP, WORKLOADS, Context, Invocation

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: probe wall and CPU times that define the reported seconds; about the
#: probe's medians on a 2-core x86-64 virtual machine
REFERENCE_PROBE_S = 0.007
REFERENCE_PROBE_CPU_S = 0.012
SETUP_REPEATS = 5
MIN_PASSES = 1
IMPORT_REPEATS = 5
INVOCATION_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 165.0
ENV_DROP = ("HARMCHOICE_WORKERS", "HARMCHOICE_BACKEND")
CHECK_ERRORS = (oracle.OracleError, ValueError, KeyError, TypeError, IndexError, AttributeError)


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# child processes


@dataclass(frozen=True)
class Outcome:
    code: int | None  # None when the child was killed at its timeout
    wall: float
    cpu: float
    rss_mb: float
    out_bytes: int
    out: Path
    err: Path
    probe: tuple[float, float]  # spawner.speed_probe() around the child: wall, CPU

    def problem(self) -> str | None:
        if self.code == 0:
            return None
        tail = self.err.read_text(errors="replace").strip().splitlines()[-1:] if self.err.exists() else []
        what = "timed out" if self.code is None else f"exit code {self.code}"
        return f"{what} {tail}"


class Runner:
    """Runs one child at a time through ``spawner.py`` and collects its usage."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items() if k not in ENV_DROP}
        env["PYTHONPATH"] = str(SRC)
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def request(self, request: dict) -> dict:
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            fail("the spawner process exited")
        return json.loads(line)

    def probe(self) -> tuple[float, float]:
        """``spawner.speed_probe()``, taken in the spawner, not in this larger process."""
        return tuple(self.request({})["probe"])

    def run(self, argv: list[str], out: Path, err: Path) -> Outcome:
        timeout = min(INVOCATION_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            out.write_bytes(b"")
            return Outcome(None, 0.0, 0.0, 0.0, 0, out, err, (REFERENCE_PROBE_S, REFERENCE_PROBE_CPU_S))
        r = self.request({"argv": argv, "out": str(out), "err": str(err), "timeout": timeout})
        size = out.stat().st_size
        return Outcome(r["code"], r["wall"], r["cpu"], r["maxrss_kb"] / 1024, size, out, err, tuple(r["probe"]))

    def cli(self, args: list[str], out: Path, err: Path, spans_to: Path | None = None) -> Outcome:
        if spans_to is None:
            return self.run([sys.executable, "-m", "harmchoice.cli", *args], out, err)
        traced = [sys.executable, str(HERE / "traced_cli.py"), str(spans_to), spans_to.stem]
        return self.run([*traced, *args], out, err)


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    outcomes: list[Outcome]
    accepted: list[bytes | None]  # sha256 of the stdout of each invocation that passed its check
    problems: list[str]
    invocations: list[Invocation]

    @property
    def wall(self) -> float:
        return sum(o.wall for o in self.outcomes)


def end_to_end(passes: list[Pass], wall_scale: float, cpu_scale: float) -> dict[str, float]:
    """Metrics of one typical pass: each invocation's median over the passes.

    Wall and CPU times are multiplied by the reference speed over the run's.
    """
    invocations = passes[0].invocations

    def typical(field: str) -> float:
        return sum(
            statistics.median(getattr(p.outcomes[i], field) for p in passes) for i in range(len(invocations))
        )

    wall = typical("wall") * wall_scale
    return {
        "wall_s": wall,
        "cpu_s": typical("cpu") * cpu_scale,
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in p.outcomes) for p in passes),
        "output_mb": typical("out_bytes") / 1e6,
        "menus_per_s": sum(i.menus for i in invocations) / wall,
        "choices_per_s": sum(i.choices for i in invocations) / wall,
    }


def run_pass(
    runner: Runner,
    invocations: list[Invocation],
    tag: str,
    reference: Pass | None = None,
    spans_dir: Path | None = None,
) -> Pass:
    """Run every invocation once; check each output or compare it to ``reference``."""
    out_dir = WORK / tag
    out_dir.mkdir(parents=True, exist_ok=True)
    result = Pass([], [], [], invocations)
    for i, inv in enumerate(invocations):
        trace_file = spans_dir / f"{i:02d}.json" if spans_dir else None
        o = runner.cli(inv.args, out_dir / f"{i:02d}.out", out_dir / f"{i:02d}.err", trace_file)
        result.outcomes.append(o)
        problem = o.problem()
        digest = None
        if problem is None:
            data = o.out.read_bytes()
            digest = hashlib.sha256(data).digest()
            expected = reference.accepted[i] if reference else None
            if expected is not None:
                if digest != expected:
                    problem = "stdout differs from the checked pass"
            else:
                try:
                    inv.check(data)
                except CHECK_ERRORS as exc:
                    problem = f"{type(exc).__name__}: {exc}"
        result.accepted.append(digest if problem is None else None)
        if problem is not None:
            result.problems.append(f"{tag} {inv.name}: {problem}")
    return result


def setup(build, ctx: Context, runner: Runner) -> tuple[list[Invocation], float, tuple[float, float]]:
    """Write the inputs and run the warm-up invocation.

    Returns the pass, the set-up's wall time and the speed probe around it.
    """
    before = runner.probe()
    start = time.perf_counter()
    invocations = build(ctx)
    warm = runner.cli(WARM_UP, ctx.work / "warm-up.out", ctx.work / "warm-up.err")
    if warm.code != 0:
        fail(f"warm-up invocation failed: {warm.problem()}")
    took = time.perf_counter() - start
    return invocations, took, tuple((b * a) ** 0.5 for b, a in zip(before, runner.probe()))


def measure(build, ctx: Context, runner: Runner, seconds: float) -> tuple[dict, list[Pass]]:
    setups = []
    for _ in range(SETUP_REPEATS):
        invocations, took, probe = setup(build, ctx, runner)
        setups.append((took, probe))
    passes: list[Pass] = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(runner, invocations, "pass", passes[0] if passes else None))
        elapsed = time.monotonic() - start
        if time.monotonic() > runner.deadline - 5:
            break
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    for inv, o in zip(invocations, passes[0].outcomes):
        print(f"  {inv.name:32s} {o.wall:8.3f} s {o.rss_mb:8.1f} MB {o.out_bytes / 1e6:9.3f} MB out")
    probes = [probe for _, probe in setups] + [o.probe for p in passes for o in p.outcomes]
    scales = []
    for kind, reference, values in zip(("wall", "cpu"), (REFERENCE_PROBE_S, REFERENCE_PROBE_CPU_S), zip(*probes)):
        median = statistics.median(values)
        scales.append(reference / median)
        print(f"speed probe {kind}: median {median * 1e3:.2f} ms, "
              f"range {min(values) * 1e3:.2f}-{max(values) * 1e3:.2f} ms, scale {scales[-1]:.4f}")
    print(f"pass wall: {' '.join(f'{p.wall:.3f}' for p in passes)} s raw")
    print(f"set-up: {' '.join(f'{t:.3f}' for t, _ in setups)} s raw")
    metrics = end_to_end(passes, *scales)
    metrics["setup_s"] = statistics.median(t for t, _ in setups) * scales[0]
    return metrics, passes


def trace(workload: str, ctx: Context, runner: Runner, serial_pass: bool) -> tuple[dict, list[Pass]]:
    invocations, _, _ = setup(WORKLOADS[workload], ctx, runner)
    plain = run_pass(runner, invocations, "plain")
    spans_dir = ctx.work / "spans"
    spans_dir.mkdir()
    traced = run_pass(runner, invocations, "traced", plain, spans_dir)
    passes = [plain, traced]
    records = []
    for i in range(len(invocations)):
        path = spans_dir / f"{i:02d}.json"
        rows = json.loads(path.read_text())["spans"] if path.exists() else []
        records.append([spans.Span.from_record(r) for r in rows])
    seen = {s.name for rows in records for s in rows}
    traced.problems.extend(
        f"traced: no {name} span was recorded" for name in TRACED_SPANS[workload] if name not in seen
    )
    metrics = spans.layer_metrics(records)
    metrics["census.generate_s"] = metrics.get("census.generate_s", 0.0) + ctx.generate_s
    metrics["trace.overhead_frac"] = traced.wall / plain.wall - 1
    if serial_pass:
        # same arguments at one worker: outputs must match the plain pass byte for byte
        serial = run_pass(runner, [inv.with_workers(1) for inv in invocations], "serial", plain)
        passes.append(serial)
        metrics["parallel.speedup"] = serial.wall / plain.wall
    imports = [
        runner.run([sys.executable, "-c", "import harmchoice.cli"], ctx.work / "import.out", ctx.work / "import.err")
        for _ in range(IMPORT_REPEATS)
    ]
    if any(o.code != 0 for o in imports):
        fail(f"importing harmchoice.cli failed: {imports[0].problem()}")
    metrics["cli.import_s"] = statistics.median(o.wall for o in imports)
    outside = traced.wall - sum(s.duration for rows in records for s in rows if s.name == "cli.main")
    print(f"plain pass {plain.wall:.3f} s, traced pass {traced.wall:.3f} s")
    print("self time by span (s, summed over threads; share of the traced pass):")
    print(f"  {'(outside cli.main)':28s} {outside:9.3f} {outside / traced.wall:7.1%}")
    for name, secs in sorted(spans.self_time_by_name(records).items(), key=lambda kv: -kv[1]):
        print(f"  {name:28s} {secs:9.3f} {secs / traced.wall:7.1%}")
    return metrics, passes


# ---------------------------------------------------------------------------
# entry point


def import_checkout():
    """Import harmchoice from this checkout's src/, and nowhere else."""
    if not (SRC / "harmchoice" / "__init__.py").is_file():
        fail(f"no harmchoice package under {SRC}")
    for key in ENV_DROP:
        os.environ.pop(key, None)
    sys.path.insert(0, str(SRC))
    import harmchoice

    if not Path(harmchoice.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"harmchoice was imported from {harmchoice.__file__}, outside the checkout")
    return harmchoice


def git_state() -> tuple[str, bool | None]:
    if not (ROOT / ".git").exists():
        return "unknown", None
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unknown", None
    return rev, bool(status.strip())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    harmchoice = import_checkout()
    nproc = len(os.sched_getaffinity(0))
    work = WORK / args.workload
    shutil.rmtree(WORK, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(args.seed, nproc, work)
    runner = Runner(deadline)
    rev, dirty = git_state()
    print("provenance " + json.dumps({
        "git": rev, "dirty": dirty, "python": platform.python_version(),
        "numpy": __import__("numpy").__version__, "backend": harmchoice.active_backend(), "nproc": nproc,
        "workers": ctx.workers, "seed": args.seed, "workload": args.workload, "trace": args.trace,
    }))

    build = WORKLOADS[args.workload]
    try:
        if args.trace:
            values, passes = trace(args.workload, ctx, runner, serial_pass=args.workload == "census" and nproc > 1)
        else:
            values, passes = measure(build, ctx, runner, args.seconds)
    finally:
        runner.close()
        shutil.rmtree(WORK, ignore_errors=True)
    problems = [msg for p in passes for msg in p.problems]
    attempted = sum(len(p.outcomes) for p in passes)
    for msg in problems:
        print(f"FAILED {msg}")
    section = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in section}
    for name, entry in metrics.items():
        print(f"{name:32s} {entry['value']:.6g} {entry['unit']}")
    print(f"failed_frac {len(problems) / attempted:.6g} ({len(problems)} of {attempted} invocations)")
    result = {"correct": not problems, "attempted": attempted, "failed": len(problems), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
