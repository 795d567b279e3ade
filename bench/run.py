#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for ``tbsl``.

Run from the repository root::

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, one table

It imports the library from ``src/`` of the current directory and exits
with status 2 when there is none.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The line before it holds the run's record: Python
version, git SHA, nproc, seed, output bytes, calibration and the size of
``src/tbsl``.

Timings are calibrated.  The reference host's vCPUs each switch between
speeds up to 1.8x apart, in phases of seconds; the harness pins itself to
one CPU, logs calibration readings while ops run (see ``Calibration``) and
rescales every op to the speed at which a reading equals its reference
value.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
# reading at the faster CPU speed of the reference host, for each reader
CAL_REF_S = 0.00125
SPAWN_REF_S = 0.05
CAL_PERIOD_S = 0.04
SETUP_PROBES = 5
IMPORT_PROBES = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
WORKLOAD_NAMES = ("census", "sweep", "regions", "cli_cold")
#: whole passes run untraced and then traced by ``--trace 1``; fixed, so
#: every ``*.calls`` count repeats exactly for a seed
TRACE_PASSES = {"census": 12, "sweep": 1, "regions": 3, "cli_cold": 1}


def kernel() -> float:
    """Seconds taken by a fixed pure-Python workload (the calibration reading)."""
    t0 = time.perf_counter()
    x, d = Fraction(0), {}
    for i in range(1, 400):
        x += Fraction(1, i)
        d[i % 37] = d.get(i % 37, 0) + i
    return time.perf_counter() - t0


def spawn() -> float:
    """Seconds to start and stop a bare interpreter: the calibration reading
    for work done in child processes.  Across the host's speed changes a
    ``cli_cold`` op tracks this reading within about 3%, and :func:`kernel`
    only within about 15%."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


def current_cpu(allowed: set[int]) -> int:
    """The CPU the scheduler placed this process on (field 39 of
    /proc/self/stat), or the lowest allowed one where that is unreadable."""
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return min(allowed)
    return cpu if cpu in allowed else min(allowed)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def find_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "tbsl" / "__init__.py").is_file():
        fail(f"no src/tbsl under {root}; run from the repository root")
    sys.path.insert(0, str(root / "src"))
    return root


def import_workloads(root: Path):
    import workloads

    import tbsl

    if Path(tbsl.__file__).resolve().parent != (root / "src" / "tbsl").resolve():
        fail(f"imported tbsl from {tbsl.__file__}, not from {root / 'src'}")
    return workloads


# ---------------------------------------------------------------------------
# measurement


class Calibration:
    """Calibration readings logged while ops run.

    In-process work is read with :func:`kernel`, by SIGALRM every
    ``CAL_PERIOD_S`` of wall time: the handler runs between two bytecodes
    of whatever op is running.  Work in child processes is read with
    :func:`spawn` and no timer, only where ``take`` is called between ops,
    since a reading taken while a child runs would compete with it.

    Reading time is cut out of op times, and every stretch of an op between
    two readings is rescaled by their mean (each smoothed over three
    readings), so an op that spans a change of CPU speed is rescaled piece
    by piece.
    """

    def __init__(self, read=kernel, timer: bool = True):
        self.read, self.timer = read, timer
        self.ref_s = CAL_REF_S if read is kernel else SPAWN_REF_S
        self.start = array("d")
        self.end = array("d")
        self.reading = array("d")

    def take(self, *_):
        t0 = time.perf_counter()
        reading = self.read()
        self.start.append(t0)
        self.reading.append(reading)
        self.end.append(time.perf_counter())

    def __enter__(self):
        self.take()
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self.take)
            signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.take()

    def normalized(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] would take at the reference speed."""
        r = self.reading
        smooth = lambda j: statistics.median(r[max(0, j - 1): j + 2])  # noqa: E731
        first = bisect.bisect_right(self.start, t0)
        last = bisect.bisect_left(self.start, t1)
        total, cursor, before = 0.0, t0, first - 1
        for j in range(first, last):
            total += (self.start[j] - cursor) * 2 / (smooth(before) + smooth(j))
            cursor, before = self.end[j], j
        after = min(last, len(r) - 1)
        total += (t1 - cursor) * 2 / (smooth(before) + smooth(after))
        return total * self.ref_s


class Samples:
    """Start and end of every op, and the calibration readings around them."""

    def __init__(self, in_child: bool = False):
        self.start = array("d")
        self.end = array("d")
        self.cal = Calibration(spawn, timer=False) if in_child else Calibration()
        self.pass_ends: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.output_bytes = 0

    @property
    def raw(self) -> list[float]:
        return [t1 - t0 for t0, t1 in zip(self.start, self.end)]

    def normalized_s(self) -> list[float]:
        return [self.cal.normalized(t0, t1) for t0, t1 in zip(self.start, self.end)]


def verify(wl, i: int, op, result, first: dict) -> list[str]:
    """Problems with an output of op ``i``: the full check the first time
    (kept for its repeats), then equality with that first output."""
    if i not in first:
        first[i] = (wl.record(op, result), wl.check(op, result), wl.output_bytes(op, result))
        return first[i][1]
    record, problems, _ = first[i]
    if wl.record(op, result) != record:
        return problems + ["output differs from its first run"]
    return problems


def measure(wl, seconds: float | None, passes: int | None = None, tracer=None) -> Samples:
    """Closed loop over the workload's pass until the deadline or pass count."""
    s = Samples(wl.in_child)
    first: dict[int, tuple] = {}
    ops, i = wl.ops, 0
    with s.cal:
        deadline = time.perf_counter() + (seconds or 0)
        while True:
            op = ops[i]
            if tracer is not None:
                tracer.op = s.attempted
            t0 = time.perf_counter()
            try:
                result = wl.run(op)
            except Exception as exc:  # a failed op is counted, the run goes on
                result, problems = None, [repr(exc)]
            t1 = time.perf_counter()
            if wl.in_child:
                s.cal.take()
            s.start.append(t0)
            s.end.append(t1)
            s.attempted += 1
            if result is not None:
                try:
                    problems = verify(wl, i, op, result, first)
                except Exception as exc:  # unreadable output: a failed op too
                    problems = [f"checking raised {exc!r}"]
            if problems:
                s.failed += 1
                if len(s.errors) < 10:
                    s.errors.append(f"{op.kind} {op.args[:1]}: {'; '.join(problems)}")
            i += 1
            if i == len(ops):
                i = 0
                s.pass_ends.append(s.attempted)
                if passes is not None and len(s.pass_ends) >= passes:
                    break
            if passes is None and t1 >= deadline:
                break
    s.output_bytes = sum(entry[2] for entry in first.values())
    return s


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, -(-len(sorted_values) * p // 100) - 1)
    return sorted_values[int(k)]


def tail(sorted_values: list[float], wanted: float) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): ``wanted`` or the next rung down
    that leaves at least ten samples beyond it."""
    n = len(sorted_values)
    for p in TAIL_LADDER:
        beyond = n - int(max(0, -(-n * p // 100)))
        if p <= wanted and beyond >= 10:
            return percentile(sorted_values, p), p, beyond
    return sorted_values[-1], 100.0, 0


def throughput(s: Samples, times: list[float]) -> float:
    """Ops per second over whole passes (all ops if none completed)."""
    end = s.pass_ends[-1] if s.pass_ends else len(times)
    return end / sum(times[:end])


# ---------------------------------------------------------------------------
# set-up probes and import timing (child processes)


def setup_probe(root: Path, name: str, seed: int, tmp: Path) -> None:
    """Time import + input generation + warm-up in this fresh process.

    A child-process workload skips its warm-up here: that is one cold
    command, which every op already measures.
    """
    with Calibration(timer=False) as cal:
        t0 = time.perf_counter()
        workloads = import_workloads(root)
        wl = workloads.WORKLOADS[name](seed, root, tmp)
        if not wl.in_child:
            wl.warm_up()
        t1 = time.perf_counter()
    print(json.dumps({"setup_s": cal.normalized(t0, t1), "raw_s": t1 - t0}))


def setup_seconds(root: Path, name: str, seed: int, env: dict) -> tuple[float, float]:
    """Median over fresh processes of (calibrated, raw) set-up seconds."""
    runs = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)],
            cwd=root, env=env, capture_output=True, text=True, check=True,
        ).stdout
        runs.append(json.loads(out.splitlines()[-1]))
    return statistics.median(r["setup_s"] for r in runs), statistics.median(r["raw_s"] for r in runs)


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative import ms of ``tbsl`` and ``tbsl.cli`` from ``-X importtime``."""
    out = {}
    for line in text.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, module = line[len("import time:"):].split("|")
            if module.strip() in ("tbsl", "tbsl.cli"):
                out[module.strip()] = int(cumulative) / 1000
    return out


def import_ms(root: Path, env: dict) -> dict[str, float]:
    """Median over fresh interpreters of the calibrated import times."""
    readings = []
    for _ in range(IMPORT_PROBES):
        with Calibration(spawn, timer=False) as cal:
            t0 = time.perf_counter()
            err = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import tbsl.cli"],
                cwd=root, env=env, capture_output=True, text=True, check=True,
            ).stderr
            t1 = time.perf_counter()
        scale = cal.normalized(t0, t1) / (t1 - t0)
        readings.append({k: v * scale for k, v in parse_importtime(err).items()})
    return {k: statistics.median(r[k] for r in readings) for k in ("tbsl", "tbsl.cli")}


# ---------------------------------------------------------------------------
# the run record


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_stats(root: Path) -> tuple[int, str]:
    """Non-blank line count and content hash of src/tbsl/*.py."""
    lines, digest = 0, hashlib.sha256()
    for path in sorted((root / "src" / "tbsl").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += sum(1 for line in data.splitlines() if line.strip())
    return lines, digest.hexdigest()


def base_record(root: Path, args, s: Samples) -> dict:
    lines, src_hash = source_stats(root)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "src_sha256": src_hash,
        "src_tbsl_nonblank_lines": lines,
        "nproc": args.nproc,
        "pinned_cpu": args.cpu,
        "output_bytes_per_pass": s.output_bytes,
        "calibration": {
            "reader": s.cal.read.__name__,
            "ref_ms": s.cal.ref_s * 1e3,
            "median_ms": statistics.median(s.cal.reading) * 1e3,
            "min_ms": min(s.cal.reading) * 1e3,
            "max_ms": max(s.cal.reading) * 1e3,
        },
        "attempted": s.attempted,
        "failed": s.failed,
        "failed_ratio": s.failed / s.attempted,
        "passes": len(s.pass_ends),
        "errors": s.errors,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(root: Path, args, wl) -> tuple[Samples, dict, dict]:
    s = measure(wl, args.seconds)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.name == "cli_cold":
        rss_kb = statistics.median(wl.child_rss_kb)
    times = s.normalized_s()
    ordered = sorted(times)
    tail_s, tail_p, beyond = tail(ordered, wl.tail_percentile)
    setup_s, setup_raw_s = setup_seconds(root, args.workload, args.seed, wl.env)
    metrics = {
        "ops_per_s": metric(throughput(s, times), "1/s"),
        "op_ms_p50": metric(statistics.median(ordered) * 1e3, "ms"),
        "op_ms_tail": metric(tail_s * 1e3, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
    }
    raw = sorted(s.raw)
    record = {
        "op_ms_tail": {"percentile": tail_p, "samples": len(ordered), "beyond": beyond},
        "raw": {
            "ops_per_s": throughput(s, list(s.raw)),
            "op_ms_p50": statistics.median(raw) * 1e3,
            "op_ms_tail": percentile(raw, tail_p) * 1e3,
            "setup_s": setup_raw_s,
        },
    }
    return s, metrics, record


def per_layer(root: Path, args, wl) -> tuple[Samples, dict, dict]:
    import tracing

    passes = TRACE_PASSES[wl.name]
    plain = measure(wl, None, passes)
    wl.bytes_out = {"cli": 0, "svg": 0}
    in_process = wl.name != "cli_cold"  # cli_cold ops trace inside their child
    tracer = tracing.Tracer()
    if in_process:
        tracer.install()
    else:
        wl.trace = True
    try:
        s = measure(wl, None, passes, tracer if in_process else None)
    finally:
        tracer.uninstall()
    times = s.normalized_s()
    scale = [t / r if r else 1.0 for t, r in zip(times, s.raw)]
    if not in_process:
        layers = {name: {"calls": 0, "self_ms": 0.0} for name in tracing.all_layer_names()}
        for op_scale, child in zip(scale, wl.child_stats):
            for name, entry in child.items():
                layers[name]["calls"] += entry["calls"]
                if "self_ms" in entry:
                    layers[name]["self_ms"] += entry["self_ms"] * op_scale
    else:
        layers = tracer.layer_totals(scale)
    ops = s.attempted
    metrics = {}
    for name in tracing.all_layer_names():
        entry = layers.get(name, {"calls": 0, "self_ms": 0.0})
        metrics[f"{name}.calls"] = metric(entry["calls"], "count")
        if "self_ms" in entry and name != "exactq.CircleInterval.contains":
            metrics[f"{name}.self_ms"] = metric(entry["self_ms"], "ms")
    for name in ("twobridge.classify", "exactq.CircleInterval.contains"):
        metrics[f"{name}.calls_per_op"] = metric(layers.get(name, {"calls": 0})["calls"] / ops, "count/op")
    imports = import_ms(root, wl.env)
    metrics["import.tbsl_ms"] = metric(imports["tbsl"], "ms")
    metrics["import.tbsl.cli_ms"] = metric(imports["tbsl.cli"], "ms")
    metrics["cli.output_bytes"] = metric(wl.bytes_out["cli"], "bytes")
    metrics["svgplot.svg_bytes"] = metric(wl.bytes_out["svg"], "bytes")
    metrics["trace.overhead_ratio"] = metric(
        throughput(s, times) / throughput(plain, plain.normalized_s()), "ratio"
    )
    record = {"untraced_ops_per_s": throughput(plain, plain.normalized_s())}
    return s, metrics, record


def run_one(root: Path, args) -> int:
    workloads = import_workloads(root)
    tmp = Path(tempfile.mkdtemp(prefix="bench-", dir=root / ".bench_tmp"))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, root, tmp)
        wl.warm_up()
        if args.trace:
            s, metrics, extra = per_layer(root, args, wl)
        else:
            s, metrics, extra = end_to_end(root, args, wl)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record = base_record(root, args, s) | extra
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(root: Path, args) -> int:
    """Every workload in its own process; a table, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout
        result = json.loads(out.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key:<48} {m['value']:>14.6g} {m['unit']}")
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = find_root()
    # one CPU for this process and, by inheritance, its children: the
    # reference host's two vCPUs often run at different speeds at the same
    # moment, so calibration must read the CPU the work runs on
    cpus = os.sched_getaffinity(0)
    args.nproc, args.cpu = len(cpus), current_cpu(cpus)
    os.sched_setaffinity(0, {args.cpu})
    (root / ".bench_tmp").mkdir(exist_ok=True)
    if args.setup_probe:
        tmp = Path(tempfile.mkdtemp(prefix="probe-", dir=root / ".bench_tmp"))
        try:
            setup_probe(root, args.workload, args.seed, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return 0
    try:
        return run_all(root, args) if args.workload == "all" else run_one(root, args)
    finally:
        with contextlib.suppress(OSError):
            (root / ".bench_tmp").rmdir()


if __name__ == "__main__":
    sys.exit(main())
