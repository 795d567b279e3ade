"""The benchmark workloads: seeded inputs, one timed op, and output checks.

Every workload is a closed loop with a single caller.  Its inputs are a
fixed list of ops (a "pass") generated from the seed; the harness repeats
the pass.  ``run`` is the timed op; outside it the library is called
only to build inputs.  ``record`` condenses an output without calling the
library, so repeats of an op can be compared with its first output.
``check`` tests the first output of each op against the closed forms in
:mod:`oracle`, also without calling the library, so a traced run counts
only the calls the ops make.

The mix of op shapes (sizes, families, steps, commands) is fixed; the seed
only picks the links, slopes and boxes inside each shape, drawn from
strata, so that the cost of a pass hardly depends on the seed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

import oracle

import tbsl
import tbsl.cli
import tbsl.foliation
import tbsl.schema

_TIMING_RE = re.compile(rb'"timing_ms": \d+')


def child_env(root: Path) -> dict:
    """Environment for a child interpreter that imports ``tbsl`` from ``root``.

    Bytecode caching is on whatever the caller's environment says, as for an
    installed package: import timings then do not depend on an inherited
    ``PYTHONDONTWRITEBYTECODE``.  The cache lands in ``src/tbsl/__pycache__``.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for name in ("TBSL_LOG", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    return env


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


def _digest(data: bytes) -> str:
    """sha256 of a report without its (varying) timing field."""
    return hashlib.sha256(_TIMING_RE.sub(b"", data)).hexdigest()


def _file_digest(path: Path) -> str:
    """:func:`_digest` of a report file, read in blocks; the timing field is
    the report's last key, so it is stripped from the final 4 KiB only."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        body = max(0, fh.seek(0, os.SEEK_END) - 4096)
        fh.seek(0)
        while fh.tell() < body:
            digest.update(fh.read(min(1 << 16, body - fh.tell())))
        digest.update(_TIMING_RE.sub(b"", fh.read()))
    return digest.hexdigest()


def _stratum(rng: random.Random, i: int, strata: int, lo: int, hi: int) -> int:
    """Uniform draw from the i-th of ``strata`` equal slices of [lo, hi]."""
    width = (hi - lo + 1) / strata
    return lo + int(i * width) + rng.randrange(max(1, int(width)))


def _odd_stratum(rng, i, strata, lo, hi) -> int:
    return _stratum(rng, i, strata, lo, hi) | 1


def _random_pm2(rng: random.Random, length: int) -> list[int]:
    return [rng.choice((2, -2)) for _ in range(length)]


def _family1(length: int, mirrored: bool) -> list[int]:
    return [2 if mirrored else -2] * length


def _family2(rng: random.Random, length: int, mirrored: bool) -> list[int]:
    # rivers (even 1-based positions) -1, bridges +1 but one interior bridge -1
    halves = [1 if i % 2 == 0 else -1 for i in range(length)]
    halves[2 * rng.randrange(1, (length - 1) // 2)] = -1
    sign = -1 if mirrored else 1
    return [2 * sign * h for h in halves]


def _generic_link(rng: random.Random, lo: int, hi: int) -> tuple[str, int, int, int]:
    """A ±2 link that is neither torus nor in the exceptional family."""
    while True:
        coeffs = _random_pm2(rng, rng.randrange(lo, hi + 1, 2))
        spec, p, q = oracle.link_spec_from_coeffs(coeffs)
        if not oracle.is_torus(p, q) and oracle.ln_index(p, q) is None:
            return spec, p, q, oracle.linking_number(coeffs)


def fibered_link(rng: random.Random, category: str, n_range=None) -> tuple[str, int, int, int]:
    """(spec, p, q, linking number) of a seeded hyperbolic fibered link;
    ``n_range`` bounds n for the ``ln`` and ``ln-mirror`` categories."""
    if category in ("ln", "ln-mirror"):
        n = rng.randint(*n_range)
        q = 3 if category == "ln-mirror" else -3
        return f"b({6 * n + 2},{q})", 6 * n + 2, q, n - 1
    if category == "generic":
        return _generic_link(rng, 5, 11)
    if category == "family1":
        coeffs = _family1(rng.randrange(3, 10, 2), rng.random() < 0.5)
    else:
        coeffs = _family2(rng, rng.randrange(5, 12, 2), rng.random() < 0.5)
    spec, p, q = oracle.link_spec_from_coeffs(coeffs)
    return spec, p, q, oracle.linking_number(coeffs)


class Workload:
    name = ""
    #: percentile reported as ``op_ms_tail``: the highest rung of
    #: 50/75/90/95/99/99.9 leaving at least 10 ops beyond it in a 20 s run
    #: at the reference host's slower CPU speed
    tail_percentile = 50.0

    #: ops run in a child process, calibrated with ``run.spawn`` between ops
    in_child = False

    def __init__(self, seed: int, root: Path, tmp: Path):
        self.rng = random.Random(seed)
        self.root, self.tmp = root, tmp
        self.ops: list[Op] = []
        #: bytes written by ``cli.main`` (key "cli") and SVG files ("svg")
        self.bytes_out = {"cli": 0, "svg": 0}
        self.env = child_env(root)

    def warm_up(self) -> None:
        """Run the first-generated op of each kind, so lazy set-up is not timed.
        A child-process workload runs only its first op, to compile bytecode.

        ``ops`` is shuffled only after ``warm_ops`` is taken, so the warm-up
        costs about the same for every seed.
        """
        for op in self.warm_ops[:1] if self.in_child else self.warm_ops:
            with contextlib.suppress(Exception):  # the measured run counts failures
                self.run(op)

    def _set_ops(self, ops: list[Op]) -> None:
        kinds = {}
        for op in ops:
            kinds.setdefault(op.kind, op)
        self.warm_ops = list(kinds.values())
        self.rng.shuffle(ops)
        self.ops = ops

    def run(self, op: Op):
        raise NotImplementedError

    def record(self, op: Op, result):
        raise NotImplementedError

    def check(self, op: Op, result) -> list[str]:
        raise NotImplementedError

    def output_bytes(self, op: Op, result) -> int:
        return len(repr(self.record(op, result)))


# ---------------------------------------------------------------------------


class Census(Workload):
    """One op per unoriented class: classify, then regions and partition."""

    name = "census"
    tail_percentile = 99.9
    MAX_P = 100
    LARGE_PER_FAMILY = 16

    def __init__(self, seed, root, tmp):
        super().__init__(seed, root, tmp)
        rng, k = self.rng, self.LARGE_PER_FAMILY
        self.plane = tbsl.Region2.finite_plane(tbsl.Framing.CANONICAL)
        ops = [Op("small", pq) for pq in self.unoriented_classes(self.MAX_P)]
        for i in range(k):
            n = _stratum(rng, i, k, 20, 400)
            ops.append(Op("ln", (6 * n + 2, 3 if i % 2 else -3)))
        for i in range(k):
            coeffs = _family1(_odd_stratum(rng, i, k, 5, 61), i % 2 == 1)
            ops.append(Op("family1", oracle.link_spec_from_coeffs(coeffs)[1:]))
        for i in range(k):
            coeffs = _family2(rng, _odd_stratum(rng, i, k, 7, 61), i % 2 == 1)
            ops.append(Op("family2", oracle.link_spec_from_coeffs(coeffs)[1:]))
        self._set_ops(ops)

    @staticmethod
    def unoriented_classes(max_p: int):
        """One (p, q) per unoriented class, as scripts/fibered_census.py lists them."""
        seen = set()
        for p in range(2, max_p + 1, 2):
            for q in range(-p + 1, p, 2):
                if q == 0 or gcd(p, abs(q)) != 1:
                    continue
                qm = q % p
                key = (p, min(qm, pow(qm, -1, p)))
                if key not in seen:
                    seen.add(key)
                    yield p, q

    def run(self, op):
        link = tbsl.TwoBridgeLink(*op.args)
        cls = tbsl.classify(link)
        partition = None
        if cls.is_hyperbolic_fibered:
            ls, fol = tbsl.lspace_region(link), tbsl.foliation_region(link)
            partition = ls.union(fol).equals(self.plane) and ls.intersect(fol).is_empty()
        return cls, partition

    def record(self, op, result):
        cls, partition = result
        return cls.family.value, cls.n, cls.mirrored, partition

    def check(self, op, result):
        family, n, mirrored, partition = self.record(op, result)
        errors = []
        if partition is False:
            errors.append("L-space and foliation regions do not partition Q^2")
        expected = oracle.ln_index(*op.args)
        if expected is None and family in ("Ln", "Ln-mirror"):
            errors.append(f"classified {family}({n}) but not equal to b(6n+2,∓3)")
        if expected is not None:
            want = ("Ln-mirror" if expected[1] else "Ln", expected[0], expected[1])
            if (family, n, mirrored) != want:
                errors.append(f"expected {want}, classified {(family, n, mirrored)}")
        return errors


# ---------------------------------------------------------------------------


def _grid_size(window: int, step: str) -> int:
    return (int(2 * window / Fraction(step)) + 1) ** 2


class Sweep(Workload):
    """One op per in-process ``tbsl --json sweep`` call.

    Standard output goes to a file in the run's temporary directory, as with
    ``tbsl --json sweep ... > out.json``, so the process holds no copy of
    the report beyond what the library itself builds.
    """

    name = "sweep"
    tail_percentile = 75.0
    # (link category, window, step); the window is per step so each op has
    # a few hundred to a thousand grid points, plus one stress op at W=100
    CATEGORIES = ("ln-in", "ln-out", "ln-mirror-in", "ln-mirror-out", "generic", "family1", "family2")
    GRIDS = ((12, "1"), (8, "1/2"), (5, "1/3"))
    STRESS = ("ln-in", 100, "1")

    def __init__(self, seed, root, tmp):
        super().__init__(seed, root, tmp)
        shapes = [(c, w, s) for c in self.CATEGORIES for w, s in self.GRIDS]
        shapes.append(self.STRESS)
        self._set_ops([self._op(*shape) for shape in shapes])

    def _op(self, category, window, step):
        if category.endswith("-in"):
            n_range = (2, max(2, window - 2))
        elif category.endswith("-out"):
            n_range = (window + 1, 3 * window)
        else:
            n_range = None
        family = category.removesuffix("-in").removesuffix("-out")
        spec, p, q, lk = fibered_link(self.rng, family, n_range)
        return Op(category, (spec, window, step, lk, oracle.ln_index(p, q)))

    @property
    def _out(self) -> Path:
        return self.tmp / "sweep.json"

    def run(self, op):
        spec, window, step = op.args[:3]
        with open(self._out, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            code = tbsl.cli.main(["--json", "sweep", spec, "--window", str(window), "--step", step])
        size = os.path.getsize(self._out)
        self.bytes_out["cli"] += size
        return code, size

    def record(self, op, result):
        return result[0], _file_digest(self._out)

    def output_bytes(self, op, result):
        return result[1]

    def check(self, op, result):
        spec, window, step, lk, ln = op.args
        if result[0] != 0:
            return [f"exit code {result[0]}"]
        points = wrong = 0

        def check_entry(pairs):
            # verdict entries are checked as they are parsed and then dropped,
            # so a 40k-point report does not become 40k dicts in this process
            nonlocal points, wrong
            entry = dict(pairs)
            if "verdict" not in entry or "slope" not in entry:
                return entry
            points += 1
            r1, r2 = (oracle.parse_slope(s) for s in entry["slope"])
            wrong += entry["verdict"] != oracle.expected_verdict(r1, r2, lk, ln)
            return None

        report = json.loads(self._out.read_text(encoding="utf-8"), object_pairs_hook=check_entry)
        errors = []
        if not report["ok"]:
            errors.append("report not ok")
        if abs(report["classification"]["linking_number"] or 0) != abs(lk):
            errors.append(f"linking number {report['classification']['linking_number']} != ±{lk}")
        if points != _grid_size(window, step):
            errors.append(f"{points} grid points, expected {_grid_size(window, step)}")
        if wrong:
            errors.append(f"{wrong} verdicts differ from the closed form")
        return errors


# ---------------------------------------------------------------------------

# x and y shapes of the i-th box; a wide shape is paired with a narrow one
# so that unions keep structure instead of collapsing to the whole plane
_SHAPE_PAIRS = (
    ("open", "closed"), ("point", "punctured"), ("wrap", "open"), ("closed", "point"),
    ("punctured", "closed"), ("open", "wrap"), ("ray", "open"), ("closed", "ray"),
    ("punctured", "point"), ("wrap", "closed"), ("point", "open"), ("ray", "point"),
)
_RANKS = 41
_ENDPOINT_POOL = sorted({Fraction(a, b) for a in range(-60, 61) for b in (1, 2, 3, 4)})


def _template_interval(template: random.Random, shape: str):
    """An interval of the given shape over endpoint ranks 0.._RANKS-1."""
    a, b = sorted(template.sample(range(_RANKS), 2))
    if shape == "open":
        return (a, b, False, False, "arc")
    if shape == "closed":
        return (a, b, True, True, "arc")
    if shape == "point":
        return (a, a, True, True, "point")
    if shape == "punctured":
        return (a, a, False, False, "punctured")
    if shape == "ray":  # one endpoint at inf
        return (a, None, True, False, "arc") if template.random() < 0.5 else (None, b, False, True, "arc")
    # "wrap": from b up through inf round to a
    return (b, a, template.random() < 0.5, template.random() < 0.5, "arc")


def _random_boxes(rng: random.Random, count: int):
    """``count`` boxes as plain-tuple interval pairs (see :mod:`oracle`).

    Shapes and the order of all endpoints come from a template fixed by
    ``count``; the seed only picks the rational value of each rank, in
    increasing order.  Every seed therefore yields the same cells per box
    and the same work, with different numbers.
    """
    template = random.Random(f"regions-{count}")
    values = [sorted(rng.sample(_ENDPOINT_POOL, _RANKS)) for _ in range(2)]
    boxes = []
    for i in range(count):
        shapes = _SHAPE_PAIRS[(i + count) % len(_SHAPE_PAIRS)]
        box = []
        for axis, shape in enumerate(shapes):
            lo, hi, lo_closed, hi_closed, kind = _template_interval(template, shape)
            pick = values[axis]
            box.append((
                None if lo is None else pick[lo], None if hi is None else pick[hi],
                lo_closed, hi_closed, kind,
            ))
        boxes.append(tuple(box))
    return tuple(boxes)


def _to_circle_interval(iv):
    lo, hi, lo_closed, hi_closed, _ = iv
    return tbsl.CircleInterval(
        tbsl.INFINITY if lo is None else tbsl.Slope(lo),
        tbsl.INFINITY if hi is None else tbsl.Slope(hi),
        lo_closed,
        hi_closed,
    )


class Regions(Workload):
    """One op per region identity check: strips, fixed covers, random unions."""

    name = "regions"
    tail_percentile = 90.0
    BOX_COUNTS = (4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24)
    STRIP_OPS = 4

    def __init__(self, seed, root, tmp):
        super().__init__(seed, root, tmp)
        rng = self.rng
        canonical = tbsl.Framing.CANONICAL
        self.plane = tbsl.Region2.finite_plane(canonical)
        ops = [Op("strips", (_stratum(rng, i, self.STRIP_OPS, 2, 400),)) for i in range(self.STRIP_OPS)]
        ops.append(Op("covers", ()))
        for k in self.BOX_COUNTS:
            boxes = _random_boxes(rng, k)
            regions = tuple(
                tbsl.Region2.box(_to_circle_interval(ix), _to_circle_interval(iy), canonical)
                for ix, iy in boxes
            )
            ops.append(Op("union", (boxes, regions)))
        self._set_ops(ops)

    def run(self, op):
        if op.kind == "strips":
            (n,) = op.args
            strips = tbsl.ln_taut_witness_strips(n)
            link = tbsl.ln_link(n)
            quadrant, fol = tbsl.lspace_region(link), tbsl.foliation_region(link)
            return (
                strips.union(quadrant).equals(self.plane),
                strips.intersect(quadrant).is_empty(),
                fol.covers(strips),
                tbsl.verify_ln_chain(n),
            )
        if op.kind == "covers":
            return tuple(w.region.equals(w.target) for w in tbsl.foliation.cover_witnesses())
        _, regions = op.args
        half = len(regions) // 2
        a, b = regions[0], regions[half]
        for r in regions[1:half]:
            a = a.union(r)
        for r in regions[half + 1:]:
            b = b.union(r)
        u = a.union(b)
        uc = u.complement()
        identities = (
            u.union(uc).equals(self.plane),
            u.intersect(uc).is_empty(),
            uc.equals(a.complement().intersect(b.complement())),
            u.difference(a).equals(b.difference(a)),
        )
        return identities, u, uc

    def record(self, op, result):
        if op.kind != "union":
            return result
        identities, u, uc = result
        return identities, tuple(f"{ix}x{iy}" for ix, iy in u.rects), len(uc.rects)

    def check(self, op, result):
        if op.kind != "union":
            return [] if all(result) else [f"{op.kind} identity failed: {result}"]
        identities, u, uc = result
        errors = [] if all(identities) else [f"union identities failed: {identities}"]
        boxes, _ = op.args
        xs = sorted({e for bx, _ in boxes for e in bx[:2] if e is not None})
        ys = sorted({e for _, by in boxes for e in by[:2] if e is not None})
        probe = random.Random(len(boxes))
        points = [(None, ys[0]), (xs[0], None)]
        for _ in range(60):
            points.append(tuple(
                probe.choice(axis) + probe.choice((0, Fraction(1, 7), Fraction(-1, 7)))
                for axis in (xs, ys)
            ))
        u_rects, uc_rects = _plain_rects(u), _plain_rects(uc)
        for x, y in points:
            finite = x is not None and y is not None
            inside = finite and _in_rects(boxes, x, y)
            if (finite and _in_rects(u_rects, x, y)) != inside or (
                finite and _in_rects(uc_rects, x, y)
            ) != (finite and not inside):
                errors.append(f"membership of {(x, y)} disagrees with the boxes")
        if not (u.restrict_to_finite and uc.restrict_to_finite):
            errors.append("union or complement lost restrict_to_finite")
        return errors


def _plain_interval(iv):
    """Plain-tuple form of a ``CircleInterval``, read from its fields only."""
    if iv.full_circle:
        return (None, None, True, True, "full")
    lo, hi = iv.lo.value, iv.hi.value
    if lo == hi:
        return (lo, hi, iv.lo_closed, iv.hi_closed, "point" if iv.lo_closed else "punctured")
    return (lo, hi, iv.lo_closed, iv.hi_closed, "arc")


def _plain_rects(region):
    return [(_plain_interval(ix), _plain_interval(iy)) for ix, iy in region.rects]


def _in_rects(rects, x, y) -> bool:
    return any(oracle.interval_contains(ix, x) and oracle.interval_contains(iy, y) for ix, iy in rects)


# ---------------------------------------------------------------------------


class CliCold(Workload):
    """One op per ``python -m tbsl`` subprocess, run one at a time."""

    name = "cli_cold"
    tail_percentile = 75.0
    in_child = True
    COMMANDS = ("classify", "verdict", "expand", "homology", "framing", "region")
    FIBERED = ("ln", "ln-mirror", "generic", "family1", "family2")

    def __init__(self, seed, root, tmp):
        super().__init__(seed, root, tmp)
        self.trace = False
        self.child_stats: list[dict] = []
        self.child_rss_kb: list[int] = []
        ops = []
        for i, command in enumerate(self.COMMANDS * 2):
            as_json = i < len(self.COMMANDS)
            ops.append(Op(command, self._args(i, command, as_json)))
        self._set_ops(ops)

    @functools.cached_property
    def validator(self):
        # imported on first check: the schema validator is not part of set-up
        import jsonschema

        return jsonschema.Draft7Validator(tbsl.schema.REPORT_SCHEMA)

    def _slope(self) -> str:
        rng = self.rng
        value = Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 5)))
        return str(value)

    def _args(self, i, command, as_json):
        # positionals follow "--": argparse would take "-23/2" for an option
        rng = self.rng
        extra = {"lk": None, "ln": None}
        options = []
        if command == "classify":
            p = rng.randrange(10, 200, 2)
            q = rng.choice([q for q in range(-p + 1, p, 2) if gcd(p, abs(q)) == 1])
            positionals = [f"b({p},{q})"]
        elif command == "expand":
            p = rng.randrange(10, 10**6, 2)
            q = rng.choice([q for q in range(1, min(p, 999), 2) if gcd(p, q) == 1])
            positionals = [f"{rng.choice((1, -1)) * p}/{q}"]
        else:
            spec, p, q, lk = fibered_link(rng, rng.choice(self.FIBERED), (2, 30))
            extra = {"lk": lk, "ln": oracle.ln_index(p, q)}
            if command == "region":
                options = ["--svg", str(self.tmp / f"op{i}.svg"), "--window", str(rng.randint(4, 12))]
                positionals = [spec]
            else:
                positionals = [spec, self._slope(), self._slope()]
        argv = (["--json"] if as_json else []) + [command, *options, "--", *positionals]
        return tuple(argv), extra

    def run(self, op):
        argv, _ = op.args
        errpath = self.tmp / "stderr"
        if self.trace:
            stats = self.tmp / "child_stats.json"
            cmd = [sys.executable, "-X", "importtime", str(Path(__file__).with_name("cli_child.py")), str(stats), *argv]
        else:
            cmd = [sys.executable, "-m", "tbsl", *argv]
        with open(errpath, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=self.root, env=self.env)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb.append(usage.ru_maxrss)
        self.bytes_out["cli"] += len(out)
        if "--svg" in argv:
            self.bytes_out["svg"] += os.path.getsize(argv[argv.index("--svg") + 1])
        if self.trace:
            self.child_stats.append(json.loads(stats.read_text()))
        return proc.returncode, out

    def _svg(self, op) -> bytes | None:
        argv, _ = op.args
        if "--svg" not in argv:
            return None
        return Path(argv[argv.index("--svg") + 1]).read_bytes()

    def record(self, op, result):
        code, out = result
        svg = self._svg(op)
        return code, _digest(out), None if svg is None else hashlib.sha256(svg).hexdigest()

    def output_bytes(self, op, result):
        svg = self._svg(op)
        return len(result[1]) + (0 if svg is None else len(svg))

    def check(self, op, result):
        argv, extra = op.args
        code, out = result
        if code != 0:
            return [f"{' '.join(argv)}: exit code {code}"]
        if argv[0] != "--json":
            return [] if out.strip() else [f"{' '.join(argv)}: empty output"]
        report = json.loads(out)
        errors = [f"schema: {e.message}" for e in self.validator.iter_errors(report)]
        if not report["ok"]:
            errors.append("report not ok")
        if op.kind == "verdict":
            r1, r2 = (oracle.parse_slope(s) for s in report["verdicts"][0]["slope"])
            want = oracle.expected_verdict(r1, r2, extra["lk"], extra["ln"])
            if report["verdicts"][0]["verdict"] != want:
                errors.append(f"verdict {report['verdicts'][0]['verdict']}, closed form {want}")
        if op.kind == "region":
            svg = self._svg(op)
            if report.get("svg_path") != argv[argv.index("--svg") + 1] or not svg.startswith(b"<svg"):
                errors.append("svg not written")
        return errors


WORKLOADS = {w.name: w for w in (Census, Sweep, Regions, CliCold)}
