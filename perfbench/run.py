"""The cosetchar benchmark: the gl2, sym and invert workloads.

    python3 perfbench/run.py --workload gl2 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  A run sets up at least three times and
for at least SETUP_SECONDS (`setup_s` is the median), then repeats rounds of
its workload for about --seconds, at least MIN_ROUNDS.  A round runs, one
call at a time:

- the workload's CLI calls, each a `python -m cosetchar ... --json`
  subprocess, as users run it;
- a seeded stream of in-process `decompose` calls on analyses built during
  set-up, half fed as multiplicities and half as exact class values through
  `parse_theta` and `Theta.from_values`;
- one `selftest --json` subprocess.

Round times are medians over the run's rounds, and decompose latencies are
pooled over all of them (50 calls a round).  A shared host can slow
memory-heavy Python by up to 2x in spells of 10-60 s, longer than a run, so
every end-to-end time is a wall time taken at the reference host speed: between
operations the run times a fixed kernel in a process of its own
(hostspeed.py, through `Clock`), and scales each wall time by the kernel's
reference time over its median time around the operation.  The plain
wall-time metrics are in the run's details.

Every output is checked after its round: CLI JSON against the golden outputs
in perfbench/golden/ (written by golden.py), exactly except for floats (the
`numeric` lists), which may differ by NUMERIC_TOLERANCE, and
`max_unitarity_deviation`, which need only stay below the library's
tolerance; every decomposition against the multiplicities that generated it.
Any failure is counted.

With --trace 1 a run sets up and runs one untraced round, then the same
round again traced, then the workload's `trace_extra` calls traced: the top
rung of its ladder, too slow to time steadily in every round.  CLI calls go
through perfbench/spans.py, which records a span per call of cosetchar's
public functions; the decompose stream runs with the same wrappers in this
process.  It reports per-function and per-layer self times, result sizes,
CLI start-up time, the tracing overhead (traced minus untraced round wall
time) and the share of the traced round that program spans cover.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Details of the run (environment, every
round, spans, per-call breakdowns) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
OUT = HERE / "out"
CALL_TIMEOUT_S = 170
STREAM_LEN = 50  # decompose calls per round: short rounds give the CLI times more samples
MIN_ROUNDS = 2  # the pooled decompose latencies then have ten beyond their p90
BIG_EVERY = 5  # every 5th decompose call is on the big pair: p90 falls inside its cluster
MIN_COVERAGE = 0.5
SETUP_SECONDS = 3.0  # set-ups of 0.1 s are repeated for this long, up to MAX_SETUPS
MAX_SETUPS = 40
NUMERIC_TOLERANCE = 1e-9  # absolute, on floats; every other output field is exact
REFERENCE_S = 0.005  # hostspeed.kernel() at the reference host speed
SAMPLE_EVERY_S = 0.25  # the kernel runs before an operation when last run this long ago
HOST_WINDOW_S = 2.0  # kernel times this close to an operation set its host speed


@dataclass(frozen=True)
class Workload:
    cli: tuple[tuple[str, str], ...]  # (subcommand, spec path from the root)
    stream: tuple[str, ...]  # specs of the decompose stream; "corpus" = its cyclic pairs
    big: str | None = None  # spec that takes every BIG_EVERY-th decompose call
    trace_extra: tuple[tuple[str, str], ...] = ()


WORKLOADS = {
    "gl2": Workload(
        cli=(("analyze", "fixtures/gl2_3.matgroup"),
             ("analyze", "perfbench/specs/gl2_5.matgroup"),
             ("table", "perfbench/specs/gl2_5.matgroup")),
        stream=("fixtures/gl2_3.matgroup",),
        trace_extra=(("table", "perfbench/specs/gl2_7.matgroup"),)),
    "sym": Workload(
        cli=(("analyze", "perfbench/specs/s5_a5.group"),
             ("analyze", "perfbench/specs/s6_a6.group"),
             ("table", "perfbench/specs/s6_a6.group")),
        stream=("perfbench/specs/s5_a5.group",),
        trace_extra=(("table", "perfbench/specs/s7_a7.group"),)),
    "invert": Workload(
        cli=(("analyze", "fixtures/gl2_3.matgroup"),
             ("table", "fixtures/gl2_3.matgroup")),
        stream=("corpus",),
        big="perfbench/specs/gl2_5.matgroup"),
}

END_TO_END = {
    "wall_s": "s", "analyze_s": "s", "table_s": "s", "decompose_s": "s",
    "decompose_p90_s": "s", "decompositions_per_s": "1/s", "selftest_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
FUNCTIONS = [
    "groupio.parse_group_spec", "groupio.build_group",
    "groups.generate_group", "groups.subgroup_generated", "groups.conjugacy_classes",
    "groups.quotient", "groups.subgroup_as_group", "groups.conjugacy_classes_N",
    "chartable.class_constants", "chartable.character_table",
    "chartable.character_table_N", "chartable.restriction_norm",
    "cosets.dual_group", "cosets.compute_orbits", "cosets.build_mq",
    "cosets.extendability_counts", "cosets.restriction_row_indices",
    "cosets.nontrivial_extension",
    "inversion.decompose", "inversion.psi_power_value",
    "inversion.power_sums_to_multiset", "inversion.choose_roots",
    "inversion.theta_from_values",
    "corpus.run_property_suite",
]
LAYERS = ["groupio", "groups", "chartable", "cosets", "inversion", "corpus", "cli"]
# count metric -> (span name, size key, how sizes of several calls combine)
COUNTS = {
    "groups.order": ("groupio.build_group", "order", max),
    "groups.normal_order": ("groupio.build_group", "normal_order", max),
    "groups.classes": ("groups.conjugacy_classes", "classes", max),
    "chartable.exponent": ("chartable.character_table", "exponent", max),
    "cosets.cosets": ("groups.quotient", "cosets", max),
    "cosets.orbits": ("cosets.compute_orbits", "orbits", max),
    "inversion.components": ("inversion.decompose", "components", sum),
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in FUNCTIONS}
    units["cli.startup_s"] = "s"
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.overhead_s": "s", "trace.coverage": "ratio"})
    units.update({name: "count" for name in COUNTS})
    units["ops.attempted"] = "count"
    return units


# -- outputs and their checks ---------------------------------------------------

def golden_path(argv: tuple[str, ...]) -> Path:
    if argv[0] == "selftest":
        return GOLDEN / "selftest.json.gz"
    return GOLDEN / f"{argv[0]}-{Path(argv[1]).stem}.json.gz"


def normalize(argv: tuple[str, ...], payload: dict, tolerance: float) -> dict:
    """The part of a CLI JSON output that must equal the golden output.

    `max_unitarity_deviation` is a float that may change; it must stay below
    `tolerance` and is then dropped.  Selftest details are free text; the
    case, check and verdict of every check are kept.
    """
    if argv[0] == "selftest":
        return {"total": payload["total"], "failures": payload["failures"],
                "checks": [[c["case"], c["check"], c["ok"]] for c in payload["checks"]]}
    if argv[0] == "analyze":
        payload = dict(payload, cosets=[dict(c) for c in payload["cosets"]])
        for coset in payload["cosets"]:
            deviation = coset.pop("max_unitarity_deviation")
            if not deviation < tolerance:
                raise ValueError(f"unitarity deviation {deviation} exceeds {tolerance}")
    return payload


def first_difference(want, got, path="$") -> str | None:
    """Where `got` departs from `want`; keys that only `got` has are ignored,
    so fields added later, such as statistics, do not count as changes.
    Floats (the rounded complex values of `numeric`) may differ by
    NUMERIC_TOLERANCE, so that float residues of an exact zero, such as the
    real part of i*sqrt(2), may change with the order of float operations."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in want:
            if key not in got:
                return f"{path}.{key} missing"
            diff = first_difference(want[key], got[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return f"{path} has length {len(got)}, golden {len(want)}"
        for i, (w, g) in enumerate(zip(want, got)):
            diff = first_difference(w, g, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if (isinstance(want, float) and isinstance(got, (int, float))
            and not isinstance(got, bool)):
        return None if abs(want - got) <= NUMERIC_TOLERANCE else \
            f"{path} is {got!r}, golden {want!r}"
    return None if want == got else f"{path} is {got!r}, golden {want!r}"


def load_golden(argv: tuple[str, ...]) -> dict:
    with gzip.open(golden_path(argv), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def check_cli(argv, code, stdout, golden, tolerance) -> str | None:
    """None when the call exited 0 and its output matches the golden one."""
    if code != 0:
        return f"exit code {code}"
    try:
        got = normalize(argv, json.loads(stdout), tolerance)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    return first_difference(golden, got)


def check_decomposition(analysis, op, theta, components) -> str | None:
    """None when the components are exactly the orbit sums of the generating
    multiplicities."""
    from cosetchar.cyclotomic import from_rational

    if tuple(theta.multiplicities) != op.mults:
        return f"multiplicities {theta.multiplicities} differ from {op.mults}"
    table = analysis.table
    expected = {}
    for oi, rec in enumerate(analysis.orbits):
        if not any(op.mults[r] for r in rec.member_rows):
            continue
        values = [from_rational(0)] * table.classes.n_classes
        for r in rec.member_rows:
            if op.mults[r]:
                values = [v + op.mults[r] * x for v, x in zip(values, table.rows[r].values)]
        expected[oi] = values
    got = {c.orbit_index: list(c.component.values) for c in components}
    if set(got) != set(expected):
        return f"components on orbits {sorted(got)}, expected {sorted(expected)}"
    for oi, values in expected.items():
        if got[oi] != values:
            return f"component of orbit {oi} differs"
    return None


# -- set-up and rounds ------------------------------------------------------------

@dataclass
class Op:
    pair: int  # index into State.analyses
    mults: tuple[int, ...]
    values_json: str | None  # set when the input arrives as class values


@dataclass
class State:
    analyses: list
    small: list[int]
    big: int | None
    goldens: dict
    tolerance: float
    first_stream: list[Op] = field(default_factory=list)


class Clock:
    """Start times of operations, with the host's speed sampled beside them.

    The samples are times of hostspeed.kernel() in a process of its own, so
    that neither the program nor this process's heap moves them.  The
    kernel's time over REFERENCE_S is the host's slowness; an operation's time
    at the reference speed is its wall time divided by the slowness around
    it.  Use it as a context manager: leaving it stops the kernel's process.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)
        self._kernel = subprocess.Popen([sys.executable, str(HERE / "hostspeed.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True)
        self._time_kernel()  # the first run also faults in the process's memory

    def __enter__(self) -> "Clock":
        return self

    def __exit__(self, *exc) -> None:
        self._kernel.stdin.close()
        try:
            self._kernel.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._kernel.kill()
            self._kernel.wait()

    def start(self) -> float:
        """Time the kernel unless it ran within SAMPLE_EVERY_S; then return
        the time an operation starting now starts at."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] > SAMPLE_EVERY_S:
            self.samples.append((time.perf_counter(), self._time_kernel()))
        return time.perf_counter()

    def _time_kernel(self) -> float:
        self._kernel.stdin.write("\n")
        self._kernel.stdin.flush()
        reply = self._kernel.stdout.readline()
        if not reply:
            raise RuntimeError(f"hostspeed.py exited with {self._kernel.wait()}")
        return float(reply)

    def kernel_s(self) -> float:
        return statistics.median(k for _, k in self.samples)

    def at_reference(self, start: float, wall: float) -> float:
        """`wall` seconds from `start` as taken at the reference host speed,
        by the median kernel time within HOST_WINDOW_S of the operation."""
        near = [k for t, k in self.samples
                if start - HOST_WINDOW_S <= t <= start + wall + HOST_WINDOW_S]
        return wall * REFERENCE_S / statistics.median(near)


@dataclass
class Round:
    # (kind, start, wall seconds) per operation; kind is analyze, table,
    # decompose or selftest
    ops: list[tuple[str, float, float]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0

    def seconds(self, *kinds: str, clock: Clock | None = None) -> float:
        """Summed time of the operations of these kinds, or of all: wall
        time, or with a clock at the reference host speed."""
        return sum(clock.at_reference(start, wall) if clock else wall
                   for kind, start, wall in self.ops if not kinds or kind in kinds)

    def latencies(self, clock: Clock | None = None) -> list[float]:
        return [clock.at_reference(start, wall) if clock else wall
                for kind, start, wall in self.ops if kind == "decompose"]


def load_analysis(spec: str):
    from cosetchar import groupio
    from cosetchar.cosets import CosetAnalysis

    parsed = groupio.parse_group_spec((ROOT / spec).read_text())
    G, N = groupio.build_group(parsed)
    return CosetAnalysis(G, N, label=parsed.label)


def make_stream(state: State, seed: int, round_index: int) -> list[Op]:
    """The decompose inputs of one round, a function of the seed alone:
    multiplicities 0..3 per row; every BIG_EVERY-th call on the big pair;
    alternately fed as multiplicities and as exact class values."""
    from cosetchar.cyclotomic import value_to_json
    from cosetchar.inversion import Theta

    rng = random.Random(f"{seed}/{round_index}")
    ops = []
    for i in range(STREAM_LEN):
        is_big = state.big is not None and i % BIG_EVERY == BIG_EVERY - 1
        pair = state.big if is_big else rng.choice(state.small)
        table = state.analyses[pair].table
        mults = tuple(rng.randint(0, 3) for _ in range(table.n_rows))
        values_json = None
        if (i // BIG_EVERY if is_big else i) % 2:
            theta = Theta.from_multiplicities(table, mults)
            values_json = json.dumps({"values": [value_to_json(v) for v in theta.values]})
        ops.append(Op(pair, mults, values_json))
    return ops


def setup(workload: Workload, seed: int, goldens: dict, tolerance: float) -> State:
    """Build the analyses the decompose stream uses and its first inputs."""
    from cosetchar import corpus

    analyses = []
    for spec in workload.stream:
        if spec == "corpus":
            analyses += [an for an in map(corpus.analysis_for, corpus.corpus_specs())
                         if an.quotient.is_cyclic]
        else:
            analyses.append(load_analysis(spec))
    small = list(range(len(analyses)))
    if workload.big:
        analyses.append(load_analysis(workload.big))
    state = State(analyses, small, len(analyses) - 1 if workload.big else None,
                  goldens, tolerance)
    state.first_stream = make_stream(state, seed, 0)
    return state


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(argv: tuple[str, ...], trace_file: Path | None = None):
    """(exit code, stdout, wall seconds) of one CLI call, optionally traced."""
    if trace_file is None:
        cmd = [sys.executable, "-m", "cosetchar", *argv]
    else:
        cmd = [sys.executable, str(HERE / "spans.py"), str(trace_file), *argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=cli_env(), capture_output=True,
                              timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, b"", time.perf_counter() - start
    return proc.returncode, proc.stdout, time.perf_counter() - start


def decompose_op(state: State, op: Op):
    """One library call as a user makes it: build the character, then
    decompose it.  Looks functions up on their modules so that tracing
    wrappers, when installed, see the calls."""
    from cosetchar import groupio, inversion

    analysis = state.analyses[op.pair]
    if op.values_json is None:
        theta = inversion.Theta.from_multiplicities(analysis.table, op.mults)
    else:
        spec = groupio.parse_theta(op.values_json, n_classes=analysis.classes.n_classes,
                                   n_rows=analysis.table.n_rows)
        theta = inversion.Theta.from_values(analysis.table, spec.values)
    return theta, inversion.decompose(analysis, theta)


class Caller:
    """Runs CLI calls, traced when given a recorder, and keeps their outputs
    for checking."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.outputs = []

    def __call__(self, argv: tuple[str, ...]) -> float:
        if self.recorder is None:
            code, stdout, wall = run_cli(argv)
        else:
            OUT.mkdir(exist_ok=True)
            trace_file = OUT / f"spans-{os.getpid()}.json"
            span = self.recorder.begin("bench.cli", argv=list(argv))
            code, stdout, wall = run_cli(argv, trace_file)
            self.recorder.end(span)
            if trace_file.exists():
                self.recorder.attach(json.loads(trace_file.read_text())["spans"], span,
                                     span["start"])
                trace_file.unlink()
        self.outputs.append((argv, code, stdout))
        return wall

    def failures(self, state: State) -> list[str]:
        out = []
        for argv, code, stdout in self.outputs:
            error = check_cli(argv, code, stdout, state.goldens[golden_path(argv)],
                              state.tolerance)
            if error:
                out.append(f"{' '.join(argv)}: {error}")
        return out


def run_round(state: State, workload: Workload, ops: list[Op], clock: Clock,
              recorder=None) -> Round:
    rnd = Round()
    call = Caller(recorder)
    results = []
    for sub, spec in workload.cli:
        start = clock.start()
        rnd.ops.append((sub, start, call((sub, spec, "--json"))))
    for op in ops:
        start = clock.start()
        span = recorder.begin("bench.decompose") if recorder else None
        try:
            results.append((op, *decompose_op(state, op), None))
        except Exception as exc:  # any exception is a failed operation
            results.append((op, None, None, f"{type(exc).__name__}: {exc}"))
        if recorder:
            recorder.end(span)
        rnd.ops.append(("decompose", start, time.perf_counter() - start))
    start = clock.start()
    rnd.ops.append(("selftest", start, call(("selftest", "--json"))))
    clock.start()  # the host's speed just after the last operation

    rnd.failures = call.failures(state)
    for op, theta, components, error in results:
        if error is None:
            error = check_decomposition(state.analyses[op.pair], op, theta, components)
        if error:
            label = state.analyses[op.pair].label
            rnd.failures.append(f"decompose on {label} {op.mults}: {error}")
    rnd.attempted = len(call.outputs) + len(results)
    return rnd


# -- metrics ------------------------------------------------------------------------

def end_to_end(rounds: list[Round], setups: list[tuple[float, float]],
               clock: Clock | None) -> dict[str, float]:
    """Round times as medians over the run's rounds; decompose latencies
    pooled over all its rounds; setup_s as the median over its set-ups
    (start, wall).  Times are at the reference host speed when given the
    run's clock, else plain wall times."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    latencies = [x for r in rounds for x in r.latencies(clock)]

    def median(*kinds):
        return statistics.median(r.seconds(*kinds, clock=clock) for r in rounds)

    return {
        "wall_s": median(),
        "analyze_s": median("analyze"),
        "table_s": median("table"),
        "decompose_s": statistics.median(latencies),
        "decompose_p90_s": statistics.quantiles(latencies, n=10)[8],
        "decompositions_per_s": len(latencies) / sum(latencies),
        "selftest_s": median("selftest"),
        "setup_s": statistics.median(clock.at_reference(start, wall) if clock else wall
                                     for start, wall in setups),
        "peak_rss_mb": peak_kb / 1024,
    }


def span_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-function times, per-layer self times and result sizes.

    A function's time is the summed duration of its calls not nested in
    another call of the same function.  Calls of conjugacy_classes and
    character_table made for the normal subgroup as a standalone group
    (under CosetAnalysis.normal_group_data) count as their `_N` variants.
    A layer's self time is the time its spans do not pass to child spans.
    """
    by_id = {s["id"]: s for s in spans}
    known = set(FUNCTIONS)

    def ancestors(span):
        while span["parent"] in by_id:
            span = by_id[span["parent"]]
            yield span

    metric_of = {}
    for s in spans:
        under_n = any(a["name"] == "cosets.normal_group_data" for a in ancestors(s))
        metric_of[s["id"]] = (f"{s['name']}_N" if under_n and f"{s['name']}_N" in known
                              else s["name"])
    out = {f"{name}_s": 0.0 for name in FUNCTIONS}
    out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    child_time = {}
    for s in spans:
        if s["parent"] in by_id:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    for s in spans:
        duration = s["end"] - s["start"]
        metric = metric_of[s["id"]]
        if metric in known and not any(metric_of[a["id"]] == metric for a in ancestors(s)):
            out[f"{metric}_s"] += duration
        layer = s["name"].split(".")[0]
        if layer in LAYERS:
            out[f"{layer}.self_s"] += duration - child_time.get(s["id"], 0.0)
    for metric, (name, key, combine) in COUNTS.items():
        sizes = [s["sizes"][key] for s in spans
                 if metric_of[s["id"]] == name and "sizes" in s]
        out[metric] = combine(sizes) if sizes else 0
    return out


def program_time(spans: list[dict]) -> float:
    """Time covered by the outermost spans of the program's own functions."""
    by_id = {s["id"]: s for s in spans}
    return sum(s["end"] - s["start"] for s in spans
               if not s["name"].startswith("bench.")
               and (s["parent"] not in by_id or by_id[s["parent"]]["name"].startswith("bench.")))


def requests(spans: list[dict]) -> list[dict]:
    """Per traced CLI call: its wall time and the nonzero per-function times
    inside it."""
    by_id = {s["id"]: s for s in spans}
    members: dict[int, list[dict]] = {}
    for s in spans:
        top = s
        while top["parent"] in by_id:
            top = by_id[top["parent"]]
        members.setdefault(top["id"], []).append(s)
    out = []
    for top_id, inside in members.items():
        top = by_id[top_id]
        if top["name"] == "bench.cli":
            functions = {k: v for k, v in span_metrics(inside).items()
                         if k.endswith("_s") and v > 0}
            out.append({"argv": top["argv"], "wall_s": top["end"] - top["start"],
                        "functions": functions})
    return out


def startup_s() -> float:
    """Median wall time of `python -m cosetchar --help` over three calls."""
    walls = []
    for _ in range(3):
        code, _, wall = run_cli(("--help",))
        if code != 0:
            raise RuntimeError(f"cosetchar --help exited with {code}")
        walls.append(wall)
    return statistics.median(walls)


# -- the run -----------------------------------------------------------------------

def environment(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def traced_metrics(state: State, workload: Workload, untraced: Round, clock: Clock,
                   record: dict):
    """Trace the untraced round's inputs again, then the extra calls."""
    from spans import Recorder, install

    recorder = Recorder()
    uninstall = install(recorder)
    try:
        traced = run_round(state, workload, state.first_stream, clock, recorder)
        round_spans = len(recorder.spans)
        extra = Caller(recorder)
        for sub, spec in workload.trace_extra:
            extra((sub, spec, "--json"))
    finally:
        uninstall()
    traced.failures += extra.failures(state)
    traced.attempted += len(extra.outputs)
    metrics = span_metrics(recorder.spans)
    metrics["cli.startup_s"] = startup_s()
    metrics["trace.overhead_s"] = traced.seconds() - untraced.seconds()
    # against the traced round itself: the untraced one ran in another spell
    # of host speed
    metrics["trace.coverage"] = program_time(recorder.spans[:round_spans]) / traced.seconds()
    if metrics["trace.coverage"] < MIN_COVERAGE:
        traced.failures.append(
            f"program spans cover {metrics['trace.coverage']:.2f} of the round")
    record.update(traced_round=vars(traced), requests=requests(recorder.spans),
                  spans=recorder.spans)
    return traced, metrics


def run(args) -> dict:
    from cosetchar.cosets import UNITARITY_TOLERANCE

    env = environment(args)
    workload = WORKLOADS[args.workload]
    calls = workload.cli + workload.trace_extra + (("selftest",),)
    goldens = {golden_path(argv): load_golden(argv) for argv in calls}

    # peak RSS is read inside: the kernel's process is then not yet a waited-for child
    with Clock() as clock:
        setups = []  # (start, wall seconds)
        setup_start = time.perf_counter()
        while len(setups) < 3 or (time.perf_counter() - setup_start < SETUP_SECONDS
                                  and len(setups) < MAX_SETUPS):
            start = clock.start()
            state = setup(workload, args.seed, goldens, UNITARITY_TOLERANCE)
            setups.append((start, time.perf_counter() - start))

        rounds = []
        ops = state.first_stream
        measure_start = time.perf_counter()
        while True:
            rounds.append(run_round(state, workload, ops, clock))
            elapsed = time.perf_counter() - measure_start
            if args.trace or (len(rounds) >= MIN_ROUNDS
                              and elapsed + rounds[-1].seconds() / 2 > args.seconds):
                break
            ops = make_stream(state, args.seed, len(rounds))

        record = {"env": env, "setups": setups, "rounds": [vars(r) for r in rounds],
                  "host_samples": clock.samples}
        if args.trace:
            traced, metrics = traced_metrics(state, workload, rounds[0], clock, record)
            rounds.append(traced)
            units = per_layer_units()
        else:
            metrics = end_to_end(rounds, setups, clock)
            record["wall_metrics"] = end_to_end(rounds, setups, None)
            units = END_TO_END
    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    if args.trace:
        metrics["ops.attempted"] = attempted
    record.update(metrics=metrics, attempted=attempted, failures=failures)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    print(f"# {args.workload}: Python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, {env['cpu']}, seed {args.seed}; {len(setups)} set-ups, "
          f"{len(rounds)} round(s) of {STREAM_LEN} decompose calls; reference kernel "
          f"{clock.kernel_s() * 1000:.2f} ms, times below at {REFERENCE_S * 1000:g} ms")
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]:14.6g} {unit}")
    print(f"{'error_rate':36s} {len(failures) / attempted:14.6g} ratio "
          f"({len(failures)} of {attempted} operations failed)")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(f"# details in {out_file.relative_to(ROOT)}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description="cosetchar benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cosetchar" / "__init__.py").is_file():
        print(f"error: no cosetchar sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
