"""Measurement, reference checks and the report of one benchmark run.

End-to-end passes go through `ftflow.cli.main` in-process, as a user's
`ftflow repro fig1` or `ftflow run --config` does; traced passes drive the
same generated inputs through the public functions (see tracer.py).  The
load is one process running one member at a time (a closed loop: each run
starts when the previous one has finished).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median
from typing import Optional

import numpy as np
import scipy

from ftflow import cli

import oracle
import speed
import tracer as tracing
import workloads

TAIL_BEYOND = 10  # samples that must lie above the reported tail value
SETUP_SAMPLES = 5  # set-ups per run, each in a fresh process; setup_s is their median

# Speed probes (speed.py) during the timed passes: a small-array numpy loop,
# like the program's n=2 work, every PROBE_EVERY_S seconds.  Adjusted times
# read as seconds on a host where it takes PROBE_REF_S.  A set-up runs before
# numpy is imported, so run.py probes it with speed.python_probe.
PROBE_ITERS = 2000
PROBE_REF_S = 0.0065
PROBE_EVERY_S = 0.25
_PROBE_X0 = np.array([0.3, 0.4])

# End-to-end metrics in the result line, which BENCHMARK.json bounds.
E2E_METRICS = (
    ("setup_s", "s"),
    ("wall_s.adj", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed with them but not in the result line.  Raw times follow the host's
# speed; run_s.p50 and run_s.tail also follow which draws a seed picks
# (ppower-sweep spreads 0.34 and 0.27 over seeds).
PRINTED_METRICS = (
    ("setup_s.raw", "s"),
    ("wall_s", "s"),
    ("run_s.p50", "s"),
    ("run_s.tail", "s"),
    ("probe_ms", "ms"),
)

# (name, unit, better, end-to-end metric it should move, where it does most / least work)
LAYER_METRICS = (
    ("objectives.grad_calls", "count", "lower", "wall_s.adj, run_s.p50", "most: ppower-sweep (explicit), fig1-rosenbrock (Radau finish)"),
    ("objectives.grad_s", "s", "lower", "wall_s.adj, run_s.p50", "most: ppower-sweep (explicit), fig1-rosenbrock (Radau finish)"),
    ("objectives.grad_us", "us", "lower", "wall_s.adj, run_s.p50", "n=2 in both workloads: per-call Python overhead"),
    ("objectives.value_calls", "count", "lower", "wall_s.adj", "one per recorded sample plus 64 per run for the estimators"),
    ("objectives.hess_calls", "count", "lower", "wall_s.adj", "64 per run; 2x2 Hessians, cheap in both workloads"),
    ("objectives.estimators_s", "s", "lower", "wall_s.adj, run_s.p50", "most: ppower-sweep (30 runs a pass); negligible at n=2"),
    ("integrate.s", "s", "lower", "wall_s.adj, run_s.p50, run_s.tail", "all workloads"),
    ("integrate.self_s", "s", "lower", "run_s.p50", "explicit self time: ppower-sweep; Radau linear algebra: fig1-rosenbrock"),
    ("integrate.implicit_s", "s", "lower", "wall_s.adj, run_s.tail", "most: fig1-rosenbrock; ~0 in ppower-sweep"),
    ("integrate.implicit_share", "ratio", "lower", "wall_s.adj, run_s.tail", "most: fig1-rosenbrock; ~0 in ppower-sweep"),
    ("integrate.grad_calls_explicit", "count", "lower", "run_s.p50", "most: ppower-sweep"),
    ("integrate.grad_calls_implicit", "count", "lower", "wall_s.adj, run_s.tail", "most: fig1-rosenbrock (heavy-ball, PI)"),
    ("integrate.handoffs", "ratio", "lower", "run_s.tail", "runs handed to Radau / runs; all of fig1-rosenbrock, some of ppower-sweep"),
    ("integrate.samples", "count", "lower", "peak_rss_mb", "most per run: fig1-rosenbrock; most per pass: ppower-sweep"),
    ("integrate.settled", "ratio", "higher", "none (tripwire)", "settled runs / runs"),
    ("certificates.fit_s", "s", "lower", "none (<1% of a run; tripwire)", "all workloads"),
    ("certificates.fit_ok", "ratio", "higher", "none (tripwire)", "fits / attempts"),
    ("certificates.admissibility_s", "s", "lower", "none (<1% of a run; tripwire)", "all workloads"),
    ("certificates.certified", "ratio", "higher", "none (tripwire)", "certified verdicts / attempts"),
    ("experiments.config_s", "s", "lower", "wall_s.adj", "most: ppower-sweep (many small runs)"),
    ("experiments.export_s", "s", "lower", "wall_s.adj, peak_rss_mb", "most: ppower-sweep (~9.9 MB of CSV a pass); fig1-rosenbrock ~3.1 MB, ~17.6k rows"),
    ("experiments.export_bytes", "B", "lower", "wall_s.adj", "most: ppower-sweep, then fig1-rosenbrock"),
    ("experiments.summary_s", "s", "lower", "wall_s.adj", "most: ppower-sweep"),
    ("cli.overhead_s", "s", "lower", "wall_s.adj", "untraced wall_s minus the traced span sum; contains trace.overhead_s"),
    ("trace.overhead_s", "s", "lower", "none (cost of tracing)", "traced pass wall minus untraced pass wall"),
)

# Counts that must repeat exactly from one traced pass to the next.
COUNT_METRICS = (
    "objectives.grad_calls",
    "objectives.value_calls",
    "objectives.hess_calls",
    "integrate.grad_calls_explicit",
    "integrate.grad_calls_implicit",
    "integrate.handoffs",
    "integrate.samples",
    "integrate.settled",
    "certificates.fit_ok",
    "certificates.certified",
    "experiments.export_bytes",
)

# Gradient evaluations per fig1 member recorded as the baseline in ROADMAP.md.
FIG1_GRAD_BASELINE = {
    "fig1-left-a025": 14_094,
    "fig1-left-a05": 15_052,
    "fig1-left-a075": 15_164,
    "fig1-right-heavyball": 93_247,
    "fig1-right-pi": 43_504,
    "fig1-right-interior": 15_052,
}

FLOW_NOTE = (
    "flow: no metric on the run path; the field is a closure inside integrate, "
    "so its cost is in integrate.self_s (flow.vector_field is used only by tests)"
)


@dataclass
class MemberRun:
    """Outcome of one member run in one pass."""

    label: str
    seconds: Optional[float] = None  # untraced passes only, probes excluded
    settled_at: Optional[float] = None
    terminated_reason: Optional[str] = None
    error: Optional[str] = None  # exception, non-zero exit, missing artifact


@dataclass
class Pass:
    traced: bool
    wall: float  # probes excluded
    runs: list[MemberRun]
    # untraced passes only: adjusted wall time, and the probes' seconds
    wall_adj: float = 0.0
    probes: list = field(default_factory=list)
    # traced passes only
    layer: dict = field(default_factory=dict)
    span_s: float = 0.0
    grad_calls: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def numpy_probe() -> None:
    x = _PROBE_X0.copy()
    for _ in range(PROBE_ITERS):
        x = x - 1e-3 * np.sqrt(x @ x) * x + 1e-4


class SummaryOpens:
    """Audit hook that timestamps the CLI opening a `*.summary.json`.

    `ftflow repro` runs several members in one call; the CLI writes each
    member's summary as soon as the member is done, so these opens split
    the call into member runs without touching the program.
    """

    def __init__(self):
        self.times: Optional[list[float]] = None

    def __call__(self, event, args):
        if self.times is not None and event == "open" and str(args[0]).endswith(".summary.json"):
            self.times.append(time.perf_counter())


def environment(blas_threads: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
    }


def _cli_argvs(workload: str, paths: list[Path]) -> list[tuple[list[str], int]]:
    """(argv, member count) per CLI call of one pass."""
    if workload == "fig1-rosenbrock":
        return [(["repro", "fig1"], len(paths))]
    return [(["run", "--config", str(p)], 1) for p in paths]


def cli_pass(workload: str, paths: list[Path], labels: list[str], work: Path, watch: SummaryOpens) -> Pass:
    out = Path(tempfile.mkdtemp(prefix="pass-", dir=work))
    try:
        seconds: list[Optional[float]] = []
        errors: list[Optional[str]] = []
        sink = io.StringIO()
        probes = speed.Probes(numpy_probe, PROBE_EVERY_S, PROBE_REF_S)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), probes:
            for argv, count in _cli_argvs(workload, paths):
                watch.times = []
                t0 = time.perf_counter()
                try:
                    code = cli.main(argv + ["--output-dir", str(out)])
                    error = None if code == 0 else f"exit code {code}"
                except Exception:  # a crash is a failed run, not a failed benchmark
                    error = traceback.format_exc(limit=-3)
                t1 = time.perf_counter()
                marks, watch.times = watch.times, None
                if error is None and len(marks) != count:
                    error = f"{len(marks)} summaries written, {count} expected"
                if error is None:
                    bounds = [t0] + marks[:-1] + [t1]
                    seconds.extend(b - a - probes.probe_s(a, b) for a, b in zip(bounds, bounds[1:]))
                else:
                    seconds.extend([None] * count)
                errors.extend([error] * count)
        runs = []
        for label, sec, error in zip(labels, seconds, errors):
            run = MemberRun(label, seconds=sec, error=error)
            summary_path = out / f"{label}.summary.json"
            if error is None and not summary_path.is_file():
                run.error = f"missing {summary_path.name}"
            elif error is None:
                summary = json.loads(summary_path.read_text())
                run.settled_at = summary["settled_at"]
                run.terminated_reason = summary["terminated_reason"]
            runs.append(run)
        wall, wall_adj = probes.wall()
        return Pass(traced=False, wall=wall, runs=runs, wall_adj=wall_adj, probes=probes.seconds())
    finally:
        shutil.rmtree(out, ignore_errors=True)


def traced_pass(paths: list[Path], labels: list[str], work: Path, index: int) -> Pass:
    out = Path(tempfile.mkdtemp(prefix="trace-", dir=work))
    try:
        tr = tracing.Tracer()
        traced, runs = [], []
        t_pass = time.perf_counter()
        for path, label in zip(paths, labels):
            try:
                r = tracing.traced_run(path, out, tr, f"t{index}/{label}")
            except Exception:  # a crash is a failed run, not a failed benchmark
                runs.append(MemberRun(label, error=traceback.format_exc(limit=-3)))
                continue
            traced.append(r)
            runs.append(MemberRun(label, settled_at=r.settled_at, terminated_reason=r.terminated_reason))
        wall = time.perf_counter() - t_pass
        return Pass(
            traced=True,
            wall=wall,
            runs=runs,
            layer=tracing.pass_metrics(tr, traced) if len(traced) == len(paths) else {},
            span_s=tracing.layer_span_s(tr),
            grad_calls=tracing.run_grad_calls(tr),
            spans=[s.to_dict() for s in tr.spans],
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)


def measure(
    workload: str, paths: list[Path], labels: list[str], seconds: float, trace: bool, work: Path, watch: SummaryOpens
) -> list[Pass]:
    """Closed loop of whole passes for at most about `seconds` seconds.

    A pass starts while it is expected, from the length of the previous
    one, to end within `seconds`.  Untraced runs make at least one pass;
    traced runs alternate traced and untraced passes, at least
    traced-untraced-traced.
    """
    passes: list[Pass] = []
    min_passes = 3 if trace else 1
    start = time.perf_counter()
    previous = 0.0  # length of the last pass
    while len(passes) < min_passes or time.perf_counter() - start + previous <= seconds:
        t = time.perf_counter()
        if trace and len(passes) % 2 == 0:
            passes.append(traced_pass(paths, labels, work, len(passes)))
        else:
            passes.append(cli_pass(workload, paths, labels, work, watch))
        gc.collect()  # start each pass from a collected heap, as a fresh process would
        previous = time.perf_counter() - t
    return passes


def tail_percentile(members: int) -> tuple[float, int]:
    """(percentile, passes) for run_s.tail: the highest percentile with
    TAIL_BEYOND runs above it in the fewest whole passes that have such a
    percentile.

    A fixed percentile keeps its meaning when the number of passes in a run
    changes; on a pass of a few members it falls inside one member's
    cluster of runs rather than on the run-to-run extreme.
    """
    passes = -(-(TAIL_BEYOND + 1) // members)
    n = passes * members
    return 100.0 * (n - TAIL_BEYOND - 1) / (n - 1), passes


def setup_samples(args) -> list[tuple[float, float]]:
    """(raw, adjusted) seconds of SETUP_SAMPLES set-ups, run one after another.

    Each set-up is a fresh `run.py --setup-only` process, timed from its
    start until it reports that its imports are done and its configs are
    written: what a user's process pays before the first run.  The process
    probes the host's speed while it sets up and reports its adjusted over
    raw time, which scales the raw time measured here.
    """
    argv = [sys.executable, str(Path(__file__).with_name("run.py")), "--setup-only", "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            raw = time.perf_counter() - t0
            rest = proc.stdout.read()
        word, _, factor = line.partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise RuntimeError(f"set-up process exited with {proc.returncode}: {line}{rest}")
        samples.append((raw, raw * float(factor)))
    return samples


def references(configs, cache_path: Path) -> dict:
    """Reference per member label, one solve per distinct member.

    Solves are kept in `cache_path`, keyed by the reference config and a
    hash of oracle.py, so later runs in the same checkout reuse them (the
    fig1 references alone take ~25 s and do not depend on the seed).
    """
    cache = json.loads(cache_path.read_text()) if cache_path.is_file() else {}
    version = hashlib.sha256(Path(oracle.__file__).read_bytes()).hexdigest()[:16]
    by_label = {}
    for cfg in configs:
        key = json.dumps({"oracle": version, **cfg.to_dict(), "label": None}, sort_keys=True)
        if key not in cache:
            cache[key] = asdict(oracle.reference_solve(cfg))
        by_label[cfg.label] = oracle.Reference(**cache[key])
    cache_path.write_text(json.dumps(cache) + "\n")
    return by_label


@dataclass
class Verdict:
    attempted: int = 0  # members
    failed: int = 0  # members with at least one failed run
    runs: int = 0  # member runs checked, over all passes
    misses: dict = field(default_factory=dict)  # label -> why it missed its reference
    hard: list = field(default_factory=list)  # failures that make the run incorrect


def check_runs(passes: list[Pass], refs: dict) -> Verdict:
    """Check every run of every pass; a member fails when any of its runs does.

    `attempted` and `failed` count members, not runs: how many passes fit in
    `--seconds` follows the host's speed, while the members, and so the
    counts, are fixed by the seed.  Repeats of a member must give identical
    outputs (checked here), so a member's runs agree on whether it misses.
    """
    v = Verdict()
    outputs: dict[str, set] = {}
    failed: set[str] = set()
    for p in passes:
        for r in p.runs:
            v.runs += 1
            if r.error is not None:
                failed.add(r.label)
                v.hard.append(f"{r.label}: {r.error}")
                continue
            outputs.setdefault(r.label, set()).add((r.settled_at, r.terminated_reason))
            miss = oracle.check(r.settled_at, r.terminated_reason, refs[r.label])
            if miss is not None:
                failed.add(r.label)
                v.misses[r.label] = miss.detail
                if miss.kind == "terminated_reason":
                    v.hard.append(f"{r.label}: {miss.detail}")
    # the same inputs must give the same outputs in every pass, traced or not
    for label, seen in outputs.items():
        if len(seen) > 1:
            v.hard.append(f"{label}: passes disagree on (settled_at, terminated_reason): {sorted(seen, key=str)}")
    v.attempted = len(passes[0].runs)
    v.failed = len(failed)
    return v


def end_to_end(
    passes: list[Pass], members: int, setups: list[tuple[float, float]], peak_rss_mb: float, v: Verdict
) -> dict:
    untraced = [p for p in passes if not p.traced]
    samples = [r.seconds for p in untraced for r in p.runs if r.seconds is not None]
    adjusted = [p.wall_adj for p in untraced]
    if not samples:
        v.hard.append("no member run completed")
        samples = [float("nan")]
    probe_ms = [1e3 * s for p in untraced for s in p.probes]
    tail_pct, tail_passes = tail_percentile(members)
    values = {
        "setup_s": median(a for _, a in setups),
        "setup_s.raw": median(r for r, _ in setups),
        "wall_s.adj": median(adjusted),
        "wall_s": median([p.wall for p in untraced]),
        "run_s.p50": median(samples),
        "run_s.tail": float(np.percentile(samples, tail_pct)),
        "peak_rss_mb": peak_rss_mb,
        "probe_ms": median(probe_ms),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, each a fresh process until its configs are written, "
        "adjusted by the speed probes it ran: " + ", ".join(f"{a:.3f}" for _, a in setups),
        "setup_s.raw": "median of the same set-ups as measured: " + ", ".join(f"{r:.3f}" for r, _ in setups),
        "wall_s.adj": f"median of {len(adjusted)} passes, each adjusted to a probe time of "
        f"{1e3 * PROBE_REF_S:g} ms every {PROBE_EVERY_S:g} s: " + ", ".join(f"{w:.3f}" for w in adjusted),
        "wall_s": f"median of {len(untraced)} passes as measured: " + ", ".join(f"{p.wall:.3f}" for p in untraced),
        "run_s.p50": f"median of {len(samples)} member runs as measured",
        "run_s.tail": f"p{tail_pct:.1f} of the same {len(samples)} runs: "
        f"{TAIL_BEYOND} of every {tail_passes * members} runs ({tail_passes} passes) lie above it",
        "peak_rss_mb": "ru_maxrss after the timed passes",
        "probe_ms": f"median of {len(probe_ms)} speed probes, from {min(probe_ms):.2f} to {max(probe_ms):.2f} ms",
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_METRICS}
    for name, unit in E2E_METRICS + PRINTED_METRICS:
        gate = "" if name in metrics else "; printed only, not bounded"
        print(f"  {name:<12} = {values[name]:.6g} {unit:<5} ({notes[name]}{gate})")
    return metrics


def per_layer(passes: list[Pass], workload: str, v: Verdict) -> dict:
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    layer = {}
    if all(p.layer for p in traced):
        layer = {name: median([p.layer[name] for p in traced]) for name in traced[0].layer}
        for name in COUNT_METRICS:
            seen = {p.layer[name] for p in traced}
            if len(seen) > 1:
                v.hard.append(f"{name} differs between traced passes: {sorted(seen)}")
    untraced_wall = median([p.wall for p in untraced])
    traced_wall = median([p.wall for p in traced])
    layer["cli.overhead_s"] = untraced_wall - median([p.span_s for p in traced])
    layer["trace.overhead_s"] = traced_wall - untraced_wall
    print(f"  traced pass {traced_wall:.3f} s vs untraced {untraced_wall:.3f} s: tracing overhead {layer['trace.overhead_s']:+.3f} s")
    metrics = {}
    for name, unit, _, moves, where in LAYER_METRICS:
        if name not in layer:
            v.hard.append(f"per-layer metric {name} missing")
            continue
        metrics[name] = {"value": layer[name], "unit": unit}
        print(f"  {name:<30} = {layer[name]:<12.6g} {unit:<5} moves {moves}; {where}")
    print(f"  {FLOW_NOTE}")
    if workload == "fig1-rosenbrock" and traced[0].grad_calls:
        counts = {rid.split("/", 1)[1]: n for rid, n in traced[0].grad_calls.items()}
        print(f"  gradient evaluations per member {counts}")
        if counts != FIG1_GRAD_BASELINE:
            v.hard.append(f"fig1 gradient evaluations {counts} differ from the ROADMAP baseline {FIG1_GRAD_BASELINE}")
    return metrics


def write_inputs(workload: str, seed: int, root: Path) -> tuple[list, list[Path]]:
    """The workload's member configs for `seed`, and the files they are written to."""
    configs = workloads.MEMBERS[workload](seed)
    return configs, workloads.write_configs(configs, root / ".perfbench" / "inputs" / f"{workload}-seed{seed}")


def run(args, blas_threads: int, root: Path) -> int:
    """One benchmark run."""
    workload, seed = args.workload, args.seed
    work = root / ".perfbench"

    configs, paths = write_inputs(workload, seed, root)
    labels = [c.label for c in configs]
    setups = setup_samples(args) if not args.trace else []

    watch = SummaryOpens()
    sys.addaudithook(watch)  # stays installed for the life of the process; idle outside CLI passes
    passes = measure(workload, paths, labels, args.seconds, bool(args.trace), work, watch)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # everything below is outside the timed region
    env = environment(blas_threads)
    refs = references(configs, work / "references.json")
    v = check_runs(passes, refs)
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    print(f"env: {json.dumps(env)}")
    print(
        f"workload {workload} seed {seed}: {len(configs)} members per pass; "
        f"{len(untraced)} untraced and {len(traced)} traced passes in {sum(p.wall for p in passes):.2f} s "
        "(closed loop, one process, one run at a time)"
    )
    if args.trace:
        metrics = per_layer(passes, workload, v)
        spans_path = work / "spans" / f"{workload}-seed{seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps({"env": env, "passes": [p.spans for p in traced]}) + "\n")
        print(f"  spans of {len(traced)} traced passes -> {spans_path.relative_to(root)}")
    else:
        metrics = end_to_end(passes, len(configs), setups, peak_rss_mb, v)

    print(
        f"  fail_share   = {v.failed}/{v.attempted} = {v.failed / v.attempted:.4g} ratio "
        f"(members with a failed run; {v.runs} runs checked)"
    )
    print(
        f"reference: independent scipy {oracle.REF_METHOD} solve at rtol {oracle.REF_RTOL:g}, "
        f"|settled_at| tolerance {oracle.SETTLED_AT_TOL:g}"
    )
    by_label = dict(zip(labels, configs))
    for r in untraced[0].runs:
        ref = refs[r.label]
        ref_txt = f"{ref.settled_at:.9f}" if ref.settled_at is not None else ref.terminated_reason
        got = f"{r.settled_at:.9f}" if r.settled_at is not None else r.terminated_reason
        status = "ok"
        if r.label in v.misses:
            cfg = by_label[r.label]
            status = f"MISS: {v.misses[r.label]} ({cfg.objective_params}, {cfg.flow.to_dict()})"
        print(f"  {r.label:<24} {got!s:>16} reference {ref_txt:>16}  {status}")
    for line in v.hard:
        print(f"FAILED {line}")

    result = {"correct": not v.hard, "attempted": v.attempted, "failed": v.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0
