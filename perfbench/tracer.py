"""The traced pass: spans around each call into ftflow's public functions.

Spans are recorded from outside the program; nothing in ftflow is
patched.  A traced pass drives each generated config through the public
functions in the order `experiments.run` and the CLI use them.  The
objective is wrapped by building a new `Objective` from the callables of
the one `make_objective` returns.  Its calls (up to ~10^5 per run) are not
spans: each adds a count and its duration to the innermost open span.  A
gradient call inside `integrate` counts as implicit-phase work when
`scipy.integrate` is on its caller stack.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ftflow.certificates import check_admissibility, fit_certificate
from ftflow.experiments import (
    DOMINANCE_SEED,
    RunSummary,
    export_trajectory,
    load_config,
    write_summary,
)
from ftflow.integrate import integrate
from ftflow.objectives import (
    Objective,
    estimate_dominance,
    hessian_definiteness,
    shell_samples,
)

INTEGRATE = "integrate.integrate"
ESTIMATORS = (
    "objectives.shell_samples",
    "objectives.estimate_dominance",
    "objectives.hessian_definiteness",
)
_INTEGRATE_CODE = integrate.__code__


class Span:
    __slots__ = ("name", "run_id", "parent", "start", "end", "calls", "call_s", "first_implicit")

    def __init__(self, name: str, run_id: str, parent: Optional[int], start: float):
        self.name = name
        self.run_id = run_id
        self.parent = parent  # index into Tracer.spans
        self.start = start
        self.end = start
        self.calls: dict[str, int] = {}  # grad | grad_implicit | value | hess
        self.call_s: dict[str, float] = {}  # grad | value | hess
        self.first_implicit: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "run_id": self.run_id,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "calls": self.calls,
            "call_s": self.call_s,
            "first_implicit": self.first_implicit,
        }


def _called_from_scipy_integrate() -> bool:
    # frame 0: this function, 1: the wrapper, 2: ftflow's caller
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_code is _INTEGRATE_CODE:
            return False
        if frame.f_globals.get("__name__", "").startswith("scipy.integrate"):
            return True
        frame = frame.f_back
    return False


class Tracer:
    """Spans of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, run_id: str):
        parent = self._open[-1] if self._open else None
        sp = Span(name, run_id, parent, time.perf_counter())
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def objective(self, base: Objective) -> Objective:
        """The same objective with counting, timing callables."""
        return Objective(
            dim=base.dim,
            value=self._wrap(base.value, "value"),
            gradient=self._wrap(base.gradient, "grad"),
            hessian=self._wrap(base.hessian, "hess") if base.hessian is not None else None,
            optimum=base.optimum,
            name=base.name,
        )

    def _wrap(self, fn, kind: str):
        perf = time.perf_counter
        spans, open_ = self.spans, self._open

        def call(x):
            t0 = perf()
            out = fn(x)
            t1 = perf()
            if open_:
                sp = spans[open_[-1]]
                key = kind
                if kind == "grad" and sp.name == INTEGRATE and _called_from_scipy_integrate():
                    key = "grad_implicit"
                    if sp.first_implicit is None:
                        sp.first_implicit = t0
                sp.calls[key] = sp.calls.get(key, 0) + 1
                sp.call_s[kind] = sp.call_s.get(kind, 0.0) + (t1 - t0)
            return out

        return call


@dataclass(frozen=True)
class TracedRun:
    label: str
    settled_at: Optional[float]
    terminated_reason: str
    samples: int
    fit_ok: bool
    certified: bool
    export_bytes: int


def traced_run(path: Path, outdir: Path, tracer: Tracer, run_id: str) -> TracedRun:
    """One member, as `experiments.run` and the CLI's export do it, with spans."""
    with tracer.span("experiments.run", run_id):
        with tracer.span("experiments.load_config", run_id):
            cfg = load_config(path)
        with tracer.span("objectives.make_objective", run_id):
            # the wrapped copy re-runs Objective's check that the gradient
            # vanishes at the optimum: one gradient call, as in the original
            objective = tracer.objective(cfg.objective())
        state0 = cfg.initial_state()
        with tracer.span(INTEGRATE, run_id):
            traj = integrate(state0, cfg.flow, objective, cfg.integrator)

        theta_final = traj.thetas[-1]
        if objective.optimum is not None:
            f_gap = max(traj.f[-1] - objective.f_star, 0.0)
            state_err = float(np.linalg.norm(theta_final - objective.theta_star))
        else:
            f_gap = float(traj.f[-1] - np.min(traj.f))
            state_err = float("nan")

        # experiments.run records no certificate or verdict when these raise;
        # CertificateError, ObjectiveError and LinAlgError are ValueErrors
        certificate = None
        with tracer.span("certificates.fit_certificate", run_id):
            try:
                certificate = fit_certificate(traj)
            except (ValueError, ArithmeticError):
                pass
        admissibility = None
        try:
            with tracer.span(ESTIMATORS[0], run_id):
                samples = shell_samples(objective, count=64, seed=DOMINANCE_SEED)
            with tracer.span(ESTIMATORS[1], run_id):
                dominance = estimate_dominance(objective, samples)
            with tracer.span(ESTIMATORS[2], run_id):
                evidence = hessian_definiteness(objective, samples)
            with tracer.span("certificates.check_admissibility", run_id):
                admissibility = check_admissibility(cfg.flow, dominance, evidence)
        except (ValueError, ArithmeticError):
            pass

        summary = RunSummary(
            label=cfg.label,
            settled_at=traj.settled_at,
            terminated_reason=traj.terminated_reason,
            final_f_gap=f_gap,
            final_state_error=state_err,
            certificate=certificate,
            admissibility=admissibility,
        )
        csv = outdir / f"{summary.label}.csv"
        summary_path = outdir / f"{summary.label}.summary.json"
        with tracer.span("experiments.export_trajectory", run_id):
            export_trajectory(traj, csv)
        with tracer.span("experiments.write_summary", run_id):
            write_summary(summary, summary_path)

    return TracedRun(
        label=summary.label,
        settled_at=summary.settled_at,
        terminated_reason=summary.terminated_reason,
        samples=len(traj),
        fit_ok=certificate is not None,
        certified=admissibility is not None and admissibility.verdict == "certified",
        export_bytes=csv.stat().st_size + summary_path.stat().st_size,
    )


def _total(spans: list[Span], *names: str) -> float:
    return sum(s.duration for s in spans if s.name in names)


def pass_metrics(tracer: Tracer, runs: list[TracedRun]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (sums over its member runs)."""
    spans = tracer.spans
    integ = [s for s in spans if s.name == INTEGRATE]
    grad_calls = sum(s.calls.get("grad", 0) + s.calls.get("grad_implicit", 0) for s in spans)
    grad_s = sum(s.call_s.get("grad", 0.0) for s in spans)
    integrate_s = _total(spans, INTEGRATE)
    implicit_s = sum(s.end - s.first_implicit for s in integ if s.first_implicit is not None)
    n = len(runs)
    return {
        "objectives.grad_calls": grad_calls,
        "objectives.grad_s": grad_s,
        "objectives.grad_us": 1e6 * grad_s / grad_calls,
        "objectives.value_calls": sum(s.calls.get("value", 0) for s in spans),
        "objectives.hess_calls": sum(s.calls.get("hess", 0) for s in spans),
        "objectives.estimators_s": _total(spans, *ESTIMATORS),
        "integrate.s": integrate_s,
        "integrate.self_s": sum(s.duration - sum(s.call_s.values()) for s in integ),
        "integrate.implicit_s": implicit_s,
        "integrate.implicit_share": implicit_s / integrate_s,
        "integrate.grad_calls_explicit": sum(s.calls.get("grad", 0) for s in integ),
        "integrate.grad_calls_implicit": sum(s.calls.get("grad_implicit", 0) for s in integ),
        "integrate.handoffs": sum(s.first_implicit is not None for s in integ) / n,
        "integrate.samples": sum(r.samples for r in runs),
        "integrate.settled": sum(r.terminated_reason == "settled" for r in runs) / n,
        "certificates.fit_s": _total(spans, "certificates.fit_certificate"),
        "certificates.fit_ok": sum(r.fit_ok for r in runs) / n,
        "certificates.admissibility_s": _total(spans, "certificates.check_admissibility"),
        "certificates.certified": sum(r.certified for r in runs) / n,
        "experiments.config_s": _total(spans, "experiments.load_config"),
        "experiments.export_s": _total(spans, "experiments.export_trajectory"),
        "experiments.export_bytes": sum(r.export_bytes for r in runs),
        "experiments.summary_s": _total(spans, "experiments.write_summary"),
    }


def layer_span_s(tracer: Tracer) -> float:
    """Time inside the spans around ftflow calls (every span below a run's root)."""
    return sum(s.duration for s in tracer.spans if s.parent is not None)


def run_grad_calls(tracer: Tracer) -> dict[str, int]:
    """Gradient evaluations per run id of the objective a run builds and
    integrates with (its registration check plus `integrate`), estimators
    excluded."""
    counts: dict[str, int] = {}
    for s in tracer.spans:
        if s.name in ("objectives.make_objective", INTEGRATE):
            n = s.calls.get("grad", 0) + s.calls.get("grad_implicit", 0)
            counts[s.run_id] = counts.get(s.run_id, 0) + n
    return counts
