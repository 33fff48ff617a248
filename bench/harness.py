"""Job runner, span recorder and order statistics for the benchmark."""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# A job slower than this counts as failed.
JOB_CAP_S = 30.0


class Tracer:
    """Spans around the benchmark's calls into the program, kept in memory.

    Disabled, ``call`` is a plain call.  Enabled, each call records its
    name, start and end (ns since the tracer was made), job id, parent
    span and optional work counts derived from the result.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter_ns()

    def call(self, name: str, job: str, fn: Callable, *args, work=None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = {
            "name": name,
            "job": job,
            "parent": self._open[-1] if self._open else None,
            "start_ns": time.perf_counter_ns() - self._t0,
        }
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end_ns"] = time.perf_counter_ns() - self._t0
            self._open.pop()
        if work is not None:
            span["work"] = work(result)
        return result

    def durations_ms(self, name: str) -> list[float]:
        return [
            (s["end_ns"] - s["start_ns"]) / 1e6 for s in self.spans if s["name"] == name
        ]

    def work(self, name: str, key: str) -> list[int]:
        return [s["work"][key] for s in self.spans if s["name"] == name]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time (total
        minus the time covered by child spans)."""
        child_ms = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_ms[s["parent"]] += (s["end_ns"] - s["start_ns"]) / 1e6
        out: dict[str, dict[str, float]] = {}
        for s, children in zip(self.spans, child_ms):
            row = out.setdefault(s["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            ms = (s["end_ns"] - s["start_ns"]) / 1e6
            row["count"] += 1
            row["total_ms"] += ms
            row["self_ms"] += ms - children
        return out


@dataclass
class Job:
    """One timed unit of work and the checks on its result.

    ``run(tracer, job_id)`` makes the timed calls and returns what they
    produced; ``check(result)`` lists mismatches with the expectation;
    ``extra(tracer, job_id, result)`` makes the traced-only calls after
    the timed part and lists their mismatches.
    """

    kind: str
    run: Callable[[Tracer, str], Any]
    check: Callable[[Any], list[str]]
    extra: Callable[[Tracer, str, Any], list[str]] | None = None


@dataclass
class JobResult:
    kind: str
    ms: float
    errors: list[str] = field(default_factory=list)


def run_rounds(
    make_round: Callable[[random.Random], list[Job]],
    rounds: int,
    rng: random.Random,
    tracer: Tracer,
    limit_s: float,
    after_round: Callable[[], Any] = lambda: None,
) -> tuple[list[JobResult], float]:
    """Run each round's jobs once, in a seeded order, and check each result.

    Only the job's own calls are timed; garbage collection, checks and
    traced-only calls happen between jobs, ``after_round`` after each
    round.  No round starts after ``limit_s``.  Returns the results and
    the timed wall clock in seconds.
    """
    results: list[JobResult] = []
    start = time.perf_counter()
    for r in range(rounds):
        if r and time.perf_counter() - start > limit_s:
            break
        jobs = make_round(rng)
        for n, job in enumerate(rng.sample(jobs, len(jobs))):
            job_id = f"r{r}.{n}.{job.kind}"
            gc.collect()
            t0 = time.perf_counter_ns()
            try:
                out = tracer.call("job." + job.kind, job_id, job.run, tracer, job_id)
                error = None
            except Exception as exc:  # a crash is a failed job, not a failed run
                out, error = None, f"{type(exc).__name__}: {exc}"
            ms = (time.perf_counter_ns() - t0) / 1e6
            res = JobResult(job.kind, ms, [error] if error else [])
            if ms > JOB_CAP_S * 1000:
                res.errors.append(f"time cap {JOB_CAP_S} s hit ({ms:.0f} ms)")
            if not error:
                try:
                    res.errors += job.check(out)
                    if tracer.enabled and job.extra:
                        res.errors += job.extra(tracer, job_id, out)
                except Exception as exc:  # a malformed result fails its check
                    res.errors.append(f"check raised {type(exc).__name__}: {exc}")
            # Drop this job's output before the next job runs, so peak memory
            # does not depend on which two jobs the seed puts side by side.
            del out
            results.append(res)
        after_round()
    return results, sum(r.ms for r in results) / 1000


def tail(values: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten values beyond it: the
    value with exactly ten above it, and its percentile rank (floored)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    return ordered[n - 11], math.floor(100 * (n - 10) / n)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def compare(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]
