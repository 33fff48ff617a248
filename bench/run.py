"""splitauth benchmark: four seeded workloads over family -> design ->
code -> verdict, timed end to end and, in a separate traced run, per
module.

    python3 bench/run.py --workload cyclic-uniform --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from a checkout of the repository; the program is imported from
``src/``.  A run sets up its inputs, then runs ``Workload.rounds`` rounds
per 25 s of ``--seconds`` (half as many when traced), repeating the
set-up after the first rounds (``setup_s`` is the median of
``SETUP_SAMPLES``).  Each round runs every job of the workload once in a
seeded order (a closed loop with one client: the next job starts when
the last one ends) and checks its result against an expectation
computed without the program (see ``expect.py``).

With ``--trace 0`` the last line of output reports the end-to-end
metrics.  With ``--trace 1`` every call into the program is wrapped in a
span, a few calls are added outside the timed jobs
(``deception_probability`` per order, ``perfect_secrecy_check``, a direct
``SplittingACode``, in-process analyze, import cost), and the last line
reports the per-layer metrics.  A per-layer metric whose layer the
workload does not reach reads 0.  Every run writes its provenance, job
list and (traced) spans to ``.bench_results/<workload>-trace<t>.json``.
``all`` runs every workload untraced then traced, each in its own
process, and prints one table.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from harness import Tracer, median, run_rounds, tail

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_results"
# No round starts after this many multiples of --seconds, so a slow
# machine shortens a run instead of overrunning it.
ROUND_LIMIT = 1.3
SETUP_SAMPLES = 5
TIMING = (
    "wall clock (time.perf_counter_ns) around the benchmark's own calls into "
    "the program and around each subprocess, seen from outside the program only; "
    "no system-wide tracing; CPU frequency and co-tenants are not controlled "
    "(shared 2-core VM); set-up objects are frozen out of the garbage collector and "
    "gc.collect() runs between jobs, outside the timed region"
)
ROADMAP_ANALYZE_MS = {"c2n8": 119.0, "c2n16": 266.0, "c2n32": 1500.0}
CLI_SUBCOMMANDS = ("gen-family", "develop", "verify", "to-code", "analyze", "export", "demo")


def import_program() -> None:
    """Import the program from this checkout's src/, or stop with exit 2."""
    src = ROOT / "src"
    if not (src / "splitauth" / "__init__.py").is_file():
        sys.exit(f"error: {src}/splitauth not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import splitauth

    if Path(splitauth.__file__).resolve().parent != (src / "splitauth").resolve():
        sys.exit(f"error: imported splitauth from {splitauth.__file__}, not {src}")


def provenance(seed: int) -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "seed": seed,
        "timing": TIMING,
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tr) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans; 0 where the layer did no work."""

    def ms(name):
        return median(tr.durations_ms(name))

    def per_s(names, key):
        seconds = sum(sum(tr.durations_ms(n)) for n in names) / 1000
        count = sum(sum(tr.work(n, key)) for n in names)
        return count / seconds if seconds else 0.0

    deception = ("security.deception.order0", "security.deception.order1")
    verify = ("verify.accept", "verify.reject")
    busy_ms = sum(sum(tr.durations_ms(n)) for n in deception + ("security.perfect_secrecy_check",))
    m = {
        "security.deception_ms.order0": (ms(deception[0]), "ms"),
        "security.deception_ms.order1": (ms(deception[1]), "ms"),
        "security.secrecy_ms": (ms("security.perfect_secrecy_check"), "ms"),
        "security.analyze_ms": (ms("security.analyze"), "ms"),
        "security.transcripts.order0": (_mean(tr.work(deception[0], "transcripts")), "count"),
        "security.transcripts.order1": (_mean(tr.work(deception[1], "transcripts")), "count"),
        "security.transcripts_per_s": (per_s(deception, "transcripts"), "1/s"),
        "security.analyze_redundancy": (
            sum(tr.durations_ms("security.analyze")) / busy_ms if busy_ms else 0.0,
            "ratio",
        ),
    }
    for tag in ROADMAP_ANALYZE_MS:
        m[f"security.analyze_ms.{tag}"] = (ms(f"ladder.analyze.{tag}"), "ms")
    scanned = [w for n in verify for w in tr.work(n, "scanned")]
    covered = [w for n in verify for w in tr.work(n, "covered")]
    verify_s = sum(sum(tr.durations_ms(n)) for n in verify) / 1000
    m.update(
        {
            "verify.accept_ms": (ms("verify.accept"), "ms"),
            "verify.reject_ms": (ms("verify.reject"), "ms"),
            "verify.subsets_scanned": (_mean(scanned), "count"),
            "verify.covered_subsets": (_mean(covered), "count"),
            "verify.subsets_per_s": (
                (sum(scanned) + sum(covered)) / verify_s if verify_s else 0.0,
                "1/s",
            ),
            "construct.develop_ms": (ms("construct.develop_cyclic"), "ms"),
            "construct.translates": (
                _mean(tr.work("construct.develop_cyclic", "translates")),
                "count",
            ),
            "construct.translates_per_s": (
                per_s(("construct.develop_cyclic",), "translates"),
                "1/s",
            ),
            "acode.validate_ms": (ms("acode.SplittingACode"), "ms"),
            "acode.code_from_design_ms": (ms("acode.code_from_design"), "ms"),
            "acode.rules_validated": (
                _mean(
                    tr.work("acode.SplittingACode", "rules")
                    + tr.work("acode.code_from_design", "rules")
                ),
                "count",
            ),
        }
    )
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.proc_ms.{sub}"] = (ms(f"cli.{sub}"), "ms")
    import_ms = 0.0
    if tr.durations_ms("cli.import"):
        import_ms = ms("cli.import") - ms("cli.bare-interpreter")
    by_job: dict[str, dict[str, float]] = {}
    for s in tr.spans:
        if s["name"] in ("cli.analyze", "cli.in-process.analyze") and s["job"] != "setup":
            by_job.setdefault(s["job"], {})[s["name"]] = (s["end_ns"] - s["start_ns"]) / 1e6
    overhead = [
        d["cli.analyze"] - d["cli.in-process.analyze"] for d in by_job.values() if len(d) == 2
    ]
    pipeline_jobs = {s["job"] for s in tr.spans if s["name"] == "cli.gen-family"}
    json_bytes = sum(
        s.get("work", {}).get("json_bytes", 0) for s in tr.spans if s["name"].startswith("cli.")
    )
    m.update(
        {
            "cli.import_ms": (import_ms, "ms"),
            "cli.json_bytes": (json_bytes / len(pipeline_jobs) if pipeline_jobs else 0.0, "bytes"),
            "cli.overhead_ms.analyze": (median(overhead), "ms"),
        }
    )
    return m


def span_cost_us() -> float:
    """Cost of recording one span around an empty call, in microseconds."""
    tr = Tracer(True)
    n = 20000
    t0 = time.perf_counter_ns()
    for _ in range(n):
        tr.call("x", "x", int)
    return (time.perf_counter_ns() - t0) / n / 1000


def spec() -> dict:
    """BENCHMARK.json: workload reasons and the metrics each run reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from workloads import REFERENCE_SECONDS, WORKLOADS, Context

    wl = WORKLOADS[name]
    tracer = Tracer(traced)
    ctx = Context(ROOT, seed, tracer, RESULTS / f"work-{os.getpid()}")
    try:
        setup_times = []

        def timed_setup():
            if len(setup_times) == SETUP_SAMPLES:
                return None
            t0 = time.perf_counter()
            state = wl.setup(ctx)
            setup_times.append(time.perf_counter() - t0)
            return state

        state = timed_setup()
        make_round, setup_errors = wl.jobs(ctx, state)
        # Keep the collector from rescanning set-up and expectation objects
        # during timed jobs.
        gc.collect()
        gc.freeze()
        rounds = max(1, round(wl.rounds * seconds / REFERENCE_SECONDS))
        if traced:
            rounds = max(1, math.ceil(rounds / 2))
        # Set-up is repeated after rounds, so that its median samples the
        # machine across the run rather than in one burst.
        results, timed_s = run_rounds(
            make_round, rounds, ctx.rng("order"), tracer, ROUND_LIMIT * seconds, timed_setup
        )
        after_errors = wl.after(ctx, state) if traced and wl.after else []
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)

    who = resource.RUSAGE_CHILDREN if name == "cli-pipeline" else resource.RUSAGE_SELF
    times = [r.ms for r in results]
    tail_ms, tail_pct = tail(times)
    # Set-up checks and traced-only measurements count as one attempt each.
    checks = [("setup", setup_errors)] + ([("after", after_errors)] if traced and wl.after else [])
    failed_jobs = sum(1 for r in results if r.errors)
    attempted = len(results) + len(checks)
    failed = failed_jobs + sum(1 for _, errors in checks if errors)
    ok_jobs = len(results) - failed_jobs
    end_to_end = {
        "job_ms.p50": (median(times), "ms"),
        "job_ms.tail": (tail_ms, "ms"),
        "jobs_per_s": (ok_jobs / timed_s if timed_s else 0.0, "1/s"),
        "fail_ratio": (failed / attempted, "ratio"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    out = {
        "workload": name,
        "why": next(w["why"] for w in spec()["workloads"] if w["name"] == name),
        "trace": int(traced),
        "seconds": seconds,
        "rounds": rounds,
        "provenance": provenance(seed),
        "attempted": attempted,
        "failed": failed,
        "tail_percentile": tail_pct,
        "jobs": len(results),
        "setup_s_each": setup_times,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "job_list": [{"kind": r.kind, "ms": r.ms, "errors": r.errors} for r in results],
        "check_errors": {k: errors for k, errors in checks if errors},
    }
    if traced:
        out["per_layer"] = {
            k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(tracer).items()
        }
        cost = span_cost_us()
        # Spans inside the timed jobs: each job's root span and its descendants.
        timed: set[int] = set()
        for i, span in enumerate(tracer.spans):
            if span["name"].startswith("job.") or span["parent"] in timed:
                timed.add(i)
        spans_per_job = len(timed) / len(results) if results else 0.0
        untraced = RESULTS / f"{name}-trace0.json"
        gap = None
        if untraced.exists():
            base = json.loads(untraced.read_text())["end_to_end"]["job_ms.p50"]["value"]
            gap = median(times) - base
        out["tracing_overhead"] = {
            "span_cost_us": cost,
            "spans_per_job": spans_per_job,
            "estimated_ms_per_job": cost * spans_per_job / 1000,
            "job_ms_p50_minus_untraced_ms": gap,
        }
        out["span_summary"] = tracer.summary()
        out["spans"] = tracer.spans
    return out


def report(out: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    prov = out["provenance"]
    print(
        f"# splitauth benchmark: {out['workload']} seed={prov['seed']} trace={out['trace']} "
        f"python={prov['python']} git={prov['git_sha']} src_lines={prov['src_lines']} "
        f"nproc={prov['nproc']}"
    )
    print(f"# why: {out['why']}")
    print(f"# timing: {prov['timing']}")
    print(
        f"# {out['jobs']} jobs in {out['rounds']} rounds; job_ms.tail is "
        f"p{out['tail_percentile']} of {out['jobs']} jobs"
    )
    for kind, errors in out["check_errors"].items():
        print(f"# FAILED {kind} check: {'; '.join(errors)[:500]}")
    for job in out["job_list"]:
        if job["errors"]:
            print(f"# FAILED job {job['kind']}: {'; '.join(job['errors'])[:500]}")
    for k, m in out["end_to_end"].items():
        print(f"{k:32s} {m['value']:14.4f} {m['unit']}")
    declared = spec()
    metrics = {m["name"]: out["end_to_end"][m["name"]] for m in declared["end_to_end"]}
    if out["trace"]:
        print("# per-layer (traced run):")
        for k, m in out["per_layer"].items():
            print(f"{k:32s} {m['value']:14.4f} {m['unit']}")
        if out["workload"] == "cyclic-uniform":
            for tag, ref in ROADMAP_ANALYZE_MS.items():
                now = out["per_layer"][f"security.analyze_ms.{tag}"]["value"]
                print(f"# analyze family_u2 {tag}: {now:.1f} ms (ROADMAP Recent: {ref:.0f} ms)")
        ovh = out["tracing_overhead"]
        gap = ovh["job_ms_p50_minus_untraced_ms"]
        print(
            f"# tracing overhead: {ovh['span_cost_us']:.2f} us/span x "
            f"{ovh['spans_per_job']:.1f} spans/job = {ovh['estimated_ms_per_job']:.4f} ms/job; "
            + (
                "no untraced run to compare"
                if gap is None
                else f"p50 vs untraced run: {gap:+.1f} ms"
            )
        )
        metrics = {m["name"]: out["per_layer"][m["name"]] for m in declared["per_layer"]}
    print(
        json.dumps(
            {
                "correct": out["failed"] == 0,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": metrics,
            }
        )
    )


def run_all(seed: int, seconds: float) -> None:
    """Every workload untraced then traced, each in a fresh process."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"error: {name} --trace {trace} failed: {proc.stderr[-2000:]}")
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for k, m in result["metrics"].items():
                summary["metrics"][f"{name}.{k}"] = m
    print(json.dumps(summary))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        run_all(args.seed, args.seconds)
        return
    if args.workload not in WORKLOADS:
        names = ", ".join(WORKLOADS)
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {names} or all")
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(out, indent=1))
    report(out)


if __name__ == "__main__":
    main()
