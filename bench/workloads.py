"""The four workloads: inputs generated from the seed, timed jobs, checks.

Each workload has a ``setup`` (timed as ``setup_s``: input generation,
code building through the program, warm-up), a ``jobs`` step that
computes expectations without the program and returns a function giving
each round's jobs, and optionally ``after``, traced-only measurements
taken once the timed rounds are done.  Every call into the program goes
through ``Tracer.call`` so the traced run can attribute time to layers.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import expect
from harness import JOB_CAP_S, Job, Tracer, compare

from splitauth import (
    SplittingACode,
    SplittingDesign,
    analyze,
    code_from_design,
    deception_probability,
    develop_cyclic,
    family_u2,
    perfect_secrecy_check,
    verify_design,
)

SECURITY_SHAPES = ((2, 32), (3, 16), (4, 8))
BUILD_SHAPES = ((2, 64), (2, 128))
CLI_SHAPES = ((2, 8), (3, 8))
LADDER = ((2, 8), (2, 16), (2, 32))
SINGLE_BLOCK_V = 4097
REFERENCE_SECONDS = 25
SOURCE_WEIGHTED = (Fraction(1, 3), Fraction(2, 3))


@dataclass
class Context:
    root: Path
    seed: int
    tracer: Tracer
    workdir: Path

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{tag}:{self.seed}")


@dataclass
class Workload:
    name: str
    # Rounds in a REFERENCE_SECONDS run.  On a 2-core Xeon VM that takes
    # about REFERENCE_SECONDS, and puts the median and the tail inside one
    # job kind's spread of times rather than at the edge between two kinds.
    rounds: int
    setup: Callable[[Context], Any]
    jobs: Callable[[Context, Any], tuple[Callable[[random.Random], list[Job]], list[str]]]
    after: Callable[[Context, Any], list[str]] | None = None


def _tag(c: int, n: int) -> str:
    return f"c{c}n{n}"


# --- program calls, each under a span with its computed work counts ---


def _develop(tr: Tracer, job: str, c: int, n: int):
    family = family_u2(c, n)
    return tr.call(
        "construct.develop_cyclic",
        job,
        develop_cyclic,
        family,
        work=lambda d: {"translates": len(family.base_blocks) * family.v},
    )


def _verify(tr: Tracer, job: str, design, accept: bool):
    b, c = design.b, len(design.blocks[0][0])
    return tr.call(
        "verify.accept" if accept else "verify.reject",
        job,
        verify_design,
        design,
        2,
        work=lambda r: {
            "covered": b * c * c,
            "scanned": math.comb(design.v, 2)
            if r.ok
            else expect.pair_rank(r.witness[0], design.v),
        },
    )


def _code_from_design(tr: Tracer, job: str, design, **dists):
    return tr.call(
        "acode.code_from_design",
        job,
        code_from_design,
        design,
        **dists,
        work=lambda code: {"rules": code.num_rules},
    )


def _transcripts(code, i: int) -> int:
    """Transcripts the exhaustive engine enumerates at order i (i <= 1):
    one per rule in use, times one per (source, message) at order 1."""
    per_rule = 1 if i == 0 else code.u * code.c
    return per_rule * sum(1 for p in code.key_dist if p > 0)


def _analyze(tr: Tracer, job: str, code, name: str = "security.analyze"):
    return tr.call(name, job, analyze, code, i_max=1)


# --- checks ---


def _check_verify_ok(res, cl: expect.Claims) -> list[str]:
    return compare("verify ok", res.ok, True) + compare(
        "verify params", str(res.params), cl.params
    )


def _check_report(rep, cl: expect.Claims) -> list[str]:
    return (
        compare("P_d0", rep.deception.get(0), cl.pd0)
        + compare("P_d1", rep.deception.get(1), cl.pd1)
        + compare("floor 0", rep.bounds.get(0), cl.bound0)
        + compare("floor 1", rep.bounds.get(1), cl.bound1)
        + compare("level", rep.level, cl.level)
        + compare("optimal", rep.optimal, cl.optimal)
        + compare("secrecy", rep.secrecy_ok, cl.secrecy)
    )


def _check_develop(design, c: int, n: int, want_blocks) -> list[str]:
    errors = []
    if not expect.same_blocks(design.blocks, want_blocks):
        errors.append(f"develop_cyclic({_tag(c, n)}): blocks differ from the translates")
    return errors + compare(
        f"orbit lengths {_tag(c, n)}", design.orbit_lengths, (design.v,) * n
    )


def security_job(kind: str, code, cl: expect.Claims) -> Job:
    """What `splitauth analyze` does after loading: check the rules are an
    index-1 design, then analyze orders 0 and 1."""

    def run(tr, job):
        design = SplittingDesign(v=code.v, blocks=code.rules, t=2)
        return _verify(tr, job, design, True), _analyze(tr, job, code)

    def check(out):
        res, rep = out
        return _check_verify_ok(res, cl) + _check_report(rep, cl)

    def extra(tr, job, out):
        d0 = tr.call(
            "security.deception.order0",
            job,
            deception_probability,
            code,
            0,
            work=lambda _: {"transcripts": _transcripts(code, 0)},
        )
        d1 = tr.call(
            "security.deception.order1",
            job,
            deception_probability,
            code,
            1,
            work=lambda _: {"transcripts": _transcripts(code, 1)},
        )
        table = tr.call("security.perfect_secrecy_check", job, perfect_secrecy_check, code)
        return (
            compare("P_d0 (direct)", d0, cl.pd0)
            + compare("P_d1 (direct)", d1, cl.pd1)
            + compare("secrecy (direct)", table.ok, cl.secrecy)
        )

    return Job(kind, run, check, extra)


def _warm_up() -> None:
    """One small pass through every library stage the jobs call."""
    code = code_from_design(develop_cyclic(family_u2(2, 2)))
    verify_design(SplittingDesign(v=code.v, blocks=code.rules), 2)
    analyze(code, i_max=1)


# --- cyclic-uniform ---


def cyclic_setup(ctx: Context):
    codes = {}
    for c, n in SECURITY_SHAPES:
        design = _develop(ctx.tracer, "setup", c, n)
        codes[(c, n)] = (design, _code_from_design(ctx.tracer, "setup", design))
    _warm_up()
    return codes


def cyclic_jobs(ctx: Context, codes):
    errors: list[str] = []
    jobs = []
    for (c, n), (design, code) in codes.items():
        errors += _check_develop(design, c, n, expect.developed_blocks(c, n)[1])
        jobs.append(security_job(_tag(c, n), code, expect.uniform_claims(c, n)))
    return (lambda rng: jobs), errors


def cyclic_after(ctx: Context, codes) -> list[str]:
    """The ROADMAP ladder: analyze on family_u2(2, 8 / 16 / 32), traced."""
    errors = []
    for c, n in LADDER:
        code = code_from_design(develop_cyclic(family_u2(c, n)))
        rep = _analyze(ctx.tracer, "ladder", code, f"ladder.analyze.{_tag(c, n)}")
        errors += _check_report(rep, expect.uniform_claims(c, n))
    return errors


# --- relabeled ---


def _weights(rng: random.Random, k: int) -> tuple[Fraction, ...]:
    raw = [rng.randint(1, 9) for _ in range(k)]
    total = sum(raw)
    return tuple(Fraction(w, total) for w in raw)


def relabel(rng: random.Random, design, weighted: bool, tracer: Tracer):
    """A code on ``design``'s blocks with points renamed by a seeded
    permutation; weighted codes get seeded weights 1..9 on keys and
    split cells and the source distribution (1/3, 2/3)."""
    perm = [0] + rng.sample(range(1, design.v + 1), design.v)
    rules = tuple(
        tuple(tuple(perm[x] for x in part) for part in block) for block in design.blocks
    )
    dists = {}
    if weighted:
        dists = {
            "key_dist": _weights(rng, len(rules)),
            "source_dist": SOURCE_WEIGHTED,
            "split_dist": tuple(
                tuple(_weights(rng, len(cell)) for cell in rule) for rule in rules
            ),
        }
    return _code_from_design(tracer, "setup", SplittingDesign(v=design.v, blocks=rules), **dists)


def relabeled_setup(ctx: Context):
    rng = ctx.rng("relabeled")
    codes = {}
    for c, n in SECURITY_SHAPES:
        design = _develop(ctx.tracer, "setup", c, n)
        for weighted in (False, True):
            codes[(c, n, weighted)] = (design, relabel(rng, design, weighted, ctx.tracer))
    _warm_up()
    return codes


def relabeled_jobs(ctx: Context, codes):
    errors: list[str] = []
    jobs = []
    for (c, n, weighted), (design, code) in codes.items():
        if not weighted:
            errors += _check_develop(design, c, n, expect.developed_blocks(c, n)[1])
            cl = expect.uniform_claims(c, n)
        else:
            cl = expect.weighted_claims(
                code.rules, code.v, code.key_dist, code.source_dist, code.split_dist
            )
        kind = _tag(c, n) + (".weighted" if weighted else ".uniform")
        jobs.append(security_job(kind, code, cl))
    return (lambda rng: jobs), errors


# --- build ---


def build_setup(ctx: Context):
    designs = {(c, n): _develop(ctx.tracer, "setup", c, n) for c, n in BUILD_SHAPES}
    v = SINGLE_BLOCK_V
    single = SplittingDesign(v=v, blocks=(((v - 1,), (v,)),))
    _warm_up()
    return designs, single


def _accept_job(c: int, n: int, want_blocks) -> Job:
    """family_u2 -> develop_cyclic -> verify_design -> code_from_design."""
    cl = expect.uniform_claims(c, n)

    def run(tr, job):
        design = _develop(tr, job, c, n)
        res = _verify(tr, job, design, True)
        return design, res, _code_from_design(tr, job, design)

    def check(out):
        design, res, code = out
        uniform = Fraction(1, cl.b)
        return (
            _check_develop(design, c, n, want_blocks)
            + _check_verify_ok(res, cl)
            + compare("code rules", code.rules == design.blocks, True)
            + compare("code shape", (code.u, code.v, code.c), (2, cl.v, c))
            + compare("uniform keys", all(p == uniform for p in code.key_dist), True)
            + compare("uniform sources", code.source_dist, (Fraction(1, 2),) * 2)
        )

    def extra(tr, job, out):
        design = out[0]
        tr.call(
            "acode.SplittingACode",
            job,
            SplittingACode,
            u=2,
            v=design.v,
            rules=design.blocks,
            work=lambda code: {"rules": code.num_rules},
        )
        return []

    return Job(f"accept.{_tag(c, n)}", run, check, extra)


def reject_job(kind: str, design, witness) -> Job:
    def run(tr, job):
        return _verify(tr, job, design, False)

    def check(res):
        return (
            compare("verify ok", res.ok, False)
            + compare("verify params", res.params, None)
            + compare("witness", res.witness, witness)
        )

    return Job(kind, run, check)


def build_jobs(ctx: Context, state):
    designs, single = state
    errors: list[str] = []
    accept = []
    for (c, n), design in designs.items():
        want = expect.developed_blocks(c, n)[1]
        errors += _check_develop(design, c, n, want)
        accept.append(_accept_job(c, n, want))
    v = single.v
    single_job = reject_job("reject.single-block", single, ((v - 1, v), 1, 0))

    def make_round(rng: random.Random) -> list[Job]:
        dropped = []
        for (c, n), design in designs.items():
            # The seed picks the orbit; translate v//4 puts the witness
            # about 44% into the pair scan, so the work is the same for
            # every seed.
            k = rng.randrange(n) * design.v + design.v // 4
            damaged = SplittingDesign(
                v=design.v, blocks=design.blocks[:k] + design.blocks[k + 1 :]
            )
            witness = expect.dropped_block_witness(design.blocks[k], design.v)
            dropped.append(reject_job(f"reject.drop.{_tag(c, n)}", damaged, witness))
        return accept + dropped + [single_job]

    return make_round, errors


# --- cli-pipeline ---


def _env(ctx: Context) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ctx.root / "src"))


def _splitauth(ctx: Context, tr: Tracer, job: str, *args: str):
    out = ctx.workdir / args[-1]

    def json_bytes(proc) -> dict[str, int]:
        is_json = args[-2] == "-o" and out.suffix == ".json" and out.exists()
        return {"json_bytes": out.stat().st_size if is_json else 0}

    return tr.call(
        "cli." + args[0],
        job,
        subprocess.run,
        [sys.executable, "-m", "splitauth", *args],
        cwd=ctx.workdir,
        env=_env(ctx),
        capture_output=True,
        timeout=JOB_CAP_S,
        work=json_bytes,
    )


def cli_setup(ctx: Context):
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    golden = ctx.root / "tests" / "golden"
    goldens = {w: (golden / f"demo_{w}.txt").read_bytes() for w in ("table1", "table2")}
    warm = _splitauth(ctx, Tracer(False), "setup", "demo", "table1")
    codes = {}
    if ctx.tracer.enabled:  # same rules in-process, for cli.overhead_ms.analyze
        codes = {
            (c, n): code_from_design(develop_cyclic(family_u2(c, n)))
            for c, n in CLI_SHAPES
        }
    return goldens, warm, codes


def pipeline_job(ctx: Context, c: int, n: int, goldens, codes) -> Job:
    """The README pipeline on family_u2(c, n), one process per step, plus
    both demos."""
    v, base = expect.family_base_blocks(c, n)
    want_blocks = expect.developed_blocks(c, n)[1]
    cl = expect.uniform_claims(c, n)
    files = {k: f"{_tag(c, n)}.{k}" for k in ("family.json", "design.json", "code.json", "md")}
    steps = (
        ("gen-family", str(c), str(n), "-o", files["family.json"]),
        ("develop", files["family.json"], "-o", files["design.json"]),
        ("verify", files["design.json"]),
        ("to-code", files["design.json"], "-o", files["code.json"]),
        ("analyze", files["code.json"]),
        ("export", files["code.json"], "-f", "markdown", "-o", files["md"]),
        ("demo", "table1"),
        ("demo", "table2"),
    )

    def run(tr, job):
        return [_splitauth(ctx, tr, job, *step) for step in steps]

    def check(procs):
        errors = [
            f"{' '.join(p.args[3:5])}: exit {p.returncode}, stderr {p.stderr[-200:]!r}"
            for p in procs
            if p.returncode != 0
        ]
        outputs = {}
        for key, name in files.items():
            path = ctx.workdir / name
            outputs[key] = path.read_bytes() if path.exists() else b""
            path.unlink(missing_ok=True)
        try:
            family = json.loads(outputs["family.json"])
            design = json.loads(outputs["design.json"])
            code = json.loads(outputs["code.json"])
        except ValueError as exc:
            return errors + [f"unreadable JSON artifact: {exc}"]
        errors += compare(
            "family",
            family,
            {"v": v, "u": 2, "c": c, "base_blocks": [[list(p) for p in b] for b in base]},
        )
        blocks = tuple(tuple(tuple(p) for p in b) for b in design.get("blocks", ()))
        errors += compare("design blocks", expect.same_blocks(blocks, want_blocks), True)
        errors += compare("orbit lengths", design.get("orbit_lengths"), [v] * n)
        errors += compare("verify stdout", procs[2].stdout.decode(), f"{cl.params}, λ=1\n")
        rules = tuple(tuple(tuple(p) for p in r) for r in code.get("rules", ()))
        errors += compare("code rules", expect.same_blocks(rules, want_blocks), True)
        errors += compare("key_dist", code.get("key_dist"), [f"1/{cl.b}"] * cl.b)
        errors += compare("source_dist", code.get("source_dist"), ["1/2", "1/2"])
        errors += compare("analyze stdout", procs[4].stdout.decode(), expect.analyze_report(cl))
        errors += compare(
            "markdown", outputs["md"].decode(errors="replace"), expect.markdown_matrix(rules)
        )
        errors += compare("demo table1", procs[6].stdout, goldens["table1"])
        errors += compare("demo table2", procs[7].stdout, goldens["table2"])
        return errors

    def extra(tr, job, procs):
        code = codes[(c, n)]

        def in_process():
            design = SplittingDesign(v=code.v, blocks=code.rules, t=2)
            return _verify(tr, job, design, True), _analyze(tr, job, code)

        res, rep = tr.call("cli.in-process.analyze", job, in_process)
        return _check_verify_ok(res, cl) + _check_report(rep, cl)

    return Job(_tag(c, n), run, check, extra)


def cli_jobs(ctx: Context, state):
    goldens, warm, codes = state
    errors = compare("warm-up demo table1", warm.stdout, goldens["table1"])
    jobs = [pipeline_job(ctx, c, n, goldens, codes) for c, n in CLI_SHAPES]
    return (lambda rng: jobs), errors


def cli_after(ctx: Context, state) -> list[str]:
    """Interpreter start with and without `import splitauth`, five each."""
    errors = []
    for _ in range(5):
        for name, code in (("cli.bare-interpreter", "pass"), ("cli.import", "import splitauth")):
            proc = ctx.tracer.call(
                name,
                "import",
                subprocess.run,
                [sys.executable, "-c", code],
                env=_env(ctx),
                capture_output=True,
                timeout=JOB_CAP_S,
            )
            errors += compare(f"{name} exit", proc.returncode, 0)
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cyclic-uniform", 6, cyclic_setup, cyclic_jobs, cyclic_after),
        Workload("relabeled", 3, relabeled_setup, relabeled_jobs),
        Workload("build", 4, build_setup, build_jobs),
        Workload("cli-pipeline", 11, cli_setup, cli_jobs, cli_after),
    )
}
