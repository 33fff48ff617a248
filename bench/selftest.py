"""Self-test of the benchmark's checks: a wrong expectation must count as
a failed job, and the right one must not.

    python3 bench/selftest.py

Runs each kind of job the workloads time, on small shapes, once with the
true expectation and once with a deliberately wrong one (P_d1 off by
1/v, a wrong P_d0 for a weighted code, a wrong witness, a changed demo
golden, a job that raises).  It also holds the weighted-code formulas of
``expect.py`` to the program's exhaustive engine on a few shapes.  Exits
0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import sys
from fractions import Fraction

from run import ROOT, RESULTS, import_program


def main() -> int:
    import_program()
    import expect
    from harness import Job, Tracer, run_rounds
    from workloads import Context, pipeline_job, reject_job, relabel, security_job

    from splitauth import SplittingDesign, analyze, develop_cyclic, family_u2

    def failures(job: Job) -> int:
        results, _ = run_rounds(lambda rng: [job], 1, random.Random(0), Tracer(False), 60)
        return sum(1 for r in results if r.errors)

    cases: list[tuple[str, Job, int]] = []
    rng = random.Random("selftest")

    design = develop_cyclic(family_u2(2, 2))
    code = relabel(rng, design, weighted=False, tracer=Tracer(False))
    right = expect.uniform_claims(2, 2)
    wrong = dataclasses.replace(right, pd1=right.pd1 + Fraction(1, right.v))
    cases += [
        ("uniform code, true claims", security_job("u", code, right), 0),
        ("uniform code, P_d1 + 1/v", security_job("u", code, wrong), 1),
    ]

    weighted = relabel(rng, design, weighted=True, tracer=Tracer(False))
    right_w = expect.weighted_claims(
        weighted.rules, weighted.v, weighted.key_dist, weighted.source_dist, weighted.split_dist
    )
    wrong_w = dataclasses.replace(right_w, pd0=right_w.pd0 - Fraction(1, right_w.v))
    cases += [
        ("weighted code, true claims", security_job("w", weighted, right_w), 0),
        ("weighted code, P_d0 - 1/v", security_job("w", weighted, wrong_w), 1),
    ]

    k = design.v + 3
    damaged = SplittingDesign(v=design.v, blocks=design.blocks[:k] + design.blocks[k + 1 :])
    witness = expect.dropped_block_witness(design.blocks[k], design.v)
    (a, b), count, ref = witness
    cases += [
        ("dropped block, true witness", reject_job("r", damaged, witness), 0),
        ("dropped block, witness moved", reject_job("r", damaged, ((a, b + 1), count, ref)), 1),
    ]

    def crash(tr, job):
        raise RuntimeError("boom")

    cases.append(("job that raises", Job("x", crash, lambda out: []), 1))

    ctx = Context(ROOT, 0, Tracer(False), RESULTS / "work-selftest")
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    golden = ROOT / "tests" / "golden"
    goldens = {w: (golden / f"demo_{w}.txt").read_bytes() for w in ("table1", "table2")}
    bad_goldens = dict(goldens, table2=goldens["table2"].replace(b"PASS", b"PASS "))
    cases += [
        ("cli pipeline, true goldens", pipeline_job(ctx, 2, 1, goldens, {}), 0),
        ("cli pipeline, changed golden", pipeline_job(ctx, 2, 1, bad_goldens, {}), 1),
    ]

    ok = True
    try:
        for label, job, want in cases:
            got = failures(job)
            status = "ok" if got == want else "WRONG"
            ok &= got == want
            print(f"{status:5s} {label}: {got} failed, expected {want}")
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)

    for c, n in ((1, 2), (2, 1), (2, 3), (3, 1)):
        rng = random.Random(f"engine:{c}:{n}")
        w = relabel(rng, develop_cyclic(family_u2(c, n)), True, Tracer(False))
        cl = expect.weighted_claims(w.rules, w.v, w.key_dist, w.source_dist, w.split_dist)
        rep = analyze(w, i_max=1)
        same = (rep.deception[0], rep.deception[1], rep.level, rep.optimal, rep.secrecy_ok) == (
            cl.pd0, cl.pd1, cl.level, cl.optimal, cl.secrecy
        )
        ok &= same
        status = "ok" if same else "WRONG"
        print(f"{status:5s} weighted formulas vs engine on c={c} n={n} (v={w.v})")
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
