"""Acceptance gate: the end-to-end claims the package must satisfy.

Each test class matches one shipping criterion, from byte-identical
demo output through exhaustive security verification to property-based
robustness.  Everything is exact rational arithmetic; there are no
tolerances anywhere.
"""

from __future__ import annotations

import io
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

import reference
from splitauth import (
    DesignParams,
    SplittingACode,
    SplittingDesign,
    analyze,
    code_from_design,
    deception_bound,
    deception_probability,
    develop_cyclic,
    family_u2,
    perfect_secrecy_check,
    rule_count_floor,
    rule_defects,
    verify_design,
)
from conftest import TABLE1_RULES, TABLE2_RULES

GOLDEN = Path(__file__).parent / "golden"


def run_demo(which: str) -> tuple[bytes, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "splitauth", "demo", which],
        capture_output=True,
        check=True,
    )
    return proc.stdout, time.perf_counter() - start


class TestGoldenTable1:
    """Criterion 1: the 9-rule demo is byte-identical to its fixture."""

    def test_demo_output(self):
        out, elapsed = run_demo("table1")
        assert out == (GOLDEN / "demo_table1.txt").read_bytes()
        assert elapsed < 1.0

    def test_matrix_cells(self):
        out, _ = run_demo("table1")
        lines = out.decode().splitlines()
        assert lines[0] == "e₁ {1,2} {3,5}"
        assert lines[5] == "e₆ {6,7} {8,1}"
        assert lines[6] == "e₇ {7,8} {9,2}"
        assert lines[8] == "e₉ {9,1} {2,4}"


class TestGoldenTable2:
    """Criterion 2: all 34 rules, with the orbit boundary after rule 17."""

    def test_demo_output(self):
        out, elapsed = run_demo("table2")
        assert out == (GOLDEN / "demo_table2.txt").read_bytes()
        assert elapsed < 1.0

    def test_matrix_cells(self):
        out, _ = run_demo("table2")
        lines = out.decode().split("\n\n")[0].splitlines()
        assert len([l for l in lines if l.startswith("e")]) == 34
        assert lines[16] == "e₁₇ {17,1} {2,4}"
        assert lines[17] == "---"
        assert lines[33] == "e₃₃ {16,17} {9,11}"
        assert lines[34] == "e₃₄ {17,1} {10,12}"


class TestVerification:
    """Criterion 3: both reference matrices verify exhaustively."""

    def test_table1_design(self):
        start = time.perf_counter()
        result = verify_design(SplittingDesign(v=9, blocks=TABLE1_RULES), 2)
        assert time.perf_counter() - start < 1.0
        assert result.ok
        assert result.params == DesignParams(t=2, v=9, b=9, c=2, u=2, lam=1)
        assert str(result.params) == "2-(9,9,4=2×2,1)"

    def test_table2_design(self):
        start = time.perf_counter()
        result = verify_design(SplittingDesign(v=17, blocks=TABLE2_RULES), 2)
        assert time.perf_counter() - start < 1.0
        assert result.ok
        assert result.params == DesignParams(t=2, v=17, b=34, c=2, u=2, lam=1)
        assert str(result.params) == "2-(17,34,4=2×2,1)"


class TestExactSecurity:
    """Criterion 4: deception probabilities hit their floors exactly."""

    def test_table1_code(self, table1_code):
        assert deception_probability(table1_code, 0) == Fraction(4, 9)
        assert deception_probability(table1_code, 1) == Fraction(1, 4)
        assert deception_bound(table1_code, 0) == Fraction(4, 9)
        assert deception_bound(table1_code, 1) == Fraction(1, 4)
        assert analyze(table1_code, i_max=1).level == 1

    def test_table2_code(self, table2_code):
        assert deception_probability(table2_code, 0) == Fraction(4, 17)
        assert deception_probability(table2_code, 1) == Fraction(1, 8)
        assert deception_bound(table2_code, 0) == Fraction(4, 17)
        assert deception_bound(table2_code, 1) == Fraction(1, 8)
        assert analyze(table2_code, i_max=1).level == 1


class TestOptimality:
    """Criterion 5: rule counts meet the floor with equality."""

    def test_floors(self, table1_code, table2_code):
        assert rule_count_floor(table1_code, 2) == Fraction(36, 4) == 9
        assert rule_count_floor(table2_code, 2) == Fraction(136, 4) == 34

    def test_equality(self, table1_code, table2_code):
        assert analyze(table1_code, i_max=1).optimal is True
        assert analyze(table2_code, i_max=1).optimal is True


class TestPerfectSecrecy:
    """Criterion 6: every posterior equals the uniform prior exactly."""

    def test_all_posteriors(self, table1_code, table2_code):
        for code in (table1_code, table2_code):
            table = perfect_secrecy_check(code)
            assert table.ok
            assert len(table.entries) == 2 * code.v
            assert all(p == Fraction(1, 2) for p in table.entries.values())


class TestFamilySuite:
    """Criterion 7: nine end-to-end parametric cases, all exact."""

    def test_all_cases(self):
        start = time.perf_counter()
        for c, n in product((1, 2, 3), (1, 2, 3)):
            v = 2 * c * c * n + 1
            design = develop_cyclic(family_u2(c, n))
            assert design.orbit_lengths == (v,) * n
            result = verify_design(design, 2)
            assert result.ok
            assert result.params == DesignParams(
                t=2, v=v, b=v * n, c=c, u=2, lam=1
            )
            code = code_from_design(design)
            assert deception_probability(code, 0) == Fraction(2 * c, v)
            assert deception_probability(code, 1) == Fraction(c, 2 * c * c * n)
            assert deception_bound(code, 0) == Fraction(2 * c, v)
            assert deception_bound(code, 1) == Fraction(c, 2 * c * c * n)
            assert analyze(code, i_max=1).optimal is True
            assert perfect_secrecy_check(code).ok
        assert time.perf_counter() - start < 30.0


def _relabel_points(rules, v, rng):
    perm = list(range(1, v + 1))
    rng.shuffle(perm)
    mapping = {m: perm[m - 1] for m in range(1, v + 1)}
    return tuple(
        tuple(tuple(mapping[m] for m in cell) for cell in rule) for rule in rules
    )


def _swap_cells(rules, v, rng):
    """Swap two cells (possibly across rules), keeping rules disjoint."""
    grid = [list(rule) for rule in rules]
    for _ in range(20):
        e1, e2 = rng.randrange(len(grid)), rng.randrange(len(grid))
        s1, s2 = rng.randrange(2), rng.randrange(2)
        grid[e1][s1], grid[e2][s2] = grid[e2][s2], grid[e1][s1]
        candidate = tuple(tuple(rule) for rule in grid)
        if not rule_defects(candidate, v):
            return candidate
        grid[e1][s1], grid[e2][s2] = grid[e2][s2], grid[e1][s1]
    return tuple(tuple(rule) for rule in grid)


def _random_dist(n, rng):
    weights = [rng.randint(1, 6) for _ in range(n)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def _random_code(base_rules, v, rng):
    rules = base_rules
    for _ in range(rng.randrange(3)):
        if rng.random() < 0.5:
            rules = _relabel_points(rules, v, rng)
        else:
            rules = _swap_cells(rules, v, rng)
    split = tuple(
        tuple(_random_dist(len(cell), rng) for cell in rule) for rule in rules
    )
    return SplittingACode(
        u=2,
        v=v,
        rules=rules,
        key_dist=_random_dist(len(rules), rng),
        source_dist=_random_dist(2, rng),
        split_dist=split,
    )


def _single_point_mutations(rules, v):
    for e, rule in enumerate(rules):
        for s, cell in enumerate(rule):
            for k, original in enumerate(cell):
                for x in range(1, v + 1):
                    if x == original:
                        continue
                    new_cell = list(cell)
                    new_cell[k] = x
                    new_rule = list(rule)
                    new_rule[s] = tuple(new_cell)
                    mutated = list(rules)
                    mutated[e] = tuple(new_rule)
                    yield tuple(mutated)


def _violated_property(rules, v):
    """The first check a damaged rule set trips, or None."""
    if rule_defects(rules, v):
        return "structure"
    result = verify_design(SplittingDesign(v=v, blocks=rules), 2)
    if not result.ok or result.params is None or result.params.lam != 1:
        return "uniformity"
    code = SplittingACode(u=2, v=v, rules=rules)
    for i in (0, 1):
        if deception_probability(code, i) != deception_bound(code, i):
            return "deception"
    if not perfect_secrecy_check(code).ok:
        return "secrecy"
    return None


class TestBoundUniversality:
    """Criterion 8: the floor is never beaten, and no single-point damage
    to a reference code goes unnoticed."""

    def test_random_mutations_respect_floor(self):
        rng = random.Random(20260816)
        cases = 0
        for base_rules, v, count in (
            (TABLE1_RULES, 9, 120),
            (TABLE2_RULES, 17, 90),
        ):
            for _ in range(count):
                code = _random_code(base_rules, v, rng)
                for i in (0, 1):
                    assert deception_probability(code, i) >= deception_bound(
                        code, i
                    )
                cases += 1
        assert cases >= 200

    @pytest.mark.parametrize(
        "rules,v", [(TABLE1_RULES, 9), (TABLE2_RULES, 17)], ids=["t1", "t2"]
    )
    def test_every_single_point_mutation_is_caught(self, rules, v):
        checked = 0
        for mutated in _single_point_mutations(rules, v):
            assert _violated_property(mutated, v) is not None
            checked += 1
        assert checked == len(rules) * 2 * 2 * (v - 1)

    def test_undamaged_codes_pass_all_checks(self):
        assert _violated_property(TABLE1_RULES, 9) is None
        assert _violated_property(TABLE2_RULES, 17) is None


class TestCrossChecks:
    """Criterion 9: counting identities hold on every verified design."""

    def all_designs(self):
        """Each design with the strength it verifies at."""
        yield SplittingDesign(v=9, blocks=TABLE1_RULES), 2
        yield SplittingDesign(v=17, blocks=TABLE2_RULES), 2
        for c, n in product((1, 2, 3), (1, 2, 3)):
            yield develop_cyclic(family_u2(c, n)), 2
        # every way to pick three disjoint pairs: 3-(6,15,6=2×3,6), 3-(7,105,6=2×3,24)
        for v in (6, 7):
            blocks = {
                tuple(sorted(tuple(sorted(p[k : k + 2])) for k in (0, 2, 4)))
                for p in permutations(range(1, v + 1), 6)
            }
            yield SplittingDesign(v=v, blocks=tuple(sorted(blocks))), 3

    def test_level_counts_match_brute_force(self):
        for design, t in self.all_designs():
            params = verify_design(design, t).params
            assert params is not None
            for s in range(1, t + 1):
                expected = reference.lambda_level(params, s)
                counts = Counter()
                for block in design.blocks:
                    counts.update(reference.covered_subsets(block, s))
                subsets = list(combinations(range(1, design.v + 1), s))
                assert set(counts) == set(subsets)
                assert all(counts[subset] == expected for subset in subsets)

    def test_admissibility_of_verified_parameters(self):
        for design, t in self.all_designs():
            params = verify_design(design, t).params
            assert params is not None
            v, b, c, u, lam = params.v, params.b, params.c, params.u, params.lam
            levels = [reference.lambda_level(params, s) for s in range(1, t + 1)]
            r, lam2 = levels[0], levels[1]
            assert b * params.l == v * r  # replication
            assert math.comb(v, t) * lam == b * c**t * math.comb(u, t)  # coverage
            # the pairs through one point, counted by block and by partner
            assert r * (u - 1) * c == lam2 * (v - 1)
            assert all(level.denominator == 1 for level in levels)
            assert b * u >= v  # Fisher's bound


class TestBenchmarkSelftest:
    """The benchmark's own expectations hold on this program."""

    def test_selftest_passes(self):
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "bench/selftest.py"],
            cwd=root,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "selftest passed" in proc.stdout


class TestReadmeLibraryExample:
    """README's Library example prints what the comments beside its
    ``print`` calls say."""

    def test_prints_match_comments(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        said = [
            line.split("#", 1)[1].strip()
            for line in block.splitlines()
            if line.startswith("print(")
        ]
        out = io.StringIO()
        with redirect_stdout(out):
            exec(block, {})
        assert len(said) == 3
        assert out.getvalue().splitlines() == said
