from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from splitauth.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv, capsys, monkeypatch=None, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture()
def table2_files(tmp_path, capsys):
    """family -> design -> code JSON files for the 17-point reference."""
    fam = tmp_path / "family.json"
    design = tmp_path / "design.json"
    code = tmp_path / "code.json"
    assert main(["gen-family", "2", "2", "-o", str(fam)]) == 0
    assert main(["develop", str(fam), "-o", str(design)]) == 0
    assert main(["to-code", str(design), "-o", str(code)]) == 0
    capsys.readouterr()
    return fam, design, code


@pytest.fixture()
def table1_code_file(tmp_path, capsys):
    fam = tmp_path / "family1.json"
    code = tmp_path / "code1.json"
    assert main(["gen-family", "2", "1", "-o", str(fam)]) == 0
    assert main(["to-code", str(fam), "-o", str(code)]) == 0
    capsys.readouterr()
    return code


class TestGenFamily:
    def test_reference_family(self, capsys):
        rc, out, _ = run_cli(["gen-family", "2", "1"], capsys)
        assert rc == 0
        assert json.loads(out) == {
            "v": 9,
            "u": 2,
            "c": 2,
            "base_blocks": [[[1, 2], [3, 5]]],
        }

    def test_two_base_blocks(self, capsys):
        rc, out, _ = run_cli(["gen-family", "2", "2"], capsys)
        assert rc == 0
        obj = json.loads(out)
        assert obj["v"] == 17
        assert obj["base_blocks"] == [[[1, 2], [3, 5]], [[1, 2], [11, 13]]]

    def test_smallest_family(self, capsys):
        rc, out, _ = run_cli(["gen-family", "1", "1"], capsys)
        assert rc == 0
        obj = json.loads(out)
        assert obj["v"] == 3
        assert obj["base_blocks"] == [[[1], [2]]]

    def test_rejects_nonpositive(self, capsys):
        rc, out, err = run_cli(["gen-family", "0", "1"], capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")

    def test_writes_file(self, tmp_path, capsys):
        target = tmp_path / "family.json"
        rc, out, _ = run_cli(["gen-family", "2", "1", "-o", str(target)], capsys)
        assert rc == 0
        assert out == ""
        assert json.loads(target.read_text())["v"] == 9


class TestDevelop:
    def test_reference_design(self, tmp_path, capsys):
        fam = tmp_path / "family.json"
        main(["gen-family", "2", "1", "-o", str(fam)])
        capsys.readouterr()
        rc, out, err = run_cli(["develop", str(fam)], capsys)
        assert rc == 0
        obj = json.loads(out)
        assert obj["v"] == 9
        assert obj["t"] == 2
        assert len(obj["blocks"]) == 9
        assert obj["blocks"][0] == [[1, 2], [3, 5]]
        assert obj["blocks"][8] == [[9, 1], [2, 4]]
        assert obj["orbit_lengths"] == [9]
        assert "orbit of base block 1: length 9 (full)" in err

    def test_two_orbits(self, tmp_path, capsys):
        fam = tmp_path / "family.json"
        main(["gen-family", "2", "2", "-o", str(fam)])
        capsys.readouterr()
        rc, out, err = run_cli(["develop", str(fam)], capsys)
        assert rc == 0
        obj = json.loads(out)
        assert len(obj["blocks"]) == 34
        assert obj["orbit_lengths"] == [17, 17]
        assert "orbit of base block 2: length 17 (full)" in err

    @pytest.mark.parametrize("n", [1, 2])
    def test_design_json_round_trip(self, n, tmp_path, capsys):
        from splitauth import develop_cyclic, family_u2
        from splitauth.cli import _load, _load_design

        fam, target = tmp_path / "family.json", tmp_path / "design.json"
        assert main(["gen-family", "2", str(n), "-o", str(fam)]) == 0
        assert main(["develop", str(fam), "-o", str(target)]) == 0
        design = _load(str(target), _load_design)
        assert design.orbit_lengths == (design.v,) * n
        assert design == develop_cyclic(family_u2(2, n))

    def test_empty_family(self, tmp_path, capsys):
        # v = 1 is a valid family size; its design has no blocks to verify
        fam, target = tmp_path / "family.json", tmp_path / "design.json"
        fam.write_text('{"v": 1, "u": 1, "c": 1, "base_blocks": []}')
        rc, out, err = run_cli(["develop", str(fam)], capsys)
        assert (rc, out, err) == (0, '{"v": 1, "t": 2, "blocks": []}\n', "")
        target.write_text(out)
        for source in (fam, target):
            rc, out, _ = run_cli(["verify", str(source)], capsys)
            assert (rc, out) == (1, "defect: design has no blocks\nFAIL\n")

    def test_reads_stdin(self, capsys, monkeypatch):
        _, family_json, _ = run_cli(["gen-family", "2", "1"], capsys)
        rc, out, _ = run_cli(
            ["develop", "-"], capsys, monkeypatch, stdin=family_json
        )
        assert rc == 0
        assert len(json.loads(out)["blocks"]) == 9

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, _, err = run_cli(["develop", str(bad)], capsys)
        assert rc == 2
        assert "invalid JSON" in err

    def test_bad_family_shape(self, tmp_path, capsys):
        bad = tmp_path / "family.json"
        bad.write_text(
            json.dumps({"v": 9, "u": 2, "c": 2, "base_blocks": [[[1, 2], [2, 5]]]})
        )
        rc, _, err = run_cli(["develop", str(bad)], capsys)
        assert rc == 2
        assert err == f"error: {bad}: base block 1 repeats point 2\n"

    def test_missing_field(self, tmp_path, capsys):
        bad = tmp_path / "family.json"
        bad.write_text(json.dumps({"v": 9, "u": 2, "base_blocks": []}))
        rc, _, err = run_cli(["develop", str(bad)], capsys)
        assert rc == 2
        assert "'c'" in err

    def test_missing_file(self, capsys):
        rc, _, err = run_cli(["develop", "/nonexistent/family.json"], capsys)
        assert rc == 2
        assert "cannot read" in err


class TestHelp:
    """`--help` at the top level and for each subcommand, byte for byte.
    argparse lays help out differently from one Python minor version to
    the next, so the goldens hold for the version that rendered them."""

    COMMANDS = ["gen-family", "develop", "verify", "to-code", "analyze", "export", "demo"]

    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11),
        reason="help goldens are argparse's layout on Python 3.11",
    )
    @pytest.mark.parametrize("command", [None, *COMMANDS], ids=lambda c: c or "splitauth")
    def test_matches_golden(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"] if command else ["--help"])
        assert stop.value.code == 0
        golden = GOLDEN / "help" / f"{command or 'splitauth'}.txt"
        assert capsys.readouterr().out == golden.read_text()


class TestVerifyCommand:
    def test_pipeline_pass(self, table2_files, capsys):
        _, design, _ = table2_files
        rc, out, _ = run_cli(["verify", str(design)], capsys)
        assert rc == 0
        assert out == "2-(17,34,4=2×2,1), λ=1\n"

    def test_verify_family_directly(self, table2_files, capsys):
        fam, _, _ = table2_files
        rc, out, _ = run_cli(["verify", str(fam)], capsys)
        assert rc == 0
        assert out == "2-(17,34,4=2×2,1), λ=1\n"

    def test_strength_flag(self, table2_files, capsys):
        _, design, _ = table2_files
        rc, out, _ = run_cli(["verify", str(design), "-t", "1"], capsys)
        assert rc == 0
        assert out == "1-(17,34,4=2×2,8), λ=8\n"

    def test_declared_strength_used(self, tmp_path, capsys):
        # build the design file via the pipeline, then lower its declared t
        fam = tmp_path / "family.json"
        main(["gen-family", "2", "1", "-o", str(fam)])
        capsys.readouterr()
        _, out, _ = run_cli(["develop", str(fam)], capsys)
        design = json.loads(out)
        design["t"] = 1
        target = tmp_path / "design.json"
        target.write_text(json.dumps(design))
        rc, out, _ = run_cli(["verify", str(target)], capsys)
        assert rc == 0
        assert out == "1-(9,9,4=2×2,4), λ=4\n"

    def test_broken_design_fails(self, table2_files, tmp_path, capsys):
        _, design, _ = table2_files
        obj = json.loads(design.read_text())
        obj["blocks"][4] = [[5, 6], [7, 8]]
        target = tmp_path / "broken.json"
        target.write_text(json.dumps(obj))
        rc, out, _ = run_cli(["verify", str(target)], capsys)
        assert rc == 1
        assert out.startswith("defect: ")
        assert "is covered" in out
        assert out.rstrip("\n").endswith("FAIL")

    def test_strength_above_parts(self, table2_files, capsys):
        _, design, _ = table2_files
        rc, _, err = run_cli(["verify", str(design), "-t", "3"], capsys)
        assert rc == 2
        assert "exceeds" in err


class TestToCode:
    def test_reference_code(self, table2_files):
        _, _, code = table2_files
        obj = json.loads(code.read_text())
        assert obj["u"] == 2
        assert obj["v"] == 17
        assert len(obj["rules"]) == 34
        assert obj["rules"][0] == [[1, 2], [3, 5]]
        assert obj["rules"][33] == [[17, 1], [10, 12]]
        assert obj["key_dist"] == ["1/34"] * 34
        assert obj["source_dist"] == ["1/2", "1/2"]
        assert "split_dist" not in obj

    def test_family_input(self, capsys, monkeypatch):
        _, family_json, _ = run_cli(["gen-family", "1", "1"], capsys)
        rc, out, _ = run_cli(
            ["to-code", "-"], capsys, monkeypatch, stdin=family_json
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["v"] == 3
        assert obj["rules"] == [[[1], [2]], [[2], [3]], [[3], [1]]]

    def test_rejects_non_design(self, tmp_path, capsys):
        blocks = [[[1, 2], [3, 5]], [[4, 5], [6, 8]]]
        target = tmp_path / "design.json"
        target.write_text(json.dumps({"v": 9, "blocks": blocks}))
        rc, out, _ = run_cli(["to-code", str(target)], capsys)
        assert rc == 1
        assert "does not verify" in out
        assert out.rstrip("\n").endswith("FAIL")


class TestAnalyzeCommand:
    def test_reference_report(self, table2_files, capsys):
        _, _, code = table2_files
        rc, out, _ = run_cli(["analyze", str(code)], capsys)
        assert rc == 0
        assert out == (
            "rules form a splitting design: 2-(17,34,4=2×2,1), λ=1\n"
            "P_d0 = 4/17 (floor 4/17, met exactly)\n"
            "P_d1 = 1/8 (floor 1/8, met exactly)\n"
            "one-fold secure against spoofing\n"
            "encoding rules: 34, minimum possible: 34, optimal\n"
            "perfect secrecy\n"
            "PASS\n"
        )

    def test_table1_report(self, table1_code_file, capsys):
        rc, out, _ = run_cli(["analyze", str(table1_code_file)], capsys)
        assert rc == 0
        assert "rules form a splitting design: 2-(9,9,4=2×2,1), λ=1" in out
        assert "P_d0 = 4/9 (floor 4/9, met exactly)" in out
        assert "P_d1 = 1/4 (floor 1/4, met exactly)" in out
        assert out.endswith("PASS\n")

    def test_mutated_code_fails_uniformity(
        self, table1_code_file, tmp_path, capsys
    ):
        obj = json.loads(table1_code_file.read_text())
        obj["rules"][0] = [[1, 2], [3, 6]]
        target = tmp_path / "mutated.json"
        target.write_text(json.dumps(obj))
        rc, out, _ = run_cli(["analyze", str(target)], capsys)
        assert rc == 1
        assert "λ-uniformity: FAIL" in out
        assert out.endswith("FAIL\n")

    def test_structural_defect_named(self, table1_code_file, tmp_path, capsys):
        obj = json.loads(table1_code_file.read_text())
        obj["rules"][0] = [[1, 2], [2, 5]]
        target = tmp_path / "overlap.json"
        target.write_text(json.dumps(obj))
        rc, out, _ = run_cli(["analyze", str(target)], capsys)
        assert rc == 1
        assert "structure: FAIL (rule 1 repeats message 2)" in out
        assert out.endswith("FAIL\n")

    def test_odd_first_rule_blamed(self, tmp_path, capsys):
        # the code declares u=2, so rule 1 is the odd one, not rules 2 and 3
        target = tmp_path / "odd.json"
        target.write_text(
            '{"u": 2, "v": 9, "rules": [[[1],[2],[3]], [[1],[2]], [[3],[4]]]}'
        )
        rc, out, _ = run_cli(["analyze", str(target)], capsys)
        assert (rc, out) == (1, "structure: FAIL (rule 1 has 3 cells, expected 2)\nFAIL\n")

    def test_orders_zero_wants_tighter_structure(
        self, table1_code_file, capsys
    ):
        rc, out, _ = run_cli(
            ["analyze", str(table1_code_file), "--orders", "0"], capsys
        )
        assert rc == 1
        assert "λ-uniformity: FAIL (index λ=4, need 1)" in out
        assert "zero-fold secure against spoofing" in out
        assert "encoding rules: 9, minimum possible: 9/4, NOT optimal" in out

    def test_orders_out_of_range(self, table1_code_file, capsys):
        rc, _, err = run_cli(
            ["analyze", str(table1_code_file), "--orders", "2"], capsys
        )
        assert rc == 2
        assert "out of range" in err

    def test_orders_past_the_weighted_sources(self, tmp_path):
        # one source of three has positive weight, so no two can be observed
        target = tmp_path / "silent.json"
        target.write_text(
            json.dumps(
                {"u": 3, "v": 3, "rules": [[[1], [2], [3]]], "source_dist": ["0", "0", "1"]}
            )
        )
        proc = subprocess.run(
            [sys.executable, "-m", "splitauth", "analyze", str(target), "--orders", "2"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: no 2-subset of sources has positive probability\n"

    def test_float_weights_rejected(self, table1_code_file, tmp_path, capsys):
        obj = json.loads(table1_code_file.read_text())
        obj["key_dist"] = [1 / 9] * 9
        target = tmp_path / "floats.json"
        target.write_text(json.dumps(obj))
        rc, _, err = run_cli(["analyze", str(target)], capsys)
        assert rc == 2
        assert "not exact" in err

    @pytest.mark.parametrize("field", ["u", "v"])
    def test_nonpositive_sizes_are_malformed(self, field, tmp_path, capsys):
        obj = {"u": 2, "v": 2, "rules": [[[1], [2]]]}
        obj[field] = 0
        target = tmp_path / "empty.json"
        target.write_text(json.dumps(obj))
        rc, out, err = run_cli(["analyze", str(target)], capsys)
        assert rc == 2
        assert out == ""
        assert "u and v must be positive" in err

    def test_bad_distribution_sum(self, table1_code_file, tmp_path, capsys):
        obj = json.loads(table1_code_file.read_text())
        obj["key_dist"] = ["1/9"] * 8 + ["2/9"]
        target = tmp_path / "sums.json"
        target.write_text(json.dumps(obj))
        rc, _, err = run_cli(["analyze", str(target)], capsys)
        assert rc == 2
        assert "sums to" in err

    @pytest.mark.parametrize(
        "entry, shown",
        [
            (True, "True is not a rational"),
            (0.5, '0.5 is not exact; use "p/q" strings, not floats'),
            ([1], '[1] is not exact; use "p/q" strings, not floats'),
            ("1/x", "'1/x' is not a rational"),
            ("1/0", "'1/0' is not a rational"),
        ],
    )
    def test_bad_rational_among_repeats(
        self, entry, shown, table1_code_file, tmp_path, capsys
    ):
        obj = json.loads(table1_code_file.read_text())
        obj["key_dist"] = ["1/9"] * 8 + [entry]
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(obj))
        rc, out, err = run_cli(["analyze", str(target)], capsys)
        assert (rc, out) == (2, "")
        assert err == f"error: {target}: key_dist: {shown}\n"

    def test_integer_and_repeated_weights(self, table1_code_file, tmp_path, capsys):
        obj = json.loads(table1_code_file.read_text())
        obj["key_dist"] = [0, "0", 1] + ["0"] * 6
        obj["source_dist"] = ["1/2", "1/2"]
        target = tmp_path / "ints.json"
        target.write_text(json.dumps(obj))
        rc, out, _ = run_cli(["export", str(target), "-f", "json"], capsys)
        assert rc == 0
        assert json.loads(out)["key_dist"] == ["0", "0", "1"] + ["0"] * 6

    @pytest.mark.parametrize("entry", ["1e1", "1E-2", "1_000", " 1/9", "1/9 ", "+1.5e0"])
    def test_exponents_underscores_and_spaces_rejected(
        self, entry, table1_code_file, tmp_path, capsys
    ):
        obj = json.loads(table1_code_file.read_text())
        obj["key_dist"] = ["1/9"] * 8 + [entry]
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(obj))
        rc, out, err = run_cli(["analyze", str(target)], capsys)
        assert (rc, out) == (2, "")
        assert err == f"error: {target}: key_dist: {entry!r} is not a rational\n"

    @pytest.mark.parametrize("entry", ["-0", "+3/27", "007/63", "0.111", "+0.5"])
    def test_plain_rationals_accepted(self, entry, tmp_path, capsys):
        from fractions import Fraction

        rest = str(1 - Fraction(entry))
        target = tmp_path / "code.json"
        target.write_text(json.dumps(
            {"u": 1, "v": 2, "rules": [[[1]], [[2]]], "key_dist": [entry, rest]}
        ))
        rc, out, _ = run_cli(["export", str(target), "-f", "json"], capsys)
        assert rc == 0
        assert json.loads(out)["key_dist"] == [str(Fraction(entry)), rest]


class TestOverlongIntegers:
    """A JSON integer past Python's digit limit for int() is malformed
    input, not a crash."""

    @pytest.mark.parametrize(
        "command, text",
        [
            ("develop", '{"v": 1%s, "u": 2, "c": 1, "base_blocks": []}'),
            ("analyze", '{"u": 1%s, "v": 9, "rules": []}'),
        ],
        ids=["develop", "analyze"],
    )
    def test_exit_two(self, command, text, tmp_path, capsys):
        target = tmp_path / "big.json"
        target.write_text(text % ("0" * 5000))
        rc, out, err = run_cli([command, str(target)], capsys)
        assert (rc, out) == (2, "")
        assert err == f"error: {target}: an integer literal has more than 4,300 digits\n"


class TestDeepNesting:
    """JSON nested past the decoder's recursion limit is malformed input,
    not a crash."""

    @pytest.mark.parametrize("command", ["develop", "verify", "analyze"])
    def test_exit_two(self, command, tmp_path, capsys):
        target = tmp_path / "deep.json"
        target.write_text("[" * 100_000 + "]" * 100_000)
        rc, out, err = run_cli([command, str(target)], capsys)
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {target}: invalid JSON: maximum recursion depth")
        assert err.count("\n") == 1


class TestShapeCheckedOnce:
    """A command checks the structure of each rule set once, and counts
    its coverage once."""

    @pytest.fixture()
    def counted(self, monkeypatch):
        import splitauth.verify

        sizes = []
        count = splitauth.verify._verify_shaped

        def counting(blocks, *args):
            sizes.append(len(blocks))
            return count(blocks, *args)

        monkeypatch.setattr(splitauth.verify, "_verify_shaped", counting)
        return sizes

    def test_analyze_searches_runs_once(self, table2_files, searched, capsys):
        # the design verdict and the security analysis share the code's runs
        rc, _, _ = run_cli(["analyze", str(table2_files[2])], capsys)
        assert rc == 0
        assert searched == [34]

    @pytest.mark.parametrize("orders", [0, 1])
    def test_analyze_counts_coverage_once(self, orders, table2_files, covered, capsys):
        # one count, for the design verdict only: security makes none
        rc, _, _ = run_cli(["analyze", str(table2_files[2]), "--orders", str(orders)], capsys)
        assert rc == (0 if orders == 1 else 1)
        assert covered == [(8, orders + 1)]  # the 8 of 34 rules through message 1

    def test_analyze_keeps_each_strength(self, covered, tmp_path, capsys, monkeypatch):
        import splitauth.cli
        from splitauth import verify_design

        # {1}|{2}|{4} over Z_7 as rules: index 1 at strength 2, not a 3-design
        target = tmp_path / "code.json"
        rules = [[[j + 1], [(j + 1) % 7 + 1], [(j + 3) % 7 + 1]] for j in range(7)]
        target.write_text(json.dumps({"u": 3, "v": 7, "rules": rules}))
        loaded = []
        load = splitauth.cli._load_code

        def recording(*args):
            loaded.append(load(*args))
            return loaded[-1]

        monkeypatch.setattr(splitauth.cli, "_load_code", recording)
        rc, out, _ = run_cli(["analyze", str(target), "--orders", "2"], capsys)
        assert rc == 1 and out.startswith("λ-uniformity: FAIL (subset (1, 2, 4)")
        # strength 3 for the design line, then 2 for security, each once,
        # over the 3 of 7 rules through message 1
        assert covered == [(3, 3), (3, 2)]
        assert verify_design(loaded[0].design, 3).witness == ((1, 2, 4), 1, 0)
        assert covered == [(3, 3), (3, 2)]

    def test_demo_counts_coverage_once(self, covered, capsys):
        rc, _, _ = run_cli(["demo", "table1"], capsys)
        assert rc == 0
        assert covered == [(4, 2)]

    @pytest.mark.parametrize("command", ["to-code", "analyze"])
    def test_once(self, command, table2_files, checked, counted, capsys):
        _, design, code = table2_files
        source = design if command == "to-code" else code
        rc, _, _ = run_cli([command, str(source)], capsys)
        assert rc == 0
        # the design in developed form by the first blocks of its 2 runs,
        # the code's rules whole when they are loaded
        assert checked == [2 if command == "to-code" else 34]
        assert counted == [34]

    def test_relabeled_design_checked_whole(self, table2_files, checked, counted, capsys):
        _, design, _ = table2_files
        obj = json.loads(design.read_text())
        image = [0, *range(17, 0, -1)]  # x -> 18 - x: a design, but not in developed form
        obj["blocks"] = [[[image[x] for x in part] for part in block] for block in obj["blocks"]]
        design.write_text(json.dumps(obj))
        rc, _, _ = run_cli(["to-code", str(design)], capsys)
        assert rc == 0
        assert checked == [34]
        assert counted == [34]

    def test_defective_run_checked_whole(self, table2_files, checked, capsys):
        _, design, _ = table2_files
        obj = json.loads(design.read_text())
        # every block of the second run repeats a point: the list is still
        # in developed form, and the defects name all 17 blocks
        obj["blocks"][17:] = [[part, part] for part, _ in obj["blocks"][17:]]
        design.write_text(json.dumps(obj))
        rc, out, _ = run_cli(["to-code", str(design)], capsys)
        assert rc == 1
        assert checked == [2, 34]
        assert "block 18 repeats point" in out

    def test_demo(self, checked, counted, capsys):
        rc, _, _ = run_cli(["demo", "table1"], capsys)
        assert rc == 0
        assert checked == [1, 1]  # the family's base block, then the design's run-first block
        assert counted == [9]

    def test_public_constructor_still_checks(self, table1_code, checked):
        SplittingACode = type(table1_code)
        assert SplittingACode(u=2, v=9, rules=table1_code.rules) == table1_code
        assert checked == [9]


class TestExportCommand:
    def test_csv(self, table1_code_file, capsys):
        rc, out, _ = run_cli(["export", str(table1_code_file)], capsys)
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["rule", "s1", "s2"]
        assert rows[1] == ["e1", "{1,2}", "{3,5}"]
        assert rows[9] == ["e9", "{9,1}", "{2,4}"]
        assert len(rows) == 10

    def test_markdown(self, table1_code_file, capsys):
        rc, out, _ = run_cli(
            ["export", str(table1_code_file), "-f", "markdown"], capsys
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "| rule | s₁ | s₂ |"
        assert lines[1] == "| --- | --- | --- |"
        assert lines[2] == "| e₁ | {1,2} | {3,5} |"
        assert len(lines) == 11

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("fmt, suffix", [("csv", "csv"), ("markdown", "md")])
    def test_tables_match_goldens(self, n, fmt, suffix, tmp_path, capsys):
        # Table 2's rows 17 and 34 hold the wrapping cells {17,1}.
        family, code = tmp_path / "family.json", tmp_path / "code.json"
        out = tmp_path / f"table.{suffix}"
        assert main(["gen-family", "2", str(n), "-o", str(family)]) == 0
        assert main(["to-code", str(family), "-o", str(code)]) == 0
        assert main(["export", str(code), "-f", fmt, "-o", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_bytes() == (GOLDEN / f"export_table{n}.{suffix}").read_bytes()

    def test_one_rule_matches_golden(self, capsys, monkeypatch):
        code = '{"u": 2, "v": 9, "rules": [[[1, 2], [3, 5]]]}'
        rc, out, _ = run_cli(["export", "-", "-f", "markdown"], capsys, monkeypatch, code)
        assert rc == 0
        assert out == (GOLDEN / "export_one_rule.md").read_text()

    def test_json_round_trip(self, table1_code_file, capsys):
        rc, out, _ = run_cli(
            ["export", str(table1_code_file), "-f", "json"], capsys
        )
        assert rc == 0
        assert json.loads(out) == json.loads(table1_code_file.read_text())

    def test_split_dist_round_trip(self, table1_code_file, tmp_path, capsys):
        obj = json.loads(table1_code_file.read_text())
        skewed = [["1/2", "1/2"], ["1/2", "1/2"]]
        obj["split_dist"] = [skewed] * 8 + [[["1/4", "3/4"], ["1/2", "1/2"]]]
        target = tmp_path / "weighted.json"
        target.write_text(json.dumps(obj))
        rc, out, _ = run_cli(["export", str(target), "-f", "json"], capsys)
        assert rc == 0
        assert json.loads(out)["split_dist"] == obj["split_dist"]


class TestDemoCommand:
    def test_table1_matches_golden(self, capsys):
        rc, out, _ = run_cli(["demo", "table1"], capsys)
        assert rc == 0
        matrix, _, report = out.partition("\n\n")
        assert matrix + "\n" == (GOLDEN / "table1.txt").read_text()
        assert "P_d0 = 4/9 (floor 4/9, met exactly)" in report
        assert "one-fold secure against spoofing" in report
        assert "encoding rules: 9, minimum possible: 9, optimal" in report
        assert "perfect secrecy" in report
        assert report.endswith("PASS\n")

    def test_table2_matches_golden(self, capsys):
        rc, out, _ = run_cli(["demo", "table2"], capsys)
        assert rc == 0
        matrix, _, report = out.partition("\n\n")
        assert matrix + "\n" == (GOLDEN / "table2.txt").read_text()
        assert "P_d0 = 4/17 (floor 4/17, met exactly)" in report
        assert "P_d1 = 1/8 (floor 1/8, met exactly)" in report
        assert "encoding rules: 34, minimum possible: 34, optimal" in report
        assert report.endswith("PASS\n")


class TestCostBoundedByInput:
    """One block on 200,000 points: the work must follow the one block,
    not the C(v, 2) pairs of the point set."""

    RULE = [[[199999], [200000]]]

    def run_process(self, tmp_path, argv, obj, timeout=5, **kwargs):
        target = tmp_path / "big.json"
        target.write_text(json.dumps(obj))
        return subprocess.run(
            [sys.executable, "-m", "splitauth", *argv, str(target)],
            capture_output=True,
            text=True,
            timeout=timeout,
            **kwargs,
        )

    def test_verify(self, tmp_path):
        proc = self.run_process(
            tmp_path, ["verify"], {"v": 200000, "t": 2, "blocks": self.RULE}
        )
        assert proc.returncode == 1
        assert proc.stdout == (
            "defect: subset (199999, 200000) is covered 1 times, "
            "but (1, 2) is covered 0 times\nFAIL\n"
        )

    def test_exponent_weight(self, tmp_path):
        # Fraction("1e10000000") would build a ten-million-digit integer
        obj = {"u": 1, "v": 1, "rules": [[[1]]], "key_dist": ["1e10000000"]}
        start = time.perf_counter()
        proc = self.run_process(tmp_path, ["analyze"], obj)
        assert time.perf_counter() - start < 1.0
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.endswith(": key_dist: '1e10000000' is not a rational\n")

    def test_out_of_memory(self, tmp_path):
        # analyze still lists every one of the 10**6 messages; with its
        # address space capped at 120 MiB the child runs out of memory
        import resource

        limit = 120 * 2**20

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        obj = {"u": 2, "v": 1000000, "rules": [[[1], [2]]]}
        proc = self.run_process(tmp_path, ["analyze"], obj, timeout=60, preexec_fn=cap)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: out of memory\n"

    def test_analyze(self, tmp_path):
        proc = self.run_process(
            tmp_path, ["analyze"], {"u": 2, "v": 200000, "rules": self.RULE}
        )
        assert proc.returncode == 1
        assert (
            "λ-uniformity: FAIL (subset (199999, 200000) is covered 1 times, "
            "but (1, 2) is covered 0 times)\n"
        ) in proc.stdout
        assert proc.stdout.endswith("FAIL\n")
