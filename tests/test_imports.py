"""Which modules a `splitauth` process loads, and which names the package
exports.  Each subcommand imports only what it runs, `import splitauth`
loads no submodule until a name is used, and the exported names are the
pipeline's.  The load tests read `sys.modules` in a fresh interpreter;
nothing here is timed.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splitauth
from splitauth.cli import main

PROBE = """
import sys
before = set(sys.modules)
{body}
print(sorted(set(sys.modules) - before))
"""

SOURCE = str(Path(splitauth.__file__).resolve().parents[1])
NEVER = {"dataclasses", "inspect"}
CODE_AND_SECURITY = {
    "splitauth.acode",
    "splitauth.security",
    "splitauth.verify",
    "fractions",
}


def loaded_by(body: str, cwd) -> set[str]:
    """Modules that running ``body`` adds to a fresh interpreter's."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=SOURCE),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def run_main(argv: list[str]) -> str:
    return f"from splitauth.cli import main\nassert main({argv!r}) == 0"


@pytest.fixture()
def artifacts(tmp_path, capsys):
    family, code = tmp_path / "family.json", tmp_path / "code.json"
    assert main(["gen-family", "2", "1", "-o", str(family)]) == 0
    assert main(["to-code", str(family), "-o", str(code)]) == 0
    capsys.readouterr()
    return tmp_path


def test_import_splitauth_loads_no_submodule(tmp_path):
    modules = loaded_by("import splitauth", tmp_path)
    assert "splitauth" in modules
    assert not {m for m in modules if m.startswith("splitauth.")}


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-family", "2", "1", "-o", "out.json"],
        ["develop", "family.json", "-o", "out.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_family_commands_load_no_code_or_security(artifacts, argv):
    modules = loaded_by(run_main(argv), artifacts)
    assert (artifacts / "out.json").exists()
    assert "splitauth.construct" in modules
    assert not modules & (CODE_AND_SECURITY | NEVER)


def test_verify_loads_no_code_security_or_rationals(artifacts):
    modules = loaded_by(run_main(["verify", "family.json", "-o", "out.txt"]), artifacts)
    assert (artifacts / "out.txt").read_text() == "2-(9,9,4=2×2,1), λ=1\n"
    assert "splitauth.verify" in modules
    unused = {"fractions", "decimal", "splitauth.acode", "splitauth.security"}
    assert not modules & (unused | NEVER)


def test_analyze_loads_no_csv(artifacts):
    argv = ["analyze", "code.json", "-o", "report.txt"]
    modules = loaded_by(run_main(argv), artifacts)
    assert (artifacts / "report.txt").read_text().endswith("PASS\n")
    assert "splitauth.security" in modules
    assert not modules & ({"csv"} | NEVER)


def test_exported_names_are_the_pipeline():
    assert sorted(splitauth.__all__) == [
        "BaseBlockFamily", "Block", "DesignParams", "Part", "PosteriorTable",
        "SecurityReport", "SplittingACode", "SplittingDesign", "VerificationResult",
        "analyze", "code_from_design", "deception_bound", "deception_probability",
        "develop_cyclic", "family_u2", "orbit_of", "perfect_secrecy_check",
        "rule_count_floor", "rule_defects", "translate_block", "verify_design",
    ]


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from splitauth import *", namespace)
    assert set(splitauth.__all__) <= namespace.keys()
    assert set(splitauth.__all__) <= set(dir(splitauth))
    for name in splitauth.__all__:
        assert namespace[name] is getattr(splitauth, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        splitauth.no_such_name  # noqa: B018
