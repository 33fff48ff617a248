"""The CLI contract as a corpus: every case under ``golden/cli/`` is
replayed in-process through ``main`` and must match byte for byte.  The
cases of ``PROCESS_CASES`` are replayed once more as child processes of
``python -m splitauth``, so the exit code, stdout and stderr that a
shell sees are held to the same bytes.

A case is one directory:

  cmd      the arguments, split as a shell splits them
  stdin    what standard input reads (optional; empty when absent)
  stdout   expected standard output
  stderr   expected standard error
  exit     expected exit code
  after/   files the run must leave in its working directory (-o)

Every other file in the directory is an input.  A case runs in an empty
working directory that holds only its inputs; afterwards that directory
must hold the inputs, as they were, with the files of ``after/`` written
over them, and nothing else.

To record a new case, or to rewrite a case whose output changes on
purpose, give it ``cmd`` (and any inputs) and run from the repository
root:

    PYTHONPATH=src python3 tests/test_cli_corpus.py CASE...
"""

from __future__ import annotations

import io
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import splitauth
from splitauth.cli import main

CORPUS = Path(__file__).parent / "golden" / "cli"
SOURCE = str(Path(splitauth.__file__).resolve().parents[1])
EXPECTED = ("cmd", "stdin", "stdout", "stderr", "exit", "after")


def _files(directory: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def _inputs(case: Path) -> dict[str, bytes]:
    return {
        name: data for name, data in _files(case).items()
        if name.split(os.sep)[0] not in EXPECTED
    }


def replay(case: Path, process: bool = False) -> tuple[bytes, bytes, int, dict[str, bytes]]:
    """Stdout, stderr, exit code and the working directory's files after
    running ``case`` through ``main``, or through ``python -m splitauth``
    with ``process``."""
    argv = shlex.split((case / "cmd").read_text())
    stdin = (case / "stdin").read_bytes() if (case / "stdin").exists() else b""
    with tempfile.TemporaryDirectory() as work:
        for name, data in _inputs(case).items():
            (Path(work) / name).write_bytes(data)
        if process:
            proc = subprocess.run(
                [sys.executable, "-m", "splitauth", *argv],
                cwd=work,
                input=stdin,
                capture_output=True,
                env=dict(os.environ, PYTHONPATH=SOURCE),
                timeout=60,
            )
            stdout, stderr, rc = proc.stdout, proc.stderr, proc.returncode
        else:
            stdout, stderr, rc = _in_process(argv, stdin.decode(), work)
        return stdout, stderr, rc, _files(Path(work))


def _in_process(argv: list[str], stdin: str, work: str) -> tuple[bytes, bytes, int]:
    out, err = io.StringIO(), io.StringIO()
    here, saved_stdin = os.getcwd(), sys.stdin
    os.chdir(work)
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    finally:
        os.chdir(here)
        sys.stdin = saved_stdin
    return out.getvalue().encode(), err.getvalue().encode(), rc


def _expected(case: Path) -> tuple[bytes, bytes, int, dict[str, bytes]]:
    after = case / "after"
    files = _inputs(case)
    if after.is_dir():
        files.update(_files(after))
    return (
        (case / "stdout").read_bytes(),
        (case / "stderr").read_bytes(),
        int((case / "exit").read_text()),
        dict(sorted(files.items())),
    )


CASES = sorted(path.name for path in CORPUS.iterdir() if path.is_dir())

# One case per subcommand and per exit code, with stdin, -o and strengths
# other than 2 among them.
PROCESS_CASES = (
    "analyze-one-rule-orders-2",
    "analyze-rule-dropped",
    "demo-table1",
    "develop-stdin",
    "error-overflow-analyze",
    "export-csv",
    "gen-family",
    "to-code-design-out",
    "verify-family-strength-1",
    "verify-family-strength-3",
)


def test_corpus_is_not_empty():
    assert len(CASES) >= 30


def _check(case: Path, process: bool = False) -> None:
    stdout, stderr, rc, files = replay(case, process)
    expected_stdout, expected_stderr, expected_rc, expected_files = _expected(case)
    assert stdout == expected_stdout
    assert stderr == expected_stderr
    assert rc == expected_rc
    assert files == expected_files


@pytest.mark.parametrize("name", CASES)
def test_case(name):
    _check(CORPUS / name)


@pytest.mark.parametrize("name", PROCESS_CASES)
def test_process(name):
    _check(CORPUS / name, process=True)


def test_process_cases_cover_every_command_and_exit_code():
    cases = [CORPUS / name for name in PROCESS_CASES]
    commands = {shlex.split((case / "cmd").read_text())[0] for case in cases}
    assert commands == {"gen-family", "develop", "verify", "to-code", "analyze", "export", "demo"}
    assert {int((case / "exit").read_text()) for case in cases} == {0, 1, 2}


def _record(case: Path) -> None:
    """Write ``case``'s expectations from what the code does now."""
    stdout, stderr, rc, files = replay(case)
    (case / "stdout").write_bytes(stdout)
    (case / "stderr").write_bytes(stderr)
    (case / "exit").write_text(f"{rc}\n")
    shutil.rmtree(case / "after", ignore_errors=True)
    inputs = _inputs(case)
    for name, data in files.items():
        if inputs.get(name) != data:
            (case / "after" / name).parent.mkdir(parents=True, exist_ok=True)
            (case / "after" / name).write_bytes(data)


if __name__ == "__main__":
    for name in sys.argv[1:]:
        _record(CORPUS / name)
        print((CORPUS / name / "exit").read_text().strip(), name)
