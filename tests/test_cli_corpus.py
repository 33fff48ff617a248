"""The CLI contract as a corpus: every case under ``golden/cli/`` is
replayed in-process through ``main`` and must match byte for byte.

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
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from splitauth.cli import main

CORPUS = Path(__file__).parent / "golden" / "cli"
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


def replay(case: Path) -> tuple[str, str, int, dict[str, bytes]]:
    """Stdout, stderr, exit code and the working directory's files after
    running ``case`` through ``main``."""
    argv = shlex.split((case / "cmd").read_text())
    stdin = case / "stdin"
    stdout, stderr = io.StringIO(), io.StringIO()
    here, saved_stdin = os.getcwd(), sys.stdin
    with tempfile.TemporaryDirectory() as work:
        for name, data in _inputs(case).items():
            (Path(work) / name).write_bytes(data)
        os.chdir(work)
        sys.stdin = io.StringIO(stdin.read_text() if stdin.exists() else "")
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                rc = main(argv)
        finally:
            os.chdir(here)
            sys.stdin = saved_stdin
        return stdout.getvalue(), stderr.getvalue(), rc, _files(Path(work))


def _expected(case: Path) -> tuple[str, str, int, dict[str, bytes]]:
    after = case / "after"
    files = _inputs(case)
    if after.is_dir():
        files.update(_files(after))
    return (
        (case / "stdout").read_bytes().decode(),
        (case / "stderr").read_bytes().decode(),
        int((case / "exit").read_text()),
        dict(sorted(files.items())),
    )


CASES = sorted(path.name for path in CORPUS.iterdir() if path.is_dir())


def test_corpus_is_not_empty():
    assert len(CASES) >= 30


@pytest.mark.parametrize("name", CASES)
def test_case(name):
    case = CORPUS / name
    stdout, stderr, rc, files = replay(case)
    expected_stdout, expected_stderr, expected_rc, expected_files = _expected(case)
    assert stdout == expected_stdout
    assert stderr == expected_stderr
    assert rc == expected_rc
    assert files == expected_files


def _record(case: Path) -> None:
    """Write ``case``'s expectations from what the code does now."""
    stdout, stderr, rc, files = replay(case)
    (case / "stdout").write_bytes(stdout.encode())
    (case / "stderr").write_bytes(stderr.encode())
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
