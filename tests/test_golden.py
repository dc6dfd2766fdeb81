"""Golden outputs of the CLI's ``--json`` mode over the committed files.

For every file in ``instances/`` the test runs ``validate --json``,
``rgroup --oracle --json`` and ``explain --json`` in process and compares
the exit code and standard output byte for byte with the files in
``tests/golden/``.  The unitary edge cases in ``tests/edge_instances/``
are pinned the same way against ``tests/edge_golden/``; they live apart
from ``instances/`` because the benchmark reads that directory.
Regenerate both sets, after a deliberate change of output, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from rgroups.cli import main

TESTS = Path(__file__).resolve().parent
CORPUS = TESTS.parent / "instances"
GOLDEN = TESTS / "golden"
EDGE = TESTS / "edge_instances"
EDGE_GOLDEN = TESTS / "edge_golden"
COMMANDS = {
    "validate": ["validate", "--json"],
    "rgroup": ["rgroup", "--oracle", "--json"],
    "explain": ["explain", "--json"],
}


def _cases(corpus: Path) -> list[tuple[str, str]]:
    return [(path.name, cmd) for path in sorted(corpus.glob("*.json")) for cmd in COMMANDS]


CASES = _cases(CORPUS)
EDGE_CASES = _cases(EDGE)


def _run(corpus: Path, name: str, cmd: str) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([*COMMANDS[cmd], str(corpus / name)])
    return code, out.getvalue()


def _stem(name: str, cmd: str) -> str:
    return f"{Path(name).stem}.{cmd}"


def _check(corpus: Path, golden: Path, name: str, cmd: str) -> None:
    code, stdout = _run(corpus, name, cmd)
    stem = _stem(name, cmd)
    assert code == json.loads((golden / "exit_codes.json").read_text())[stem]
    assert stdout == (golden / f"{stem}.out").read_text()


@pytest.mark.parametrize("name,cmd", CASES)
def test_json_output_matches_golden(name, cmd):
    _check(CORPUS, GOLDEN, name, cmd)


@pytest.mark.parametrize("name,cmd", EDGE_CASES)
def test_edge_json_output_matches_golden(name, cmd):
    _check(EDGE, EDGE_GOLDEN, name, cmd)


def _regenerate(corpus: Path, golden: Path) -> None:
    golden.mkdir(exist_ok=True)
    codes = {}
    for name, cmd in _cases(corpus):
        codes[_stem(name, cmd)], stdout = _run(corpus, name, cmd)
        (golden / f"{_stem(name, cmd)}.out").write_text(stdout)
    (golden / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate(CORPUS, GOLDEN)
    _regenerate(EDGE, EDGE_GOLDEN)
