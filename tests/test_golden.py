"""Golden outputs of the CLI over the committed files.

For every file in ``instances/`` the test runs ``validate``, ``rgroup
--oracle`` and ``explain`` in process, each with and without ``--json``,
and compares the exit code, standard output and standard error byte
for byte with the files in ``tests/golden/``: ``<stem>.<command>.out``
and ``exit_codes.json`` for ``--json``, ``<stem>.<command>.txt`` and
``text_exit_codes.json`` for text, and for both modes ``stderr.json``,
keyed ``<stem>.<command>.<mode>``.  Text output names the file it read,
so every command runs from the repository root on a path relative to it.
The unitary edge cases in ``tests/edge_instances/`` are pinned the same
way against ``tests/edge_golden/``; they live apart from ``instances/``
because the benchmark reads that directory.

Regenerate both sets, after a deliberate change of output, with
``PYTHONPATH=src python tests/test_golden.py``.  Compare them without
pytest, on any interpreter the package supports, with
``PYTHONPATH=src python tests/test_golden.py --check``: it prints each
mismatch and exits 1 if there is one.
"""

import io
import json
import os
import platform
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from rgroups.cli import main

try:
    from pytest import mark
except ModuleNotFoundError:  # `--check` runs where pytest is not installed
    mark = None

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
CORPUS = ROOT / "instances"
GOLDEN = TESTS / "golden"
EDGE = TESTS / "edge_instances"
EDGE_GOLDEN = TESTS / "edge_golden"
COMMANDS = {
    "validate": ["validate"],
    "rgroup": ["rgroup", "--oracle"],
    "explain": ["explain"],
}
# mode -> (flags after the command, golden file suffix, exit-code file)
MODES = {
    "json": (["--json"], ".out", "exit_codes.json"),
    "text": ([], ".txt", "text_exit_codes.json"),
}


def _cases(corpus: Path) -> list[tuple[str, str]]:
    return [(path.name, cmd) for path in sorted(corpus.glob("*.json")) for cmd in COMMANDS]


CASES = _cases(CORPUS)
EDGE_CASES = _cases(EDGE)


def _run(corpus: Path, name: str, cmd: str, mode: str) -> tuple[int, str, str]:
    path = (corpus / name).relative_to(ROOT).as_posix()
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*COMMANDS[cmd], *MODES[mode][0], path])
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def _stem(name: str, cmd: str) -> str:
    return f"{Path(name).stem}.{cmd}"


def _outcome(corpus: Path, golden: Path, name: str, cmd: str, mode: str) -> tuple[tuple, tuple]:
    """(exit code, stdout, stderr) of the run, and the same from the goldens."""
    _, suffix, codes = MODES[mode]
    stem = _stem(name, cmd)
    expected = (
        json.loads((golden / codes).read_text())[stem],
        (golden / f"{stem}{suffix}").read_text(),
        json.loads((golden / "stderr.json").read_text())[f"{stem}.{mode}"],
    )
    return _run(corpus, name, cmd, mode), expected


def _check(corpus: Path, golden: Path, name: str, cmd: str, mode: str) -> None:
    observed, expected = _outcome(corpus, golden, name, cmd, mode)
    assert observed == expected


if mark is not None:

    @mark.parametrize("name,cmd", CASES)
    def test_json_output_matches_golden(name, cmd):
        _check(CORPUS, GOLDEN, name, cmd, "json")

    @mark.parametrize("name,cmd", EDGE_CASES)
    def test_edge_json_output_matches_golden(name, cmd):
        _check(EDGE, EDGE_GOLDEN, name, cmd, "json")

    @mark.parametrize("name,cmd", CASES)
    def test_text_output_matches_golden(name, cmd):
        _check(CORPUS, GOLDEN, name, cmd, "text")

    @mark.parametrize("name,cmd", EDGE_CASES)
    def test_edge_text_output_matches_golden(name, cmd):
        _check(EDGE, EDGE_GOLDEN, name, cmd, "text")


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _regenerate(corpus: Path, golden: Path) -> None:
    golden.mkdir(exist_ok=True)
    stderr = {}
    for mode, (_, suffix, codes_file) in MODES.items():
        codes = {}
        for name, cmd in _cases(corpus):
            stem = _stem(name, cmd)
            codes[stem], stdout, stderr[f"{stem}.{mode}"] = _run(corpus, name, cmd, mode)
            (golden / f"{stem}{suffix}").write_text(stdout)
        _write_json(golden / codes_file, codes)
    _write_json(golden / "stderr.json", stderr)


def _check_all() -> int:
    """Compare every golden without pytest; 1 if any differs."""
    total = failed = 0
    for corpus, golden in ((CORPUS, GOLDEN), (EDGE, EDGE_GOLDEN)):
        for name, cmd in _cases(corpus):
            for mode in MODES:
                total += 1
                observed, expected = _outcome(corpus, golden, name, cmd, mode)
                if observed != expected:
                    failed += 1
                    print(f"mismatch: {corpus.name}/{name} {cmd} ({mode})")
    print(f"{total - failed}/{total} goldens match (Python {platform.python_version()})")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        raise SystemExit("usage: test_golden.py [--check]")
    if sys.argv[1:]:
        raise SystemExit(_check_all())
    _regenerate(CORPUS, GOLDEN)
    _regenerate(EDGE, EDGE_GOLDEN)
