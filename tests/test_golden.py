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

On the same files it checks the writer parity: ``serialize_instance``
and every ``--json`` document must be ``json.dumps(doc, indent=2)`` of the
reference dictionary ``helpers.instance_document`` (with the command's
``results`` added), so the writer agrees with the ``json`` module and not
only with the goldens it wrote.

Regenerate both sets, after a deliberate change of output, with
``PYTHONPATH=src python tests/test_golden.py``.  Compare them and check
the parity without pytest, on any interpreter the package supports, with
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
from rgroups.instances import load_instance, serialize_instance

from helpers import instance_document

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


def _parity(corpus: Path, name: str) -> tuple[int, list[str]]:
    """The number of texts compared on one file, and the writers among
    them whose text is not ``json.dumps`` of the reference document:
    ``serialize_instance``, and each command whose ``--json`` run printed
    a document (an invalid file's ``rgroup`` and ``explain`` print none)."""
    inst = load_instance(corpus / name)
    ref = instance_document(inst)
    compared = 1
    differ = [] if serialize_instance(inst) == json.dumps(ref, indent=2) + "\n" else ["serialize"]
    for cmd in COMMANDS:
        out = _run(corpus, name, cmd, "json")[1]
        if out:
            compared += 1
            doc = {**ref, "results": json.loads(out)["results"]}
            if out != json.dumps(doc, indent=2) + "\n":
                differ.append(cmd)
    return compared, differ


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

    @mark.parametrize(
        "corpus,name",
        [(corpus, p.name) for corpus in (CORPUS, EDGE) for p in sorted(corpus.glob("*.json"))],
        ids=lambda value: getattr(value, "name", value),
    )
    def test_writers_match_json_dumps_of_the_reference(corpus, name):
        assert _parity(corpus, name)[1] == []


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
    version = platform.python_version()
    print(f"{total - failed}/{total} goldens match (Python {version})")
    files = texts = wrong = 0
    for corpus in (CORPUS, EDGE):
        for path in sorted(corpus.glob("*.json")):
            compared, differ = _parity(corpus, path.name)
            files, texts, wrong = files + 1, texts + compared, wrong + bool(differ)
            for writer in differ:
                print(f"parity mismatch: {corpus.name}/{path.name} {writer}")
    print(f"{files - wrong}/{files} files pass the writer parity, {texts} texts (Python {version})")
    return 1 if failed or wrong else 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        raise SystemExit("usage: test_golden.py [--check]")
    if sys.argv[1:]:
        raise SystemExit(_check_all())
    _regenerate(CORPUS, GOLDEN)
    _regenerate(EDGE, EDGE_GOLDEN)
