"""Golden outputs of the CLI's ``--json`` mode over the committed corpus.

For every file in ``instances/`` the test runs ``validate --json``,
``rgroup --oracle --json`` and ``explain --json`` in process and compares
the exit code and standard output byte for byte with the files in
``tests/golden/``.  Regenerate them, after a deliberate change of output,
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from rgroups.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "instances"
GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"
COMMANDS = {
    "validate": ["validate", "--json"],
    "rgroup": ["rgroup", "--oracle", "--json"],
    "explain": ["explain", "--json"],
}
CASES = [
    (path.name, cmd) for path in sorted(CORPUS.glob("*.json")) for cmd in COMMANDS
]


def _run(name: str, cmd: str) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([*COMMANDS[cmd], str(CORPUS / name)])
    return code, out.getvalue()


def _stem(name: str, cmd: str) -> str:
    return f"{Path(name).stem}.{cmd}"


@pytest.mark.parametrize("name,cmd", CASES)
def test_json_output_matches_golden(name, cmd):
    code, stdout = _run(name, cmd)
    stem = _stem(name, cmd)
    assert code == json.loads(EXIT_CODES.read_text())[stem]
    assert stdout == (GOLDEN / f"{stem}.out").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, cmd in CASES:
        codes[_stem(name, cmd)], stdout = _run(name, cmd)
        (GOLDEN / f"{_stem(name, cmd)}.out").write_text(stdout)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
