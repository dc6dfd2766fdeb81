"""Tests for the command-line interface and its exit-code contract."""

import errno
import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from rgroups import cli
from rgroups.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "instances"
VALID = sorted(p.name for p in CORPUS.glob("*-valid.json"))
INVALID = sorted(p.name for p in CORPUS.glob("*-invalid.json"))


@pytest.mark.parametrize("name", VALID)
def test_validate_exit_zero_on_valid(name, capsys):
    assert main(["validate", str(CORPUS / name)]) == 0
    assert "valid" in capsys.readouterr().out


@pytest.mark.parametrize("name", INVALID)
def test_validate_exit_one_on_invalid(name, capsys):
    assert main(["validate", str(CORPUS / name)]) == 1
    assert "violation" in capsys.readouterr().out


def test_validate_reports_rule_tags(capsys):
    assert main(["validate", str(CORPUS / "sp-mixed-parity-invalid.json")]) == 1
    out = capsys.readouterr().out
    assert "[J-1]" in out and "mixed parity" in out


def test_validate_exit_two_on_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["validate", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_validate_exit_two_on_unknown_label(tmp_path, capsys):
    doc = {
        "format_version": "1",
        "family": "sp",
        "symbols": {"st": {"dim": 1, "duality": "orthogonal"}},
        "sigma": {"rank": 1, "blocks": [["ghost", 3]]},
        "deltas": [],
    }
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2


def test_validate_exit_two_on_boolean_integer(tmp_path, capsys):
    doc = {
        "format_version": "1",
        "family": "sp",
        "symbols": {"st": {"dim": True, "duality": "orthogonal"}},
        "sigma": {"rank": 1, "blocks": [["st", 3]]},
        "deltas": [],
    }
    path = tmp_path / "boolean.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert "positive integer dim" in capsys.readouterr().err


def test_validate_missing_file_exit_two(capsys):
    assert main(["validate", str(CORPUS / "nope.json")]) == 2


_UNHASHABLE_DUALITY = {
    "format_version": "1",
    "family": "sp",
    "symbols": {"st": {"dim": 1, "duality": []}},
    "sigma": {"rank": 0, "blocks": []},
    "deltas": [],
}


@pytest.mark.parametrize(
    "command", [["validate"], ["rgroup", "--oracle"], ["explain"]], ids=" ".join
)
@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100_000, json.dumps(_UNHASHABLE_DUALITY).encode()],
    ids=["not-utf8", "deeply-nested", "unhashable-duality"],
)
def test_undecodable_file_exit_two(tmp_path, capsys, command, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main([*command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


_COMMANDS = [["validate"], ["rgroup", "--oracle"], ["explain"]]


def _exit_two_with(argv: list[str], capsys, message: str) -> None:
    """Every command, with and without ``--json``, exits 2 with ``message``."""
    for command in _COMMANDS:
        for extra in ([], ["--json"]):
            assert main([*command, *extra, *argv]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"parse error: {message}\n"
            assert captured.out == ""


def test_directory_path_exit_two(tmp_path, capsys):
    path = str(tmp_path)
    reason = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {path!r}"
    _exit_two_with([path], capsys, f"cannot read {path}: {reason}")


def test_byte_order_mark_exit_two(tmp_path, capsys):
    """A UTF-8 byte order mark is refused, as ``json.loads`` refuses it."""
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + (CORPUS / "sp-mixed-valid.json").read_bytes())
    _exit_two_with(
        [str(path)],
        capsys,
        "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig):"
        " line 1 column 1 (char 0)",
    )


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_line_ends_are_read_as_newlines(tmp_path, capsys, newline):
    """A file is read with universal newlines: a syntax error's position
    counts each CRLF or CR as one character."""
    path = tmp_path / "line-ends.json"
    path.write_bytes(newline.join([b"{", b'  "format_version": "1",', b'  "family" "sp"', b"}"]))
    _exit_two_with(
        [str(path)],
        capsys,
        "not valid JSON: Expecting ':' delimiter: line 3 column 12 (char 38)",
    )
    valid = (CORPUS / "sp-mixed-valid.json").read_bytes()
    path.write_bytes(valid.replace(b"\n", newline))
    assert main(["validate", "--json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["valid"] is True


@pytest.mark.parametrize(
    "command", [["validate"], ["rgroup", "--oracle"], ["explain"]], ids=" ".join
)
def test_repeated_block_exit_two(tmp_path, capsys, command):
    """Jord(sigma) is a set: a file that lists a block twice denotes no
    instance, though the data would deduplicate it."""
    doc = json.loads((CORPUS / "sp-mixed-valid.json").read_text())
    doc["sigma"]["blocks"] += doc["sigma"]["blocks"]
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    for extra in ([], ["--json"]):
        assert main([*command, *extra, str(path)]) == 2
        assert capsys.readouterr().err.startswith("parse error: block #")


@pytest.mark.parametrize(
    "command", [["validate"], ["rgroup", "--oracle"], ["explain"]], ids=" ".join
)
def test_repeated_key_exit_two(tmp_path, capsys, command):
    """A file that repeats a key is refused, not read with its last value:
    this one would otherwise validate as an sp instance."""
    text = (CORPUS / "sp-mixed-valid.json").read_text()
    assert text.count('"family": "sp",') == 1
    path = tmp_path / "repeated-key.json"
    path.write_text(text.replace('"family": "sp",', '"family": "so-odd",\n  "family": "sp",'))
    for extra in ([], ["--json"]):
        assert main([*command, *extra, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "parse error: repeated key 'family'\n"
        assert captured.out == ""


def _sp_mixed_with(tmp_path, dim: int, a: int) -> str:
    """``sp-mixed-valid.json`` with symbol x of dimension ``dim`` and its
    delta of segment length ``a``."""
    doc = json.loads((CORPUS / "sp-mixed-valid.json").read_text())
    doc["symbols"]["x"]["dim"] = dim
    (delta,) = [d for d in doc["deltas"] if d["rho"] == "x"]
    delta["a"] = a
    path = tmp_path / "sp-mixed.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_integer_above_the_bound_exit_two(tmp_path, capsys):
    """An integer field above MAX_INTEGER is refused at parse time; the
    rank it gives would otherwise have more digits than the interpreter
    formats, and ``explain`` would crash."""
    path = _sp_mixed_with(tmp_path, 10**3000, 10**3000)
    _exit_two_with([path], capsys, "symbol 'x': dim is above the bound 1000000")


def test_integer_literal_above_the_digit_limit_exit_two(tmp_path, capsys):
    """A literal longer than the interpreter converts from text (4,300
    digits by default) is refused, not raised out of ``main``."""
    text = (CORPUS / "sp-mixed-valid.json").read_text()
    assert text.count('"mult": 3') == 1
    path = tmp_path / "long-literal.json"
    path.write_text(text.replace('"mult": 3', '"mult": 3' + "0" * 5000))
    _exit_two_with([str(path)], capsys, "an integer is above the bound 1000000")


def test_integers_at_the_bound_are_answered(tmp_path, capsys):
    path = _sp_mixed_with(tmp_path, 10**6, 10**6)
    for command in _COMMANDS:
        for extra in ([], ["--json"]):
            assert main([*command, *extra, path]) == 0
            assert capsys.readouterr().err == ""
    assert main(["explain", path]) == 0
    assert "ambient group: Sp(2000000000018, F)" in capsys.readouterr().out


def test_validate_json_mode(capsys):
    assert main(["validate", "--json", str(CORPUS / "sp-steinberg-valid.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["valid"] is True
    assert doc["family"] == "sp"
    assert main(["validate", "--json", str(CORPUS / "so-odd-dim-invalid.json")]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["violations"][0]["rule"] == "dimension"


def test_rgroup_both_sides_mixed_instance(capsys):
    assert main(["rgroup", str(CORPUS / "sp-mixed-valid.json")]) == 0
    out = capsys.readouterr().out
    assert "knapp-stein rank: 1" in out
    assert "arthur rank: 1" in out
    assert "agree: yes" in out
    assert "centralizer:" in out


def test_rgroup_single_sides(capsys):
    assert main(["rgroup", "--side", "ks", str(CORPUS / "sp-mixed-valid.json")]) == 0
    out = capsys.readouterr().out
    assert "knapp-stein rank: 1" in out and "arthur rank" not in out
    assert main(["rgroup", "--side", "arthur", str(CORPUS / "sp-mixed-valid.json")]) == 0
    out = capsys.readouterr().out
    assert "arthur rank: 1" in out and "knapp-stein" not in out


@pytest.mark.parametrize(
    "side,keys",
    [
        ("ks", {"ks_rank", "witness"}),
        ("arthur", {"arthur_rank", "centralizer", "witness"}),
    ],
)
def test_rgroup_json_single_side_results(side, keys, capsys):
    path = str(CORPUS / "sp-mixed-valid.json")
    assert main(["rgroup", "--json", "--side", side, path]) == 0
    assert set(json.loads(capsys.readouterr().out)["results"]) == keys


def test_rgroup_oracle_three_way(capsys):
    assert main(["rgroup", "--oracle", str(CORPUS / "sp-mixed-valid.json")]) == 0
    out = capsys.readouterr().out
    assert "oracle rank: 1" in out and "agree: yes" in out


def test_rgroup_pure_sigma(capsys):
    assert main(["rgroup", str(CORPUS / "sp-steinberg-valid.json")]) == 0
    out = capsys.readouterr().out
    assert "knapp-stein rank: 0" in out and "arthur rank: 0" in out


def test_rgroup_unitary_cases(capsys):
    assert main(["rgroup", str(CORPUS / "unitary-reducible-valid.json")]) == 0
    out = capsys.readouterr().out
    assert "knapp-stein rank: 1" in out and "arthur rank: 1" in out
    assert main(["rgroup", str(CORPUS / "unitary-member-valid.json")]) == 0
    out = capsys.readouterr().out
    assert "knapp-stein rank: 0" in out and "O(3)" in out
    assert main(["rgroup", "--oracle", str(CORPUS / "unitary-pair-valid.json")]) == 0
    out = capsys.readouterr().out
    assert "oracle rank: 0" in out


def _above_oracle_bound(tmp_path, mult: int = 22) -> str:
    """A valid sp instance whose centralizer is GL(mult) x SO(1).  The
    Weyl group of GL(22) permutes 22 letters, more than the 20 bits of the
    oracle's default cap, so it is refused without computing its order."""
    doc = {
        "format_version": "1",
        "family": "sp",
        "symbols": {
            "a": {"dim": 1, "duality": "orthogonal"},
            "p": {"dim": 1, "duality": "not-self-dual", "dual": "pt"},
            "pt": {"dim": 1, "duality": "not-self-dual", "dual": "p"},
        },
        "sigma": {"rank": 0, "blocks": [["a", 1]]},
        "deltas": [{"rho": "p", "a": 1, "mult": mult}],
    }
    path = tmp_path / "above-bound.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_rgroup_oracle_above_bound_still_reports_the_closed_form(tmp_path, capsys):
    path = _above_oracle_bound(tmp_path)
    assert main(["rgroup", "--oracle", path]) == 1
    out = capsys.readouterr().out
    assert "knapp-stein rank: 0" in out and "arthur rank: 0" in out
    assert "oracle: skipped (bound: Weyl group on 22 letters is above the cap 1000000)" in out
    assert "agree: yes" in out
    assert main(["rgroup", "--oracle", "--json", path]) == 1
    captured = capsys.readouterr()
    results = json.loads(captured.out)["results"]
    assert results["oracle_rank"] is None
    assert results["oracle"] == "skipped (bound)"
    assert results["ks_rank"] == results["arthur_rank"] == 0
    assert results["agree"] is True
    assert "on 22 letters is above the cap 1000000" in captured.err
    assert main(["rgroup", path]) == 0  # without --oracle nothing is skipped


def test_rgroup_oracle_refuses_a_huge_factor_at_its_letter_count(tmp_path, capsys):
    path = _above_oracle_bound(tmp_path, mult=5000)
    assert main(["rgroup", "--oracle", path]) == 1
    out = capsys.readouterr().out
    assert "centralizer: GL(5000) x SO(1)" in out
    assert "oracle: skipped (bound: Weyl group on 5000 letters is above the cap 1000000)" in out


def test_rgroup_oracle_answers_free_factors_within_the_cap(tmp_path, capsys):
    # 12 torus letters; the free factors hold 2 + 48 + 8 + 48 + 48 = 154
    # Weyl elements.
    doc = {
        "format_version": "1",
        "family": "sp",
        "symbols": {
            "p": {"dim": 1, "duality": "not-self-dual", "dual": "pt"},
            "pt": {"dim": 1, "duality": "not-self-dual", "dual": "p"},
            "x": {"dim": 1, "duality": "orthogonal"},
            "y": {"dim": 1, "duality": "orthogonal"},
            "z": {"dim": 1, "duality": "orthogonal"},
        },
        "sigma": {"rank": 0, "blocks": [["z", 1]]},
        "deltas": [
            {"rho": "p", "a": 1, "mult": 2},
            {"rho": "x", "a": 2, "mult": 3},
            {"rho": "x", "a": 4, "mult": 2},
            {"rho": "y", "a": 2, "mult": 3},
            {"rho": "z", "a": 1, "mult": 3},
        ],
    }
    path = tmp_path / "free-factors.json"
    path.write_text(json.dumps(doc))
    assert main(["rgroup", "--oracle", "--json", str(path)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["centralizer"] == "GL(2) x Sp(6) x Sp(4) x Sp(6) x SO(7)"
    assert results["oracle_rank"] == results["arthur_rank"] == results["ks_rank"] == 0
    assert results["agree"] is True


def test_rgroup_oracle_skips_a_factor_above_the_element_cap(tmp_path, capsys):
    # Centralizer SO(1) x O(16): the Weyl group of O(16) has
    # 2^8 * 8! = 10,321,920 elements.
    doc = {
        "format_version": "1",
        "family": "sp",
        "symbols": {
            "x": {"dim": 1, "duality": "orthogonal"},
            "y": {"dim": 1, "duality": "orthogonal"},
        },
        "sigma": {"rank": 0, "blocks": [["x", 1]]},
        "deltas": [{"rho": "y", "a": 1, "mult": 8}],
    }
    path = tmp_path / "above-cap.json"
    path.write_text(json.dumps(doc))
    assert main(["rgroup", "--oracle", str(path)]) == 1
    out = capsys.readouterr().out
    assert "knapp-stein rank: 1" in out and "arthur rank: 1" in out
    assert "centralizer: SO(1) x O(16)" in out
    assert (
        "oracle: skipped (bound: Weyl group of order 10321920"
        " is above the cap 1000000)"
    ) in out
    assert "agree: yes" in out


def test_rgroup_invalid_instance_exit_one(capsys):
    assert main(["rgroup", str(CORPUS / "o-even-m1-invalid.json")]) == 1
    assert "violation" in capsys.readouterr().err


def test_rgroup_json_mode(capsys):
    assert main(["rgroup", "--json", "--oracle", str(CORPUS / "o-even-valid.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    results = doc["results"]
    assert results["ks_rank"] == results["arthur_rank"] == results["oracle_rank"]
    assert results["agree"] is True
    assert doc["symbols"]  # instance document is embedded


def test_explain_classical(capsys):
    assert main(["explain", str(CORPUS / "sp-mixed-valid.json")]) == 0
    out = capsys.readouterr().out
    assert "ambient group: Sp(24, F)" in out
    assert "same-type-even" in out
    assert "rank d = 1" in out


def test_explain_unitary(capsys):
    assert main(["explain", str(CORPUS / "unitary-member-valid.json")]) == 0
    out = capsys.readouterr().out
    assert "ambient group: U(9)" in out
    assert "O(3)" in out


def test_explain_invalid_exit_one(capsys):
    assert main(["explain", str(CORPUS / "unitary-sign-invalid.json")]) == 1


def test_explain_json(capsys):
    assert main(["explain", "--json", str(CORPUS / "so-odd-valid.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "buckets" in doc["results"]


def test_fuzz_summary_is_deterministic(tmp_path, capsys):
    argv = [
        "fuzz",
        "--seed", "5",
        "--count", "40",
        "--family", "o-even",
        "--replay-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert "40/40 agree" in first
    assert not list(tmp_path.iterdir())  # no replay files on agreement


def test_fuzz_all_families(tmp_path, capsys):
    for family in ("sp", "so-odd", "o-even"):
        assert (
            main(
                [
                    "fuzz",
                    "--count", "25",
                    "--family", family,
                    "--replay-dir", str(tmp_path),
                ]
            )
            == 0
        )
        assert "25/25 agree" in capsys.readouterr().out


def test_fuzz_infeasible_bounds_exit_two(tmp_path, capsys):
    argv = [
        "fuzz",
        "--count", "5",
        "--max-a", "0",
        "--replay-dir", str(tmp_path),
    ]
    assert main(argv) == 2
    assert "infeasible" in capsys.readouterr().err


def test_fuzz_negative_count_exit_two(tmp_path, capsys):
    argv = ["fuzz", "--count", "-3", "--replay-dir", str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "count must be non-negative, got -3" in captured.err
    assert "agree" not in captured.out
    assert main(["fuzz", "--count", "0", "--replay-dir", str(tmp_path)]) == 0
    assert "0/0 agree" in capsys.readouterr().out


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["rgroup", "--side", "bogus", "x.json"])
    assert info.value.code == 2


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_argparse_served_argv_keep_their_outcomes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the default replay directory
    mixed = str(CORPUS / "sp-mixed-valid.json")
    # Plain file commands never reach the parser, so none is used here.
    sequence = [
        ["rgroup", "--side", "ks", mixed],
        ["rgroup", "--side", "both", mixed],
        ["rgroup", "--js", "--oracle", mixed],
        ["rgroup", "--", mixed],
        ["rgroup"],
        ["explain", "--js", mixed],
        ["nope"],
        ["explain", "--", mixed],
        ["validate", "--json", "--", mixed],
        ["validate", "--", mixed],
        [
            "fuzz", "--seed", "3", "--count", "7", "--family", "so-odd",
            "--max-deltas", "2", "--max-dim", "2", "--max-a", "3", "--max-mult", "1",
        ],
        ["fuzz"],
    ]
    assert all(cli._plain_file_command(argv) is None for argv in sequence)
    outcomes = [_outcome(argv, capsys) for argv in sequence]
    assert [code for code, _, _ in outcomes] == [0, 0, 0, 0, 2, 0, 2, 0, 0, 0, 0, 0]
    assert "100/100 agree" in outcomes[-1][1]
    assert not list(tmp_path.iterdir())


# Tokens for the argv enumeration below: the commands, paths (one that
# starts with "-"), the flags exactly spelled, abbreviated, with a value
# or out of place, help and the end-of-options marker.
ARGV_ALPHABET = [
    "validate", "rgroup", "explain", "fuzz", "nope", "a.json", "b.json",
    "-x.json", "", "-", "--json", "--oracle", "--js", "--side", "ks",
    "--json=1", "-h", "--",
]


def test_plain_file_commands_parse_as_argparse_does():
    """Over every argv of 1 to 4 tokens from ``ARGV_ALPHABET`` (111,150 of
    them), the fast path either declines or returns exactly the namespace
    argparse builds.  argparse runs only where the fast path answers: if it
    exited there (2 on a usage error, 0 on help), the test would fail, so
    every argv argparse refuses is declined."""
    parser = cli.build_parser()
    accepted = 0
    for length in range(1, 5):
        for argv in itertools.product(ARGV_ALPHABET, repeat=length):
            fast = cli._plain_file_command(list(argv))
            if fast is not None:
                assert vars(fast) == vars(parser.parse_args(list(argv))), argv
                accepted += 1
    # Nine tokens can be a path (those that do not start with "-"); the
    # rest of a plain argv is --json, or for rgroup also --oracle:
    # 9 + 2*9 + 3*9 = 54 for validate and explain, 9 + 2*9*2 + 3*9*4 = 153
    # for rgroup.
    assert accepted == 54 + 153 + 54


def test_importing_the_cli_builds_no_parser(tmp_path):
    """In a fresh interpreter, importing the CLI and answering a plain file
    command leave argparse unimported; every argv that needs the parser
    builds its own, as many parsers as the first."""
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        import rgroups.cli
        imported = ["argparse" in sys.modules]
        with contextlib.redirect_stdout(io.StringIO()):
            rgroups.cli.main(["rgroup", "--oracle", "--json", sys.argv[1]])
        imported.append("argparse" in sys.modules)

        import argparse
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        argparse.ArgumentParser.__init__ = counting
        counts = []
        for argv in (["validate"], ["validate", "--"], ["validate", "--"]):
            with contextlib.redirect_stdout(io.StringIO()):
                rgroups.cli.main([*argv, sys.argv[1]])
            counts.append(len(built))
        print(*imported, *counts)
        """
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    run = subprocess.run(
        [sys.executable, "-c", script, str(CORPUS / "sp-mixed-valid.json")],
        env=env, cwd=tmp_path, capture_output=True, text=True, check=True,
    )
    at_import, after_rgroup, plain, first_parse, second_parse = run.stdout.split()
    assert at_import == after_rgroup == "False"
    assert plain == "0"
    assert int(first_parse) > 0 and int(second_parse) == 2 * int(first_parse)
