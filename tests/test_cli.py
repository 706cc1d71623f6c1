"""Tests for the command line front end."""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest
from test_centralizers import extraspecial_2_1_8

from nilenv import errors
from nilenv.catalog import DEFAULT_CATALOG, cyclic, from_spec
from nilenv.cli import _COMMANDS, _KNOWN_ERRORS, _build_parser, main
from nilenv.formula import envelope_formula, format_formula, parse
from nilenv.groups import save_group
from nilenv.suites import ALL_SUITES, SuiteConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_catalog_group(capsys):
    code, out, err = run(capsys, "info", "--group", "dihedral(4)")
    assert code == 0 and err == ""
    assert "group: dihedral(4)" in out
    assert "order: 8" in out
    assert "center order: 2" in out
    assert "abelian: no" in out
    assert "nilpotence class: 2" in out


def test_info_non_nilpotent_group(capsys):
    code, out, _ = run(capsys, "info", "--group", "symmetric(3)")
    assert code == 0
    assert "nilpotence class: none" in out


def test_info_from_group_file(capsys, tmp_path):
    path = tmp_path / "c6.json"
    save_group(cyclic(6), path)
    code, out, _ = run(capsys, "info", "--group", str(path))
    assert code == 0
    assert "order: 6" in out
    assert "abelian: yes" in out
    assert "nilpotence class: 1" in out


def test_dim_command(capsys):
    code, out, _ = run(capsys, "dim", "--group", "dihedral(4)")
    assert code == 0
    assert "dimension: 2" in out
    assert "witness chain:" in out
    chain_lines = [l for l in out.splitlines() if l.startswith("  C(")]
    assert len(chain_lines) == 3
    assert all("has order" in l for l in chain_lines)
    assert chain_lines[0] == "  C([]) has order 8"


def test_dim_subgroup(capsys):
    code, out, _ = run(capsys, "dim", "--group", "dihedral(4)", "--subgroup", "1")
    assert code == 0
    assert "order: 4" in out
    assert "dimension: 1" in out


def test_series_command(capsys):
    # (group, lower series orders, upper series orders, class): a nilpotent group and two that are not
    for spec, lower, upper, cls in (
        ("dihedral(8)", "16 4 2 1", "1 2 4 16", "3"),
        ("symmetric(4)", "24 12", "1", "none"),
        ("alternating(5)", "60", "1", "none"),
    ):
        code, out, _ = run(capsys, "series", "--group", spec)
        assert code == 0
        lines = out.splitlines()
        assert f"lower central series orders: {lower}" in lines
        assert f"upper central series orders: {upper}" in lines
        assert f"nilpotence class: {cls}" in lines


def test_series_subgroup(capsys):
    code, out, _ = run(capsys, "series", "--group", "symmetric(3)", "--subgroup", "2")
    assert code == 0
    assert "subject order: 3" in out
    assert "nilpotence class: 1" in out


def test_envelope_command(capsys):
    code, out, _ = run(
        capsys, "envelope", "--group", "alternating(4)", "--subgroup", "4"
    )
    assert code == 0
    assert "group: alternating(4) (order 12)" in out
    assert "subgroup order: 2" in out
    assert "nilpotence class: 1" in out
    assert "replaced subgroup order: 4" in out
    assert "envelope order: 4" in out
    assert "parameters: [" in out
    assert "  E_1 order" in out


def test_envelope_emit_formula_and_trace(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    code, out, _ = run(
        capsys,
        "envelope",
        "--group",
        "dihedral(4)",
        "--subgroup",
        "1,4",
        "--emit-formula",
        "--trace",
        str(trace_path),
    )
    assert code == 0
    formula_lines = [l for l in out.splitlines() if l.startswith("formula: ")]
    assert len(formula_lines) == 1
    parse(formula_lines[0][len("formula: ") :])
    assert f"trace written to {trace_path}" in out
    data = json.loads(trace_path.read_text(encoding="utf-8"))
    assert data["group"] == "dihedral(4)"
    assert data["envelope_order"] == 8
    assert isinstance(data["tower"], list) and data["tower"]


def test_envelope_emit_formula_refuses_a_formula_too_large_to_print(capsys):
    # the whole dihedral(32) has class 5: phi_{2,5} has 2,921,517 nodes
    argv = ["envelope", "--group", "dihedral(32)", "--subgroup", "1,32"]
    code, out, err = run(capsys, *argv, "--emit-formula")
    assert code == 2 and out == ""
    assert err == "error: formula size 2921517 exceeds cap 2000000\n"
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "nilpotence class: 5" in out
    # class 4, phi_{2,4} with 137,469 nodes, still prints
    code, out, _ = run(capsys, "envelope", "--group", "dihedral(16)", "--subgroup", "1,16", "--emit-formula")
    assert code == 0
    assert out.splitlines()[-1] == "formula: " + format_formula(envelope_formula(2, 4))


def test_fitting_command(capsys):
    code, out, _ = run(capsys, "fitting", "--group", "symmetric(4)")
    assert code == 0
    assert "fitting subgroup order: 4" in out
    assert "by p-cores: order 4" in out
    assert "by envelope fixpoint: order 4" in out
    assert "by engel set: order 4" in out
    assert "engel bound:" in out
    assert "nilpotence class: 1" in out


def test_eval_solutions(capsys, tmp_path):
    path = tmp_path / "commute.txt"
    path.write_text("x*p0 = p0*x\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "eval", "--group", "dihedral(4)", "--formula", str(path), "--params", "1"
    )
    assert code == 0
    assert "solutions: 4" in out
    assert "[0, 1, 2, 3]" in out


def test_eval_sentence(capsys, tmp_path):
    path = tmp_path / "abelian.txt"
    path.write_text("A x (A y (x*y = y*x))", encoding="utf-8")
    code, out, _ = run(capsys, "eval", "--group", "cyclic(6)", "--formula", str(path))
    assert code == 0 and "holds: yes" in out
    code, out, _ = run(capsys, "eval", "--group", "symmetric(3)", "--formula", str(path))
    assert code == 0 and "holds: no" in out


def test_lattice_text_and_dot(capsys):
    code, out, _ = run(capsys, "lattice", "--group", "symmetric(3)")
    assert code == 0
    assert "nodes: 6" in out
    assert "cover edges:" in out
    assert "C0: order" in out
    code, dot, _ = run(capsys, "lattice", "--group", "symmetric(3)", "--dot")
    assert code == 0
    assert dot.startswith("digraph")
    assert "->" in dot
    # inside a subgroup: elements 1 and 5 generate one of order 8
    argv = ("lattice", "--group", "symmetric(4)", "--subgroup", "1,5")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        "nodes: 5",
        "  C0: order 8 = C([])",
        "  C1: order 4 = C([7])",
        "  C2: order 4 = C([5])",
        "  C3: order 4 = C([1])",
        "  C4: order 2 = C([1, 5])",
        "cover edges: 0>1 0>2 0>3 1>4 2>4 3>4",
    ]
    code, dot, _ = run(capsys, *argv, "--dot")
    assert code == 0
    assert dot.splitlines()[1:6] == [f'  n{i} [label="C{i} (order {o})"];' for i, o in enumerate((8, 4, 4, 4, 2))]
    assert dot.splitlines()[6:-1] == [f"  n{i} -> n{j};" for i, j in ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4))]


# sha256 of the full output; the witnesses and cover edges printed follow the
# discovery order of the lattice and the chain's tie-break
@pytest.mark.parametrize(
    ("command", "digest"),
    [
        ("lattice", "570c67ae1210b70de57979388eed991ce427a1fb84c02db47d588c559f1db0b3"),
        ("dim", "0131167bd20025bbe1ea5d4d1b319545a4264b1fdc80fa1dd2f730feeb98cb85"),
    ],
)
def test_symmetric_6_lattice_and_dim_output_is_pinned(capsys, command, digest):
    code, out, err = run(capsys, command, "--group", "symmetric(6)")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_subgroup_json_file(capsys, tmp_path):
    path = tmp_path / "klein.json"
    path.write_text(
        json.dumps({"generators": [[2, 3, 0, 1], [3, 2, 1, 0]]}), encoding="utf-8"
    )
    code, out, _ = run(
        capsys, "dim", "--group", "symmetric(4)", "--subgroup", str(path)
    )
    assert code == 0
    assert "order: 4" in out
    assert "dimension: 1" in out


@pytest.mark.parametrize(
    "command, line",
    [
        ("dim", "order: 1"),
        ("series", "subject order: 1"),
        ("lattice", "nodes: 1"),
        ("envelope", "subgroup order: 1"),
    ],
)
@pytest.mark.parametrize("given", ["", " "])
def test_an_empty_subgroup_list_is_the_trivial_subgroup(capsys, command, line, given):
    code, out, err = run(capsys, command, "--group", "symmetric(3)", "--subgroup", given)
    assert code == 0 and err == ""
    assert line in out.splitlines()


def test_verify_reduced(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--groups",
        "symmetric(3)",
        "--suites",
        "hallwitt,dimension",
    )
    assert code == 0
    assert "suite=hallwitt group=symmetric(3) passes=1000 failures=0" in out
    assert "total passes=" in out
    assert "failures=0" in out


@pytest.mark.parametrize(
    "flag, value, field, expected",
    [
        ("--seed", "7", "seed", 7),
        # only a comma outside brackets separates
        ("--groups", "product(cyclic(2),cyclic(4))", "groups", ("product(cyclic(2),cyclic(4))",)),
        (
            "--groups",
            "product(cyclic(2), product(cyclic(3),cyclic(4))) ,quaternion",
            "groups",
            ("product(cyclic(2), product(cyclic(3),cyclic(4)))", "quaternion"),
        ),
        (
            "--groups",
            "quaternion,product(cyclic(2),cyclic(2)),product(cyclic(2),cyclic(4))",
            "groups",
            ("quaternion", "product(cyclic(2),cyclic(2))", "product(cyclic(2),cyclic(4))"),
        ),
        # an unclosed bracket keeps the rest in one entry, which from_spec refuses
        ("--groups", "product(cyclic(2),cyclic(3)", "groups", ("product(cyclic(2),cyclic(3)",)),
        ("--groups", "cyclic(2)),quaternion", "groups", ("cyclic(2))", "quaternion")),
        ("--suites", "hallwitt,", "suites", ("hallwitt",)),
        ("--groups", " quaternion ,, cyclic(2) ", "groups", ("quaternion", "cyclic(2)")),
        ("--suites", "hall, dimension", "suites", ("hall", "dimension")),
        ("--suites", " , ", "suites", ()),
        ("--suites", "", "suites", ALL_SUITES),
        ("--groups", "cyclic(2),quaternion", "groups", ("cyclic(2)", "quaternion")),
        ("--groups", "", "groups", DEFAULT_CATALOG),
        ("--seed", "-3", "seed", -3),
    ],
)
def test_verify_flags_set_their_fields(monkeypatch, flag, value, field, expected):
    configs = []

    def fake_run_suites(config, extra_groups=()):
        configs.append(config)
        return SimpleNamespace(format_text=str, ok=True)

    monkeypatch.setattr("nilenv.cli.run_suites", fake_run_suites)
    assert main(["verify", flag, value]) == 0
    # the flag sets its own field and leaves every other at its default
    assert configs == [replace(SuiteConfig(), **{field: expected})]


def test_verify_options_are_what_a_run_covers():
    # how much each suite samples is fixed; no option sets it
    assert [flag for flag, _ in _COMMANDS["verify"][2]] == ["--suites", "--groups", "--group-file", "--seed"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--groups", "quaternion,quaternion", "--suites", "hallwitt,bryant"), "group 'quaternion' is named twice"),
        (("--groups", "quaternion", "--suites", "hallwitt, bryant,hallwitt"), "suite 'hallwitt' is named twice"),
    ],
    ids=["group", "suite"],
)
def test_verify_refuses_a_name_given_twice(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_group_file(capsys, tmp_path):
    path = tmp_path / "c8.json"
    save_group(cyclic(8), path)
    code, out, _ = run(
        capsys,
        "verify",
        "--groups",
        "symmetric(3)",
        "--suites",
        "dimension",
        "--group-file",
        str(path),
    )
    assert code == 0
    assert "group=cyclic(8)" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["info"],
        ["dim"],
        ["series"],
        ["envelope", "--subgroup", "1"],
        ["fitting"],
        ["eval", "--formula", "phi.txt"],
        ["lattice"],
    ],
)
def test_seed_is_not_a_query_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--group", "dihedral(4)", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_verify_unknown_suite_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--suites", "bogus", "--groups", "symmetric(3)")
    assert code == 2
    assert err.startswith("error:")
    assert "unknown suite" in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("cyclic(0)", "cyclic order must be at least 1"),
        ("dihedral(0)", "dihedral argument must be at least 1"),
        ("symmetric(0)", "symmetric degree must be at least 1"),
        ("alternating(0)", "alternating degree must be at least 1"),
        ("unitriangular(1)", "unitriangular argument must be a prime"),
        ("unitriangular(4)", "unitriangular argument must be a prime"),
        ("(3)", "expected a group name at position 0 of '(3)'"),
        ("cyclic", "group 'cyclic' needs arguments, as in cyclic(...)"),
        ("product(cyclic(2),cyclic(3)", "unclosed product(...) in 'product(cyclic(2),cyclic(3)'"),
        ("product(cyclic(2))", "product(...) needs at least two factors"),
        ("cyclic(3", "unclosed cyclic(...) in 'cyclic(3'"),
    ],
)
def test_catalog_input_errors_exit_2(capsys, spec, message):
    code, out, err = run(capsys, "info", "--group", spec)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_unknown_group_spec_exits_2(capsys):
    code, _, err = run(capsys, "info", "--group", "icosahedral(5)")
    assert code == 2
    assert err.startswith("error:")


def test_missing_formula_file_exits_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "eval", "--group", "cyclic(6)", "--formula", str(tmp_path / "nope.txt")
    )
    assert code == 2
    assert err.startswith("error:")


def test_bad_formula_reports_position(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("x = $", encoding="utf-8")
    code, _, err = run(capsys, "eval", "--group", "cyclic(6)", "--formula", str(path))
    assert code == 2
    assert "position" in err


def test_bad_subgroup_indices_exit_2(capsys):
    code, _, err = run(capsys, "dim", "--group", "dihedral(4)", "--subgroup", "0,x")
    assert code == 2
    assert "not an element index" in err


def test_envelope_of_non_nilpotent_exits_2(capsys):
    code, _, err = run(
        capsys, "envelope", "--group", "symmetric(3)", "--subgroup", "1,2"
    )
    assert code == 2
    assert err.startswith("error:")


def test_invalid_subgroup_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "dim", "--group", "dihedral(4)", "--subgroup", str(path))
    assert code == 2
    assert "not valid JSON" in err


def test_order_cap_on_loaded_file_exits_2(capsys, tmp_path):
    path = tmp_path / "s4.json"
    save_group(from_spec("symmetric(4)"), path)
    code, _, err = run(capsys, "info", "--group", str(path))
    assert code == 0 and err == ""
    a7 = {"kind": "perm", "name": "a7", "degree": 7, "generators": [[1, 2, 0, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]]}
    path.write_text(json.dumps(a7), encoding="utf-8")
    code, out, err = run(capsys, "info", "--group", str(path))
    assert code == 2 and out == ""
    assert err == "error: group order at least 2049 exceeds cap 2048\n"


@pytest.mark.parametrize("argv", [("dim",), ("lattice",), ("envelope", "--subgroup", "1")], ids=" ".join)
def test_centralizer_lattice_limit_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "extraspecial.json"
    save_group(extraspecial_2_1_8(), path)
    code, out, err = run(capsys, argv[0], "--group", str(path), *argv[1:])
    assert code == 2 and out == ""
    assert err == "error: centralizer lattice exceeds 20000 nodes\n"


def test_fitting_above_the_lattice_limit(capsys, tmp_path):
    path = tmp_path / "extraspecial.json"
    save_group(extraspecial_2_1_8(), path)
    code, out, err = run(capsys, "fitting", "--group", str(path))
    assert code == 0 and err == ""
    assert "fitting subgroup order: 512\n" in out


def test_order_cap_on_loaded_cayley_table_exits_2(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": "cayley", "table": [[0]] * 2049}), encoding="utf-8")
    code, out, err = run(capsys, "info", "--group", str(path))
    assert code == 2 and out == ""
    assert err == "error: group order 2049 exceeds cap 2048\n"


@pytest.mark.parametrize("name", _COMMANDS)
def test_cap_is_not_an_option(capsys, name):
    required = {"envelope": ["--subgroup", "1"], "eval": ["--formula", "phi.txt"]}
    group = [] if name == "verify" else ["--group", "dihedral(4)"]
    with pytest.raises(SystemExit) as exc:
        main([name, *group, *required.get(name, []), "--cap", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 10" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("info", "--group", "symmetric(7)"),
        ("info", "--group", "alternating(7)"),
        ("info", "--group", "cyclic(4096)"),
        ("info", "--group", "dihedral(1025)"),
        ("info", "--group", "unitriangular(13)"),
        ("verify", "--groups", "symmetric(7)"),
        ("info", "--group", "S7_FILE"),
        ("info", "--group", "S7_FILE", "--cap", "100000"),
    ],
    ids=" ".join,
)
def test_groups_over_the_order_limit_exit_2(capsys, tmp_path, argv):
    path = tmp_path / "s7.json"
    s7 = {"kind": "perm", "name": "s7", "degree": 7, "generators": [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]]}
    path.write_text(json.dumps(s7), encoding="utf-8")
    argv = [str(path) if a == "S7_FILE" else a for a in argv]
    if "--cap" in argv:
        # No option raises the fixed limit: the parser refuses --cap before the file is read.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --cap 100000" in captured.err
        return
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exceeds cap 2048" in err


_D4 = "dihedral(4)"
PARSER_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["in"],
    *([name, flag] for flag in ("-h", "--help") for name in _COMMANDS),
    ["info"],
    ["info", "--group"],
    ["info", "--group", _D4, "--cap", "x"],
    ["info", "--gro", _D4],
    ["info", "--group", _D4, "--seed", "1"],
    ["info", "--group", _D4, "stray"],
    ["info", "--group", _D4, "info"],
    ["info", "-x"],
    ["info", "--", "--group", _D4],
    ["--group", "x", "info"],
    ["Info", "--group", _D4],
    ["info", "--group", _D4],
    ["envelope", "--group", _D4],
    ["envelope", "--group", _D4, "--subgroup", "1", "--emit-formula"],
    ["dim", "--group", _D4, "--subgroup", "1"],
    ["series", "--group", _D4, "--subgroup", "x"],
    ["eval", "--group", "cyclic(2)"],
    ["lattice", "--group", "symmetric(3)", "--dot"],
    ["fitting", "--group", "symmetric(4)", "extra", "more"],
    ["verify", "--seed", "x"],
    ["verify", "--groups", "cyclic(2)", "--suites", "hallwitt", "--triples", "3", "--bogus"],
    ["verify", "--groups", "cyclic(2)", "--suites", "hallwitt", "--seed", "3"],
]


def _outcome(capsys, call, argv):
    """Exit code, stdout and stderr of one call, with verify's suite timings masked."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, re.sub(r"elapsed=\d+\.\d+s", "elapsed=*", captured.out), captured.err


def _full_parser_main(argv):
    """The reference for main: the parser of every command, then the handler."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except _KNOWN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_main_matches_the_full_parser(capsys, monkeypatch, argv):
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert _outcome(capsys, main, list(argv)) == _outcome(capsys, _full_parser_main, list(argv))


def test_a_call_builds_only_its_own_command(monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting_add_parser(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
    assert main(["info", "--group", "dihedral(4)"]) == 0
    assert built == ["info"]


_PERM = {"kind": "perm", "degree": 3}


@pytest.mark.parametrize(
    "argv, content, message",
    [
        (("info", "--group", "FILE"), b"\xff\xfe{}", "not UTF-8 text"),
        (("dim", "--group", "dihedral(4)", "--subgroup", "FILE"), b"\xff\xfe{}", "not UTF-8 text"),
        (("eval", "--group", "cyclic(2)", "--formula", "FILE"), b"\xff\xfex = x", "not UTF-8 text"),
        (("info", "--group", "FILE"), b"[" * 100_000, "not valid JSON"),
        (("dim", "--group", "dihedral(4)", "--subgroup", "FILE"), b"[" * 100_000, "not valid JSON"),
        (("info", "--group", "FILE"), b'{"kind": "cayley", "table": [[' + b"1" * 5000 + b"]]}", "not valid JSON"),
        (("dim", "--group", "dihedral(4)", "--subgroup", "FILE"), b'{"generators": 5}', "must be a list"),
        (("info", "--group", "FILE"), json.dumps({**_PERM, "generators": 5}).encode(), "must be a list"),
        (("info", "--group", "FILE"), json.dumps({**_PERM, "generators": [[0, 1, "a"]]}).encode(), "not a permutation"),
        (("info", "--group", "FILE"), json.dumps({**_PERM, "generators": [[1.0, 0, 2]]}).encode(), "not a permutation"),
        (
            ("verify", "--groups", "cyclic(2)", "--suites", "hallwitt", "--group-file", "FILE"),
            json.dumps({**_PERM, "name": [1], "generators": []}).encode(),
            "name must be a string",
        ),
        (("eval", "--group", "cyclic(2)", "--formula", "FILE"), b"!" * 3000 + b"x = x", "nested deeper than"),
        (("eval", "--group", "cyclic(2)", "--formula", "FILE"), b"*".join([b"x"] * 3001) + b" = x", "nested deeper than"),
    ],
    ids=[
        "group-not-utf8",
        "subgroup-not-utf8",
        "formula-not-utf8",
        "group-deep-json",
        "subgroup-deep-json",
        "group-5000-digit-int",
        "subgroup-generators-int",
        "perm-generators-int",
        "perm-entry-str",
        "perm-entry-float",
        "group-name-list",
        "formula-3000-negations",
        "formula-3001-factors",
    ],
)
def test_malformed_input_files_exit_2(capsys, tmp_path, argv, content, message):
    path = tmp_path / "input"
    path.write_bytes(content)
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


_NINES = "9" * 5000
_VERIFY = ("verify", "--groups", "cyclic(2)", "--suites", "hallwitt")


@pytest.mark.parametrize(
    "argv, formula, message",
    [
        (("info", "--group", "cyclic(²)"), None, "cyclic(...) needs an integer argument"),
        (("info", "--group", "cyclic(١٢)"), None, "cyclic(...) needs an integer argument"),
        (("info", "--group", f"cyclic({_NINES})"), None, "argument at position 7 has too many digits"),
        (("dim", "--group", "symmetric(4)", "--subgroup", "1_0"), None, "'1_0' is not an element index"),
        (("dim", "--group", "symmetric(4)", "--subgroup", "+1"), None, "'+1' is not an element index"),
        (("dim", "--group", "symmetric(4)", "--subgroup", "1,١"), None, "'١' is not an element index"),
        (("dim", "--group", "symmetric(4)", "--subgroup", f"1, {_NINES}"), None, "index at position 3 has too many digits"),
        (("eval", "--group", "cyclic(4)", "--formula", "FILE", "--params", "0,1,2,3"), "x = p٣", "free variables: p٣"),
        (("eval", "--group", "cyclic(4)", "--formula", "FILE"), f"x = p{_NINES}", "too many digits (at position 4)"),
        (_VERIFY + ("--seed", "1_0"), None, "seed must be a decimal integer, not '1_0'"),
        (_VERIFY + ("--seed", "١٢"), None, "seed must be a decimal integer, not '١٢'"),
        (_VERIFY + ("--seed", _NINES), None, "seed has too many digits"),
        (_VERIFY + ("--seed=-1_0",), None, "seed must be a decimal integer, not '-1_0'"),
        (_VERIFY + ("--seed", "-١٢"), None, "seed must be a decimal integer, not '-١٢'"),
        (_VERIFY + ("--seed", "-" + _NINES), None, "seed has too many digits"),
    ],
    ids=[
        "spec-superscript",
        "spec-arabic-indic",
        "spec-5000-digits",
        "index-underscore",
        "index-plus",
        "index-arabic-indic",
        "index-5000-digits",
        "param-arabic-indic",
        "param-5000-digits",
        "seed-underscore",
        "seed-arabic-indic",
        "seed-5000-digits",
        "seed-minus-underscore",
        "seed-minus-arabic-indic",
        "seed-minus-5000-digits",
    ],
)
def test_decimal_integers_are_ascii_and_exact(capsys, tmp_path, argv, formula, message):
    path = tmp_path / "phi.txt"
    if formula is not None:
        path.write_text(formula, encoding="utf-8")
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


def _nested_spec(levels: int) -> str:
    """A spec of the trivial group holding ``levels`` brackets open at once."""
    return "product(cyclic(1)," * (levels - 1) + "cyclic(1)" + ")" * (levels - 1)


def test_specs_nest_at_most_150_levels(capsys):
    code, out, err = run(capsys, "info", "--group", _nested_spec(150))
    assert code == 0 and err == "" and "order: 1" in out
    # the first factor of the 150th product opens the 151st bracket, at 149 * 18 + 14
    code, out, err = run(capsys, "info", "--group", _nested_spec(151))
    assert (code, out) == (2, "")
    assert err == "error: group spec nested deeper than 150 levels at position 2696\n"
    code, out, err = run(capsys, "info", "--group", "product(" * 1200)
    assert (code, out) == (2, "")
    assert err == "error: group spec nested deeper than 150 levels at position 1207\n"


def test_every_error_but_internal_check_is_an_input_error():
    classes = [v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)]
    assert errors.InternalCheckError in classes
    for cls in classes:
        assert issubclass(cls, errors.InputError) == (cls is not errors.InternalCheckError), cls
        # each keeps its builtin base
        assert cls is errors.InputError or issubclass(cls, (ValueError, RuntimeError)), cls
    assert _KNOWN_ERRORS == (errors.InputError, OSError)
