"""CLI behavior: outputs, exit codes, formats, and failure demos."""

from __future__ import annotations

import ast
import csv
import io
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from prmhull import analyze, cli, exactla, prm, sweep
from prmhull.cli import (
    EXIT_BUDGET,
    EXIT_DISAGREE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from prmhull.exactla import MatrixFq
from prmhull.sweep import SweepSpec, run_sweep
from prmhull.field import field_make
from prmhull.prm import prm_code

TETRACODE_PAIRS = {0: 1, 3: 8}


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# params


def test_params_proper_point(capsys):
    code, out, _ = run(["params", "--n", "3", "--k", "3", "--q", "3"], capsys)
    assert code == EXIT_OK
    assert "N=40 K=20 D_formula=9" in out


def test_params_json_fields(capsys):
    code, out, _ = run(
        ["params", "--n", "2", "--k", "1", "--q", "3", "--json"], capsys
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == {
        "n": 2,
        "k": 1,
        "q": 3,
        "N": 13,
        "regime": "proper",
        "K": 3,
        "K_sorensen": 3,
        "K_mr": 3,
        "D_formula": 9,
    }


def test_params_full_space_regime(capsys):
    code, out, _ = run(["params", "--n", "1", "--k", "5", "--q", "3"], capsys)
    assert code == EXIT_OK
    assert "full-space" in out and "N=4 K=4 D=1" in out


def test_params_span_one_regime(capsys):
    code, out, _ = run(["params", "--n", "2", "--k", "0", "--q", "3"], capsys)
    assert code == EXIT_OK
    assert "span-one" in out


def test_params_emit_matrix_roundtrip(capsys):
    code, out, _ = run(
        ["params", "--n", "1", "--k", "1", "--q", "3", "--emit-matrix"], capsys
    )
    assert code == EXIT_OK
    text = out[out.index("3 2 4") :]
    M = MatrixFq.from_text(text)
    assert np.array_equal(M.a, prm_code(field_make(3), 1, 1).G.a)


# ---------------------------------------------------------------------------
# classify


def test_classify_self_dual_point(capsys):
    code, out, _ = run(["classify", "--n", "1", "--k", "1", "--q", "3"], capsys)
    assert code == EXIT_OK
    assert "agree: yes" in out


def test_classify_json_schema(capsys):
    code, out, _ = run(
        ["classify", "--n", "2", "--k", "3", "--q", "5", "--json"], capsys
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["predicted"]["hull_dim"] == 7
    assert payload["constructed"]["hull_dim"] == 7
    assert payload["agree"] is True
    assert payload["hull_dim_source"] == "closed-form"
    assert set(payload) == {
        "n", "k", "q", "N", "K", "D_formula",
        "predicted", "constructed", "agree", "hull_dim_source",
    }


def test_classify_disagreement_exits_2(capsys, monkeypatch):
    real = cli.classification_report

    def broken(field, n, k):
        rep = real(field, n, k)
        rep.agree = False
        return rep

    monkeypatch.setattr(cli, "classification_report", broken)
    code, _, _ = run(["classify", "--n", "1", "--k", "1", "--q", "3"], capsys)
    assert code == EXIT_DISAGREE


def test_classify_bad_k_is_usage_error(capsys):
    code, _, err = run(["classify", "--n", "1", "--k", "0", "--q", "3"], capsys)
    assert code == EXIT_USAGE
    assert "OutOfRange" in err


# ---------------------------------------------------------------------------
# hull


def test_hull_small_degree_case_label(capsys):
    code, out, _ = run(
        ["hull", "--n", "2", "--k", "1", "--q", "5", "--emit-basis"], capsys
    )
    assert code == EXIT_OK
    assert "dim=2" in out and "q>2k+1" in out
    assert "x0: in-hull=yes" in out and "x1: in-hull=yes" in out
    assert "verified=yes" in out


def test_hull_no_closed_form_point(capsys):
    code, out, _ = run(
        ["hull", "--n", "3", "--k", "4", "--q", "4", "--json"], capsys
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["closed_form"] == "no-closed-form"
    assert payload["cases"] == []
    assert payload["hull_dim"] == 24
    assert payload["agree"] is True


@pytest.mark.parametrize("emit_basis", [False, True])
def test_hull_gap_point_text(capsys, emit_basis):
    argv = ["hull", "--n", "3", "--k", "4", "--q", "4"] + ["--emit-basis"] * emit_basis
    code, out, _ = run(argv, capsys)
    assert code == EXIT_OK
    assert out == (
        "hull of C(n=3, k=4, q=4): dim=24 gram_rank=11 K=35\n"
        "closed-form: no-closed-form (value above is constructive)\n"
        + "predicted basis: no-closed-form\n" * emit_basis
        + "agree: yes\n"
    )


def test_hull_emit_basis_text_names_squares(capsys):
    code, out, _ = run(["hull", "--n", "2", "--k", "2", "--q", "7", "--emit-basis"], capsys)
    assert code == EXIT_OK
    assert out == (
        "hull of C(n=2, k=2, q=7): dim=5 gram_rank=1 K=6\n"
        "closed-form: 5 via case q>2k+1\n"
        "  x0^2: in-hull=yes\n"
        "  x0*x1: in-hull=yes\n"
        "  x0*x2: in-hull=yes\n"
        "  x1^2: in-hull=yes\n"
        "  x1*x2: in-hull=yes\n"
        "predicted basis: 5 monomials, verified=yes\n"
        "agree: yes\n"
    )


def test_hull_emit_matrix_parses(capsys):
    code, out, _ = run(
        ["hull", "--n", "2", "--k", "1", "--q", "5", "--emit-matrix"], capsys
    )
    assert code == EXIT_OK
    text = out[out.index("5 2 31") :]
    M = MatrixFq.from_text(text)
    assert (M.rows, M.cols) == (2, 31)


def test_hull_disagreement_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(prm, "hull_dim_predicted", lambda n, k, q: 999)
    code, out, _ = run(["hull", "--n", "2", "--k", "1", "--q", "5"], capsys)
    assert code == EXIT_DISAGREE
    assert "agree: no" in out


def _predict_every_linear_monomial(monkeypatch):
    # x0 and x1 already span the hull of C(2, 1, 5), so x2 lies outside it
    monkeypatch.setattr(
        prm, "hull_basis_predicted", lambda n, k, q: [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    )


def test_hull_failing_basis_check_text(capsys, monkeypatch):
    _predict_every_linear_monomial(monkeypatch)
    code, out, _ = run(["hull", "--n", "2", "--k", "1", "--q", "5", "--emit-basis"], capsys)
    assert code == EXIT_DISAGREE
    assert out == (
        "hull of C(n=2, k=1, q=5): dim=2 gram_rank=1 K=3\n"
        "closed-form: 2 via case q>2k+1\n"
        "  x0: in-hull=yes\n"
        "  x1: in-hull=yes\n"
        "  x2: in-hull=no\n"
        "predicted basis: 3 monomials, verified=no\n"
        "agree: no\n"
    )


def test_hull_failing_basis_check_json(capsys, monkeypatch):
    _predict_every_linear_monomial(monkeypatch)
    argv = ["hull", "--n", "2", "--k", "1", "--q", "5", "--emit-basis", "--json"]
    code, out, _ = run(argv, capsys)
    assert code == EXIT_DISAGREE
    payload = json.loads(out)
    assert payload["basis_monomials"] == ["1,0,0", "0,1,0", "0,0,1"]
    assert payload["basis_verified"] is False and payload["agree"] is False
    assert '"basis_verified": false' in out


# ---------------------------------------------------------------------------
# dual-check


def test_dual_check_adjoin_point(capsys):
    code, out, _ = run(["dual-check", "--n", "2", "--k", "2", "--q", "3"], capsys)
    assert code == EXIT_OK
    assert "ell=2" in out and "adjoin_ones=yes" in out
    assert "row-space equality: yes" in out


def test_dual_check_builds_each_code_once(capsys, monkeypatch):
    # At (2, 2, 3) the dual-side degree n(q-1) - k is k itself, so the
    # degree-ell code is C: one build, which the duality check reuses for
    # the described dual and for the all-ones test.
    real = prm.prm_code
    built = []

    def spy(field, n, k):
        built.append(k)
        return real(field, n, k)

    monkeypatch.setattr(cli, "prm_code", spy)
    monkeypatch.setattr(prm, "prm_code", spy)
    code, out, _ = run(["dual-check", "--n", "2", "--k", "2", "--q", "3"], capsys)
    assert code == EXIT_OK and "agree: yes" in out
    assert built == [2]


def test_dual_check_self_dual_degree_builds_and_reduces_once(capsys, monkeypatch):
    # At (3, 12, 9) the degree-ell code is C, with no all-ones row
    # adjoined: one evaluation and one row reduction, as in the sweep.
    real_code, real_rref = prm.prm_code, exactla._rref_array
    built, reduced = [], []

    def spy_code(field, n, k):
        built.append(k)
        return real_code(field, n, k)

    def spy_rref(field, A):
        reduced.append(A.shape)
        return real_rref(field, A)

    monkeypatch.setattr(cli, "prm_code", spy_code)
    monkeypatch.setattr(prm, "prm_code", spy_code)
    monkeypatch.setattr(exactla, "_rref_array", spy_rref)
    code, out, _ = run(["dual-check", "--n", "3", "--k", "12", "--q", "9"], capsys)
    assert code == EXIT_OK
    assert out == (
        "dual of C(n=3, k=12, q=9): degree ell=12, adjoin_ones=no\n"
        "row-space equality: yes\n"
        "agree: yes\n"
    )
    assert (built, reduced) == ([12], [(410, 820)])


def test_dual_check_plain_point_json(capsys):
    code, out, _ = run(
        ["dual-check", "--n", "2", "--k", "3", "--q", "5", "--json"], capsys
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ell"] == 5
    assert payload["adjoin_ones"] is False
    assert payload["ones_outside_base"] is None
    assert payload["dual_verified"] is True and payload["agree"] is True


# ---------------------------------------------------------------------------
# wenum


def test_wenum_tetracode_text(capsys):
    code, out, err = run(["wenum", "--n", "1", "--k", "1", "--q", "3"], capsys)
    assert code == EXIT_OK
    assert "x^4 + 8xy^3" in out
    assert "min nonzero weight: 3" in out
    assert "enumerated 9 codewords" in err


def test_wenum_json_pairs(capsys):
    code, out, _ = run(
        ["wenum", "--n", "1", "--k", "1", "--q", "3", "--json"], capsys
    )
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["pairs"] == [[0, 1], [3, 8]]
    assert payload["total"] == 9
    assert payload["polynomial"] == "x^4 + 8xy^3"


def test_wenum_large_degree_is_the_full_space_at_once(capsys):
    # Past n(q-1) the code is the whole space; degree 10^8 + 1 builds the
    # same monomials as degree 3 without walking every degree below it.
    pairs = []
    for k in ("3", "100000001"):
        code, out, _ = run(["wenum", "--n", "1", "--k", k, "--q", "3", "--json"], capsys)
        assert code == EXIT_OK
        pairs.append(json.loads(out)["pairs"])
    assert pairs[0] == pairs[1] == [[0, 1], [1, 8], [2, 24], [3, 32], [4, 16]]


def test_wenum_csv_rows(capsys):
    code, out, _ = run(
        ["wenum", "--n", "1", "--k", "1", "--q", "3", "--csv"], capsys
    )
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["weight", "count"], ["0", "1"], ["3", "8"]]


def test_wenum_worker_count_does_not_change_payload(capsys, monkeypatch):
    monkeypatch.setattr(analyze, "_MIN_WORKER_STEPS", 1)
    _, out1, _ = run(["wenum", "--n", "2", "--k", "1", "--q", "3"], capsys)
    _, out3, _ = run(
        ["wenum", "--n", "2", "--k", "1", "--q", "3", "--workers", "3"], capsys
    )
    assert out1 == out3


def test_removed_flags_are_usage_errors(capsys):
    code, _, _ = run(["wenum", "--n", "1", "--k", "1", "--q", "3", "--seed", "42"], capsys)
    assert code == EXIT_USAGE
    code, _, _ = run(["sweep", "--n", "1", "--q", "3", "--workers", "2"], capsys)
    assert code == EXIT_USAGE


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_worker_counts_below_one_are_usage_errors(workers, capsys):
    for argv in (
        ["wenum", "--n", "1", "--k", "1", "--q", "3"],
        ["design", "--n", "1", "--k", "1", "--q", "3"],
        ["selftest"],
    ):
        code, out, err = run(argv + ["--workers", workers], capsys)
        assert code == EXIT_USAGE and out == "", argv
        assert "--workers: must be at least 1" in err, argv


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budgets_below_one_are_usage_errors(budget, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "prm_code", never)
    monkeypatch.setattr(cli, "_selftest_steps", never)
    for argv in (
        ["wenum", "--n", "1", "--k", "1", "--q", "3"],
        ["design", "--n", "1", "--k", "1", "--q", "3"],
        ["selftest"],
    ):
        code, out, err = run(argv + ["--budget", budget], capsys)
        assert code == EXIT_USAGE and out == "", argv
        assert "--budget: must be at least 1" in err, argv


def test_non_integer_budget_is_a_usage_error(capsys):
    code, out, err = run(["wenum", "--n", "1", "--k", "1", "--q", "3", "--budget", "abc"], capsys)
    assert code == EXIT_USAGE and out == ""
    assert "invalid int value: 'abc'" in err


def test_wenum_budget_exceeded_exits_3(capsys):
    code, _, err = run(
        ["wenum", "--n", "2", "--k", "2", "--q", "5", "--budget", "100"], capsys
    )
    assert code == EXIT_BUDGET
    assert "BudgetExceeded" in err


def test_wenum_read_matrix(tmp_path, capsys):
    path = tmp_path / "tetra.txt"
    path.write_text(prm_code(field_make(3), 1, 1).G.to_text())
    code, out, _ = run(["wenum", "--read-matrix", str(path)], capsys)
    assert code == EXIT_OK
    assert "x^4 + 8xy^3" in out


def test_wenum_read_matrix_entry_out_of_range(tmp_path, capsys):
    # entries past int32 too: read as given, not wrapped before the check
    path = tmp_path / "bad.txt"
    for row in ("1 3", "99999999999 1", "-99999999999 1"):
        path.write_text(f"3 1 2\n{row}\n")
        code, out, err = run(["wenum", "--read-matrix", str(path)], capsys)
        assert code == EXIT_USAGE and out == "", row
        assert err.startswith("error: bad matrix file") and "Traceback" not in err, row


@pytest.mark.parametrize("text", ["", "3 2\n0 1\n"])
def test_wenum_read_matrix_malformed_text(tmp_path, capsys, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(["wenum", "--read-matrix", str(path)], capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: bad matrix file") and "Traceback" not in err


def test_wenum_read_matrix_with_check_paper_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "tetra.txt"
    path.write_text(prm_code(field_make(3), 1, 1).G.to_text())
    code, out, err = run(["wenum", "--read-matrix", str(path), "--check-paper"], capsys)
    assert code == EXIT_USAGE and out == ""
    assert err == "error: --check-paper applies only to --n/--k/--q codes\n"


def test_wenum_read_matrix_missing_file(capsys):
    code, _, err = run(["wenum", "--read-matrix", "/nope/missing.txt"], capsys)
    assert code == EXIT_USAGE
    assert "cannot read matrix file" in err


def test_wenum_needs_point_or_matrix(capsys):
    code, _, err = run(["wenum", "--n", "1", "--k", "1"], capsys)
    assert code == EXIT_USAGE
    assert "--read-matrix" in err


# ---------------------------------------------------------------------------
# the embedded reference and its failure demo


def test_reference_check_pass(capsys, monkeypatch):
    monkeypatch.setitem(
        cli.REFERENCE_WEIGHT_DISTRIBUTIONS, (1, 1, 3), dict(TETRACODE_PAIRS)
    )
    code, out, _ = run(
        ["wenum", "--n", "1", "--k", "1", "--q", "3", "--check-paper"], capsys
    )
    assert code == EXIT_OK
    assert "reference check: PASS" in out


def test_reference_check_fail_demo(capsys, monkeypatch):
    corrupted = dict(TETRACODE_PAIRS)
    corrupted[3] = 7  # deliberately wrong count
    monkeypatch.setitem(cli.REFERENCE_WEIGHT_DISTRIBUTIONS, (1, 1, 3), corrupted)
    code, out, _ = run(
        ["wenum", "--n", "1", "--k", "1", "--q", "3", "--check-paper"], capsys
    )
    assert code == EXIT_DISAGREE
    assert "reference check: FAIL at weight 3: expected 7, got 8" in out


def test_check_paper_without_a_reference_fails_before_the_scan(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("scanned")

    monkeypatch.setattr(cli, "weight_distribution", never)
    code, out, err = run(
        ["wenum", "--n", "3", "--k", "2", "--q", "5", "--check-paper"], capsys
    )
    assert code == EXIT_USAGE and out == ""
    assert err == "error: no embedded reference distribution for (n,k,q)=(3, 2, 5)\n"


def _reference_distribution():
    ref = cli.REFERENCE_WEIGHT_DISTRIBUTIONS[(3, 3, 3)]
    return analyze.WeightDistribution([ref.get(w, 0) for w in range(41)])


C333_PAIRS = [
    [0, 1], [9, 1040], [12, 18720], [15, 1100736], [18, 25761840],
    [21, 236377440], [24, 908079120], [27, 1388750720], [30, 783679104],
    [33, 137535840], [36, 5468320], [39, 11520],
]


@pytest.mark.parametrize("fmt", ["--json", "--csv"])
def test_reference_check_flagship_payloads(capsys, monkeypatch, fmt):
    # The scan is replaced by the embedded reference, so no 3^20 scan runs.
    monkeypatch.setattr(
        cli, "weight_distribution", lambda C, budget, workers: _reference_distribution()
    )
    argv = ["wenum", "--n", "3", "--k", "3", "--q", "3", "--check-paper", fmt]
    code, out, err = run(argv, capsys)
    assert code == EXIT_OK
    assert err.startswith("enumerated 3486784401 codewords in ")
    if fmt == "--csv":
        rows = "".join(f"{w},{c}\r\n" for w, c in C333_PAIRS)
        assert out == "weight,count\r\n" + rows
        assert err.endswith("s\nreference check: PASS (12 coefficients match)\n")
        return
    polynomial = (
        "x^40 + 1040x^31y^9 + 18720x^28y^12 + 1100736x^25y^15 + 25761840x^22y^18"
        " + 236377440x^19y^21 + 908079120x^16y^24 + 1388750720x^13y^27"
        " + 783679104x^10y^30 + 137535840x^7y^33 + 5468320x^4y^36 + 11520xy^39"
    )
    payload = {
        "N": 40,
        "K": 20,
        "q": 3,
        "total": 3486784401,
        "min_nonzero_weight": 9,
        "pairs": C333_PAIRS,
        "polynomial": polynomial,
        "n": 3,
        "k": 3,
        "reference_check": "pass",
    }
    assert out == json.dumps(payload, indent=2) + "\n"


def test_reference_check_unknown_point(capsys):
    code, _, err = run(
        ["wenum", "--n", "1", "--k", "2", "--q", "3", "--check-paper"], capsys
    )
    assert code == EXIT_USAGE
    assert "no embedded reference" in err


def test_selftest_catches_corrupted_reference(capsys, monkeypatch):
    corrupted = dict(cli.REFERENCE_WEIGHT_DISTRIBUTIONS[(3, 3, 3)])
    corrupted[39] = 11521  # breaks the sum-to-3^20 identity
    monkeypatch.setitem(cli.REFERENCE_WEIGHT_DISTRIBUTIONS, (3, 3, 3), corrupted)
    code, out, _ = run(["selftest"], capsys)
    assert code == EXIT_INTERNAL
    assert "FAIL embedded-reference-consistency" in out
    assert "selftest: FAIL" in out


def test_selftest_catches_corrupted_reference_under_optimize():
    # python -O strips assert statements, so selftest checks must not rely on them.
    script = (
        "import sys\n"
        "from prmhull import cli\n"
        "cli.REFERENCE_WEIGHT_DISTRIBUTIONS[(3, 3, 3)][9] = 1041\n"
        "sys.exit(cli.main(['selftest']))\n"
    )
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == EXIT_INTERNAL, proc.stdout + proc.stderr
    assert "FAIL embedded-reference-consistency" in proc.stdout
    assert "selftest: FAIL" in proc.stdout


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so library checks must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_field_reads_the_digit_encoding():
    # Indices split into base-p digits, and logs are taken, in one place:
    # every other module goes through Field.digits, Field.from_digits,
    # Field.vmul and Field.power_products.
    private = {"_powers_of_p", "_digit_table", "_log", "_exp"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py"))
        if path.name != "field.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in private)
        or (isinstance(node, ast.Constant) and node.value in private)
    ]
    assert found == []


def test_only_exactla_holds_the_complement_link():
    # C^⊥ is held once, as the complement cached on C's canonical basis:
    # only exactla reads or writes that cache, and no module keeps a second
    # copy of the dual on a code.
    found = [
        f"{path.name}:{node.lineno} {node.attr}"
        for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute)
        and (
            (node.attr == "_complement" and path.name != "exactla.py")
            or (node.attr == "_dual" and isinstance(node.ctx, ast.Store))
        )
    ]
    assert found == []


def test_only_adopt_dual_and_complement_link_a_complement():
    # A basis becomes C^⊥ in one place: adopt_dual, after its proof. A
    # complement formed on a read is linked to nothing.
    callers = [
        f"{path.name}:{fn.name}"
        for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "link_complement"
    ]
    assert callers == ["code.py:adopt_dual"]
    assert not hasattr(exactla.SubspaceBasis, "form_complement")


def test_no_module_imports_a_private_name_of_another():
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "prmhull")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_cli_imports_no_hull_judgement():
    # A point's hull is judged in prmhull.prm; the hull command only renders it.
    path = Path(cli.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    judged = {"hull", "hull_dim_cases", "hull_dim_predicted", "hull_basis_predicted"}
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = [node.module or "" for node in imports if isinstance(node, ast.ImportFrom)]
    modules += [a.name for node in imports if isinstance(node, ast.Import) for a in node.names]
    names = {a.name for node in imports for a in node.names}
    assert [m for m in modules if m.split(".")[-1] == "geometry"] == []
    assert names & judged == set()


def test_oracles_import_nothing_from_the_package():
    # The test oracles are references for the package's results, so they
    # share none of its code.
    path = Path(__file__).resolve().parent / "oracles.py"
    nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
    imported = [node.module or "" for node in nodes if isinstance(node, ast.ImportFrom)]
    imported += [a.name for node in nodes if isinstance(node, ast.Import) for a in node.names]
    assert imported and [m for m in imported if m.split(".")[0] == "prmhull"] == []


def test_embedded_reference_agrees_with_formula_distance():
    ref = cli.REFERENCE_WEIGHT_DISTRIBUTIONS[(3, 3, 3)]
    assert sum(ref.values()) == 3**20
    assert min(w for w in ref if w > 0) == 9
    des = cli.REFERENCE_DESIGNS[(3, 3, 3)]
    assert des == {"w": 9, "t": 2, "words": 1040, "blocks": 520, "lambda": 24}


# ---------------------------------------------------------------------------
# design


def test_design_tetracode_is_1_design(capsys):
    code, out, _ = run(
        ["design", "--n", "1", "--k", "1", "--q", "3", "--w", "3", "--t", "1"],
        capsys,
    )
    assert code == EXIT_OK
    assert "1-(4, 3, 3)" in out


def test_design_t_is_checked_before_the_scan(capsys, monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("scanned")

    monkeypatch.setattr(cli, "weight_distribution_with_supports", scan)
    for t in ("0", "-2"):
        code, out, err = run(
            ["design", "--n", "1", "--k", "1", "--q", "3", "--t", t], capsys
        )
        assert code == EXIT_USAGE and out == "", t
        assert "--t: must be at least 1" in err, t


def test_design_below_distance_not_a_design(capsys):
    code, out, _ = run(
        ["design", "--n", "1", "--k", "1", "--q", "3", "--w", "2", "--t", "1"],
        capsys,
    )
    assert code == EXIT_OK
    assert "NotADesign" in out


def test_design_default_weight_is_formula_distance(capsys):
    code, out, _ = run(
        ["design", "--n", "1", "--k", "1", "--q", "3", "--json"], capsys
    )
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["w"] == 3
    assert payload["words"] == 8 and payload["blocks"] == 4
    assert payload["lambda"] == 2  # every pair of the 4 points lies in 2 blocks


def test_design_span_one_default_weight_is_the_length(capsys):
    # k = 0: the span of the all-ones word, whose two nonzero words share one support
    code, out, _ = run(["design", "--n", "1", "--k", "0", "--q", "3"], capsys)
    assert code == EXIT_OK
    assert "2 words of weight 4, 1 distinct supports" in out
    assert "2-(4, 4, 1)" in out
    code, out, _ = run(["design", "--n", "2", "--k", "0", "--q", "3", "--json"], capsys)
    payload = json.loads(out)
    assert code == EXIT_OK
    assert (payload["w"], payload["blocks"], payload["lambda"]) == (13, 1, 1)


def test_design_full_space_default_weight_is_one(capsys):
    code, out, _ = run(
        ["design", "--n", "1", "--k", "3", "--q", "3", "--t", "1"], capsys
    )
    assert code == EXIT_OK
    assert "8 words of weight 1, 4 distinct supports" in out
    assert "1-(4, 1, 1)" in out


def test_design_explicit_weight_outside_the_proper_range(capsys):
    code, out, _ = run(
        ["design", "--n", "1", "--k", "0", "--q", "3", "--w", "3", "--t", "1"], capsys
    )
    assert code == EXIT_OK
    assert "0 words of weight 3, 0 distinct supports" in out
    assert "NotADesign" in out
    code, out, _ = run(
        ["design", "--n", "1", "--k", "3", "--q", "3", "--w", "2", "--json"], capsys
    )
    payload = json.loads(out)
    assert code == EXIT_OK
    assert (payload["words"], payload["blocks"], payload["lambda"]) == (24, 6, 1)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_small_grid_all_agree(capsys):
    code, out, err = run(["sweep", "--n", "1,2", "--q", "2,3,4,5"], capsys)
    assert code == EXIT_OK
    assert "sweep summary: points=30 agree=30 disagree=0 no-closed-form=0" in out
    assert "sweep q=5 n=2" in err


def test_sweep_repeated_grid_values_run_once(capsys):
    code, out, err = run(
        ["sweep", "--n", "1,1", "--q", "5,3,5,3", "--k", "1,1", "--json"], capsys
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [(r["q"], r["n"], r["k"]) for r in payload["rows"]] == [(5, 1, 1), (3, 1, 1)]
    assert payload["summary"]["points"] == 2
    assert err.count("sweep q=") == 2


def test_sweep_csv_schema(capsys):
    code, out, _ = run(["sweep", "--n", "1", "--q", "3", "--csv"], capsys)
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert list(rows[0]) == cli._CSV_COLUMNS
    assert all(r["agree"] == "true" for r in rows)


def test_sweep_json_no_closed_form_flag(capsys):
    code, out, _ = run(
        ["sweep", "--n", "3", "--q", "4", "--k", "4", "--json"], capsys
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["predicted"]["hull_dim"] == "no-closed-form"
    assert row["hull_dim_source"] == "constructive"
    assert row["constructed"]["hull_dim"] == 24
    assert payload["summary"]["no_closed_form"] == 1


def test_sweep_distance_verification(capsys):
    code, out, _ = run(
        ["sweep", "--n", "1,2", "--q", "3", "--json", "--distances", "100000"],
        capsys,
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    measured = 0
    for row in payload["rows"]:
        if 3 ** row["K"] <= 100000:
            measured += 1
            assert row["distance_matches_formula"] is True
            assert row["min_distance"] == row["D_formula"]
        else:
            assert row["min_distance"] is None
    assert measured == 5  # K = 2, 3, 3, 6, 10 fit under the limit; K = 12 does not


def test_sweep_distances_table_text(capsys):
    code, out, _ = run(["sweep", "--n", "1,2", "--q", "3", "--distances", "100"], capsys)
    assert code == EXIT_OK
    assert out == (
        "q=3 n=1 k= 1  [4,2] D=3  SD=yes SO=yes LCD=no hull=2 (closed-form)  ok\n"
        "q=3 n=1 k= 2  [4,3] D=2  SD=no SO=no LCD=yes hull=0 (closed-form)  ok\n"
        "q=3 n=2 k= 1  [13,3] D=9  SD=no SO=yes LCD=no hull=3 (closed-form)  ok\n"
        "q=3 n=2 k= 2  [13,6]  SD=no SO=yes LCD=no hull=6 (closed-form)  ok\n"
        "q=3 n=2 k= 3  [13,10]  SD=no SO=no LCD=no hull=3 (closed-form)  ok\n"
        "q=3 n=2 k= 4  [13,12]  SD=no SO=no LCD=yes hull=0 (closed-form)  ok\n"
        "sweep summary: points=6 agree=6 disagree=0 no-closed-form=0\n"
    )


def test_sweep_negative_distances_is_a_usage_error(capsys):
    # LIMIT 0 keeps distance checks off, as when the flag is absent.
    argv = ["sweep", "--n", "1", "--q", "2", "--json"]
    code, out, err = run(argv + ["--distances", "-5"], capsys)
    assert code == EXIT_USAGE and out == ""
    assert "--distances: must be at least 0" in err
    code_off, out_off, _ = run(argv + ["--distances", "0"], capsys)
    code_default, out_default, _ = run(argv, capsys)
    assert code_off == code_default == EXIT_OK and out_off == out_default
    assert all(row["min_distance"] is None for row in json.loads(out_off)["rows"])


def test_sweep_out_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run(
        ["sweep", "--n", "1", "--q", "2", "--csv", "--out", str(path)], capsys
    )
    assert code == EXIT_OK
    assert "sweep summary" in out
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 1 and rows[0]["n"] == "1" and rows[0]["q"] == "2"


def test_sweep_json_out_file_prints_only_the_summary(tmp_path, capsys):
    path = tmp_path / "rows.json"
    code, out, _ = run(
        ["sweep", "--n", "1", "--q", "2,3", "--json", "--out", str(path)], capsys
    )
    assert code == EXIT_OK
    assert out == "sweep summary: points=3 agree=3 disagree=0 no-closed-form=0\n"
    payload = json.loads(path.read_text())
    assert payload["summary"]["points"] == len(payload["rows"]) == 3


def test_sweep_rejects_non_prime_power(capsys):
    code, _, err = run(["sweep", "--n", "1", "--q", "6"], capsys)
    assert code == EXIT_USAGE
    assert "NotPrimePower" in err


def test_sweep_empty_k_list_usage_error(capsys):
    code, _, err = run(["sweep", "--n", "1", "--q", "3", "--k", ""], capsys)
    assert code == EXIT_USAGE
    assert "--k" in err


def test_sweep_non_integer_list_item_is_a_usage_error(capsys):
    code, out, err = run(["sweep", "--n", "1,x", "--q", "3"], capsys)
    assert code == EXIT_USAGE and out == ""
    assert "error: --n: invalid literal" in err


def test_sweep_unsatisfiable_grid_usage_error(capsys):
    code, _, err = run(["sweep", "--n", "1", "--q", "3", "--k", "99"], capsys)
    assert code == EXIT_USAGE
    assert "empty" in err


@pytest.mark.parametrize(
    "args", [["--n", "1", "--q", "3", "--k", "0"], ["--k", "0"], ["--n", "1,2", "--k", "99"]]
)
def test_sweep_empty_grid_fails_before_any_progress_line(capsys, args):
    # Every slice's degrees are resolved first; with the default --n and
    # --q lists, an empty grid once logged 21 "0 points" lines first.
    code, out, err = run(["sweep", *args], capsys)
    assert code == EXIT_USAGE and out == ""
    assert err == "error: sweep grid is empty (no valid (n, k, q) points)\n"


def test_sweep_empty_slice_keeps_its_progress_line(capsys):
    code, _, err = run(["sweep", "--n", "1,2", "--q", "3", "--k", "3"], capsys)
    assert code == EXIT_OK
    lines = [line.split(" in ")[0] for line in err.splitlines()]
    assert lines == ["sweep q=3 n=1: 0 points", "sweep q=3 n=2: 1 points"]


def test_sweep_disagreement_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sweep, "dim_mr", lambda n, k, q: -1)
    code, out, _ = run(["sweep", "--n", "1", "--q", "2"], capsys)
    assert code == EXIT_DISAGREE
    assert "disagree=1" in out


@pytest.mark.parametrize("fmt", ["--json", "--csv"])
def test_sweep_unwritable_out_fails_before_the_sweep(capsys, monkeypatch, tmp_path, fmt):
    def never(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", never)
    for out in (tmp_path / "missing" / "rows.out", tmp_path):
        code, stdout, err = run(
            ["sweep", "--n", "1", "--q", "3", fmt, "--out", str(out)], capsys
        )
        assert code == EXIT_USAGE and stdout == "", out
        assert err.startswith("error: cannot write --out file") and err.count("\n") == 1, err


@pytest.mark.parametrize("fmt", ["--json", "--csv"])
@pytest.mark.parametrize("bad", [["--q", "3", "--k", "0"], ["--q", "6"], ["--q", "2,3"]])
def test_failed_sweep_leaves_the_out_file_as_it_was(capsys, monkeypatch, tmp_path, fmt, bad):
    # the empty grid, a field that does not exist, and any error of the sweep itself
    if bad[1] == "2,3":
        monkeypatch.setattr(sweep, "dim_mr", lambda n, k, q: 1 / 0 if q == 3 else 1)
    keep, new = tmp_path / "keep.out", tmp_path / "new.out"
    keep.write_bytes(b"rows of an earlier sweep\n")
    for out in (keep, new):
        code, stdout, _ = run(["sweep", "--n", "1", *bad, fmt, "--out", str(out)], capsys)
        assert code in (EXIT_USAGE, EXIT_INTERNAL) and stdout == ""
    assert keep.read_bytes() == b"rows of an earlier sweep\n"
    assert os.listdir(tmp_path) == ["keep.out"]


@pytest.mark.parametrize("fmt", ["--json", "--csv"])
def test_finished_sweep_replaces_the_out_file(capsys, tmp_path, fmt):
    path = tmp_path / "rows.out"
    path.write_bytes(b"rows of an earlier sweep\n" * 1000)  # longer than the new rows
    path.chmod(0o640)
    code, out, _ = run(["sweep", "--n", "1", "--q", "2,3", fmt, "--out", str(path)], capsys)
    assert code == EXIT_OK
    assert out == "sweep summary: points=3 agree=3 disagree=0 no-closed-form=0\n"
    assert os.listdir(tmp_path) == ["rows.out"] and path.stat().st_mode & 0o777 == 0o640
    code, expected, _ = run(["sweep", "--n", "1", "--q", "2,3", fmt], capsys)
    assert path.read_bytes() == expected.encode()


def test_out_file_through_a_link_replaces_the_linked_file(capsys, tmp_path):
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_bytes(b"rows of an earlier sweep\n")
    link.symlink_to(real.name)
    code, _, _ = run(["sweep", "--n", "1", "--q", "2", "--json", "--out", str(link)], capsys)
    assert code == EXIT_OK and link.is_symlink()
    assert json.loads(real.read_text())["summary"]["points"] == 1


def _no_replace(monkeypatch):
    """Fail a test if the sweep moves a file onto its --out path."""
    for name in ("replace", "rename"):
        monkeypatch.setattr(os, name, lambda *a, **k: pytest.fail(f"os.{name} called"))


def test_out_file_on_a_device_writes_it_and_leaves_it_a_device(capsys, monkeypatch):
    _no_replace(monkeypatch)
    code, out, _ = run(["sweep", "--n", "1", "--q", "2", "--json", "--out", os.devnull], capsys)
    assert code == EXIT_OK and out.startswith("sweep summary: points=1 ")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("fails", [False, True])
def test_out_file_on_a_pipe_is_written_through_it(capsys, monkeypatch, tmp_path, fails):
    _no_replace(monkeypatch)
    if fails:
        monkeypatch.setattr(sweep, "dim_mr", lambda n, k, q: 1 / 0)
    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
    reader.start()  # the sweep's open waits for it
    code, _, _ = run(["sweep", "--n", "1", "--q", "2", "--json", "--out", str(fifo)], capsys)
    reader.join(60)
    assert stat.S_ISFIFO(fifo.stat().st_mode) and os.listdir(tmp_path) == ["rows.fifo"]
    if fails:
        assert code == EXIT_INTERNAL and read == [b""]
    else:
        assert code == EXIT_OK and json.loads(read[0])["summary"]["points"] == 1


def test_out_file_in_a_read_only_directory_is_written_in_place(capsys, tmp_path):
    path = tmp_path / "rows.json"
    path.write_bytes(b"rows of an earlier sweep\n" * 1000)
    tmp_path.chmod(0o555)
    try:
        if os.access(tmp_path, os.W_OK):
            pytest.skip("this user may write a read-only directory")
        code, _, _ = run(["sweep", "--n", "1", "--q", "2", "--json", "--out", str(path)], capsys)
        assert code == EXIT_OK and json.loads(path.read_text())["summary"]["points"] == 1
    finally:
        tmp_path.chmod(0o755)


def test_out_file_that_is_read_only_fails_before_the_sweep(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("the sweep ran"))
    path = tmp_path / "rows.out"
    path.write_bytes(b"kept\n")
    path.chmod(0o444)
    if os.access(path, os.W_OK):
        pytest.skip("this user may write a read-only file")
    code, _, err = run(["sweep", "--n", "1", "--q", "3", "--json", "--out", str(path)], capsys)
    assert code == EXIT_USAGE and err.startswith("error: cannot write --out file")
    assert path.read_bytes() == b"kept\n" and os.listdir(tmp_path) == ["rows.out"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--n", "1", "--q", "3", "--json", "--csv"],
        ["sweep", "--n", "1", "--q", "3", "--csv", "--json", "--out", "rows.out"],
        ["wenum", "--n", "1", "--k", "1", "--q", "3", "--json", "--csv"],
    ],
)
def test_json_and_csv_are_exclusive(argv, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "run_sweep", never)
    monkeypatch.setattr(cli, "prm_code", never)
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE and out == ""
    assert "not allowed with argument" in err


def test_sweep_out_needs_json_or_csv(capsys, monkeypatch, tmp_path):
    def never(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", never)
    path = tmp_path / "rows.out"
    code, out, err = run(["sweep", "--n", "1", "--q", "3", "--out", str(path)], capsys)
    assert code == EXIT_USAGE and out == ""
    assert err == "error: --out needs --json or --csv\n"
    assert not path.exists()


def test_run_sweep_spec_validation():
    with pytest.raises(cli.UsageError):
        run_sweep(SweepSpec((), (3,), "all"))
    with pytest.raises(cli.UsageError):
        run_sweep(SweepSpec((1,), (3,), ()))
    with pytest.raises(cli.UsageError):
        run_sweep(SweepSpec((0,), (3,), "all"))


def test_sweep_row_reports_a_wrong_described_dual(monkeypatch):
    # If the duality theorem's code is not C^⊥, the point disagrees and
    # its hull and dual come from the complement.
    f = field_make(5)
    monkeypatch.setattr(
        prm, "_described_dual", lambda b, adjoin: prm_code(b.field, b.n, b.k + 1)
    )
    row = sweep._sweep_row(f, 2, 2, lambda k: prm_code(f, 2, k))
    assert row["dual_verified"] is False and row["agree"] is False
    assert row["constructed"]["hull_dim"] == row["dual_hull_dim"]


def test_sweep_row_judges_the_exhaustive_distance(monkeypatch):
    # The distance check and its share of `agree` belong to the row: a
    # wrong search result makes the point disagree, and a code beyond the
    # budget is not searched.
    f = field_make(3)
    monkeypatch.setattr(sweep, "min_distance", lambda C, budget, stop_at: stop_at + 1)
    row = sweep._sweep_row(f, 2, 1, lambda k: prm_code(f, 2, k), 27)
    assert (row["min_distance"], row["distance_matches_formula"]) == (10, False)
    assert row["agree"] is False
    row = sweep._sweep_row(f, 2, 1, lambda k: prm_code(f, 2, k), 26)
    assert row["min_distance"] is row["distance_matches_formula"] is None
    assert row["agree"] is True


def test_sweep_row_reduces_each_code_once(monkeypatch):
    # Per point: the code and the dual-side code of degree n(q-1) - k
    # (each shared with another point), the rows the all-ones extension
    # of the dual-side code and C + C^⊥ add to the larger canonical
    # basis, and the Gram matrices of C and C^⊥, each ranked once per row
    # space. When the duality theorem holds, the described dual is proven
    # to be C^⊥ and its canonical basis is the dual's, so the dual costs
    # no reduction; the hull dimension is read off the sum, so its
    # complement, the hull basis, is never formed. No matrix is wider
    # than the code is long.
    real_rref = exactla._rref_array
    real_mul = exactla._mat_mul_arrays
    calls = []
    products = []

    def counting_rref(field, A):
        calls.append(A.shape[1])
        return real_rref(field, A)

    def counting_mul(field, A, B):
        products.append(A.shape)
        return real_mul(field, A, B)

    real_row = sweep._sweep_row
    per_point = []

    def counting_row(*args):
        start = len(calls)
        row = real_row(*args)
        per_point.append((row["N"], calls[start:]))
        return row

    monkeypatch.setattr(exactla, "_rref_array", counting_rref)
    monkeypatch.setattr(exactla, "_mat_mul_arrays", counting_mul)
    monkeypatch.setattr(sweep, "_sweep_row", counting_row)
    _, summary = run_sweep(SweepSpec((1, 2), (2, 3, 4, 5), "all"))
    assert summary["points"] == len(per_point) > 0
    assert (len(calls), len(products)) == (104, 162)
    assert max(len(widths) for _, widths in per_point) <= 5
    assert all(w <= N for N, widths in per_point for w in widths)


# ---------------------------------------------------------------------------
# selftest and usage plumbing


SELFTEST_STEPS = (
    "parameter-formulas",
    "small-code-distances",
    "tetracode-enumerator",
    "tetracode-design",
    "embedded-reference-consistency",
    "sweep-small-grid",
    "two-variable-hull-formula",
)


def test_selftest_passes(capsys):
    code, out, _ = run(["selftest"], capsys)
    assert code == EXIT_OK
    assert "selftest: PASS" in out
    for name in SELFTEST_STEPS:
        assert f"ok {name}" in out


def test_selftest_steps_are_independent(capsys, monkeypatch):
    # A failing sweep step leaves the two-variable hull formula step checking
    # its own hull dimensions.
    def disagreeing(spec, log=None):
        return [], {"points": 1, "agree": 0, "disagree": 1, "no_closed_form": 0}

    monkeypatch.setattr(cli, "run_sweep", disagreeing)
    code, out, _ = run(["selftest"], capsys)
    lines = out.splitlines()
    assert code == EXIT_INTERNAL
    assert [line for line in lines if line.startswith("FAIL ")] == [
        "FAIL sweep-small-grid: InternalInconsistency(\"{'points': 1, 'agree': 0, "
        "'disagree': 1, 'no_closed_form': 0}\")"
    ]
    assert "ok two-variable-hull-formula" in lines
    assert lines[-1].startswith("selftest: FAIL (7 checks, 1 failures, ")


def _full_selftest_scan(reference_fam, corrupt):
    real = cli.weight_distribution_with_supports

    def scan(C, w, **kwargs):
        if (C.N, C.K) != (40, 20):
            return real(C, w, **kwargs)
        dist = _reference_distribution()
        if corrupt:
            dist.counts[12] += 1
        return dist, reference_fam

    return scan


@pytest.mark.parametrize("corrupt", [False, True])
def test_selftest_full_checks_the_reference_enumeration(
    capsys, monkeypatch, c333_scan, corrupt
):
    # The 3^20 scan is replaced by the embedded distribution and the shared
    # scan's weight-9 supports; a corrupted coefficient fails the step, which
    # names the weight and both counts.
    scan = _full_selftest_scan(c333_scan["fam"], corrupt)
    monkeypatch.setattr(cli, "weight_distribution_with_supports", scan)
    code, out, _ = run(["selftest", "--full"], capsys)
    lines = out.splitlines()
    if corrupt:
        assert code == EXIT_INTERNAL
        assert lines[-2] == (
            "FAIL full-reference-enumeration: InternalInconsistency("
            "'reference check: FAIL at weight 12: expected 18720, got 18721')"
        )
        assert lines[-1].startswith("selftest: FAIL (8 checks, 1 failures, ")
    else:
        assert code == EXIT_OK
        assert lines[-2] == "ok full-reference-enumeration"
        assert lines[-1].startswith("selftest: PASS (8 checks, 0 failures, ")
    assert lines[:-2] == [f"ok {name}" for name in SELFTEST_STEPS]


def test_no_command_is_usage_error(capsys):
    code, _, _ = run([], capsys)
    assert code == EXIT_USAGE


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(["params", "--n", "1", "--k", "1", "--q", "3", "--nope"], capsys)
    assert code == EXIT_USAGE


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run(["params", "--n", "3", "--q", "3"], capsys)
    assert code == EXIT_USAGE


def test_help_exits_zero(capsys):
    code, out, _ = run(["--help"], capsys)
    assert code == EXIT_OK
    assert "sweep" in out and "selftest" in out


def test_internal_failure_exits_1(capsys, monkeypatch):
    def boom(field, n, k):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "classification_report", boom)
    code, _, err = run(["classify", "--n", "1", "--k", "1", "--q", "3"], capsys)
    assert code == EXIT_INTERNAL
    assert "synthetic failure" in err


def test_memory_error_is_one_line_and_exits_1(capsys, monkeypatch):
    # A dense matrix too large to allocate (the dual at q = 65536) raises
    # MemoryError; the command is monkeypatched so nothing large is allocated.
    message = "Unable to allocate 32.0 GiB for an array with shape (65536, 65537)"

    def too_large(field, n, k):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "classification_report", too_large)
    code, out, err = run(["classify", "--n", "1", "--k", "1", "--q", "3"], capsys)
    assert code == EXIT_INTERNAL and out == ""
    assert err == f"error: MemoryError: {message}\n"


def test_closed_stdout_exits_quietly():
    # The read end of the pipe is closed before the child writes, so its
    # first write to stdout fails: no traceback, no "Exception ignored"
    # from the final flush, and the status a shell gives a writer that
    # SIGPIPE ended.
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    for argv in (
        ["sweep", "--n", "1", "--q", "2,3", "--json"],
        ["params", "--n", "1", "--k", "1", "--q", "3"],
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "prmhull", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141, proc.stderr
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
