"""CLI behavior: outputs, exit codes, formats, and failure demos."""

from __future__ import annotations

import ast
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from prmhull import analyze, cli, exactla, sweep
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


def test_hull_emit_matrix_parses(capsys):
    code, out, _ = run(
        ["hull", "--n", "2", "--k", "1", "--q", "5", "--emit-matrix"], capsys
    )
    assert code == EXIT_OK
    text = out[out.index("5 2 31") :]
    M = MatrixFq.from_text(text)
    assert (M.rows, M.cols) == (2, 31)


def test_hull_disagreement_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "hull_dim_predicted", lambda n, k, q: 999)
    code, out, _ = run(["hull", "--n", "2", "--k", "1", "--q", "5"], capsys)
    assert code == EXIT_DISAGREE
    assert "agree: no" in out


# ---------------------------------------------------------------------------
# dual-check


def test_dual_check_adjoin_point(capsys):
    code, out, _ = run(["dual-check", "--n", "2", "--k", "2", "--q", "3"], capsys)
    assert code == EXIT_OK
    assert "ell=2" in out and "adjoin_ones=yes" in out
    assert "row-space equality: yes" in out


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
    path = tmp_path / "bad.txt"
    path.write_text("3 1 2\n1 3\n")
    code, _, err = run(["wenum", "--read-matrix", str(path)], capsys)
    assert code == EXIT_USAGE
    assert "bad matrix file" in err


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


# ---------------------------------------------------------------------------
# sweep


def test_sweep_small_grid_all_agree(capsys):
    code, out, err = run(["sweep", "--n", "1,2", "--q", "2,3,4,5"], capsys)
    assert code == EXIT_OK
    assert "sweep summary: points=30 agree=30 disagree=0 no-closed-form=0" in out
    assert "sweep q=5 n=2" in err


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


def test_sweep_rejects_non_prime_power(capsys):
    code, _, err = run(["sweep", "--n", "1", "--q", "6"], capsys)
    assert code == EXIT_USAGE
    assert "NotPrimePower" in err


def test_sweep_empty_k_list_usage_error(capsys):
    code, _, err = run(["sweep", "--n", "1", "--q", "3", "--k", ""], capsys)
    assert code == EXIT_USAGE
    assert "--k" in err


def test_sweep_unsatisfiable_grid_usage_error(capsys):
    code, _, err = run(["sweep", "--n", "1", "--q", "3", "--k", "99"], capsys)
    assert code == EXIT_USAGE
    assert "empty" in err


def test_sweep_disagreement_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sweep, "dim_mr", lambda n, k, q: -1)
    code, out, _ = run(["sweep", "--n", "1", "--q", "2"], capsys)
    assert code == EXIT_DISAGREE
    assert "disagree=1" in out


def test_run_sweep_spec_validation():
    with pytest.raises(cli.UsageError):
        run_sweep(SweepSpec((), (3,), "all"))
    with pytest.raises(cli.UsageError):
        run_sweep(SweepSpec((1,), (3,), ()))
    with pytest.raises(cli.UsageError):
        run_sweep(SweepSpec((0,), (3,), "all"))


def test_sweep_row_reduces_each_code_once(monkeypatch):
    # Per point: the code (shared with the point of degree n(q-1) - k),
    # its dual, the rows the all-ones extension of the dual-side code and
    # C + C^⊥ add to the larger canonical basis, the hull as the
    # complement of that sum, and the two Gram matrices. No matrix is
    # wider than the code is long.
    real_rref = exactla._rref_array
    calls = []

    def counting_rref(field, A):
        calls.append(A.shape[1])
        return real_rref(field, A)

    real_row = sweep._sweep_row
    per_point = []

    def counting_row(*args):
        start = len(calls)
        row = real_row(*args)
        per_point.append((row["N"], calls[start:]))
        return row

    monkeypatch.setattr(exactla, "_rref_array", counting_rref)
    monkeypatch.setattr(sweep, "_sweep_row", counting_row)
    _, summary = run_sweep(SweepSpec((1, 2), (2, 3, 4, 5), "all"))
    assert summary["points"] == len(per_point) > 0
    assert max(len(widths) for _, widths in per_point) <= 7
    assert all(w <= N for N, widths in per_point for w in widths)


# ---------------------------------------------------------------------------
# selftest and usage plumbing


def test_selftest_passes(capsys):
    code, out, _ = run(["selftest"], capsys)
    assert code == EXIT_OK
    assert "selftest: PASS" in out
    for name in (
        "parameter-formulas",
        "small-code-distances",
        "tetracode-enumerator",
        "tetracode-design",
        "embedded-reference-consistency",
        "sweep-small-grid",
        "two-variable-hull-formula",
    ):
        assert f"ok {name}" in out


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
