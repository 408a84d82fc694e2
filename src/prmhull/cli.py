"""Command-line surface and reproducibility harness.

Subcommands:
    params      closed-form parameters of the projective code at (n, k, q)
    classify    predicted vs measured self-dual / self-orthogonal / LCD
    hull        constructive hull vs the closed-form dimension and basis
    dual-check  duality description proven by orthogonality and dimension
    wenum       exhaustive weight distribution
    design      block design extracted from fixed-weight supports
    sweep       formula cross-validation over a parameter grid
    selftest    embedded end-to-end checks

Exit codes: 0 success/agreement, 1 internal failure or a matrix too
large to allocate (MemoryError), 2 theorem disagreement, 3 budget
exceeded, 64 usage error, 141 stdout closed by its reader. Every command
is deterministic given its flags; worker count never changes the data
payload, and progress/timing chatter goes to stderr only.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import time
import traceback
from pathlib import Path

from .analyze import (
    DEFAULT_BUDGET,
    NOT_A_DESIGN,
    design_lambda,
    min_distance,
    weight_distribution,
    weight_distribution_with_supports,
)
from .code import code_from_rows
from .errors import (
    BudgetExceeded,
    InternalInconsistency,
    NotPrimePower,
    OutOfRange,
    PrmHullError,
    UsageError,
)
from .exactla import MatrixFq
from .field import field_make
from .prm import (
    PrmParams,
    check_hull_basis,
    classification_report,
    dim_mr,
    dim_sorensen,
    dual_description,
    min_dist_formula,
    prm_code,
    rsj_hull_dim,
    verify_dual,
)
from .sweep import SweepSpec, run_sweep

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_DISAGREE = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64

# Embedded reference data, keyed by (n, k, q). `wenum --check-paper` and
# `selftest --full` recompute these from scratch and demand exact equality;
# the default selftest checks their internal arithmetic consistency.
REFERENCE_WEIGHT_DISTRIBUTIONS: dict[tuple[int, int, int], dict[int, int]] = {
    (3, 3, 3): {
        0: 1,
        9: 1040,
        12: 18720,
        15: 1100736,
        18: 25761840,
        21: 236377440,
        24: 908079120,
        27: 1388750720,
        30: 783679104,
        33: 137535840,
        36: 5468320,
        39: 11520,
    },
}
REFERENCE_DESIGNS: dict[tuple[int, int, int], dict[str, int]] = {
    (3, 3, 3): {"w": 9, "t": 2, "words": 1040, "blocks": 520, "lambda": 24},
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which collides with the
    # "theorem disagreement" code; route usage failures to 64 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least(low: int):
    """An argparse type: an integer of at least `low`, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}; got {value}")
        return value

    return parse


def _add_formats(parser: argparse.ArgumentParser, csv_help: str) -> None:
    """--json and --csv, two renderings of one payload: at most one is given."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit a JSON payload")
    group.add_argument("--csv", action="store_true", help=csv_help)


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise UsageError(f"{flag} needs a nonempty comma-separated integer list")
    try:
        return tuple(int(piece) for piece in items)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _mono_str(m) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# params


def cmd_params(args) -> int:
    field = field_make(args.q)
    params = PrmParams(args.n, args.k, args.q)
    regime = params.regime()
    N = params.N
    payload: dict = {
        "n": args.n,
        "k": args.k,
        "q": args.q,
        "N": N,
        "regime": regime,
    }
    K, D = params.KD()
    proper = regime == "proper"
    payload.update(
        K=K,
        K_sorensen=K if proper else None,
        K_mr=dim_mr(args.n, args.k, args.q) if proper else None,
        D_formula=D,
    )
    if args.emit_matrix:
        C = prm_code(field, args.n, args.k)
        payload["generator_text"] = C.G.to_text()
    if args.json:
        _emit_json(payload)
        return EXIT_OK
    print(f"C(n={args.n}, k={args.k}, q={args.q}) over GF({args.q})")
    if proper:
        print(f"regime: proper  N={N} K={K} D_formula={D}")
        print(f"dimension formulas: dim_sorensen={K} dim_mr={payload['K_mr']}")
    elif regime == "span-one":
        print(f"regime: span-one (span of the all-ones vector)  N={N} K={K} D={D}")
    else:
        print(f"regime: full-space (all of GF({args.q})^{N})  N={N} K={K} D={D}")
    if args.emit_matrix:
        print(payload["generator_text"], end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    rep = classification_report(field_make(args.q), args.n, args.k)
    if args.json:
        _emit_json(rep.to_json())
    else:
        pred, cons = rep.to_json()["predicted"], rep.constructed
        print(
            f"C(n={args.n}, k={args.k}, q={args.q}): "
            f"N={rep.N} K={rep.K} D_formula={rep.D_formula}"
        )
        head = f"{'':12} {'self_dual':<10} {'self_orthogonal':<16} {'lcd':<6} hull_dim"
        print(head)
        for name, row in (("predicted", pred), ("constructed", cons)):
            print(
                f"{name:<12} {_yesno(row['self_dual']):<10} "
                f"{_yesno(row['self_orthogonal']):<16} {_yesno(row['lcd']):<6} "
                f"{row['hull_dim']}"
            )
        print(f"agree: {_yesno(rep.agree)} (hull_dim via {rep.hull_dim_source})")
    return EXIT_OK if rep.agree else EXIT_DISAGREE


# ---------------------------------------------------------------------------
# hull


def cmd_hull(args) -> int:
    report = classification_report(field_make(args.q), args.n, args.k)
    rep, predicted = report.hull, report.to_json()["predicted"]["hull_dim"]
    members, basis_ok = check_hull_basis(report) if args.emit_basis else ([], None)
    agree = report.hull_agree and basis_ok is not False

    payload = rep.to_json(basis_monomials=None if basis_ok is None else [m for m, _ in members])
    payload.update(
        n=args.n,
        k=args.k,
        q=args.q,
        K=report.K,
        closed_form=predicted,
        cases=list(report.hull_cases),
        agree=agree,
    )
    if basis_ok is not None:
        payload["basis_verified"] = basis_ok
    if args.emit_matrix:
        payload["hull_basis_text"] = rep.hull_basis.matrix.to_text()

    if args.json:
        _emit_json(payload)
    else:
        print(
            f"hull of C(n={args.n}, k={args.k}, q={args.q}): "
            f"dim={rep.hull_dim} gram_rank={rep.gram_rank} K={report.K}"
        )
        if report.hull_dim_source == "closed-form":
            print(f"closed-form: {predicted} via case {', '.join(report.hull_cases)}")
        else:
            print("closed-form: no-closed-form (value above is constructive)")
        for m, ok in members:
            print(f"  {_mono_str(m)}: in-hull={_yesno(ok)}")
        if basis_ok is not None:
            print(f"predicted basis: {len(members)} monomials, verified={_yesno(basis_ok)}")
        elif args.emit_basis:
            print("predicted basis: no-closed-form")
        print(f"agree: {_yesno(agree)}")
        if args.emit_matrix:
            print(payload["hull_basis_text"], end="")
    return EXIT_OK if agree else EXIT_DISAGREE


# ---------------------------------------------------------------------------
# dual-check


def cmd_dual_check(args) -> int:
    field = field_make(args.q)
    desc = dual_description(args.n, args.k, args.q)
    C = prm_code(field, args.n, args.k)
    # at the self-dual degree the base is C itself, built once
    base = C if desc.ell == args.k else prm_code(field, args.n, desc.ell)
    verified, ones_outside = verify_dual(C, base)
    ok = verified and ones_outside is not False
    if args.json:
        _emit_json(
            {
                "n": args.n,
                "k": args.k,
                "q": args.q,
                "ell": desc.ell,
                "adjoin_ones": desc.adjoin_ones,
                "dual_verified": verified,
                "ones_outside_base": ones_outside,
                "agree": ok,
            }
        )
    else:
        print(
            f"dual of C(n={args.n}, k={args.k}, q={args.q}): "
            f"degree ell={desc.ell}, adjoin_ones={_yesno(desc.adjoin_ones)}"
        )
        # The check is the proof by orthogonality and dimension; the label
        # keeps its earlier wording so the text output stays byte-stable.
        print(f"row-space equality: {_yesno(verified)}")
        if ones_outside is not None:
            print(f"all-ones outside the degree-{desc.ell} base: {_yesno(ones_outside)}")
        print(f"agree: {_yesno(ok)}")
    return EXIT_OK if ok else EXIT_DISAGREE


# ---------------------------------------------------------------------------
# wenum


def _reference_check(ref: dict[int, int], dist) -> tuple[bool, str]:
    got = {w: c for w, c in dist.to_pairs()}
    if got == ref:
        return True, f"reference check: PASS ({len(ref)} coefficients match)"
    bad = next(w for w in sorted(set(ref) | set(got)) if ref.get(w, 0) != got.get(w, 0))
    return False, (
        f"reference check: FAIL at weight {bad}: "
        f"expected {ref.get(bad, 0)}, got {got.get(bad, 0)}"
    )


def cmd_wenum(args) -> int:
    if args.read_matrix is not None:
        if args.check_paper:
            raise UsageError("--check-paper applies only to --n/--k/--q codes")
        try:
            text = Path(args.read_matrix).read_text()
        except OSError as exc:
            raise UsageError(f"cannot read matrix file: {exc}") from exc
        try:
            M = MatrixFq.from_text(text)
        except ValueError as exc:
            raise UsageError(f"bad matrix file: {exc}") from exc
        C = code_from_rows(M.field, M.a, label=args.read_matrix)
        key = None
    else:
        if args.n is None or args.k is None or args.q is None:
            raise UsageError("wenum needs --n, --k and --q (or --read-matrix FILE)")
        key = (args.n, args.k, args.q)
        # looked up before the code is built, so a missing reference
        # fails before the scan
        ref = REFERENCE_WEIGHT_DISTRIBUTIONS.get(key)
        if args.check_paper and ref is None:
            raise UsageError(f"no embedded reference distribution for (n,k,q)={key}")
        C = prm_code(field_make(args.q), args.n, args.k)

    t0 = time.monotonic()
    dist = weight_distribution(C, budget=args.budget, workers=args.workers)
    print(
        f"enumerated {dist.total()} codewords in {time.monotonic() - t0:.1f}s",
        file=sys.stderr,
    )

    check = None
    if args.check_paper:
        ok, message = _reference_check(ref, dist)
        check = "pass" if ok else "fail"

    if args.json:
        payload = {
            "N": C.N,
            "K": C.K,
            "q": C.field.q,
            "total": dist.total(),
            "min_nonzero_weight": dist.min_nonzero_weight() if C.K else None,
            "pairs": dist.to_pairs(),
            "polynomial": dist.to_polynomial_string(),
        }
        if key is not None:
            payload.update(n=key[0], k=key[1])
        if check is not None:
            payload["reference_check"] = check
        _emit_json(payload)
    elif args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["weight", "count"])
        writer.writerows(dist.to_pairs())
        if check is not None:
            print(message, file=sys.stderr)
    else:
        print(f"{C.label or 'code'} [N={C.N} K={C.K} q={C.field.q}]")
        print(dist.to_polynomial_string())
        if C.K:
            print(f"min nonzero weight: {dist.min_nonzero_weight()}")
        if check is not None:
            print(message)
    return EXIT_OK if check != "fail" else EXIT_DISAGREE


# ---------------------------------------------------------------------------
# design


def cmd_design(args) -> int:
    field = field_make(args.q)
    C = prm_code(field, args.n, args.k)
    w = args.w if args.w is not None else PrmParams(args.n, args.k, args.q).KD()[1]
    t0 = time.monotonic()
    dist, fam = weight_distribution_with_supports(
        C, w, budget=args.budget, workers=args.workers
    )
    print(
        f"enumerated {dist.total()} codewords in {time.monotonic() - t0:.1f}s",
        file=sys.stderr,
    )
    words = int(dist.counts[w])
    lam = design_lambda(fam, args.t)
    is_design = lam is not NOT_A_DESIGN
    if args.json:
        _emit_json(
            {
                "n": args.n,
                "k": args.k,
                "q": args.q,
                "v": C.N,
                "w": w,
                "t": args.t,
                "words": words,
                "blocks": len(fam.blocks),
                "lambda": lam if is_design else "not-a-design",
            }
        )
    else:
        print(
            f"C(n={args.n}, k={args.k}, q={args.q}): {words} words of weight {w}, "
            f"{len(fam.blocks)} distinct supports"
        )
        if is_design:
            print(f"design check (t={args.t}): {args.t}-({C.N}, {w}, {lam})")
        else:
            print(f"design check (t={args.t}): NotADesign")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


_CSV_COLUMNS = [
    "n", "k", "q", "N", "K", "K_sorensen", "K_mr", "rank_G", "D_formula",
    "predicted_self_dual", "predicted_self_orthogonal", "predicted_lcd",
    "predicted_hull_dim", "self_dual", "self_orthogonal", "lcd", "hull_dim",
    "gram_rank", "dual_hull_dim", "dims_match", "dual_verified",
    "ones_outside_dual_base", "witness_in_hull", "min_distance",
    "distance_matches_formula", "hull_dim_source", "hull_cases", "agree",
]


def _flatten_row(row: dict) -> dict:
    flat = dict(row)
    for name, value in flat.pop("predicted").items():
        flat[f"predicted_{name}"] = value
    flat.update(flat.pop("constructed"))
    flat["hull_cases"] = ";".join(flat["hull_cases"])
    out = {}
    for col in _CSV_COLUMNS:
        value = flat[col]
        if value is None:
            out[col] = ""
        elif isinstance(value, bool):
            out[col] = "true" if value else "false"
        else:
            out[col] = value
    return out


def _sweep_table_line(row: dict) -> str:
    cons = row["constructed"]
    source = "closed-form" if row["hull_dim_source"] == "closed-form" else "no-closed-form"
    dist = ""
    if row["min_distance"] is not None:
        dist = f" D={row['min_distance']}"
    return (
        f"q={row['q']} n={row['n']} k={row['k']:>2}  "
        f"[{row['N']},{row['K']}]{dist}  "
        f"SD={_yesno(cons['self_dual'])} SO={_yesno(cons['self_orthogonal'])} "
        f"LCD={_yesno(cons['lcd'])} hull={cons['hull_dim']} ({source})  "
        f"{'ok' if row['agree'] else 'DISAGREE'}"
    )


def cmd_sweep(args) -> int:
    if args.out and not (args.json or args.csv):
        raise UsageError("--out needs --json or --csv")
    k_policy = "all" if args.k.strip() == "all" else _parse_int_list(args.k, "--k")
    spec = SweepSpec(
        n_list=_parse_int_list(args.n, "--n"),
        q_list=_parse_int_list(args.q, "--q"),
        k_policy=k_policy,
        distance_budget=args.distances,
    )
    with _out_file(args.out) if args.out else contextlib.nullcontext() as handle:
        rows, summary = run_sweep(spec, log=sys.stderr)
        if args.json:
            text = json.dumps({"rows": rows, "summary": summary}, indent=2)
            print(text, file=handle or sys.stdout)
        elif args.csv:
            writer = csv.DictWriter(handle or sys.stdout, fieldnames=_CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(_flatten_row(r) for r in rows)
        else:
            for row in rows:
                print(_sweep_table_line(row))
    summary_line = (
        f"sweep summary: points={summary['points']} agree={summary['agree']} "
        f"disagree={summary['disagree']} no-closed-form={summary['no_closed_form']}"
    )
    # --json on stdout is the rows alone; CSV rows on stdout send it to stderr
    if handle or not args.json:
        print(summary_line, file=sys.stderr if args.csv and not handle else sys.stdout)
    return EXIT_OK if summary["disagree"] == 0 else EXIT_DISAGREE


@contextlib.contextmanager
def _out_file(path: str):
    """The --out stream of a sweep: its text is held until the block ends
    without an error and only then written to path, so a failed sweep
    leaves an existing file as it was and makes no new one.

    path is opened on entry, before the first point, so one that cannot
    be written (a missing directory, a directory, a read-only file) fails
    at once. An existing regular file is opened without truncating and
    cut to the new text only when it is written; anything else (a new
    file, a device such as /dev/null, a pipe, a terminal) is opened for
    writing, and a new file is removed again if the block fails. The
    file itself is written, never replaced, so its links, permissions and
    kind stay as they were.
    """
    existed, update = os.path.exists(path), os.path.isfile(path)
    try:
        handle = open(path, "r+" if update else "w", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write --out file: {exc}") from exc
    text = io.StringIO(newline="")
    done = False
    try:
        with handle:
            yield text
            handle.write(text.getvalue())
            if update:
                handle.truncate()
        done = True
    finally:
        if not done and not existed:
            with contextlib.suppress(OSError):
                os.remove(os.path.realpath(path))


# ---------------------------------------------------------------------------
# selftest


def _check(ok: bool, what) -> None:
    """Fail a selftest step; unlike assert, this also runs under python -O."""
    if not ok:
        raise InternalInconsistency(str(what))


_KNOWN_PARAMETERS = {
    (1, 1, 3): (4, 2, 3),
    (3, 3, 3): (40, 20, 9),
    (1, 2, 5): (6, 3, 4),
    (2, 1, 3): (13, 3, 9),
    (2, 2, 5): (31, 6, 20),
}


def _check_formulas():
    for (n, k, q), (N, K, D) in _KNOWN_PARAMETERS.items():
        _check(PrmParams(n, k, q).N == N, (n, k, q))
        _check(dim_sorensen(n, k, q) == K == dim_mr(n, k, q), (n, k, q))
        _check(min_dist_formula(n, k, q) == D, (n, k, q))


def _check_distances():
    for (n, k, q), (N, K, D) in _KNOWN_PARAMETERS.items():
        if (n, k, q) == (3, 3, 3):
            continue  # 3^20 codewords; covered by --full
        C = prm_code(field_make(q), n, k)
        _check((C.N, C.K) == (N, K), (n, k, q))
        _check(min_distance(C) == D, (n, k, q))


def _check_tetracode():
    dist = weight_distribution(prm_code(field_make(3), 1, 1))
    _check(dist.to_pairs() == [[0, 1], [3, 8]], dist.to_pairs())
    _check(dist.to_polynomial_string() == "x^4 + 8xy^3", dist.to_polynomial_string())


def _check_tetracode_design():
    C = prm_code(field_make(3), 1, 1)
    _, fam = weight_distribution_with_supports(C, 3)
    _check(len(fam.blocks) == 4, len(fam.blocks))
    _check(design_lambda(fam, 1) == 3, "lambda_1")
    _check(design_lambda(fam, 2) == 2, "lambda_2")


def _check_reference():
    ref = REFERENCE_WEIGHT_DISTRIBUTIONS[(3, 3, 3)]
    _check(sum(ref.values()) == 3**20, "coefficients must sum to 3^20")
    _check(len(ref) == 12 and ref[0] == 1, "twelve weights, A_0 = 1")
    _check(min(w for w in ref if w > 0) == 9 and max(ref) == 39, "weights 9..39")
    des = REFERENCE_DESIGNS[(3, 3, 3)]
    _check(des["words"] == ref[9] == 2 * des["blocks"], "two words per block")
    # Double count (pair, block) incidences two ways.
    pairs = des["lambda"] * math.comb(40, des["t"])
    _check(pairs == des["blocks"] * math.comb(des["w"], des["t"]), "incidences")


def _check_small_sweep():
    _, summary = run_sweep(SweepSpec((1, 2), (2, 3, 4, 5), "all"))
    _check(summary["disagree"] == 0, summary)
    _check(summary["no_closed_form"] == 0, summary)


def _check_rsj():
    for q in (3, 4, 5):
        for k in range(1, 2 * (q - 1) + 1):
            hull_dim = classification_report(field_make(q), 2, k).constructed["hull_dim"]
            _check(rsj_hull_dim(k, q) == hull_dim, (k, q))


def _check_full(budget: int, workers: int):
    C = prm_code(field_make(3), 3, 3)
    dist, fam = weight_distribution_with_supports(C, 9, budget=budget, workers=workers)
    ok, message = _reference_check(REFERENCE_WEIGHT_DISTRIBUTIONS[(3, 3, 3)], dist)
    _check(ok, message)
    des = REFERENCE_DESIGNS[(3, 3, 3)]
    _check(len(fam.blocks) == des["blocks"], len(fam.blocks))
    _check(design_lambda(fam, des["t"]) == des["lambda"], "lambda")


def _selftest_steps(full: bool, budget: int, workers: int):
    """The selftest's (name, check) steps, each independent of the others."""
    steps = [
        ("parameter-formulas", _check_formulas),
        ("small-code-distances", _check_distances),
        ("tetracode-enumerator", _check_tetracode),
        ("tetracode-design", _check_tetracode_design),
        ("embedded-reference-consistency", _check_reference),
        ("sweep-small-grid", _check_small_sweep),
        ("two-variable-hull-formula", _check_rsj),
    ]
    if full:
        steps.append(("full-reference-enumeration", lambda: _check_full(budget, workers)))
    return steps


def cmd_selftest(args) -> int:
    t0 = time.monotonic()
    steps = _selftest_steps(args.full, args.budget, args.workers)
    failures = 0
    for name, fn in steps:
        try:
            fn()
            print(f"ok {name}")
        except Exception as exc:  # noqa: BLE001 - each step must be isolated
            failures += 1
            print(f"FAIL {name}: {exc!r}")
    status = "PASS" if failures == 0 else "FAIL"
    print(
        f"selftest: {status} ({len(steps)} checks, {failures} failures, "
        f"{time.monotonic() - t0:.1f}s)"
    )
    return EXIT_OK if failures == 0 else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# parser and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prmhull", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--json", action="store_true", help="emit a JSON payload")

    enum = argparse.ArgumentParser(add_help=False)
    enum.add_argument(
        "--budget",
        type=_at_least(1),
        default=DEFAULT_BUDGET,
        help="largest q^K an enumeration may cover",
    )
    enum.add_argument(
        "--workers", type=_at_least(1), default=1, help="process count for enumerations"
    )

    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--n", type=int, required=True, help="projective dimension")
    point.add_argument("--k", type=int, required=True, help="degree")
    point.add_argument("--q", type=int, required=True, help="field size (prime power)")

    p = sub.add_parser(
        "params", parents=[point, fmt], help="closed-form code parameters"
    )
    p.add_argument(
        "--emit-matrix", action="store_true", help="print the generator matrix"
    )
    p.set_defaults(func=cmd_params)

    p = sub.add_parser(
        "classify",
        parents=[point, fmt],
        help="predicted vs measured self-dual/self-orthogonal/LCD",
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "hull", parents=[point, fmt], help="constructive hull vs closed form"
    )
    p.add_argument(
        "--emit-basis",
        action="store_true",
        help="verify the predicted monomial basis member by member",
    )
    p.add_argument(
        "--emit-matrix", action="store_true", help="print the hull basis matrix"
    )
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser(
        "dual-check",
        parents=[point, fmt],
        help="prove the duality description by orthogonality and dimension",
    )
    p.set_defaults(func=cmd_dual_check)

    p = sub.add_parser("wenum", parents=[enum], help="exhaustive weight distribution")
    _add_formats(p, "emit weight,count rows")
    p.add_argument("--n", type=int, help="projective dimension")
    p.add_argument("--k", type=int, help="degree")
    p.add_argument("--q", type=int, help="field size (prime power)")
    p.add_argument(
        "--read-matrix",
        metavar="FILE",
        help="enumerate the row span of a matrix in text format instead",
    )
    p.add_argument(
        "--check-paper",
        action="store_true",
        help="compare against the embedded reference coefficients for this code",
    )
    p.set_defaults(func=cmd_wenum)

    p = sub.add_parser(
        "design",
        parents=[point, fmt, enum],
        help="block design from fixed-weight supports",
    )
    p.add_argument(
        "--w", type=int, default=None, help="codeword weight (default: formula distance)"
    )
    p.add_argument("--t", type=_at_least(1), default=2, help="design strength t")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("sweep", help="formula cross-validation over a grid")
    _add_formats(p, "emit CSV rows")
    p.add_argument("--n", default="1,2,3", help="comma-separated n values")
    p.add_argument("--q", default="2,3,4,5,7,8,9", help="comma-separated q values")
    p.add_argument("--k", default="all", help="'all' or comma-separated degrees")
    p.add_argument(
        "--out", default=None, help="write the --json or --csv rows to this file"
    )
    p.add_argument(
        "--distances",
        type=_at_least(0),
        default=0,
        metavar="LIMIT",
        help="also verify min_distance == formula for codes with q^K <= LIMIT",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("selftest", parents=[enum], help="embedded end-to-end checks")
    p.add_argument(
        "--full",
        action="store_true",
        help="include the full 3^20 reference enumeration",
    )
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout is met here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout (`sweep --json | head -1`): as Python's
        # signal docs advise, stdout points at os.devnull so the final flush
        # stays silent, and the status is the shell's 128 + SIGPIPE (13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"error: BudgetExceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (NotPrimePower, OutOfRange) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PrmHullError, MemoryError) as exc:
        # A dense matrix too large to allocate is a limit of the input, not
        # a bug: one line, with numpy's message giving the shape.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:  # noqa: BLE001 - map anything unexpected to exit 1
        traceback.print_exc()
        return EXIT_INTERNAL
