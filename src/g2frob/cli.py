"""Command-line front end.

Commands: curve, torsion, verify, scan, formulas.  Every report is JSON with
sorted keys; wall-clock measurements live only under the "timing" key so that
two runs with the same configuration produce byte-identical payloads once
"timing" is dropped.  Exit codes: 0 ok, 2 invalid input (an argparse error
too), 3 resource guard; an error is one JSON line {"error", "kind"}.

scan writes JSON lines, one record per curve, ordered by generation index,
and flushes each as soon as it is computed; rerunning with the same --out
skips curve ids that are already present, so an interrupted scan can be
resumed.

Each command imports what it runs: `curve` and `torsion` load neither
`verify` nor `formulas`, which `verify`, `scan --lemmas` and `formulas`
import inside the functions that call them.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time

from . import __version__
from .cartier import cartier_manin, enumerate_p_torsion
from .errors import InputError, RangeError, ResourceGuardError
from .exactnum import make_field
from .funcfield import (
    Curve,
    curve_from_spec,
    curve_id,
    curve_spec,
    random_curve,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GUARD = 3


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _open_out(path, mode):
    """The --out file; a path that cannot be opened (a directory, a path
    under a missing directory) is an input error."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise RangeError(f"cannot write --out: {exc}") from None


def _emit(obj, out_path):
    text = _dump(obj)
    if out_path:
        with _open_out(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_ints(flag: str, s: str):
    try:
        return [int(tok) for tok in s.split(",")]
    except ValueError:
        raise RangeError(f"{flag} expects comma-separated integers, got {s!r}")


def _build_curve(args) -> Curve:
    modulus = _parse_ints("--ext-modulus", args.ext_modulus) if args.ext_modulus else None
    field = make_field(args.p, args.ext_k, modulus)
    coeffs = _parse_ints("--f", args.f)
    if len(coeffs) != 6:
        raise RangeError("--f expects exactly six coefficients c0,...,c5")
    return Curve(field, [field.from_int(c) for c in coeffs])


def _curve_payload(curve: Curve) -> dict:
    A = cartier_manin(curve)
    return {
        "curve": curve_spec(curve),
        "curveId": curve_id(curve),
        "A": A.to_jsonable(),
        "ordinary": A.is_invertible(),
        "pRank": A.p_rank(),
        "version": __version__,
    }


def cmd_curve(args) -> int:
    with _build_curve(args) as curve:
        _emit(_curve_payload(curve), args.out)
    return EXIT_OK


def _torsion_fields(curve: Curve, ts) -> dict:
    """The fields of a torsion set that `torsion` and each `scan` row print."""
    return {
        "torsionForms": ts.to_jsonable(),
        "torsionCount": len(ts),
        "torsionDim": ts.dimension(curve.p),
        "isSubspace": ts.is_subspace(curve.field),
    }


def _torsion_payload(curve: Curve, method: str, crosscheck: bool) -> dict:
    ts = enumerate_p_torsion(curve, method=method)
    payload = _curve_payload(curve)
    payload.update(method=method, **_torsion_fields(curve, ts))
    if crosscheck:
        other = "semilinear" if method == "brute" else "brute"
        ts2 = enumerate_p_torsion(curve, method=other)
        payload["agree"] = ts.forms == ts2.forms
    return payload


def cmd_torsion(args) -> int:
    with _build_curve(args) as curve:
        t0 = time.perf_counter()
        payload = _torsion_payload(curve, args.method, args.crosscheck)
        payload["timing"] = {"seconds": time.perf_counter() - t0}
    _emit(payload, args.out)
    return EXIT_OK


def _lemma_reports(curve: Curve, nonzero, second_forms) -> list:
    """The two-sums and off-diagonal reports of each flat form ab_L in
    `nonzero` against each form of second_forms(ab_L), in that order; the
    lemma-work guard, by the number of flat F_p-lines, runs before any orbit.
    The checks are read from `verify` at each call (perfbench wraps them)."""
    from . import verify

    verify.check_lemma_work(curve, len(nonzero) // (curve.p - 1))
    return [check(curve, ab_L, ab) for ab_L in nonzero for ab in second_forms(ab_L)
            for check in (verify.check_two_sums, verify.check_offdiag_closed_forms)]


def _verify_payload(curve: Curve, rigidity_mode: str | None) -> dict:
    from . import verify

    if rigidity_mode == "brute":  # refused before any engine run
        verify.check_brute_rigidity(curve)
    F = curve.field
    ts = enumerate_p_torsion(curve, method="semilinear")
    payload = _curve_payload(curve)
    payload["torsionCount"] = len(ts)
    basis_pairs = [(F.one(), F.zero()), (F.zero(), F.one())]
    nonzero = ts.nonzero(F)
    lemmas = [r.to_jsonable() for r in _lemma_reports(curve, nonzero, lambda _: basis_pairs)]
    # one pair per F_p-line of the torsion space, its first, is enough: the
    # deformation problem only depends on omega_L up to scaling; the lemma
    # reports have already found each form's line
    lines = {}
    if rigidity_mode:
        for ab_L in nonzero:
            lines.setdefault(verify.line_of(curve, ab_L), ab_L)
    rig_reports = [verify.rigidity_scan(curve, ab_L, mode=rigidity_mode)[1].to_jsonable()
                   for ab_L in lines.values()]
    payload["lemmas"] = lemmas
    payload["rigidity"] = rig_reports
    payload["note"] = (
        "" if nonzero else "no nonzero rational flat forms over this field"
    )
    payload["violations"] = sum(
        1 for r in lemmas + rig_reports if r["status"] == "violated"
    )
    return payload


def cmd_verify(args) -> int:
    with _build_curve(args) as curve:
        t0 = time.perf_counter()
        payload = _verify_payload(curve, None if args.rigidity == "off" else args.rigidity)
        payload["timing"] = {"seconds": time.perf_counter() - t0}
    _emit(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _scan_row(curve: Curve, index: int, with_lemmas: bool) -> dict:
    with curve:
        F = curve.field
        row = _curve_payload(curve)
        ts_b = enumerate_p_torsion(curve, method="brute")
        ts_s = enumerate_p_torsion(curve, method="semilinear")
        row.update(index=index, agree=ts_b.forms == ts_s.forms, **_torsion_fields(curve, ts_b))
        if with_lemmas:
            from . import verify

            statuses = [r.status for r in _lemma_reports(
                curve, ts_b.nonzero(F), lambda ab_L: (verify.independent_basis_form(F, ab_L),))]
            row["lemmaStatuses"] = statuses
            row["lemmaViolations"] = sum(1 for s in statuses if s == "violated")
        return row


def _scan_curves(args):
    """The curves to scan, each built once; a malformed catalog record raises
    before any row is written."""
    if args.catalog:
        try:
            with open(args.catalog, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise RangeError(f"malformed catalog: {exc}")
        if not isinstance(data, list):
            raise RangeError("catalog must be a JSON array of curve records")
        return [curve_from_spec(spec) for spec in data]
    if args.count is None:
        raise RangeError("scan needs --catalog or --count")
    if args.count < 0:
        raise RangeError(f"--count must be at least 0, got {args.count}")
    field = make_field(args.p)
    import random

    return [random_curve(field, random.Random(args.seed * 1_000_003 + i))
            for i in range(args.count)]


def _resume_ids(path) -> set:
    """Curve ids already in the JSONL sink.  An unterminated final line is
    what an interrupted write leaves: it is cut off, so its curve is redone."""
    with _open_out(path, "ab+") as fh:
        fh.seek(0)
        data = fh.read()
        end = data.rfind(b"\n") + 1
        fh.truncate(end)
    ids = set()
    for n, line in enumerate(data[:end].decode("utf-8", "replace").splitlines(), 1):
        if line.strip():
            try:
                ids.add(json.loads(line).get("curveId"))
            except (ValueError, AttributeError):
                raise RangeError(f"{path} line {n} is not a scan row") from None
    return ids


def _scan_job(job) -> dict:
    return _scan_row(*job)


def cmd_scan(args) -> int:
    t0 = time.perf_counter()
    if args.workers < 1:
        raise RangeError(f"--workers must be at least 1, got {args.workers}")
    curves_in = _scan_curves(args)
    done_ids = _resume_ids(args.out) if args.out else set()
    jobs = [(curve, i, args.lemmas) for i, curve in enumerate(curves_in)
            if curve_id(curve) not in done_ids]
    procs = min(args.workers, len(jobs), os.cpu_count() or 1)
    curves = ordinary = violations = 0
    matches = True
    with contextlib.ExitStack() as stack:
        if procs > 1:
            import multiprocessing as mp

            rows = stack.enter_context(mp.Pool(procs)).imap(_scan_job, jobs)
        else:
            rows = map(_scan_job, jobs)
        sink = sys.stdout
        if args.out:
            sink = stack.enter_context(_open_out(args.out, "a"))
        # rows arrive in job order; each is on disk before the next is awaited
        for row in rows:
            sink.write(_dump(row) + "\n")
            sink.flush()
            curves += 1
            ordinary += row["ordinary"]
            violations += row.get("lemmaViolations", 0)
            matches = matches and (row["pRank"] == 2) == row["ordinary"]
    from fractions import Fraction

    aggregate = {
        "aggregate": {
            "curves": curves,
            "skippedExisting": len(curves_in) - len(jobs),
            "ordinaryFraction": str(Fraction(ordinary, curves)) if curves else "0",
            "lemmaViolations": violations,
            "torsionMatchesOrdinarity": matches,
        },
        "timing": {"seconds": time.perf_counter() - t0},
        "version": __version__,
    }
    print(_dump(aggregate))
    return EXIT_OK


def cmd_formulas(args) -> int:
    from .formulas import counts

    record = counts(args.p, args.g)
    record["version"] = __version__
    _emit(record, args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argparse error (a missing or unknown option, a malformed value) is
    a RangeError, so `main` prints it as one JSON line; the subparsers are
    of this class too (`add_subparsers` defaults to the parent's)."""

    def error(self, message):
        raise RangeError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="g2frob",
        description="Exact Frobenius/Cartier invariants of genus-2 curves "
        "y^2 = f(x) in odd characteristic",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=int, required=True, help="odd prime characteristic")
        sp.add_argument("--f", type=str, required=True,
                        help="six comma-separated coefficients c0,...,c5 of f")
        sp.add_argument("--ext-k", type=int, default=1,
                        help="work over F_{p^k} (modulus searched deterministically)")
        sp.add_argument("--ext-modulus", type=str, default=None,
                        help="explicit modulus coefficients c0,...,ck of degree --ext-k")
        sp.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("curve", help="validate a curve, print its Cartier-Manin data")
    common(sp)
    sp.set_defaults(fn=cmd_curve)

    sp = sub.add_parser("torsion", help="enumerate flat global forms")
    common(sp)
    sp.add_argument("--method", choices=["brute", "semilinear"], default="brute")
    sp.add_argument("--crosscheck", action="store_true",
                    help="also run the other method and compare")
    sp.set_defaults(fn=cmd_torsion)

    sp = sub.add_parser("verify", help="run the lemma checks on one curve")
    common(sp)
    sp.add_argument("--rigidity", choices=["off", "brute", "linear"],
                    default="linear",
                    help="deformation-rigidity scan mode (default linear)")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("scan", help="batch scan over a catalog or random curves")
    sp.add_argument("--catalog", type=str, default=None,
                    help="JSON array of curve records {p, ext?, f}")
    sp.add_argument("--count", type=int, default=None,
                    help="number of random curves to generate")
    sp.add_argument("--p", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out", type=str, default=None,
                    help="JSONL sink; existing curve ids are skipped (resume)")
    sp.add_argument("--lemmas", action=argparse.BooleanOptionalAction, default=True,
                    help="include two-sums / off-diagonal checks per curve")
    sp.set_defaults(fn=cmd_scan)

    sp = sub.add_parser("formulas", help="closed-form invariant counts")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--g", type=int, default=2)
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(fn=cmd_formulas)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses: built on its first call, once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except ResourceGuardError as exc:
        print(_dump({"error": str(exc), "kind": type(exc).__name__}))
        return EXIT_GUARD
    except InputError as exc:
        print(_dump({"error": str(exc), "kind": type(exc).__name__}))
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
