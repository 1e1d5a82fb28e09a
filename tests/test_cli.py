"""CLI contract: exit codes, JSON payloads, determinism, resumability."""

import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g2frob.cli import main

from conftest import CERTIFIED


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def _stripped_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [
            json.dumps(_strip_timing(json.loads(line)), sort_keys=True)
            for line in fh
            if line.strip()
        ]


def test_curve_happy_path(capsys):
    code, out = run(capsys, "curve", "--p", "3", "--f", "2,0,1,1,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["ordinary"] is True
    assert payload["A"] == [[1, 0], [1, 1]]
    assert payload["pRank"] == 2
    assert payload["curve"] == {"p": 3, "f": [2, 0, 1, 1, 1, 1]}


def test_curve_invalid_inputs(capsys):
    code, out = run(capsys, "curve", "--p", "2", "--f", "1,1,0,0,0,1")
    assert code == 2 and json.loads(out)["kind"] == "EvenCharacteristic"
    code, out = run(capsys, "curve", "--p", "3", "--f", "0,1,0,1,0,1")
    assert code == 2 and json.loads(out)["kind"] == "NotSquarefree"
    # the non-squarefree-over-F_3 classic: x^5 + x + 1 has (x - 1)^2 in it
    code, out = run(capsys, "curve", "--p", "3", "--f", "1,1,0,0,0,1")
    assert code == 2 and json.loads(out)["kind"] == "NotSquarefree"
    code, out = run(capsys, "curve", "--p", "5", "--f", "1,2,3")
    assert code == 2
    code, out = run(capsys, "curve", "--p", "9", "--f", "1,1,0,0,0,1")
    assert code == 2


def test_torsion_crosscheck(capsys):
    code, out = run(
        capsys, "torsion", "--p", "3", "--f", "2,0,1,1,1,1",
        "--method", "semilinear", "--crosscheck",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["torsionForms"] == [[0, 0], [0, 1], [0, 2]]
    assert payload["torsionDim"] == 1
    assert payload["isSubspace"] is True


def test_torsion_brute_guard_exit_code(capsys):
    code, out = run(
        capsys, "torsion", "--p", "3", "--f", "2,0,1,1,1,1", "--ext-k", "10",
    )
    assert code == 3
    assert json.loads(out)["kind"] == "FieldTooLargeForBrute"


def test_brute_refused_on_candidates_before_any_derivation_step(tmp_path, capsys, monkeypatch):
    # |F|^2 > 2^22 candidates at p = 2053, over F_{3^7} and in a scan row over
    # F_{3^7}: exit 3 before brute's precomputation runs
    from g2frob import cartier
    from g2frob.exactnum import make_field
    from g2frob.funcfield import Curve, curve_spec

    steps = []
    monkeypatch.setattr(cartier, "_flat_form_data", lambda curve: steps.append(curve))
    for argv in ("torsion --p 2053 --f 1,2,3,4,5,1",
                 "torsion --p 3 --ext-k 7 --f 2,0,1,1,1,1"):
        code, out = run(capsys, *argv.split())
        assert code == 3 and json.loads(out)["kind"] == "FieldTooLargeForBrute"
    F = make_field(3, 7)
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([curve_spec(Curve(F, [F.from_int(c) for c in (2, 0, 1, 1, 1, 1)]))]))
    code, out = run(capsys, "scan", "--catalog", str(path))
    assert code == 3 and json.loads(out)["kind"] == "FieldTooLargeForBrute"
    assert not steps


def test_torsion_over_extension(capsys):
    code, out = run(
        capsys, "torsion", "--p", "3", "--f", "2,0,1,1,1,1",
        "--ext-k", "3", "--method", "semilinear",
    )
    assert code == 0
    assert json.loads(out)["torsionCount"] == 9


def test_verify_command(capsys):
    code, out = run(capsys, "verify", "--p", "3", "--f", "2,0,1,1,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    statuses = [r["status"] for r in payload["lemmas"]]
    assert set(statuses) == {"holds", "inapplicable"}
    # omega_L = x dx/y is itself a basis form, so that pairing is dependent
    assert statuses.count("inapplicable") > 0
    assert payload["rigidity"][0]["status"] == "holds"


def test_verify_one_rigidity_report_per_fp_line(capsys):
    # over F_9 this curve has nine flat forms: eight nonzero ones on four
    # F_3-lines, so four rigidity scans, not eight
    code, out = run(capsys, "verify", "--p", "3", "--ext-k", "2", "--f", "1,0,1,2,2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["torsionCount"] == 9
    forms = [(tuple(r["witness"]["omegaL"]["a"]), tuple(r["witness"]["omegaL"]["b"]))
             for r in payload["rigidity"]]
    assert len(forms) == 4

    def multiples(ab):
        return {tuple(tuple(s * c % 3 for c in v) for v in ab) for s in (1, 2)}

    assert len(set().union(*map(multiples, forms))) == 8


def test_verify_on_a_field_above_the_brute_limit(capsys):
    # |F_{3^10}| = 59049 is above the brute guard; verify's semilinear solver
    # finds the flat forms, one F_3-line of them
    argv = ["verify", "--p", "3", "--ext-k", "10", "--f", "2,0,1,1,1,1"]
    code, out = run(capsys, *argv, "--rigidity", "off")
    assert code == 0
    payload = json.loads(out)
    assert payload["torsionCount"] == 3
    assert len(payload["lemmas"]) == 8
    # the linear rigidity solve reads its verdict off the kernel basis: the
    # family's 3^20 triples are counted, not listed
    code, out = run(capsys, *argv)
    assert code == 0
    (report,) = json.loads(out)["rigidity"]
    assert report["status"] == "holds"
    assert report["witness"]["solutionCount"] == report["witness"]["familyCount"] == 3 ** 20


def test_huge_prime_exits_with_the_guard(capsys):
    # 2^61 - 1 is prime and accepted by the field, but Cartier-Manin refuses it
    code, out = run(capsys, "curve", "--p", "2305843009213693951", "--f", "1,0,0,0,0,1")
    assert code == 3
    assert json.loads(out)["kind"] == "PrimeTooLarge"
    # no flat form, so verify runs no lemma check and no derivation step:
    # Cartier-Manin and the semilinear solve alone
    code, out = run(capsys, "verify", "--p", "20011", "--f", "1,0,0,0,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["lemmas"] == [] and payload["rigidity"] == []
    assert payload["note"] == "no nonzero rational flat forms over this field"
    # the semilinear solver needs only the Cartier-Manin matrix, which has
    # no fixed vector here: the zero form alone
    code, out = run(capsys, "torsion", "--method", "semilinear", "--p", "16411",
                    "--f", "1,0,0,0,1,1")
    assert code == 0
    assert json.loads(out)["torsionCount"] == 1


def test_verify_no_torsion_note(capsys):
    # ordinary curve whose rational flat forms reduce to zero
    code, out = run(capsys, "verify", "--p", "3", "--f", "2,2,0,2,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["lemmas"] == []
    assert "no nonzero rational flat forms" in payload["note"]


def test_formulas_command(capsys):
    code, out = run(capsys, "formulas", "--p", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["baseLocusLength"] == 16
    assert payload["verschiebungDegree"] == 11
    code, out = run(capsys, "formulas", "--p", "5", "--g", "2")
    assert json.loads(out)["tauInvariantCount"] == 48
    code, out = run(capsys, "formulas", "--p", "4")
    assert code == 2
    # 2^(2g-3) (7^g - 1) has more than 4,300 digits at g = 3000: refused
    # before json would fail to print it
    code, out = run(capsys, "formulas", "--p", "7", "--g", "3000")
    assert code == 3 and json.loads(out)["kind"] == "ResourceGuardError"
    assert out.count("\n") == 1
    code, out = run(capsys, "formulas", "--p", "7", "--g", "2500")
    assert code == 0 and json.loads(out)["tauInvariantCount"] == 2 ** 4997 * (7 ** 2500 - 1)


def _one_json_line(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    lines = buf.getvalue().splitlines()
    assert code in (0, 2, 3) and len(lines) == 1
    json.loads(lines[0])


_PRIMES = st.sampled_from([3, 5, 7, 13, 9973])


def _option_argv(values):
    """argv tails in option syntax: each option of `values` (name -> value
    strategy), or the unknown --q, given as `--name value` (a value with a
    leading '-' then reads as an option) or as `--name=value`; any option
    may be missing or repeated."""
    names = sorted(values) + ["q"]
    one = st.sampled_from(names).flatmap(lambda name: st.tuples(
        st.just(name), values.get(name, st.text(max_size=8)), st.booleans()))
    return st.lists(one, max_size=5).map(lambda opts: [
        tok for name, v, joined in opts
        for tok in ([f"--{name}={v}"] if joined else [f"--{name}", v])])


def _ints_or_text(ints):
    return st.one_of(ints.map(str), st.text(max_size=12))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.one_of(
    st.tuples(st.one_of(_PRIMES, st.integers(-2 ** 64, 2 ** 64)),
              st.integers(-100, 20_000)).map(lambda pg: [f"--p={pg[0]}", f"--g={pg[1]}"]),
    _option_argv({"p": _ints_or_text(st.one_of(_PRIMES, st.integers(-2 ** 64, 2 ** 64))),
                  "g": _ints_or_text(st.integers(-100, 20_000))})))
def test_formulas_input_fuzz(tail):
    # any ints, and option syntax with missing, repeated, unknown, negative
    # or non-integer values: one JSON line and exit 0, 2 or 3, never a
    # traceback or argparse's usage text
    _one_json_line(["formulas", *tail])


_COEFFS = st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=8)
_F_STRINGS = st.one_of(_COEFFS.map(lambda cs: ",".join(map(str, cs))),
                       _COEFFS.filter(lambda cs: len(cs) >= 5).map(
                           lambda cs: ",".join(map(str, cs[:5] + [1]))),
                       st.text(max_size=24))
_SMALL_P = st.one_of(_PRIMES, st.integers(-10, 10 ** 4))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.one_of(
    st.tuples(_SMALL_P, _F_STRINGS).map(lambda pf: [f"--p={pf[0]}", f"--f={pf[1]}"]),
    _option_argv({"p": _ints_or_text(_SMALL_P), "f": _F_STRINGS,
                  "seed": _ints_or_text(st.integers(-10, 10))})))
def test_curve_input_fuzz(tail):
    # arbitrary p <= 10^4 and well- or malformed --f strings, also in option
    # syntax (`--f -1,...` reads as an option), with options missing,
    # repeated or unknown
    _one_json_line(["curve", *tail])


@pytest.mark.parametrize("argv", [
    "curve --p 5 --f -1,0,0,0,0,1",  # -1,... reads as an option: --f has no value
    "curve --f 1,0,0,0,0,1",  # no --p
    "curve --p 3 --ext-k 2 --seed 1 --f 2,0,1,1,1,1",  # --seed is scan's alone
    "formulas --p 7 --g x",
    "bogus --p 5",
    "",
])
def test_argparse_errors_are_one_json_line(capsys, argv):
    code, out = run(capsys, *argv.split())
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out)["kind"] == "RangeError"


@pytest.mark.parametrize("argv", ["--help", "verify --help"])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 0 and "usage: g2frob" in capsys.readouterr().out


def test_scan_deterministic_across_runs_and_workers(tmp_path, capsys):
    args = ["scan", "--p", "5", "--count", "6", "--seed", "42"]
    outs = []
    for i, workers in enumerate((1, 1, 3)):
        path = tmp_path / f"scan{i}.jsonl"
        code, agg = run(capsys, *args, "--workers", str(workers), "--out", str(path))
        assert code == 0
        outs.append((_stripped_lines(path), _strip_timing(json.loads(agg))))
    assert outs[0] == outs[1] == outs[2]
    assert outs[0][1]["aggregate"]["curves"] == 6


def test_scan_resume_skips_existing(tmp_path, capsys):
    path = tmp_path / "scan.jsonl"
    code, agg1 = run(capsys, "scan", "--p", "3", "--count", "4", "--seed", "7",
                     "--out", str(path))
    assert code == 0
    n1 = len(_stripped_lines(path))
    code, agg2 = run(capsys, "scan", "--p", "3", "--count", "4", "--seed", "7",
                     "--out", str(path))
    assert code == 0
    agg2 = json.loads(agg2)
    assert agg2["aggregate"]["skippedExisting"] == n1
    assert len(_stripped_lines(path)) == n1  # nothing appended twice


def test_scan_rows_satisfy_ordinarity_link(tmp_path, capsys):
    path = tmp_path / "rows.jsonl"
    code, agg = run(capsys, "scan", "--p", "5", "--count", "10", "--seed", "3",
                    "--out", str(path))
    assert code == 0
    assert json.loads(agg)["aggregate"]["torsionMatchesOrdinarity"] is True
    for line in _stripped_lines(path):
        row = json.loads(line)
        assert row["agree"] is True
        assert row["isSubspace"] is True
        assert (row["pRank"] == 2) == row["ordinary"]


def test_scan_catalog_inputs(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    code, agg = run(capsys, "scan", "--catalog", str(empty))
    assert code == 0
    assert json.loads(agg)["aggregate"]["curves"] == 0

    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps([
        {"p": 3, "f": CERTIFIED[3][0]},
        {"p": 5, "f": CERTIFIED[5][0]},
    ]))
    out_path = tmp_path / "cat_rows.jsonl"
    code, agg = run(capsys, "scan", "--catalog", str(cat), "--out", str(out_path))
    assert code == 0
    rows = [json.loads(l) for l in _stripped_lines(out_path)]
    assert [r["curve"]["p"] for r in rows] == [3, 5]
    assert all(r["lemmaViolations"] == 0 for r in rows)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, "scan", "--catalog", str(bad))
    assert code == 2

    notalist = tmp_path / "obj.json"
    notalist.write_text("{}")
    code, _ = run(capsys, "scan", "--catalog", str(notalist))
    assert code == 2


def test_scan_needs_source(capsys):
    code, out = run(capsys, "scan")
    assert code == 2


def test_out_file_writing(tmp_path, capsys):
    path = tmp_path / "curve.json"
    code, out = run(capsys, "curve", "--p", "3", "--f", "2,0,1,1,1,1",
                    "--out", str(path))
    assert code == 0 and out == ""
    payload = json.loads(path.read_text())
    assert payload["ordinary"] is True


@pytest.mark.parametrize("argv", [
    ["curve", "--p", "3", "--f", "2,0,1,1,1,1"],
    ["torsion", "--p", "3", "--f", "2,0,1,1,1,1"],
    ["verify", "--p", "3", "--f", "2,0,1,1,1,1"],
    ["formulas", "--p", "3"],
    ["scan", "--p", "3", "--count", "2"],
])
def test_an_unwritable_out_is_an_input_error(tmp_path, capsys, argv):
    # a directory, and a path under a missing directory: one JSON error line
    # and exit 2, not a traceback
    for out in (tmp_path, tmp_path / "missing" / "out.json"):
        code, text = run(capsys, *argv, "--out", str(out))
        assert code == 2 and text.count("\n") == 1
        assert json.loads(text)["kind"] == "RangeError"
    assert list(tmp_path.iterdir()) == []


def test_a_refused_run_leaves_its_out_file_as_it_was(tmp_path, capsys):
    # the output is opened only once it is built
    path = tmp_path / "out.json"
    path.write_text("kept\n")
    code, _ = run(capsys, "curve", "--p", "3", "--f", "0,1,0,1,0,1", "--out", str(path))
    assert code == 2 and path.read_text() == "kept\n"
    code, _ = run(capsys, "verify", "--p", "211", "--f", "98,88,198,5,142,1", "--out", str(path))
    assert code == 3 and path.read_text() == "kept\n"


def test_scan_refuses_a_negative_count(tmp_path, capsys):
    path = tmp_path / "scan.jsonl"
    code, out = run(capsys, "scan", "--count", "-3", "--out", str(path))
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out)["kind"] == "RangeError"
    assert not path.exists()


def test_extension_options_build_the_field_asked_for(capsys):
    base = ["curve", "--p", "3", "--f", "2,0,1,1,1,1"]
    # a degree-2 modulus cannot present F_27
    code, out = run(capsys, *base, "--ext-k", "3", "--ext-modulus", "1,0,1")
    assert code == 2 and json.loads(out)["kind"] == "RangeError"
    code, out = run(capsys, *base, "--ext-modulus", "a,b")
    assert code == 2 and json.loads(out)["kind"] == "RangeError"
    # no field of degree 0: rejected, not read as F_p
    code, out = run(capsys, *base, "--ext-k", "0")
    assert code == 2 and json.loads(out)["kind"] == "RangeError"
    code, out = run(capsys, *base, "--ext-k", "2", "--ext-modulus", "1,0,1")
    assert code == 0 and json.loads(out)["curve"]["ext"] == [1, 0, 1]


def test_brute_rigidity_refused_on_cost_before_any_engine_run(capsys, monkeypatch):
    # 169^3 triples at p = 13 would take hours; F_9 and p = 7 are refused
    # too, each before the lemma checks run the engine
    from g2frob import verify

    engine = []
    monkeypatch.setattr(verify, "p_curvature_matrix", lambda conn: engine.append(conn))
    for argv in ("verify --p 13 --f 11,7,3,9,6,1 --rigidity brute",
                 "verify --p 7 --f 5,0,0,5,1,1 --rigidity brute",
                 "verify --p 3 --ext-k 2 --f 2,0,1,1,1,1 --rigidity brute"):
        code, out = run(capsys, *argv.split())
        assert code == 3 and json.loads(out)["kind"] == "FieldTooLargeForBrute"
    assert not engine


@pytest.mark.parametrize("argv", [
    "torsion --p 5 --f 1,2,3,4,5,1 --ext-k 400",
    "curve --p 3 --ext-k 3000 --f 2,0,1,1,1,1",
    "curve --p 3 --ext-k 64 --f 2,0,1,1,1,1",
    "curve --p 3 --ext-k 100 --ext-modulus " + ",".join(["1"] * 101) + " --f 2,0,1,1,1,1",
])
def test_extension_degree_guard(capsys, monkeypatch, argv):
    # refused before the modulus search or the irreducibility check
    from g2frob import exactnum

    monkeypatch.setattr(exactnum, "_x_power_minus_x", None)
    code, out = run(capsys, *argv.split())
    assert code == 3 and json.loads(out)["kind"] == "ResourceGuardError"


def test_extension_degree_guard_on_a_catalog_record(tmp_path, capsys):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([{"p": 3, "ext": [1] * 101, "f": CERTIFIED[3][0]}]))
    code, out = run(capsys, "scan", "--catalog", str(path))
    assert code == 3 and json.loads(out)["kind"] == "ResourceGuardError"


_GUARD_K = st.sampled_from(["64", "400", "3000"])
_MODULUS_64 = ",".join(["1"] * 65)
_QUINTIC = st.lists(st.integers(0, 12), min_size=5, max_size=5).map(
    lambda cs: ",".join(map(str, cs + [1])))
_FUZZ_F = st.one_of(_QUINTIC, st.lists(st.integers(-3, 12), max_size=7).map(
    lambda cs: ",".join(map(str, cs))), st.text(max_size=12))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.one_of(
    st.tuples(st.sampled_from([3, 5, 7, 13]), _QUINTIC, st.sampled_from(["brute", "semilinear"]),
              st.booleans()).map(
        lambda d: [f"--p={d[0]}", f"--f={d[1]}", f"--method={d[2]}"]
        + (["--crosscheck"] if d[3] else [])),
    st.tuples(st.sampled_from([3, 5, 7, 13]), _QUINTIC, st.one_of(
        _GUARD_K.map(lambda k: [f"--ext-k={k}"]),
        st.just(["--ext-k=64", f"--ext-modulus={_MODULUS_64}"]))
    ).map(lambda d: [f"--p={d[0]}", f"--f={d[1]}", *d[2]]),  # the extension guard
    st.tuples(st.sampled_from([3, 5, 7]), _QUINTIC, st.sampled_from(["2", "3"])).map(
        lambda d: [f"--p={d[0]}", f"--f={d[1]}", "--method=semilinear", f"--ext-k={d[2]}"]),
    _option_argv({"p": _ints_or_text(st.integers(-10, 20)), "f": _FUZZ_F,
                  "method": st.sampled_from(["brute", "semilinear", "x"]),
                  "ext-k": st.one_of(_GUARD_K, st.integers(-2, 1).map(str), st.text(max_size=4)),
                  "ext-modulus": st.one_of(st.text(max_size=8), st.just(_MODULUS_64))})))
def test_torsion_input_fuzz(tail):
    # small fields, the extension guard's range (k = 64, 400, 3000 and a
    # degree-64 modulus), malformed values and options: one JSON line and
    # exit 0, 2 or 3
    _one_json_line(["torsion", *tail])


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.one_of(
    st.tuples(st.sampled_from([3, 5, 7]), _QUINTIC, st.sampled_from(["off", "linear"])).map(
        lambda d: [f"--p={d[0]}", f"--f={d[1]}", f"--rigidity={d[2]}"]),
    st.tuples(st.sampled_from([3, 5, 7]), _QUINTIC, _GUARD_K).map(
        lambda d: [f"--p={d[0]}", f"--f={d[1]}", f"--ext-k={d[2]}"]),  # the extension guard
    _FUZZ_F.map(lambda f: ["--p=7", f"--f={f}", "--rigidity=brute"]),  # the brute guard
    _option_argv({"p": _ints_or_text(st.integers(-10, 7)), "f": _FUZZ_F,
                  "rigidity": st.sampled_from(["off", "linear", "x"]),
                  "ext-k": st.one_of(_GUARD_K, st.integers(-2, 1).map(str),
                                     st.text(max_size=4))})))
def test_verify_input_fuzz(tail):
    # p <= 7 (brute rigidity only where its guard refuses it), the extension
    # guard's range and malformed input: one JSON line and exit 0, 2 or 3
    _one_json_line(["verify", *tail])


_RECORD = st.one_of(
    st.fixed_dictionaries({"p": st.sampled_from([3, 5, 7]), "f": _QUINTIC.map(
        lambda f: [int(c) for c in f.split(",")])}),
    st.fixed_dictionaries({"p": st.just(3), "f": st.just(CERTIFIED[3][0]),
                           "ext": st.sampled_from([[1, 0, 1], [1] * 65, [2] + [0] * 399 + [1]])}),
    st.fixed_dictionaries(
        {"p": st.one_of(st.integers(-3, 9), st.text(max_size=3)),
         "f": st.lists(st.one_of(st.integers(-3, 12), st.text(max_size=2),
                                 st.lists(st.integers(0, 3), max_size=3)), max_size=7)},
        optional={"ext": st.one_of(st.lists(st.integers(-2, 3), max_size=3),
                                   st.text(max_size=3), st.none())}),
    st.integers(), st.text(max_size=4), st.none())


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.one_of(st.lists(_RECORD, min_size=1, max_size=3), st.lists(_RECORD, max_size=2),
                 _RECORD, st.text(max_size=8)),
       st.booleans())
@example([{"p": 5, "f": CERTIFIED[5][0]}, {"p": 3, "f": CERTIFIED[3][0], "ext": [1] * 65}], True)
@example([{"p": 7, "f": CERTIFIED[7][0]}, {"p": 3, "ext": [1, 0, 1], "f": CERTIFIED[3][0]}], True)
def test_scan_catalog_fuzz(tmp_path_factory, catalog, lemmas):
    # catalogs of small curve records, F_9 records, records in the extension
    # guard's range (degrees 64 and 400), malformed records and catalogs:
    # the rows go to --out, and stdout is one JSON line with exit 0, 2 or 3
    d = tmp_path_factory.mktemp("fuzz")
    path = d / "cat.json"
    path.write_text(catalog if isinstance(catalog, str) else json.dumps(catalog))
    _one_json_line(["scan", "--catalog", str(path), "--out", str(d / "rows.jsonl"),
                    "--lemmas" if lemmas else "--no-lemmas"])


def test_scan_rejects_malformed_catalog_entries(tmp_path, capsys):
    good = CERTIFIED[3][0]
    for entry in (5, {"p": 3, "f": good[:5] + [1.5]}, {"p": 3, "f": ["3"] + good[1:]},
                  {"p": 3, "ext": [1, 0, 1], "f": [[1, 2, 0]] + good[1:]}):
        cat = tmp_path / "cat.json"
        cat.write_text(json.dumps([entry]))
        code, out = run(capsys, "scan", "--catalog", str(cat))
        assert code == 2, entry
        assert json.loads(out)["kind"] == "RangeError"
    # over F_9 a coefficient may be a list of at most two ints (c0 + c1 t)
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps([{"p": 3, "ext": [1, 0, 1], "f": [[2, 1], 0, 1, [1], 1, 1]}]))
    path = tmp_path / "rows.jsonl"
    code, _ = run(capsys, "scan", "--catalog", str(cat), "--out", str(path))
    assert code == 0
    row = json.loads(_stripped_lines(path)[0])
    assert row["curve"]["f"] == [[2, 1], [0, 0], [1, 0], [1, 0], [1, 0], [1, 0]]


def test_scan_builds_each_curve_once_and_every_one_before_any_row(tmp_path, capsys, monkeypatch):
    # each record's curve is built once, for its resume id, and handed to its
    # row; a malformed record after good ones exits 2 before any row is written
    from g2frob import cli

    built, real_build = [], cli.curve_from_spec
    monkeypatch.setattr(cli, "curve_from_spec", lambda spec: built.append(spec) or real_build(spec))
    good = [{"p": p, "f": f} for p, (f, _) in sorted(CERTIFIED.items())]
    cat, rows, torn = tmp_path / "cat.json", tmp_path / "rows.jsonl", tmp_path / "torn.jsonl"
    cat.write_text(json.dumps(good))
    code, _ = run(capsys, "scan", "--catalog", str(cat), "--out", str(rows))
    assert code == 0 and built == good and len(rows.read_text().splitlines()) == 3
    cat.write_text(json.dumps(good + [{"p": 3, "f": [1, 2]}]))
    code, out = run(capsys, "scan", "--catalog", str(cat), "--out", str(torn))
    assert code == 2 and json.loads(out)["kind"] == "DegreeNotFive"
    assert not torn.exists()
    code, out = run(capsys, "scan", "--catalog", str(cat))
    assert code == 2 and out.count("\n") == 1


def test_scan_count_builds_each_random_curve_once(capsys, monkeypatch):
    # scan --count scans the very curves random_curve drew: one accepted
    # Curve per row, none rebuilt from its catalog record
    from g2frob.funcfield import Curve, curve_id

    built, real_init = [], Curve.__init__

    def init(self, *args):
        real_init(self, *args)
        built.append(curve_id(self))

    monkeypatch.setattr(Curve, "__init__", init)
    code, out = run(capsys, "scan", "--p", "5", "--count", "6", "--seed", "3")
    rows = [json.loads(line) for line in out.splitlines()[:-1]]
    assert code == 0 and built == [row["curveId"] for row in rows] and len(rows) == 6


def test_scan_resume_recomputes_a_torn_final_line(tmp_path, capsys):
    path = tmp_path / "scan.jsonl"
    args = ["scan", "--p", "3", "--count", "3", "--seed", "7", "--out", str(path)]
    code, _ = run(capsys, *args)
    assert code == 0
    whole = _stripped_lines(path)
    text = path.read_text()
    last = text.rstrip("\n").rfind("\n") + 1
    path.write_text(text[: last + 20])  # an interrupted write of the last row
    code, agg = run(capsys, *args)
    assert code == 0
    assert json.loads(agg)["aggregate"]["skippedExisting"] == len(whole) - 1
    assert _stripped_lines(path) == whole


def test_scan_interrupted_run_keeps_its_rows_and_resumes(tmp_path, capsys, monkeypatch):
    from g2frob import cli

    args = ["scan", "--p", "5", "--count", "5", "--seed", "11", "--workers", "1"]
    whole, part = tmp_path / "whole.jsonl", tmp_path / "part.jsonl"
    code, _ = run(capsys, *args, "--out", str(whole))
    assert code == 0
    real_row, jobs = cli._scan_row, []

    def interrupted_on_the_third_job(*job):
        jobs.append(job)
        if len(jobs) == 3:
            raise RuntimeError("interrupted")
        return real_row(*job)

    monkeypatch.setattr(cli, "_scan_row", interrupted_on_the_third_job)
    with pytest.raises(RuntimeError):
        main([*args, "--out", str(part)])
    monkeypatch.undo()
    capsys.readouterr()
    rows = whole.read_text().splitlines(keepends=True)
    assert part.read_text() == "".join(rows[:2])
    code, agg = run(capsys, *args, "--out", str(part))
    assert code == 0
    assert json.loads(agg)["aggregate"]["skippedExisting"] == 2
    assert part.read_text() == whole.read_text()


def test_scan_pool_size_is_bounded(capsys, monkeypatch):
    import multiprocessing
    import os

    sizes = []

    class InlinePool:
        """Records the requested size and runs the jobs in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    # (workers, jobs) -> the pool sizes asked for: min(workers, jobs, cpus),
    # and no pool at all for one process
    for workers, count, want in ((8, 3, [3]), (1000, 6, [4]), (2, 6, [2]),
                                 (1, 6, []), (8, 1, [])):
        sizes.clear()
        code, agg = run(capsys, "scan", "--p", "3", "--count", str(count),
                        "--workers", str(workers), "--no-lemmas")
        assert code == 0
        assert json.loads(agg.splitlines()[-1])["aggregate"]["curves"] == count
        assert sizes == want, (workers, count)
    for workers in ("0", "-2"):
        code, out = run(capsys, "scan", "--p", "3", "--count", "2", "--workers", workers)
        assert code == 2 and json.loads(out)["kind"] == "RangeError"
    assert sizes == []


# sha256 of the timing-stripped stdout of each command (one sorted-key JSON
# document per line).  Refactors must leave every payload byte-identical.
GOLDEN = {
    "curve --p 7 --f 5,0,0,5,1,1":
        "1eed2585cd8f6bfe45013fc52beec329a3445d8f3d561bd40064f31151ab1351",
    "curve --p 3 --ext-k 3 --f 2,0,1,1,1,1":
        "369b6ec95c42a12f732d18c3e850efc89406b2e19ff8bff514a5092543ed6b60",
    "torsion --p 5 --f 1,0,4,0,4,1 --crosscheck":
        "ccfae76dc16784659163e3f2aefd56a1190ee1136140be97d0662c952273317f",
    "torsion --p 5 --ext-k 2 --f 1,0,4,0,4,1 --method semilinear":
        "96b567b8f2ccdc8cac3d097738bc479066314430ed81753e354d35063b063e23",
    "verify --p 7 --f 5,0,0,5,1,1":
        "19fc555216e02ab573681caa2c9ecc7c3ab193558e124bd9ea2fecf363a1a0f0",
    # the only extension-field run of the linear rigidity solve; one report
    # for the one F_3-line of flat forms (b = 1 and b = 2 lie on it)
    "verify --p 3 --ext-k 2 --f 2,0,1,1,1,1":
        "ddfb82222ff721f1d61270c18d55740c5f2699e389b094a4c40d93a566d0d9ed",
    # axis lines: a flat line with b = 0, where theta_L(x) = c y has no
    # denominator, and one with a = 0, where omega_L = c x dx/y and l = x
    "verify --p 5 --f 0,1,1,0,0,1":
        "4d47ad2c2c151adc232b360e4ac9118ba046c1faad60b43e8ea3b9d6662fecba",
    "verify --p 7 --f 0,1,0,0,1,1":
        "5d9fddced0001f4288f560c58b4f71f3df47c2566410aba255c5a73b048939e2",
    # a plane of flat forms over F_27: 9 forms on 4 F_3-lines, 32 lemma
    # reports and 4 rigidity reports
    "verify --p 3 --ext-k 3 --f 2,0,1,1,1,1":
        "767810a0ee6445e569d1d30d1597ef3f34b109aa65ae3cfa1405e45ed9538a91",
    # the verify-midp shape: one flat line with a, b != 0; four multiples
    # have a vanishing sum
    "verify --p 11 --f 5,1,3,9,1,1 --rigidity linear":
        "3d176ab608a497aef41f79d89f53071ab07d6e5a099c1b522de0560f733df85d",
    # one flat F_31-line: 30 multiples, whose off-diagonal reports all read
    # one guard run per shape and form, at the line's representative
    "verify --p 31 --f 28,23,22,16,29,1 --rigidity linear":
        "a2370f40d7715d88d2c86b2c608511097b41ece9509a8c2a4c136b1f9389ac87",
    # one flat F_61-line: theta_L-orbits and engine entries of degree about
    # 2p in l-coordinates
    "verify --p 61 --f 7,1,19,24,21,1 --rigidity linear":
        "4f3dc255f76d2e5cd4b02094745cfd4178f7ece083ac1258a0d419cf01093dbe",
    # one flat F_101-line, the prime of the north star's verify target
    "verify --p 101 --f 15,64,43,51,22,1 --rigidity linear":
        "854c4d1d9c96cfcb1bb57f7de5bf2a5fae87f3d5d8acab58b8b1208771f48cd2",
    "scan --p 5 --count 6 --seed 1":
        "3ba5deb845906a466b3ca09c503988171acc987d4f5c421776d00285829ba7c5",
    "formulas --p 7":
        "2bf6b2fcda3f3dc7dc6a6e57899e695da36a4284d72f316fee8915225ec4aa26",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output(capsys, command):
    code, out = run(capsys, *command.split())
    assert code == 0
    lines = [
        json.dumps(_strip_timing(json.loads(line)), sort_keys=True)
        for line in out.splitlines()
        if line.strip()
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN[command]


@pytest.mark.parametrize("command", [
    "verify --p 7 --f 5,0,0,5,1,1",
    "torsion --p 5 --f 1,0,4,0,4,1 --method semilinear",
    "torsion --p 5 --ext-k 2 --f 1,0,4,0,4,1 --method semilinear",
])
def test_cartier_manin_computed_once_per_call(capsys, monkeypatch, command):
    # the payload and the semilinear solve both ask for the matrix; the
    # curve's memo hands the second one the first one's result
    from g2frob import ExtField, PrimeField

    runs = []

    def counted(recurrence):
        def run_recurrence(F, *args):
            runs.append(args)
            return recurrence(F, *args)
        return run_recurrence

    for cls in (PrimeField, ExtField):
        monkeypatch.setattr(cls, "poly_power_top_two", counted(cls.poly_power_top_two))
    code, _ = run(capsys, *command.split())
    assert code == 0
    assert len(runs) == 2  # one matrix: one recurrence run per row


def test_catalog_curve_with_an_extension_coefficient_keeps_the_generic_run(
        tmp_path, capsys, monkeypatch):
    # x^5 + x^4 + 1 + t over F_9 = F_3[t]/(t^2 + 1) has a coefficient outside F_3,
    # so the matrix takes ExtField's two recurrence runs, not the descent
    from g2frob import ExtField

    runs = []
    generic = ExtField.poly_power_top_two
    monkeypatch.setattr(ExtField, "poly_power_top_two",
                        lambda F, *args: runs.append(args) or generic(F, *args))
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([{"p": 3, "ext": [1, 0, 1], "f": [[1, 1], 0, 0, 0, 1, 1]}]))
    code, _ = run(capsys, "scan", "--catalog", str(path))
    assert code == 0
    assert len(runs) == 2


def test_curve_over_an_extension_embeds_the_prime_field_matrix(capsys):
    # an integer f gives the F_p matrix, each entry as [c, 0, 0], and the
    # same p-rank
    _, base = run(capsys, "curve", "--p", "31", "--f", "13,0,10,5,10,1")
    _, ext = run(capsys, "curve", "--p", "31", "--ext-k", "3", "--f", "13,0,10,5,10,1")
    base, ext = json.loads(base), json.loads(ext)
    assert ext["A"] == [[[c, 0, 0] for c in row] for row in base["A"]]
    assert (ext["pRank"], ext["ordinary"]) == (base["pRank"], base["ordinary"]) == (2, True)


def test_verify_refuses_too_much_lemma_work(capsys, monkeypatch):
    # one flat F_211-line: 211^3 > 2^21, refused after the torsion solve and
    # before any theta_L-orbit or engine run
    from g2frob import verify

    def never(*args):
        raise AssertionError("the guard should refuse before this runs")

    monkeypatch.setattr(verify, "_orbit", never)
    monkeypatch.setattr(verify, "p_curvature_matrix", never)
    code, out = run(capsys, "verify", "--p", "211", "--f", "98,88,198,5,142,1")
    assert code == 3
    assert out.count("\n") == 1
    assert json.loads(out)["kind"] == "PrimeTooLarge"


def test_scan_refuses_too_much_lemma_work(capsys, monkeypatch, tmp_path):
    # the same guard as verify, per scan row with --lemmas: one flat F_211-line
    # is refused after the torsion solve and before any theta_L-orbit
    from g2frob import verify

    def never(*args):
        raise AssertionError("the guard should refuse before this runs")

    monkeypatch.setattr(verify, "_orbit", never)
    catalog = tmp_path / "one.json"
    catalog.write_text(json.dumps([{"p": 211, "f": [98, 88, 198, 5, 142, 1]}]))
    code, out = run(capsys, "scan", "--catalog", str(catalog), "--lemmas")
    assert code == 3
    assert out.count("\n") == 1
    assert json.loads(out)["kind"] == "PrimeTooLarge"


def test_verify_lemma_data_computed_once_per_line(capsys, monkeypatch):
    # one flat F_13-line: its p - 1 multiples share one chart constant, which
    # decides flatness and is the one the engine reads, and one theta_L-orbit,
    # whose multiples by beta are the tables of both basis forms, and the
    # engine runs both triangular connections once per form, at the
    # representative over the line's l-local ring, for all multiples; the
    # rigidity solve runs no engine
    from g2frob import funcfield, verify

    p = 13
    orbits, engine, rings, chart_steps = [], [], [], []
    real_orbit = verify._orbit
    real_matrix, real_apply_n = verify.p_curvature_matrix, funcfield.Derivation.apply_n

    def counted_orbit(*args):
        orbits.append(args)
        return real_orbit(*args)

    def counted_matrix(conn):
        engine.append(conn.is_dual)
        rings.append(conn.ring)
        return real_matrix(conn)

    def counted_apply_n(self, u, n):
        if n == p:  # only a chart constant takes p steps
            chart_steps.append(u)
        return real_apply_n(self, u, n)

    monkeypatch.setattr(verify, "_orbit", counted_orbit)
    monkeypatch.setattr(verify, "p_curvature_matrix", counted_matrix)
    monkeypatch.setattr(funcfield.Derivation, "apply_n", counted_apply_n)
    code, out = run(capsys, "verify", "--p", "13", "--f", "11,7,3,9,6,1",
                    "--rigidity", "linear")
    assert code == 0
    payload = json.loads(out)
    assert payload["torsionCount"] == p and len(payload["rigidity"]) == 1
    assert len(payload["lemmas"]) == 4 * (p - 1)
    assert len(chart_steps) == 1  # the line's, for the flatness check and the engine
    assert len(orbits) == 1
    assert engine.count(False) == 2 * 2  # two shapes, two basis forms
    assert engine.count(True) == 0  # the linear rigidity solve reads the line tables
    assert all(isinstance(R, funcfield.LocalRing) for R in rings)


def test_verify_derives_each_form_and_pair_once(capsys, monkeypatch):
    # the verify-midp curve of the test above, one flat F_13-line: 12 forms,
    # each with two second forms; x, S1 and S2 are encoded once per (form,
    # second form) and both reports read them, the torsion check runs once
    # for the line, on its representative, and once for the rigidity
    # report, and the curve id is hashed once for the whole call
    import types

    from g2frob import funcfield, verify

    encoded, checked, hashed = [], [], []
    real_witness, real_torsion = verify._ffe_witness, verify.require_torsion
    real_sha256 = funcfield.hashlib.sha256
    monkeypatch.setattr(verify, "_ffe_witness", lambda u: encoded.append(u) or real_witness(u))
    monkeypatch.setattr(verify, "require_torsion",
                        lambda cv, omega: checked.append(omega) or real_torsion(cv, omega))
    monkeypatch.setattr(funcfield, "hashlib", types.SimpleNamespace(
        sha256=lambda blob: hashed.append(blob) or real_sha256(blob)))
    code, out = run(capsys, "verify", "--p", "13", "--f", "11,7,3,9,6,1",
                    "--rigidity", "linear")
    assert code == 0
    payload = json.loads(out)
    forms, pairs = payload["torsionCount"] - 1, len(payload["lemmas"]) // 2
    assert (forms, pairs, len(payload["rigidity"])) == (12, 24, 1)
    assert len(encoded) == 3 * pairs == 72
    assert len(checked) == 2
    assert checked[0].g == funcfield.line_representative(checked[0])[1].g
    assert len(hashed) == 1
    assert all(r["curveId"] == payload["curveId"] for r in payload["lemmas"])


def test_a_finished_call_frees_its_curve_without_the_cycle_collector(capsys, monkeypatch):
    # the memo's values refer back to the curve; with the cyclic garbage
    # collector off, the curve of a verify call is freed by refcounting alone
    # as soon as the call is done.  scan builds every curve before its first
    # row (a malformed record exits first) and hands it to its row, which
    # empties its memo as soon as the row is done; once the scan returns,
    # refcounting alone has freed every curve
    import gc
    import weakref

    from g2frob import cli

    refs, emptied = [], []

    def recorded(build):
        def built(*args):
            curve = build(*args)
            refs.append(weakref.ref(curve))
            return curve
        return built

    real_row = cli._scan_row

    def row(curve, *job):
        out = real_row(curve, *job)
        emptied.append(not curve._memo)
        return out

    monkeypatch.setattr(cli, "_build_curve", recorded(cli._build_curve))
    monkeypatch.setattr(cli, "curve_from_spec", recorded(cli.curve_from_spec))
    monkeypatch.setattr(cli, "random_curve", recorded(cli.random_curve))
    monkeypatch.setattr(cli, "_scan_row", row)
    enabled = gc.isenabled()
    gc.disable()
    try:
        code, _ = run(capsys, "verify", "--p", "7", "--f", ",".join(map(str, CERTIFIED[7][0])))
        assert code == 0 and len(refs) == 1 and refs[0]() is None
        code, _ = run(capsys, "scan", "--p", "7", "--count", "4")
    finally:
        if enabled:
            gc.enable()
    assert code == 0 and emptied == [True] * 4
    assert len(refs) == 5 and all(ref() is None for ref in refs)


def test_python_dash_m_runs_the_cli():
    # the package runs as a module: `python -m g2frob` exits 0 and prints
    # the same JSON as `python -m g2frob.cli`
    import os
    import subprocess
    import sys

    import g2frob

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(g2frob.__file__))}
    outs = [subprocess.run([sys.executable, "-m", module, "formulas", "--p", "5"], env=env,
                           capture_output=True, text=True, timeout=60)
            for module in ("g2frob", "g2frob.cli")]
    assert [r.returncode for r in outs] == [0, 0]
    assert json.loads(outs[0].stdout) == json.loads(outs[1].stdout)
    assert outs[0].stdout == outs[1].stdout


_FRESH_CALLS = """
import contextlib, io, json, sys
from g2frob.cli import main

def call(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv.split())
    return [code, buf.getvalue()]

out = [call(argv) for argv in sys.argv[1:3]]
out.append([m for m in ("g2frob.verify", "g2frob.formulas", "fractions", "g2frob.pcurvature",
                        "dataclasses", "inspect") if m in sys.modules])
out += [call(argv) for argv in sys.argv[3:]]
print(json.dumps(out))
"""


def test_curve_and_torsion_load_neither_verify_nor_formulas(capsys):
    # in a fresh interpreter, curve and semilinear torsion import neither
    # verify nor formulas nor the p-curvature engine (nor fractions,
    # dataclasses or inspect); brute torsion, verify, scan --lemmas and
    # formulas, run after them in the same process, import what they need
    # and print what the same calls print in the test process, `timing` dropped
    import os
    import subprocess
    import sys

    import g2frob

    f13 = "11,7,3,9,6,1"  # one flat F_13-line
    argvs = [f"curve --p 13 --f {f13}", f"torsion --p 13 --f {f13} --method semilinear",
             f"torsion --p 13 --f {f13} --method brute",
             f"verify --p 13 --f {f13} --rigidity linear", "scan --p 5 --count 2 --lemmas",
             "formulas --p 5"]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(g2frob.__file__))}
    proc = subprocess.run([sys.executable, "-c", _FRESH_CALLS, *argvs], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    first, loaded, later = out[:2], out[2], out[3:]
    assert loaded == []

    def stripped(text):
        return [_strip_timing(json.loads(line)) for line in text.splitlines() if line.strip()]

    for argv, (code, text) in zip(argvs, first + later):
        assert code == 0
        assert stripped(text) == stripped(run(capsys, *argv.split())[1])
