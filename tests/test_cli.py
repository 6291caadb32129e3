"""Exit codes, JSON schema stability, and file handling of the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nodal_degen
from nodal_degen import cli
from nodal_degen.constructions import build_witness, witness_to_json
from nodal_degen.polynomials import MultiPoly
from oracles import poly


def run(argv):
    """Invoke the CLI in-process; returns (exit_code, stdout)."""
    import io
    import sys

    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_construct_then_certify(tmp_path):
    out = tmp_path / "w.json"
    code, _ = run(["construct", "--d", "4", "--seed", "42", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["d"] == 4 and doc["seed"] == 42
    assert len(doc["nodes"]) == 3
    assert doc["manifest"]["command"] == "construct"
    code, text = run(["certify", str(out)])
    assert code == 0
    assert "Certified" in text


def test_certify_json_schema(tmp_path):
    out = tmp_path / "w.json"
    run(["construct", "--d", "3", "--seed", "1", "--out", str(out)])
    code, text = run(["certify", str(out), "--json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["verdict"] == "Certified"
    assert {s["stage"] for s in doc["certificates"]} == {
        "structure", "gluing", "nodes", "t1", "smoothness", "regularity",
    }
    assert doc["manifest"]["version"]


def test_certify_tampered_gluing_exits_one(tmp_path):
    out = tmp_path / "w.json"
    run(["construct", "--d", "4", "--seed", "2", "--out", str(out)])
    doc = json.loads(out.read_text())
    # overwrite the companion surface with one cutting a different curve on R
    tampered = poly("y**3", ("x", "y", "z", "tau"))
    doc["sB"] = tampered.to_json(("x", "y", "z", "tau"))
    out.write_text(json.dumps(doc))
    code, text = run(["certify", str(out), "--json"])
    assert code == 1
    parsed = json.loads(text)
    assert parsed["verdict"] == "Refuted"
    assert parsed["failed_stage"] == "gluing"


def test_bounds_values():
    code, text = run(["bounds", "--space", "p3", "--d", "8", "--json"])
    assert code == 0
    doc = json.loads(text)
    assert (doc["dim"], doc["delta_max"], doc["heuristic_floor"]) == (164, 21, 41)
    assert doc["heuristic_status"] == "conjectural"

    code, text = run(["bounds", "--space", "p3", "--d", "2", "--json"])
    assert json.loads(text)["delta_max"] == 0

    code, text = run(["bounds", "--space", "ci4", "--d", "3", "--h", "2", "--json"])
    assert json.loads(text)["delta_max"] == 19


def test_bounds_usage_errors():
    code, _ = run(["bounds", "--space", "ci4", "--d", "3"])  # missing --h
    assert code == 64
    code, _ = run(["bounds", "--space", "p2", "--d", "3"])  # not a bounds space
    assert code == 64
    code, _ = run(["bounds", "--space", "p3", "--d", "1"])  # below the d >= 2 bound
    assert code == 64


def test_regularity_exit_codes(tmp_path):
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({"space": "p2", "d": 1}))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"points": [["0", "0", "1"], ["0", "1", "1"], ["1", "0", "1"]]}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": [["0", "0", "1"], ["0", "1", "1"], ["0", "1", "2"]]}))
    code, text = run(["regularity", "--system", str(system), "--points", str(good)])
    assert code == 0 and "regular: True" in text
    code, text = run(["regularity", "--system", str(system), "--points", str(bad), "--json"])
    assert code == 1
    assert json.loads(text)["rank"] == 2


def test_deform_check_exit_codes():
    code, text = run(["deform-check", "--t=-1", "--json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["class"] == "NodeA1"
    assert doc["point"] == ["-1", "0", "0"]
    assert doc["hessian_det"] == "8"
    code, _ = run(["deform-check", "--t=1"])
    assert code == 2  # no rational slice
    code, _ = run(["deform-check", "--t=0"])
    assert code == 64
    code, _ = run(["deform-check", "--t=nonsense"])
    assert code == 64


@pytest.mark.parametrize("t", ["1", "-2"])
def test_deform_check_no_rational_slice_document(t):
    code, text = run(["deform-check", f"--t={t}", "--json"])
    assert code == 2
    doc = json.loads(text)
    assert doc["manifest"].pop("wall_time_ms") >= 0
    assert doc == {
        "manifest": {
            "arguments": ["deform-check", f"--t={t}", "--json"],
            "command": "deform-check",
            "seed": None,
            "verdict": "Inconclusive",
            "version": nodal_degen.__version__,
        },
        "status": "NoRationalSlice",
        "t": t,
    }
    assert run(["deform-check", f"--t={t}"]) == (
        2, f"no rational slice at t = {t} (-4t is not a square)\n"
    )


def test_point_checks_validate_only_outside_polynomials(tmp_path, monkeypatch):
    """deform-check builds every polynomial from its own terms; hessian-limit
    validates only the polynomial it reads from its file."""
    path = tmp_path / "p.json"
    p = poly("x + y + 3/2*x*z - z**2 + 5*z*u + u**3", ("x", "y", "z", "u"))
    path.write_text(json.dumps(p.to_json(("x", "y", "z", "u"))))
    calls = []
    validating_init = MultiPoly.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        validating_init(self, *args, **kwargs)

    monkeypatch.setattr(MultiPoly, "__init__", counting)
    assert run(["deform-check", "--t=-9/4", "--json"])[0] == 0
    assert len(calls) == 0
    assert run(["hessian-limit", "--poly", str(path), "--json"])[0] == 0
    assert len(calls) == 1


def test_hessian_limit_command(tmp_path):
    good = tmp_path / "p.json"
    p = poly("x + y + z*u", ("x", "y", "z", "u"))
    good.write_text(json.dumps(p.to_json(("x", "y", "z", "u"))))
    code, text = run(["hessian-limit", "--poly", str(good), "--json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["verdict"] == "Verified"
    assert doc["det_b0"] == "-1/4" == doc["discriminant"]

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(["hessian-limit", "--poly", str(bad)])
    assert code == 65

    off_form = tmp_path / "off.json"
    q = poly("x + 2*y + z*u", ("x", "y", "z", "u"))
    off_form.write_text(json.dumps(q.to_json(("x", "y", "z", "u"))))
    code, _ = run(["hessian-limit", "--poly", str(off_form)])
    assert code == 65


def test_chow_f0_transcript():
    code, text = run(["chow-f0"])
    assert code == 0
    assert "e = -sigma - f" in text
    assert "E''|_E = sigma - f" in text
    assert "theta restriction m=0: (-2, 0) not effective" in text
    assert "theta restriction m=1: (0, 1) effective" in text
    assert "minimal effective multiplicity: 1" in text
    code, text = run(["chow-f0", "--json"])
    doc = json.loads(text)
    assert doc["e"] == [-1, -1]
    assert doc["second_exceptional_restriction"] == [1, -1]
    assert all(doc["checks"].values())


def test_usage_exit_code():
    code, _ = run(["not-a-command"])
    assert code == 64
    code, _ = run([])
    assert code == 64


def test_witness_file_missing(tmp_path):
    code, _ = run(["certify", str(tmp_path / "absent.json")])
    assert code == 65


def test_json_outputs_round_trip(tmp_path):
    # every --json document parses and carries a manifest
    out = tmp_path / "w.json"
    run(["construct", "--d", "3", "--seed", "0", "--out", str(out), "--json"])
    for argv in (
        ["certify", str(out), "--json"],
        ["bounds", "--space", "p3", "--d", "5", "--json"],
        ["deform-check", "--t=-4", "--json"],
        ["chow-f0", "--json"],
    ):
        _, text = run(argv)
        doc = json.loads(text)
        assert "manifest" in doc and doc["manifest"]["arguments"] == argv


def test_construct_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["construct", "--d", "5", "--seed", "9", "--out", str(a)])
    run(["construct", "--d", "5", "--seed", "9", "--out", str(b)])
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("manifest"); db.pop("manifest")
    assert da == db


# ----------------------------------------------------- one parser per process


def test_build_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def _fresh_process_stdout(argv):
    """stdout of the CLI in a new interpreter, so with a newly built parser."""
    env = dict(os.environ, PYTHONPATH=str(Path(nodal_degen.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "nodal_degen.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_reused_parser_gives_the_output_of_a_fresh_one(tmp_path, capsys):
    normal_form = tmp_path / "p.json"
    p = poly("x + y + 3/2*x*z - z**2 + 5*z*u + u**3", ("x", "y", "z", "u"))
    normal_form.write_text(json.dumps(p.to_json(("x", "y", "z", "u"))))
    calls = [["deform-check", "--t=-9/4"], ["hessian-limit", "--poly", str(normal_form)]]
    expected = [_fresh_process_stdout(argv) for argv in calls]
    for disturbance, code in ((["deform-check", "--t=x"], 64), (["--version"], 0)):
        with pytest.raises(SystemExit) as exc:
            cli.main(disturbance)
        assert exc.value.code == code
        capsys.readouterr()
        for argv, want in zip(calls, expected):
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == want


# ------------------------------------------------------ malformed rationals


def test_deform_check_zero_denominator_is_a_usage_error(capsys):
    for flag in ("--t=1/0", "--t=-1/0"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["deform-check", flag])
        assert exc.value.code == 64
        assert "argument --t: not a rational number" in capsys.readouterr().err


def test_regularity_zero_denominator_exits_65(tmp_path, capsys):
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({"space": "p2", "d": 1}))
    points = tmp_path / "pts.json"
    points.write_text(json.dumps({"points": [["0", "1/0", "1"]]}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["regularity", "--system", str(system), "--points", str(points)])
    assert exc.value.code == 65
    assert "zero denominator in '1/0'" in capsys.readouterr().err


def test_hessian_limit_zero_denominator_exits_65(tmp_path, capsys):
    path = tmp_path / "p.json"
    doc = {"arity": 4, "terms": [{"e": [1, 0, 0, 0], "c": "1"}, {"e": [0, 0, 1, 1], "c": "1/0"}]}
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        cli.main(["hessian-limit", "--poly", str(path)])
    assert exc.value.code == 65
    assert "zero denominator in '1/0'" in capsys.readouterr().err


def test_certify_zero_denominator_exits_65(tmp_path, capsys):
    doc = witness_to_json(build_witness(3, 1))
    doc["phi2"]["terms"][0]["c"] = "1/0"
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        cli.main(["certify", str(path)])
    assert exc.value.code == 65
    assert "zero denominator in '1/0'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, text",
    [
        ({"arity": 4, "terms": [{"e": [1, 0, 0, -1], "c": "1"}]}, "negative exponent"),
        ({"arity": 4, "terms": [{"e": [1, 0, 0], "c": "1"}]}, "does not match arity 4"),
        ({"arity": -1, "terms": []}, "arity must be nonnegative"),
    ],
    ids=["negative-exponent", "exponent-length", "negative-arity"],
)
def test_hessian_limit_malformed_polynomial_exits_65(tmp_path, capsys, doc, text):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        cli.main(["hessian-limit", "--poly", str(path)])
    assert exc.value.code == 65
    err = capsys.readouterr().err
    assert "malformed polynomial document" in err and text in err


# ---------------------------------------------------- malformed-input sweep

_NORMAL_FORM = {"arity": 4, "terms": [{"e": [1, 0, 0, 0], "c": "1"}, {"e": [0, 1, 0, 0], "c": "1"}]}
_P2_LINE = {"space": "p2", "d": 1}
_POINTS = {"points": [["0", "0", "1"]]}


def _with(doc, **changes):
    out = dict(doc, **changes)
    return {k: v for k, v in out.items() if v is not None}


def _term(e, c="1"):
    return {"e": e, "c": c}


def _witness(**changes):
    """A valid witness document with some keys replaced (None deletes a key)."""
    return lambda witness: _with(witness, **changes)


# (argv with {placeholders} for files, file contents, expected exit code); a
# file content is a JSON document, raw text (str), or a function of a valid
# witness document
_MALFORMED = {
    "deform-check:zero-denominator": (["deform-check", "--t=1/0"], {}, 64),
    "deform-check:negative-zero-denominator": (["deform-check", "--t=-1/0"], {}, 64),
    "deform-check:zero-over-zero": (["deform-check", "--t=0/0"], {}, 64),
    "deform-check:not-a-rational": (["deform-check", "--t=1/2/3"], {}, 64),
    "deform-check:missing-flag": (["deform-check"], {}, 64),
    "hessian-limit:zero-denominator": (
        ["hessian-limit", "--poly", "{p}"],
        {"p": _with(_NORMAL_FORM, terms=[_term([1, 0, 0, 0], "1/0")])}, 65,
    ),
    "hessian-limit:negative-exponent": (
        ["hessian-limit", "--poly", "{p}"],
        {"p": _with(_NORMAL_FORM, terms=[_term([1, 0, -2, 0])])}, 65,
    ),
    "hessian-limit:exponent-length": (
        ["hessian-limit", "--poly", "{p}"],
        {"p": _with(_NORMAL_FORM, terms=[_term([1, 0, 0, 0, 0])])}, 65,
    ),
    "hessian-limit:negative-arity": (
        ["hessian-limit", "--poly", "{p}"], {"p": {"arity": -1, "terms": []}}, 65,
    ),
    "hessian-limit:wrong-arity": (
        ["hessian-limit", "--poly", "{p}"],
        {"p": {"arity": 3, "terms": [_term([1, 0, 0]), _term([0, 1, 0])]}}, 65,
    ),
    "hessian-limit:float-exponent": (
        ["hessian-limit", "--poly", "{p}"],
        {"p": _with(_NORMAL_FORM, terms=_NORMAL_FORM["terms"] + [_term([0, 0, 1.7, True])])}, 65,
    ),
    "hessian-limit:float-arity": (
        ["hessian-limit", "--poly", "{p}"], {"p": _with(_NORMAL_FORM, arity=4.9)}, 65,
    ),
    "hessian-limit:not-json": (["hessian-limit", "--poly", "{p}"], {"p": "{not json"}, 65),
    "hessian-limit:missing-terms": (
        ["hessian-limit", "--poly", "{p}"], {"p": {"arity": 4}}, 65,
    ),
    "hessian-limit:missing-file": (["hessian-limit", "--poly", "{absent}"], {}, 65),
    "hessian-limit:vars-arity-mismatch": (
        ["hessian-limit", "--poly", "{p}"], {"p": _with(_NORMAL_FORM, vars=["x"])}, 65,
    ),
    "regularity:zero-denominator": (
        ["regularity", "--system", "{s}", "--points", "{p}"],
        {"s": _P2_LINE, "p": {"points": [["1/0", "0", "1"]]}}, 65,
    ),
    "regularity:wrong-arity": (
        ["regularity", "--system", "{s}", "--points", "{p}"],
        {"s": _P2_LINE, "p": {"points": [["1", "2"]]}}, 65,
    ),
    "regularity:point-is-a-string": (
        ["regularity", "--system", "{s}", "--points", "{p}"],
        {"s": _P2_LINE, "p": {"points": ["123"]}}, 65,
    ),
    "regularity:point-is-an-object": (
        ["regularity", "--system", "{s}", "--points", "{p}"],
        {"s": {"space": "p3", "d": 1}, "p": {"points": [{"1": 0, "2": 0, "3": 0, "4": 0}]}}, 65,
    ),
    "regularity:float-degree": (
        ["regularity", "--system", "{s}", "--points", "{p}"],
        {"s": {"space": "p2", "d": 8.7}, "p": _POINTS}, 65,
    ),
    "regularity:boolean-degree": (
        ["regularity", "--system", "{s}", "--points", "{p}"],
        {"s": {"space": "p2", "d": True}, "p": _POINTS}, 65,
    ),
    "regularity:float-h": (
        ["regularity", "--system", "{s}", "--points", "{p}"],
        {"s": {"space": "ci4", "d": 3, "h": 2.5}, "p": {"points": [["0", "0", "0", "1"]]}}, 65,
    ),
    "regularity:points-not-json": (
        ["regularity", "--system", "{s}", "--points", "{p}"],
        {"s": _P2_LINE, "p": "points"}, 65,
    ),
    "regularity:missing-points": (
        ["regularity", "--system", "{s}", "--points", "{p}"],
        {"s": _P2_LINE, "p": {"pts": []}}, 65,
    ),
    "regularity:missing-space": (
        ["regularity", "--system", "{s}", "--points", "{p}"],
        {"s": {"d": 1}, "p": _POINTS}, 65,
    ),
    "regularity:surface-negative-exponent": (
        ["regularity", "--system", "{s}", "--points", "{p}"],
        {"s": {"space": "ci4", "d": 3, "h": 2,
               "surface": {"arity": 4, "terms": [_term([1, 1, 0, -1])]}},
         "p": {"points": [["0", "0", "0", "1"]]}}, 65,
    ),
    "regularity:surface-zero-denominator": (
        ["regularity", "--system", "{s}", "--points", "{p}"],
        {"s": {"space": "ci4", "d": 3, "h": 2,
               "surface": {"arity": 4, "terms": [_term([1, 1, 0, 0], "-1/0")]}},
         "p": {"points": [["0", "0", "0", "1"]]}}, 65,
    ),
    "certify:zero-denominator": (
        ["certify", "{w}"], {"w": _witness(nodes=[["1/0", "0", "1"]])}, 65,
    ),
    "certify:negative-exponent": (
        ["certify", "{w}"], {"w": _witness(phi2={"arity": 3, "terms": [_term([3, 1, -1])]})}, 65,
    ),
    "certify:wrong-arity": (
        ["certify", "{w}"], {"w": _witness(chartA={"arity": 2, "terms": [_term([2, 0])]})}, 65,
    ),
    "certify:wrong-arity-sB": (
        ["certify", "{w}"], {"w": _witness(sB={"arity": 3, "terms": [_term([2, 0, 0])]})}, 65,
    ),
    "certify:duplicate-exponent-sB": (
        ["certify", "{w}"],
        {"w": lambda witness: _with(
            witness, sB=_with(witness["sB"], terms=witness["sB"]["terms"] + witness["sB"]["terms"][:1]))}, 65,
    ),
    "certify:not-json": (["certify", "{w}"], {"w": "[1, 2"}, 65),
    "certify:missing-key": (["certify", "{w}"], {"w": _witness(sB=None)}, 65),
    "certify:float-d": (["certify", "{w}"], {"w": _witness(d=3.7)}, 65),
    "certify:string-d": (["certify", "{w}"], {"w": _witness(d="3")}, 65),
    "certify:boolean-seed": (["certify", "{w}"], {"w": _witness(seed=True)}, 65),
    "certify:float-seed": (["certify", "{w}"], {"w": _witness(seed=1.5)}, 65),
    "certify:degree-cap-below-generators": (
        ["certify", "{w}", "--degree-cap", "1"], {"w": _witness()}, 64,
    ),
    "construct:not-an-integer": (["construct", "--d", "x", "--out", "{out}"], {}, 64),
    "construct:zero-retries": (
        ["construct", "--d", "4", "--seed", "1", "--retries", "0", "--out", "{out}"], {}, 64,
    ),
    "construct:negative-retries": (
        ["construct", "--d", "4", "--seed", "1", "--retries", "-1", "--out", "{out}"], {}, 64,
    ),
    "bounds:not-an-integer": (["bounds", "--space", "p3", "--d", "q"], {}, 64),
}


@pytest.fixture(scope="module")
def valid_witness():
    return witness_to_json(build_witness(3, 1))


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_input_exits_64_or_65(case, tmp_path, valid_witness):
    argv, files, code = _MALFORMED[case]
    paths = {"absent": str(tmp_path / "absent.json"), "out": str(tmp_path / "out.json")}
    for name, content in files.items():
        if callable(content):
            content = content(valid_witness)
        path = tmp_path / f"{name}.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        paths[name] = str(path)
    with pytest.raises(SystemExit) as exc:
        cli.main([arg.format(**paths) for arg in argv])
    assert exc.value.code == code
