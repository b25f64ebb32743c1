import copy
import dataclasses
import hashlib
import json
import random
import resource
import subprocess
import sys

import pytest

from perfbench.workloads import (
    REGISTRY_DIGESTS,
    encode,
    generate,
    skew_double_ore,
    write_inputs,
)

from nqh import scenarios
from nqh.cli import main
from nqh.formats import parse_presentation
from nqh.quadratic import koszul_dual
from nqh.scenarios import EX_4_10, EX_5_9, KM1_PRESENTATION, ScenarioCheck


@pytest.fixture
def presentation_file(tmp_path):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(KM1_PRESENTATION))
    return str(path)


@pytest.fixture
def double_ore_file(tmp_path):
    path = tmp_path / "classz.json"
    path.write_text(json.dumps(EX_4_10))
    return str(path)


HOSTILE_INPUTS = {
    "exponent-scalar": ("double-ore", json.dumps({**EX_4_10, "p11": "1e300000000"})),
    "long-scalar": ("double-ore", json.dumps({**EX_4_10, "p11": "1" * 5000})),
    "long-json-integer": (
        "check-presentation",
        '{"generators": ["x1", "x2"], "relations": [{"x1 x2": 1' + "0" * 4999 + "}]}"),
    "free-16-generators": ("check-presentation", json.dumps(
        {"generators": [f"x{k}" for k in range(1, 17)], "relations": []})),
    "long-word-key": ("check-presentation", json.dumps(
        {"generators": ["x1", "x2"], "relations": [{"x1 " + "y" * 3000: "1"}]})),
    "list-scalar": ("double-ore", json.dumps({**EX_4_10, "p11": list(range(3000))})),
    "generator-with-space": ("koszul-dual", json.dumps(
        {"generators": ["a b", "c"], "relations": []})),
    "empty-generator": ("koszul-dual", json.dumps({"generators": [""], "relations": []})),
}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("command, text", HOSTILE_INPUTS.values(),
                         ids=list(HOSTILE_INPUTS))
def test_hostile_input_exits_2_fast(nqh_env, tmp_path, command, text):
    """Each input once hung, ended in a traceback, ran out of memory or
    filled the error line: a scalar with an exponent, which Fraction
    expanded; a 5,000-digit scalar and an integer literal past CPython's
    4,300-digit limit, each quoted whole, the integer with advice for
    programs; 16 free generators, whose degree-6 component has 16^6
    words; a relation whose 3,003-character word key was quoted whole;
    a p11 given as a list of 3,000 numbers, printed whole; and generator
    names that are empty or hold a space, which no word can spell, and
    whose dual was printed as relations no parser reads.  Each must
    exit 2 with an error line under 200 bytes, in 10 s
    and 1 GB of address space."""
    (tmp_path / "hostile.json").write_text(text)
    run = subprocess.run([sys.executable, "-m", "nqh", command, "hostile.json"],
                         capture_output=True, env=nqh_env, timeout=10, cwd=tmp_path,
                         preexec_fn=_limit_address_space)
    assert run.returncode == 2, run.stderr[-300:]
    assert run.stderr.startswith(b"error:") and len(run.stderr) < 200, run.stderr[:300]
    assert b"set_int_max_str_digits" not in run.stderr


def test_check_presentation(capsys, presentation_file):
    assert main(["check-presentation", presentation_file]) == 0
    out = capsys.readouterr().out
    assert "generators: x1, x2" in out
    assert "central element: central" in out


def test_check_presentation_noncentral(capsys, tmp_path):
    doc = dict(KM1_PRESENTATION)
    doc["central"] = {"x1 x2": "1"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check-presentation", str(path)]) == 1
    assert "NOT central" in capsys.readouterr().out


def test_missing_file_is_exit_2(capsys):
    assert main(["clifford", "missing.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_json_is_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["clifford", str(path)]) == 2


@pytest.mark.parametrize("command", ["check-presentation", "koszul-dual"])
def test_negative_max_degree_is_exit_2(capsys, tmp_path, command):
    path = tmp_path / "km1.json"
    path.write_text(json.dumps(KM1_PRESENTATION))
    assert main([command, str(path), "--max-degree", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--max-degree must be non-negative" in captured.err
    assert captured.out == ""
    assert main([command, str(path), "--max-degree", "0"]) == 0


@pytest.mark.parametrize("command", ["check-presentation", "koszul-dual"])
def test_max_degree_past_the_bound_is_exit_2(capsys, tmp_path, command):
    path = tmp_path / "km1.json"
    path.write_text(json.dumps(KM1_PRESENTATION))
    assert main([command, str(path), "--max-degree", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: degree 9 exceeds the configured bound 8\n"
    assert captured.out == ""


def test_string_generators_is_exit_2(capsys, tmp_path):
    doc = {"generators": "xy", "relations": [{"x y": "1", "y x": "1"}]}
    path = tmp_path / "string_generators.json"
    path.write_text(json.dumps(doc))
    assert main(["check-presentation", str(path)]) == 2
    assert "not a string" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc", [
    ("check-presentation", {"generators": ["x", "y"], "relations": ["x y"]}),
    ("check-presentation", {"generators": ["x", "y"], "relations": "x y"}),
    ("check-presentation", {**KM1_PRESENTATION, "central": ["x1 x1"]}),
    ("double-ore", {**EX_4_10, "sigma": []}),
    ("double-ore", {**EX_4_10, "sigma": {**EX_4_10["sigma"], "11": ["x1"]}}),
    ("double-ore", {**EX_4_10,
                    "sigma": {**EX_4_10["sigma"], "11": {"x1": ["x1"]}}}),
], ids=["relation-string", "relations-string", "central-array", "sigma-array",
        "sigma-table-array", "sigma-image-array"])
def test_malformed_container_is_exit_2(capsys, tmp_path, command, doc):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    assert "must be a JSON" in capsys.readouterr().err


def _twist_doc(labels):
    identity_table = [
        [{lbl: {lbl: "1"} for lbl in labels}, {}],
        [{}, {lbl: {lbl: "1"} for lbl in labels}],
    ]
    return {
        "algebra": KM1_PRESENTATION,
        "basis": {
            "I0_1": [["1", "0"], ["0", "1"]],
            "I0_2": [["-i", "0"], ["0", "i"]],
            "I1_1": [["0", "1"], ["1", "0"]],
            "I1_2": [["0", "i"], ["-i", "0"]],
        },
        "theta0": identity_table,
        "theta1": copy.deepcopy(identity_table),
    }


def _set(path, value):
    def change(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return change


@pytest.mark.parametrize("change", [
    _set(["basis"], []),
    _set(["basis", "I0_1"], 1),
    _set(["basis", "I0_1", 1], "01"),
    _set(["theta0"], {}),
    _set(["theta0", 0, 1], []),
    _set(["theta0", 0, 0, "1"], ["1"]),
], ids=["basis-array", "basis-member-number", "basis-row-string",
        "theta-object", "theta-entry-array", "theta-image-array"])
def test_malformed_twist_file_is_exit_2(capsys, monkeypatch, tmp_path,
                                       clifford_km1, change):
    doc = _twist_doc(clifford_km1.algebra.labels)
    change(doc)

    def no_build(*args):
        pytest.fail("the deformation was built before the file was validated")

    monkeypatch.setattr("nqh.formats.build_clifford", no_build)
    path = tmp_path / "twist.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-twist", str(path)]) == 2
    assert "must be a JSON" in capsys.readouterr().err


def _assert_knorrer_json(capsys, path, case, big_dim):
    assert main(["--json", "knorrer", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == case
    assert payload["checks"] and all(v is True for v in payload["checks"].values())
    assert any(line.startswith(f"big deformation dim: {big_dim},")
               for line in payload["report"])


@pytest.mark.parametrize("case", ["plus", "minus"])
def test_knorrer_json_on_a_three_generator_base(capsys, tmp_path, case):
    write_inputs(generate("skew3", 7), tmp_path)
    _assert_knorrer_json(capsys, tmp_path / f"{case}.json", case, 32)


@pytest.mark.parametrize("case, p12", [("plus", 1), ("minus", -1)])
def test_knorrer_json_on_a_four_generator_base(capsys, tmp_path, case, p12):
    doc = skew_double_ore(random.Random(f"four-generators:{case}"), 4, p12)
    path = tmp_path / f"{case}.json"
    path.write_bytes(encode(doc))
    _assert_knorrer_json(capsys, path, case, 64)


@pytest.mark.parametrize("p12", [1, -1])
def test_knorrer_past_the_dimension_budget_is_exit_2(capsys, monkeypatch,
                                                     tmp_path, p12):
    """A 9-generator base needs a big deformation of dim 4 * 2^9 = 2048.
    The scan of B's dual stops the run before the base deformation or any
    structure table is built."""
    from nqh import deform, knorrer

    ran = []
    monkeypatch.setattr(knorrer, "build_clifford",
                        lambda *args: ran.append("build_clifford"))
    monkeypatch.setattr(deform, "extract_algebra",
                        lambda *args: ran.append("extract_algebra"))
    path = tmp_path / "big9.json"
    path.write_bytes(encode(skew_double_ore(random.Random("big:9"), 9, p12)))
    assert main(["--json", "knorrer", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the dual's graded dimensions sum to 1486 by degree 6,"
        " past the dimension budget 1024\n")
    assert ran == []


def test_koszul_dual_command(capsys, presentation_file):
    assert main(["koszul-dual", presentation_file]) == 0
    out = capsys.readouterr().out
    assert "generators: x1*, x2*" in out
    assert "[1, 2, 1, 0" in out


@pytest.mark.parametrize("name", ["km1", "presentations:1", "presentations:2",
                                  "presentations:3"])
def test_koszul_dual_json_parses_back_to_the_dual(capsys, tmp_path, name):
    doc = (KM1_PRESENTATION if name == "km1"
           else json.loads(generate("presentations", int(name[-1]))["base.json"]))
    path = tmp_path / "base.json"
    path.write_text(json.dumps(doc))
    assert main(["--json", "koszul-dual", str(path)]) == 0
    again, _ = parse_presentation(json.loads(capsys.readouterr().out))
    assert again == koszul_dual(parse_presentation(doc)[0])


def test_clifford_command(capsys, presentation_file):
    assert main(["clifford", presentation_file, "--dump-rules"]) == 0
    out = capsys.readouterr().out
    assert "dimension: 4" in out
    assert "radical dim: 0" in out
    assert "strongly graded: yes" in out
    assert "x2*x1* -> (1)*x1*x2*" in out


def test_clifford_requires_central(capsys, tmp_path):
    doc = {k: v for k, v in KM1_PRESENTATION.items() if k != "central"}
    path = tmp_path / "nocentral.json"
    path.write_text(json.dumps(doc))
    assert main(["clifford", str(path)]) == 2


def test_clifford_on_a_free_dual_is_exit_2(capsys, tmp_path):
    """Every word of length 2 is a relation, so the dual is free on six
    letters; its dims 1, 6, 36, ... pass the budget at degree 4."""
    names = [f"x{k + 1}" for k in range(6)]
    doc = {"generators": names,
           "relations": [{f"{a} {b}": "1"} for a in names for b in names],
           "central": {"x1 x1": "1"}}
    path = tmp_path / "free-dual.json"
    path.write_text(json.dumps(doc))
    assert main(["clifford", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: the dual's graded dimensions sum to 1555 by degree 4,"
        " past the dimension budget 1024\n")


def test_double_ore_command(capsys, double_ore_file):
    assert main(["double-ore", double_ore_file]) == 0
    out = capsys.readouterr().out
    assert "case: plus" in out
    assert "extended central element: central" in out


@pytest.mark.parametrize("change, code, line", [
    ({}, 0, "[pass] p12-nonzero"),
    ({"p12": "0"}, 1, "[FAIL] p12-nonzero: p12 must be nonzero"),
], ids=["valid", "p12-zero"])
def test_double_ore_states_the_p12_detail_only_on_failure(capsys, tmp_path,
                                                          change, code, line):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**EX_4_10, **change}))
    assert main(["double-ore", str(path)]) == code
    assert capsys.readouterr().out.splitlines()[0] == line


def test_a_word_written_twice_is_exit_2(capsys, tmp_path):
    """"x1 x2" and "x1  x2" split to one word: keeping the last coefficient
    would read x1x2 + x2x1 where the file says 2 x1x2 + x2x1."""
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({
        "generators": ["x1", "x2"],
        "relations": [{"x1 x2": "1", "x1  x2": "1", "x2 x1": "1"}]}))
    assert main(["koszul-dual", str(path)]) == 2
    assert capsys.readouterr().err == "error: word 'x1  x2' is written twice\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_double_ore_noncentral_extension_is_exit_1(capsys, tmp_path, json_flag):
    path = tmp_path / "noncentral.json"
    path.write_text(json.dumps({**EX_4_10, "central": {"x1 x1": "1"}}))
    assert main([*json_flag, "double-ore", str(path)]) == 1
    out = capsys.readouterr().out
    if json_flag:
        assert json.loads(out)["extended_central"] is False
    else:
        assert "extended central element: NOT central" in out


def test_knorrer_command(capsys, double_ore_file, tmp_path):
    report_path = tmp_path / "report.txt"
    assert main(["knorrer", double_ore_file, "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "isolated singularity: yes" in out
    assert report_path.read_text() == "".join(
        line + "\n" for line in out.splitlines())
    assert main(["--json", "knorrer", double_ore_file, "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["isolated"] is True
    assert report_path.read_text() == out


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_knorrer_unwritable_report_is_exit_2(capsys, monkeypatch, double_ore_file,
                                             tmp_path, where):
    """A bad report path exits 2 before any pipeline work."""
    calls = []
    monkeypatch.setattr("nqh.cli.run_plus_case", lambda *args: calls.append(args))
    path = tmp_path if where == "directory" else tmp_path / "missing" / "r.txt"
    assert main(["knorrer", double_ore_file, "--report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write report: ")
    assert captured.out == ""
    assert calls == []


def test_boolean_scalar_is_exit_2(capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**EX_4_10, "p12": True}))
    assert main(["double-ore", str(path)]) == 2
    assert "scalar must be a string" in capsys.readouterr().err


def test_knorrer_json(capsys, double_ore_file):
    assert main(["--json", "knorrer", double_ore_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["isolated"] is True
    assert payload["big_radical_dim"] == 0


P12_TWO = {**EX_4_10, "p12": "2"}


@pytest.mark.parametrize("doc, case", [
    (P12_TWO, "auto"),
    (P12_TWO, "plus"),
    (P12_TWO, "minus"),
    (EX_4_10, "minus"),
    (EX_5_9, "plus"),
], ids=["p12-2-auto", "p12-2-plus", "p12-2-minus", "plus-file-minus",
        "minus-file-plus"])
def test_knorrer_case_contradicting_p12_is_exit_2(capsys, tmp_path, doc, case):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert main(["knorrer", str(path), "--case", case]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if doc is P12_TWO:
        assert "admit no central extension" in err
    else:
        assert f"--case {case} contradicts the mixing parameters" in err


def test_knorrer_case_agreeing_with_p12_runs(capsys, double_ore_file):
    assert main(["knorrer", double_ore_file, "--case", "plus"]) == 0
    assert "case: plus" in capsys.readouterr().out


def test_invalid_semitrivial_extension_is_exit_1(capsys, monkeypatch, tmp_path):
    """A pairing psi corrupted in the build stops the run.  The plus case's
    extension Lambda is certified by its own verify_algebra, which names
    the broken associativity.  The minus case's extension is Gamma x| <mu>,
    certified by the checks on Gamma and mu before the build, so
    semitrivial-valid no longer sees psi: psi[0][0] is the square of y1's
    image, and the oracle step finds a deformed relation of B's dual broken
    in the corrupted extension."""
    from nqh import knorrer
    from nqh.exactlin import ONE

    build = knorrer.build_semitrivial

    def perturbed_build(data):
        psi = [list(row) for row in data.psi]
        psi[0][0] = {k: v + ONE for k, v in psi[0][0].items()}
        return build(dataclasses.replace(data, psi=tuple(tuple(r) for r in psi)))

    monkeypatch.setattr(knorrer, "build_semitrivial", perturbed_build)
    path = tmp_path / "ex410.json"
    path.write_text(json.dumps(EX_4_10))
    assert main(["knorrer", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid semi-trivial extension: associativity: associativity fails at" in err

    path = tmp_path / "ex59.json"
    path.write_text(json.dumps(EX_5_9))
    assert main(["knorrer", str(path)]) == 1
    assert capsys.readouterr().err == "check failed: relation 0 not preserved\n"


@pytest.mark.parametrize("module_name, builder, doc, message", [
    ("twist", "build_twisted_M2", EX_4_10, "invalid twisted algebra"),
    ("twist", "build_twisted_prod", EX_5_9, "invalid twisted product"),
    ("knorrer", "zhang_twist", EX_5_9, "invalid Zhang twist"),
], ids=["twisted-M2", "twisted-prod", "zhang-twist"])
def test_invalid_certified_algebra_is_exit_1(capsys, monkeypatch, tmp_path,
                                             module_name, builder, doc, message):
    """Each algebra that a later verify_iso relies on stops the pipeline
    when verify_algebra rejects it.  The twisted builds are called by the
    twisting-system checks in nqh.twist, the Zhang twist by the pipeline."""
    import importlib

    from nqh.algebra import GradedAlgebra
    from nqh.exactlin import ONE

    module = importlib.import_module(f"nqh.{module_name}")
    build = getattr(module, builder)

    def bad_unit(*args):
        algebra = build(*args)
        unit = {k: v + ONE for k, v in algebra.unit.items()}
        return GradedAlgebra(algebra.labels, algebra.table, unit, algebra.degrees,
                             algebra.group_rank)

    monkeypatch.setattr(module, builder, bad_unit)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert main(["knorrer", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"check failed: {message}: unit: unit axiom fails at basis ")


def test_a_failed_check_is_named_in_words(capsys, tmp_path):
    """A failing check is named by its name, and its detail when it has
    one, never by a CheckItem repr."""
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({**EX_4_10, "sigma": {key: {} for key in EX_4_10["sigma"]}}))
    assert main(["knorrer", str(path)]) == 1
    assert capsys.readouterr().err == (
        "check failed: invalid double Ore data: sigma-invertible\n")


def test_verify_twist_command(capsys, tmp_path, clifford_km1):
    path = tmp_path / "twist.json"
    path.write_text(json.dumps(_twist_doc(clifford_km1.algebra.labels)))
    assert main(["verify-twist", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[pass] exchange-identity" in out


def test_reproduce_single(capsys):
    assert main(["reproduce", "ex-4.9-1"]) == 0
    out = capsys.readouterr().out
    assert "scenario ex-4.9-1" in out
    assert "result: PASS" in out


def test_reproduce_unknown_is_exit_2(capsys):
    assert main(["reproduce", "ex-0.0"]) == 2


def test_reproduce_reports_provenance(capsys):
    assert main(["reproduce", "prop-5.1"]) == 0
    out = capsys.readouterr().out
    assert "(source: published)" in out
    assert "(source: derived)" in out


def test_corrupted_expectation_names_scenario(capsys, monkeypatch):
    original = scenarios.REGISTRY["prop-5.1"]

    def corrupted():
        checks, lines = original()
        checks.append(ScenarioCheck("deliberately-corrupted", False, "boom",
                                    "derived"))
        return checks, lines

    monkeypatch.setitem(scenarios.REGISTRY, "prop-5.1", corrupted)
    assert main(["reproduce", "prop-5.1"]) == 1
    captured = capsys.readouterr()
    assert "FAILED scenarios: prop-5.1" in captured.err
    assert "[FAIL] deliberately-corrupted" in captured.out


def test_empty_registry_warns(capsys, monkeypatch):
    monkeypatch.setattr(scenarios, "REGISTRY", {})
    assert main(["reproduce", "all"]) == 0
    assert "warning" in capsys.readouterr().out


def test_reproduce_all_is_deterministic(nqh_env):
    first = subprocess.run(
        [sys.executable, "-m", "nqh", "reproduce", "all"],
        capture_output=True, check=True, env=nqh_env)
    second = subprocess.run(
        [sys.executable, "-m", "nqh", "reproduce", "all"],
        capture_output=True, check=True, env=nqh_env)
    assert first.stdout == second.stdout


@pytest.mark.parametrize("scenario_id", sorted(REGISTRY_DIGESTS))
def test_registry_report_bytes_match_recorded_digest(capsys, scenario_id):
    assert main(["--json", "reproduce", scenario_id]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest()
            == REGISTRY_DIGESTS[scenario_id])


# sha256 of the stdout of ``nqh [--json] clifford BASE [--dump-rules]`` on the
# presentations bases of seeds 1-3 and the big:4-big:6 bases: how E's table
# is formed and certified must not change a byte
CLIFFORD_DIGESTS = {
    "presentations:1":
        "dcd5faf4fbcbe55e212fe936f1653e5541ee0e908bd36b94ebdcdc276748f3e0",
    "presentations:1 --dump-rules":
        "f7261123bef75bd12b00563716ce2560a1b6b97ffac000b48f79109ac25cc3fc",
    "presentations:1 --json":
        "95d805bda01784396606a9847a985e7b5edf316c6eef28dc8ffc7bbe3b531cf4",
    "presentations:1 --json --dump-rules":
        "95d805bda01784396606a9847a985e7b5edf316c6eef28dc8ffc7bbe3b531cf4",
    "presentations:2":
        "dcd5faf4fbcbe55e212fe936f1653e5541ee0e908bd36b94ebdcdc276748f3e0",
    "presentations:2 --dump-rules":
        "9c63e7918f8136943381655425f1a6f60710133916aad0ef638a4c72a6c9679a",
    "presentations:2 --json":
        "95d805bda01784396606a9847a985e7b5edf316c6eef28dc8ffc7bbe3b531cf4",
    "presentations:2 --json --dump-rules":
        "95d805bda01784396606a9847a985e7b5edf316c6eef28dc8ffc7bbe3b531cf4",
    "presentations:3":
        "dcd5faf4fbcbe55e212fe936f1653e5541ee0e908bd36b94ebdcdc276748f3e0",
    "presentations:3 --dump-rules":
        "b34403cab1676dece631911b8634d2293277052a219c6e002e1853c28cd7e0f4",
    "presentations:3 --json":
        "95d805bda01784396606a9847a985e7b5edf316c6eef28dc8ffc7bbe3b531cf4",
    "presentations:3 --json --dump-rules":
        "95d805bda01784396606a9847a985e7b5edf316c6eef28dc8ffc7bbe3b531cf4",
    "big:4":
        "a2fe9091dc984a789de89eba30e536c770113af166d3484ea0d94b2eecc42159",
    "big:4 --dump-rules":
        "75fb1d5741608db943e2567961495e61290a447a7c9f17c91cf6d64f2c6721aa",
    "big:4 --json":
        "b3b3f34c6871a9a59dd2c345f6eb599762eba68a56807a51cd45fe331bec7165",
    "big:4 --json --dump-rules":
        "b3b3f34c6871a9a59dd2c345f6eb599762eba68a56807a51cd45fe331bec7165",
    "big:5":
        "dcd5faf4fbcbe55e212fe936f1653e5541ee0e908bd36b94ebdcdc276748f3e0",
    "big:5 --dump-rules":
        "edeedf1373c55fa513df14e99237432d589d542f23ddb62444de7e59c379bf9f",
    "big:5 --json":
        "95d805bda01784396606a9847a985e7b5edf316c6eef28dc8ffc7bbe3b531cf4",
    "big:5 --json --dump-rules":
        "95d805bda01784396606a9847a985e7b5edf316c6eef28dc8ffc7bbe3b531cf4",
    "big:6":
        "b1a85daf51b6c48403b7f215982faa79ac5344359292a3f7140b43f17f1582bb",
    "big:6 --dump-rules":
        "13dfd478e4019308c2731425f6a013480158ce477418ed14107fb8786ed2d787",
    "big:6 --json":
        "4ea8149012c3c75a3b9654f0d28101eeed310c5e5fe219cc615b6e61df6cd241",
    "big:6 --json --dump-rules":
        "4ea8149012c3c75a3b9654f0d28101eeed310c5e5fe219cc615b6e61df6cd241",
}


def _clifford_base(name):
    """The base presentation document named ``presentations:<seed>`` or
    ``big:<g>`` (the plus file's base)."""
    kind, _, n = name.partition(":")
    if kind == "presentations":
        return json.loads(generate("presentations", int(n))["base.json"])
    doc = skew_double_ore(random.Random(name), int(n), 1)
    return {key: doc[key] for key in ("generators", "relations", "central")}


@pytest.mark.parametrize("name", sorted({key.split()[0] for key in CLIFFORD_DIGESTS}))
def test_clifford_report_bytes_match_recorded_digest(capsys, tmp_path, name):
    path = tmp_path / "base.json"
    path.write_bytes(encode(_clifford_base(name)))
    for flags in ([], ["--json"]):
        for dump in ([], ["--dump-rules"]):
            assert main([*flags, "clifford", str(path), *dump]) == 0
            out = capsys.readouterr().out
            assert (hashlib.sha256(out.encode("utf-8")).hexdigest()
                    == CLIFFORD_DIGESTS[" ".join([name, *flags, *dump])])


def test_clifford_strong_grading_without_a_letter_witness(capsys, tmp_path):
    """x1 x2 = x2 x1 deformed at z = x1 x2 + x2 x1 squares no letter to a
    nonzero scalar and is strongly graded; at z = 0 it is not."""
    doc = {"generators": ["x1", "x2"], "relations": [{"x1 x2": "1", "x2 x1": "-1"}]}
    path = tmp_path / "commuting.json"
    path.write_text(json.dumps({**doc, "central": {"x1 x2": "1", "x2 x1": "1"}}))
    assert main(["clifford", str(path)]) == 0
    assert "strongly graded: yes" in capsys.readouterr().out.splitlines()
    path.write_text(json.dumps({**doc, "central": {}}))
    assert main(["clifford", str(path)]) == 1
    assert capsys.readouterr().err == "check failed: deformation is not strongly Z2-graded\n"


def test_json_outputs_have_stable_key_order(capsys):
    assert main(["--json", "reproduce", "prop-5.1"]) == 0
    first = capsys.readouterr().out
    assert main(["--json", "reproduce", "prop-5.1"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["prop-5.1"]["ok"] is True
