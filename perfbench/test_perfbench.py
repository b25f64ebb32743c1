"""Fast tests of the benchmark's own code: input generation, self-time
arithmetic, output checks, tracing and the metric list."""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

from perfbench import tracing, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_generator_is_deterministic():
    for workload in ("skew3", "presentations"):
        first = workloads.generate(workload, 7)
        assert first == workloads.generate(workload, 7)
        assert len({tuple(sorted(workloads.generate(workload, seed).items()))
                    for seed in range(1, 6)}) > 1
    assert workloads.generate("registry", 7) == {}


def test_generated_double_ore_files_have_the_requested_case():
    from nqh.deform import CaseKind, p12_classify, validate_double_ore
    from nqh.formats import parse_double_ore

    files = workloads.generate("skew3", 3)
    for name, kind in (("plus.json", CaseKind.PLUS), ("minus.json", CaseKind.MINUS)):
        data, central = parse_double_ore(json.loads(files[name]))
        assert validate_double_ore(data)[0].ok
        assert p12_classify(data) == kind
        assert central is not None


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1, "a"),
        ("child", 1.0, 4.0, 0, "a"),
        ("grandchild", 2.0, 3.0, 1, "a"),
        ("child", 3.0, 6.0, 0, "a"),   # overlaps its sibling: counted once
        ("late", 8.0, 12.0, 0, "a"),   # runs past its parent: clipped
        ("root", 20.0, 21.0, -1, "b"),
    ]
    got = tracing.self_times(spans)
    assert got["root"] == (10.0 - 5.0 - 2.0) + 1.0
    assert got["child"] == (3.0 - 1.0) + 3.0
    assert got["grandchild"] == 1.0
    assert got["late"] == 4.0


def _cli_stdout(argv):
    from nqh import cli

    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_registry_check_rejects_one_flipped_report_byte():
    code, out = _cli_stdout(["--json", "reproduce", "ex-4.9-1"])
    check = workloads.items("registry", "unused")[1].check
    assert check(code, out) is None
    middle = len(out) // 2
    flipped = out[:middle] + chr(ord(out[middle]) ^ 1) + out[middle + 1:]
    assert check(code, flipped) is not None
    assert check(1, out) is not None


def _knorrer_payload(case, dim):
    return {"case": case, "checks": {"twisting-system": True},
            "report": [f"big deformation dim: {dim}, radical dim: 0"]}


def test_knorrer_check_rejects_wrong_dimension_and_failed_checks():
    good = json.dumps(_knorrer_payload("minus", 32))
    assert workloads.check_knorrer("minus", 3, 0, good) is None
    assert workloads.check_knorrer("minus", 3, 0,
                                   json.dumps(_knorrer_payload("minus", 16)))
    assert workloads.check_knorrer("plus", 3, 0, good)
    failed = _knorrer_payload("minus", 32)
    failed["checks"]["oracle-isomorphism"] = False
    assert workloads.check_knorrer("minus", 3, 0, json.dumps(failed))
    assert workloads.check_knorrer("minus", 3, 1, good)


def test_presentation_checks_reject_one_wrong_dimension():
    names = ["x1", "x2", "x3", "x4", "x5"]
    ring = {"generators": names, "central": True,
            "dims": [1, 5, 15, 35, 70, 126, 210]}
    dual = {"generators": names, "dims": [1, 5, 10, 10, 5, 1, 0]}
    assert workloads.check_ring(5, 0, json.dumps(ring)) is None
    assert workloads.check_dual(5, 0, json.dumps(dual)) is None
    assert workloads.check_clifford(5, 0, json.dumps({"dim": 32})) is None
    ring["dims"][4] = 71
    dual["dims"][6] = 1
    assert workloads.check_ring(5, 0, json.dumps(ring))
    assert workloads.check_dual(5, 0, json.dumps(dual))
    assert workloads.check_clifford(5, 0, json.dumps({"dim": 16}))
    ring["dims"][4] = 70
    ring["central"] = False
    assert workloads.check_ring(5, 0, json.dumps(ring))


def test_tracer_patches_every_binding_and_restores_them(tmp_path):
    import nqh.algebra
    import nqh.cli
    import nqh.deform
    import nqh.quadratic

    original = nqh.algebra.verify_algebra
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({
        "generators": ["x1", "x2"],
        "relations": [{"x1 x2": "1", "x2 x1": "1"}],
        "central": {"x1 x1": "1", "x2 x2": "1"},
    }))
    tracer = tracing.Tracer()
    tracer.begin_pass()
    with tracer:
        assert nqh.deform.verify_algebra is nqh.algebra.verify_algebra
        assert nqh.algebra.verify_algebra is not original
        code, out = _cli_stdout(["--json", "clifford", str(path)])
    spans, counts = tracer.end_pass()
    assert code == 0 and json.loads(out)["dim"] == 4
    assert nqh.deform.verify_algebra is original
    assert nqh.algebra.verify_algebra is original
    assert counts["cli.main.calls"] == 1
    assert counts["algebra.verify_algebra.calls"] >= 1
    assert counts["algebra.verify_algebra.triples"] >= 4 ** 3
    roots = [span for span in spans if span[3] == -1]
    assert [span[0] for span in roots] == ["cli.main"]


def test_scalar_counter_counts_and_restores():
    from nqh.exactlin import HALF, Scalar

    mul = Scalar.__mul__
    with tracing.ScalarCounter() as counter:
        HALF * HALF
        (HALF + Scalar(0, 1)).inverse()
        HALF.inverse()
    assert Scalar.__mul__ is mul
    assert counter.mul >= 1
    assert counter.inverse == 2 and counter.rational_inverse == 1


def test_slowest_item_does_not_depend_on_the_pass_count():
    from perfbench import run

    items = [workloads.Item(name, (), None) for name in ("a", "b", "c")]
    passes = [[1.0, 3.0, 2.0], [1.2, 2.8, 2.1], [0.9, 3.3, 1.9]]
    assert run.slowest_item(passes, items) == (3.0, "b")
    assert run.slowest_item(passes * 4, items) == (3.0, "b")
    assert run.slowest_item(passes * 7, items) == (3.0, "b")


def test_times_are_scaled_by_the_loop_times_around_them():
    from perfbench import run

    slow = 2 * run.REFERENCE_S
    assert run.to_reference(3.0, slow, slow) == 1.5
    assert run.to_reference(3.0, run.REFERENCE_S, 3 * run.REFERENCE_S) == 1.5
    assert run.to_reference(3.0, run.REFERENCE_S, run.REFERENCE_S) == 3.0


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.per_layer_metrics()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "item_s_hi", "setup_s", "peak_rss_mb"}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "registry", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
