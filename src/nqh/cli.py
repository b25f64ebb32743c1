"""Command-line surface.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 input or
parse error, or input past a work bound.  All reports are byte-deterministic:
fixed key order, no timestamps.  Scenarios run one after another in one
thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import scenarios as scenario_registry
from .errors import BoundExceeded, NqhError, ParseError
from .deform import (
    CaseKind,
    build_clifford,
    central_lift_in_b,
    p12_classify,
    validate_double_ore,
)
from .formats import (
    algebra_summary,
    load_json,
    parse_double_ore,
    parse_presentation,
    parse_twist_file,
    presentation_doc,
)
from .knorrer import run_minus_case, run_plus_case, singularity_report
from .quadratic import DEGREE_BOUND, check_central, hilbert_profile, koszul_dual
from .twist import verify_twisting_M2


def _render(args, lines, payload):
    """The report: the sorted, indented JSON payload with --json, else the
    lines, each ended by a newline."""
    if getattr(args, "json", False):
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return "".join(line + "\n" for line in lines)


def _emit(args, lines, payload):
    sys.stdout.write(_render(args, lines, payload))


def _degree_bound(args):
    """The --max-degree bound, 6 by default; a negative one is an input error."""
    if args.max_degree is None:
        return min(DEGREE_BOUND, 6)
    if args.max_degree < 0:
        raise ParseError(f"--max-degree must be non-negative, got {args.max_degree}")
    return args.max_degree


def cmd_check_presentation(args):
    bound = _degree_bound(args)
    doc = load_json(args.file)
    presentation, central = parse_presentation(doc)
    profile = hilbert_profile(presentation, bound)
    lines = [
        f"generators: {', '.join(presentation.generators)}",
        f"relation count: {presentation.relations.dim}",
        f"component dims 0..{bound}: {profile}",
    ]
    payload = {
        "generators": list(presentation.generators),
        "relations": presentation.relations.dim,
        "dims": profile,
    }
    failed = False
    if central is not None:
        ok = check_central(presentation, central)
        lines.append(f"central element: {'central' if ok else 'NOT central'}")
        payload["central"] = bool(ok)
        failed = not ok
    _emit(args, lines, payload)
    return 1 if failed else 0


def cmd_koszul_dual(args):
    bound = _degree_bound(args)
    doc = load_json(args.file)
    presentation, _ = parse_presentation(doc)
    dual = koszul_dual(presentation)
    profile = hilbert_profile(dual, bound)
    doc_out = presentation_doc(dual)
    lines = [f"generators: {', '.join(dual.generators)}",
             f"relation count: {dual.relations.dim}",
             f"component dims 0..{bound}: {profile}",
             "relations:"]
    for rel in doc_out["relations"]:
        lines.append("  " + json.dumps(rel, sort_keys=True))
    payload = {**doc_out, "dims": profile}
    _emit(args, lines, payload)
    return 0


def cmd_clifford(args):
    doc = load_json(args.file)
    presentation, central = parse_presentation(doc)
    if central is None:
        raise ParseError("the presentation file needs a central element")
    clifford = build_clifford(presentation, central)
    lines, payload = algebra_summary(clifford)
    if args.dump_rules:
        lines.append("rules:")
        for rule in clifford.system.rule_list():
            lhs = "".join(clifford.presentation.generators[a] for a in rule.lhs)
            rhs = rule.rhs.text(clifford.presentation.generators)
            lines.append(f"  {lhs} -> {rhs}")
    _emit(args, lines, payload)
    return 0


def cmd_double_ore(args):
    doc = load_json(args.file)
    data, central = parse_double_ore(doc)
    report, _ = validate_double_ore(data)
    kind = p12_classify(data)
    lines = list(report.lines())
    lines.append(f"case: {kind.value}")
    payload = {item.name: item.passed for item in report.items}
    payload["case"] = kind.value
    failed = not report.ok
    if central is not None:
        ok = check_central(data.b, central_lift_in_b(data, central))
        lines.append(f"extended central element: {'central' if ok else 'NOT central'}")
        payload["extended_central"] = bool(ok)
        failed |= not ok
    _emit(args, lines, payload)
    return 1 if failed else 0


def cmd_verify_twist(args):
    doc = load_json(args.file)
    system, _ = parse_twist_file(doc)
    report = verify_twisting_M2(system)
    lines = report.lines()
    payload = {item.name: item.passed for item in report.items}
    _emit(args, lines, payload)
    return 0 if report.ok else 1


def cmd_knorrer(args):
    # a report path that cannot be opened fails before any pipeline work,
    # without creating or truncating the file
    if args.report and os.path.isdir(args.report):
        raise ParseError(f"cannot write report: {args.report} is a directory")
    if args.report and not os.path.isdir(os.path.dirname(os.path.abspath(args.report))):
        raise ParseError(f"cannot write report: no directory holds {args.report}")
    doc = load_json(args.file)
    data, central = parse_double_ore(doc)
    if central is None:
        raise ParseError("the double Ore file needs a central element")
    kind = p12_classify(data)
    if kind == CaseKind.INVALID:
        raise ParseError("the mixing parameters admit no central extension")
    case = kind.value
    if args.case not in ("auto", case):
        raise ParseError(f"--case {args.case} contradicts the mixing parameters,"
                         f" which give the {case} case")
    if case == "plus":
        result = run_plus_case(data, central)
    else:
        result = run_minus_case(data, central)
    report = singularity_report(result)
    lines = [f"case: {case}"]
    passed = sum(c.passed for c in result.checks.items)
    lines.append(f"verified identifications: {passed}/{len(result.checks.items)}")
    for item in result.checks.items:
        mark = "pass" if item.passed else "FAIL"
        lines.append(f"  [{mark}] {item.name}")
    lines.extend(report.lines)
    payload = {
        "case": case,
        "checks": {item.name: item.passed for item in result.checks.items},
        "big_radical_dim": report.big_radical_dim,
        "degree0_radical_dim": report.degree0_radical_dim,
        "isolated": report.isolated,
        "report": report.lines,
    }
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(_render(args, lines, payload))
        except OSError as exc:
            raise ParseError(f"cannot write report: {exc}") from exc
    _emit(args, lines, payload)
    return 0 if result.checks.ok else 1


def _scenario_report(result):
    lines = [f"scenario {result.scenario_id}"]
    for check in result.checks:
        mark = "pass" if check.passed else "FAIL"
        lines.append(f"  [{mark}] {check.name}: {check.observed}"
                     f" (source: {check.source})")
    for line in result.lines:
        lines.append(f"  {line}")
    lines.append(f"result: {'PASS' if result.ok else 'FAIL'}"
                 f" ({len(result.checks)} checks)")
    return lines


def cmd_reproduce(args):
    registry = scenario_registry.REGISTRY
    if args.id == "all":
        ids = sorted(registry)
    else:
        if args.id not in registry:
            raise ParseError(f"unknown scenario {args.id!r}; known:"
                             f" {', '.join(sorted(registry))}")
        ids = [args.id]
    if not ids:
        print("warning: scenario registry is empty")
        return 0
    results = {scenario_id: scenario_registry.run_scenario(scenario_id)
               for scenario_id in ids}
    all_ok = True
    lines = []
    payload = {}
    for scenario_id in ids:
        result = results[scenario_id]
        all_ok &= result.ok
        lines.extend(_scenario_report(result))
        payload[scenario_id] = {
            "ok": result.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "observed": c.observed,
                 "source": c.source} for c in result.checks
            ],
            "report": result.lines,
        }
    lines.append(f"scenarios passed: {sum(results[s].ok for s in ids)}/{len(ids)}")
    _emit(args, lines, payload)
    if not all_ok:
        failing = [s for s in ids if not results[s].ok]
        print(f"FAILED scenarios: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nqh",
        description="Exact structure analysis for noncommutative quadric"
                    " hypersurfaces over double Ore extensions.")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report with stable key order")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-presentation",
                       help="validate a quadratic presentation file")
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=cmd_check_presentation)

    p = sub.add_parser("koszul-dual", help="print the quadratic dual")
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=cmd_koszul_dual)

    p = sub.add_parser("clifford",
                       help="build the deformation of the dual at the"
                            " file's central element")
    p.add_argument("file")
    p.add_argument("--dump-rules", action="store_true")
    p.set_defaults(func=cmd_clifford)

    p = sub.add_parser("double-ore", help="validate double Ore data")
    p.add_argument("file")
    p.set_defaults(func=cmd_double_ore)

    p = sub.add_parser("verify-twist", help="verify a twisting-system file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify_twist)

    p = sub.add_parser("knorrer",
                       help="run the full pipeline on a double Ore file")
    p.add_argument("file")
    p.add_argument("--case", choices=["auto", "plus", "minus"], default="auto")
    p.add_argument("--report", default=None, help="also write the report here")
    p.set_defaults(func=cmd_knorrer)

    p = sub.add_parser("reproduce", help="run registered worked examples")
    p.add_argument("id", help="a scenario id or 'all'")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, BoundExceeded, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NqhError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
