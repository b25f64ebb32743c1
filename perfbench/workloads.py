"""The benchmark's workloads: seeded input files, the ``nqh`` commands run
on them, and the checks that decide whether each output is correct.

Every workload is a closed loop with a single caller: one process, one
thread, each command started only after the previous one returned.  The
inputs depend on the seed alone, and ``nqh`` only ever sees the JSON files
written from them.  The checks use closed forms and digests fixed here, never
values computed by the code under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

WORKLOADS = ("registry", "skew3", "presentations")

# sha256 of the stdout of `nqh --json reproduce <id>`, recorded when the
# benchmark was defined: registry reports must stay byte-identical.
REGISTRY_DIGESTS = {
    "ex-4.10": "ec1e0b1b638781d721bf4838c0e278a6bdfb38e70eff9cdee293b6d1401ef57b",
    "ex-4.9-1": "6f7ead7bb8b4d1b07d188d1a418df8830cdfd5ce93b75eee18e3dd8d36bbe385",
    "ex-4.9-2": "00ccfedeb321b33fe7c288dd46141af75b943d6e21a910932bdbb37675cf0734",
    "ex-5.9": "6e09ba9fedba47b7146ee6503513aa78132167a3620b1b32cc89c2e45e6ea7fd",
    "prop-5.1": "6c27afc5ea25fe4933abcd0066316fcc49db7a05b0cc2d430d58e5a15d92453a",
    "prop-5.10": "5d87d3ba1f89069673af14537339303360d7bee75924db671dd795f2df6e3547",
}

SKEW3_GENERATORS = 3
PRESENTATION_GENERATORS = 5
# The CLI's default degree bound for graded dimensions is 6: degrees 0..6.
PROFILE_LENGTH = 7
MAX_DRAWS = 64


@dataclass(frozen=True)
class Item:
    """One CLI command of a workload pass and the check of its output.

    ``check(exit_code, stdout)`` returns ``None`` when the output is correct
    and a one-line description of the problem otherwise.
    """

    name: str
    argv: tuple
    check: Callable[[int, str], Optional[str]]


# ---------------------------------------------------------------------------
# seeded inputs: the (q_ij = +-1)-skew family with z = sum x_i^2


def encode(doc):
    """The bytes of an input file: sorted keys, so one doc gives one file."""
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def skew_base(rng, g):
    """Relations x_i x_j + q_ij x_j x_i with q_ij = +-1 drawn from ``rng``,
    and the central element z = sum x_i^2."""
    names = [f"x{k + 1}" for k in range(g)]
    relations = []
    for i in range(g):
        for j in range(i + 1, g):
            q = rng.choice((1, -1))
            relations.append({f"{names[i]} {names[j]}": "1",
                              f"{names[j]} {names[i]}": str(q)})
    return {
        "generators": names,
        "relations": relations,
        "central": {f"{name} {name}": "1" for name in names},
    }


def _signed_diagonal(rng, names):
    return {name: {name: str(rng.choice((1, -1)))} for name in names}


def skew_double_ore(rng, g, p12):
    """A double Ore file over a skew base with signed-diagonal sigma.

    Signs are drawn until ``validate_double_ore`` accepts the candidate.
    """
    from nqh.deform import validate_double_ore
    from nqh.formats import parse_double_ore

    for _ in range(MAX_DRAWS):
        doc = skew_base(rng, g)
        names = doc["generators"]
        doc.update(p12=str(p12), p11="0", sigma={
            "11": _signed_diagonal(rng, names),
            "12": {},
            "21": {},
            "22": _signed_diagonal(rng, names),
        })
        data, _ = parse_double_ore(doc)
        report, _ = validate_double_ore(data)
        if report.ok:
            return doc
    raise RuntimeError(f"no valid double Ore data in {MAX_DRAWS} draws")


def generate(workload, seed):
    """The input files of ``workload`` for ``seed``, as {file name: bytes}."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "registry":
        return {}
    if workload == "skew3":
        return {f"{case}.json": encode(skew_double_ore(rng, SKEW3_GENERATORS, p12))
                for case, p12 in (("plus", 1), ("minus", -1))}
    if workload == "presentations":
        return {"base.json": encode(skew_base(rng, PRESENTATION_GENERATORS))}
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(files, directory):
    os.makedirs(directory, exist_ok=True)
    for name, data in files.items():
        with open(os.path.join(directory, name), "wb") as handle:
            handle.write(data)


# ---------------------------------------------------------------------------
# output checks


def _payload(exit_code, out):
    """(payload, problem) of a --json report."""
    if exit_code != 0:
        return None, f"exit code {exit_code}"
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


def check_registry(digest, exit_code, out):
    if exit_code != 0:
        return f"exit code {exit_code}"
    got = hashlib.sha256(out.encode("utf-8")).hexdigest()
    if got != digest:
        return f"report digest {got[:16]} differs from the recorded {digest[:16]}"
    return None


def check_knorrer(case, g, exit_code, out):
    payload, problem = _payload(exit_code, out)
    if problem:
        return problem
    if payload.get("case") != case:
        return f"case {payload.get('case')!r}, expected {case!r}"
    checks = payload.get("checks") or {}
    failing = sorted(name for name, passed in checks.items() if passed is not True)
    if not checks or failing:
        return f"checks not all passed: {failing or 'none reported'}"
    want = f"big deformation dim: {4 * 2 ** g},"
    if not any(line.startswith(want) for line in payload.get("report", [])):
        return f"report lacks {want!r}"
    return None


def _check_profile(payload, g, expected):
    if payload.get("generators") is None or len(payload["generators"]) != g:
        return f"expected {g} generators"
    dims = payload.get("dims")
    if dims != expected:
        return f"dims {dims}, expected {expected}"
    return None


def check_ring(g, exit_code, out):
    """Dims of a PBW skew polynomial ring: C(n + g - 1, g - 1); z central."""
    payload, problem = _payload(exit_code, out)
    if problem:
        return problem
    expected = [math.comb(n + g - 1, g - 1) for n in range(PROFILE_LENGTH)]
    problem = _check_profile(payload, g, expected)
    if problem:
        return problem
    if payload.get("central") is not True:
        return "z = sum x_i^2 not reported central"
    return None


def check_dual(g, exit_code, out):
    """Dims of the dual, an exterior-type algebra: C(g, n)."""
    payload, problem = _payload(exit_code, out)
    if problem:
        return problem
    return _check_profile(payload, g,
                          [math.comb(g, n) for n in range(PROFILE_LENGTH)])


def check_clifford(g, exit_code, out):
    """The deformation of the dual has dimension 2^g."""
    payload, problem = _payload(exit_code, out)
    if problem:
        return problem
    if payload.get("dim") != 2 ** g:
        return f"dim {payload.get('dim')}, expected {2 ** g}"
    return None


def items(workload, directory):
    """The commands of one pass of ``workload`` over the files in
    ``directory``, in the order they run."""
    if workload == "registry":
        return [Item(sid, ("--json", "reproduce", sid), partial(check_registry, digest))
                for sid, digest in sorted(REGISTRY_DIGESTS.items())]
    if workload == "skew3":
        g = SKEW3_GENERATORS
        return [Item(f"knorrer-{case}",
                     ("--json", "knorrer", os.path.join(directory, f"{case}.json"),
                      "--case", "auto"),
                     partial(check_knorrer, case, g))
                for case in ("plus", "minus")]
    if workload == "presentations":
        g = PRESENTATION_GENERATORS
        path = os.path.join(directory, "base.json")
        return [
            Item("check-presentation", ("--json", "check-presentation", path),
                 partial(check_ring, g)),
            Item("koszul-dual", ("--json", "koszul-dual", path), partial(check_dual, g)),
            Item("clifford", ("--json", "clifford", path), partial(check_clifford, g)),
        ]
    raise ValueError(f"unknown workload {workload!r}")
