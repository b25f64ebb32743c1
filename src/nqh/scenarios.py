"""The worked-example registry: embedded inputs and expected facts.

Every scenario re-parses its input through the same file-format layer the
CLI uses, runs the matching pipeline, and checks a list of expectations.
Each expectation carries a provenance tag: "published" for values printed
in the source worked examples, "derived" for values fixed by an
independent computation inside this package, and "defining" for
bookkeeping facts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import I, ONE, add_scaled
from .algebra import (
    GradedLinMap,
    RightModule,
    generating_set,
    is_commutative,
    is_nilpotent_element,
    radical,
    spin,
    vec_add,
    vec_scale,
    vec_sub,
    verify_decomposition,
    verify_iso,
)
from .deform import normalize_p11, p12_classify, CaseKind
from .errors import DegenerateP11
from .formats import parse_double_ore
from .knorrer import (
    prop51_scenario,
    run_minus_case,
    run_plus_case,
    singularity_report,
)
from .twist import BlockLayout

KM1_PRESENTATION = {
    "generators": ["x1", "x2"],
    "relations": [{"x1 x2": "1", "x2 x1": "1"}],
    "central": {"x1 x1": "1", "x2 x2": "1"},
}

H = "1/2*r2"  # the scaling with 2 h^2 = 1 used by the class-Z data

EX_4_10 = {
    **KM1_PRESENTATION,
    "p12": "1",
    "p11": "0",
    "sigma": {
        "11": {"x1": {"x1": H}, "x2": {"x2": H}},
        "12": {"x1": {"x2": H}, "x2": {"x1": H}},
        "21": {"x1": {"x2": H}, "x2": {"x1": H}},
        "22": {"x1": {"x1": "-" + H}, "x2": {"x2": "-" + H}},
    },
}

EX_4_9_1 = {
    **KM1_PRESENTATION,
    "p12": "1",
    "p11": "0",
    "sigma": {
        "11": {"x1": {"x1": "1"}, "x2": {"x2": "1"}},
        "12": {},
        "21": {},
        "22": {"x1": {"x1": "1"}, "x2": {"x2": "1"}},
    },
}

EX_4_9_2 = {
    **KM1_PRESENTATION,
    "p12": "1",
    "p11": "0",
    "sigma": {
        "11": {"x1": {"x1": "-1"}, "x2": {"x2": "-1"}},
        "12": {},
        "21": {},
        "22": {"x1": {"x1": "1"}, "x2": {"x2": "1"}},
    },
}

EX_5_9 = {
    **KM1_PRESENTATION,
    "p12": "-1",
    "p11": "0",
    "sigma": {
        "11": {"x1": {"x1": "-1/2", "x2": "1/2"}, "x2": {"x1": "1/2", "x2": "-1/2"}},
        "12": {"x1": {"x1": "1/2", "x2": "1/2"}, "x2": {"x1": "1/2", "x2": "1/2"}},
        "21": {"x1": {"x1": "1/2", "x2": "1/2"}, "x2": {"x1": "1/2", "x2": "1/2"}},
        "22": {"x1": {"x1": "1/2", "x2": "-1/2"}, "x2": {"x1": "-1/2", "x2": "1/2"}},
    },
}

PROP_5_10 = {
    **KM1_PRESENTATION,
    "p12": "-1",
    "p11": "0",
    "sigma": {
        "11": {"x1": {"x1": "1", "x2": "1"}, "x2": {}},
        "12": {"x1": {"x1": "1"}, "x2": {"x1": "1"}},
        "21": {"x1": {"x2": "1"}, "x2": {"x2": "-1"}},
        "22": {"x1": {}, "x2": {"x1": "-1", "x2": "1"}},
    },
}

PROP_5_1 = {
    **KM1_PRESENTATION,
    "p12": "-1",
    "p11": "2*i",
    "sigma": {
        "11": {"x1": {"x1": "1"}, "x2": {"x2": "1"}},
        "12": {},
        "21": {},
        "22": {"x1": {"x1": "1"}, "x2": {"x2": "1"}},
    },
}


@dataclass
class ScenarioCheck:
    name: str
    passed: bool
    observed: str
    source: str


class ScenarioResult:
    def __init__(self, scenario_id, checks, lines):
        self.scenario_id = scenario_id
        self.checks = checks
        self.lines = lines

    @property
    def ok(self):
        return all(c.passed for c in self.checks)


def _pair_tools(result):
    """The label index of E and the pair map (a, b) -> E x E of a minus case."""
    E = result.base.algebra
    index = {lbl: k for k, lbl in enumerate(E.labels)}
    return index, BlockLayout(E, result.theta_prod.basis).pair


def _character_modules(algebra):
    """The sign characters of the rank-2 deformation as 1-dim modules."""
    modules = []
    for s1 in (ONE, -ONE):
        for s2 in (ONE, -ONE):
            action = []
            for word in algebra.words:
                value = ONE
                for letter in word:
                    value = value * (s1 if letter == 0 else s2)
                action.append([{0: value}])
            modules.append(RightModule(algebra, 1, action))
    return modules


def run_ex_4_10():
    checks = []
    lines = []
    data, central = parse_double_ore(EX_4_10)
    result = run_plus_case(data, central)
    C = result.base.algebra
    checks.append(ScenarioCheck("clifford-dim", C.dim == 4, str(C.dim),
                                "published"))
    commutative = is_commutative(C)
    checks.append(ScenarioCheck("clifford-commutative", commutative,
                                str(commutative), "published"))
    rad = radical(C).dim
    checks.append(ScenarioCheck("clifford-radical", rad == 0, str(rad),
                                "published"))
    chars = _character_modules(C)
    decomposed = verify_decomposition(C, chars, [1, 1, 1, 1])
    checks.append(ScenarioCheck("clifford-four-characters", decomposed,
                                str(decomposed), "derived"))
    checks.append(ScenarioCheck("pipeline", result.checks.ok,
                                f"{sum(c.passed for c in result.checks.items)}"
                                f"/{len(result.checks.items)} checks",
                                "published"))
    lam = result.Lambda
    concentrated = all(d == (0,) for d in lam.degrees)
    checks.append(ScenarioCheck("corner-extension-concentrated", concentrated,
                                str(lam.degrees), "published"))
    report = singularity_report(result)
    lam_rad = report.small_radical_dim
    lam_comm = is_commutative(lam)
    checks.append(ScenarioCheck("corner-extension-semisimple",
                                lam_rad == 0 and lam_comm and lam.dim == 4,
                                f"radical {lam_rad}, dim {lam.dim}",
                                "published"))
    lines.extend(report.lines)
    checks.append(ScenarioCheck("isolated-singularity", report.isolated, "yes",
                                "published"))
    text = report.text()
    checks.append(ScenarioCheck(
        "mcm-description", "D^b(mod k)^{×8}" in text,
        "D^b(mod k)^{×8}", "published"))
    checks.append(ScenarioCheck(
        "block-list", "blocks: k,k,k,k ×2 components" in text,
        "k,k,k,k ×2 components", "published"))
    return checks, lines


def run_ex_4_9_1():
    checks = []
    lines = []
    data, central = parse_double_ore(EX_4_9_1)
    result = run_plus_case(data, central)
    checks.append(ScenarioCheck("pipeline", result.checks.ok,
                                f"{len(result.checks.items)} checks",
                                "published"))
    checks.append(ScenarioCheck("module-part-vanishes", result.M.dim == 0,
                                str(result.M.dim), "published"))
    E = result.base.algebra
    cols = result.S.basis
    iso = GradedLinMap(result.Lambda, E, cols)
    # Lambda regrades the certified Lambda_big and build_clifford certifies
    # E, so both are associative as verify_iso requires
    lam_is_base = verify_iso(iso, generating_set(result.Lambda))
    checks.append(ScenarioCheck("extension-is-base-deformation", lam_is_base,
                                str(lam_is_base), "published"))
    report = singularity_report(result)
    lines.extend(report.lines)
    checks.append(ScenarioCheck("isolated-singularity", report.isolated, "yes",
                                "derived"))
    return checks, lines


def run_ex_4_9_2():
    checks = []
    lines = []
    data, central = parse_double_ore(EX_4_9_2)
    result = run_plus_case(data, central)
    checks.append(ScenarioCheck("pipeline", result.checks.ok,
                                f"{len(result.checks.items)} checks",
                                "published"))
    lam = result.Lambda
    concentrated = all(d == (0,) for d in lam.degrees)
    checks.append(ScenarioCheck("concentrated-in-degree-zero", concentrated,
                                str(lam.degrees), "published"))
    checks.append(ScenarioCheck("degree-zero-dim", lam.dim == 4, str(lam.dim),
                                "published"))
    E = result.base.algebra
    lam_first = result.Lambda_bigraded.regrade(
        [(d[0],) for d in result.Lambda_bigraded.degrees], 1)
    cols = result.S.basis + result.M.basis
    iso = GradedLinMap(lam_first, E, cols)
    # both sides are certified associative, as in run_ex_4_9_1
    identified = verify_iso(iso, generating_set(lam_first))
    checks.append(ScenarioCheck("degree-zero-part-is-base-deformation",
                                identified, str(identified), "published"))
    report = singularity_report(result)
    lines.extend(report.lines)
    checks.append(ScenarioCheck("isolated-singularity", report.isolated, "yes",
                                "derived"))
    return checks, lines


def run_ex_5_9():
    checks = []
    lines = []
    data, central = parse_double_ore(EX_5_9)
    result = run_minus_case(data, central)
    checks.append(ScenarioCheck("pipeline", result.checks.ok,
                                f"{sum(c.passed for c in result.checks.items)}"
                                f"/{len(result.checks.items)} checks",
                                "published"))
    NG = result.zhang
    checks.append(ScenarioCheck("zhang-dim", NG.dim == 8, str(NG.dim),
                                "published"))
    index, pair = _pair_tools(result)
    one_v = {index["1"]: ONE}
    w_v = {index["x1*x2*"]: ONE}
    u_v = {index["x1*"]: ONE}
    v_v = {index["x2*"]: ONE}
    regular = RightModule.regular(NG)
    seeds = [
        [pair(vec_sub(one_v, w_v), {}), pair(vec_sub(u_v, v_v), {})],
        [pair(add_scaled(vec_add(u_v, v_v), vec_add(one_v, w_v), I), {})],
        [pair(vec_sub(vec_scale(vec_add(one_v, w_v), I),
                      vec_add(u_v, v_v)), {})],
        [pair({}, vec_add(vec_add(one_v, w_v), vec_add(u_v, v_v)))],
        [pair({}, vec_sub(vec_add(one_v, w_v), vec_add(u_v, v_v)))],
    ]

    gens = generating_set(NG)
    modules = []
    for seed_list in seeds:
        space = spin(regular, seed_list, gens)
        modules.append(RightModule.from_invariant_subspace(NG, space))
    decomposition = verify_decomposition(NG, modules, [2, 1, 1, 1, 1])
    blocks = ["M2(k)", "k", "k", "k", "k"] if decomposition else None
    report = singularity_report(result, blocks=blocks)
    # NG is certified isomorphic to the degree-0 part, whose radical the
    # report computes (see singularity_report)
    rad = report.small_radical_dim
    checks.append(ScenarioCheck("zhang-radical", rad == 0, str(rad),
                                "published"))
    dims_ok = [m.dim for m in modules] == [2, 1, 1, 1, 1]
    checks.append(ScenarioCheck("module-dims", dims_ok,
                                str([m.dim for m in modules]), "published"))
    checks.append(ScenarioCheck("decomposition", decomposition,
                                "mults (2,1,1,1,1)", "published"))
    lines.extend(report.lines)
    checks.append(ScenarioCheck("isolated-singularity", report.isolated, "yes",
                                "published"))
    text = report.text()
    checks.append(ScenarioCheck("mcm-description",
                                "D^b(k)^{×5}" in text, "D^b(k)^{×5}",
                                "published"))
    return checks, lines


def run_prop_5_10():
    checks = []
    lines = []
    data, central = parse_double_ore(PROP_5_10)
    result = run_minus_case(data, central)
    checks.append(ScenarioCheck("pipeline", result.checks.ok,
                                f"{sum(c.passed for c in result.checks.items)}"
                                f"/{len(result.checks.items)} checks",
                                "published"))
    NG = result.zhang
    index, pair = _pair_tools(result)
    one_v = {index["1"]: ONE}
    w_v = {index["x1*x2*"]: ONE}
    u_v = {index["x1*"]: ONE}
    v_v = {index["x2*"]: ONE}
    minus_one = {index["1"]: -ONE}
    minus_w = {index["x1*x2*"]: -ONE}
    star = NG.mul
    printed = [
        ("(x1*x2*,0)*(1,0)=(1,0)", pair(w_v, {}), pair(one_v, {}),
         pair(one_v, {})),
        ("(x1*x2*,0)*(x1*x2*,0)=(x1*x2*,0)", pair(w_v, {}),
         pair(w_v, {}), pair(w_v, {})),
        ("(x1*x2*,0)*(x1*,0)=(x1*,0)", pair(w_v, {}), pair(u_v, {}),
         pair(u_v, {})),
        ("(x1*x2*,0)*(x2*,0)=(x2*,0)", pair(w_v, {}), pair(v_v, {}),
         pair(v_v, {})),
        ("(x1*x2*,0)*(0,1)=(x1*x2*-1,0)", pair(w_v, {}),
         pair({}, one_v), pair(vec_sub(w_v, one_v), {})),
        ("(x1*x2*,0)*(0,x1*x2*)=(1-x1*x2*,0)", pair(w_v, {}),
         pair({}, w_v), pair(vec_sub(one_v, w_v), {})),
        ("(x1*x2*,0)*(0,x1*)=(x1*-x2*,0)", pair(w_v, {}),
         pair({}, u_v), pair(vec_sub(u_v, v_v), {})),
        ("(x1*x2*,0)*(0,x2*)=(x2*-x1*,0)", pair(w_v, {}),
         pair({}, v_v), pair(vec_sub(v_v, u_v), {})),
        ("(x1*,0)*(1,0)=(x1*,0)", pair(u_v, {}), pair(one_v, {}),
         pair(u_v, {})),
        ("(x1*,0)*(x1*x2*,0)=(x2*,0)", pair(u_v, {}), pair(w_v, {}),
         pair(v_v, {})),
        ("(x2*,0)*(1,0)=(x1*,0)", pair(v_v, {}), pair(one_v, {}),
         pair(u_v, {})),
        ("(x2*,0)*(x1*x2*,0)=(x2*,0)", pair(v_v, {}), pair(w_v, {}),
         pair(v_v, {})),
        ("(x2*,0)*(x1*,0)=(-1,0)", pair(v_v, {}), pair(u_v, {}),
         pair(minus_one, {})),
        ("(x2*,0)*(x2*,0)=(-x1*x2*,0)", pair(v_v, {}), pair(v_v, {}),
         pair(minus_w, {})),
        ("(x2*,0)*(0,1)=(x2*-x1*,0)", pair(v_v, {}), pair({}, one_v),
         pair(vec_sub(v_v, u_v), {})),
        ("(x2*,0)*(0,x1*)=(x1*x2*-1,0)", pair(v_v, {}), pair({}, u_v),
         pair(vec_sub(w_v, one_v), {})),
        ("(x2*,0)*(0,x2*)=(1-x1*x2*,0)", pair(v_v, {}), pair({}, v_v),
         pair(vec_sub(one_v, w_v), {})),
    ]
    matched = 0
    all_ok = True
    for label, x, y, want in printed:
        got = star(x, y) == want
        matched += got
        all_ok &= got
    checks.append(ScenarioCheck("printed-products", all_ok and matched >= 6,
                                f"{matched}/{len(printed)} verbatim",
                                "published"))
    family_ok = True
    E = result.base.algebra
    for b in range(E.dim):
        if star(pair(one_v, {}), pair({b: ONE}, {})) != pair({b: ONE}, {}):
            family_ok = False
        if star(pair(one_v, {}), pair({}, {b: ONE})):
            family_ok = False
        if star(pair(u_v, {}), pair({}, {b: ONE})):
            family_ok = False
    checks.append(ScenarioCheck("unit-and-annihilation-families", family_ok,
                                str(family_ok), "published"))
    witness = pair(vec_sub(one_v, w_v), {})
    nilp = (not star(witness, witness)) and is_nilpotent_element(NG, witness)
    checks.append(ScenarioCheck("nilpotent-witness", nilp,
                                "(1 - x1*x2*, 0) squares to zero", "published"))
    lines.append("nilpotent witness: (1 - x1*x2*, 0)")
    # NG is certified isomorphic to the degree-0 part, whose radical the
    # report computes (see singularity_report)
    report = singularity_report(result)
    rad = report.small_radical_dim
    checks.append(ScenarioCheck("zhang-radical-positive", rad >= 1, str(rad),
                                "derived"))
    checks.append(ScenarioCheck("zhang-radical-exact", rad == 4, str(rad),
                                "derived"))
    lines.extend(report.lines)
    checks.append(ScenarioCheck("not-isolated", not report.isolated, "no",
                                "published"))
    return checks, lines


def run_prop_5_1():
    checks = []
    lines = []
    data, central = parse_double_ore(PROP_5_1)
    kind = p12_classify(data)
    checks.append(ScenarioCheck("classification", kind == CaseKind.MINUS,
                                kind.value, "published"))
    degenerate = False
    try:
        normalize_p11(data)
    except DegenerateP11:
        degenerate = True
    checks.append(ScenarioCheck("degenerate-p11", degenerate, str(data.p11.text()),
                                "published"))
    scenario_lines, rad = prop51_scenario(data, central)
    lines.extend(scenario_lines)
    checks.append(ScenarioCheck("substitution-image",
                                any("verified" in line for line in scenario_lines),
                                "z + y2^2", "published"))
    checks.append(ScenarioCheck("witness-radical", rad >= 1, str(rad),
                                "derived"))
    checks.append(ScenarioCheck("witness-radical-exact", rad == 2, str(rad),
                                "derived"))
    checks.append(ScenarioCheck("not-isolated",
                                any("isolated singularity: no" in line
                                    for line in scenario_lines),
                                "no", "published"))
    return checks, lines


REGISTRY = {
    "ex-4.9-1": run_ex_4_9_1,
    "ex-4.9-2": run_ex_4_9_2,
    "ex-4.10": run_ex_4_10,
    "ex-5.9": run_ex_5_9,
    "prop-5.1": run_prop_5_1,
    "prop-5.10": run_prop_5_10,
}


def run_scenario(scenario_id):
    if scenario_id not in REGISTRY:
        raise KeyError(f"unknown scenario {scenario_id!r}")
    checks, lines = REGISTRY[scenario_id]()
    return ScenarioResult(scenario_id, checks, lines)
