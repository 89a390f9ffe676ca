#!/usr/bin/env python3
"""Self-check of the benchmark itself; run from the root of a checkout:

    python3 bench/selfcheck.py

It checks the self-time arithmetic on a synthetic span tree, that the tracer
wraps and then restores the functions it traces, and that the metric names
the code produces are exactly those BENCHMARK.json lists.  Exits 1 if any
check fails.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402


def close(x, y) -> bool:
    return abs(x - y) < 1e-9


def check_span_arithmetic(problems):
    # name, start, end, parent, info
    tree = [
        ["decide1d.decide_preinjective", 0.0, 10.0, -1, None],  # 0: self 10 - 3 - 4 = 3
        ["decide1d.DeBruijnLift", 1.0, 4.0, 0, {"states": 4}],  # 1: self 3
        ["subshift.sofic_compare", 5.0, 9.0, 0, None],  # 2: self 4 - 1 = 3
        ["subshift.subset_automaton", 6.0, 7.0, 2, {"states": 5}],  # 3: self 1
        ["goe_search.semi_decide", 20.0, 30.0, -1, None],  # 4: children overlap: self 10 - 7 = 3
        ["goe_search.image_pattern_set", 21.0, 25.0, 4, {"raised": "BudgetExceededError"}],
        ["goe_search.me_check", 24.0, 28.0, 4, {"useful": True}],
        ["decide1d.DeBruijnLift", 40.0, 41.0, -1, {"states": 3}],  # outside a pair-graph owner
    ]
    want_self = [3.0, 3.0, 3.0, 1.0, 3.0, 4.0, 4.0, 1.0]
    got_self = spans.self_times(tree)
    if not all(close(g, w) for g, w in zip(got_self, want_self)):
        problems.append(f"self times {got_self} != {want_self}")
    if not close(spans.covered([(1, 3), (2, 5), (7, 8)]), 5.0):
        problems.append("covered() of overlapping intervals")
    m = spans.layer_metrics(tree, Counter({"groups.mul_calls": 7}))
    want = {
        "decide1d.preinjective_s": 10.0,
        "decide1d.self_s": 3.0 + 3.0 + 1.0,
        "decide1d.lift_s": 4.0,
        "decide1d.lift_states": 7,
        "decide1d.pair_states": 16,
        "subshift.compare_self_s": 3.0,
        "subshift.subset_s": 1.0,
        "subshift.dfa_states": 5,
        "goe_search.semi_decide_s": 10.0,
        "goe_search.self_s": 3.0,
        "goe_search.image_set_calls": 1,
        "goe_search.image_set_over_budget": 1,
        "goe_search.image_candidates": 0,
        "goe_search.me_checks": 1,
        "goe_search.me_useful_ratio": 1.0,
        "groups.mul_calls": 7,
        "entropy.perron_s": 0,
        "trace.spans": 8,
    }
    for name, value in want.items():
        if not close(m[name], value):
            problems.append(f"{name} = {m[name]}, expected {value}")


def check_tracer_restores(problems):
    run.import_goelab()
    import goelab
    from goelab import decide1d, groups

    modules = spans.load_goelab_modules()
    before = {name: dict(vars(module)) for name, module in modules.items()}
    lift_init, mul = decide1d.DeBruijnLift.__init__, groups.Zd.mul
    with spans.Tracer(modules) as tracer:
        if decide1d.decide_surjective is before["goelab.decide1d"]["decide_surjective"]:
            problems.append("decide_surjective was not wrapped")
        if goelab.decide_surjective is before["goelab"]["decide_surjective"]:
            problems.append("the package's re-export of decide_surjective was not wrapped")
        goelab.decide_preinjective(goelab.wolfram_rule(232))
        goelab.semi_decide(goelab.wolfram_rule(232), goelab.SearchBudget(max_window_cells=2))
    names = {span[spans.NAME] for span in tracer.spans}
    for name in ("decide1d.decide_preinjective", "decide1d.DeBruijnLift", "subshift.word_appears",
                 "goe_search.semi_decide", "goe_search.image_pattern_set"):
        if name not in names:
            problems.append(f"no span named {name}")
    if tracer.counts["groups.mul_calls"] == 0:
        problems.append("Zd.mul calls were not counted")
    for name, module in modules.items():
        if dict(vars(module)) != before[name]:
            problems.append(f"{name} was not restored")
    if decide1d.DeBruijnLift.__init__ is not lift_init or groups.Zd.mul is not mul:
        problems.append("class methods were not restored")


def check_metric_names(problems):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    import workloads

    layer_names = set(spans.layer_metrics([], Counter())) | {"trace.overhead_s"}
    if layer_names != {m["name"] for m in spec["per_layer"]}:
        problems.append(f"per-layer names differ: {sorted(layer_names ^ {m['name'] for m in spec['per_layer']})}")
    e2e = set(run.end_to_end(1.0, [0.001 * k for k in range(1, 21)], 0.21, 1.0, 20, 0, 20))
    if e2e != {m["name"] for m in spec["end_to_end"]}:
        problems.append(f"end-to-end names differ: {sorted(e2e ^ {m['name'] for m in spec['end_to_end']})}")
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    coded = {name: " ".join(cls.why.split()) for name, cls in workloads.WORKLOADS.items()}
    if declared != coded:
        problems.append("BENCHMARK.json workloads differ from bench/workloads.py")


def main() -> int:
    failed = False
    for check in (check_span_arithmetic, check_tracer_restores, check_metric_names):
        problems = []
        check(problems)
        print(f"{'ok  ' if not problems else 'FAIL'} {check.__name__}")
        for p in problems:
            print(f"     {p}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
