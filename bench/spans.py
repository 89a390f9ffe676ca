"""Span tracing around the calls into goelab's modules, from outside the package.

The tracer replaces public functions of the traced modules with timing
wrappers.  Modules call each other through names they imported, so a function
is replaced in every goelab module that binds it, not only where it is
defined.  Spans (name, start, end, parent) stay in memory until the run ends;
per-layer metrics are computed from them afterwards.

A span's self time is its duration minus the part of its interval that its
child spans cover.  A layer's busy time is the total duration of its spans
that have no ancestor in the same layer.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

# goelab modules whose public functions get spans; the short name is the layer.
LAYERS = ("decide1d", "subshift", "entropy", "goe_search", "suite", "linear_ca", "freegroup_lab")

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    """Install with ``with Tracer(modules) as tr:``; spans are kept in ``tr.spans``."""

    def __init__(self, goelab_modules: Dict[str, object]):
        self.modules = goelab_modules  # module name -> module, the package included
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self._undo: List[tuple] = []

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for layer in LAYERS:
            module = self.modules.get("goelab." + layer)
            if module is None:
                continue
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__ or inspect.isgeneratorfunction(fn):
                    continue
                self._replace_everywhere(fn, self._wrap(f"{layer}.{attr}", fn, OBSERVERS.get(f"{layer}.{attr}")))
        decide1d = self.modules.get("goelab.decide1d")
        lift = getattr(decide1d, "DeBruijnLift", None)
        if lift is not None:
            self._patch(lift, "__init__", self._wrap("decide1d.DeBruijnLift", lift.__init__, _observe_lift))
        groups = self.modules.get("goelab.groups")
        for cls_name in ("Zd", "FreeGroup"):
            cls = getattr(groups, cls_name, None)
            if cls is not None and "mul" in vars(cls):
                self._patch(cls, "mul", self._counter("groups.mul_calls", cls.mul))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _replace_everywhere(self, fn, wrapper) -> None:
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def _wrap(self, name: str, fn: Callable, observer: Optional[Callable]):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                stack.pop()
                span[INFO] = {"raised": type(exc).__name__}
                raise
            span[END] = clock()
            stack.pop()
            if observer is not None:
                span[INFO] = observer(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name: str, fn: Callable):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- output -----------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON span per line: name, start, end, parent index, info."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


# -- observers: small records taken from arguments and results -------------------


def _observe_lift(args, kwargs, result):
    return {"states": args[0].num_states}


def _observe_verdict(args, kwargs, result):
    return {"answer": result.answer, "verified": dict(result.detail).get("witness_verified")}


def _observe_subset(args, kwargs, result):
    return {"states": len(result.states)}


def _observe_trim(args, kwargs, result):
    pres = args[0] if args else kwargs["pres"]
    return {"in": pres.num_vertices, "out": result.num_vertices}


def _observe_determinize(args, kwargs, result):
    return {"states": result.num_vertices}


def _observe_image_set(args, kwargs, result):
    ca, window = args[0], args[1] if len(args) > 1 else kwargs["window"]
    # the candidate count is computed after the run, from these
    return {"alphabet": len(ca.input_alphabet), "window": window, "memory_set": ca.memory_set}


def _observe_me(args, kwargs, result):
    return {"useful": bool(result)}


OBSERVERS = {
    "decide1d.decide_preinjective": _observe_verdict,
    "decide1d.decide_injective": _observe_verdict,
    "subshift.subset_automaton": _observe_subset,
    "subshift.trim": _observe_trim,
    "subshift.determinize": _observe_determinize,
    "goe_search.image_pattern_set": _observe_image_set,
    "goe_search.me_check": _observe_me,
}


# -- span arithmetic --------------------------------------------------------------


def children_of(spans: List[list]) -> List[List[int]]:
    kids: List[List[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            kids[span[PARENT]].append(i)
    return kids


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: List[list]) -> List[float]:
    """Duration of each span minus the part of it covered by its children."""
    kids = children_of(spans)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        inside = [
            (max(start, spans[k][START]), min(end, spans[k][END]))
            for k in kids[i]
            if spans[k][END] > start and spans[k][START] < end
        ]
        out.append((end - start) - covered(inside))
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def outermost(spans: List[list], keep: Callable[[str], bool]) -> List[int]:
    """Indices of spans selected by ``keep`` with no selected ancestor."""
    chosen = []
    inside = [False] * len(spans)  # has a selected span on the ancestor path (self included)
    for i, span in enumerate(spans):  # parents precede children
        parent = span[PARENT]
        above = parent >= 0 and inside[parent]
        mine = keep(span[NAME])
        if mine and not above:
            chosen.append(i)
        inside[i] = above or mine
    return chosen


def busy(spans: List[list], keep: Callable[[str], bool]) -> float:
    return sum(spans[i][END] - spans[i][START] for i in outermost(spans, keep))


def has_ancestor(spans: List[list], i: int, names) -> bool:
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _window_inputs(window, memory_set) -> int:
    return len({tuple(a + b for a, b in zip(g, s)) for g in window for s in memory_set})


def layer_metrics(spans: List[list], counts: Counter) -> Dict[str, float]:
    """Per-layer metrics; a layer the workload never calls reads 0."""
    selfs = self_times(spans)
    named: Dict[str, List[int]] = {}
    for i, span in enumerate(spans):
        named.setdefault(span[NAME], []).append(i)

    def total(*names):
        wanted = set(names)
        return busy(spans, lambda n: n in wanted)

    def self_of(pred):
        return sum(t for span, t in zip(spans, selfs) if pred(span[NAME]))

    def infos(name):
        return [spans[i][INFO] for i in named.get(name, ())]

    lifts = named.get("decide1d.DeBruijnLift", [])
    pair_owners = {"decide1d.decide_preinjective", "decide1d.decide_injective", "decide1d.me_check_subshift"}
    verdicts = [
        info
        for info in infos("decide1d.decide_preinjective") + infos("decide1d.decide_injective")
        if info and "answer" in info and not info["answer"]
    ]
    trims = [info for info in infos("subshift.trim") if info and "in" in info]
    perron_dfa = [
        spans[i][INFO]["states"]
        for i in named.get("subshift.determinize", ())
        if spans[i][INFO] and "states" in spans[i][INFO]
        and has_ancestor(spans, i, {"entropy.perron_entropy"})
    ]
    image_sets = infos("goe_search.image_pattern_set")
    enumerated = [info for info in image_sets if info and "window" in info]
    over = [info for info in image_sets if info and info.get("raised") == "BudgetExceededError"]
    mes = infos("goe_search.me_check")
    search_loops = {"goe_search.semi_decide", "goe_search.find_goe_pattern", "goe_search.find_me_pair"}

    return {
        "decide1d.surjective_s": total("decide1d.decide_surjective"),
        "decide1d.preinjective_s": total("decide1d.decide_preinjective"),
        "decide1d.injective_s": total("decide1d.decide_injective"),
        "decide1d.self_s": self_of(lambda n: layer_of(n) == "decide1d"),
        "decide1d.lift_s": total("decide1d.DeBruijnLift"),
        "decide1d.lift_states": sum(spans[i][INFO]["states"] for i in lifts if spans[i][INFO]),
        "decide1d.pair_states": sum(
            spans[i][INFO]["states"] ** 2
            for i in lifts
            if spans[i][INFO] and has_ancestor(spans, i, pair_owners)
        ),
        "decide1d.verify_s": total("decide1d.verify_diamond_witness", "decide1d.verify_injectivity_witness"),
        "decide1d.witness_verified_ratio": _ratio(
            sum(1 for v in verdicts if v["verified"] is True), len(verdicts)
        ),
        "subshift.subset_s": total("subshift.subset_automaton"),
        "subshift.dfa_states": sum(i["states"] for i in infos("subshift.subset_automaton") if i and "states" in i),
        "subshift.compare_self_s": self_of(lambda n: n == "subshift.sofic_compare"),
        "subshift.trim_s": total("subshift.trim"),
        "subshift.trim_calls": len(named.get("subshift.trim", ())),
        "subshift.trim_kept_ratio": _ratio(sum(t["out"] for t in trims), sum(t["in"] for t in trims)),
        "subshift.language_count_s": total("subshift.language_count"),
        "subshift.word_appears_s": total("subshift.word_appears"),
        "subshift.window_count_s": total("subshift.locally_admissible_count"),
        "entropy.perron_s": total("entropy.perron_entropy"),
        "entropy.perron_self_s": self_of(lambda n: n == "entropy.perron_entropy"),
        "entropy.perron_states": sum(perron_dfa),
        "entropy.image_check_s": total("entropy.image_entropy_check"),
        "entropy.count_s": total("entropy.pattern_count_entropy"),
        "goe_search.semi_decide_s": total("goe_search.semi_decide"),
        "goe_search.self_s": self_of(lambda n: n in search_loops),
        "goe_search.image_set_s": total("goe_search.image_pattern_set"),
        "goe_search.image_set_calls": len(image_sets),
        "goe_search.image_candidates": sum(
            info["alphabet"] ** _window_inputs(info["window"], info["memory_set"]) for info in enumerated
        ),
        "goe_search.image_set_over_budget": len(over),
        "goe_search.me_check_s": total("goe_search.me_check"),
        "goe_search.me_checks": len(mes),
        "goe_search.me_over_budget": sum(1 for i in mes if i and i.get("raised") == "BudgetExceededError"),
        "goe_search.me_useful_ratio": _ratio(sum(1 for i in mes if i and i.get("useful")), len(mes)),
        "groups.mul_calls": counts.get("groups.mul_calls", 0),
        "suite.run_s": busy(spans, lambda n: layer_of(n) == "suite"),
        "linear_ca.s": busy(spans, lambda n: layer_of(n) == "linear_ca"),
        "freegroup_lab.s": busy(spans, lambda n: layer_of(n) == "freegroup_lab"),
        "trace.spans": len(spans),
    }


def load_goelab_modules() -> Dict[str, object]:
    return {
        name: module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "goelab" or name.startswith("goelab."))
    }
