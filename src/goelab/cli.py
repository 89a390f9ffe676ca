"""Command-line front end.

JSON reports go to stdout, a short human-readable summary to stderr.
Exit codes: 0 success, 1 input error, 2 analysis ended in an explicit
budget-limited unknown.  All randomness sits behind --seed, reports carry
no timings unless asked, and the suite report is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from typing import Optional

from . import __version__
from . import automaton as am
from . import decide1d as d1
from . import entropy as en
from . import freegroup_lab as fg
from . import goe_search as gs
from . import linear_ca as lc
from . import suite as suite_mod
from .errors import BudgetExceededError
from .groups import Zd
from .jsonio import (
    SCHEMA_VERSION,
    matrix_from_json,
    rule_from_json,
    rule_to_json,
    subshift_from_json,
    witness_to_json,
)


def _write(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(obj: dict, out_path: Optional[str]) -> None:
    _write(json.dumps(obj, indent=2, sort_keys=True) + "\n", out_path)


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _read_input(path: str):
    if path == "-":
        data = sys.stdin.read()
    else:
        with open(path) as fh:
            data = fh.read()
    digest = hashlib.sha256(data.encode()).hexdigest()
    try:
        return json.loads(data), digest
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}")


def _search_budget(args) -> gs.SearchBudget:
    return gs.SearchBudget(max_window_cells=args.max_cells, max_candidates=args.max_candidates)


def _load_rule(args):
    obj, digest = _read_input(args.rule)
    return rule_from_json(obj), digest


def _load_subshift(source: Optional[str]):
    if source is None:
        return None, None
    if source.endswith(".json") or source == "-" or os.path.exists(source):
        obj, digest = _read_input(source)
        return subshift_from_json(obj), digest
    return subshift_from_json(source), None  # builtin name


# -- subcommands ---------------------------------------------------------------


def cmd_wolfram(args) -> int:
    ca = am.wolfram_rule(args.number)
    _emit(rule_to_json(ca), args.out)
    _say(f"Rule {args.number}: elementary automaton on {{-1,0,1}}")
    return 0


def cmd_analyze(args) -> int:
    ca, digest = _load_rule(args)
    report = {
        "schema": SCHEMA_VERSION,
        "tool_version": __version__,
        "inputs": {"rule_sha256": digest},
    }
    if args.timings:
        t0 = time.monotonic()
    if not isinstance(ca.group, Zd):
        raise ValueError(
            "analyze decides Z^d rules; use the freegroup/linear verbs for F_k"
        )
    exit_code = 0
    if ca.group.d == 1:
        domain, _ = _load_subshift(args.domain)
        codomain, _ = _load_subshift(args.codomain)
        surjective = d1.decide_surjective(ca, domain, codomain)
        preinjective = d1.decide_preinjective(ca, domain)
        injective = d1.decide_injective(ca, domain)
        entropy_report = en.image_entropy_check(ca, domain, range(1, 9))
        report["provenance"] = "decided"
        report["verdicts"] = {
            "surjective": surjective.to_json(),
            "pre_injective": preinjective.to_json(),
            "injective": injective.to_json(),
        }
        report["image_entropy"] = entropy_report.to_json()
        summary = (
            f"surjective={surjective.answer} pre-injective={preinjective.answer} "
            f"injective={injective.answer}"
        )
    else:
        if args.domain is not None or args.codomain is not None:
            raise ValueError("--domain and --codomain apply to rules over Z only")
        verdict = gs.semi_decide(ca, _search_budget(args))
        payload = verdict.to_json()
        if verdict.witness is not None:
            payload["witness"] = witness_to_json(ca, verdict.witness)
        report["provenance"] = "decided" if verdict.status != "unknown" else "unknown"
        report["verdicts"] = {"window_search": payload}
        summary = f"window search: {verdict.status}"
        if verdict.status == "unknown":
            exit_code = 2
    if args.timings:
        report["timings"] = {"analyze_seconds": round(time.monotonic() - t0, 3)}
    _emit(report, args.out)
    _say(summary)
    return exit_code


def cmd_decide1d(args) -> int:
    ca, digest = _load_rule(args)
    domain, _ = _load_subshift(args.domain)
    codomain, _ = _load_subshift(args.codomain)
    if args.property == "surjective":
        verdict = d1.decide_surjective(ca, domain, codomain)
    elif args.property == "preinjective":
        verdict = d1.decide_preinjective(ca, domain)
    else:
        verdict = d1.decide_injective(ca, domain)
    out = verdict.to_json()
    out["schema"] = SCHEMA_VERSION
    out["inputs"] = {"rule_sha256": digest}
    _emit(out, args.out)
    _say(f"{args.property}: {verdict.answer}")
    return 0


def cmd_goe(args) -> int:
    ca, digest = _load_rule(args)
    outcome = gs.find_goe_pattern(ca, _search_budget(args))
    report = {
        "schema": SCHEMA_VERSION,
        "inputs": {"rule_sha256": digest},
        "windows_scanned": outcome.windows_scanned,
        "skipped_windows": outcome.skipped_windows,
        "found": witness_to_json(ca, outcome.found),
    }
    _emit(report, args.out)
    if outcome.found is None:
        _say("no GOE pattern within budget (unknown)")
        return 2
    _say(f"GOE pattern on {len(outcome.found.support)} cells")
    return 0


def cmd_me(args) -> int:
    ca, digest = _load_rule(args)
    outcome = gs.find_me_pair(ca, _search_budget(args))
    report = {
        "schema": SCHEMA_VERSION,
        "inputs": {"rule_sha256": digest},
        "windows_scanned": outcome.windows_scanned,
        "found": witness_to_json(ca, outcome.found),
    }
    _emit(report, args.out)
    if outcome.found is None:
        _say("no mutually erasable pair within budget (unknown)")
        return 2
    _say("mutually erasable pair found")
    return 0


def cmd_entropy(args) -> int:
    if args.format == "csv" and args.method != "count":
        raise ValueError("--format csv prints window counts only; use --method count")
    X, digest = _load_subshift(args.subshift)
    if X is None:
        raise ValueError("--subshift is required")
    report = {"schema": SCHEMA_VERSION}
    if digest:
        report["inputs"] = {"subshift_sha256": digest}
    if args.method in ("count", "both"):
        series = en.pattern_count_entropy(X, range(1, args.n + 1))
        report["count"] = series.to_json()
    if args.method in ("perron", "both"):
        value = en.perron_entropy(X)
        report["perron"] = {"nats": value, "bits": value / math.log(2)}
    if args.format == "csv":
        lines = ["n,count,cells,nats,bits"]
        for row in report["count"]["rows"]:
            lines.append(
                f"{row['n']},{row['count']},{row['cells']},{row['nats']},{row['bits']}"
            )
        _write("\n".join(lines) + "\n", args.out)
    else:
        _emit(report, args.out)
    _say(f"entropy report ({args.method})")
    return 0


def cmd_n0(args) -> int:
    value = gs.n0_bound(args.a, args.k, args.d, args.r)
    _emit(
        {
            "schema": SCHEMA_VERSION,
            "a": args.a,
            "k": args.k,
            "d": args.d,
            "r": args.r,
            "n0": value,
        },
        args.out,
    )
    _say(f"n0({args.a},{args.k},{args.d},{args.r}) = {value}")
    return 0


def cmd_linear(args) -> int:
    obj, digest = _read_input(args.matrix)
    M = matrix_from_json(obj)
    report = {"schema": SCHEMA_VERSION, "inputs": {"matrix_sha256": digest}}
    if args.action == "duality":
        report["duality"] = lc.duality_check(M).to_json()
        _say(f"duality holds: {report['duality']['duality_holds']}")
    else:
        basis = lc.kernel_finite_support(M, args.radius)
        report["kernel"] = {
            "radius": args.radius,
            "dimension": len(basis),
            "provenance": "certified-to-radius",
        }
        _say(f"kernel dimension within radius {args.radius}: {len(basis)}")
    _emit(report, args.out)
    return 0


def cmd_freegroup(args) -> int:
    if args.example == "ex1":
        diamond = fg.verify_ex1_diamond(args.radius)
        preimages = all(
            fg.verify_ex1_preimage(fg.random_ball_pattern(n, seed=args.seed + n)).ok
            for n in range(1, min(args.radius, 4) + 1)
        )
        report = {
            "schema": SCHEMA_VERSION,
            "example": "threshold rule (surjective, not pre-injective)",
            "provenance": "certified-to-radius",
            "diamond": diamond.to_json(),
            "preimages_verify": preimages,
        }
        ok = diamond.ok and preimages
    else:
        ex2 = fg.verify_ex2(args.radius)
        report = {
            "schema": SCHEMA_VERSION,
            "example": "projection rule (pre-injective, not surjective)",
            "provenance": "certified-to-radius",
            "report": ex2.to_json(),
        }
        ok = ex2.ok
    _emit(report, args.out)
    _say(f"{args.example} certificate at radius {args.radius}: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def cmd_suite(args) -> int:
    report = suite_mod.run_suite(args.filter)
    _emit(report, args.out)
    for row in report["rows"]:
        mark = "pass" if row["pass"] else "FAIL"
        _say(f"[{mark}] {row['name']}: {row['claim']}")
    _say(f"{report['passed']}/{report['passed'] + report['failed']} rows pass")
    return 0 if report["all_pass"] else 1


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goelab",
        description="cellular-automata laboratory: exact 1D decisions, window "
        "searches, entropy, linear rules, free-group certificates",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report to this path")

    def budget_options(p):  # read back by _search_budget
        defaults = gs.SearchBudget()
        p.add_argument("--max-cells", type=int, default=defaults.max_window_cells)
        p.add_argument("--max-candidates", type=int, default=defaults.max_candidates)

    p = subs.add_parser("wolfram", help="emit an elementary rule file")
    p.add_argument("number", type=int)
    common(p)
    p.set_defaults(func=cmd_wolfram)

    p = subs.add_parser("analyze", help="full analysis of a rule file")
    p.add_argument("--rule", required=True, help="rule JSON path or - for stdin")
    p.add_argument("--domain", help="subshift JSON path or builtin name")
    p.add_argument("--codomain", help="subshift JSON path or builtin name")
    budget_options(p)
    p.add_argument("--timings", action="store_true", help="include wall-clock timings")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("decide1d", help="one exact decision over Z")
    p.add_argument("property", choices=("surjective", "preinjective", "injective"))
    p.add_argument("--rule", required=True)
    p.add_argument("--domain")
    p.add_argument("--codomain")
    common(p)
    p.set_defaults(func=cmd_decide1d)

    p = subs.add_parser("goe", help="budgeted Garden of Eden pattern search")
    p.add_argument("action", choices=("search",))
    p.add_argument("--rule", required=True)
    budget_options(p)
    common(p)
    p.set_defaults(func=cmd_goe)

    p = subs.add_parser("me", help="budgeted mutually-erasable pair search")
    p.add_argument("action", choices=("search",))
    p.add_argument("--rule", required=True)
    budget_options(p)
    common(p)
    p.set_defaults(func=cmd_me)

    p = subs.add_parser("entropy", help="window counts and Perron entropy")
    p.add_argument("--subshift", required=True, help="JSON path or builtin name")
    p.add_argument("--method", choices=("count", "perron", "both"), default="both")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(func=cmd_entropy)

    p = subs.add_parser("n0", help="the counting-argument window bound")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_n0)

    p = subs.add_parser("linear", help="matrix rules over F_p[G]")
    p.add_argument("action", choices=("duality", "kernel"))
    p.add_argument("--matrix", required=True)
    p.add_argument("--radius", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_linear)

    p = subs.add_parser("freegroup", help="free-group counterexample certificates")
    p.add_argument("example", choices=("ex1", "ex2"))
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_freegroup)

    p = subs.add_parser(
        "paper-suite", help="run the bundled worked-example suite"
    )
    p.add_argument("--filter", help="only rows whose name contains this string")
    common(p)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        _say(f"budget exceeded: {exc}")
        return 2
    except (ValueError, OSError) as exc:
        _say(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
