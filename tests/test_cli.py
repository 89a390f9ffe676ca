import contextlib
import hashlib
import io
import json
import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import goelab.entropy as en
import goelab.goe_search as gs
import goelab.suite as suite_mod
from goelab.cli import build_parser, main
from goelab.goe_search import SearchBudget
from goelab.jsonio import rule_to_json
from test_goe_search import Z2_SHAPES, z2_rule


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def unreachable(*args):
    raise AssertionError("an input error is reported before any work")


def write_rule(tmp_path, capsys, number):
    path = tmp_path / f"rule{number}.json"
    code, out, _ = run_cli(capsys, ["wolfram", str(number), "--out", str(path)])
    assert code == 0
    return path


def test_wolfram_emits_rule_json(tmp_path, capsys):
    path = write_rule(tmp_path, capsys, 102)
    obj = json.loads(path.read_text())
    assert obj["memory_set"] == [[-1], [0], [1]]
    assert obj["table"]["001"] == "1"
    assert obj["table"]["000"] == "0"


def test_analyze_rule_232(tmp_path, capsys):
    path = write_rule(tmp_path, capsys, 232)
    code, out, err = run_cli(capsys, ["analyze", "--rule", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["provenance"] == "decided"
    assert report["verdicts"]["surjective"]["answer"] is False
    assert report["verdicts"]["surjective"]["witness"]["word"] == "01001"
    assert report["verdicts"]["pre_injective"]["answer"] is False
    assert report["verdicts"]["injective"]["answer"] is False
    assert "timings" not in report
    assert "surjective=False" in err


def test_analyze_with_domain_and_codomain(tmp_path, capsys):
    rule = {
        "group": {"type": "Zd", "d": 1},
        "input_alphabet": ["0", "1"],
        "output_alphabet": ["0", "1"],
        "memory_set": [[0], [1]],
        "table": {"00": "1", "01": "0", "10": "0", "11": "1"},
    }
    path = tmp_path / "golden_even.json"
    path.write_text(json.dumps(rule))
    code, out, _ = run_cli(
        capsys,
        [
            "decide1d", "surjective",
            "--rule", str(path),
            "--domain", "golden_mean",
            "--codomain", "even_shift",
        ],
    )
    assert code == 0
    assert json.loads(out)["answer"] is True


def test_decide1d_verbs(tmp_path, capsys):
    path = write_rule(tmp_path, capsys, 102)
    for prop, want in [("surjective", True), ("preinjective", True), ("injective", False)]:
        code, out, _ = run_cli(capsys, ["decide1d", prop, "--rule", str(path)])
        assert code == 0
        assert json.loads(out)["answer"] is want


def test_goe_and_me_search_verbs(tmp_path, capsys):
    path = write_rule(tmp_path, capsys, 232)
    code, out, _ = run_cli(capsys, ["goe", "search", "--rule", str(path)])
    assert code == 0
    assert json.loads(out)["found"]["values"] is not None
    code, out, _ = run_cli(capsys, ["me", "search", "--rule", str(path)])
    assert code == 0
    found = json.loads(out)["found"]
    assert [v for v in found[0]["values"]] == ["0", "0", "0", "0", "0"]

    surjective_rule = write_rule(tmp_path, capsys, 102)
    code, out, _ = run_cli(
        capsys, ["goe", "search", "--rule", str(surjective_rule), "--max-cells", "6"]
    )
    assert code == 2  # honest unknown
    assert json.loads(out)["found"] is None


@pytest.mark.parametrize("verb", [["analyze"], ["goe", "search"], ["me", "search"]])
def test_search_budget_defaults_are_the_library_defaults(verb):
    args = build_parser().parse_args(verb + ["--rule", "rule.json"])
    defaults = SearchBudget()
    assert (args.max_cells, args.max_candidates) == (
        defaults.max_window_cells,
        defaults.max_candidates,
    )


def test_entropy_builtin_json(capsys):
    code, out, _ = run_cli(
        capsys, ["entropy", "--subshift", "golden_mean", "--method", "both", "--n", "6"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["perron"]["nats"] == pytest.approx(0.4812118250596, abs=1e-9)
    assert report["count"]["rows"][0]["count"] == 3  # words of length 2 at n=1


def test_entropy_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["entropy", "--subshift", "even_shift", "--method", "count", "--n", "3",
         "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,count,cells,nats,bits"
    assert len(lines) == 4


def test_entropy_csv_with_only_the_perron_method_is_an_input_error(capsys, monkeypatch):
    # csv rows are window counts, so the Perron value would be lost
    monkeypatch.setattr(en, "perron_entropy", unreachable)
    code, out, err = run_cli(
        capsys,
        ["entropy", "--subshift", "golden_mean", "--method", "perron", "--format", "csv"],
    )
    assert (code, out) == (1, "")
    assert err == "error: --format csv prints window counts only; use --method count\n"


@pytest.mark.parametrize("method", (["--method", "both"], []))
def test_entropy_csv_with_the_perron_method_among_others_is_an_input_error(
    capsys, monkeypatch, method
):
    # "both" is the default method; csv would drop its Perron value
    monkeypatch.setattr(en, "perron_entropy", unreachable)
    monkeypatch.setattr(en, "pattern_count_entropy", unreachable)
    code, out, err = run_cli(
        capsys, ["entropy", "--subshift", "golden_mean", *method, "--n", "2", "--format", "csv"]
    )
    assert (code, out) == (1, "")
    assert err == "error: --format csv prints window counts only; use --method count\n"


def test_entropy_subshift_naming_a_cell_twice_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "sft.json"
    forbidden = [{"support": [[0], [0]], "values": ["0", "1"]}]
    path.write_text(json.dumps({"kind": "sft", "alphabet": ["0", "1"], "forbidden": forbidden}))
    code, out, err = run_cli(capsys, ["entropy", "--subshift", str(path)])
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "names the cell [0] twice" in err


def test_n0_verb(capsys):
    code, out, _ = run_cli(capsys, ["n0", "--a", "2", "--k", "2", "--d", "1", "--r", "1"])
    assert code == 0
    assert json.loads(out)["n0"] == 5


def test_linear_duality_verb(tmp_path, capsys):
    matrix = {
        "p": 2,
        "d": 1,
        "group": {"type": "Zd", "d": 1},
        "entries": [[{"coeffs": [{"g": [0], "c": 1}, {"g": [1], "c": 1}]}]],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix))
    code, out, _ = run_cli(capsys, ["linear", "duality", "--matrix", str(path)])
    assert code == 0
    report = json.loads(out)["duality"]
    assert report["duality_holds"] is True
    code, out, _ = run_cli(
        capsys, ["linear", "kernel", "--matrix", str(path), "--radius", "4"]
    )
    assert code == 0
    assert json.loads(out)["kernel"]["dimension"] == 0


def test_freegroup_verbs(capsys):
    code, out, _ = run_cli(capsys, ["freegroup", "ex1", "--radius", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["provenance"] == "certified-to-radius"
    assert report["diamond"]["images_equal_globally"] is True
    code, out, _ = run_cli(capsys, ["freegroup", "ex2", "--radius", "2"])
    assert code == 0
    assert json.loads(out)["report"]["kernel_dimension"] == 0


def test_suite_filter(capsys):
    code, out, err = run_cli(capsys, ["paper-suite", "--filter", "entropy"])
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"]
    assert all("entropy" in row["name"] for row in report["rows"])
    assert "[pass]" in err


def test_suite_fault_injection_names_the_claim(capsys, monkeypatch):
    target = suite_mod.ROWS[0]
    broken = suite_mod.Row(target.name, target.claim, lambda: False)
    monkeypatch.setattr(suite_mod, "ROWS", [broken] + suite_mod.ROWS[1:])
    code, out, err = run_cli(capsys, ["paper-suite", "--filter", target.name])
    assert code == 1
    report = json.loads(out)
    assert report["rows"][0]["pass"] is False
    assert report["rows"][0]["claim"] == target.claim
    assert f"[FAIL] {target.name}" in err


def test_malformed_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, ["analyze", "--rule", str(path)])
    assert code == 1
    assert "line" in err


def test_inconsistent_table_is_an_input_error(tmp_path, capsys):
    rule = {
        "group": {"type": "Zd", "d": 1},
        "input_alphabet": ["0", "1"],
        "output_alphabet": ["0", "1"],
        "memory_set": [[0], [1]],
        "table": {"00": "1"},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rule))
    code, _, err = run_cli(capsys, ["analyze", "--rule", str(path)])
    assert code == 1
    assert "table" in err


GOLDEN_EVEN_RULE = {
    "group": {"type": "Zd", "d": 1},
    "input_alphabet": ["0", "1"],
    "memory_set": [[0], [1]],
    "table": {"00": "1", "01": "0", "10": "0", "11": "1"},
}


@pytest.mark.parametrize(
    "rule, message",
    [
        ([1, 2], "a rule must be an object, not list"),
        ({k: v for k, v in GOLDEN_EVEN_RULE.items() if k != "table"}, "no 'table' field"),
        ({**GOLDEN_EVEN_RULE, "input_alphabet": 2}, "'input_alphabet' must be an array"),
        ({**GOLDEN_EVEN_RULE, "input_alphabet": [0, 1]}, "must be a string"),
        ({**GOLDEN_EVEN_RULE, "group": "Zd"}, "'group' must be an object"),
        ({**GOLDEN_EVEN_RULE, "group": {"type": "Zd"}}, "no 'd' field"),
        ({**GOLDEN_EVEN_RULE, "memory_set": [0, 1]}, "element of the rule field 'memory_set'"),
        ({**GOLDEN_EVEN_RULE, "table": [["00", "1"]]}, "'table' must be an object"),
        ({"wolfram": [30]}, "'wolfram' must be an integer"),
        ({**GOLDEN_EVEN_RULE, "memory_set": [[None], [1]]}, "(None,) is not an element of Zd(1)"),
        ({"wolfram": "30"}, "'wolfram' must be an integer, not str"),
        ({"wolfram": " 30 "}, "'wolfram' must be an integer, not str"),
        ({**GOLDEN_EVEN_RULE, "memory_set": [[0, 0], [1]]}, "(0, 0) is not an element of Zd(1)"),
        (
            {**GOLDEN_EVEN_RULE, "group": {"type": "Free", "rank": 2}, "memory_set": ["", "aA"]},
            "word 'aA' is not reduced",
        ),
    ],
)
def test_malformed_rule_json_is_an_input_error(tmp_path, capsys, rule, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rule))
    code, out, err = run_cli(capsys, ["analyze", "--rule", str(path)])
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "domain, message",
    [
        ([], "a subshift must be an object, not list"),
        ({"kind": "sofic", "alphabet": "01", "vertices": 1, "edges": []}, "'alphabet' must be an array"),
        ({"alphabet": ["0", "1"], "vertices": 1, "edges": [[0, 0]]}, "[source, target, symbol]"),
        ({"kind": "sft", "alphabet": ["0", "1"]}, "no 'forbidden' field"),
        ({"kind": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]}, "forbidden pattern"),
        (
            {"kind": "sft", "alphabet": ["0", "1"], "forbidden": [{"word": "11", "offset": []}]},
            "'offset' must be an integer",
        ),
        ({"builtin": "hard_ball: 2"}, "must end in a plain decimal number"),
        ({"builtin": "full_shift:+2"}, "must end in a plain decimal number"),
        ({"builtin": "hard_ball:2_0"}, "must end in a plain decimal number"),
        ({"builtin": "full_shift:\u0662"}, "must end in a plain decimal number"),
        ({"builtin": "hard_ball:"}, "must end in a plain decimal number"),
        ({"builtin": "full_shift:2000000"}, "over the limit of 256"),
        ({"builtin": "hard_ball:1500"}, "over the limit of 256"),
        ({"builtin": "hard_ball:257"}, "over the limit of 256"),
        ({"builtin": "full_shift:" + "9" * 5000}, "over the limit of 256"),
        (
            {"kind": "sft", "alphabet": ["0", "1"], "forbidden": [{"support": [[0, 0]], "values": ["1"]}]},
            "(0, 0) is not an element of Zd(1)",
        ),
    ],
)
def test_malformed_domain_json_is_an_input_error(tmp_path, capsys, domain, message):
    rule = tmp_path / "rule.json"
    rule.write_text(json.dumps(GOLDEN_EVEN_RULE))
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(domain))
    code, out, err = run_cli(capsys, ["analyze", "--rule", str(rule), "--domain", str(path)])
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "matrix, message",
    [
        ({}, "the matrix has no 'p' field"),
        ({"p": 3}, "the matrix has no 'd' field"),
        ([1, 2], "a matrix must be an object, not list"),
        (None, "a matrix must be an object, not NoneType"),
        ({"p": None}, "'p' must be an integer"),
        ({"group": []}, "'group' must be an object"),
        ({"p": 3, "d": 2, "entries": [[{}]]}, "d x d matrix"),
        ({"p": 3, "d": 1, "entries": [[{"coeffs": [{"g": [None], "c": 1}]}]]}, "not an element"),
        ({"p": 3, "d": 1, "entries": [[{"coeffs": [{"g": [0], "c": "1"}]}]]}, "'c' must be an integer"),
        ({"p": 3, "d": 1, "entries": [[{"coeffs": [{"g": [0, 1], "c": 1}]}]]}, "not an element"),
    ],
)
def test_malformed_matrix_json_is_an_input_error(tmp_path, capsys, matrix, message):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix))
    code, out, err = run_cli(capsys, ["linear", "kernel", "--matrix", str(path)])
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and message in err


def test_filtered_suite_is_byte_stable(capsys):
    _, out1, _ = run_cli(capsys, ["paper-suite", "--filter", "patterns"])
    _, out2, _ = run_cli(capsys, ["paper-suite", "--filter", "patterns"])
    assert out1 == out2


def test_analyze_z2_rule_reports_window_search(tmp_path, capsys):
    # the two-neighbor XOR on Z^2: the window search stays unknown (exit 2)
    keys = ["000", "001", "010", "011", "100", "101", "110", "111"]
    rule = {
        "group": {"type": "Zd", "d": 2},
        "input_alphabet": ["0", "1"],
        "output_alphabet": ["0", "1"],
        "memory_set": [[0, 0], [0, 1], [1, 0]],
        "table": {k: str(k.count("1") % 2) for k in keys},
    }
    path = tmp_path / "xor2d.json"
    path.write_text(json.dumps(rule))
    code, out, _ = run_cli(
        capsys,
        ["analyze", "--rule", str(path), "--max-cells", "6", "--max-candidates", "4096"],
    )
    report = json.loads(out)
    assert report["verdicts"]["window_search"]["status"] == "unknown"
    assert report["provenance"] == "unknown"
    assert code == 2


def write_z2_rule(tmp_path, cells, kind):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(rule_to_json(z2_rule(random.Random(0), cells, kind))))
    return path


@pytest.mark.parametrize(
    "options",
    [["--domain", "golden_mean"], ["--codomain", "not_a_builtin"],
     ["--domain", "golden_mean", "--codomain", "not_a_builtin"]],
)
def test_analyze_refuses_subshifts_for_a_z2_rule(tmp_path, capsys, monkeypatch, options):
    # the window search runs on the full shift; a subshift must not be dropped silently
    monkeypatch.setattr(gs, "semi_decide", unreachable)
    path = write_z2_rule(tmp_path, 3, "permutive")
    code, out, err = run_cli(capsys, ["analyze", "--rule", str(path)] + options)
    assert (code, out) == (1, "")
    assert err == "error: --domain and --codomain apply to rules over Z only\n"


# Whole reports of the three search verbs on one Z^2 rule per memory set of
# Z2_SHAPES (permutive, biased, random tables), at the default budget and at
# a small one: (exit code, stderr, sha256 of stdout).
SEARCH_VERBS = {"goe": ["goe", "search"], "me": ["me", "search"], "analyze": ["analyze"]}
SEARCH_BUDGETS = {"default": [], "small": ["--max-cells", "6", "--max-candidates", "4096"]}
PINNED_SEARCH_REPORTS = {
    ("goe", 3, "default"): (2, "no GOE pattern within budget (unknown)\n", "9bad40c1f127658d60b4520b09e17a186e552059861fe4092791e9b81a63edf9"),
    ("goe", 3, "small"): (2, "no GOE pattern within budget (unknown)\n", "ca6d32086e760b8e5edf6bb5aa8c5b0d35a114725fb1ee08eb541baea80227ab"),
    ("goe", 4, "default"): (0, "GOE pattern on 2 cells\n", "d3828eaf96c9605e3c54cd24ff52ade837cb369f635f32eca3dd958c1ca05e57"),
    ("goe", 4, "small"): (0, "GOE pattern on 2 cells\n", "d3828eaf96c9605e3c54cd24ff52ade837cb369f635f32eca3dd958c1ca05e57"),
    ("goe", 5, "default"): (2, "no GOE pattern within budget (unknown)\n", "606522c2c4a1bea02fc668037972af30b3e261ac1266463b5a98ce469a4e37a0"),
    ("goe", 5, "small"): (2, "no GOE pattern within budget (unknown)\n", "29fc4b14d015a5a39b7c72853ab319ba1d4e4d6eb6ad2340cbc4e72e4d1bfc14"),
    ("me", 3, "default"): (2, "no mutually erasable pair within budget (unknown)\n", "db3a7f923fe8fa6ffb723aa029e38f8bf6e083657729d6479d637c63adb7ada0"),
    ("me", 3, "small"): (2, "no mutually erasable pair within budget (unknown)\n", "db3a7f923fe8fa6ffb723aa029e38f8bf6e083657729d6479d637c63adb7ada0"),
    ("me", 4, "default"): (0, "mutually erasable pair found\n", "544cdc3d993b6f22a87a2f85814f432074d98f186eedf70260475901019fc926"),
    ("me", 4, "small"): (2, "no mutually erasable pair within budget (unknown)\n", "c23a8e77756bf119cb2ecaa51f14f0976242008ab2257c0e7b6fcee2e2f809df"),
    ("me", 5, "default"): (2, "no mutually erasable pair within budget (unknown)\n", "67422afed8c0af3e5e45c19238aaa2666decb1b02c18ee521c5542496b541554"),
    ("me", 5, "small"): (2, "no mutually erasable pair within budget (unknown)\n", "67422afed8c0af3e5e45c19238aaa2666decb1b02c18ee521c5542496b541554"),
    ("analyze", 3, "default"): (2, "window search: unknown\n", "968976ded0bd4b9ec98134b7a283667119c1386467cfc4f8ea3fa7ab46920c8f"),
    ("analyze", 3, "small"): (2, "window search: unknown\n", "241ec998ec9ce267d7aac6c293c5b5955a1089bcd28d53a46c34ede95f22cdf8"),
    ("analyze", 4, "default"): (0, "window search: not_surjective\n", "56ff26c09788a83d0ec6fbfc2668872a9022cf5047aa542f22637c3f5bd14ca8"),
    ("analyze", 4, "small"): (0, "window search: not_surjective\n", "272f510a99abda9c881ec6479fcc185704aba785ad4f5a8717ddcb7530052854"),
    ("analyze", 5, "default"): (2, "window search: unknown\n", "0f6a65a0690e65345573e1db55af4acef8ae4f7cddfd6b0f0ffb492f7cf5faf3"),
    ("analyze", 5, "small"): (2, "window search: unknown\n", "fd8c5b314916e6eeb0c2f31ed933575bb9ded5992babac09279ad039c6255ddf"),
}


@pytest.mark.parametrize("budget", SEARCH_BUDGETS)
@pytest.mark.parametrize("cells, kind", zip(Z2_SHAPES, ("permutive", "biased", "random")))
@pytest.mark.parametrize("verb", SEARCH_VERBS)
def test_search_verb_reports_are_pinned(tmp_path, capsys, verb, cells, kind, budget):
    path = write_z2_rule(tmp_path, cells, kind)
    argv = SEARCH_VERBS[verb] + ["--rule", str(path)] + SEARCH_BUDGETS[budget]
    code, out, err = run_cli(capsys, argv)
    got = (code, err, hashlib.sha256(out.encode()).hexdigest())
    assert got == PINNED_SEARCH_REPORTS[verb, cells, budget]


def test_free_group_rule_file_round_trip():
    from goelab.freegroup_lab import muller_moore_ca
    from goelab.jsonio import rule_from_json, rule_to_json

    ca = muller_moore_ca()
    obj = rule_to_json(ca)
    assert obj["group"] == {"type": "Free", "rank": 2, "names": ["a", "b"]}
    assert obj["memory_set"] == ["", "a", "A", "b", "B"]
    back = rule_from_json(obj)
    assert back == ca


# JSON made from the keys and names the input formats use, mixed with
# arbitrary text; integers stay small so that a well-formed input finishes fast
FUZZ_WORDS = st.sampled_from(
    [
        "p", "d", "entries", "coeffs", "g", "c", "group", "type", "rank", "names", "Zd", "Free",
        "wolfram", "table", "memory_set", "input_alphabet", "output_alphabet", "builtin", "kind",
        "sft", "sofic", "alphabet", "forbidden", "support", "values", "word", "offset",
        "vertices", "edges", "0", "1", "01", "golden_mean", "even_shift", "ledrappier",
        "hard_ball:2",
    ]
) | st.text(max_size=3)
FUZZ_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(-2, 6) | FUZZ_WORDS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(FUZZ_WORDS, inner, max_size=5),
    max_leaves=24,
)


@settings(max_examples=150, deadline=None)
@given(FUZZ_JSON)
def test_any_json_input_ends_in_an_exit_code(value):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(value, fh)
        for argv in (
            ["linear", "kernel", "--matrix", path],
            ["analyze", "--rule", path],
            ["decide1d", "surjective", "--rule", path],
            ["entropy", "--subshift", path],
        ):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2)
