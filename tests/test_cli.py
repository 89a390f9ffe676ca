import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import goelab.suite as suite_mod
from goelab.cli import build_parser, main
from goelab.goe_search import SearchBudget


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
