"""The schema-1 codecs: strict parsing, and the module boundary that keeps
the wire format in one place."""

import ast
import pathlib

import pytest

from goelab.groups import Zd
from goelab.jsonio import (
    element_from_json,
    group_from_json,
    matrix_from_json,
    pattern_from_json,
    sofic_from_json,
)
from goelab.patterns import BINARY

EVEN = {"alphabet": ["0", "1"], "vertices": 2, "edges": [[0, 0, "1"], [0, 1, "0"], [1, 0, "0"]]}


@pytest.mark.parametrize(
    "parse",
    [
        lambda: group_from_json({"type": "Zd", "d": 2.7}),
        lambda: group_from_json({"type": "Zd", "d": "3"}),
        lambda: group_from_json({"type": "Free", "rank": 2, "names": [1, 2]}),
        lambda: sofic_from_json({**EVEN, "vertices": "2"}),
        lambda: sofic_from_json({**EVEN, "edges": [["0", 1, "1"]]}),
        lambda: sofic_from_json({**EVEN, "edges": [[0, 1.9, "1"]]}),
        lambda: sofic_from_json({"alphabet": ["0", "1"], "vertices": 2}),
        lambda: pattern_from_json(Zd(1), BINARY, {"word": "01", "offset": "3"}),
        lambda: pattern_from_json(Zd(1), BINARY, {"word": "01", "offset": 2.5}),
        lambda: pattern_from_json(Zd(1), BINARY, {"support": [[0], [1]], "values": ["1"]}),
        lambda: group_from_json({"type": "Zd", "d": True}),
        lambda: element_from_json(Zd(2), [0, False]),
        lambda: matrix_from_json({"p": 2, "d": 1, "entries": [[{"coeffs": [{"g": [0], "c": True}]}]]}),
        lambda: pattern_from_json(Zd(1), BINARY, {"support": [[0], [0]], "values": ["0", "1"]}),
    ],
)
def test_library_parsers_reject_what_they_would_coerce(parse):
    with pytest.raises(ValueError):
        parse()


SRC = pathlib.Path(__file__).parent.parent / "src" / "goelab"


def test_only_jsonio_knows_the_wire_format():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "jsonio.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        codecs = [
            node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.endswith("_json")
        ]
        assert not codecs, f"{path.name} defines {codecs}"
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                assert node.name != "descriptor_json", f"{path.name} defines descriptor_json"
                continue
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any("jsonio" in name.split(".") for name in names):
                assert path.name == "cli.py", f"{path.name} imports jsonio"
