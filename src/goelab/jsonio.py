"""Versioned JSON forms for rules and subshifts (the CLI wire formats).

Rule files:
    {"group": {"type": "Zd", "d": 1},
     "input_alphabet": ["0", "1"],
     "output_alphabet": ["0", "1"],
     "memory_set": [[-1], [0], [1]],
     "table": {"000": "0", ...}}        # keys in canonical support order
or  {"wolfram": 102}

Table keys join the window's symbol names when every input symbol is a
single character, and use comma-separated names otherwise.

Subshift files:
    {"kind": "sft", "group": ..., "alphabet": [...], "forbidden": [pattern...]}
    {"kind": "sofic", "alphabet": [...], "vertices": n, "edges": [[u, v, "sym"]...]}
or  {"builtin": "golden_mean" | "even_shift" | "hard_ball:d" | "ledrappier"
               | "full_shift:a"}
"""

from __future__ import annotations

from typing import List

from .automaton import CellularAutomaton, wolfram_rule
from .groups import Zd, group_from_json, element_from_json, element_to_json
from .patterns import Alphabet, pattern_from_json, pattern_to_json
from .subshift import (
    SFTPresentation,
    SoficPresentation1D,
    even_shift,
    full_shift,
    golden_mean,
    hard_ball,
    ledrappier,
    sofic_from_json,
    sofic_to_json,
)

SCHEMA_VERSION = "1"

_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def _expect(value, kind, what: str):
    """``value`` if it has the JSON type ``kind`` (a type or a tuple of
    them), else a ValueError naming ``what``."""
    if not isinstance(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        wanted = " or ".join(_JSON_KINDS[k] for k in kinds)
        raise ValueError(f"{what} must be {wanted}, not {type(value).__name__}")
    return value


def _field(obj: dict, key: str, kind, what: str):
    if key not in obj:
        raise ValueError(f"{what} has no {key!r} field")
    return _expect(obj[key], kind, f"{what} field {key!r}")


def _alphabet(obj: dict, key: str, what: str) -> Alphabet:
    names = _field(obj, key, list, what)
    for name in names:
        _expect(name, str, f"a symbol of {what} field {key!r}")
    return Alphabet(tuple(names))


def _group(obj: dict, what: str):
    desc = _field(obj, "group", dict, what)
    size = {"Zd": "d", "Free": "rank"}.get(desc.get("type"))
    if size is not None:
        _field(desc, size, int, f"{what} group")
    if desc.get("names") is not None:
        _field(desc, "names", list, f"{what} group")
    return group_from_json(desc)


def _elements(obj: dict, key: str, group, what: str) -> list:
    return [
        element_from_json(group, _expect(g, (list, str), f"an element of {what} field {key!r}"))
        for g in _field(obj, key, list, what)
    ]


def _window_key(alphabet: Alphabet, values) -> str:
    names = [alphabet.symbols[v] for v in values]
    if all(len(s) == 1 for s in alphabet.symbols):
        return "".join(names)
    return ",".join(names)


def _parse_window_key(alphabet: Alphabet, key: str, width: int) -> List[int]:
    if "," in key:
        names = key.split(",")
    elif all(len(s) == 1 for s in alphabet.symbols):
        names = list(key)
    else:
        raise ValueError(f"ambiguous table key {key!r}")
    if len(names) != width:
        raise ValueError(f"table key {key!r} has wrong width (want {width})")
    return [alphabet.index(s) for s in names]


def rule_to_json(ca: CellularAutomaton) -> dict:
    from .patterns import index_to_values

    a = len(ca.input_alphabet)
    width = len(ca.memory_set)
    table = {}
    for k, out in enumerate(ca.table):
        key = _window_key(ca.input_alphabet, index_to_values(a, width, k))
        table[key] = ca.output_alphabet.symbols[out]
    return {
        "schema": SCHEMA_VERSION,
        "group": ca.group.descriptor_json(),
        "input_alphabet": list(ca.input_alphabet.symbols),
        "output_alphabet": list(ca.output_alphabet.symbols),
        "memory_set": [element_to_json(ca.group, g) for g in ca.memory_set],
        "table": table,
    }


def rule_from_json(obj: dict) -> CellularAutomaton:
    _expect(obj, dict, "a rule")
    if "wolfram" in obj:
        return wolfram_rule(int(_field(obj, "wolfram", (int, str), "the rule")))
    group = _group(obj, "the rule")
    input_alphabet = _alphabet(obj, "input_alphabet", "the rule")
    output_alphabet = (
        _alphabet(obj, "output_alphabet", "the rule") if "output_alphabet" in obj else input_alphabet
    )
    memory = group.canon(_elements(obj, "memory_set", group, "the rule"))
    a = len(input_alphabet)
    width = len(memory)
    expected = a**width
    entries = _field(obj, "table", dict, "the rule")
    if len(entries) != expected:
        raise ValueError(
            f"table has {len(entries)} entries; need {expected} "
            f"({a} symbols on {width} cells)"
        )
    from .patterns import values_to_index

    table = [None] * expected
    for key, out in entries.items():
        _expect(out, str, f"the rule's table entry {key!r}")
        idx = values_to_index(a, _parse_window_key(input_alphabet, key, width))
        if table[idx] is not None:
            raise ValueError(f"duplicate table key {key!r}")
        table[idx] = output_alphabet.index(out)
    return CellularAutomaton(group, input_alphabet, output_alphabet, memory, tuple(table))


BUILTIN_SUBSHIFTS = ("golden_mean", "even_shift", "ledrappier")


def subshift_from_json(obj) -> object:
    if isinstance(obj, str):
        obj = {"builtin": obj}
    _expect(obj, dict, "a subshift")
    if "builtin" in obj:
        name = _field(obj, "builtin", str, "the subshift")
        if name == "golden_mean":
            return golden_mean()
        if name == "even_shift":
            return even_shift()
        if name == "ledrappier":
            return ledrappier()
        if name.startswith("hard_ball:"):
            return hard_ball(int(name.split(":", 1)[1]))
        if name.startswith("full_shift:"):
            return full_shift(Alphabet.of_size(int(name.split(":", 1)[1])))
        raise ValueError(f"unknown builtin subshift {name!r}")
    kind = obj.get("kind", "sofic" if "edges" in obj else "sft")
    what = f"the {kind} subshift"
    alphabet = _alphabet(obj, "alphabet", what)
    if kind == "sofic":
        _field(obj, "vertices", int, what)
        for edge in _field(obj, "edges", list, what):
            if [type(x) for x in _expect(edge, list, f"an edge of {what}")] != [int, int, str]:
                raise ValueError(f"an edge of {what} must be [source, target, symbol], not {edge!r}")
        return sofic_from_json(obj)
    group = _group(obj, what) if "group" in obj else Zd(1)
    forbidden = []
    for item in _field(obj, "forbidden", list, what):
        _expect(item, dict, f"a forbidden pattern of {what}")
        if "word" in item:
            _field(item, "word", str, "a forbidden pattern")
            if "offset" in item:
                _field(item, "offset", int, "a forbidden pattern")
        else:
            _elements(item, "support", group, "a forbidden pattern")
            _field(item, "values", list, "a forbidden pattern")
        forbidden.append(pattern_from_json(group, alphabet, item))
    return SFTPresentation(group, alphabet, tuple(forbidden))


def subshift_to_json(X) -> dict:
    if isinstance(X, SoficPresentation1D):
        out = sofic_to_json(X)
        out["kind"] = "sofic"
        out["schema"] = SCHEMA_VERSION
        return out
    if isinstance(X, SFTPresentation):
        return {
            "schema": SCHEMA_VERSION,
            "kind": "sft",
            "group": X.group.descriptor_json(),
            "alphabet": list(X.alphabet.symbols),
            "forbidden": [pattern_to_json(X.group, X.alphabet, p) for p in X.forbidden],
        }
    raise TypeError(f"not a subshift presentation: {X!r}")
