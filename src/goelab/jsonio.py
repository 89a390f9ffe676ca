"""Versioned JSON forms (schema 1); no other module reads or writes them.

Every reader validates as it parses and raises ValueError naming the field
at fault.  Counts, coordinates, moduli and coefficients must be JSON
integers, never strings, floats or booleans.

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
               | "full_shift:a"}           # d, a at most BUILTIN_SIZE_LIMIT

A pattern is {"support": [element...], "values": ["sym"...]}, over Z also
{"word": "11", "offset": 0}.

Matrix files, a d x d matrix over F_p[G] with p prime:
    {"group": ..., "p": 2, "d": 1, "entries": [[{"coeffs": [{"g": [0], "c": 1}]}]]}

Groups are {"type": "Zd", "d": 2} or {"type": "Free", "rank": 2, "names":
["a", "b"]} ("names" optional); matrix and subshift files without one are
over Z.  An element of Z^d is an array of d integers; one of a free group is
a reduced word, as a string with capitals as inverses ("aB" is a b^-1) or an
array of nonzero signed generator numbers ([1, -2]).
"""

from __future__ import annotations

from typing import List

from .automaton import CellularAutomaton, wolfram_rule
from .errors import GroupMismatchError
from .groups import Element, FreeGroup, Group, Zd
from .linear_ca import GroupRingElement, MatrixCA
from .patterns import Alphabet, Pattern, index_to_values, values_to_index, word_to_pattern
from .subshift import (
    SFTPresentation,
    SoficPresentation1D,
    even_shift,
    full_shift,
    golden_mean,
    hard_ball,
    ledrappier,
)

SCHEMA_VERSION = "1"

# hard_ball:d and full_shift:a are built before any budget applies, in time and
# memory that grow with d^2 and a, so the size is bounded where it is parsed
BUILTIN_SIZE_LIMIT = 256

_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def _expect(value, kind, what: str):
    """``value`` if it has the JSON type ``kind`` (a type or a tuple of
    them), else a ValueError naming ``what``; true and false are not integers."""
    if isinstance(value, bool) or not isinstance(value, kind):
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


def group_from_json(obj: dict) -> Group:
    what = "the group"
    kind = _expect(obj, dict, "a group").get("type")
    if kind == "Zd":
        return Zd(_field(obj, "d", int, what))
    if kind == "Free":
        rank = _field(obj, "rank", int, what)
        names = obj.get("names")
        if names is not None:
            for name in _expect(names, list, f"{what} field 'names'"):
                _expect(name, str, f"a generator name of {what}")
        return FreeGroup(rank, tuple(names) if names else None)
    raise ValueError(f"unknown group descriptor {obj!r}")


def _group_to_json(group: Group) -> dict:
    if isinstance(group, Zd):
        return {"type": "Zd", "d": group.d}
    return {"type": "Free", "rank": group.rank, "names": list(group.names)}


def _group(obj: dict, what: str) -> Group:
    return group_from_json(_field(obj, "group", dict, what))


def _element(group: Group, g) -> Element:
    """An element from an array or a string already type-checked."""
    if isinstance(g, str) and isinstance(group, FreeGroup):
        return group.word_from_str(g)
    if any(isinstance(c, bool) for c in g):
        raise GroupMismatchError(f"{g!r} is not an element of {group}")
    return group.check(tuple(g))


def element_to_json(group: Group, g: Element):
    if isinstance(group, Zd):
        return list(group.check(g))
    return group.word_to_str(g)


def element_from_json(group: Group, obj) -> Element:
    """An element from its JSON form: an array of ints, or a word string
    for a free group."""
    return _element(group, _expect(obj, (list, str), "a group element"))


def _elements(obj: dict, key: str, group: Group, what: str) -> list:
    return [
        _element(group, _expect(g, (list, str), f"an element of {what} field {key!r}"))
        for g in _field(obj, key, list, what)
    ]


def pattern_to_json(group: Group, alphabet: Alphabet, p: Pattern) -> dict:
    return {
        "support": [element_to_json(group, g) for g in p.support],
        "values": [alphabet.symbols[v] for v in p.values],
    }


def witness_to_json(ca: CellularAutomaton, found):
    """A search witness: a mutually erasable pair as two patterns over the
    input alphabet, a Garden of Eden pattern over the output alphabet, and
    None (nothing found) as None."""
    if found is None:
        return None
    if isinstance(found, tuple):
        return [pattern_to_json(ca.group, ca.input_alphabet, p) for p in found]
    return pattern_to_json(ca.group, ca.output_alphabet, found)


def _pattern(group: Group, alphabet: Alphabet, obj, what: str) -> Pattern:
    _expect(obj, dict, what)
    if "word" in obj:
        if not isinstance(group, Zd) or group.d != 1:
            raise GroupMismatchError("word form is only valid over Z")
        word = _field(obj, "word", str, what)
        offset = _field(obj, "offset", int, what) if "offset" in obj else 0
        return word_to_pattern(alphabet, word, offset)
    support = _elements(obj, "support", group, what)
    values = [alphabet.index(s) for s in _field(obj, "values", list, what)]
    if len(values) != len(support):
        raise ValueError(f"{what} has {len(support)} support points but {len(values)} values")
    seen = set()
    for g in support:
        if g in seen:
            raise ValueError(f"{what} names the cell {element_to_json(group, g)} twice")
        seen.add(g)
    return Pattern.from_dict(group, dict(zip(support, values)))


def pattern_from_json(group: Group, alphabet: Alphabet, obj: dict) -> Pattern:
    return _pattern(group, alphabet, obj, "a pattern")


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
    a = len(ca.input_alphabet)
    width = len(ca.memory_set)
    table = {}
    for k, out in enumerate(ca.table):
        key = _window_key(ca.input_alphabet, index_to_values(a, width, k))
        table[key] = ca.output_alphabet.symbols[out]
    return {
        "schema": SCHEMA_VERSION,
        "group": _group_to_json(ca.group),
        "input_alphabet": list(ca.input_alphabet.symbols),
        "output_alphabet": list(ca.output_alphabet.symbols),
        "memory_set": [element_to_json(ca.group, g) for g in ca.memory_set],
        "table": table,
    }


def rule_from_json(obj: dict) -> CellularAutomaton:
    _expect(obj, dict, "a rule")
    if "wolfram" in obj:
        return wolfram_rule(_field(obj, "wolfram", int, "the rule"))
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
    table = [None] * expected
    for key, out in entries.items():
        _expect(out, str, f"the rule's table entry {key!r}")
        idx = values_to_index(a, _parse_window_key(input_alphabet, key, width))
        if table[idx] is not None:
            raise ValueError(f"duplicate table key {key!r}")
        table[idx] = output_alphabet.index(out)
    return CellularAutomaton(group, input_alphabet, output_alphabet, memory, tuple(table))


def sofic_to_json(pres: SoficPresentation1D) -> dict:
    return {
        "alphabet": list(pres.alphabet.symbols),
        "vertices": pres.num_vertices,
        "edges": [[u, v, pres.alphabet.symbols[s]] for (u, v, s) in pres.edges],
    }


def sofic_from_json(obj: dict) -> SoficPresentation1D:
    what = "the sofic subshift"
    alphabet = _alphabet(_expect(obj, dict, "a sofic subshift"), "alphabet", what)
    vertices = _field(obj, "vertices", int, what)
    edges = []
    for edge in _field(obj, "edges", list, what):
        if [type(x) for x in _expect(edge, list, f"an edge of {what}")] != [int, int, str]:
            raise ValueError(f"an edge of {what} must be [source, target, symbol], not {edge!r}")
        u, v, sym = edge
        edges.append((u, v, alphabet.index(sym)))
    return SoficPresentation1D(alphabet, vertices, tuple(edges))


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
        head, colon, size = name.partition(":")
        if colon and head in ("hard_ball", "full_shift"):
            if not (size.isascii() and size.isdigit()):
                raise ValueError(f"builtin subshift {name!r} must end in a plain decimal number")
            digits = size.lstrip("0") or "0"
            # the length test keeps int() off strings of thousands of digits
            if len(digits) > len(str(BUILTIN_SIZE_LIMIT)) or int(digits) > BUILTIN_SIZE_LIMIT:
                raise ValueError(f"builtin {head} size is over the limit of {BUILTIN_SIZE_LIMIT}")
            n = int(digits)
            return hard_ball(n) if head == "hard_ball" else full_shift(Alphabet.of_size(n))
        raise ValueError(f"unknown builtin subshift {name!r}")
    kind = obj.get("kind", "sofic" if "edges" in obj else "sft")
    if kind == "sofic":
        return sofic_from_json(obj)
    what = f"the {kind} subshift"
    alphabet = _alphabet(obj, "alphabet", what)
    group = _group(obj, what) if "group" in obj else Zd(1)
    forbidden = tuple(
        _pattern(group, alphabet, item, f"a forbidden pattern of {what}")
        for item in _field(obj, "forbidden", list, what)
    )
    return SFTPresentation(group, alphabet, forbidden)


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
            "group": _group_to_json(X.group),
            "alphabet": list(X.alphabet.symbols),
            "forbidden": [pattern_to_json(X.group, X.alphabet, p) for p in X.forbidden],
        }
    raise TypeError(f"not a subshift presentation: {X!r}")


def matrix_to_json(M: MatrixCA) -> dict:
    return {
        "group": _group_to_json(M.group),
        "p": M.p,
        "d": M.d,
        "entries": [
            [
                {"coeffs": [{"g": element_to_json(M.group, g), "c": c} for g, c in e.coeffs]}
                for e in row
            ]
            for row in M.entries
        ],
    }


def matrix_from_json(obj: dict) -> MatrixCA:
    what = "the matrix"
    _expect(obj, dict, "a matrix")
    group = _group(obj, what) if "group" in obj else Zd(1)
    p = _field(obj, "p", int, what)
    d = _field(obj, "d", int, what)
    rows = []
    for row in _field(obj, "entries", list, what):
        entries = []
        for cell in _expect(row, list, f"a row of {what}"):
            cell = _expect(cell, dict, f"an entry of {what}")
            coeffs = {}
            for item in _expect(cell.get("coeffs", []), list, f"the 'coeffs' of an entry of {what}"):
                _expect(item, dict, "a coefficient")
                g = _element(group, _field(item, "g", (list, str), "a coefficient"))
                coeffs[g] = _field(item, "c", int, "a coefficient")
            entries.append(GroupRingElement.make(group, p, coeffs))
        rows.append(tuple(entries))
    return MatrixCA(group, p, d, tuple(rows))
