"""A seeded, deterministic mutator over the README 12x4x24 code-set document.

``mutations(seed, count)`` yields ``count`` pairs ``(kind, data)``: the
name of a mutation class and the bytes of one mutated document.  The
classes are the hostile inputs a code-set reader must refuse cleanly or
read exactly:

- ``swap``: one value, an exponent half the time, replaced by a float, a
  bool, a string, null, a list, an object or an int past int64;
- ``delete_key``, ``add_key``, ``rename_key``: one key of one object;
- ``ragged``: a sequence, member list or code list made shorter, longer
  or empty;
- ``value``: an exponent or param set to another integer, which may
  leave a valid document with another verdict, or a label field set to
  another integer or label string, which the reader refuses unless it
  is the value the field already held;
- ``true_in_string``: ``true`` or ``false`` only inside strings, such as
  an extra ``"note": "true"`` key or a label family ``"true"``;
- ``nest``: one value wrapped in lists, some deeper than the decoder's
  recursion limit;
- ``truncate``, ``non_utf8``, ``byte``: the bytes cut short, given a
  byte that is not UTF-8, or given one stray JSON character;
- ``unmutated``: the document as ``zccs generate`` writes it.
"""
import json
import random

from zccs.boolfn import parse_gbf
from zccs.cli import code_set_to_dict
from zccs.construct import build_zccs

KINDS = (
    "swap", "delete_key", "add_key", "rename_key", "ragged", "value", "true_in_string",
    "nest", "truncate", "non_utf8", "byte", "unmutated",
)

# The README set: zccs generate --kind zccs --q 2 --p 3 --m 3 --f "x1*x2"
# --delete x0 --gamma x2
BASE = code_set_to_dict(build_zccs(parse_gbf("x1*x2", 3, 2), [0], 2, p=3))
BASE_TEXT = json.dumps(BASE) + "\n"

_NEST = "@@nest@@"


def _nodes(doc, path=()):
    """Every (path, value) below doc, in document order."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _parent(doc, path):
    for step in path[:-1]:
        doc = doc[step]
    return doc


def _exponent_path(rng):
    return ("codes", rng.randrange(12), "sequences", rng.randrange(4), rng.randrange(24))


def _pick(rng, doc, want=None):
    """A random (path, value) of doc, an exponent half the time."""
    if want is None and rng.random() < 0.5:
        path = _exponent_path(rng)
        return path, _parent(doc, path)[path[-1]]
    nodes = [(p, v) for p, v in _nodes(doc) if want is None or isinstance(v, want)]
    if want is None:
        nodes = [(p, v) for p, v in nodes if len(p) != 5 or p[0] != "codes"]
    return rng.choice(nodes)


def _swap_values(value):
    return [
        1.5, float(value) if type(value) is int else 0.0, True, False, str(value), None,
        [value], {}, [], 2 ** 70, 2 ** 63, -(2 ** 63) - 1, 10 ** 30, -1,
    ]


def _swap(rng, doc):
    path, value = _pick(rng, doc)
    _parent(doc, path)[path[-1]] = rng.choice(_swap_values(value))


def _delete_key(rng, doc):
    path, obj = _pick(rng, doc, dict)
    del obj[rng.choice(sorted(obj))]


def _add_key(rng, doc):
    obj = doc if rng.random() < 0.3 else _pick(rng, doc, dict)[1]
    obj[rng.choice(["note", "extra", "K", "sequences"])] = rng.choice(["x", 1, None, [], {}, 2.5, True])


def _rename_key(rng, doc):
    obj = doc if rng.random() < 0.3 else _pick(rng, doc, dict)[1]
    key = rng.choice(sorted(obj))
    obj[rng.choice([key + "_", key.upper(), key.lower(), "true", ""])] = obj.pop(key)


def _ragged(rng, doc):
    code = rng.choice(doc["codes"])
    seq = rng.choice(code["sequences"])
    op = rng.randrange(7)
    if op == 0:
        seq.pop(rng.randrange(len(seq)))
    elif op == 1:
        seq.insert(rng.randrange(len(seq) + 1), rng.randrange(6))
    elif op == 2:
        seq.clear()
    elif op == 3:
        code["sequences"].pop(rng.randrange(len(code["sequences"])))
    elif op == 4:
        code["sequences"].append(list(seq))
    elif op == 5:
        code["sequences"].clear()
    elif rng.random() < 0.5:
        doc["codes"].clear()
    else:
        doc["codes"].append(json.loads(json.dumps(code)))


def _value(rng, doc):
    op = rng.randrange(3)
    if op == 0:
        path = _exponent_path(rng)
        _parent(doc, path)[path[-1]] = rng.choice([rng.randrange(6), rng.randrange(6), 6, -1, 7])
    elif op == 1:
        name = rng.choice(sorted(doc["params"]))
        doc["params"][name] = rng.choice([rng.randrange(1, 25), rng.randrange(1, 25), 0, 1, 2, 3, None])
    else:
        label = rng.choice(doc["codes"])["label"]
        field = rng.choice(["family", "t", "lam"])
        label[field] = rng.choice(["C", "Cbar", "U", "V", 0, 1, 2, None]) if field == "family" else rng.choice([0, 1, 2, 3, None])


def _true_in_string(rng, doc):
    word = rng.choice(["true", "false", "not true", "falsehood"])
    op = rng.randrange(4)
    if op == 0:
        doc["note"] = word
    elif op == 1:
        rng.choice(doc["codes"])["label"]["family"] = word
    elif op == 2:
        rng.choice(doc["codes"])["label"]["note"] = word
    else:
        doc["params"][word] = word


def _nest(rng, doc):
    path, _ = _pick(rng, doc)
    _parent(doc, path)[path[-1]] = _NEST


MUTATORS = {
    "swap": _swap, "delete_key": _delete_key, "add_key": _add_key, "rename_key": _rename_key,
    "ragged": _ragged, "value": _value, "true_in_string": _true_in_string, "nest": _nest,
}


def mutate(rng, kind) -> bytes:
    """One mutated document of the given kind, as bytes."""
    data = BASE_TEXT.encode()
    if kind in MUTATORS:
        doc = json.loads(BASE_TEXT)
        MUTATORS[kind](rng, doc)
        text = json.dumps(doc) + "\n"
        if kind == "nest":
            depth = rng.choice([1, 3, 40, 2000])
            text = text.replace(json.dumps(_NEST), "[" * depth + str(rng.randrange(6)) + "]" * depth)
        data = text.encode()
    elif kind == "truncate":
        data = data[: rng.randrange(len(data))]
    elif kind == "non_utf8":
        at = rng.randrange(len(data))
        data = data[:at] + rng.choice([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]) + data[at:]
    elif kind == "byte":
        at = rng.randrange(len(data))
        data = data[:at] + bytes([rng.choice(b'0123456789[]{},:"tfn.-eE ')]) + data[at + 1 :]
    return data


def mutations(seed: int, count: int):
    """``count`` (kind, bytes) pairs, the kinds in turn, from one seed."""
    rng = random.Random(seed)
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        yield kind, mutate(rng, kind)
