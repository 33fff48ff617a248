"""Malformed input through ``cli.main``: whatever the JSON, every command
exits 0, 1 or 2 and nothing raises out of ``main``.

Family, design and code artifacts start from valid skeletons (random
blocks over small point sets) and get a few mutations each: a value
replaced by a wrong type, a bool, a float, a bad rational, a zero or
negative size; a key deleted; a list emptied, shortened or grown; a
block made ragged, out of range or repeating a point; weights that are
negative, zero or garbage.  Point sets stay at v <= 60 and block lists
short, so every run is cheap.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitauth.cli import main

BAD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 60),
    st.floats(-2, 2, allow_nan=False),
    st.sampled_from(["", "x", "1/0", "-1/2", "0", "1/2", "1", "2/3", "1e1"]),
    st.sampled_from(("[]", "{}", "[[]]", "[[[]]]", "[[0]]", '[["1"]]')).map(json.loads),
)


def _weights(n: int):
    """n weights as JSON: rational strings or ints, zeros and non-normalized
    lists allowed."""
    def as_json(nums):
        total = sum(nums) or 1
        return [f"{w}/{total}" if w % total else w // total for w in nums]

    return st.lists(st.integers(0, 3), min_size=n, max_size=n).map(as_json)


@st.composite
def _blocks(draw, v: int, u: int, c: int, max_blocks: int):
    blocks = []
    for _ in range(draw(st.integers(0, max_blocks))):
        points = draw(st.permutations(range(1, v + 1)))[: c * u]
        blocks.append([list(points[k * c : (k + 1) * c]) for k in range(u)])
    return blocks


@st.composite
def _skeleton(draw):
    u = draw(st.integers(1, 3))
    c = draw(st.integers(1, 2))
    v = draw(st.integers(c * u, c * u + 6))
    kind = draw(st.sampled_from(("family", "design", "code")))
    if kind == "family":
        return {"v": v, "u": u, "c": c, "base_blocks": draw(_blocks(v, u, c, 2))}
    blocks = draw(_blocks(v, u, c, 6))
    if kind == "design":
        obj = {"v": v, "t": draw(st.integers(1, u)), "blocks": blocks}
        if draw(st.booleans()):
            obj["orbit_lengths"] = [v] * len(blocks)
        return obj
    obj = {"u": u, "v": v, "rules": blocks}
    if draw(st.booleans()):
        obj["key_dist"] = draw(_weights(len(blocks)))
    if draw(st.booleans()):
        obj["source_dist"] = draw(_weights(u))
    if draw(st.booleans()):
        obj["split_dist"] = [[draw(_weights(c)) for _ in range(u)] for _ in blocks]
    return obj


def _paths(obj, path=()):
    """Every position in a JSON tree, parents before children."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, path + (key,))
    elif isinstance(obj, list):
        for k, value in enumerate(obj):
            yield from _paths(value, path + (k,))


@st.composite
def _mutated(draw, obj):
    path = draw(st.sampled_from(list(_paths(obj))))
    if not path:
        return draw(BAD_VALUES)
    *parents, last = path
    holder = obj
    for key in parents:
        holder = holder[key]
    action = draw(st.sampled_from(("replace", "delete", "duplicate", "append")))
    target = holder[last]
    if action == "delete":
        del holder[last]
    elif action == "duplicate" and isinstance(target, list) and target:
        target.append(target[draw(st.integers(0, len(target) - 1))])
    elif action == "append" and isinstance(target, list):
        target.append(draw(BAD_VALUES))
    else:
        holder[last] = draw(BAD_VALUES)
    return obj


@st.composite
def artifacts(draw):
    obj = draw(_skeleton())
    for _ in range(draw(st.integers(0, 3))):
        obj = draw(_mutated(obj))
    return obj


def _run(argv, text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


COMMANDS = (
    ["develop", "-"],
    ["verify", "-"],
    *(["verify", "-", "-t", str(t)] for t in range(-1, 5)),
    ["to-code", "-"],
    *(["analyze", "-", "--orders", str(i)] for i in range(-1, 7)),
    *(["export", "-", "-f", f] for f in ("csv", "markdown", "json")),
)


def _code(u: int, **fields) -> str:
    """A one-rule code with u single-message cells, plus ``fields``."""
    return json.dumps({"u": u, "v": u, "rules": [[[m] for m in range(1, u + 1)]], **fields})


@given(text=artifacts().map(json.dumps))
@example(text=_code(3, source_dist=["0", "0", "1"]))  # fewer weighted sources than orders
@example(text=_code(2, key_dist=["1e5000"]))
@example(text='{"u": 1' + "0" * 5000 + ', "v": 9, "rules": []}')
@example(text='{"v": 1' + "0" * 5000 + ', "u": 2, "c": 1, "base_blocks": []}')
@example(text=_code(12))
@example(text=_code(1))  # u=1: --orders 0 is the only order in range
@example(  # a uniform code, c=2, whose --orders 2 is u
    text=json.dumps({"u": 2, "v": 5, "rules": [[[1, 2], [3, 4]], [[5, 1], [2, 3]]]})
)
@settings(max_examples=150, deadline=None)
def test_exit_contract(text):
    for argv in COMMANDS:
        rc, out, err = _run(argv, text)
        assert rc in (0, 1, 2), (argv, text)
        if rc == 2:
            assert out == "" and err.startswith("error: "), (argv, text, err)
        elif rc == 1:
            assert out.endswith("FAIL\n"), (argv, text, out)
        assert "Traceback" not in out + err
