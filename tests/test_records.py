"""Behaviour every public record class keeps: construction by position
and keyword with defaults, argument errors, value equality, hash and
repr, immutability, copying and pickling, and each validation message.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from splitauth import (
    BaseBlockFamily,
    DesignParams,
    PosteriorTable,
    SecurityReport,
    SplittingACode,
    SplittingDesign,
    VerificationResult,
    verify_design,
)

from conftest import TABLE1_RULES

HALF = Fraction(1, 2)
BASE = (((1, 2), (3, 5)),)
PARAMS = DesignParams(2, 9, 9, 2, 2, 1)
KEYS = (Fraction(1, 9),) * 9
TABLE = PosteriorTable({1: HALF, 2: HALF}, {1: Fraction(1, 9)}, {(1, 1): HALF}, (), True)


class Case:
    """One record class: its fields in order, values for all of them,
    how many are required, the values the defaults resolve to, and one
    changed field for an unequal record.  A ``verified`` design has been
    through ``verify_design`` at t=2 when built."""

    def __init__(self, cls, fields, values, required, defaults, changed, verified=False):
        self.cls, self.fields, self.values = cls, fields, values
        self.required, self.defaults, self.changed = required, defaults, changed
        self.verified = verified

    def __repr__(self) -> str:
        return ("verified " if self.verified else "") + self.cls.__name__

    @property
    def kwargs(self) -> dict:
        return dict(zip(self.fields, self.values))

    def build(self):
        record = self.cls(*self.values)
        if self.verified:
            assert verify_design(record, 2).ok
        return record


CASES = [
    Case(
        DesignParams,
        ("t", "v", "b", "c", "u", "lam"),
        (2, 9, 9, 2, 2, 1),
        6,
        {},
        {"lam": 2},
    ),
    Case(
        BaseBlockFamily, ("v", "u", "c", "base_blocks"), (9, 2, 2, BASE), 4, {}, {"v": 17}
    ),
    Case(
        SplittingDesign,
        ("v", "blocks", "t", "orbit_lengths"),
        (9, TABLE1_RULES, 2, (9,)),
        2,
        {"t": 2, "orbit_lengths": ()},
        {"t": 1},
    ),
    Case(
        VerificationResult,
        ("ok", "params", "defects", "witness"),
        (True, PARAMS, ("note",), ((1, 2), 1, 1)),
        2,
        {"defects": (), "witness": None},
        {"ok": False},
    ),
    Case(
        SplittingACode,
        ("u", "v", "rules", "key_dist", "source_dist", "split_dist"),
        (2, 9, TABLE1_RULES, KEYS, (HALF, HALF), (((HALF, HALF),) * 2,) * 9),
        3,
        {"key_dist": KEYS, "source_dist": (HALF, HALF), "split_dist": None},
        {"source_dist": (Fraction(1, 3), Fraction(2, 3))},
    ),
    Case(
        PosteriorTable,
        ("priors", "message_marginals", "entries", "unreachable", "ok"),
        ({1: HALF, 2: HALF}, {1: Fraction(1, 9)}, {(1, 1): HALF}, (), True),
        5,
        {},
        {"ok": False},
    ),
    Case(
        SecurityReport,
        ("deception", "bounds", "level", "optimal", "posteriors"),
        ({0: Fraction(4, 9)}, {0: Fraction(4, 9)}, 0, True, TABLE),
        5,
        {},
        {"level": -1},
    ),
]
HASHABLE = {
    DesignParams,
    BaseBlockFamily,
    SplittingDesign,
    VerificationResult,
    SplittingACode,
}

each_case = pytest.mark.parametrize("case", CASES, ids=repr)
VERIFIED = copy.copy(next(case for case in CASES if case.cls is SplittingDesign))
VERIFIED.verified = True
with_verified = pytest.mark.parametrize("case", [*CASES, VERIFIED], ids=repr)


@each_case
def test_positional_and_keyword_construction_agree(case):
    by_position, by_keyword = case.build(), case.cls(**case.kwargs)
    assert by_position == by_keyword
    assert [getattr(by_keyword, f) for f in case.fields] == list(case.values)


@each_case
def test_defaults(case):
    required = case.values[: case.required]
    record = case.cls(*required)
    for name, value in case.defaults.items():
        assert getattr(record, name) == value
    assert record == case.cls(**dict(zip(case.fields, required)))


@each_case
def test_missing_arguments_raise_type_error(case):
    with pytest.raises(TypeError):
        case.cls()
    with pytest.raises(TypeError):
        case.cls(*case.values[: case.required - 1])
    with pytest.raises(TypeError):
        case.cls(**{f: v for f, v in case.kwargs.items() if f != case.fields[0]})


@each_case
def test_unexpected_arguments_raise_type_error(case):
    with pytest.raises(TypeError):
        case.cls(*case.values, bogus=1)
    with pytest.raises(TypeError):
        case.cls(*case.values, None)
    with pytest.raises(TypeError):
        case.cls(*case.values, **{case.fields[0]: case.values[0]})


@with_verified
def test_equality_hash_and_repr(case):
    record, same = case.build(), case.cls(**case.kwargs)
    changed = case.cls(**{**case.kwargs, **case.changed})
    assert record == same and not record != same
    assert record != changed
    assert record != tuple(case.values)
    if case.cls in HASHABLE:
        assert hash(record) == hash(same)
        assert len({record, same, changed}) == 2
    else:
        with pytest.raises(TypeError):
            hash(record)
    shown = ", ".join(f"{f}={getattr(record, f)!r}" for f in case.fields)
    assert repr(record) == f"{case.cls.__qualname__}({shown})"


@each_case
def test_fields_cannot_be_assigned_or_deleted(case):
    record = case.build()
    for name in (*case.fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in case.fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == case.build()


@with_verified
def test_deepcopy_and_pickle_round_trip(case):
    record = case.build()
    copies = [copy.copy(record), copy.deepcopy(record)]
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    copies += [pickle.loads(pickle.dumps(record, p)) for p in protocols]
    for twin in copies:
        assert type(twin) is case.cls
        assert twin == record
        assert repr(twin) == repr(record)
        if case.cls in HASHABLE:
            assert hash(twin) == hash(record)
        if case.verified:
            assert verify_design(twin, 2) == verify_design(record, 2)
        with pytest.raises(AttributeError):
            setattr(twin, case.fields[0], None)


def _message(factory) -> str:
    with pytest.raises(ValueError) as info:
        factory()
    return str(info.value)


@pytest.mark.parametrize("name", ["t", "v", "b", "c", "u", "lam"])
@pytest.mark.parametrize("bad", [0, -1, True, "2", 2.0])
def test_design_params_rejects_non_positive_integers(name, bad):
    kwargs = {**dict(t=2, v=9, b=9, c=2, u=2, lam=1), name: bad}
    assert _message(lambda: DesignParams(**kwargs)) == (
        f"{name} must be a positive integer, got {bad!r}"
    )


@pytest.mark.parametrize(
    "args, message",
    [
        ((5, 20, 9, 2, 4, 1), "strength t=5 exceeds parts per block u=4"),
        ((3, 9, 9, 2, 2, 1), "strength t=3 exceeds parts per block u=2"),
        ((2, 3, 9, 2, 2, 1), "block size c*u=4 exceeds point count v=3"),
    ],
)
def test_design_params_messages(args, message):
    assert _message(lambda: DesignParams(*args)) == message


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 2, 2, ()), "v, u, c must be positive"),
        ((9, 0, 2, ()), "v, u, c must be positive"),
        ((9, 2, 0, ()), "v, u, c must be positive"),
        ((3, 2, 2, ()), "block size c*u=4 exceeds v=3"),
        ((9, 2, 2, (((1, 2),),)), "base block 1 has 1 parts, expected 2"),
        ((9, 2, 2, (((1, 2), (3,)),)), "base block 1 has a part of size 1, expected 2"),
        ((9, 2, 2, (((1, 2), (3, 10)),)), "base block 1 uses point 10 outside 1..9"),
        ((9, 2, 2, (((1, 2), (2, 5)),)), "base block 1 repeats point 2"),
    ],
)
def test_base_block_family_messages(args, message):
    assert _message(lambda: BaseBlockFamily(*args)) == message


def test_splitting_design_messages():
    assert _message(lambda: SplittingDesign(0, ())) == "v must be positive"
    assert _message(lambda: SplittingDesign(9, (), t=0)) == "t must be positive"


def _bad_split(rule: int, per_source) -> tuple:
    uniform = ((HALF, HALF),) * 2
    return tuple(per_source if e == rule else uniform for e in range(9))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"rules": ()}, "code has no encoding rules"),
        ({"rules": ((),)}, "rule 1 has no cells"),
        ({"rules": (((), ()),)}, "rule 1 has an empty cell"),
        (
            {
                "rules": (
                    ((1, 2), (3, 5)),
                    ((1, 2), (3, 5), (4, 6)),
                    ((1,), (2, 3)),
                    ((1, 10), (2, 3)),
                    ((1, 2), (2, 3)),
                )
            },
            "rule 2 has 3 cells, expected 2; rule 3 has a cell of size 1, expected 2; "
            "rule 4 uses message 10 outside 1..9; rule 5 repeats message 2",
        ),
        ({"u": 3}, "rules have 2 cells, expected u=3"),
        ({"key_dist": KEYS[:2]}, "key_dist has 2 entries, expected 9"),
        ({"key_dist": (Fraction(-1, 9),) + KEYS[1:]}, "key_dist has a negative entry"),
        ({"key_dist": KEYS[1:] + (Fraction(2, 9),)}, "key_dist sums to 10/9, expected 1"),
        ({"source_dist": (HALF,) * 3}, "source_dist has 3 entries, expected 2"),
        ({"source_dist": (HALF, -HALF)}, "source_dist has a negative entry"),
        ({"source_dist": (HALF, HALF / 2)}, "source_dist sums to 3/4, expected 1"),
        ({"split_dist": (((HALF, HALF),) * 2,)}, "split_dist covers 1 rules, expected 9"),
        (
            {"split_dist": _bad_split(0, ((HALF, HALF),))},
            "split_dist of rule 1 covers 1 sources, expected 2",
        ),
        (
            {"split_dist": _bad_split(2, ((HALF, HALF), (Fraction(1),)))},
            "split_dist of rule 3, source 2 has 1 entries, expected 2",
        ),
        (
            {"split_dist": _bad_split(8, ((HALF, HALF / 2), (HALF, HALF)))},
            "split_dist of rule 9, source 1 sums to 3/4, expected 1",
        ),
        (
            {"split_dist": _bad_split(4, ((HALF, HALF), (-HALF, 3 * HALF)))},
            "split_dist of rule 5, source 2 has a negative entry",
        ),
    ],
)
def test_splitting_acode_messages(kwargs, message):
    fields = {"u": 2, "v": 9, "rules": TABLE1_RULES, **kwargs}
    assert _message(lambda: SplittingACode(**fields)) == message
