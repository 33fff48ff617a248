"""Shared fixtures: the two reference codes and their expected matrices.

The expected rule sets below are fixed by hand, cell for cell and in
display order, independent of the construction code; golden tests
compare construction output against them rather than against itself.
"""

from __future__ import annotations

import sys

import pytest

import splitauth.construct
import splitauth.verify
from splitauth import code_from_design, develop_cyclic, family_u2

TABLE1_RULES = (
    ((1, 2), (3, 5)),
    ((2, 3), (4, 6)),
    ((3, 4), (5, 7)),
    ((4, 5), (6, 8)),
    ((5, 6), (7, 9)),
    ((6, 7), (8, 1)),
    ((7, 8), (9, 2)),
    ((8, 9), (1, 3)),
    ((9, 1), (2, 4)),
)

TABLE2_RULES = (
    ((1, 2), (3, 5)),
    ((2, 3), (4, 6)),
    ((3, 4), (5, 7)),
    ((4, 5), (6, 8)),
    ((5, 6), (7, 9)),
    ((6, 7), (8, 10)),
    ((7, 8), (9, 11)),
    ((8, 9), (10, 12)),
    ((9, 10), (11, 13)),
    ((10, 11), (12, 14)),
    ((11, 12), (13, 15)),
    ((12, 13), (14, 16)),
    ((13, 14), (15, 17)),
    ((14, 15), (16, 1)),
    ((15, 16), (17, 2)),
    ((16, 17), (1, 3)),
    ((17, 1), (2, 4)),
    ((1, 2), (11, 13)),
    ((2, 3), (12, 14)),
    ((3, 4), (13, 15)),
    ((4, 5), (14, 16)),
    ((5, 6), (15, 17)),
    ((6, 7), (16, 1)),
    ((7, 8), (17, 2)),
    ((8, 9), (1, 3)),
    ((9, 10), (2, 4)),
    ((10, 11), (3, 5)),
    ((11, 12), (4, 6)),
    ((12, 13), (5, 7)),
    ((13, 14), (6, 8)),
    ((14, 15), (7, 9)),
    ((15, 16), (8, 10)),
    ((16, 17), (9, 11)),
    ((17, 1), (10, 12)),
)


@pytest.fixture(scope="session")
def table1_design():
    return develop_cyclic(family_u2(2, 1))


@pytest.fixture(scope="session")
def table2_design():
    return develop_cyclic(family_u2(2, 2))


@pytest.fixture(scope="session")
def table1_code(table1_design):
    return code_from_design(table1_design)


@pytest.fixture(scope="session")
def table2_code(table2_design):
    return code_from_design(table2_design)


@pytest.fixture()
def covered(monkeypatch):
    """(block count, t) of every coverage count made while the test runs."""
    calls = []
    coverage = splitauth.verify._coverage

    def counting(blocks, t):
        calls.append((len(blocks), t))
        return coverage(blocks, t)

    monkeypatch.setattr(splitauth.verify, "_coverage", counting)
    return calls


@pytest.fixture()
def checked(monkeypatch):
    """The block count of every shape check made while the test runs."""
    sizes = []
    check = splitauth.construct._shape_defects

    def counting(blocks, *args, **kwargs):
        sizes.append(len(blocks))
        return check(blocks, *args, **kwargs)

    monkeypatch.setattr(splitauth.construct, "_shape_defects", counting)
    return sizes


@pytest.fixture()
def searched(monkeypatch):
    """The block count of every developed-runs search made while the test runs."""
    sizes = []
    search = splitauth.construct.developed_runs

    def recording(blocks, *args):
        sizes.append(len(blocks))
        return search(blocks, *args)

    # every module that holds the search, under whatever name imported it
    for name, module in list(sys.modules.items()):
        if name.startswith("splitauth") and vars(module).get("developed_runs") is search:
            monkeypatch.setattr(module, "developed_runs", recording)
    return sizes
