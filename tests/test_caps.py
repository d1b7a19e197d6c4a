"""The caps table: the only home of size limits, ordered so that the one
up-front flag-count check of verify and hecke-check is complete."""

import ast
from pathlib import Path

import numpy as np

import steinberg
from steinberg import caps, gf

PACKAGE = Path(steinberg.__file__).parent


def _module_level_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    yield sub.id


def test_no_limit_is_bound_outside_the_table():
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "caps.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        stray += [f"{path.name}: {name}" for name in _module_level_names(tree)
                  if name.startswith("MAX_")]
    assert stray == []


def test_table_holds_every_limit():
    names = set(_module_level_names(ast.parse(
        (PACKAGE / "caps.py").read_text())))
    assert names == {"MAX_FIELD_SIZE", "MAX_DENSE_DIM", "MAX_FLAG_COUNT",
                     "MAX_UNIPOTENT", "MAX_REGULAR_ORDER", "MAX_GROUP_ORDER",
                     "MAX_NORTON_TRIES"}


def test_orderings_make_the_up_front_check_complete():
    # |U| <= |G/B| <= MAX_DENSE_DIM for every admitted group
    assert caps.MAX_DENSE_DIM <= caps.MAX_UNIPOTENT
    # the regular module of an enumerable group fits dense elimination
    assert caps.MAX_REGULAR_ORDER <= caps.MAX_DENSE_DIM
    # every group admitted by the dense check can be constructed
    assert caps.MAX_DENSE_DIM <= caps.MAX_FLAG_COUNT


def test_float_products_are_exact_wherever_the_caps_admit():
    # float64 holds every integer below 2**(mantissa bits + 1) exactly
    float_exact = 2 ** (np.finfo(np.float64).nmant + 1)
    assert gf._FLOAT_EXACT == float_exact
    # no dot product of a dense-capped matrix over a capped field reaches it
    assert caps.MAX_DENSE_DIM * (caps.MAX_FIELD_SIZE - 1) ** 2 < float_exact
