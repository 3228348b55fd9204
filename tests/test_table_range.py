"""The range of a held table is decided where it is held.

Every public entry point that takes a table-holding object is gated here:
the object is built from a valid table with one entry moved out of range,
and building it, then each call on it, must return or raise a
MatchfieldError subclass.  Each step runs under ``signal.alarm(1)`` on the
main thread, so a call that never returns fails the test instead of hanging
it.  Where the range rule of ``core.MaskTable`` (and of ``Triangulation``
and ``PhiMap``) covers the mutation, the build itself must refuse it.
"""

import contextlib
import functools
import inspect
import io
import json
import signal
import typing

import pytest
from hypothesis import given, settings, strategies as st

import matchfield
from matchfield import (
    ChowCollection,
    ExtendedTopeArrangement,
    MatchfieldError,
    MatchingField,
    MatchingStack,
    PhiMap,
    TopeArrangement,
    TopeField,
    Triangulation,
    core,
)
from matchfield import chow, fields, flip, stacks, triang
from matchfield.cli import run
from matchfield.randgen import seeded_coherent_field


class Late(Exception):
    """A step that ran past its one-second alarm."""


def bounded(step, *args):
    """The result of a step under a one-second alarm, or the MatchfieldError
    it raised; any other error, Late included, propagates."""
    def late(signum, frame):
        raise Late(f"{getattr(step, '__name__', step)} ran past one second")

    previous = signal.signal(signal.SIGALRM, late)
    signal.alarm(1)
    try:
        return step(*args)
    except MatchfieldError as exc:
        return exc
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@functools.cache
def coherent(n, d):
    return seeded_coherent_field(n, d, 1)[0]


@functools.cache
def staircase(n, d):
    return triang.staircase_triangulation(n, d)


FIELD_SIZES = [(4, 2), (5, 3), (6, 3)]
STAIRCASE_SIZES = [(3, 2), (3, 3), (4, 3)]
PHI_SIZES = [(4, 2), (5, 3)]

FIELD_CALLS = {
    "is_linkage": fields.is_linkage,
    "linkage_covector": lambda f: fields.linkage_covector(f, range(1, f.thickness + 2)),
    "i_amalgamation": lambda f: fields.i_amalgamation(f, 1),
    "maximal_tope": lambda f: fields.maximal_tope(f, (f.n - f.d + 1,) + (1,) * (f.d - 1)),
    "tope_arrangement": fields.tope_arrangement,
    "chow_collection": chow.chow_collection,
    "flip_graph": flip.flip_graph,
    "linkage_tree": lambda f: flip.linkage_tree(f, range(1, f.d + 2)),
    "maximal_cells": flip.maximal_cells,
    "extend": stacks.extend,
    "right_submatching_check": stacks.right_submatching_check,
    "stiefel_image_of_field": stacks.stiefel_image_of_field,
    "field_to_json_dict": fields.field_to_json_dict,
}

# each kind of table-holding object: its constructor on (n, d, table), the
# (n, d, table) of valid objects, the calls that take it, and its key form
KINDS = {
    "matching-field": (
        MatchingField,
        lambda: [(n, d, coherent(n, d).mask_table) for n, d in FIELD_SIZES],
        FIELD_CALLS, "subset"),
    "tope-field": (
        lambda n, d, table: TopeField(n, d, (2,) + (1,) * (d - 1), table),
        lambda: [(n, d, fields.i_amalgamation(coherent(n, d), 1).mask_table)
                 for n, d in FIELD_SIZES],
        FIELD_CALLS, "subset"),
    "tope-arrangement": (
        TopeArrangement,
        lambda: [(n, d, fields.tope_arrangement(coherent(n, d)).mask_table)
                 for n, d in FIELD_SIZES],
        {"field_from_arrangement": fields.field_from_arrangement,
         "arrangement_to_json_dict": fields.arrangement_to_json_dict},
        "point"),
    "extended-arrangement": (
        ExtendedTopeArrangement,
        lambda: [(n, d, triang.extended_tope_arrangement(staircase(n, d)).mask_table)
                 for n, d in STAIRCASE_SIZES],
        {"trianguloid_check": fields.trianguloid_check,
         "extended_to_json_dict": fields.extended_to_json_dict},
        "point"),
    "chow-collection": (
        ChowCollection,
        lambda: [(n, d, chow.chow_collection(coherent(n, d)).mask_table) for n, d in FIELD_SIZES],
        {"field_from_chow": chow.field_from_chow,
         "collection_to_json_dict": chow.collection_to_json_dict,
         "phi": lambda cc: cc.phi()},
        "subset"),
    "phi-map": (
        PhiMap,
        lambda: [(n, d, chow.chow_collection(coherent(n, d)).phi().mapping) for n, d in PHI_SIZES],
        {"reconstruct_chow_from_phi": lambda p: chow.reconstruct_chow_from_phi(p, p.n, p.d),
         "phi_to_json_dict": chow.phi_to_json_dict},
        "subset"),
    "triangulation": (
        lambda n, d, table: Triangulation(n, d, table.values()),
        lambda: [(n, d, dict(enumerate(staircase(n, d).masks))) for n, d in STAIRCASE_SIZES],
        {"extract_field": triang.extract_field,
         "phi": triang.phi,
         "extended_tope_arrangement": triang.extended_tope_arrangement,
         "triangulation_to_json_dict": triang.triangulation_to_json_dict},
        None),
    "matching-stack": (
        MatchingStack,
        lambda: [(n, d, stacks.stack_from_trees(staircase(n, d).sorted_trees(), n, d).mask_table)
                 for n, d in STAIRCASE_SIZES],
        {"completion": stacks.completion,
         "extraction": stacks.extraction,
         "validate_ensemble": stacks.validate_ensemble,
         "stack_to_json_dict": stacks.stack_to_json_dict},
        "pair"),
}

# a value out of range, from the value it replaces and n * d
VALUES = {
    "negative": lambda m, nd: -1,
    "above": lambda m, nd: m | 1 << nd,
    "none": lambda m, nd: None,
    "str": lambda m, nd: str(m),
    "float": lambda m, nd: float(m),
    "bool": lambda m, nd: bool(m),
}


def subset_key(key, how, side):
    return {"negative": -1, "tuple": core.mask_subset(key), "above": key | 1 << side}[how]


def point_key(key, how, n):
    return {"negative": -1, "tuple": key + (0,), "above": (key[0] + (1 << n), *key[1:])}[how]


def mutated(kind, n, d, table, where, how, at, side=0):
    """The table with its entry at sorted position ``at`` mutated: its value
    (a phi map's: one coordinate, side) replaced by VALUES[how], or its key
    moved to a key of the same form out of range."""
    table, key = dict(table), sorted(table, key=repr)[at % len(table)]
    value = table.pop(key)
    if where == "value":
        if kind == "phi-map":
            point = list(value)
            point[side % d] = VALUES[how](point[side % d], n * d)
            table[key] = tuple(point)
        else:
            table[key] = VALUES[how](value, n * d)
        return table
    form = KINDS[kind][3]
    if form == "subset":
        key = subset_key(key, how, n)
    elif form == "pair":
        key = list(key)
        key[side % 2] = subset_key(key[side % 2], how, (n, d)[side % 2])
        key = tuple(key)
    else:
        key = point_key(key, how, n)
    table[key] = value
    return table


def gate(kind, table, n, d):
    """Build the object under the alarm, then run each of its calls under
    its own; the build's result, a MatchfieldError or the object."""
    build, _, calls, _ = KINDS[kind]
    made = bounded(build, n, d, table)
    if not isinstance(made, MatchfieldError):
        for call in calls.values():
            bounded(call, made)
    return made


@st.composite
def mutants(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    n, d, table = draw(st.sampled_from(KINDS[kind][1]()))
    keyed = KINDS[kind][3] is not None
    where = draw(st.sampled_from(["value", "key"] if keyed else ["value"]))
    hows = sorted(VALUES) if where == "value" else ["negative", "tuple", "above"]
    how = draw(st.sampled_from(hows))
    at, side = draw(st.integers(0, 10**6)), draw(st.integers(0, 10))
    return kind, n, d, where, mutated(kind, n, d, table, where, how, at, side)


@settings(max_examples=250, deadline=None)
@given(mutants())
def test_a_table_out_of_range_never_escapes(case):
    # a phi map's value is a lattice point, decided by validate_bijective;
    # every other mutation leaves the range and is refused where it is held
    kind, n, d, where, table = case
    made = gate(kind, table, n, d)
    assert isinstance(made, MatchfieldError) or (kind, where) == ("phi-map", "value")


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_call_runs_on_the_valid_objects(kind):
    for n, d, table in KINDS[kind][1]():
        assert not isinstance(gate(kind, table, n, d), MatchfieldError)


# faults found by the gate's mutations before the range was decided where a
# table is held, each with the call it reached: the first four calls never
# returned, the next three answered, and the rest escaped with TypeError or
# IndexError
FOUND = {
    "stack-key-negative": ("matching-stack", (3, 3), "key", "negative", "stack_to_json_dict"),
    "field-mask-negative": ("matching-field", (5, 3), "value", "negative", "flip_graph"),
    "field-key-negative": ("matching-field", (4, 2), "key", "negative", "field_to_json_dict"),
    "phi-key-negative": ("phi-map", (4, 2), "key", "negative", "phi_to_json_dict"),
    "field-mask-above": ("matching-field", (5, 3), "value", "above", "flip_graph"),
    "field-mask-none": ("matching-field", (5, 3), "value", "none", "flip_graph"),
    "field-mask-none-submatchings": (
        "matching-field", (5, 3), "value", "none", "right_submatching_check"),
    "field-mask-negative-submatchings": (
        "matching-field", (5, 3), "value", "negative", "right_submatching_check"),
    "field-mask-above-submatchings": (
        "matching-field", (5, 3), "value", "above", "right_submatching_check"),
    "triangulation-mask-none": ("triangulation", (3, 3), "value", "none", "extract_field"),
    "field-mask-str": ("matching-field", (5, 3), "value", "str", "is_linkage"),
}


@pytest.mark.parametrize("case", FOUND.values(), ids=FOUND.keys())
def test_found_faults_are_refused_where_held(case):
    kind, (n, d), where, how, name = case
    build, sources, calls, _ = KINDS[kind]
    table = next(t for n2, d2, t in sources() if (n2, d2) == (n, d))
    made = bounded(build, n, d, mutated(kind, n, d, table, where, how, 0))
    if not isinstance(made, MatchfieldError):
        bounded(calls[name], made)  # the call the fault reached, bounded
    assert isinstance(made, MatchfieldError)


STACK_KEY_FAULT = "keys must be subset bitmasks of the sides (3, 3)"


def test_a_stack_key_off_the_sides_takes_the_hold_text(tmp_path):
    stack = stacks.stack_from_trees(staircase(3, 3).sorted_trees(), 3, 3)
    for key in [(-1, 0b111), (0, 1 << 3), ((1,), 0b1), 7]:
        with pytest.raises(MatchfieldError) as err:
            MatchingStack(3, 3, {**stack.mask_table, key: 0})
        assert str(err.value) == STACK_KEY_FAULT
    # read from JSON, a member beyond the side keeps its subset a tuple
    data = stacks.stack_to_json_dict(stack)
    data["matchings"]["J:1,9|I:1"] = [[1, 1]]
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(data))
    for command in ("ensemble-check", "complete"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert run([command, str(path)]) == 1
        assert json.loads(err.getvalue()) == {"error": "MatchfieldError", "message": STACK_KEY_FAULT}


def test_a_phi_value_that_is_no_point_is_refused():
    mapping = dict(chow.chow_collection(coherent(4, 2)).phi().mapping)
    for value in [None, 3, "30"]:
        with pytest.raises(matchfield.InconsistentPhiError,
                           match="^phi values must biject onto the lattice points$"):
            PhiMap(4, 2, {**mapping, min(mapping): value})


def test_the_gate_covers_every_exported_entry_point():
    # every exported function whose first parameter holds a table is called
    holders = (core.MaskTable, PhiMap)
    called = {name for _, _, calls, _ in KINDS.values() for name in calls}
    for name in dir(matchfield):
        obj = getattr(matchfield, name)
        if not inspect.isfunction(obj):
            continue
        hints = typing.get_type_hints(obj)
        first = next(iter(inspect.signature(obj).parameters), None)
        hint = hints.get(first)
        if isinstance(hint, type) and issubclass(hint, holders):
            assert name in called, name
