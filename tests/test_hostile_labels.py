"""Hostile labels, rows and units either build or raise the documented
error, never a bare TypeError.

The label check (``checked_labels``) and the constructors that share it
(``Poset``, ``IAlgebra``) accept every non-empty string seen once and
name the first offender otherwise: ``ValueError`` for a label that is not
a non-empty string, ``DuplicateLabel`` for a repeat.  ``Poset`` names
the first row that is not an ``int`` before it checks any row, and both
``IAlgebra`` constructors reject a unit that is not an ``int`` index of
the carrier (a ``bool`` included) as "unit must be a carrier element".
The element-index readers of both structures name an index that is not
an ``int`` (a ``bool`` included) before they check its range.
The file parser also rejects ``-`` alone, the reserved characters
``<{},`` and any non-printable character with a ``ParseError``;
whitespace (including U+0085 and U+2028) separates labels.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from unsharp import DuplicateLabel, IAlgebra, ParseError, Poset, PosetError
from unsharp.cli import parse_poset_file
from unsharp.order import checked_labels

RESERVED = frozenset("<{},")

hostile_strings = st.one_of(
    st.text(max_size=4),  # any code point: controls, format characters, separators
    st.sampled_from(["", "-", "a", "b", "a<b", "{", "}", "a,b", "x\x00y", "\x01", "\x7f",
                     "x\x85y", "\u200b", "#", "x\ny", '"', "\\"]),
)
non_strings = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.binary(max_size=2),
    st.lists(st.text(max_size=1), max_size=1), st.tuples(st.text(max_size=1)),
)
label_lists = st.lists(st.one_of(hostile_strings, non_strings), min_size=1, max_size=5)
non_ints = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=2),
    st.binary(max_size=2), st.lists(st.integers(0, 3), max_size=2),
)


def documented_error(labels) -> tuple[type, str] | None:
    """The error the label check names for ``labels``, or None when they pass."""
    for i, lab in enumerate(labels):
        if not isinstance(lab, str) or not lab:
            return ValueError, "labels must be non-empty strings"
        if lab in labels[:i]:
            return DuplicateLabel, f"duplicate label {lab!r}"
    return None


def outcome(build, labels):
    """The labels ``build(labels)`` keeps, or the type and message of its error;
    any other exception, a bare TypeError included, fails the test."""
    try:
        return build(labels)
    except (ValueError, PosetError) as exc:
        return type(exc), str(exc)


BUILDERS = {
    "checked_labels": checked_labels,
    "Poset": lambda labels: Poset(labels, [1 << i for i in range(len(labels))]).labels,
    "IAlgebra": lambda labels: IAlgebra(labels, [[{0}] * len(labels)] * len(labels), 0).labels,
}


@settings(max_examples=150, deadline=None)
@given(label_lists)
def test_constructors_build_or_name_the_first_bad_label(labels):
    want = documented_error(labels) or tuple(labels)
    for name, build in BUILDERS.items():
        assert outcome(build, labels) == want, name


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.integers(-1, 7), non_ints), min_size=1, max_size=3))
def test_poset_names_the_first_row_that_is_no_int(rows):
    labels = [f"e{i}" for i in range(len(rows))]
    got = outcome(lambda labels: Poset(labels, rows).up, labels)
    bad = [i for i, row in enumerate(rows) if type(row) is not int]
    if bad:
        assert got == (ValueError, f"row {bad[0]} is not an integer")
    elif not isinstance(got[0], type):
        assert got == tuple(rows)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(-2, 3), non_ints))
def test_algebra_rejects_a_unit_that_is_no_carrier_index(unit):
    labels = ["a", "b"]
    for build, rows in ((IAlgebra, [[{0}, {0}], [{1}, {0, 1}]]),
                        (IAlgebra.from_cells, [[1, 1], [2, 3]])):
        got = outcome(lambda labels: build(labels, rows, unit).unit, labels)
        if type(unit) is int and 0 <= unit < len(labels):
            assert got == unit
        else:
            assert got == (ValueError, "unit must be a carrier element")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.integers(-2, 3), non_ints), min_size=1, max_size=3))
def test_index_readers_take_only_int_carrier_indices(elems):
    P = Poset(["a", "b"], [3, 2])
    A = IAlgebra(["a", "b"], [[{1}, {1}], [{0}, {1}]], 1)
    readers = {
        "Poset.mask_of": P.mask_of,
        "Poset.labels_of": P.labels_of,
        "IAlgebra.labels_of": A.labels_of,
        "Poset.le": lambda elems: [P.le(e, e) for e in elems],
        "IAlgebra.with_cell": lambda elems: [A.with_cell(e, e, {1}).cells[e][e] for e in elems],
    }
    # the first index that is no int carrier index, if any, is the one named
    bad = [e for e in elems if type(e) is not int or not 0 <= e < 2][:1]
    if not bad:
        want = None
    elif type(bad[0]) is not int:
        want = (ValueError, f"element index {bad[0]!r} is not an integer")
    else:
        want = (ValueError, f"element index {bad[0]} out of range")
    for name, read in readers.items():
        got = outcome(read, elems)
        if want is None:
            assert not (isinstance(got, tuple) and isinstance(got[0], type)), name
        else:
            assert got == want, name


def plain(label: str) -> bool:
    """Whether ``label`` reaches the parser as one whole token of its line."""
    return label.split() == [label] and "#" not in label


def parsed_outcome(labels):
    """What parsing and building ``labels`` as one document must give, when
    each is a plain token: the first bad token's ParseError on line 2,
    else the first duplicate at the header, else the labels."""
    for lab in labels:
        if lab == "-" or not RESERVED.isdisjoint(lab):
            return ParseError, f"line 2: bad label {lab!r} (no '-', '<', '{{', '}}' or ',')"
        if not lab.isprintable():
            return ParseError, f"line 2: bad label {lab!r} (a non-printable character)"
    error = documented_error(labels)
    return (error[0], f"line 1: {error[1]}") if error else tuple(labels)


@settings(max_examples=150, deadline=None)
@given(st.lists(hostile_strings, min_size=1, max_size=5))
def test_parser_builds_or_rejects_hostile_labels(labels):
    text = "poset p\nelements: " + " ".join(labels) + "\n"
    got = outcome(lambda _: parse_poset_file(text)[0].build().labels, labels)
    if all(map(plain, labels)):
        assert got == parsed_outcome(labels)
    elif isinstance(got[0], type):
        assert issubclass(got[0], PosetError), got
    else:
        # whatever the tokens became, every label that built is printable
        # and holds nothing the table syntax reserves
        assert all(lab.isprintable() and lab != "-" and RESERVED.isdisjoint(lab)
                   for lab in got)
