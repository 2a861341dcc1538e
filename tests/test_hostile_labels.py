"""Hostile labels either build or raise the documented error, never a bare TypeError.

The label check (``checked_labels``) and the constructors that share it
(``Poset``, ``IAlgebra``) accept every non-empty string seen once and
name the first offender otherwise: ``ValueError`` for a label that is not
a non-empty string, ``DuplicateLabel`` for a repeat.  The file parser
also rejects ``-`` alone, the reserved characters ``<{},`` and any
non-printable character with a ``ParseError``; whitespace (including
U+0085 and U+2028) separates labels.
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
