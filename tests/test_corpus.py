
import itertools

import pytest

from unsharp import (
    SizeLimitExceeded,
    corpus_stats,
    enumerate_canonical,
    enumerate_posets,
    filter_pc_sections,
    relative_pseudocomplement,
)
from unsharp import corpus
from unsharp.corpus import _extension_count, _labeled_relations, _relatively_pseudocomplemented
from unsharp.order import Poset

from conftest import (
    corpus_n6_enabled,
    labeled_census,
    naive_canonical,
    naive_corpus_stats,
    naive_labeled_relations,
    naive_order_failure,
    naive_relative_pc,
)


def brute_force_relations(n):
    """All closed order relations on n points by direct filtering; oracle only."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    found = set()
    for choice in range(1 << len(pairs)):
        up = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if choice >> k & 1:
                up[i] |= 1 << j
        rows = tuple(up)
        if naive_order_failure([str(i) for i in range(n)], rows) is None:
            found.add(rows)
    return found


@pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 19), (4, 219)])
def test_generator_matches_brute_force(n, count):
    generated = [P.up for P in enumerate_posets(n)]
    assert len(generated) == len(set(generated)) == count
    assert set(generated) == brute_force_relations(n)


SLOTS = ("labels", "up", "down", "n", "full", "top", "bottom")


def assert_stream_matches_oracle(n):
    """The stream's up rows are the naive generator's, and every poset built
    from the stream's closed rows equals the one the validating constructor
    builds from its labels and up rows, slot by slot."""
    posets = list(enumerate_posets(n))
    assert [P.up for P in posets] == list(naive_labeled_relations(n))
    for P in posets:
        Q = Poset(P.labels, P.up)
        assert [getattr(P, s) for s in SLOTS] == [getattr(Q, s) for s in SLOTS]


@pytest.mark.parametrize("n", range(1, 6))
def test_labeled_stream_matches_naive_oracle(n):
    assert_stream_matches_oracle(n)


@pytest.mark.n6
@pytest.mark.skipif(not corpus_n6_enabled(), reason="set UNSHARP_CORPUS_N6=1 to run the n=6 sweep")
def test_labeled_stream_n6_matches_naive_oracle():
    assert_stream_matches_oracle(6)


def assert_extension_counts_match_stream(k):
    """Each k-point poset's extension count is the length of the run of
    consecutive (k + 1)-point posets whose first k rows, restricted to the
    first k points, are its own."""
    low = (1 << k) - 1
    runs = [
        (parent, len(list(children)))
        for parent, children in itertools.groupby(
            _labeled_relations(k + 1), key=lambda rows: tuple(row & low for row in rows[0][:k])
        )
    ]
    posets = list(_labeled_relations(k))
    assert [parent for parent, _ in runs] == [up for up, _ in posets]
    assert [length for _, length in runs] == [_extension_count(up, down) for up, down in posets]


@pytest.mark.parametrize("k", range(0, 5))
def test_extension_count_matches_stream(k):
    assert_extension_counts_match_stream(k)


@pytest.mark.n6
@pytest.mark.skipif(not corpus_n6_enabled(), reason="set UNSHARP_CORPUS_N6=1 to run the n=6 sweep")
def test_extension_count_k5_matches_stream():
    assert_extension_counts_match_stream(5)


def test_labeled_count_n5():
    seen = set()
    for P in enumerate_posets(5):
        seen.add(P.up)
    assert len(seen) == 4231


def test_generator_soundness():
    for n in range(1, 5):
        for P in enumerate_posets(n):
            assert naive_order_failure(P.labels, P.up) is None
            Poset(P.labels, P.up)  # re-runs the axiom validation


def test_canonical_orbits_reproduce_labeled_counts():
    expected = {1: 1, 2: 3, 3: 19, 4: 219}
    for n, labeled in expected.items():
        reps = list(enumerate_canonical(n))
        assert sum(orbit for _, orbit in reps) == labeled
        encodings = {P.up for P, _ in reps}
        assert len(encodings) == len(reps)


def test_canonical_class_counts():
    # distinct unlabeled orders on 1..5 points (OEIS A000112)
    assert [len(list(enumerate_canonical(n))) for n in range(1, 6)] == [1, 2, 5, 16, 63]


@pytest.mark.parametrize("n", range(1, 6))
def test_canonical_stream_matches_naive_oracle(n):
    stream = [(P.up, orbit) for P, orbit in enumerate_canonical(n)]
    assert stream == list(naive_canonical(n))


@pytest.mark.n6
@pytest.mark.skipif(not corpus_n6_enabled(), reason="set UNSHARP_CORPUS_N6=1 to run the n=6 sweep")
def test_canonical_n6_matches_naive_oracle():
    stream = [(P.up, orbit) for P, orbit in enumerate_canonical(6)]
    assert len(stream) == 318
    assert sum(orbit for _, orbit in stream) == 130023
    assert stream == list(naive_canonical(6))


def test_size_guards():
    with pytest.raises(SizeLimitExceeded):
        list(enumerate_posets(0))
    with pytest.raises(SizeLimitExceeded):
        list(enumerate_posets(8))
    with pytest.raises(SizeLimitExceeded):
        next(enumerate_posets(7))  # needs the explicit opt-in
    gen = enumerate_posets(7, force=True)
    assert next(gen).n == 7


def test_filter_pc_sections_small():
    kept = list(filter_pc_sections(enumerate_posets(2)))
    # of the three labeled two-point posets only the two chains survive
    assert len(kept) == 2
    for P, table in kept:
        assert P.top is not None and len(table.entries) == 3


def test_filter_keeps_crown_drops_topless(crown):
    kept = list(filter_pc_sections([crown]))
    assert len(kept) == 1
    from unsharp import build_from_covers

    v = build_from_covers(["0", "a", "b"], [("0", "a"), ("0", "b")])
    assert list(filter_pc_sections([v])) == []


def test_corpus_stats_small():
    s1 = corpus_stats(1)
    assert (s1.total_posets, s1.with_top, s1.pc_sections, s1.lattices) == (1, 1, 1, 1)
    s3 = corpus_stats(3)
    assert s3.total_posets == 19
    assert s3.pc_sections <= s3.with_top <= s3.total_posets
    assert s3.lattices <= s3.with_top
    s4 = corpus_stats(4)
    assert s4.total_posets == 219


@pytest.mark.parametrize("n", range(1, 6))
def test_corpus_stats_match_naive_census(n):
    assert corpus_stats(n).as_dict() == naive_corpus_stats(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_corpus_stats_by_body_match_labeled_census(n):
    assert corpus_stats(n) == labeled_census(n)


@pytest.mark.parametrize("n", range(2, 6))
def test_corpus_stats_never_streams_n_points(monkeypatch, n):
    # the census counts all n-point posets from their (n - 1)-point bodies;
    # the wrapper also sees the stream's own recursion through the module global
    requested = []
    stream = corpus._labeled_relations

    def recording(k):
        requested.append(k)
        return stream(k)

    monkeypatch.setattr(corpus, "_labeled_relations", recording)
    corpus_stats(n)
    assert requested[0] == n - 1
    assert n not in requested


@pytest.mark.n6
@pytest.mark.skipif(not corpus_n6_enabled(), reason="set UNSHARP_CORPUS_N6=1 to run the n=6 sweep")
def test_corpus_stats_by_body_n6_match_labeled_census():
    assert corpus_stats(6) == labeled_census(6)


@pytest.mark.n6
@pytest.mark.skipif(not corpus_n6_enabled(), reason="set UNSHARP_CORPUS_N6=1 to run the n=6 sweep")
def test_corpus_stats_n7():
    s = corpus_stats(7, force=True)
    assert (s.total_posets, s.with_top, s.pc_sections, s.lattices, s.rel_pc) == (
        6129859, 910161, 704284, 157962, 74550)


def test_rel_pc_census_matches_oracle_with_and_without_top():
    # the census only passes topped posets; the kernel's own top guard is checked here
    topless = 0
    for n in range(1, 5):
        for P in enumerate_posets(n):
            expected = all(
                naive_relative_pc(P, x, y) is not None for x in range(n) for y in range(n)
            )
            assert _relatively_pseudocomplemented(P) == expected, P.up
            topless += P.top is None
    assert topless


def test_relative_pc_implies_pc_sections_empirically():
    # the converse containment: a total relative operator never appears
    # without pseudocomplemented sections on the small corpus
    from unsharp import verify_pseudocomplemented_sections

    for n in range(1, 5):
        for P in enumerate_posets(n):
            if P.top is None:
                continue
            if all(
                relative_pseudocomplement(P, x, y) is not None
                for x in range(P.n)
                for y in range(P.n)
            ):
                report, _ = verify_pseudocomplemented_sections(P)
                assert report.passed, P.up


def test_pc_sections_without_relative_pc_found_at_n5(pc_corpus):
    # the pentagon shape shows up in the labeled sweep: sections are
    # pseudocomplemented while some relative pseudocomplement is missing
    split = [
        P
        for P, _ in pc_corpus
        if P.n == 5
        and any(
            relative_pseudocomplement(P, x, y) is None
            for x in range(P.n)
            for y in range(P.n)
        )
    ]
    assert split
