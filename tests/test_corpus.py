
import pytest

from unsharp import (
    SizeLimitExceeded,
    corpus_stats,
    enumerate_canonical,
    enumerate_posets,
    filter_pc_sections,
    relative_pseudocomplement,
)
from unsharp.order import Poset

from conftest import naive_is_poset


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
        if naive_is_poset(rows):
            found.add(rows)
    return found


@pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 19), (4, 219)])
def test_generator_matches_brute_force(n, count):
    generated = [P.up for P in enumerate_posets(n)]
    assert len(generated) == len(set(generated)) == count
    assert set(generated) == brute_force_relations(n)


def test_labeled_count_n5():
    seen = set()
    for P in enumerate_posets(5):
        seen.add(P.up)
    assert len(seen) == 4231


def test_generator_soundness():
    for n in range(1, 5):
        for P in enumerate_posets(n):
            assert naive_is_poset(P.up)
            Poset(P.labels, P.up)  # re-runs the axiom validation


def test_canonical_orbits_reproduce_labeled_counts():
    expected = {1: 1, 2: 3, 3: 19, 4: 219}
    for n, labeled in expected.items():
        reps = list(enumerate_canonical(n))
        assert sum(orbit for _, orbit in reps) == labeled
        encodings = {P.up for P, _ in reps}
        assert len(encodings) == len(reps)


def test_canonical_class_counts():
    # distinct unlabeled orders on 1..4 points, derived from the same sweep
    assert [len(list(enumerate_canonical(n))) for n in range(1, 5)] == [1, 2, 5, 16]


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
        assert P.top is not None and len(table) == 3


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
