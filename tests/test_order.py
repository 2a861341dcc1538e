import random

import pytest
from hypothesis import given, settings, strategies as st

from unsharp import (
    CycleDetected,
    DuplicateLabel,
    NotAntisymmetric,
    NotTransitive,
    UnknownLabel,
    build_from_covers,
    build_from_relation,
    cover_relation,
    enumerate_posets,
    is_lattice,
)
from unsharp.order import Poset, checked_labels, greatest_outside, iter_bits

from conftest import (
    naive_closure,
    naive_greatest,
    naive_greatest_outside,
    naive_is_lattice,
    naive_least,
    naive_lower,
    naive_max,
    naive_min,
    naive_order_failure,
    naive_upper,
)


@st.composite
def posets(draw, max_n=6, min_n=1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    labels = [f"x{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    covers = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_from_covers(labels, covers)


def test_build_from_covers_pentagon(pentagon):
    b, c = pentagon.index("b"), pentagon.index("c")
    one = pentagon.index("1")
    assert pentagon.le(b, one)
    assert not pentagon.le(b, c)
    assert pentagon.top == one
    assert pentagon.bottom == pentagon.index("0")


def test_build_singleton():
    P = build_from_covers(["x"], [])
    assert P.n == 1 and P.le(0, 0) and P.top == 0 == P.bottom


def test_build_cycle_detected():
    with pytest.raises(CycleDetected):
        build_from_covers(["p", "q"], [("p", "q"), ("q", "p")])


def test_build_duplicate_and_unknown_labels():
    with pytest.raises(DuplicateLabel):
        build_from_covers(["p", "p"], [])
    with pytest.raises(UnknownLabel):
        build_from_covers(["p"], [("p", "q")])


def test_label_errors_name_the_first_offender():
    with pytest.raises(DuplicateLabel, match=r"^duplicate label 'b'$"):
        Poset(["a", "b", "b", "a"], [1, 2, 4, 8])
    with pytest.raises(DuplicateLabel, match=r"^duplicate label 'a'$"):
        Poset(["a", "b", "a", "b"], [1, 2, 4, 8])
    with pytest.raises(DuplicateLabel, match=r"^duplicate label 'a'$"):
        Poset(["a", "a", ""], [1, 2, 4])
    with pytest.raises(ValueError, match=r"^labels must be non-empty strings$"):
        Poset(["a", "", "a"], [1, 2, 4])
    with pytest.raises(ValueError, match=r"^labels must be non-empty strings$"):
        Poset(["a", ""], [1, 2])


def test_builders_check_labels_before_their_pairs():
    # an empty label is named before a later duplicate, and before any pair is read
    assert checked_labels(["a", "b"]) == ("a", "b")
    for build in (build_from_covers, build_from_relation):
        with pytest.raises(ValueError, match=r"^labels must be non-empty strings$"):
            build(["a", "", "a"], [("a", "q")])
        with pytest.raises(DuplicateLabel, match=r"^duplicate label 'a'$"):
            build(["a", "a", ""], [("a", "q")])
        with pytest.raises(ValueError, match=r"^a poset needs at least one element$"):
            build([], [])


def test_checked_constructor_names_the_first_broken_axiom():
    # seeded rows on 1-7 points that are mostly not closed: dense rows break
    # antisymmetry first, sparse ones transitivity, a missing diagonal bit
    # reflexivity; closed rows come out as given
    rng = random.Random(20212)
    seen = set()
    for trial in range(3000):
        n = rng.randint(1, 7)
        labels = [f"q{i}" for i in range(n)]
        density = (0.05, 0.15, 0.4)[trial % 3]
        up = [sum(1 << j for j in range(n) if j == i or rng.random() < density)
              for i in range(n)]
        if rng.random() < 0.05:
            up[rng.randrange(n)] &= ~(1 << rng.randrange(n))
        expected = naive_order_failure(labels, up)
        seen.add(expected and expected[0])
        if expected is None:
            assert Poset(labels, up).up == tuple(up)
            continue
        with pytest.raises(expected[0]) as got:
            Poset(labels, up)
        assert (type(got.value), str(got.value)) == expected
    assert seen == {None, ValueError, NotAntisymmetric, NotTransitive}


def test_construction_matches_naive_recomputation():
    for n in range(1, 6):
        for P in enumerate_posets(n):
            for Q in (P, Poset(P.labels, P.up)):
                down = tuple(
                    sum(1 << i for i in range(n) if Q.up[i] >> j & 1) for j in range(n)
                )
                assert Q.down == down
                assert Q.top == naive_greatest(Q, range(n))
                assert Q.bottom == naive_least(Q, range(n))
                assert all(Q.index(lab) == i for i, lab in enumerate(Q.labels))


def test_bounds_of_every_subset_match_naive():
    for n in range(1, 5):
        for P in enumerate_posets(n):
            for mask in range(1 << n):
                elems = P.set_of(mask)
                assert P.greatest_of(mask) == naive_greatest(P, elems)
                assert P.least_of(mask) == naive_least(P, elems)


def test_set_of_rejects_a_mask_outside_the_carrier():
    # a negative mask would alias a byte of the bit table, a high bit a point past the carrier
    P = build_from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert [P.set_of(mask) for mask in (0, 5, P.full)] == [(), (0, 2), (0, 1, 2)]
    for mask in (-1, -300, P.full + 1, 1 << 5):
        with pytest.raises(ValueError, match=f"^mask {mask} out of range$"):
            P.set_of(mask)


def test_greatest_outside_matches_naive():
    for n in range(1, 5):
        for P in enumerate_posets(n):
            for base in range(1 << n):
                for seeds in range(1 << n):
                    assert greatest_outside(base, seeds, P.up, P.down) == naive_greatest_outside(
                        P, P.set_of(base), P.set_of(seeds)
                    )


def test_build_from_relation_matches_closure(crown):
    pairs = [
        (crown.labels[i], crown.labels[j])
        for i in range(crown.n)
        for j in range(crown.n)
        if i != j and crown.le(i, j)
    ]
    assert build_from_relation(crown.labels, pairs) == crown


def test_build_from_relation_antichain():
    P = build_from_relation(["a", "b", "c"], [])
    assert all(not P.le(i, j) for i in range(3) for j in range(3) if i != j)
    assert P.top is None and P.bottom is None


def test_build_from_relation_rejects_non_transitive():
    with pytest.raises(NotTransitive):
        build_from_relation(["a", "b", "c"], [("a", "b"), ("b", "c")])
    with pytest.raises(NotAntisymmetric):
        build_from_relation(["a", "b"], [("a", "b"), ("b", "a")])


def lower(P, elems):
    return P.set_of(P.lower_mask(P.mask_of(elems)))


def upper(P, elems):
    return P.set_of(P.upper_mask(P.mask_of(elems)))


def minimal(P, elems):
    return P.set_of(P.min_mask(P.mask_of(elems)))


def maximal(P, elems):
    return P.set_of(P.max_mask(P.mask_of(elems)))


def test_cone_examples(crown, crown_tail):
    a, b = crown.index("a"), crown.index("b")
    assert crown.labels_of(upper(crown, [a, b])) == ("c", "d", "1")
    d, e = crown_tail.index("d"), crown_tail.index("e")
    assert crown_tail.labels_of(lower(crown_tail, [d, e])) == ("0", "a", "b", "c")


def test_cone_of_top_and_empty(pentagon):
    top = pentagon.top
    assert lower(pentagon, [top]) == tuple(range(pentagon.n))
    assert lower(pentagon, []) == tuple(range(pentagon.n))
    assert upper(pentagon, []) == tuple(range(pentagon.n))


def test_extremes_examples(crown):
    cd1 = [crown.index(l) for l in "cd1"]
    assert crown.labels_of(minimal(crown, cd1)) == ("c", "d")
    chain = [crown.index(l) for l in ("0", "a", "c")]
    assert crown.labels_of(minimal(crown, chain)) == ("0",)
    assert crown.labels_of(maximal(crown, chain)) == ("c",)
    antichain = [crown.index("a"), crown.index("b")]
    assert set(minimal(crown, antichain)) == set(antichain)
    assert maximal(crown, []) == ()


def test_bound_of_pair(pentagon, crown):
    a, b = crown.index("a"), crown.index("b")
    assert crown.join(a, b) is None
    assert crown.join(a, crown.top) == crown.top
    assert crown.meet(a, b) == crown.bottom
    pa, pb = pentagon.index("a"), pentagon.index("b")
    assert pentagon.join(pa, pb) == pentagon.top
    assert pentagon.meet(pa, pb) == pentagon.bottom
    for P in (pentagon, crown):
        for x in range(P.n):
            for y in range(P.n):
                assert P.join(x, y) == naive_least(P, naive_upper(P, [x, y]))
                assert P.meet(x, y) == naive_greatest(P, naive_lower(P, [x, y]))


def test_is_lattice(pentagon, crown):
    assert is_lattice(pentagon)
    assert not is_lattice(crown)
    chain = build_from_covers(["0", "m", "1"], [("0", "m"), ("m", "1")])
    assert is_lattice(chain)


def test_is_lattice_matches_naive_bounds():
    for n in range(1, 6):
        for P in enumerate_posets(n):
            assert is_lattice(P) == naive_is_lattice(P), P.up


def test_cover_relation_examples(pentagon):
    assert set(cover_relation(pentagon)) == {
        ("0", "a"), ("0", "b"), ("a", "c"), ("c", "1"), ("b", "1"),
    }
    antichain = build_from_relation(["a", "b"], [])
    assert cover_relation(antichain) == []
    chain = build_from_covers(["x", "y", "z"], [("x", "y"), ("y", "z")])
    assert set(cover_relation(chain)) == {("x", "y"), ("y", "z")}


def test_restrict(crown_tail):
    keep = [crown_tail.index(l) for l in ("0", "b", "c", "1")]
    sub = crown_tail.restrict(keep)
    assert sub.labels == ("0", "b", "c", "1")
    assert sub.le(sub.index("0"), sub.index("b"))
    assert not sub.le(sub.index("b"), sub.index("c"))


@settings(max_examples=150)
@given(posets())
def test_closure_reduction_round_trip(P):
    assert build_from_covers(P.labels, cover_relation(P)) == P


@settings(max_examples=100)
@given(posets(), st.data())
def test_cones_match_oracle(P, data):
    elems = data.draw(st.lists(st.integers(0, P.n - 1), max_size=P.n, unique=True))
    assert set(lower(P, elems)) == naive_lower(P, elems)
    assert set(upper(P, elems)) == naive_upper(P, elems)
    assert set(minimal(P, elems)) == naive_min(P, elems)
    assert set(maximal(P, elems)) == naive_max(P, elems)


@settings(max_examples=100)
@given(posets(), st.data())
def test_cone_antitone_and_galois(P, data):
    small = data.draw(st.lists(st.integers(0, P.n - 1), max_size=P.n, unique=True))
    extra = data.draw(st.lists(st.integers(0, P.n - 1), max_size=P.n, unique=True))
    big = sorted(set(small) | set(extra))
    assert set(lower(P, big)) <= set(lower(P, small))
    assert set(upper(P, big)) <= set(upper(P, small))
    # closure: A <= L(U(A)) and L(U(L(A))) = L(A)
    assert set(small) <= set(lower(P, upper(P, small)))
    assert lower(P, upper(P, lower(P, small))) == lower(P, small)


@settings(max_examples=100)
@given(posets())
def test_lu_of_point_is_l(P):
    for a in range(P.n):
        assert lower(P, upper(P, [a])) == lower(P, [a])


@settings(max_examples=100)
@given(posets())
def test_min_of_upper_cone_nonempty_with_top(P):
    if P.top is None:
        return
    for x in range(P.n):
        for y in range(P.n):
            assert minimal(P, upper(P, [x, y])) != ()


def test_iter_bits_matches_naive_bit_list():
    # every one- and two-byte mask, then both sides of the two-byte limit
    for mask in range(1 << 16):
        assert iter_bits(mask) == tuple(b for b in range(16) if mask >> b & 1)
    for mask in ((1 << 16) - 1, 1 << 16, (1 << 16) + 1, (1 << 64) | 1, 3 << 63,
                 (1 << 130) - 1, 0xA5 << 200 | 1 << 77 | 6):
        assert iter_bits(mask) == tuple(b for b in range(mask.bit_length()) if mask >> b & 1)


def test_build_from_covers_matches_fixpoint_closure():
    # seeded cover lists on 1-16 points: an order-respecting half (no cycle
    # unless a reversed pair is mixed in) and a free half, both with
    # repeated pairs and p<p items
    rng = random.Random(20211)
    for trial in range(600):
        n = rng.randint(1, 16)
        labels = [f"p{i}" for i in range(n)]
        rank = rng.sample(range(n), n)
        covers = []
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            if trial % 2 == 0 and rank[a] > rank[b] and rng.random() < 0.9:
                a, b = b, a
            covers.append((labels[a], labels[b]))
        covers += rng.sample(covers, min(len(covers), 2))
        covers += [(labels[p], labels[p]) for p in rng.sample(range(n), min(n, 2))]
        rng.shuffle(covers)
        try:
            expected = naive_closure(labels, covers)
        except CycleDetected as exc:
            with pytest.raises(CycleDetected) as got:
                build_from_covers(labels, covers)
            assert str(got.value) == str(exc)
        else:
            assert build_from_covers(labels, covers).up == expected
