import pytest
from hypothesis import given, settings, strategies as st

from unsharp import (
    AXIOMS,
    DuplicateLabel,
    IAlgebra,
    NonSingletonSection,
    NotAntisymmetric,
    NotPseudocomplementedSections,
    NotTransitive,
    OrderAxiomFailure,
    Poset,
    PosetError,
    SectionMismatch,
    UnknownLabel,
    algebra_of,
    axioms_report,
    build_from_covers,
    poset_of,
    roundtrip_check,
    section_table,
)
from unsharp.order import iter_bits

from conftest import naive_axioms, naive_rebuild
from reference_tables import CROWN_IMP, CROWN_TAIL_IMP, PENTAGON_IMP


def arrow_labels(A):
    out = []
    for row in A.arrow:
        cells = []
        for cell in row:
            labs = [A.labels[i] for i in sorted(cell)]
            cells.append(labs[0] if len(labs) == 1 else "{" + ",".join(labs) + "}")
        out.append(cells)
    return out


def test_algebra_of_matches_reference_tables(pentagon, crown, crown_tail):
    assert arrow_labels(algebra_of(pentagon)) == PENTAGON_IMP
    assert arrow_labels(algebra_of(crown)) == CROWN_IMP
    assert arrow_labels(algebra_of(crown_tail)) == CROWN_TAIL_IMP
    assert algebra_of(pentagon).unit == pentagon.top


def test_algebra_of_requires_sections(m3):
    with pytest.raises(NotPseudocomplementedSections):
        algebra_of(m3)


def test_axioms_pass_on_reference_posets(pentagon, crown, crown_tail, singleton):
    for P in (pentagon, crown, crown_tail, singleton):
        report = axioms_report(algebra_of(P))
        assert [v.law for v in report.verdicts] == list(AXIOMS)
        assert report.passed, report.failures()


def test_one_element_algebra():
    A = IAlgebra(("u",), ((frozenset((0,)),),), 0)
    assert axioms_report(A).passed
    P, table = poset_of(A)
    assert P.n == 1 and table.entries == {(0, 0): 0}


def test_antisymmetry_mutation_witness(crown_tail):
    A = algebra_of(crown_tail)
    a, zero, unit = A.index("a"), A.index("0"), A.unit
    assert A.arrow[a][zero] == frozenset((A.index("c"),))
    mutant = A.with_cell(a, zero, {unit})
    report = axioms_report(mutant)
    bad = report.verdict("antisymmetry")
    assert not bad.passed
    assert set(bad.witness) == {"a", "0"}


def test_minimality_mutation(pentagon):
    # sending the (b,c) cell to the unit keeps the induced relation an order,
    # so rejection comes from the minimality axiom, not transitivity
    A = algebra_of(pentagon)
    b, c = A.index("b"), A.index("c")
    mutant = A.with_cell(b, c, {A.unit})
    report = axioms_report(mutant)
    assert not report.passed
    assert not report.verdict("minimality").passed
    for law in ("unit", "antisymmetry", "transitivity"):
        assert report.verdict(law).passed


def test_poset_of_inverts_algebra_of(pentagon, crown, crown_tail):
    for P in (pentagon, crown, crown_tail):
        back, table = poset_of(algebra_of(P))
        assert back == P
        assert table.entries == section_table(P).entries


def test_poset_of_rejects_non_transitive_relation():
    # 3-chain arrows with the composite pair cut: p <= q <= r but not p <= r
    labs = ("p", "q", "r")
    unit = 2
    one = frozenset((unit,))

    def cell(x, y):
        if x == y:
            return one
        return frozenset((y,))

    rows = [[cell(x, y) for y in range(3)] for x in range(3)]
    rows[0][1] = one
    rows[1][2] = one
    rows[0][2] = frozenset((0,))  # breaks transitivity at (p,q,r)
    with pytest.raises(OrderAxiomFailure):
        poset_of(IAlgebra(labs, tuple(tuple(r) for r in rows), unit))


def test_poset_of_rejects_non_singleton_section(pentagon):
    A = algebra_of(pentagon)
    c, a = A.index("c"), A.index("a")
    mutant = A.with_cell(c, a, {a, A.index("b")})
    with pytest.raises(NonSingletonSection):
        poset_of(mutant)


def test_axioms_are_necessary_but_not_sufficient():
    # the 2-chain b < a with a -> b = {a, b}: all six axioms pass, and only
    # poset_of rejects the table
    A = algebra_of(build_from_covers(["b", "a"], [("b", "a")]))
    a, b = A.index("a"), A.index("b")
    mutant = A.with_cell(a, b, {a, b})
    assert axioms_report(mutant).passed
    with pytest.raises(NonSingletonSection, match=r"^cell \(a,b\) must be a singleton$"):
        poset_of(mutant)


def test_poset_of_rejects_section_mismatch(pentagon):
    A = algebra_of(pentagon)
    c, zero = A.index("c"), A.index("0")
    # c^0 is b; claim 0 instead, which the rebuilt order contradicts
    mutant = A.with_cell(c, zero, {zero})
    with pytest.raises(SectionMismatch):
        poset_of(mutant)


def test_poset_of_needs_only_structural_axioms(pentagon, crown):
    # the reconstruction axiom is not consulted on the way back
    for P in (pentagon, crown):
        A = algebra_of(P)
        assert all(v.passed for v in axioms_report(A).verdicts[:5])
        back, _ = poset_of(A)
        assert back == P


def test_roundtrip_reports(pentagon, crown, crown_tail, singleton):
    for P in (pentagon, crown, crown_tail, singleton):
        assert roundtrip_check(P).passed
        assert roundtrip_check(algebra_of(P)).passed
    with pytest.raises(TypeError):
        roundtrip_check("not a poset")


def test_roundtrip_reports_arrow_divergence(pentagon):
    # a and b are incomparable, so poset_of never inspects the (b,a) cell;
    # only the roundtrip comparison can notice the edit
    A = algebra_of(pentagon)
    b, a = A.index("b"), A.index("a")
    mutant = A.with_cell(b, a, {a, A.unit})
    report = roundtrip_check(mutant)
    assert not report.passed
    assert not report.verdict("arrow").passed


def test_index_rejects_unknown_label(pentagon):
    A = algebra_of(pentagon)
    assert A.index(pentagon.labels[2]) == 2
    with pytest.raises(UnknownLabel):
        A.index("nowhere")


def single_cell_mutants(A):
    """Every table that differs from ``A`` in at most one cell."""
    for x in range(A.n):
        for y in range(A.n):
            for cell in range(1, 1 << A.n):
                yield A.with_cell(x, y, iter_bits(cell))


def test_axioms_match_oracle_on_single_cell_mutants(pc_corpus):
    for P, _ in pc_corpus:
        if P.n > 4:
            continue
        for M in single_cell_mutants(algebra_of(P)):
            assert axioms_report(M, all_witnesses=True).verdicts == naive_axioms(M)


def rebuild_outcome(rebuild, A):
    """The rebuilt order and its entries in scan order, or the error raised."""
    try:
        P, table = rebuild(A)
    except PosetError as exc:
        return type(exc), str(exc)
    return P.labels, P.up, list(table.entries.items())


def test_rebuild_matches_oracle_on_single_cell_mutants(pc_corpus):
    for P, _ in pc_corpus:
        if P.n > 4:
            continue
        for M in single_cell_mutants(algebra_of(P)):
            assert rebuild_outcome(poset_of, M) == rebuild_outcome(naive_rebuild, M)


def test_rebuild_order_failures_are_the_constructors(pc_corpus):
    # one message family: the checked Poset constructor's, or the unit check's
    seen = set()
    for P, _ in pc_corpus:
        if P.n > 4:
            continue
        for M in single_cell_mutants(algebra_of(P)):
            error, message = rebuild_outcome(poset_of, M)[:2]
            if error is not OrderAxiomFailure:
                continue
            try:
                Poset(M.labels, M.up)
            except (ValueError, NotAntisymmetric, NotTransitive) as exc:
                expected = str(exc)
                seen.add(type(exc))
            else:
                below = [x for x in range(M.n) if not M.up[x] >> M.unit & 1]
                expected = f"unit is not above {M.labels[below[0]]}"
                seen.add("unit")
            assert message == expected
    assert seen == {ValueError, NotAntisymmetric, NotTransitive, "unit"}


def test_poset_of_returns_the_rebuilt_posets_own_table(pc_corpus):
    # one table per rebuilt poset: the complete one its sections settled
    for P, _ in pc_corpus:
        if P.n > 4:
            continue
        back, table = poset_of(algebra_of(P))
        assert table is section_table(back)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rebuild_matches_oracle_on_multi_cell_mutants(pc_corpus, data):
    P, _ = data.draw(st.sampled_from(pc_corpus))
    A = algebra_of(P)
    n = A.n
    # mostly singletons, the values a cell below the diagonal must take
    cell = st.one_of(
        st.integers(0, n - 1).map(lambda v: 1 << v), st.just(1 << A.unit),
        st.integers(1, (1 << n) - 1),
    )
    edits = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), cell), min_size=2, max_size=6
    ))
    rows = [list(row) for row in A.cells]
    for x, y, mask in edits:
        rows[x][y] = mask
    M = IAlgebra.from_cells(A.labels, rows, A.unit)
    assert rebuild_outcome(poset_of, M) == rebuild_outcome(naive_rebuild, M)


@st.composite
def arrow_tables(draw):
    """Arbitrary n x n tables of non-empty cells on 5-9 points, mostly {unit} cells."""
    n = draw(st.integers(5, 9))
    unit = draw(st.integers(0, n - 1))
    cell = st.one_of(
        st.just(1 << unit), st.just(1 << unit), st.integers(1, (1 << n) - 1)
    )
    rows = tuple(
        tuple(frozenset(iter_bits(draw(cell))) for _ in range(n)) for _ in range(n)
    )
    return IAlgebra(tuple(f"e{i}" for i in range(n)), rows, unit)


@settings(max_examples=40, deadline=None)
@given(arrow_tables())
def test_axioms_match_oracle_on_random_tables(A):
    assert axioms_report(A, all_witnesses=True).verdicts == naive_axioms(A)


def test_from_cells_validates_like_the_constructor():
    labels = ("a", "b")
    one = frozenset((1,))

    def table(bad_cell, bad_mask):
        # a two-point chain a < b whose cell (b, a) is replaced
        return ((one, one), (bad_cell, one)), ((2, 2), (bad_mask, 2))

    good = table(frozenset((0,)), 1)
    cases = [
        (("a", "a"), *good, 1),
        (labels, *good, 2),
        (labels, good[0][:1], good[1][:1], 1),
        (labels, *table(frozenset(), 0), 1),
        (labels, *table(frozenset((2,)), 4), 1),
        (labels, *table(frozenset((-1,)), -1), 1),
    ]
    for labs, sets, masks, unit in cases:
        errors = []
        for build, rows in ((IAlgebra, sets), (IAlgebra.from_cells, masks)):
            with pytest.raises((ValueError, DuplicateLabel)) as exc:
                build(labs, rows, unit)
            errors.append((type(exc.value), str(exc.value)))
        assert errors[0] == errors[1], (labs, sets, unit)
    A = IAlgebra(labels, good[0], 1)
    assert A.cells == good[1]
    for bad in (frozenset(), frozenset((2,)), frozenset((-1,))):
        with pytest.raises(ValueError, match="^arrow cells must be non-empty carrier subsets$"):
            A.with_cell(1, 0, bad)
    assert IAlgebra.from_cells(labels, [list(row) for row in good[1]], 1) == A


@pytest.mark.parametrize("cell", [5, {"a"}, [0.0], [[0]]])
def test_a_cell_that_is_no_set_of_indices_is_a_value_error(cell):
    with pytest.raises(ValueError, match="^arrow cells must be non-empty carrier subsets$"):
        IAlgebra(["a"], [[cell]], 0)
    A = IAlgebra(["a"], [[{0}]], 0)
    with pytest.raises(ValueError, match="^arrow cells must be non-empty carrier subsets$"):
        A.with_cell(0, 0, cell)


def test_a_repeated_member_counts_once():
    one = frozenset((1,))
    A = IAlgebra(["a", "b"], [[one, one], [[0, 0], one]], 1)
    assert A.arrow == ((one, one), (frozenset((0,)), one))


def test_labels_are_checked_and_kept_as_a_tuple():
    one = frozenset((1,))
    arrow = ((one, one), (frozenset((0,)), one))
    cells = ((2, 2), (1, 2))
    for build, rows in ((IAlgebra, arrow), (IAlgebra.from_cells, cells)):
        A = build(["a", "b"], rows, 1)
        assert A.labels == ("a", "b")
        assert A == build(("a", "b"), rows, 1)
        assert hash(A) == hash(build(("a", "b"), rows, 1))
        for labels in (["", "b"], [3, "b"], ["a", b"b"]):
            with pytest.raises(ValueError, match="^labels must be non-empty strings$"):
                build(labels, rows, 1)
        with pytest.raises(DuplicateLabel, match="^duplicate label 'a'$"):
            build(["a", "a"], rows, 1)
