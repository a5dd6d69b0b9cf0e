import pytest

from cubicsd import construct, dataset, equiv, gf2, perm
from reference import PAPER_AUTB_GENERATORS


def test_table_entry_counts():
    assert dataset.TABLE_SIZES == {1: 5, 2: 20, 3: 121, 4: 118}
    for tid, size in dataset.TABLE_SIZES.items():
        assert len(dataset.table_entries(tid)) == size
    assert len(dataset.table_entries()) == 264


def test_unknown_table_id_is_rejected():
    for bad in (0, 5, 7):
        with pytest.raises(ValueError, match="table id"):
            dataset.table_entries(bad)


def test_one_table_filters_the_one_parse(monkeypatch):
    # A fresh parse, spied: tables.txt is read once for all five calls.
    reads = []
    read = dataset._read

    def spy(name):
        reads.append(name)
        return read(name)

    monkeypatch.setattr(dataset, "_read", spy)
    dataset._all_table_entries.cache_clear()
    entries = dataset.table_entries()
    for tid in dataset.TABLE_SIZES:
        want = tuple(e for e in entries if e.table_id == tid)
        assert dataset.table_entries(tid) == want
    assert reads == ["tables.txt"]


def test_table_entries_validate():
    for entry in dataset.table_entries():
        tau = entry.tau()
        assert tau.degree == 16
        assert entry.expected_aut_order % 3 == 0
        assert entry.expected_aut_order in (3, 6, 12, 24, 48)


def test_base_code_parameters():
    code = gf2.BinaryCode.from_matrix(dataset.gb_matrix())
    assert code.n == 16
    assert code.k == 8
    assert code.is_self_dual()
    assert code.min_distance() == 4
    we = code.weight_enumerator()
    # singly-even: some weight is 2 mod 4
    assert any(we[w] for w in range(2, 17, 4) if w % 4 == 2)


def test_base_generators_preserve_code():
    # The paper's two printed generators preserve B and generate the
    # computed Aut(B), of order 73728.
    code = gf2.BinaryCode.from_matrix(dataset.gb_matrix())
    for g in PAPER_AUTB_GENERATORS:
        assert code.permuted(g.img) == code
    group = dataset.autb_group()
    printed = perm.PermGroup(PAPER_AUTB_GENERATORS, 16)
    assert printed.order() == group.order() == 73728
    assert all(g in printed for g in group.generators)
    assert all(code.permuted(g.img) == code for g in group.generators)


def test_even_part_automorphisms():
    # H_i is the action on the 16 cycles of all of Aut(E_i), whose
    # kernel is <sigma>: |Aut(E_i)| = 3 |H_i|.
    orders = {1: (5760, 1920), 2: (720, 240), 3: (288, 96), 4: (2016, 672)}
    sigma = construct.STANDARD_3_16_0.sigma()
    for i, (order48, order16) in orders.items():
        even = gf2.BinaryCode.from_rows(construct.even_part_rows(i), 48)
        aut = equiv.automorphism_group(even)
        assert aut.order() == order48
        assert sigma in aut
        projected = perm.PermGroup(
            [
                perm.Permutation(tuple(g.img[3 * j] // 3 for j in range(16)))
                for g in aut.generators
            ],
            16,
        )
        h = construct.h_group(i)
        assert h.order() == projected.order() == order16
        assert all(g in projected for g in h.generators)
        assert not any(g.is_identity for g in h.generators)


def test_x_matrices_shape():
    for i in range(1, 5):
        x = dataset.x_matrix(i)
        assert len(x) == 8 and all(len(row) == 8 for row in x)
        gen = dataset.x_generator(i)
        assert len(gen) == 8 and all(len(row) == 16 for row in gen)

