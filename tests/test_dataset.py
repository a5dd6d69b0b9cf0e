import pytest

from cubicsd import construct, dataset, equiv, gf2, perm


def test_table_entry_counts():
    assert dataset.TABLE_SIZES == {1: 5, 2: 20, 3: 121, 4: 118}
    for tid, size in dataset.TABLE_SIZES.items():
        assert len(dataset.table_entries(tid)) == size
    assert len(dataset.table_entries()) == 264


def test_unknown_table_id_is_rejected():
    for bad in (0, 5, 7):
        with pytest.raises(ValueError, match="table id"):
            dataset.table_entries(bad)


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
    code = gf2.BinaryCode.from_matrix(dataset.gb_matrix())
    for g in dataset.autb_generators():
        assert code.permuted(g.img) == code


def test_even_part_automorphisms():
    orders = {1: (5760, 1920), 2: (720, 240), 3: (288, 96), 4: (2016, 672)}
    for i, (order48, order16) in orders.items():
        even = gf2.BinaryCode.from_rows(construct.even_part_rows(i), 48)
        gens = dataset.aute_generators(i)
        for g in gens:
            assert even.permuted(g.img) == even
            for j in range(16):
                assert {g.img[3 * j + k] // 3 for k in range(3)} == {
                    g.img[3 * j] // 3
                }
        assert perm.PermGroup(gens, 48).order() == order48
        assert equiv.automorphism_group(even).order() == order48
        assert dataset.h_group(i).order() == order16


def test_x_matrices_shape():
    for i in range(1, 5):
        x = dataset.x_matrix(i)
        assert len(x) == 8 and all(len(row) == 8 for row in x)
        gen = dataset.x_generator(i)
        assert len(gen) == 8 and all(len(row) == 16 for row in gen)

