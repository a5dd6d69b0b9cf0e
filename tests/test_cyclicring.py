import random
from itertools import product

import pytest

from cubicsd import cyclicring as cr
from cubicsd import dataset, gf2
from cubicsd.cyclicring import PolyP


def test_gf4_field_axioms():
    for a in range(4):
        assert cr.gf4_mul(a, 1) == a
        if a:
            assert sorted(cr.gf4_mul(a, b) for b in range(4)) == [0, 1, 2, 3]
    assert cr.gf4_mul(2, 2) == 3  # omega^2
    assert cr.gf4_mul(2, 3) == 1  # omega * omega^2 = 1


def test_gf4_conjugation():
    assert [cr.gf4_conj(a) for a in range(4)] == [0, 1, 3, 2]
    for a in range(4):
        assert cr.gf4_conj(cr.gf4_conj(a)) == a


def test_gf4_matrix_parse_roundtrip():
    text = "0 1 w W\n1 1 0 w"
    rows = cr.parse_gf4_matrix(text)
    assert rows == [[0, 1, 2, 3], [1, 1, 0, 2]]
    with pytest.raises(ValueError):
        cr.parse_gf4_matrix("0 1\n1")
    with pytest.raises(ValueError):
        cr.parse_gf4_matrix("0 z")


def test_hermitian_product():
    assert cr.gf4_hermitian_product([1, 2], [1, 2]) == 1 ^ cr.gf4_mul(2, 3)
    # Hermitian: (u,v) = conj((v,u))
    rnd = random.Random(0)
    for _ in range(50):
        u = [rnd.randrange(4) for _ in range(5)]
        v = [rnd.randrange(4) for _ in range(5)]
        assert cr.gf4_hermitian_product(u, v) == cr.gf4_conj(
            cr.gf4_hermitian_product(v, u)
        )


def test_x_matrices_hermitian_self_dual_min_weight():
    # the four [16,8] generators are Hermitian self-orthogonal (hence
    # self-dual by dimension) with minimum weight 6
    for i in range(1, 5):
        gen = dataset.x_generator(i)
        assert cr.is_gf4_hermitian_self_orthogonal(gen)
        assert cr.gf4_code_min_weight(list(gen)) == 6


def test_polyp_even_weight_enforced():
    with pytest.raises(ValueError):
        PolyP(3, 0b001)
    assert PolyP(3, 0b110).mask == 0b110


def test_poly_ring_axioms():
    for p in (3, 5, 7):
        elems = cr.all_elements(p)
        assert len(elems) == 1 << (p - 1)
        ident = cr.poly_identity(p)
        rnd = random.Random(p)
        sample = rnd.sample(elems, min(12, len(elems)))
        for a in sample:
            assert cr.poly_mul(a, ident) == a
            for b in sample:
                assert cr.poly_mul(a, b) == cr.poly_mul(b, a)


def test_poly_field_when_2_primitive():
    # for p = 3, 5 the ring is a field: nonzero elements form a group
    for p in (3, 5):
        nonzero = [a for a in cr.all_elements(p) if a.mask]
        for a in nonzero:
            images = {cr.poly_mul(a, b).mask for b in nonzero}
            assert images == {b.mask for b in nonzero}


def test_conj_is_inverse_substitution():
    for p in (3, 5, 7):
        for a in cr.all_elements(p):
            c = cr.conj(a)
            # conj twice is the identity map
            assert cr.conj(c) == a
            # x^t maps to x^(p-t)
        x_e = cr.poly_shift(cr.poly_identity(p), 1)
        assert cr.conj(x_e) == cr.poly_shift(cr.poly_identity(p), p - 1)


def test_gf4_embedding_is_isomorphism():
    embed = cr.gf4_embed
    for a, b in product(range(4), repeat=2):
        assert embed(a ^ b) == PolyP(3, embed(a).mask ^ embed(b).mask)
        assert cr.poly_mul(embed(a), embed(b)) == embed(cr.gf4_mul(a, b))
    for a in range(4):
        assert cr.gf4_from_poly(embed(a)) == a


def test_gf4_embed_alt_swaps_omega():
    assert cr.gf4_embed_alt(1) == cr.gf4_embed(1)
    assert cr.gf4_embed_alt(2) == cr.gf4_embed(3)
    assert cr.gf4_embed_alt(3) == cr.gf4_embed(2)


def test_hermitian_form_matches_gf4():
    # for p = 3 the form of condition (ii), sum of u_i(x) v_i(x^-1),
    # agrees with the GF(4) Hermitian product through the embedding
    embed = cr.gf4_embed
    rnd = random.Random(6)
    for _ in range(40):
        u = [rnd.randrange(4) for _ in range(4)]
        v = [rnd.randrange(4) for _ in range(4)]
        lifted = cr.hermitian_form(
            [embed(a) for a in u], [embed(b) for b in v]
        )
        assert cr.gf4_from_poly(lifted) == cr.gf4_hermitian_product(u, v)


def test_idempotent_split_p7():
    e1, e2 = cr.idempotent_split(7)
    assert cr.poly_mul(e1, e1) == e1
    assert cr.poly_mul(e2, e2) == e2
    assert cr.poly_mul(e1, e2).mask == 0
    assert PolyP(7, e1.mask ^ e2.mask) == cr.poly_identity(7)
    assert cr.conj(e1) == e2
    for e in (e1, e2):
        assert len(cr.ideal_elements(e)) == 8
    with pytest.raises(ValueError):
        cr.idempotent_split(5)


def test_circulant():
    e = cr.poly_identity(3)
    mat = cr.circulant(e)
    assert mat.n_cols == 3
    assert mat.rows == (0b110, 0b101, 0b011)
    # rank of any nonzero even-weight circulant is p - 1
    for p in (3, 5):
        for a in cr.all_elements(p):
            if a.mask:
                assert cr.circulant(a).rank() == p - 1
