"""GF(2) rank engine against a naive eliminator, and Betti numbers of
hand-built Delta-complexes."""

import random

import pytest

from c2surf.f2linalg import ChainComplex, F2Matrix, betti_f2
from c2surf.surfaces import SingProfile

from _oracles import DELTA_COMPLEXES, naive_rank, random_matrix


def test_rank_trivial_cases():
    assert F2Matrix(4, 4, [1 << i for i in range(4)]).rank() == 4
    assert F2Matrix(3, 5).rank() == 0
    assert F2Matrix.from_rows([[1, 1], [1, 1]]).rank() == 1


def test_rank_handles_empty_shapes():
    assert F2Matrix(0, 7).rank() == 0
    assert F2Matrix(7, 0).rank() == 0
    # No rows and no declared width: 0 x 0.
    empty = F2Matrix.from_rows([])
    assert (empty.rows, empty.cols, empty.rank()) == (0, 0, 0)
    assert F2Matrix.from_rows([], cols=3).cols == 3


def test_rank_does_not_mutate_input():
    m = F2Matrix.from_rows([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    before = list(m.data)
    assert m.rank() == 2
    assert m.data == before


def test_rank_against_naive_reference():
    rng = random.Random(271828)
    for _ in range(250):
        rows = random_matrix(rng, max_side=40)
        m = F2Matrix.from_rows(rows, cols=len(rows[0]) if rows else 0)
        assert m.rank() == naive_rank(rows)


def test_matrix_validation():
    with pytest.raises(ValueError):
        F2Matrix(2, 2, [1, 7])      # row wider than declared
    with pytest.raises(ValueError):
        F2Matrix(2, 2, [1])
    with pytest.raises(ValueError):
        F2Matrix.from_rows([[1, 0], [1]])
    with pytest.raises(ValueError, match="negative matrix dimensions"):
        F2Matrix(-1, 2)
    with pytest.raises(ValueError, match="inner dimensions do not match"):
        F2Matrix(2, 3).mul(F2Matrix(2, 3))


def test_mul_matches_entrywise_definition():
    rng = random.Random(9)
    for _ in range(30):
        a_rows = [[rng.randint(0, 1) for _ in range(5)] for _ in range(4)]
        b_rows = [[rng.randint(0, 1) for _ in range(3)] for _ in range(5)]
        prod = F2Matrix.from_rows(a_rows).mul(F2Matrix.from_rows(b_rows))
        for i in range(4):
            for j in range(3):
                want = sum(a_rows[i][k] * b_rows[k][j] for k in range(5)) % 2
                assert (prod.data[i] >> j) & 1 == want


def test_chain_complex_rejects_bad_data():
    with pytest.raises(ValueError, match="composable"):
        ChainComplex(F2Matrix(1, 2), F2Matrix(3, 1))
    d1 = F2Matrix.from_rows([[1], [1]])        # edge from u to v
    d2 = F2Matrix.from_rows([[1]])             # face whose boundary is that edge
    with pytest.raises(ValueError, match="d1 o d2"):
        ChainComplex(d1, d2)


@pytest.mark.parametrize("name", DELTA_COMPLEXES)
def test_betti_on_hand_built_complexes(name):
    d1, d2, betti = DELTA_COMPLEXES[name]
    c = ChainComplex(F2Matrix.from_rows(d1), F2Matrix.from_rows(d2))
    assert not (c.d1.is_zero() and c.d2.is_zero())
    assert betti_f2(c) == SingProfile(*betti)


def test_betti_on_disk_triangulation():
    # A solid triangle: three vertices, three edges, one face.  Ranks by
    # hand: rank d1 = 2, rank d2 = 1, so betti = (1, 0, 0).
    d1 = F2Matrix.from_rows([
        [1, 0, 1],
        [1, 1, 0],
        [0, 1, 1],
    ])
    d2 = F2Matrix.from_rows([[1], [1], [1]])
    assert betti_f2(ChainComplex(d1, d2)) == SingProfile(1, 0, 0)
