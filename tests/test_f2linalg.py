"""GF(2) rank engine against a naive eliminator, and the cellular models."""

import random

import pytest

from c2surf.f2linalg import (
    ChainComplex,
    F2Matrix,
    betti_f2,
    polygon_model,
    surface_with_boundary_model,
)
from c2surf.surfaces import TRIVIAL, SingProfile, profiles_by_scan, quotient_sing

from _oracles import naive_rank, random_matrix


def test_rank_trivial_cases():
    assert F2Matrix.identity(4).rank() == 4
    assert F2Matrix.zeros(3, 5).rank() == 0
    assert F2Matrix.from_rows([[1, 1], [1, 1]]).rank() == 1


def test_rank_handles_empty_shapes():
    assert F2Matrix.zeros(0, 7).rank() == 0
    assert F2Matrix.zeros(7, 0).rank() == 0


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


def test_mul_matches_entrywise_definition():
    rng = random.Random(9)
    for _ in range(30):
        a_rows = [[rng.randint(0, 1) for _ in range(5)] for _ in range(4)]
        b_rows = [[rng.randint(0, 1) for _ in range(3)] for _ in range(5)]
        prod = F2Matrix.from_rows(a_rows).mul(F2Matrix.from_rows(b_rows))
        for i in range(4):
            for j in range(3):
                want = sum(a_rows[i][k] * b_rows[k][j] for k in range(5)) % 2
                assert prod.entry(i, j) == want


def test_chain_complex_rejects_bad_data():
    with pytest.raises(ValueError, match="composable"):
        ChainComplex(F2Matrix.zeros(1, 2), F2Matrix.zeros(3, 1))
    d1 = F2Matrix.from_rows([[1], [1]])        # edge from u to v
    d2 = F2Matrix.from_rows([[1]])             # face whose boundary is that edge
    with pytest.raises(ValueError, match="d1 o d2"):
        ChainComplex(d1, d2)


def test_betti_on_polygon_models():
    for g in range(5):
        assert betti_f2(polygon_model(2 * g)) == SingProfile(1, 2 * g, 1)
    for s in range(1, 6):
        assert betti_f2(polygon_model(s)) == SingProfile(1, s, 1)


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


def test_boundary_models():
    assert betti_f2(surface_with_boundary_model(0, 1)) == SingProfile(1, 0, 0)  # disk
    assert betti_f2(surface_with_boundary_model(2, 0)) == SingProfile(1, 2, 1)  # torus
    assert betti_f2(surface_with_boundary_model(0, 2)) == SingProfile(1, 1, 0)  # annulus


def test_boundary_model_betti_and_euler_sweep():
    for beta in range(7):
        for circles in range(5):
            c = surface_with_boundary_model(beta, circles)
            b = betti_f2(c)
            # Each puncture after the first adds an independent 1-cycle.
            expected_h1 = beta + circles - 1 if circles else beta
            assert (b.h0, b.h1, b.h2) == (1, expected_h1, 0 if circles else 1)
            # The alternating sum of Betti numbers is the Euler characteristic
            # computed from raw cell counts.
            assert b.euler() == c.euler()


def test_orbit_space_models_match_quotient_sing():
    # X/C2 read off the profile, not off quotient_sing: X itself for the
    # trivial action; otherwise a compact surface with one boundary circle
    # per fixed circle and chi(X/C2) = (chi(X) + F) / 2.  Its Betti numbers,
    # by GF(2) rank, must be quotient_sing's on every profile up to beta 40.
    profiles = profiles_by_scan(40)
    assert len(profiles) == 3624
    for pr in profiles:
        if pr.kind == TRIVIAL:
            model = surface_with_boundary_model(pr.beta, 0)
        else:
            chi_q = (2 - pr.beta + pr.fixed_points) // 2
            model = surface_with_boundary_model(2 - chi_q - pr.fixed_circles,
                                                pr.fixed_circles)
        assert betti_f2(model) == quotient_sing(pr), pr
