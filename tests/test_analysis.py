import numpy as np
import pytest

from reference import circular_spread
from subtask_forge.analysis import (
    boundary_score,
    purity_report,
    subtask_distance,
    write_boundary_scores,
)
from subtask_forge.factorize import Factorization
from subtask_forge.lmdp_core import Lmdp, PassiveDynamics, StateSpace


def fact(D, W=None) -> Factorization:
    D = np.asarray(D, dtype=float)
    W = D.T.copy() if W is None else np.asarray(W, dtype=float)
    return Factorization(
        D=D, W=W, beta=1.0, k=D.shape[1], divergence=0.0,
        normalized_divergence=0.0, seed=0, restarts=1, iterations=0,
        converged=True, best_restart=0,
    )


def test_distance_hand_value():
    # identical first columns; second columns differ in two entries by 0.5
    F1 = fact(np.array([[1.0, 0.5], [0.0, 0.5], [0.0, 0.0]]))
    F2 = fact(np.array([[1.0, 0.5], [0.0, 0.0], [0.0, 0.5]]))
    assert subtask_distance(F1, F2) == pytest.approx(0.5, abs=1e-12)


def test_distance_ignores_column_order_and_scale():
    rng = np.random.default_rng(0)
    D = rng.uniform(0.1, 1.0, (6, 3))
    perm = [2, 0, 1]
    scales = np.array([3.0, 0.25, 10.0])
    F1 = fact(D)
    F2 = fact(D[:, perm] * scales[None, :])
    assert subtask_distance(F1, F2) == pytest.approx(0.0, abs=1e-12)


def test_distance_of_a_set_to_itself_is_zero():
    # the expanded cost |a|^2 + |b|^2 - 2 a.b leaves about 1e-17 here
    for seed in range(6):
        F = fact(np.random.default_rng(seed).uniform(0.0, 1.0, (30, 4)))
        assert subtask_distance(F, F) == 0.0


def test_distance_needs_optimal_matching():
    # a greedy first-column match (to the nearest) would strand the rest;
    # the assignment must find the zero-cost pairing
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    b = a[:, ::-1]
    assert subtask_distance(fact(a), fact(b)) == pytest.approx(0.0, abs=1e-12)


def test_distance_product_mode():
    D = np.array([[1.0], [1.0]])
    F1 = fact(D, W=np.array([[1.0, 2.0]]))
    F2 = fact(D, W=np.array([[1.0, 1.0]]))
    # products differ by 1 in two entries
    assert subtask_distance(F1, F2, compare_product=True) == pytest.approx(2.0)
    # column mode sees identical normalized D
    assert subtask_distance(F1, F2) == pytest.approx(0.0, abs=1e-12)


def test_distance_shape_errors():
    F1 = fact(np.ones((3, 2)))
    F2 = fact(np.ones((3, 3)))
    with pytest.raises(ValueError, match="D shapes differ"):
        subtask_distance(F1, F2)


def test_boundary_score_hand_values():
    # w_0=(1,0), w_1=(0,1), w_2=(0,0); P_ii columns chosen so the scores
    # come out as exactly (0, 1, 2)
    W = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    P_ii = np.array([
        [0.0, 0.5, 1.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0],
    ])
    L = Lmdp(
        space=StateSpace(3, 3),
        dynamics=PassiveDynamics(P_ii=P_ii, P_bi=np.eye(3) * 0.1),
        r_interior=np.zeros(3),
    )
    g = boundary_score(fact(np.ones((3, 2)), W=W), L)
    np.testing.assert_allclose(g, [0.0, 1.0, 2.0], atol=1e-15)


def test_boundary_score_flat_representation_is_zero():
    W = np.ones((2, 4))
    L = Lmdp(
        space=StateSpace(4, 4),
        dynamics=PassiveDynamics(
            P_ii=np.full((4, 4), 0.2), P_bi=np.eye(4) * 0.2
        ),
        r_interior=np.zeros(4),
    )
    g = boundary_score(fact(np.ones((4, 2)), W=W), L)
    np.testing.assert_array_equal(g, np.zeros(4))


def test_boundary_score_requires_twin_structure():
    L = Lmdp(
        space=StateSpace(2, 3),
        dynamics=PassiveDynamics(P_ii=np.eye(2) * 0.5, P_bi=np.ones((3, 2)) / 6),
        r_interior=np.zeros(2),
    )
    with pytest.raises(ValueError, match="boundary"):
        boundary_score(fact(np.ones((2, 2)), W=np.ones((2, 3))), L)
    with pytest.raises(ValueError, match="task columns"):
        boundary_score(fact(np.ones((2, 2)), W=np.ones((2, 7))), L)


def test_purity_hand_values():
    # cluster argmax: states 0,1 -> subtask 0; 2,3 -> subtask 1
    D = np.array([
        [0.9, 0.1],
        [0.8, 0.2],
        [0.2, 0.8],
        [0.4, 0.6],
    ])
    labels = np.array(["a", "a", "b", "a"])
    rep = purity_report(fact(D), labels)
    # cluster 0 is pure "a" (2), cluster 1 majority "b" (1 of 2)
    assert rep["purity"] == pytest.approx(0.75)
    assert rep["cluster_sizes"] == [2, 2]
    assert rep["confusion"] == [[2, 0], [1, 1]]


def test_purity_tie_goes_to_lowest_subtask():
    D = np.array([[0.5, 0.5]])
    rep = purity_report(fact(D), np.array([7]))
    assert rep["cluster_sizes"] == [1, 0]


def test_purity_label_shape():
    with pytest.raises(ValueError, match="one label per interior state"):
        purity_report(fact(np.ones((4, 2))), np.arange(3))


def test_circular_spread_point_mass_and_rotation():
    n = 16
    D = np.zeros((n, 2))
    D[3, 0] = 1.0
    D[:, 1] = np.roll(np.exp(-0.5 * ((np.arange(n) - 8.0) / 2.0) ** 2), 5)
    s = circular_spread(D)
    assert s[0] == 0.0
    assert s[1] > 0.1
    rolled = circular_spread(np.roll(D, 4, axis=0))
    np.testing.assert_allclose(rolled, s, rtol=1e-9)


def test_circular_spread_widens_with_scale():
    n = 64
    idx = np.arange(n)
    cols = [
        np.exp(-0.5 * ((idx - 32.0) / w) ** 2) for w in (1.0, 3.0, 9.0)
    ]
    s = circular_spread(np.array(cols).T)
    assert s[0] < s[1] < s[2]
    # narrow Gaussian on a ring: circular stddev tracks the linear one
    assert s[0] == pytest.approx(2 * np.pi / n, rel=0.01)


def test_circular_spread_validation():
    with pytest.raises(ValueError, match="2-D"):
        circular_spread(np.ones(4))
    with pytest.raises(ValueError, match="ring positions"):
        circular_spread(np.ones((4, 1)), n_positions=5)


def test_write_boundary_scores_format(tmp_path):
    path = tmp_path / "g.csv"
    write_boundary_scores(path, np.array([0.25, 1.5]))
    assert path.read_text() == "state,g\n0,0.25\n1,1.5\n"
