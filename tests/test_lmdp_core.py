import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from conftest import equal_dynamics, labels_boundary, labels_interior
from subtask_forge.errors import (
    ConvergenceError,
    DegenerateNormalizerError,
    SingularSystemError,
)
from subtask_forge.lmdp_core import (
    Lmdp,
    PassiveDynamics,
    StateSpace,
    lmdp_from_json_dict,
    lmdp_to_json_dict,
    load_lmdp,
    optimal_policy,
    save_lmdp,
    solve_finite_exit,
    solve_iterative,
    validate_lmdp,
    value_from_desirability,
)

# Two interior, two boundary states; columns sum to 1, entry (to, from).
# Oracle values from a dense solve of (I - diag(g) P_ii^T) z = diag(g) P_bi^T q
# with g = exp(r), frozen to full precision.
P_II = np.array([[0.2, 0.25], [0.3, 0.25]])
P_BI = np.array([[0.4, 0.1], [0.1, 0.4]])
R = np.array([-1.0, -0.5])
Q = np.array([1.0, 0.5])
Z_ORACLE = np.array([0.20868768427179646, 0.25178134374954486])
POLICY_COL0 = np.array(
    [0.07357588823428848, 0.13315378005058742, 0.705129183746777, 0.08814114796834713]
)


def two_state() -> Lmdp:
    return Lmdp(
        space=StateSpace(2, 2, ("a", "b", "exit:a", "exit:b")),
        dynamics=PassiveDynamics(P_ii=P_II, P_bi=P_BI),
        r_interior=R,
        lam=1.0,
    )


def test_two_state_oracle():
    z = solve_finite_exit(two_state(), Q)
    np.testing.assert_allclose(z, Z_ORACLE, rtol=1e-12)


def test_iterative_matches_direct():
    L = two_state()
    z_dir = solve_finite_exit(L, Q)
    z_it = solve_iterative(L, Q, tol=1e-14)
    np.testing.assert_allclose(z_it, z_dir, rtol=1e-10)


def test_value_is_scaled_log():
    L = two_state()
    z = solve_finite_exit(L, Q)
    V = value_from_desirability(z, L.lam)
    np.testing.assert_allclose(np.exp(V / L.lam), z, rtol=1e-14)
    with pytest.raises(ValueError):
        value_from_desirability(np.array([1.0, -1.0]), 1.0)
    with pytest.raises(ValueError):
        value_from_desirability(z, 0.0)


def test_policy_oracle_and_stochasticity():
    L = two_state()
    z = solve_finite_exit(L, Q)
    a = optimal_policy(L, z, Q)
    assert a.shape == (4, 2)
    np.testing.assert_allclose(np.asarray(a.todense())[:, 0], POLICY_COL0, rtol=1e-12)
    np.testing.assert_allclose(np.asarray(a.sum(axis=0)).reshape(-1), 1.0, atol=1e-12)
    # support never grows beyond the passive support
    passive_zero = np.asarray(L.dynamics.stacked().todense()) == 0
    assert np.all(np.asarray(a.todense())[passive_zero] == 0)


def test_policy_zero_normalizer():
    L = two_state()
    with pytest.raises(DegenerateNormalizerError):
        optimal_policy(L, np.zeros(2), np.zeros(2))


def test_solve_rejects_bad_q():
    L = two_state()
    with pytest.raises(ValueError):
        solve_finite_exit(L, np.array([1.0]))
    with pytest.raises(ValueError):
        solve_finite_exit(L, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        solve_finite_exit(L, np.array([1.0, np.inf]))


def test_singular_when_no_exit():
    # both interior columns keep all mass in the interior with r = 0
    trapped = Lmdp(
        space=StateSpace(2, 1),
        dynamics=PassiveDynamics(
            P_ii=np.array([[0.5, 0.5], [0.5, 0.5]]),
            P_bi=np.zeros((1, 2)),
        ),
        r_interior=np.zeros(2),
    )
    with pytest.raises(SingularSystemError, match="spectral radius"):
        solve_finite_exit(trapped, np.array([1.0]))


def test_iterative_budget():
    with pytest.raises(ConvergenceError):
        solve_iterative(two_state(), Q, tol=1e-14, max_iter=2)


def test_nonuniform_rewards_batch_matches_loop():
    # regression: the reward factor must scale rows, not columns, also for
    # matrix right-hand sides
    rng = np.random.default_rng(7)
    L = Lmdp(
        space=StateSpace(2, 2),
        dynamics=PassiveDynamics(P_ii=P_II, P_bi=P_BI),
        r_interior=np.array([-2.0, -0.1]),
    )
    QB = rng.uniform(0.2, 1.0, size=(2, 3))
    from subtask_forge.lmdp_core import _FiniteExitSystem

    sys_ = _FiniteExitSystem(L)
    batch = sys_.solve(QB)
    for t in range(QB.shape[1]):
        np.testing.assert_allclose(batch[:, t], sys_.solve(QB[:, t]), rtol=1e-12)


def test_validate_clean():
    rep = validate_lmdp(two_state())
    assert rep.ok and rep.violations == ()


def test_validate_collects_violations():
    bad = Lmdp(
        space=StateSpace(2, 2, ("a", "a", "x", "y")),
        dynamics=PassiveDynamics(
            P_ii=np.array([[0.2, 0.25], [0.3, 0.25]]),
            P_bi=np.array([[0.4, 0.1], [0.1, 0.1]]),  # column 1 sums to 0.7
        ),
        r_interior=np.array([np.nan, 0.0]),
        lam=1.0,
    )
    rep = validate_lmdp(bad)
    assert not rep.ok
    joined = "\n".join(rep.violations)
    assert "labels are not unique" in joined
    assert "column 1 sums to 0.7" in joined
    assert "non-finite" in joined


def test_validate_caps_reported_columns():
    n = 12
    rep = validate_lmdp(
        Lmdp(
            space=StateSpace(n, 1),
            dynamics=PassiveDynamics(
                P_ii=np.zeros((n, n)), P_bi=np.full((1, n), 0.5)
            ),
            r_interior=np.zeros(n),
        ),
        max_reported=8,
    )
    assert sum("sums to" in v for v in rep.violations) == 8
    assert any("4 more" in v for v in rep.violations)


def test_json_roundtrip(tmp_path):
    L = two_state()
    path = tmp_path / "lmdp.json"
    save_lmdp(path, L)
    back = load_lmdp(path)
    assert back.space == L.space
    assert back.lam == L.lam
    assert equal_dynamics(back.dynamics, L.dynamics)
    np.testing.assert_array_equal(back.r_interior, L.r_interior)
    assert labels_interior(back) == ("a", "b")
    assert labels_boundary(back) == ("exit:a", "exit:b")


def test_json_triplets_sorted_and_complete():
    d = lmdp_to_json_dict(two_state())
    trips = d["P_ii"]["triplets"]
    assert trips == sorted(trips, key=lambda t: (t[1], t[0]))
    assert len(trips) == 4
    assert d["lambda"] == 1.0


def test_json_missing_field():
    d = lmdp_to_json_dict(two_state())
    d.pop("P_bi")
    with pytest.raises(ValueError, match="P_bi"):
        lmdp_from_json_dict(d)


def test_json_triplet_out_of_range():
    d = lmdp_to_json_dict(two_state())
    d["P_ii"]["triplets"][0][0] = 5
    with pytest.raises(ValueError, match="out of range"):
        lmdp_from_json_dict(d)


def test_dynamics_are_read_only():
    L = two_state()
    with pytest.raises(ValueError):
        L.dynamics.P_ii.data[0] = 0.9
    with pytest.raises(ValueError):
        L.r_interior[0] = 1.0


@st.composite
def random_lmdps(draw):
    """Small random LMDPs with guaranteed exit mass and negative rewards."""
    n_i = draw(st.integers(min_value=1, max_value=6))
    n_b = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, 1.0, size=(n_i + n_b, n_i))
    raw[n_i:] += 0.05  # every column keeps some exit probability
    cols = raw / raw.sum(axis=0)
    r = -rng.uniform(0.0, 2.0, size=n_i)
    lam = draw(st.sampled_from([0.5, 1.0, 3.0]))
    L = Lmdp(
        space=StateSpace(n_i, n_b),
        dynamics=PassiveDynamics(P_ii=cols[:n_i], P_bi=cols[n_i:]),
        r_interior=r,
        lam=lam,
    )
    q = rng.uniform(0.1, 2.0, size=n_b)
    return L, q


@given(random_lmdps())
@settings(max_examples=60, deadline=None)
def test_solutions_are_positive_fixed_points(case):
    L, q = case
    assert validate_lmdp(L).ok
    z = solve_finite_exit(L, q)
    assert np.all(z > 0) and np.all(np.isfinite(z))
    g = np.exp(L.r_interior / L.lam)
    res = z - g * (L.dynamics.P_ii.T @ z + L.dynamics.P_bi.T @ q)
    assert np.max(np.abs(res)) <= 1e-10 * max(1.0, np.max(np.abs(z)))
    np.testing.assert_allclose(z, solve_iterative(L, q, tol=1e-14), rtol=1e-9)


@given(random_lmdps(), st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=40, deadline=None)
def test_uniform_reward_shift_scales_desirability(case, dr):
    # adding a constant c to every interior reward multiplies z(s) by
    # exp(c / lam) only when the chain exits immediately; in general it
    # rescales the fixed point monotonically, so z must grow entrywise
    L, q = case
    z = solve_finite_exit(L, q)
    shifted = Lmdp(
        space=L.space,
        dynamics=L.dynamics,
        r_interior=L.r_interior + dr,
        lam=L.lam,
    )
    try:
        z_up = solve_finite_exit(shifted, q)
    except SingularSystemError:
        return  # the raised rewards may break contractivity; nothing to check
    assert np.all(z_up >= z - 1e-12)


def test_sparse_inputs_accepted():
    L = Lmdp(
        space=StateSpace(2, 2),
        dynamics=PassiveDynamics(
            P_ii=sparse.csr_array(P_II), P_bi=sparse.coo_array(P_BI)
        ),
        r_interior=R,
    )
    np.testing.assert_allclose(solve_finite_exit(L, Q), Z_ORACLE, rtol=1e-12)
