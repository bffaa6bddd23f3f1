"""Session fixtures: benchmark-regime domains and their solved task bases.

All block-structure tests run in one regime: lazy twins (weight 0.01),
step reward -1, temperature 20. The heavy twin makes walks persist long
enough that desirability is nearly constant inside a region and drops at
its exits, which is what makes rooms, passenger blocks and ring arcs show
up as low-rank structure in the basis.
"""

import os

import numpy as np
import pytest

from subtask_forge.domains import RoomsSpec, TaxiSpec, build_rooms, build_taxi
from subtask_forge.factorize import NmfOptions, nmf
from subtask_forge.multitask import build_uniform_task_basis, solve_task_basis

TWIN_WEIGHT = 0.01
R_STEP = -1.0
LAM = 20.0


@pytest.fixture(autouse=True)
def assert_no_child_left():
    """Fail a test that leaves a child process unreaped, such as a forked
    CSV writer or NMF child."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """Report two CPUs on any machine, so the CSV writer and nmf may split
    their work; record the forks they make."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    return forks


def equal_dynamics(a, b) -> bool:
    """Bit-exact equality of two passive-dynamics pairs."""
    return all(ma.shape == mb.shape and (ma != mb).nnz == 0
               for ma, mb in ((a.P_ii, b.P_ii), (a.P_bi, b.P_bi)))


def labels_interior(L):
    return None if L.space.labels is None else L.space.labels[:L.n_interior]


def labels_boundary(L):
    return None if L.space.labels is None else L.space.labels[L.n_interior:]


def augmented_stacked(layer) -> np.ndarray:
    """Dense (n_i + n_b + k) x n_i column-stochastic augmented dynamics."""
    return np.vstack([layer.P_ii_scaled.toarray(), layer.P_bi_scaled.toarray(), layer.P_t])


def benchmark_rooms(room_rows=4, room_cols=4, room_size=5, layout="grid"):
    spec = RoomsSpec(room_rows, room_cols, room_size, layout)
    return build_rooms(spec, R_STEP, LAM, TWIN_WEIGHT)


def benchmark_taxi():
    return build_taxi(TaxiSpec(), R_STEP, LAM, TWIN_WEIGHT)


def uniform_basis(L) -> np.ndarray:
    return solve_task_basis(L, build_uniform_task_basis(L))


@pytest.fixture(scope="session")
def rooms_lmdp():
    return benchmark_rooms()


@pytest.fixture(scope="session")
def rooms_Z(rooms_lmdp):
    return uniform_basis(rooms_lmdp)


@pytest.fixture(scope="session")
def rooms_fact16(rooms_Z):
    return nmf(rooms_Z, k=16, beta=1.0, opts=NmfOptions(seed=0, restarts=10))


@pytest.fixture(scope="session")
def taxi_lmdp():
    return benchmark_taxi()


@pytest.fixture(scope="session")
def taxi_Z(taxi_lmdp):
    return uniform_basis(taxi_lmdp)
