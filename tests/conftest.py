"""Session fixtures: benchmark-regime domains and their solved task bases.

All block-structure tests run in one regime: lazy twins (weight 0.01),
step reward -1, temperature 20. The heavy twin makes walks persist long
enough that desirability is nearly constant inside a region and drops at
its exits, which is what makes rooms, passenger blocks and ring arcs show
up as low-rank structure in the basis.
"""

import os
import pickle
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from subtask_forge import fileio, lmdp_core
from subtask_forge.domains import RoomsSpec, TaxiSpec, build_rooms, build_taxi
from subtask_forge.errors import SingularSystemError
from subtask_forge.factorize import (
    NmfOptions,
    nmf,
    read_factorization,
    write_factorization_files,
)
from subtask_forge.hierarchy import (
    HierarchicalMlmdp,
    augment_with_subtasks,
    write_hierarchy_files,
)
from subtask_forge.lmdp_core import load_lmdp
from subtask_forge.multitask import solve_task_basis

TWIN_WEIGHT = 0.01
R_STEP = -1.0
LAM = 20.0

# Every property test draws the same examples on every run and keeps no
# example database; slow examples are not failures.
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def assert_no_child_left():
    """Fail a test that leaves a child process unreaped, such as a forked
    CSV writer or NMF child."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """Report two CPUs on any machine, so the CSV reader and writer and nmf
    may split their work; record the forks they make. Fail a test that
    leaves open a file descriptor it opened, such as the pipe of a split or
    a writer's part or ``.tmp`` file."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        forks.append(pid)
        return pid

    fds = set(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    yield forks
    left = set(os.listdir("/proc/self/fd")) - fds
    assert not left, f"file descriptors left open: {sorted(left, key=int)}"


def _child_exits_1(wfd, work):
    """A forked child of ``fileio.split_work`` that does its work, then
    sends a well-formed but wrong result and exits 1."""
    work()
    os.write(wfd, pickle.dumps(None))
    os._exit(1)


def _child_killed(wfd, work):
    """A forked child that does its work, sends garbage and is killed."""
    work()
    os.write(wfd, b"garbage")
    os.kill(os.getpid(), signal.SIGKILL)


def _no_fork():
    raise OSError("simulated: no process to spare")


#: (attribute, replacement): patched on ``os`` for ``fork``, else on ``fileio``.
CHILD_FAILURES = [("_child", _child_exits_1), ("_child", _child_killed), ("fork", _no_fork)]


def inject(monkeypatch, attr, failure):
    monkeypatch.setattr(os if attr == "fork" else fileio, attr, failure)


def equal_dynamics(a, b) -> bool:
    """Bit-exact equality of two LMDPs' passive dynamics."""
    return all(ma.shape == mb.shape and np.array_equal(ma.toarray(), mb.toarray())
               for ma, mb in ((a.P_ii, b.P_ii), (a.P_bi, b.P_bi)))


def singular_on_both_solvers(call) -> tuple[str, str]:
    """The SingularSystemError messages of ``call()`` on the dense solve and
    on scipy's ``splu``, forced by a size constant of 0."""
    messages = []
    for dense_max in (lmdp_core.DENSE_MAX_STATES, 0):
        with mock.patch.object(lmdp_core, "DENSE_MAX_STATES", dense_max), \
                pytest.raises(SingularSystemError) as info:
            call()
        messages.append(str(info.value))
    return tuple(messages)


def labels_interior(L):
    return None if L.labels is None else L.labels[:L.n_interior]


def labels_boundary(L):
    return None if L.labels is None else L.labels[L.n_interior:]


def augmented_stacked(layer) -> np.ndarray:
    """Dense (n_i + n_b + k) x n_i column-stochastic augmented dynamics."""
    return np.vstack([layer.scaled_ii.toarray(), layer.scaled_bi.toarray(),
                      layer.alpha * layer.d_hat.T])


def write_factorization(dir_path, F) -> None:
    """Atomically (re)place a factorization directory."""
    with fileio.staged_dir(dir_path) as stage:
        write_factorization_files(stage, F)


def write_hierarchy(dir_path, H: HierarchicalMlmdp) -> None:
    with fileio.staged_dir(dir_path) as stage:
        write_hierarchy_files(stage, H)


def read_hierarchy(dir_path) -> HierarchicalMlmdp:
    """Rebuild a hierarchy from its output directory.

    Layer tensors not stored on disk (scaled dynamics, subtask columns) are
    recomputed from each level's LMDP, factorization and alpha; the
    recomputation is deterministic, so the result matches what was written.
    """
    manifest = fileio.read_json(os.path.join(dir_path, "hierarchy.json"))
    if not isinstance(manifest, dict):
        raise ValueError(f"{dir_path}: hierarchy.json must be an object")
    for key in ("levels", "k_schedule", "alpha_schedule", "beta", "seed",
                "level_dirs", "top"):
        if key not in manifest:
            raise ValueError(f"{dir_path}: hierarchy.json lacks key {key!r}")
    level_dirs = manifest["level_dirs"]
    alpha_schedule = tuple(float(a) for a in manifest["alpha_schedule"])
    if not (len(level_dirs) == len(alpha_schedule) == int(manifest["levels"])):
        raise ValueError(f"{dir_path}: hierarchy.json schedule lengths disagree")
    layers = []
    for name, alpha in zip(level_dirs, alpha_schedule):
        level_dir = os.path.join(dir_path, name)
        base = load_lmdp(os.path.join(level_dir, "lmdp.json"))
        F = read_factorization(level_dir)
        layers.append(augment_with_subtasks(base, F, alpha))
    return HierarchicalMlmdp(layers=tuple(layers),
                             top=load_lmdp(os.path.join(dir_path, manifest["top"])))


def benchmark_rooms(room_rows=4, room_cols=4, room_size=5, layout="grid"):
    spec = RoomsSpec(room_rows, room_cols, room_size, layout)
    return build_rooms(spec, R_STEP, LAM, TWIN_WEIGHT)


def benchmark_taxi():
    return build_taxi(TaxiSpec(), R_STEP, LAM, TWIN_WEIGHT)


@pytest.fixture(scope="session")
def rooms_lmdp():
    return benchmark_rooms()


@pytest.fixture(scope="session")
def rooms_Z(rooms_lmdp):
    return solve_task_basis(rooms_lmdp)


@pytest.fixture(scope="session")
def rooms_fact16(rooms_Z):
    return nmf(rooms_Z, k=16, beta=1.0, opts=NmfOptions(seed=0, restarts=10))


@pytest.fixture(scope="session")
def taxi_lmdp():
    return benchmark_taxi()


@pytest.fixture(scope="session")
def taxi_Z(taxi_lmdp):
    return solve_task_basis(taxi_lmdp)
