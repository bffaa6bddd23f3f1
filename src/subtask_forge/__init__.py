"""Multitask LMDP solving, subtask discovery and hierarchy construction.

The pipeline in one breath: build a domain (`domains`), solve its uniform
task basis (`multitask`), factorize the basis into subtasks (`factorize`),
optionally stack levels (`hierarchy`), then score and render the result
(`analysis`, `render`). The `cli` module wires the same steps to files.
The package root exports the names of the README quick start; every other
name is imported from its module.
"""

from .domains import RoomsSpec, build_rooms
from .factorize import NmfOptions, nmf
from .hierarchy import build_hierarchy
from .multitask import solve_task_basis

__version__ = "0.1.0"

__all__ = [
    "RoomsSpec",
    "build_rooms",
    "solve_task_basis",
    "NmfOptions",
    "nmf",
    "build_hierarchy",
    "__version__",
]
