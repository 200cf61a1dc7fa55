"""Tolerance and resource configuration shared by the CLI.

Defaults can be overridden by PSTLAB_* environment variables; explicit CLI
flags win over the environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .spectral import DEFAULT_GROUPING_TOL, DEFAULT_MAX_DENOMINATOR, DEFAULT_RESIDUAL_TOL
from .transfer import (
    DEFAULT_FIDELITY_TOL,
    DEFAULT_SCAN_GRID,
    DEFAULT_SUPPORT_TOL,
    DEFAULT_T_MAX,
    DEFAULT_WEIGHT_TOL,
)


@dataclass
class Config:
    grouping_tol: float = DEFAULT_GROUPING_TOL
    support_tol: float = DEFAULT_SUPPORT_TOL
    residual_tol: float = DEFAULT_RESIDUAL_TOL
    fidelity_tol: float = DEFAULT_FIDELITY_TOL
    weight_tol: float = DEFAULT_WEIGHT_TOL
    max_denominator: int = DEFAULT_MAX_DENOMINATOR
    t_max: float = DEFAULT_T_MAX
    scan_grid: int = DEFAULT_SCAN_GRID
    workers: int = None

    def __post_init__(self):
        for name in ("grouping_tol", "support_tol", "residual_tol",
                     "fidelity_tol", "weight_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def from_env(cls, environ=None) -> "Config":
        environ = os.environ if environ is None else environ
        kwargs = {}
        for f in fields(cls):
            key = "PSTLAB_" + f.name.upper()
            if key in environ:
                caster = int if f.type in ("int", int) else float
                kwargs[f.name] = caster(environ[key])
        return cls(**kwargs)

    def check_kwargs(self) -> dict:
        """Keyword arguments for transfer.check_transfer."""
        return dict(
            grouping_tol=self.grouping_tol,
            support_tol=self.support_tol,
            weight_tol=self.weight_tol,
            fidelity_tol=self.fidelity_tol,
            max_denominator=self.max_denominator,
            residual_tol=self.residual_tol,
            t_max=self.t_max,
            scan_grid=self.scan_grid,
        )
