"""Run configuration shared by the zero-testing engine and the CLI."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

DEFAULT_TOL = 1e-9
DEFAULT_SAMPLES = 20
DEFAULT_SEED = 0
# Working precision (decimal digits) for floating evaluation.  Well above
# double precision so that identity residuals sit far below any tolerance.
DEFAULT_DPS = 30

CONFIG_ENV_VAR = "ODEGEOM_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    tol: float = DEFAULT_TOL
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    dps: int = DEFAULT_DPS

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if self.samples < 5:
            raise ValueError("need at least 5 samples")

    def with_(self, **kw) -> "RunConfig":
        return replace(self, **kw)


def load_config(path: str | None = None) -> RunConfig:
    """Build a RunConfig from a JSON file, falling back to defaults.

    When `path` is None the file named by $ODEGEOM_CONFIG is used if set.
    """
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        return RunConfig()
    with open(path) as fh:
        data = json.load(fh)
    known = {k: data[k] for k in ("tol", "samples", "seed", "dps") if k in data}
    return RunConfig(**known)
