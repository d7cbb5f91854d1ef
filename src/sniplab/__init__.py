"""Game-theory engine, Monte Carlo simulator and sequential compliance monitor
for a stale-quote sniping game among competing high-frequency traders."""

__version__ = "0.7.0"

from .params import DerivedParams, GameParams, ValidationError, derive

__all__ = [
    "DerivedParams",
    "GameParams",
    "ValidationError",
    "derive",
    "__version__",
]
