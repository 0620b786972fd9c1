"""Topological entropy of Lorenz interval maps.

Two independent estimators: the largest root of the truncated kneading
series (spectral) and the growth rate of lap-image variation (laps), plus
parameter sweeps over the discontinuity with curve diagnostics.

The spectral and sweep names are bound on first access, so importing the
package, or using only its maps, kneading and lap estimator, loads no numpy.
``__all__`` is the eager names plus the deferred ones.
"""

import importlib
import sys
import types

from .errors import (
    DomainError,
    GridMismatch,
    InsufficientData,
    InvalidBranch,
    InvalidSlopes,
    LengthMismatch,
    LorenzError,
    MissingPeriodicForm,
    NoRootFound,
    RangeError,
    ResourceLimit,
)
from .estimates import LAPS, SPECTRAL, EntropyEstimate
from .kneading import KneadingPair, itinerary, kneading_prefixes
from .laps import LapState, entropy_laps, lap_count, lap_count_bruteforce, lap_counts_bruteforce, lap_states
from .maps import (
    LOWER,
    UPPER,
    BranchPair,
    BranchSpec,
    LorenzMap,
    make_affine_pair,
    make_uniform_pair,
    parse_scalar,
)

#: the module of each name bound on first access (PEP 562): both load numpy, which nothing above needs
_DEFERRED = dict.fromkeys(
    (
        "ODD_CROSSING",
        "PeriodicForm",
        "RootResult",
        "XiPolynomial",
        "entropy_spectral",
        "max_root",
        "tail_bound",
        "xi_coeffs",
        "xi_eval",
        "xi_eval_periodic",
    ),
    "spectral",
) | dict.fromkeys(
    (
        "BUMP",
        "DIP",
        "NonMonotoneFeature",
        "SweepRecord",
        "compare_methods",
        "continuity_modulus",
        "cross_confirm_features",
        "csv_text",
        "detect_nonmonotonic",
        "sweep",
        "write_csv",
    ),
    "sweep",
)


def __getattr__(name):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_DEFERRED[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The package, whose name ``sweep`` stays the sweep function.

    The import system binds each submodule it loads as an attribute of its
    package, in whatever order the submodules load; only the sweep module's
    name collides with one of the package's own.
    """

    def __setattr__(self, name, value):
        if name == "sweep" and isinstance(value, types.ModuleType):
            value = value.sweep
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__version__ = "0.1.0"

#: the names the eager imports bind, and the deferred ones
__all__ = [
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, types.ModuleType)
] + list(_DEFERRED)
