"""Design-based estimation for forest inventory databases.

Load a CSV database, pick evaluations, and produce population estimates
(totals, per-acre ratios, sampling errors) for trees, biomass, land area,
growth and mortality, down woody material, diversity, and more — with
temporally-indifferent or annual panel combining.

    >>> import timberline as tl
    >>> db = tl.load_database("data/", ["CT"])
    >>> db = tl.clip(db, most_recent=True)
    >>> tl.tpa(db, tree_domain="DIA >= 10")
"""

import importlib

from .attributes import (
    FAMILIES,
    EstimatorRequest,
    area,
    biomass,
    diversity,
    dwm,
    estimate,
    grow_mort,
    invasive,
    make_classes,
    seedling,
    stand_struct,
    tpa,
    vital_rates,
)
from .core import EstimateTable
from .errors import (
    DomainBindError,
    DomainSyntaxError,
    EstimationError,
    FetchError,
    GeometryError,
    LoadError,
    TimberlineError,
    UsageError,
)
from .evals import ClipOptions, clip, find_evaluations
from .io import fetch_state, load_database, write_database
from .model import ForestDatabase, validate_integrity
from .spatial import PolygonSet

__version__ = "0.3.1"

__all__ = [
    "FAMILIES",
    "EstimatorRequest",
    "EstimateTable",
    "ForestDatabase",
    "PolygonSet",
    "ClipOptions",
    "TimberlineError",
    "UsageError",
    "LoadError",
    "FetchError",
    "DomainSyntaxError",
    "DomainBindError",
    "EstimationError",
    "GeometryError",
    "load_database",
    "write_database",
    "fetch_state",
    "validate_integrity",
    "find_evaluations",
    "clip",
    "estimate",
    "tpa",
    "biomass",
    "area",
    "grow_mort",
    "vital_rates",
    "dwm",
    "diversity",
    "invasive",
    "seedling",
    "stand_struct",
    "make_classes",
    "brute_force_estimate",
    "compare_tables",
    "build_fixture",
    "random_database",
    "__version__",
]


# The reference estimator and the synthetic databases are for testing; they
# load on first use so that importing the package (and the CLI) skips them.
_LAZY = {
    "brute_force_estimate": "oracle",
    "compare_tables": "oracle",
    "build_fixture": "synth",
    "random_database": "synth",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
