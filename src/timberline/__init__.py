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

__version__ = "0.3.1"

# Every export loads its module on first use, so importing the package (or
# one module of it, such as the CLI) runs no other module; the reference
# estimator and the synthetic databases are for testing.
_LAZY = {name: module for module, names in {
    "attributes": "FAMILIES EstimatorRequest estimate tpa biomass area grow_mort vital_rates "
                  "dwm diversity invasive seedling stand_struct make_classes",
    "core": "EstimateTable",
    "errors": "TimberlineError UsageError LoadError FetchError DomainSyntaxError "
              "DomainBindError EstimationError GeometryError",
    "evals": "ClipOptions clip find_evaluations",
    "io": "load_database write_database fetch_state",
    "model": "ForestDatabase validate_integrity",
    "spatial": "PolygonSet",
    "oracle": "brute_force_estimate compare_tables",
    "synth": "build_fixture random_database",
}.items() for name in names.split()}

__all__ = [*_LAZY, "__version__"]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
