"""The benchmark's workloads: fixed rotations of operations.

An in-process op is one estimator call on a database loaded during set-up,
plus rendering its result to text.  A CLI op is one ``timberline`` command
run as a fresh subprocess.  Op names key the recorded references, so
renaming an op or changing its arguments needs new references.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

TREE_DOMAIN = "DIA >= 10 & STATUSCD == 1"


@dataclass(frozen=True)
class Op:
    name: str
    family: str = ""                       # in-process: estimator family
    kwargs: dict = field(default_factory=dict)
    render: str = "csv"                    # csv | json | pretty | geojson | dir
    argv: tuple[str, ...] = ()             # CLI: arguments after the program


# Each rotation has an odd number of ops.  Op times cluster by kind, so with
# an even count the median would fall between the slowest copy of one kind
# and the fastest copy of the next, two extremes; with an odd count it falls
# among the copies of the middle kind.

# The analyst's one-shot report: each command re-pays import, load and clip.
CLI_REPORT = (
    Op("tpa_species_size", argv=("tpa", "--most-recent", "--by-species",
                                 "--by-size-class")),
    Op("biomass_domain_json", render="json",
       argv=("biomass", "--most-recent", "--tree-domain", TREE_DOMAIN,
             "--format", "json")),
    Op("area_grouped_pretty", render="pretty",
       argv=("area", "--most-recent", "--grp-by", "OWNCD,FORTYPCD",
             "--area-domain", "STDAGE > 40", "--pretty")),
    Op("growmort_ema", argv=("growmort", "--most-recent", "--method", "EMA",
                             "--lambda", "0.3,0.7")),
    Op("clip", render="dir", argv=("clip", "--most-recent")),
)

# A notebook user re-estimating on a loaded database: every family, the
# panel methods, few groups.  Per-plot walkers and domain predicates
# dominate; stratified totals are a small share.
SESSION_FAMILIES = (
    Op("tpa_species_domain", "tpa", {"by_species": True, "tree_domain": TREE_DOMAIN}),
    Op("tpa_ema", "tpa", {"method": "EMA", "lambdas": (0.3, 0.5, 0.7)}),
    Op("tpa_annual", "tpa", {"method": "ANNUAL"}),
    Op("tpa_sma", "tpa", {"method": "SMA"}),
    Op("biomass_species", "biomass", {"by_species": True}),
    Op("area_owncd_domain", "area", {"grp_by": ("OWNCD",), "area_domain": "STDAGE > 40"}),
    Op("grow_mort", "growMort"),
    Op("vital_rates", "vitalRates"),
    Op("dwm", "dwm"),
    Op("diversity", "diversity"),
    Op("invasive", "invasive"),
    Op("seedling", "seedling"),
    Op("stand_struct", "standStruct"),
)

# The same estimator path at high group cardinality: thousands of groups,
# polygon assignment, spatial join and large renders.  ``polys`` is filled
# in with the parsed polygon set at run time.
WIDE_GROUPS = (
    Op("tpa_polys_species_size", "tpa",
       {"polys": True, "by_species": True, "by_size_class": True}),
    Op("biomass_polys_spatial", "biomass", {"polys": True, "return_spatial": True},
       render="geojson"),
    Op("area_polys_fortype_owner", "area",
       {"polys": True, "grp_by": ("FORTYPCD", "OWNCD")}),
    Op("tpa_by_plot", "tpa", {"by_plot": True}),
    Op("biomass_by_plot_species", "biomass", {"by_plot": True, "by_species": True},
       render="json"),
)

WORKLOADS = {
    "cli-report": CLI_REPORT,
    "session-families": SESSION_FAMILIES,
    "wide-groups": WIDE_GROUPS,
}

# Set-ups per untimed run; ``setup_s`` is their median.
SETUPS = 3

# The untimed warm-up op of each workload (an index into its rotation); the
# cheapest op that still imports and touches every module the loop uses.
WARMUP = {"cli-report": 0, "session-families": 0, "wide-groups": 3}

# Requests whose *_SE / *_VAR columns are checked against the brute-force
# reference estimator on a small state during set-up.
VARIANCE_CHECKS = tuple(
    (op.family, op.kwargs) for op in SESSION_FAMILIES
) + (
    ("tpa", {"by_species": True, "by_size_class": True}),
    ("biomass", {"method": "EMA", "lambdas": (0.3, 0.7)}),
    ("area", {"grp_by": ("OWNCD", "FORTYPCD"), "area_domain": "STDAGE > 40"}),
)


def rotate(ops, run_op, seconds: float, rotations: int | None, deadline: float) -> dict:
    """Closed loop over whole rotations of ``ops``.

    Runs the whole number of rotations whose op time comes nearest to
    ``seconds`` (at least one), or exactly ``rotations``, so every op kind
    is sampled equally often and a run on a slow host is not stretched by
    a whole extra rotation.  No rotation starts within 30 s of the
    ``time.monotonic()`` value ``deadline``.  ``run_op(op, op_id)`` returns
    a sample dict with at least ``seconds``.
    """
    samples: list[dict] = []
    busy = 0.0
    done = 0
    while True:
        if rotations is not None and done >= rotations:
            break
        if rotations is None and done > 0 and busy + busy / done / 2 >= seconds:
            break
        if done > 0 and deadline - time.monotonic() < 30.0:
            break
        for op in ops:
            sample = run_op(op, len(samples))
            busy += sample["seconds"]
            samples.append(sample)
        done += 1
    return {"samples": samples, "busy_s": busy, "rotations": done}
