import logging

import pytest

from timberline.model import TABLES
from timberline.synth import build_fixture

logging.getLogger("timberline").setLevel(logging.ERROR)


def same_contents(db, other) -> bool:
    """Field-by-field equality of two databases up to row order within each table."""
    if db.states != other.states:
        return False
    for spec in TABLES.values():
        a = sorted(getattr(db, spec.db_field), key=repr)
        b = sorted(getattr(other, spec.db_field), key=repr)
        if a != b:
            return False
    return True


@pytest.fixture(scope="session")
def synth1():
    return build_fixture("SYNTH-1")


@pytest.fixture(scope="session")
def synth_panel():
    return build_fixture("SYNTH-5PANEL")


@pytest.fixture(scope="session")
def synth_grm():
    return build_fixture("SYNTH-GRM")


@pytest.fixture(scope="session")
def synth_inv():
    return build_fixture("SYNTH-INV")
