"""Shared fixtures: the preset algebras and their derived data."""

import pytest

from hopfcheck.cofrobenius import cofrobenius_data
from hopfcheck.document import build_algebra
from hopfcheck.hopf import require_passing, verify_hopf
from hopfcheck.presets import preset_document
from hopfcheck.quasitriangular import RMatrix


def pytest_runtest_logreport(report):
    # one visible verdict line per acceptance criterion, even on pass
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    print(f"\nACCEPTANCE {name}: {status}", flush=True)


def verified(doc):
    """The algebra of doc, after its Hopf axiom battery has passed."""
    algebra = build_algebra(doc)
    require_passing(verify_hopf(algebra))
    return algebra


@pytest.fixture(scope="session")
def c2():
    return verified(preset_document("group:C2"))


@pytest.fixture(scope="session")
def c4():
    return verified(preset_document("group:C4"))


@pytest.fixture(scope="session")
def sweedler():
    return verified(preset_document("sweedler4"))


@pytest.fixture(scope="session")
def sweedler_doc():
    return preset_document("sweedler4")


@pytest.fixture(scope="session")
def sweedler_data(sweedler):
    return cofrobenius_data(sweedler)


@pytest.fixture(scope="session")
def sweedler_r(sweedler, sweedler_doc):
    return RMatrix.from_entries(sweedler, sweedler_doc.r_entries)


@pytest.fixture(scope="session")
def sweedler_xi0():
    return verified(preset_document("sweedler4", xi=0))


@pytest.fixture(scope="session")
def sweedler_xi0_r(sweedler_xi0):
    doc = preset_document("sweedler4", xi=0)
    return RMatrix.from_entries(sweedler_xi0, doc.r_entries)
