import importlib.util
from pathlib import Path

import pytest

from finslergeo import catalog

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def entries():
    """All catalog entries, instantiated once (admissibility is verified at load)."""
    return {name: catalog.get(name) for name in catalog.names()}


@pytest.fixture(scope="session")
def pseudo_riemannian_names():
    """Entries whose Lagrangian is quadratic in xdot (smooth on TM minus 0)."""
    return ["minkowski4", "schwarzschild", "conformally-flat"]


@pytest.fixture(scope="session")
def family_names():
    return ["bogoslovsky", "kropina", "szabo-counterexample", "nonberwald-flat"]


@pytest.fixture(scope="session")
def digest_scenes():
    """(name, scene document) of every scene of tools/report_digests.py, the
    scenes whose report bytes the tool pins."""
    spec = importlib.util.spec_from_file_location(
        "report_digests", REPO / "tools" / "report_digests.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return list(tool.scene_documents(REPO))
