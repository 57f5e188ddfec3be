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


@pytest.fixture(scope="session")
def raising_lagrangians():
    """Lagrangians whose stacked L raises at every sample, by name: a family
    whose alpha is identically zero, and a DSL L outside ln's domain."""
    from finslergeo.scene import load_scene

    def lagrangian(source):
        return load_scene({
            "chart": {"dim": 2},
            "lagrangian": source,
            "samples": [{"x": [0, 0], "xdot": [1, 0.1]}],
        }).lagrangian

    return {
        "alpha-zero": lagrangian({"family": {
            "alpha": [["0", "0"], ["0", "0"]], "beta": ["1", "0"], "c": 1, "m": 0, "p": 2,
        }}),
        "ln-domain": lagrangian({"dsl": {"source": "ln(-1)*dx0^2 - dx1^2"}}),
    }
