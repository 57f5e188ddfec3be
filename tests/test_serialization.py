"""The report's serialization: byte for byte the recursive reference
serializer below, on every catalog entry and fixture scene and on edge
values, and a report made of JSON-native Python values only."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from finslergeo import catalog, scene
from finslergeo.scene import SUBCOMMANDS, SceneError, load_scene, render_json, run_scene

REPO = Path(__file__).resolve().parents[1]


# -- the reference: the two-pass serializer, isinstance dispatch -------------------


def ref_canon(value):
    """Recursively normalize report values for serialization."""
    if isinstance(value, dict):
        return {str(k): ref_canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [ref_canon(v) for v in value]
    if isinstance(value, np.ndarray):
        return [ref_canon(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def ref_render_json(obj, indent: int = 0) -> str:
    """Canonical JSON: floats with 17 significant digits, stable layout."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "null"
        return f"{obj:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {ref_render_json(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {ref_render_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# -- every catalog entry and fixture scene, every applicable subcommand -------------


def _documents():
    for name in catalog.names():
        yield f"catalog:{name}", {"lagrangian": {"catalog": name}}
    for path in sorted((REPO / "scenes").glob("*.json")):
        yield path.name, json.loads(path.read_text(encoding="utf-8"))


def _applies(doc, subcommand) -> bool:
    try:
        scene._applicable_sections(load_scene(doc), subcommand)
    except SceneError:  # non-metricity without a reference metric
        return False
    return True


_RUNS = [
    pytest.param(doc, sub, id=f"{name}-{sub}")
    for name, doc in _documents()
    for sub in SUBCOMMANDS
    if _applies(doc, sub)
]


@pytest.mark.parametrize("doc, subcommand", _RUNS)
def test_report_bytes_equal_the_reference_serializer(doc, subcommand, monkeypatch):
    report = run_scene(load_scene(doc), subcommand)[0]
    with monkeypatch.context() as patch:
        patch.setattr(scene, "_canon", ref_canon)
        reference = run_scene(load_scene(doc), subcommand)[0]
    assert render_json(report) == ref_render_json(reference)


def _non_native(value, path="$"):
    """The path and type of the first value that is not JSON-native Python."""
    t = type(value)
    if t is dict:
        for k, v in value.items():
            if type(k) is not str:
                return f"{path} key {k!r}", type(k).__name__
            found = _non_native(v, f"{path}/{k}")
            if found:
                return found
        return None
    if t is list:
        for i, v in enumerate(value):
            found = _non_native(v, f"{path}/{i}")
            if found:
                return found
        return None
    if t in (str, int, float, bool, type(None)):
        return None
    return path, t.__name__


@pytest.mark.parametrize("doc, subcommand", _RUNS)
def test_report_holds_json_native_values_only(doc, subcommand):
    assert _non_native(run_scene(load_scene(doc), subcommand)[0]) is None


# -- edge values --------------------------------------------------------------------


def _edge_document():
    return {
        "floats": [
            float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -5e-324,
            1.7976931348623157e308, 0.1, 1 / 3, 1e16, 123.0,
        ],
        "numpy scalars": [
            np.float64(0.1), np.float64("nan"), np.float64(-0.0), np.int64(-7),
            np.bool_(True), np.bool_(False), np.float32(0.1), np.int32(3),
        ],
        "mixed": [1, 2.5, True, None, "s", -0.0, np.float64(2.0)],
        "arrays": {
            "empty": np.zeros(0),
            "empty 2-d": np.zeros((2, 0)),
            "matrix": np.array([[1.0, -0.0], [float("nan"), 5e-324]]),
            "int": np.arange(3),
            "bool": np.array([True, False]),
            "object": np.array([np.float64(1.5), (1, 2)], dtype=object),
        },
        "nested tuples": (1, (2.0, (np.int64(3), ())), [(), {}]),
        "empty dict": {},
        "empty list": [],
        7: "an int key",
        (1, 2): "a tuple key",
        True: "a bool key",
        "strings": ["ünïcødé", "quote \" backslash \\ slash /", "\n\t\x00", "", "€𝄞"],
        "nested": {"a": {"b": {"c": [{"d": None}]}}},
        "bools": [True, False],
        "ints": [0, -1, 2**64, np.int64(2**62)],
    }


def test_edge_document_bytes_equal_the_reference_serializer():
    doc = _edge_document()
    text = render_json(scene._canon(doc))
    assert text == ref_render_json(ref_canon(doc))
    assert render_json(scene._canon(doc), indent=2) == ref_render_json(ref_canon(doc), indent=2)
    assert _non_native(scene._canon(doc)) is None
    parsed = json.loads(text)
    assert parsed["floats"][:3] == [None, None, None]
    assert parsed["strings"][0] == "ünïcødé"


def test_edge_values_render_as_the_reference_without_canon():
    # render_json takes subclasses of the JSON types (np.float64 is a float)
    # by the same rules, and refuses what the reference refuses
    for value in [np.float64(0.1), np.float64("inf"), [np.float64(-0.0), 1.0], (1, (2.5,))]:
        assert render_json(value) == ref_render_json(value)
    for value in [np.int64(1), np.bool_(True), np.zeros(2), complex(1, 2), object()]:
        with pytest.raises(TypeError):
            ref_render_json(value)
        with pytest.raises(TypeError):
            render_json(value)


def test_zero_dimensional_array_is_its_scalar():
    # the reference iterated the scalar that tolist() returns and raised
    with pytest.raises(TypeError):
        ref_canon(np.array(2.5))
    assert scene._canon(np.array(2.5)) == 2.5
    assert type(scene._canon(np.array(2.5))) is float
    assert scene._canon({"v": np.array(True)}) == {"v": True}
