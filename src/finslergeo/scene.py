"""Scene files, diagnostics orchestration, and the serialized report.

A scene is a JSON document naming a Lagrangian (catalog reference, inline
family data, or a raw expression), tangent samples, and options.  Running a
scene produces a report dictionary whose canonical serialization is
byte-stable: floats are emitted with 17 significant digits (lossless for
IEEE doubles) and key order is fixed by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from json.encoder import encode_basestring_ascii as _string
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from . import __version__
from . import alphabeta, berwald, catalog, expr as exprmod, geometry
from .berwald import NoAdmissibleDirections, NotBerwald
from .defs import (
    BadNumber, DslLagrangian, FamilyInstance, LagrangianDef, TangentSample, as_number,
    fiber_aliases,
)
from .expr import ExprDomainError
from .geometry import DegenerateMetric
from .jets import DomainError

_SAMPLE_ERRORS = (
    DomainError,
    ExprDomainError,
    DegenerateMetric,
    NotBerwald,
    NoAdmissibleDirections,
)


class SceneError(ValueError):
    """Scene validation failure; `pointer` is a JSON pointer into the file."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


@dataclass(frozen=True)
class SceneOptions:
    tol_berwald: float = berwald.TOL_BERWALD
    tol_sym: float = berwald.TOL_SYM
    tol_degenerate: float = geometry.TOL_DEGENERATE
    tol_null: float = geometry.TOL_NULL
    directions: int = berwald.DEFAULT_DIRECTIONS
    spread: float = berwald.DEFAULT_SPREAD
    seed: int = 0
    signature_convention: str = "+---"
    reference_metric: Optional[tuple] = None  # expression matrix
    reference_metric_src: Optional[tuple] = None


@dataclass(frozen=True)
class Scene:
    dim: int
    aliases: Optional[Mapping[str, int]]
    lagrangian: LagrangianDef
    catalog_name: Optional[str]
    samples: tuple[tuple[str, TangentSample], ...]
    options: SceneOptions
    # the block evaluation of the samples that loading made (a catalog
    # entry's default samples), which `run_scene` reads instead of its own
    evaluation: Optional[geometry._Eval] = field(default=None, compare=False, repr=False)


# -- validation helpers ---------------------------------------------------------


def _expect(cond: bool, pointer: str, message: str):
    if not cond:
        raise SceneError(pointer, message)


def _expect_type(val, typ, pointer):
    _expect(
        isinstance(val, typ) and not isinstance(val, bool),
        pointer,
        f"expected {typ.__name__}, got {type(val).__name__}",
    )
    return val


def _get(obj, key, pointer, typ=None, required=True, default=None):
    if key not in obj:
        _expect(not required, f"{pointer}/{key}", "missing required field")
        return default
    val = obj[key]
    return val if typ is None else _expect_type(val, typ, f"{pointer}/{key}")


def _token(key) -> str:
    """An object key as a JSON pointer token."""
    return str(key).replace("~", "~0").replace("/", "~1")


def _number(val, pointer, message=None) -> float:
    """Every number of a scene is read here: a bool, any other non-number
    and an integer beyond float range are a SceneError at its pointer."""
    try:
        return as_number(val)
    except BadNumber as err:
        raise SceneError(pointer, message or str(err)) from None


def _numbers(obj: dict, pointer) -> dict:
    """The values of a JSON object of numbers, as floats."""
    return {k: _number(v, f"{pointer}/{_token(k)}") for k, v in obj.items()}


def _positive_number(val, pointer) -> float:
    message = "expected a finite positive number"
    num = _number(val, pointer, message)
    _expect(0 < num < math.inf, pointer, message)
    return num


def _at_least_two(val, pointer) -> int:
    _expect(_expect_type(val, int, pointer) >= 2, pointer, "need at least 2 directions")
    return val


def _non_negative(val, pointer) -> int:
    _expect(_expect_type(val, int, pointer) >= 0, pointer, "expected a non-negative integer")
    return val


def _convention(val, pointer) -> str:
    _expect(val in ("+---", "-+++"), pointer, "must be '+---' or '-+++'")
    return val


class _Option(NamedTuple):
    field: str  # of SceneOptions, whose default is the option's
    pointer: str  # of the option in a scene file
    check: Callable  # (value, pointer) -> the checked value
    flag: Optional[str]  # the command-line flag that replaces it


# Every option but the reference metric, which is read with the chart: each
# is read from a scene and checked here, replaced by its flag, and written to
# a report's metadata in this order.
OPTIONS = (
    _Option("seed", "/options/seed", _non_negative, "--seed"),
    _Option("directions", "/options/directions", _at_least_two, "--directions"),
    _Option("spread", "/options/spread", _positive_number, None),
    _Option(
        "signature_convention", "/options/signature_convention", _convention,
        "--signature-convention",
    ),
    _Option("tol_berwald", "/options/tolerances/berwald", _positive_number, "--tol-berwald"),
    _Option("tol_sym", "/options/tolerances/sym", _positive_number, "--tol-sym"),
    _Option(
        "tol_degenerate", "/options/tolerances/degenerate", _positive_number, "--tol-degenerate"
    ),
    _Option("tol_null", "/options/tolerances/null", _positive_number, "--tol-null"),
)
_OPTION_AT = {opt.pointer: opt for opt in OPTIONS}
# the objects that hold options, below /options
_OPTION_GROUPS = {opt.pointer.rsplit("/", 1)[0] for opt in OPTIONS} - {"/options"}
_DEFAULTS = SceneOptions()


def _read_options(node: dict, pointer: str, values: dict) -> dict:
    """`values` with the options set in the object at `pointer` (and in
    the objects it holds), each checked, by SceneOptions field.  A member
    that is no option is a SceneError."""
    for key, val in node.items():
        at = f"{pointer}/{_token(key)}"
        if at in _OPTION_AT:
            values[_OPTION_AT[at].field] = _OPTION_AT[at].check(val, at)
        elif at in _OPTION_GROUPS:
            _read_options(_expect_type(val, dict, at), at, values)
        else:
            _expect(at == "/options/reference_metric", at, "unknown field")
    return values


def override_options(scene: Scene, **texts: str) -> Scene:
    """The scene with the named options (`OPTIONS` fields) replaced by the
    texts of their flags.  A text is converted by the type of its option's
    default (int, float or str), then checked as `load_scene` checks that
    option: a bad text is a `SceneError` at the option's pointer."""
    values = {}
    option_of = {opt.field: opt for opt in OPTIONS}
    for field, text in texts.items():
        opt = option_of[field]
        kind = type(getattr(_DEFAULTS, field))
        try:
            value = kind(text)
        except ValueError:
            raise SceneError(opt.pointer, f"expected {kind.__name__}, got {text!r}") from None
        values[field] = opt.check(value, opt.pointer)
    return replace(scene, options=replace(scene.options, **values))


def _option_metadata(options: SceneOptions) -> dict:
    """The options of `OPTIONS` as a report's metadata: each at its pointer
    below /options."""
    tree: dict = {}
    for opt in OPTIONS:
        *groups, key = opt.pointer.split("/")[2:]
        node = tree
        for group in groups:
            node = node.setdefault(group, {})
        node[key] = getattr(options, opt.field)
    return tree


def _float_list(val, pointer, length=None):
    _expect(isinstance(val, list), pointer, "expected an array of numbers")
    if length is not None:
        _expect(len(val) == length, pointer, f"expected {length} entries, got {len(val)}")
    return [_number(v, f"{pointer}/{i}") for i, v in enumerate(val)]


def _parse_expr(src, dim, pointer, params=(), aliases=None):
    _expect(isinstance(src, str), pointer, "expected an expression string")
    try:
        return exprmod.parse(src, dim, params, aliases)
    except (exprmod.ExprSyntaxError, exprmod.ExprNameError) as err:
        raise SceneError(pointer, str(err)) from err


def _expr_matrix(rows: list, dim, pointer, params, aliases) -> tuple:
    """A dim x dim matrix of expressions, read from `rows` row by row: the
    row's shape, then each entry at its own pointer."""
    _expect(len(rows) == dim, pointer, f"expected {dim} rows")
    matrix = []
    for i, row in enumerate(rows):
        _expect(
            isinstance(row, list) and len(row) == dim, f"{pointer}/{i}", f"expected {dim} entries"
        )
        matrix.append(tuple(
            _parse_expr(src, dim, f"{pointer}/{i}/{j}", params, aliases)
            for j, src in enumerate(row)
        ))
    return tuple(matrix)


# -- scene loading ----------------------------------------------------------------


def load_scene(obj: Mapping) -> Scene:
    """Validate a parsed scene document and build the runtime objects."""
    _expect(isinstance(obj, dict), "", "scene must be a JSON object")
    lag_obj = _get(obj, "lagrangian", "", dict)

    chart = _get(obj, "chart", "", dict, required=False)
    aliases = None
    chart_dim = None
    if chart is not None:
        chart_dim = _get(chart, "dim", "/chart", int)
        _expect(chart_dim >= 1, "/chart/dim", "dimension must be >= 1")
        alias_list = _get(chart, "aliases", "/chart", list, required=False)
        if alias_list is not None:
            _expect(
                len(alias_list) == chart_dim,
                "/chart/aliases",
                f"expected {chart_dim} names",
            )
            aliases = {}
            for i, name in enumerate(alias_list):
                _expect(
                    isinstance(name, str) and name != "",
                    f"/chart/aliases/{i}",
                    "expected a nonempty string",
                )
                aliases[name] = i

    kinds = [k for k in ("catalog", "family", "dsl") if k in lag_obj]
    _expect(
        len(kinds) == 1,
        "/lagrangian",
        "exactly one of 'catalog', 'family', 'dsl' is required",
    )
    kind = kinds[0]
    catalog_name = None
    entry_samples: tuple = ()
    evaluation = None

    if kind == "catalog":
        catalog_name = _get(lag_obj, "catalog", "/lagrangian", str)
        overrides = _get(lag_obj, "overrides", "/lagrangian", dict, required=False, default={})
        try:
            entry = catalog.get(catalog_name, overrides)
        except catalog.InvalidOverride as err:
            pointer = "/lagrangian/catalog" if err.key is None else (
                f"/lagrangian/overrides/{_token(err.key)}"
            )
            raise SceneError(pointer, str(err)) from err
        except (catalog.UnknownEntry, ValueError) as err:
            raise SceneError("/lagrangian/catalog", str(err)) from err
        lag = entry.lagrangian
        dim = entry.dim
        aliases = dict(entry.aliases) if entry.aliases else aliases
        entry_samples = tuple(
            (f"default-{i}", s) for i, s in enumerate(entry.default_samples)
        )
        if chart_dim is not None:
            _expect(
                chart_dim == dim,
                "/chart/dim",
                f"catalog entry {catalog_name!r} has dimension {dim}",
            )
    elif kind == "family":
        _expect(chart_dim is not None, "/chart", "a chart is required for family scenes")
        dim = chart_dim
        fam = _get(lag_obj, "family", "/lagrangian", dict)
        params = _get(fam, "params", "/lagrangian/family", dict, required=False, default={})
        pnames = set(params)
        alpha = _expr_matrix(
            _get(fam, "alpha", "/lagrangian/family", list),
            dim, "/lagrangian/family/alpha", pnames, aliases,
        )
        beta_row = _get(fam, "beta", "/lagrangian/family", list)
        _expect(len(beta_row) == dim, "/lagrangian/family/beta", f"expected {dim} entries")
        beta = tuple(
            _parse_expr(src, dim, f"/lagrangian/family/beta/{j}", pnames, aliases)
            for j, src in enumerate(beta_row)
        )
        h_src = _get(fam, "H", "/lagrangian/family", str, required=False)
        h_ast = (
            _parse_expr(h_src, dim, "/lagrangian/family/H", pnames, aliases)
            if h_src is not None
            else None
        )
        c, m, p = (
            _number(_get(fam, key, "/lagrangian/family"), f"/lagrangian/family/{key}")
            for key in "cmp"
        )
        values = _numbers(params, "/lagrangian/family/params")
        try:
            lag = FamilyInstance(
                dim, alpha, beta, c=c, m=m, p=p, h_expr=h_ast, params=values
            )
        except ValueError as err:
            raise SceneError("/lagrangian/family", str(err)) from err
    else:
        _expect(chart_dim is not None, "/chart", "a chart is required for dsl scenes")
        dim = chart_dim
        dsl = _get(lag_obj, "dsl", "/lagrangian", dict)
        params = _get(dsl, "params", "/lagrangian/dsl", dict, required=False, default={})
        src = _get(dsl, "source", "/lagrangian/dsl", str)
        ast = _parse_expr(
            src, 2 * dim, "/lagrangian/dsl/source", set(params), fiber_aliases(dim, aliases)
        )
        lag = DslLagrangian(dim, ast, _numbers(params, "/lagrangian/dsl/params"))

    samples_obj = _get(obj, "samples", "", list, required=False)
    samples: list[tuple[str, TangentSample]] = []
    if samples_obj:
        for i, s in enumerate(samples_obj):
            _expect(isinstance(s, dict), f"/samples/{i}", "expected an object")
            xs = _float_list(_get(s, "x", f"/samples/{i}", list), f"/samples/{i}/x", dim)
            vs = _float_list(
                _get(s, "xdot", f"/samples/{i}", list), f"/samples/{i}/xdot", dim
            )
            label = _get(s, "label", f"/samples/{i}", str, required=False, default=f"sample-{i}")
            try:
                samples.append((label, TangentSample(xs, vs)))
            except ValueError as err:
                raise SceneError(f"/samples/{i}", str(err)) from err
    else:
        _expect(
            bool(entry_samples),
            "/samples",
            "at least one sample is required (catalog scenes may omit them)",
        )
        samples = list(entry_samples)
        evaluation = entry.evaluation

    opts_obj = _get(obj, "options", "", dict, required=False, default={})
    values = _read_options(opts_obj, "/options", {})
    ref = _get(opts_obj, "reference_metric", "/options", list, required=False)
    ref_exprs = ref_src = None
    if ref is not None:
        ref_exprs = _expr_matrix(ref, dim, "/options/reference_metric", (), aliases)
        ref_src = tuple(tuple(row) for row in ref)  # each entry a string, as parsed

    options = SceneOptions(**values, reference_metric=ref_exprs, reference_metric_src=ref_src)
    return Scene(
        dim=dim,
        aliases=aliases,
        lagrangian=lag,
        catalog_name=catalog_name,
        samples=tuple(samples),
        options=options,
        evaluation=evaluation,
    )


def load_scene_file(path: str) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        # bytes that are not UTF-8, and nesting past the decoder's recursion limit
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
            raise SceneError("", f"invalid JSON: {err}") from err
    return load_scene(obj)


# -- canonical serialization -------------------------------------------------------

_SCALARS = frozenset((str, float, int, bool, type(None)))


def _canon(value):
    """The report value as JSON-native Python: dicts with str keys, lists,
    str, int, float, bool and None.  Dispatch is on the exact type; an
    ndarray's `tolist()` is already native, and so is a list or tuple of
    native scalars, which is copied without recursion.  Other types (numpy
    scalars, subclasses) take the isinstance rules."""
    t = type(value)
    if t in _SCALARS:
        return value
    if t is dict:
        return {str(k): _canon(v) for k, v in value.items()}
    if t is list or t is tuple:
        if all(type(v) in _SCALARS for v in value):
            return list(value)
        return [_canon(v) for v in value]
    if t is np.ndarray and value.dtype != object:
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, np.ndarray):
        return _canon(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _float(x: float) -> str:
    return f"{x:.17g}" if math.isfinite(x) else "null"


def _emit(obj, pad: str, out: list) -> None:
    """Append the canonical JSON text of obj, whose first line continues at
    indentation `pad`, to out."""
    t = type(obj)
    if t is float:
        out.append(_float(obj))
    elif t is str:
        out.append(_string(obj))
    elif t is dict:
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for k, v in obj.items():
            out.append(sep + _string(str(k)) + ": ")
            _emit(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif t is list or t is tuple:
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        if all(type(v) is float for v in obj):
            out.append("[\n" + inner + sep.join(map(_float, obj)) + "\n" + pad + "]")
            return
        out.append("[\n" + inner)
        _emit(obj[0], inner, out)
        for v in obj[1:]:
            out.append(sep)
            _emit(v, inner, out)
        out.append("\n" + pad + "]")
    elif obj is None:
        out.append("null")
    elif t is bool:
        out.append("true" if obj else "false")
    elif t is int:
        out.append(str(obj))
    # subclasses of the JSON types (np.float64 is a float), by the same rules
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_float(obj))
    elif isinstance(obj, str):
        out.append(_string(obj))
    elif isinstance(obj, dict):
        _emit(dict(obj), pad, out)
    elif isinstance(obj, (list, tuple)):
        _emit(list(obj), pad, out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_json(obj, indent: int = 0) -> str:
    """Canonical JSON of a JSON-native value (see `_canon`), built in one
    pass into one buffer: floats as ``.17g`` (lossless for IEEE doubles) and
    ``null`` when not finite, strings ASCII-escaped as `json.dumps` does,
    two-space indentation with one element or member per line, keys in
    insertion order, ``{}``/``[]`` for empty containers.  `indent` is the
    nesting depth the first line continues at."""
    out: list = []
    _emit(obj, "  " * indent, out)
    return "".join(out)


def parse_report(text: str) -> dict:
    return json.loads(text)


# -- diagnostics ------------------------------------------------------------------

# The sections each subcommand writes, in report order.  "sample_detail" is the
# report-only part of each sample block: the chain's values, the identity
# residuals and the Berwald-condition fit.  The family sections apply to
# family Lagrangians only and non-metricity needs a reference metric.
_SECTIONS = {
    "probe": (),
    "berwald": ("berwald",),
    "obstruction": ("berwald", "obstruction", "family_proposition"),
    "causal": ("causal",),
    "nonmetricity": ("berwald", "nonmetricity"),
    "report": (
        "sample_detail", "berwald", "obstruction", "family_proposition", "causal",
        "nonmetricity",
    ),
}
SUBCOMMANDS = tuple(_SECTIONS)
_FAMILY_SECTIONS = ("family_proposition", "causal")


def _applicable_sections(scene: Scene, subcommand: str) -> tuple[tuple[str, ...], list]:
    """The sections of the subcommand that apply to the scene, and the
    warnings.  A subcommand named after a section that does not apply is
    refused (nonmetricity) or warns (causal)."""
    if subcommand not in _SECTIONS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    family = isinstance(scene.lagrangian, FamilyInstance)
    sections = []
    warnings = []
    for section in _SECTIONS[subcommand]:
        if section == "nonmetricity" and scene.options.reference_metric is None:
            if section == subcommand:
                raise SceneError(
                    "/options/reference_metric",
                    "a reference metric is required for non-metricity diagnostics",
                )
        elif section in _FAMILY_SECTIONS and not family:
            if section == subcommand:
                warnings.append("causal classification applies only to family Lagrangians")
        else:
            sections.append(section)
    return tuple(sections), warnings


def _sample_block(
    label: str,
    sample: TangentSample,
    detail: bool,
    verdict: geometry.AdmissibilityVerdict,
    ev: Optional[geometry._Row],
    fam,
) -> dict:
    block: dict = {
        "label": label,
        "x": _canon(sample.x),
        "xdot": _canon(sample.xdot),
    }
    block["admissibility"] = {
        "in_A": verdict.in_A,
        "L": verdict.L_value,
        "in_N": verdict.in_N,
        "in_A0": verdict.in_A0,
        "in_T": verdict.in_T,
        "failure_reason": verdict.failure_reason,
    }
    if not verdict.in_A:
        return _canon(block)
    try:
        mv = ev.metric()
        block["metric"] = {"det": mv.det, "signature": list(mv.signature)}
        if detail:
            block["spray"] = ev.spray_values
            block["nonlinear"] = ev.nonlinear_values
            block["chern_rund"] = ev.gamma_values
            block["cartan_trace"] = ev.cartan_trace
            curv = ev.curvature
            block["ricci"] = curv.ricci
            block["skew_ricci"] = curv.skew_ricci
            skew_route = geometry.ricci_skew_from_curvature(
                curv.hh_riemann, sample.xdot, ev.cartan_trace
            )
            residuals = {
                "skew_identity": float(
                    np.max(np.abs((curv.ricci - curv.ricci.T) - skew_route))
                ),
                "commutator": ev.commutator_residual(ev.log_sqrt_det),
            }
            # a family evaluation that failed is an error entry of the family
            # sections; the chain's own residuals still stand
            if isinstance(fam, alphabeta.FamilyEval):
                residuals["berwald_condition_fit"] = fam.fit.residual
                residuals["fitted_H"] = fam.fit.h
            block["residuals"] = residuals
    except _SAMPLE_ERRORS as err:
        block["error"] = str(err)
    return _canon(block)


def _attempt(fn, *args):
    """fn(*args), or the sample error that stopped it."""
    try:
        return fn(*args)
    except _SAMPLE_ERRORS as err:
        return err


def _entry(head: dict, fields, *inputs) -> dict:
    """One per-point entry: `head` and fields(*inputs), or `head` and the
    sample error that stopped it, whether raised here or held by an input
    (see `_attempt`)."""
    entry = dict(head)
    try:
        for value in inputs:
            if isinstance(value, Exception):
                raise value
        entry.update(fields(*inputs))
    except _SAMPLE_ERRORS as err:
        entry["error"] = str(err)
    return _canon(entry)


def _berwald_verdicts(opts: SceneOptions, probes: list) -> list:
    """The Berwald verdict at each base point, or the error that stopped
    it, from one `berwald.verdicts_at` over the base points in A; base
    point i draws its directions from the generator [seed, i]."""
    inside = [i for i, (verdict, _) in enumerate(probes) if verdict.in_A]
    found = dict(zip(inside, berwald.verdicts_at(
        [probes[i][1] for i in inside], [np.random.default_rng([opts.seed, i]) for i in inside],
        opts.directions, opts.spread, opts.tol_berwald,
    )))
    return [
        found.get(i, NoAdmissibleDirections(f"the sample is outside A ({v.failure_reason})"))
        for i, (v, _) in enumerate(probes)
    ]


def _obstruction_fields(ev, bv: berwald.BerwaldVerdict, tol_sym: float) -> dict:
    rep = berwald.obstruction_at(ev, bv, tol_sym)
    return {
        "ricci": rep.ricci,
        "skew": rep.skew,
        "skew_max_abs": rep.skew_max_abs,
        "condition_met": rep.metrizability_necessary_condition_met,
        "phi_constancy_residual": rep.phi_constancy_residual,
    }


def _nonmetricity_fields(bv: berwald.BerwaldVerdict, reference_metric, x) -> dict:
    berwald.require_berwald(bv)
    rep = berwald.nonmetricity(bv.affine_connection, reference_metric, x)
    return {"Q_norm": rep.Q_norm, "D": rep.D, "Q": rep.Q}


def _proposition_fields(fam: alphabeta.FamilyEval) -> dict:
    return {
        "f_scalar": fam.ricci.f_scalar,
        "beta_wedge_dH_max": fam.ricci.wedge_max_abs,
        "nonmetrizable": fam.nonmetrizable(),
    }


def _base_point(
    scene: Scene, label: str, sample: TangentSample, sections: tuple,
    verdict: geometry.AdmissibilityVerdict, ev: Optional[geometry._Row], bv,
) -> dict:
    """Every per-point entry of the requested sections at one base point,
    read from its row `ev` of the scene's order-4 block evaluation, whose
    admissibility is `verdict`, its Berwald verdict `bv` or the error that
    stopped it (None without a Berwald section), and, for a family, one
    closed-form evaluation.  The order is the same for every subcommand, so
    each writes a sample's admissibility and metric alike."""
    opts = scene.options
    lag = scene.lagrangian
    # family sections apply to family Lagrangians only and come with the
    # sample detail in a report, whose Berwald-condition fit reads `fam` too
    family = any(s in _FAMILY_SECTIONS for s in sections)
    fam = _attempt(alphabeta.FamilyEval, lag, sample.x) if family else None
    builders = {
        "berwald": (asdict, bv),
        "obstruction": (_obstruction_fields, ev, bv, opts.tol_sym),
        "family_proposition": (_proposition_fields, fam),
        "causal": (lambda fam: asdict(fam.causal), fam),
        "nonmetricity": (_nonmetricity_fields, bv, opts.reference_metric, sample.x),
    }
    detail = "sample_detail" in sections
    point = {"sample": _sample_block(label, sample, detail, verdict, ev, fam)}
    head = {"label": label, "x": _canon(sample.x)}
    for section in sections:
        if section in builders:
            point[section] = _entry(head, *builders[section])
    return point


@dataclass(frozen=True)
class _Summary:
    """A section's verdict, read from the per-point entries that were
    computed (an entry with an error decides nothing): its report fields,
    its printed line, its effect on the exit code and its warning."""

    section: dict
    line: Optional[str]
    nonmetrizable: bool = False  # proves non-metrizability: exit code 2
    warning: Optional[str] = None


def _line(per_point: list, ok: list, negative: bool, verdict: str, missing="computed") -> str:
    """The printed verdict by the one rule: a negative verdict needs one
    computed base point, a positive one every base point, and anything else
    is inconclusive."""
    n = len(per_point)
    if negative or len(ok) == n:
        return verdict
    return f"inconclusive ({n - len(ok)} of {n} base points not {missing})"


def _summary(entries: Mapping[str, list], opts: SceneOptions) -> dict[str, _Summary]:
    """The summary of each section from its per-point entries, both keyed by
    section name: the one reader of those entries that decides a verdict.
    A verdict with no computed entry is null in the report."""
    summaries = {}
    for name, per_point in entries.items():
        ok = [e for e in per_point if "error" not in e]
        every = len(ok) == len(per_point)
        nonmetrizable, warning = False, None
        if name == "berwald":
            is_berwald = all(e["is_berwald"] for e in ok) if ok else None
            dev = max((e["max_gamma_deviation"] for e in ok), default=None)
            fields = {"is_berwald": is_berwald, "max_gamma_deviation": dev}
            line = "not computed (no base point evaluated)" if not ok else _line(
                per_point, ok, not is_berwald,
                f"{'YES' if is_berwald else 'NO'} (max deviation {dev:.3e})", "evaluated",
            )
        elif name == "obstruction":
            met = all(e["condition_met"] for e in ok)
            skew = max((e["skew_max_abs"] for e in ok), default=None)
            fields = {
                "metrizability_necessary_condition_met": every and met if ok else None,
                "max_skew_abs": skew,
            }
            nonmetrizable = not met
            if ok:
                verdict = "necessary condition met" if met else "NON-METRIZABLE"
                line = _line(per_point, ok, not met, f"skew max {skew:.6g} — {verdict}")
            else:  # the error of a Berwald base point, else there was none
                line = "not computed ({})".format(next(
                    (e["error"] for e, b in zip(per_point, entries["berwald"])
                     if b.get("is_berwald")),
                    "no Berwald base point",
                ))
        elif name == "family_proposition":
            nonmetrizable = fires = any(e["nonmetrizable"] for e in ok)
            fields = {"fires": fires}
            verdict = "non-metrizable (f != 0 and beta^dH != 0)" if fires else "inconclusive"
            line = _line(per_point, ok, fires, verdict)
        elif name == "causal":
            viable = all(e["viable"] for e in ok)
            fields = {"viable": every and viable}
            if not viable:
                warning = "causal classification reports a non-viable instance"
            verdict = "viable" if viable else "NOT viable"
            line = _line(per_point, ok, not viable, verdict, "classified")
        else:
            fields = {"reference_metric": [list(r) for r in opts.reference_metric_src]}
            qs = [e["Q_norm"] for e in ok]
            line = f"max |Q| = {max(qs):.6g}" if qs else None
        summaries[name] = _Summary(
            {**fields, "per_base_point": per_point},
            line and f"{name.replace('_', ' ')}: {line}", nonmetrizable, warning,
        )
    return summaries


def summary_lines(report: dict, opts: SceneOptions) -> list[str]:
    """The printed line of each section of the report that has one, in
    report order: the lines of `_summary` on the report's per-point entries,
    the ones `run_scene` read, so a pure function of the report."""
    entries = {name: s["per_base_point"] for name, s in report.get("geometry", {}).items()}
    return [s.line for s in _summary(entries, opts).values() if s.line]


def run_scene(scene: Scene, subcommand: str) -> tuple[dict, int]:
    """Execute the requested diagnostics; returns (report, exit code)."""
    sections, warnings = _applicable_sections(scene, subcommand)
    opts = scene.options
    report: dict = {
        "metadata": {
            "tool": "finslergeo",
            "version": __version__,
            "subcommand": subcommand,
            **_option_metadata(opts),
            "catalog": scene.catalog_name,
            "dim": scene.dim,
        }
    }
    # one block evaluation for every base point: the loader's, if it made one
    _, probes = geometry.probe_block(
        scene.lagrangian,
        [sample for _, sample in scene.samples],
        convention=opts.signature_convention,
        tol_degenerate=opts.tol_degenerate,
        tol_null=opts.tol_null,
        evaluation=scene.evaluation,
    )
    bvs = _berwald_verdicts(opts, probes) if "berwald" in sections else [None] * len(probes)
    points = [
        _base_point(scene, label, sample, sections, *probe, bv)
        for (label, sample), probe, bv in zip(scene.samples, probes, bvs)
    ]
    report["samples"] = [p.pop("sample") for p in points]
    summaries = _summary({section: [p[section] for p in points] for section in points[0]}, opts)
    report["geometry"] = {section: s.section for section, s in summaries.items()}
    warnings += [s.warning for s in summaries.values() if s.warning]
    if warnings:
        report["warnings"] = warnings
    return report, 2 if any(s.nonmetrizable for s in summaries.values()) else 0
