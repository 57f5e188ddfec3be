"""Per-layer tracing installed from outside the program.

The tracer replaces public functions of the finslergeo modules with wrappers
that record spans (name, start, end, parent, operation id) and exact work
counters.  Nothing inside ``src/finslergeo`` is changed: every wrapper is
set on a module or class attribute and removed again by ``uninstall``.
Spans stay in memory until ``write`` and ``self_times`` reduce them.

Jet multiplies are far too frequent for one span each; they are counted and
timed in aggregate, and their time is charged to the enclosing span so that
self times still add up.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

MARK = "__bench_wrapped__"

# (module, attribute path, span name) for every timed boundary.
SPAN_TARGETS = [
    ("jets", "JetSpace.__init__", "jets.space_build"),
    ("expr", "eval", "expr.eval"),
    ("geometry", "eval_L_jets", "geometry.L"),
    ("geometry", "invert_jet_matrix", "geometry.ginv"),
    ("geometry", "probe_admissibility", "geometry.probe"),
    ("geometry", "metric", "geometry.metric"),
    ("geometry", "_Eval.gamma_jets", "geometry.chern_rund"),
    ("geometry", "_Eval.curvature", "geometry.curvature"),
    ("geometry", "commutator_check", "geometry.commutator"),
    ("berwald", "detect_berwald", "berwald.detect"),
    ("berwald", "obstruction", "berwald.obstruction"),
    ("berwald", "nonmetricity", "berwald.nonmetricity"),
    ("berwald", "sample_admissible_directions", "berwald.sample_dirs"),
    ("alphabeta", "check_berwald_condition", "alphabeta"),
    ("alphabeta", "closed_form_ricci", "alphabeta"),
    ("alphabeta", "beta_wedge_dh", "alphabeta"),
    ("alphabeta", "proposition_nonmetrizable", "alphabeta"),
    ("alphabeta", "classify_causal", "alphabeta"),
    ("catalog", "get", "catalog.get"),
    ("scene", "load_scene_file", "scene.load"),
    ("scene", "run_scene", "scene.run"),
    ("scene", "render_json", "scene.render"),
    ("cli", "main", "cli.main"),
]
# Counted, not spanned.
MUL_TARGETS = [("jets", "Jet.__mul__"), ("jets", "Jet.__rmul__")]
EVAL_INIT_TARGET = ("geometry", "_Eval.__init__")
# Recursive functions: only the outermost call is a span.
OUTERMOST_ONLY = {"scene.render"}


def _resolve(pkg, module, path):
    """(owner object, attribute name) for 'module' + 'Class.attr' or 'attr'."""
    owner = getattr(pkg, module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def _own_attr(owner, attr):
    """The attribute as stored on its owner (a class's own dict for methods
    and cached properties), or None."""
    if owner is None:
        return None
    if isinstance(owner, type):
        return owner.__dict__.get(attr)
    return getattr(owner, attr, None)


def _all_targets():
    for module, path, _ in SPAN_TARGETS:
        yield module, path
    yield from MUL_TARGETS
    yield EVAL_INIT_TARGET


def wrapped_targets(pkg) -> list[str]:
    """Names of the traced targets that currently carry a tracer wrapper."""
    found = []
    for module, path in _all_targets():
        try:
            owner, attr = _resolve(pkg, module, path)
        except AttributeError:
            continue
        obj = _own_attr(owner, attr)
        inner = getattr(obj, "func", obj)  # cached_property keeps the function in .func
        if getattr(inner, MARK, False):
            found.append(f"{module}.{path}")
    return found


class Tracer:
    """Spans and counters for one traced phase; see module docstring."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list[list] = []  # [name, start, end, parent, op_id, leaf_s]
        self.stack: list[int] = []
        self.op_id = None
        self.counts: dict = defaultdict(Counter)  # op_id -> counter name -> n
        self.mul_s: dict = defaultdict(float)  # op_id -> seconds in multiplies
        self.missing: list[str] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str) -> None:
        self.counts[self.op_id][name] += 1

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name):
        tracer = self
        outermost = name in OUTERMOST_ONLY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and tracer.parent_name() == name:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer._observe(name, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _observe(self, name, result) -> None:
        self.count(name)
        if name == "geometry.probe" and self.parent_name() == "berwald.sample_dirs":
            self.count("berwald.dirs_attempted")
            if result.in_A:
                self.count("berwald.dirs_accepted")

    def _mul_wrapper(self, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(a, b):
            t0 = clock()
            result = fn(a, b)
            dt = clock() - t0
            tracer.counts[tracer.op_id]["jets.mul"] += 1
            tracer.mul_s[tracer.op_id] += dt
            if tracer.stack:
                tracer.spans[tracer.stack[-1]][5] += dt
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _eval_init_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(ev, lag, sample, *args, **kwargs):
            order = args[0] if args else kwargs.get("order")
            tracer.count(f"geometry.eval_o{order}")
            return fn(ev, lag, sample, *args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    def _replace(self, module, path, make):
        try:
            owner, attr = _resolve(self.pkg, module, path)
        except AttributeError:
            owner, attr = None, None
        original = _own_attr(owner, attr)
        if original is None:
            self.missing.append(f"{module}.{path}")
            return
        if isinstance(original, functools.cached_property):
            new = functools.cached_property(make(original.func))
            new.__set_name__(owner, attr)
        else:
            new = make(original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, path, name in SPAN_TARGETS:
            self._replace(module, path, lambda fn, name=name: self._span_wrapper(fn, name))
        for module, path in MUL_TARGETS:
            self._replace(module, path, self._mul_wrapper)
        self._replace(*EVAL_INIT_TARGET, self._eval_init_wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------------

    def self_times(self, op_ids) -> dict[str, float]:
        """Total self time in seconds per span name over the given operations.

        A span's self time is its duration minus its child spans' durations
        and minus the aggregated multiplies charged to it.
        """
        wanted = set(op_ids)
        self_s: dict[str, float] = defaultdict(float)
        for name, start, end, parent, op, leaf in self.spans:
            if op not in wanted:
                continue
            dur = end - start
            self_s[name] += dur - leaf
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
        for op in wanted:
            self_s["jets.mul"] += self.mul_s.get(op, 0.0)
        return dict(self_s)

    def totals(self, op_ids) -> Counter:
        out = Counter()
        for op in op_ids:
            out.update(self.counts.get(op, {}))
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, followed by the counters per operation."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, leaf in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "op": op, "mul_s": leaf}
                    )
                    + "\n"
                )
            for op, counter in self.counts.items():
                fh.write(json.dumps({"op": op, "counts": dict(counter)}) + "\n")
