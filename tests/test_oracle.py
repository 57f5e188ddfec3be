"""The finite-difference oracle itself, and jets-vs-oracle agreement."""

import math

import numpy as np
import pytest

from finslergeo import catalog, geometry
from finslergeo.defs import TangentSample
from finslergeo.geometry import _Eval
from finslergeo.jets import extract_partial
from finslergeo.oracle import StencilDomainError, fd_partial


def test_second_derivative_of_square():
    assert fd_partial(lambda p: p[0] ** 2, [1.7], [0, 0]) == pytest.approx(2.0, abs=1e-7)


def test_minkowski_vertical_hessian():
    ent = catalog.get("minkowski4")

    def L_of_v(v):
        return _Eval(ent.lagrangian, TangentSample(np.zeros(4), v), 1).row(0).L.value

    v0 = np.array([1.0, 0.2, 0.1, 0.3])
    hess = np.array(
        [[fd_partial(L_of_v, v0, [a, b]) for b in range(4)] for a in range(4)]
    )
    np.testing.assert_allclose(hess, 2 * np.diag([1.0, -1, -1, -1]), atol=1e-7)


def test_counterexample_gamma_x_derivative_matches_jets():
    # this is the oracle for the affine Ricci machinery: d_x of a connection
    # component from finite differences vs the jet value
    ent = catalog.get("szabo-counterexample")
    s = ent.default_samples[0]
    ev = _Eval(ent.lagrangian, s, 4).row(0)
    jet_val = ev.gamma_x_derivatives[2, 1, 0, 2]  # d Gamma^v_ux / d x

    def gamma_component(x):
        return geometry.chern_rund(ent.lagrangian, TangentSample(x, s.xdot))[1, 0, 2]

    ref = fd_partial(gamma_component, s.x, [2])
    assert jet_val == pytest.approx(ref, rel=1e-4, abs=1e-6)


def test_domain_error_at_stencil_point():
    def f(p):
        return math.log(p[0])

    with pytest.raises(StencilDomainError):
        fd_partial(f, [1e-9], [0], step=1e-2)


def test_order_limit():
    with pytest.raises(ValueError):
        fd_partial(lambda p: p[0], [0.0], [0] * 5)


def test_richardson_improves_first_derivative():
    f = lambda p: math.sin(p[0])
    x = [0.6]
    plain = fd_partial(f, x, [0], step=1e-3, richardson=False)
    extrap = fd_partial(f, x, [0], step=1e-3)
    truth = math.cos(0.6)
    assert abs(extrap - truth) < abs(plain - truth)
    assert extrap == pytest.approx(truth, abs=1e-11)


def _lagrangian_value(lag, x, v):
    return _Eval(lag, TangentSample(x, v), 1).row(0).L.value


def test_jets_match_oracle_on_all_catalog_defaults(entries):
    # orders <= 2 at 1e-6 relative, orders 3-4 at 1e-4 relative
    low = ([0], [4], [0, 4], [4, 4])
    high = ([4, 4, 5], [0, 4, 4], [4, 4, 5, 5], [0, 1, 4, 4])
    for name, e in entries.items():
        n = e.dim
        s = e.default_samples[0]
        ev = _Eval(e.lagrangian, s, 4).row(0)
        z = list(s.x) + list(s.xdot)

        def L_flat(pt):
            return _lagrangian_value(e.lagrangian, pt[:n], pt[n:])

        for multi, tol in [(m, 1e-6) for m in low] + [(m, 1e-4) for m in high]:
            jet_val = extract_partial(ev.L, list(multi))
            ref = fd_partial(L_flat, z, list(multi))
            err = abs(jet_val - ref) / max(1.0, abs(ref))
            assert err < tol, (name, multi, jet_val, ref)
