"""Q1 element matrices, assembly, loads, and boundary handling.

Element integrals are checked against exact symbolic integration (sympy)
of the same bilinear forms, an oracle independent of the quadrature loop.
"""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from cdrschwarz.errors import ConfigurationError
from cdrschwarz.fem import (CdrParams, assemble, assemble_full, boundary_values,
                            element_matrices, shape_functions,
                            time_independent)
from cdrschwarz.mesh import Rect, build_mesh


def _sympy_element(hx, hy, eps, sigma, bx, by):
    """Exact element mass/stiffness via symbolic integration."""
    x, y = sp.symbols("x y")
    xi, eta = x / hx, y / hy
    phi = [(1 - xi) * (1 - eta), xi * (1 - eta), (1 - xi) * eta, xi * eta]
    me = sp.zeros(4, 4)
    ae = sp.zeros(4, 4)
    for i in range(4):
        gi = (sp.diff(phi[i], x), sp.diff(phi[i], y))
        for j in range(4):
            gj = (sp.diff(phi[j], x), sp.diff(phi[j], y))
            mass = sp.integrate(phi[i] * phi[j], (x, 0, hx), (y, 0, hy))
            stiff = sp.integrate(
                eps * (gi[0] * gj[0] + gi[1] * gj[1])
                + phi[i] * (bx * gj[0] + by * gj[1])
                + sigma * phi[i] * phi[j],
                (x, 0, hx), (y, 0, hy))
            me[i, j] = mass
            ae[i, j] = stiff
    return (np.array(me, dtype=float), np.array(ae, dtype=float))


@given(xi=st.floats(0, 1), eta=st.floats(0, 1))
@settings(max_examples=50, deadline=None)
def test_shape_functions_partition_of_unity(xi, eta):
    n, dn = shape_functions(xi, eta)
    assert abs(n.sum() - 1.0) <= 1e-14
    np.testing.assert_allclose(dn.sum(axis=0), 0.0, atol=1e-14)


def test_shape_functions_nodal_delta():
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    for k, (xi, eta) in enumerate(corners):
        n, _ = shape_functions(xi, eta)
        np.testing.assert_allclose(n, np.eye(4)[k], atol=1e-15)


def test_element_mass_closed_form():
    params = CdrParams(eps=1.0, sigma=0.0, b=(0.0, 0.0))
    h = 0.37
    me, _ = element_matrices(h, h, params)
    pattern = np.array([[4, 2, 2, 1],
                        [2, 4, 1, 2],
                        [2, 1, 4, 2],
                        [1, 2, 2, 4]], dtype=float)
    np.testing.assert_allclose(me, h * h / 36.0 * pattern, rtol=1e-13)
    # Re-ordered to walk the corners counterclockwise, the same matrix takes
    # the familiar circulant-looking form.
    ccw = np.array([0, 1, 3, 2])
    expected_ccw = np.array([[4, 2, 1, 2],
                             [2, 4, 2, 1],
                             [1, 2, 4, 2],
                             [2, 1, 2, 4]], dtype=float)
    np.testing.assert_allclose(me[np.ix_(ccw, ccw)],
                               h * h / 36.0 * expected_ccw, rtol=1e-13)


def test_element_diffusion_structure():
    params = CdrParams(eps=1.0, sigma=0.0, b=(0.0, 0.0))
    _, ae = element_matrices(0.25, 0.25, params)
    np.testing.assert_allclose(np.diag(ae), 2.0 / 3.0, rtol=1e-13)
    np.testing.assert_allclose(ae.sum(axis=1), 0.0, atol=1e-14)
    np.testing.assert_allclose(ae, ae.T, atol=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_element_matrices_match_symbolic_integration(seed):
    rng = np.random.default_rng(seed)
    hx, hy = rng.uniform(0.05, 0.8, size=2)
    eps = rng.uniform(0.01, 2.0)
    sigma = rng.uniform(0.0, 1.5)
    bx, by = rng.uniform(-2.0, 2.0, size=2)
    params = CdrParams(eps=eps, sigma=sigma, b=(bx, by))
    me, ae = element_matrices(hx, hy, params)
    me_ref, ae_ref = _sympy_element(hx, hy, eps, sigma, bx, by)
    np.testing.assert_allclose(me, me_ref, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(ae, ae_ref, rtol=1e-12, atol=1e-14)


def test_full_matrix_symmetric_without_convection():
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 6, 5)
    params = CdrParams(eps=0.3, sigma=0.7, b=(0.0, 0.0))
    m_full, a_full = assemble_full(mesh, params)
    np.testing.assert_allclose((a_full - a_full.T).toarray(), 0.0, atol=1e-13)
    np.testing.assert_allclose((m_full - m_full.T).toarray(), 0.0, atol=1e-14)


def test_full_matrix_annihilates_constants_without_reaction():
    # Diffusion and convection of a constant field both vanish, so with
    # sigma = 0 every row of the assembled operator sums to zero.
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 7, 4)
    params = CdrParams(eps=0.05, sigma=0.0, b=(1.3, -0.4))
    _, a_full = assemble_full(mesh, params)
    np.testing.assert_allclose(a_full @ np.ones(mesh.n_nodes), 0.0, atol=1e-12)


def test_assemble_partitions_all_nodes():
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 5, 6)
    system = assemble(mesh, CdrParams(eps=1.0, sigma=0.0, b=(0.0, 0.0)))
    assert system.n_interior + system.n_boundary == mesh.n_nodes
    assert system.n_interior == (5 - 1) * (6 - 1)
    assert system.M.shape == (system.n_interior, system.n_interior)
    assert system.A_IB.shape == (system.n_interior, system.n_boundary)
    assert system.M_IB.shape == system.A_IB.shape


def test_assemble_rejects_mesh_without_interior():
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 1, 1)
    with pytest.raises(ConfigurationError):
        assemble(mesh, CdrParams(eps=1.0, sigma=0.0, b=(0.0, 0.0)))


def test_mass_matrix_positive_definite():
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 6, 6)
    system = assemble(mesh, CdrParams(eps=1.0, sigma=0.0, b=(0.0, 0.0)))
    np.linalg.cholesky(system.M.toarray())  # raises if not SPD


def test_interior_operator_positive_definite_part():
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 8, 8)
    system = assemble(mesh, CdrParams(eps=0.01, sigma=0.0, b=(2.0, 1.0)))
    a = system.A_II.toarray()
    sym_eigs = np.linalg.eigvalsh(0.5 * (a + a.T))
    assert sym_eigs.min() > 0.0


def test_load_vector_zero_and_constant_forcing():
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 8, 8)
    base = dict(eps=1.0, sigma=0.0, b=(0.0, 0.0))
    zero_sys = assemble(mesh, CdrParams(**base))
    np.testing.assert_array_equal(zero_sys.load(0.3), 0.0)

    h2 = mesh.hx * mesh.hy
    unit_sys = assemble(mesh, CdrParams(**base, forcing=1.0))
    np.testing.assert_allclose(unit_sys.load(0.0), h2, rtol=1e-13)
    scaled = assemble(mesh, CdrParams(**base, forcing=2.5))
    np.testing.assert_allclose(scaled.load(0.0),
                               2.5 * unit_sys.load(0.0), rtol=1e-14)


def test_load_vector_affine_forcing_exact():
    # For f = x + y the consistent load at an interior node (xi, yi) is
    # exactly (xi + yi) * hx * hy: the hat function is symmetric about its
    # node, and the quadrature integrates the cubic integrand exactly.
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 10, 10)
    params = CdrParams(eps=1.0, sigma=0.0, b=(0.0, 0.0),
                       forcing=lambda x, y, t: x + y)
    system = assemble(mesh, params)
    coords = mesh.coords[system.interior_map]
    expected = (coords[:, 0] + coords[:, 1]) * mesh.hx * mesh.hy
    np.testing.assert_allclose(system.load(0.0), expected, rtol=1e-12)


def test_load_vector_time_dependence():
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 4, 4)
    params = CdrParams(eps=1.0, sigma=0.0, b=(0.0, 0.0),
                       forcing=lambda x, y, t: t * np.ones_like(x))
    system = assemble(mesh, params)
    f1 = system.load(1.0).copy()
    f2 = system.load(2.0)
    np.testing.assert_allclose(f2, 2.0 * f1, rtol=1e-14)


def test_time_independent_forcing_is_evaluated_once():
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 6, 6)
    calls = []

    def profile(x, y, t):
        calls.append(t)
        return x * y

    base = dict(eps=1.0, sigma=0.0, b=(0.0, 0.0))
    every_time = assemble(mesh, CdrParams(**base, forcing=profile))
    want = [every_time.load(t).copy() for t in (0.0, 0.4, 0.7)]
    assert len(calls) == 3
    once = assemble(mesh, CdrParams(**base,
                                    forcing=time_independent(profile)))
    for t, ref in zip((0.0, 0.4, 0.7), want):
        np.testing.assert_array_equal(once.load(t), ref)
    assert len(calls) == 4


def test_boundary_values_variants():
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 2, 2)
    system = assemble(mesh, CdrParams(eps=1.0, sigma=0.0, b=(0.0, 0.0)))
    zero = boundary_values(
        system, CdrParams(eps=1.0, sigma=0.0, b=(0.0, 0.0)))(0.0)
    np.testing.assert_array_equal(zero, np.zeros(8))

    const = boundary_values(
        system, CdrParams(eps=1.0, sigma=0.0, b=(0.0, 0.0), dirichlet=2.0))(0.0)
    np.testing.assert_array_equal(const, np.full(8, 2.0))

    trace = boundary_values(
        system,
        CdrParams(eps=1.0, sigma=0.0, b=(0.0, 0.0),
                  dirichlet=lambda x, y, t: x))(0.0)
    np.testing.assert_allclose(trace, mesh.coords[system.boundary_map, 0],
                               atol=1e-15)


def test_galerkin_reproduces_affine_solution():
    # u = 1 + 2x + 3y solves the steady problem with f = b.grad(u) + sigma*u,
    # so the discrete interior solve must reproduce it to solver precision.
    bx, by, sigma = 0.6, 0.8, 0.5
    u = lambda x, y: 1.0 + 2.0 * x + 3.0 * y
    params = CdrParams(
        eps=0.02, sigma=sigma, b=(bx, by),
        forcing=lambda x, y, t: 2.0 * bx + 3.0 * by + sigma * u(x, y),
        dirichlet=lambda x, y, t: u(x, y))
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 8, 8)
    system = assemble(mesh, params)
    g = boundary_values(system, params)(0.0)
    v = spsolve(system.A_II.tocsc(),
                system.load(0.0) - system.A_IB @ g)
    coords = mesh.coords[system.interior_map]
    np.testing.assert_allclose(v, u(coords[:, 0], coords[:, 1]), atol=1e-10)


def test_params_validation():
    with pytest.raises(ConfigurationError):
        CdrParams(eps=0.0, sigma=0.0, b=(1.0, 0.0))
    with pytest.raises(ConfigurationError):
        CdrParams(eps=1.0, sigma=-0.1, b=(1.0, 0.0))
    with pytest.raises(ConfigurationError):
        CdrParams(eps=1.0, sigma=0.0, b=(1.0, 0.0, 0.0))
    with pytest.raises(ConfigurationError):
        CdrParams(eps=1.0, sigma=0.0, b=(np.nan, 0.0))
    params = CdrParams(eps=1.0, sigma=0.0, b=np.array([1, 2]))
    assert params.b == (1.0, 2.0)
