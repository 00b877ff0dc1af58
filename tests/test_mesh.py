"""Structured mesh geometry, node bookkeeping, and bilinear interpolation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrschwarz.errors import ConfigurationError, OutOfDomainError
from cdrschwarz.mesh import BOUNDARY_TOL, Rect, build_mesh


def test_rect_rejects_degenerate():
    with pytest.raises(ConfigurationError):
        Rect(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        Rect(1.0, 0.0, 0.0, 1.0)


def test_rect_geometry_helpers():
    r = Rect(0.0, 2.0, 1.0, 2.0)
    assert r.width == 2.0 and r.height == 1.0
    np.testing.assert_array_equal(
        r.contains_points([[0.0, 1.0], [2.0, 2.0], [2.1, 1.5]]),
        [True, True, False])
    assert r.border_distance(0.5, 1.25) == 0.25
    np.testing.assert_array_equal(
        r.contains_points([[1.0, 1.5], [3.0, 1.5]]), [True, False])


def test_node_numbering_row_major():
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 2, 2)
    assert mesh.n_nodes == 9 and mesh.n_cells == 4
    # Node (i, j) has id j * (nx + 1) + i: (1, 2) is node 7.
    np.testing.assert_allclose(mesh.coords[7], [0.5, 1.0])
    np.testing.assert_allclose(mesh.coords.reshape(3, 3, 2)[2, 1], [0.5, 1.0])
    # Cell (i, j) connects (i,j), (i+1,j), (i,j+1), (i+1,j+1).
    np.testing.assert_array_equal(mesh.connectivity[0], [0, 1, 3, 4])
    np.testing.assert_array_equal(mesh.connectivity[3], [4, 5, 7, 8])


def test_mesh_rejects_empty_direction():
    with pytest.raises(ConfigurationError):
        build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 0, 3)


@given(nx=st.integers(1, 20), ny=st.integers(1, 20))
@settings(max_examples=40, deadline=None)
def test_boundary_interior_partition(nx, ny):
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), nx, ny)
    boundary = set(mesh.boundary_node_ids.tolist())
    interior = set(mesh.interior_node_ids.tolist())
    assert boundary.isdisjoint(interior)
    assert boundary | interior == set(range(mesh.n_nodes))
    # Every boundary node actually sits on the border and vice versa.
    for k in boundary:
        x, y = mesh.coords[k]
        assert min(x, 1.0 - x, y, 1.0 - y) <= BOUNDARY_TOL
    for k in interior:
        x, y = mesh.coords[k]
        assert min(x, 1.0 - x, y, 1.0 - y) > BOUNDARY_TOL


def test_locate_cell_and_local_coordinates():
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 4, 2)
    ci, cj, xi, eta = mesh.locate_many([[0.30, 0.75], [1.0, 1.0]])
    cell = cj * mesh.nx + ci
    assert cell[0] == 1 * 4 + 1
    np.testing.assert_allclose([xi[0], eta[0]], [0.2, 0.5], atol=1e-12)
    # Points on the far border clamp into the last cell instead of falling out.
    assert cell[1] == mesh.n_cells - 1
    np.testing.assert_allclose([xi[1], eta[1]], [1.0, 1.0], atol=1e-12)


def test_locate_rejects_outside_points():
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 3, 3)
    with pytest.raises(OutOfDomainError):
        mesh.locate_many([[1.5, 0.5]])
    with pytest.raises(OutOfDomainError):
        mesh.locate_many(np.array([[0.5, 0.5], [0.5, -0.2]]))


def test_interpolation_constant_field():
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 5, 7)
    pts = np.random.default_rng(0).uniform(0.0, 1.0, size=(40, 2))
    vals = mesh.interpolation_matrix(pts) @ np.full(mesh.n_nodes, 3.25)
    np.testing.assert_allclose(vals, 3.25, rtol=0, atol=1e-14)


def test_interpolation_exact_for_affine_field():
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 4, 6)
    field = mesh.coords[:, 0] + 2.0 * mesh.coords[:, 1]
    pts = np.random.default_rng(1).uniform(0.0, 1.0, size=(50, 2))
    vals = mesh.interpolation_matrix(pts) @ field
    np.testing.assert_allclose(vals, pts[:, 0] + 2.0 * pts[:, 1], atol=1e-14)


def test_interpolation_single_cell_center():
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 1, 1)
    vals = mesh.interpolation_matrix(np.array([[0.5, 0.5]])) @ np.array(
        [0.0, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(vals, [1.5], atol=1e-14)


def test_interpolation_at_nodes_returns_nodal_values():
    mesh = build_mesh(Rect(0.0, 2.0, -1.0, 1.0), 6, 5)
    field = np.random.default_rng(2).standard_normal(mesh.n_nodes)
    vals = mesh.interpolation_matrix(mesh.coords) @ field
    np.testing.assert_allclose(vals, field, rtol=0, atol=1e-13)


@given(a=st.floats(-5, 5), b=st.floats(-5, 5), c=st.floats(-5, 5),
       d=st.floats(-5, 5), px=st.floats(0, 1), py=st.floats(0, 1))
@settings(max_examples=60, deadline=None)
def test_bilinear_reproduction_on_one_cell(a, b, c, d, px, py):
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 1, 1)
    x = mesh.coords[:, 0]
    y = mesh.coords[:, 1]
    field = a + b * x + c * y + d * x * y
    val = (mesh.interpolation_matrix(np.array([[px, py]])) @ field)[0]
    assert abs(val - (a + b * px + c * py + d * px * py)) <= 1e-12


def test_interpolation_matrix_matches_interpolate():
    mesh = build_mesh(Rect(0.2, 0.9, 0.1, 0.8), 5, 4)
    rng = np.random.default_rng(3)
    field = rng.standard_normal(mesh.n_nodes)
    pts = np.column_stack([rng.uniform(0.2, 0.9, 30),
                           rng.uniform(0.1, 0.8, 30)])
    matrix = mesh.interpolation_matrix(pts)
    # Bilinear interpolation point by point, from the located cells.
    ci, cj, xi, eta = mesh.locate_many(pts)
    corners = field[(cj * (mesh.nx + 1) + ci)[:, None]
                    + np.array([0, 1, mesh.nx + 1, mesh.nx + 2])]
    want = ((1.0 - xi) * (1.0 - eta) * corners[:, 0]
            + xi * (1.0 - eta) * corners[:, 1]
            + (1.0 - xi) * eta * corners[:, 2] + xi * eta * corners[:, 3])
    np.testing.assert_allclose(matrix @ field, want, rtol=0, atol=1e-14)
    # Rows are convex combinations of four corner values.
    np.testing.assert_allclose(np.asarray(matrix.sum(axis=1)).ravel(), 1.0,
                               atol=1e-13)


def test_interpolation_validates_field_length():
    mesh = build_mesh(Rect(0.0, 1.0, 0.0, 1.0), 2, 2)
    matrix = mesh.interpolation_matrix(np.array([[0.5, 0.5]]))
    assert matrix.shape == (1, mesh.n_nodes)
    with pytest.raises(ValueError):
        matrix @ np.zeros(4)
