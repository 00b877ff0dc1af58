"""Uniform structured quadrilateral meshes on axis-aligned rectangles.

Nodes are numbered row-major: node ``(i, j)`` (column ``i`` along x, row
``j`` along y) has global id ``j * (nx + 1) + i``. Cells follow the same
ordering with id ``j * nx + i``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, OutOfDomainError

#: Absolute slack used for all point-in-rectangle tests.
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle ``[x0, x1] x [y0, y1]``."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ConfigurationError(
                f"degenerate rectangle [{self.x0}, {self.x1}] x "
                f"[{self.y0}, {self.y1}]")

    def contains_points(self, points, tol=BOUNDARY_TOL):
        p = np.asarray(points, dtype=float)
        return ((p[:, 0] >= self.x0 - tol) & (p[:, 0] <= self.x1 + tol)
                & (p[:, 1] >= self.y0 - tol) & (p[:, 1] <= self.y1 + tol))

    def border_distance(self, x, y):
        """Distance from an interior point to the rectangle border."""
        return min(x - self.x0, self.x1 - x, y - self.y0, self.y1 - y)

    @property
    def width(self):
        return self.x1 - self.x0

    @property
    def height(self):
        return self.y1 - self.y0


class StructuredMesh:
    """Tensor-product bilinear (Q1) mesh of ``nx`` by ``ny`` cells."""

    def __init__(self, rect, nx, ny):
        if nx < 1 or ny < 1:
            raise ConfigurationError(
                f"mesh needs at least one cell per direction, got "
                f"nx={nx}, ny={ny}")
        self.rect = rect
        self.nx = int(nx)
        self.ny = int(ny)
        self.hx = rect.width / self.nx
        self.hy = rect.height / self.ny
        self.n_nodes = (self.nx + 1) * (self.ny + 1)
        self.n_cells = self.nx * self.ny

    @cached_property
    def coords(self):
        """(n_nodes, 2) node coordinates in id order."""
        x = np.linspace(self.rect.x0, self.rect.x1, self.nx + 1)
        y = np.linspace(self.rect.y0, self.rect.y1, self.ny + 1)
        xx, yy = np.meshgrid(x, y)
        return np.column_stack([xx.ravel(), yy.ravel()])

    @cached_property
    def boundary_node_ids(self):
        """Ids of nodes on the rectangle border, ascending."""
        ii, jj = np.meshgrid(np.arange(self.nx + 1), np.arange(self.ny + 1))
        on_border = ((ii == 0) | (ii == self.nx)
                     | (jj == 0) | (jj == self.ny))
        return np.flatnonzero(on_border.ravel())

    @cached_property
    def interior_node_ids(self):
        """Ids of nodes strictly inside the rectangle, ascending."""
        mask = np.ones(self.n_nodes, dtype=bool)
        mask[self.boundary_node_ids] = False
        return np.flatnonzero(mask)

    @cached_property
    def connectivity(self):
        """(n_cells, 4) node ids per cell: (i,j), (i+1,j), (i,j+1), (i+1,j+1)."""
        ii, jj = np.meshgrid(np.arange(self.nx), np.arange(self.ny))
        base = (jj * (self.nx + 1) + ii).ravel()
        return np.column_stack(
            [base, base + 1, base + self.nx + 1, base + self.nx + 2]
        ).astype(np.int64)

    def locate_many(self, points):
        """Cell indices and local coordinates ``(ci, cj, xi, eta)`` of points.

        Points within ``BOUNDARY_TOL`` of the rectangle are clamped onto
        it; any point beyond that raises :class:`OutOfDomainError`.
        """
        p = np.asarray(points, dtype=float)
        px, py = p[:, 0], p[:, 1]
        r = self.rect
        xmax = r.x0 + self.nx * self.hx
        ymax = r.y0 + self.ny * self.hy
        inside = ((px >= r.x0 - BOUNDARY_TOL) & (px <= xmax + BOUNDARY_TOL)
                  & (py >= r.y0 - BOUNDARY_TOL) & (py <= ymax + BOUNDARY_TOL))
        if not inside.all():
            bad = np.flatnonzero(~inside)[0]
            raise OutOfDomainError(
                f"point ({px[bad]}, {py[bad]}) lies outside "
                f"[{r.x0}, {r.x1}] x [{r.y0}, {r.y1}]")
        rx = (px - r.x0) / self.hx
        ry = (py - r.y0) / self.hy
        ci = np.clip(np.floor(rx).astype(np.int64), 0, self.nx - 1)
        cj = np.clip(np.floor(ry).astype(np.int64), 0, self.ny - 1)
        xi = np.clip(rx - ci, 0.0, 1.0)
        eta = np.clip(ry - cj, 0.0, 1.0)
        return ci, cj, xi, eta

    def interpolation_matrix(self, points):
        """Sparse operator mapping nodal fields to values at ``points``.

        Row k of the CSR result holds the four bilinear weights of point k;
        columns within each row are stored in ascending node-id order so a
        matvec accumulates in a fixed order and reproduces bitwise.
        """
        from scipy.sparse import csr_matrix

        p = np.asarray(points, dtype=float)
        ci, cj, xi, eta = self.locate_many(p)
        base = cj * (self.nx + 1) + ci
        cols = np.column_stack(
            [base, base + 1, base + self.nx + 1, base + self.nx + 2])
        w = np.column_stack([(1.0 - xi) * (1.0 - eta), xi * (1.0 - eta),
                             (1.0 - xi) * eta, xi * eta])
        rows = np.repeat(np.arange(p.shape[0]), 4)
        return csr_matrix((w.ravel(), (rows, cols.ravel())),
                          shape=(p.shape[0], self.n_nodes))


def build_mesh(rect, nx, ny):
    """Construct a structured mesh over ``rect`` with ``nx`` x ``ny`` cells."""
    return StructuredMesh(rect, nx, ny)
