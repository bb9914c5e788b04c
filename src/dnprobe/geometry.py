"""Computational domains for boundary probing on the unit box.

The working domain is the unit square/cube Omega = (0,1)^n with a
measurement patch S on one face.  An enlarged domain Omega' is obtained by
extruding Omega through the patch by ``pad`` grid cells, so that the
remaining boundary (dOmega \\ S) lies on dOmega'.  Singular probes are
anchored at an exterior point y_tau = x0 + tau * nu(x0) placed inside the
extrusion, at distance tau from the patch face.

Everything is axis-aligned and node-based: a grid with spacing h = 1/N has
(N+1)^n nodes on the closure of Omega.  Faces are flat, so outward normals
and the exterior point construction are exact.
"""

from dataclasses import dataclass

import numpy as np

FACE_NAMES = {
    "left": (0, 0),
    "right": (0, 1),
    "bottom": (1, 0),
    "top": (1, 1),
    "front": (2, 0),
    "back": (2, 1),
}


class GridError(ValueError):
    """Invalid grid or probe-placement configuration."""


@dataclass(frozen=True)
class Grid:
    """Nested rectilinear discretization of Omega inside Omega'.

    The patch S is a node-closed rectangle on one face of Omega; its
    tangential extent is given by inclusive node-index bounds.  ``pad`` is
    the number of cells by which Omega' extends beyond the patch face.
    Immutable after construction and safe to share between workers.
    """

    dim: int
    h: float
    dt: float
    T: float
    patch_axis: int
    patch_side: int
    patch_lo: tuple  # inclusive node bounds per tangential axis
    patch_hi: tuple
    pad: int

    @property
    def n_cells(self) -> int:
        return round(1.0 / self.h)

    @property
    def shape(self):
        return (self.n_cells + 1,) * self.dim

    @property
    def nt(self) -> int:
        return round(self.T / self.dt)

    @property
    def times(self):
        return np.linspace(0.0, self.T, self.nt + 1)

    def axis_nodes(self):
        """Node coordinates along any axis of the closure of Omega."""
        return np.linspace(0.0, 1.0, self.n_cells + 1)

    def node_coords(self):
        """Meshgrid (ij-indexed) of all Omega-closure node coordinates."""
        ax = self.axis_nodes()
        return np.meshgrid(*([ax] * self.dim), indexing="ij")

    # -- patch -----------------------------------------------------------

    @property
    def tangential_axes(self):
        return tuple(a for a in range(self.dim) if a != self.patch_axis)

    def patch_normal(self):
        nu = np.zeros(self.dim)
        nu[self.patch_axis] = -1.0 if self.patch_side == 0 else 1.0
        return nu

    def patch_face_value(self) -> float:
        return 0.0 if self.patch_side == 0 else 1.0

    def patch_support_mask(self):
        """Boolean mask over the patch face nodes marking S.

        The returned array is indexed by the tangential axes (in increasing
        axis order) over the full face; True where the node lies in S.
        """
        N = self.n_cells
        mask = np.zeros((N + 1,) * (self.dim - 1), dtype=bool)
        sl = tuple(slice(lo, hi + 1) for lo, hi in zip(self.patch_lo, self.patch_hi))
        mask[sl] = True
        return mask

    def face_node_selector(self, axis, side):
        """Index tuple selecting a whole face of Omega in a node array."""
        N = self.n_cells
        idx = [slice(None)] * self.dim
        idx[axis] = 0 if side == 0 else N
        return tuple(idx)

    # -- Omega' ----------------------------------------------------------

    def extended_shape(self):
        """Node-array shape of the bounding box of Omega'."""
        shp = list(self.shape)
        shp[self.patch_axis] += self.pad
        return tuple(shp)

    def extended_axis_nodes(self, axis):
        """Node coordinates of the Omega' bounding box along ``axis``."""
        N = self.n_cells
        if axis != self.patch_axis:
            return np.linspace(0.0, 1.0, N + 1)
        if self.patch_side == 0:
            return np.linspace(-self.pad * self.h, 1.0, N + 1 + self.pad)
        return np.linspace(0.0, 1.0 + self.pad * self.h, N + 1 + self.pad)

    def omega_prime_mask(self):
        """Boolean node mask of the closure of Omega' in its bounding box."""
        mask = np.zeros(self.extended_shape(), dtype=bool)
        mask[self.omega_slice()] = True
        # extrusion through the patch
        ext = [slice(lo, hi + 1) for lo, hi in zip(self.patch_lo, self.patch_hi)]
        d = self.patch_axis
        if self.patch_side == 0:
            ext.insert(d, slice(0, self.pad))
        else:
            ext.insert(d, slice(self.n_cells + 1, self.n_cells + 1 + self.pad))
        mask[tuple(ext)] = True
        return mask

    def omega_slice(self):
        """Slice locating the Omega node block inside the Omega' box."""
        sl = [slice(None)] * self.dim
        d = self.patch_axis
        if self.patch_side == 0:
            sl[d] = slice(self.pad, self.pad + self.n_cells + 1)
        else:
            sl[d] = slice(0, self.n_cells + 1)
        return tuple(sl)

    def omega_prime_interior_mask(self):
        """Nodes of Omega' all of whose axis neighbours lie in Omega'."""
        mask = self.omega_prime_mask()
        interior = mask.copy()
        for a in range(self.dim):
            lo = np.zeros_like(mask)
            hi = np.zeros_like(mask)
            sl_lo = [slice(None)] * self.dim
            sl_hi = [slice(None)] * self.dim
            sl_lo[a] = slice(1, None)
            sl_hi[a] = slice(None, -1)
            lo[tuple(sl_lo)] = mask[tuple(sl_hi)]
            hi[tuple(sl_hi)] = mask[tuple(sl_lo)]
            interior &= lo & hi
        return interior


@dataclass(frozen=True)
class ProbeGeometry:
    """Placement of one singular probe: patch point, time, exterior point."""

    x0: tuple
    t0: float
    tau: float
    y_tau: tuple
    tau0: float  # admissibility radius delta of x0


def build_grid(dim, h, dt, T, patch_face="left", patch_interval=None, pad=8) -> Grid:
    """Construct the nested grid.

    patch_interval gives the physical tangential extent of S per tangential
    axis, e.g. ``[(0.25, 0.75)]`` in 2D; endpoints must land on nodes and
    stay at least one cell away from the face corners.  Omitted, it
    defaults to the open face (one cell in from each corner).
    """
    if dim not in (2, 3):
        raise GridError(f"dim must be 2 or 3, got {dim}")
    N = round(1.0 / h)
    if abs(N * h - 1.0) > 1e-12 or N < 4:
        raise GridError(f"h={h} does not divide the unit interval")
    nt = round(T / dt)
    if nt < 1 or abs(nt * dt - T) > 1e-12 * max(1.0, T):
        raise GridError(f"dt={dt} does not divide T={T}")
    if pad < 4:
        raise GridError("Omega' padding must be at least 4 cells")
    try:
        axis, side = FACE_NAMES[patch_face]
    except KeyError:
        raise GridError(f"unknown face {patch_face!r}") from None
    if axis >= dim:
        raise GridError(f"face {patch_face!r} does not exist in dimension {dim}")

    if patch_interval is None:
        patch_interval = [(h, 1.0 - h)] * (dim - 1)
    if len(patch_interval) != dim - 1:
        raise GridError("patch_interval needs one (lo, hi) pair per tangential axis")
    los, his = [], []
    for lo, hi in patch_interval:
        ilo, ihi = round(lo / h), round(hi / h)
        if abs(ilo * h - lo) > 1e-9 or abs(ihi * h - hi) > 1e-9:
            raise GridError(f"patch interval ({lo}, {hi}) is not node-aligned")
        if ilo < 1 or ihi > N - 1:
            raise GridError("patch touches a corner cell")
        if ihi - ilo < 2:
            raise GridError("patch is not open (needs at least two cells)")
        los.append(ilo)
        his.append(ihi)
    return Grid(dim=dim, h=h, dt=dt, T=T, patch_axis=axis, patch_side=side,
                patch_lo=tuple(los), patch_hi=tuple(his), pad=pad)


def probe_admissibility_radius(grid: Grid, x0) -> float:
    """Largest safe probe distance delta for a probe anchored at x0.

    The smallest of: half the extrusion depth, the tangential clearance of
    x0 inside the patch, and the unit length.  Guarantees
    dist(y_tau, dOmega') >= delta whenever tau < delta: the side walls of
    the extrusion stay a full clearance away, and the far end stays at
    least pad*h - delta >= delta away.
    """
    x0 = np.asarray(x0, dtype=float)
    clear = [0.5 * grid.pad * grid.h, 1.0]
    for a, lo, hi in zip(grid.tangential_axes, grid.patch_lo, grid.patch_hi):
        clear.append(x0[a] - lo * grid.h)
        clear.append(hi * grid.h - x0[a])
    return min(clear)


def exterior_point(grid: Grid, x0, tau: float, t0: float = None) -> ProbeGeometry:
    """Place the exterior source point y_tau = x0 + tau * nu(x0).

    x0 must lie on the patch face strictly inside S, and tau must clear
    both the resolution guard (tau >= 2h) and the admissibility radius.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (grid.dim,):
        raise GridError(f"x0 must have {grid.dim} components")
    if abs(x0[grid.patch_axis] - grid.patch_face_value()) > 1e-12:
        raise GridError("x0 does not lie on the patch face")
    for a, lo, hi in zip(grid.tangential_axes, grid.patch_lo, grid.patch_hi):
        if not (lo * grid.h < x0[a] < hi * grid.h):
            raise GridError("x0 lies outside the open patch S")
    delta = probe_admissibility_radius(grid, x0)
    if tau < 2.0 * grid.h - 1e-12:
        raise GridError(f"tau={tau} under-resolves the grid (need tau >= 2h = {2 * grid.h})")
    if tau >= delta:
        raise GridError(f"tau={tau} exceeds the admissibility radius delta={delta}")
    if t0 is not None and not (0.0 < t0 < grid.T):
        raise GridError(f"t0={t0} is not an interior time")
    y = x0 + tau * grid.patch_normal()
    return ProbeGeometry(x0=tuple(x0), t0=t0, tau=float(tau), y_tau=tuple(y),
                         tau0=delta)


def trapezoid_weights(shape, h):
    """Tensor-product trapezoid weights on a node lattice of spacing h."""
    w = 1.0
    for m in shape:
        wa = np.ones(m)
        wa[0] = wa[-1] = 0.5
        w = np.multiply.outer(w, wa) if np.ndim(w) else wa
    return w * h ** len(shape)
