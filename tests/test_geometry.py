import re

import numpy as np
import pytest

from dnprobe.geometry import (FACE_NAMES, Grid, GridError, build_grid,
                              exterior_point, probe_admissibility_radius)


def test_build_grid_2d_shapes():
    g = build_grid(2, 1 / 32, 1 / 64, 1.0, patch_face="left")
    assert g.shape == (33, 33)
    assert g.nt == 64
    assert g.pad >= 4
    assert g.extended_shape() == (33 + g.pad, 33)


def test_build_grid_3d_shapes():
    g = build_grid(3, 1 / 16, 1 / 32, 1.0)
    assert g.shape == (17, 17, 17)


def test_nondividing_dt_rejected():
    with pytest.raises(GridError):
        build_grid(2, 1 / 32, 0.3, 1.0)


def test_nondividing_h_rejected():
    with pytest.raises(GridError):
        build_grid(2, 0.3, 0.25, 1.0)


def _non_positive(h, dt, T, name):
    """A case of a step or T that is not positive; its id shows T when
    it is not the default 1.0."""
    named = f"{name} must be positive"
    shown = (h, dt, named) if T == 1.0 else (h, dt, T, named)
    return pytest.param(h, dt, T, named, id="-".join(map(str, shown)))


@pytest.mark.parametrize("h, dt, T, named", [_non_positive(0.0, 1 / 32, 1.0, "h"),
                                              _non_positive(-1 / 32, 1 / 32, 1.0, "h"),
                                              _non_positive(1 / 32, 0.0, 1.0, "dt"),
                                              _non_positive(1 / 32, -1 / 32, 1.0, "dt"),
                                              _non_positive(1 / 32, 1 / 32, 0.0, "t_final"),
                                              _non_positive(1 / 32, 1 / 32, -1.0, "t_final")])
def test_non_positive_step_rejected_by_name(h, dt, T, named):
    with pytest.raises(GridError, match=named):
        build_grid(2, h, dt, T)


def test_patch_corner_rejected():
    with pytest.raises(GridError):
        build_grid(2, 1 / 32, 1 / 32, 1.0, patch_interval=[(0.0, 0.5)])


@pytest.mark.parametrize("dim, interval", [(2, (0.75, 0.25)), (2, (0.5, 0.5)),
                                           (3, (0.625, 0.375))])
def test_reversed_patch_interval_rejected_by_name(dim, interval):
    # lo >= hi is named as such, not as a patch that "is not open"
    intervals = [(0.25, 0.75)] * (dim - 2) + [interval]
    with pytest.raises(GridError, match=re.escape(f"patch interval {interval} needs lo < hi")):
        build_grid(dim, 1 / 16, 1 / 16, 1.0, patch_interval=intervals)


def test_small_pad_rejected():
    with pytest.raises(GridError):
        build_grid(2, 1 / 32, 1 / 32, 1.0, pad=3)


def test_unknown_face_rejected():
    with pytest.raises(GridError):
        build_grid(2, 1 / 32, 1 / 32, 1.0, patch_face="front")


def test_exterior_point_left_face():
    g = build_grid(2, 1 / 32, 1 / 32, 1.0, patch_interval=[(0.25, 0.75)])
    p = exterior_point(g, (0.0, 0.5), 0.1)
    assert p.y_tau == pytest.approx((-0.1, 0.5))
    assert np.linalg.norm(np.array(p.y_tau) - np.array(p.x0)) == pytest.approx(0.1)


def test_exterior_point_3d():
    g = build_grid(3, 1 / 8, 1 / 8, 1.0, pad=8)
    p = exterior_point(g, (0.0, 0.5, 0.5), 0.25)
    assert p.y_tau == pytest.approx((-0.25, 0.5, 0.5))


def test_resolution_guard():
    g = build_grid(2, 1 / 32, 1 / 32, 1.0, patch_interval=[(0.25, 0.75)])
    with pytest.raises(GridError):
        exterior_point(g, (0.0, 0.5), g.h)


def test_tau_beyond_radius_rejected():
    g = build_grid(2, 1 / 32, 1 / 32, 1.0, patch_interval=[(0.25, 0.75)], pad=4)
    delta = probe_admissibility_radius(g, (0.0, 0.5))
    with pytest.raises(GridError):
        exterior_point(g, (0.0, 0.5), delta)


def test_x0_off_patch_rejected():
    g = build_grid(2, 1 / 32, 1 / 32, 1.0, patch_interval=[(0.25, 0.75)])
    with pytest.raises(GridError):
        exterior_point(g, (0.0, 0.9), 0.1)


def _dist_to_omega_prime_boundary(g, y):
    # Omega' is the union of the unit box and the patch extrusion; compute
    # the distance from an extrusion point to its boundary by hand
    depth = g.pad * g.h
    d_axis = abs(y[g.patch_axis] - (-depth if g.patch_side == 0 else 1.0 + depth))
    clear = [d_axis]
    for a, lo, hi in zip(g.tangential_axes, g.patch_lo, g.patch_hi):
        clear.append(y[a] - lo * g.h)
        clear.append(hi * g.h - y[a])
    return min(clear)


def test_exterior_point_stays_deep_inside_extension():
    g = build_grid(2, 1 / 32, 1 / 32, 1.0, patch_interval=[(0.25, 0.75)], pad=10)
    delta = probe_admissibility_radius(g, (0.0, 0.5))
    for tau in np.linspace(2 * g.h, delta * 0.999, 7):
        p = exterior_point(g, (0.0, 0.5), tau)
        assert _dist_to_omega_prime_boundary(g, np.array(p.y_tau)) >= delta - 1e-12
        assert p.y_tau[0] < 0.0  # strictly outside the unit box


def test_omega_prime_mask_contains_omega_and_extrusion():
    g = build_grid(2, 1 / 8, 1 / 8, 1.0, patch_interval=[(0.25, 0.75)], pad=4)
    mask = g.omega_prime_mask()
    assert mask[g.omega_slice()].all()
    assert mask.sum() == 9 * 9 + 4 * (6 - 2 + 1)


def test_interior_mask_neighbors():
    g = build_grid(2, 1 / 8, 1 / 8, 1.0, patch_interval=[(0.25, 0.75)], pad=4)
    mask = g.omega_prime_mask()
    inter = g.omega_prime_interior_mask()
    assert (mask | ~inter).all()
    idx = np.argwhere(inter)
    for a in range(2):
        off = np.zeros(2, dtype=int)
        off[a] = 1
        for s in (1, -1):
            nb = idx + s * off
            assert mask[tuple(nb.T)].all()


def test_face_names_cover_both_sides():
    assert FACE_NAMES["left"] == (0, 0)
    assert FACE_NAMES["back"] == (2, 1)
