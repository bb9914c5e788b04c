"""Boundary flux extraction, pairings, discrete boundary norms, eta surrogate.

The nonlinear map N sends a boundary datum g to the heat flux
gamma(t, u) (A grad u . nu) on the patch S; its linearization at the
background state is Lambda g = gamma(t, lambda) (A grad w . nu).  This
module extracts both fluxes from solved fields (level_flux lets a
forward solve extract N g level by level), computes the duality
pairing by surface quadrature, provides desk-scale stand-ins for the
H^{1/2,1/2} boundary norms, and assembles the operator-norm surrogate eta
used by the stability experiments; nothing here is factorized.  The weak
form of the pairing, through an interior lifting, is a reference the
tests check surface_pairing against (tests/reference.py).

Fluxes and their differences are plain (nt+1, *face_shape) face
arrays, zero off S; the pairing, the L2 norm and the boundary norms take
them as such.  Patch data (the probes and the dictionary) are
pde.PatchFields, profile x face.  The probes, eta and the linearization
check read Lambda g off patch_linear_flux, which solves the frozen
problem in the sine basis for a list of laws or law pairs and a stack of
patch data at once: one recurrence row per distinct profile, and an
entry is a signed list of laws whose flux is formed in mode space, so a
pair's difference costs one inverse DST per datum.  A probe or
stability command makes one such call on its law pairs and all of its
data, and eta_surrogate measures the flux differences it is handed.  The
full-field solve_linearized plus linear_flux is the reference it is
tested against; no subcommand calls either.  The grid's dimension
chooses the boundary norm (norm_flag): spectral in 2D, L2 in 3D.  The
norms measure a face array without forming it on all of dOmega; the 2D
spectral norm sums the half spectrum of a real FFT in time over the
patch columns only.  The linearization check advances its data g/k for
all k in one stacked pde.solve_forward whose keep is level_flux: the
nonlinear flux of each level as it converges, so no solution history is
formed; the stencil the flux reads (node planes and support mask) is
built once per solve, not per level.  The random dictionary draws the
numbers of numpy.random.default_rng(seed) from a PCG64 stream of its own
(_PCG64), so numpy.random, with the hashlib and secrets it imports, is
not loaded for its few draws.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.fft import fft, fftfreq, irfft, rfft, rfftfreq

from .geometry import Grid, trapezoid_weights
from .material import MaterialLaw, MatrixField
from .pde import (PatchField, SpaceTimeField, _frozen_setup, _lazy_splu, dst1,
                  solve_forward, PDEError)

# nothing here factorizes: perfbench/spans.py SPLU_MODULES is the only
# reader of dnmap.splu
__getattr__ = _lazy_splu(globals())


class DNMapError(RuntimeError):
    pass


class _FluxStencil:
    """What the patch flux reads of a node array, for one grid and A, built
    once: the three node planes next to the patch face along the normal,
    A_dd, and the face nodes off S.  A is diagonal, so A grad u . nu is
    A_dd times the normal derivative.  Leading axes of a node array beyond
    the grid.dim space axes are a batch."""

    def __init__(self, grid: Grid, A: MatrixField):
        d = grid.patch_axis
        ends = (0, 1, 2) if grid.patch_side == 0 else (-1, -2, -3)
        self.planes = [(Ellipsis,) + tuple(k if a == d else slice(None)
                                           for a in range(grid.dim)) for k in ends]
        self.a_dd, self.h = A.A[d, d], grid.h
        self.off = ~grid.patch_support_mask()

    def conormal(self, field: np.ndarray) -> np.ndarray:
        """A grad(field) . nu on the patch face: the outward normal
        derivative 3-point one-sided (exact for fields affine in the normal
        coordinate)."""
        f0, f1, f2 = (field[p] for p in self.planes)
        inward = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * self.h)
        return self.a_dd * -inward  # the inward derivative is -nu_d d_d(field)

    def flux(self, values: np.ndarray, gamma) -> np.ndarray:
        """gamma (A grad u . nu) on S, zero off S, in one evaluation: the
        time levels of a history or a stack of levels lead; gamma
        broadcasts against the face arrays."""
        vals = gamma * self.conormal(values)
        vals[..., self.off] = 0.0
        return vals


def _face_times(grid: Grid) -> np.ndarray:
    """The time levels as a column against (nt+1, *face_shape) arrays."""
    return grid.times.reshape((-1,) + (1,) * (grid.dim - 1))


def nonlinear_flux(u: SpaceTimeField, law: MaterialLaw, A: MatrixField,
                   grid: Grid) -> np.ndarray:
    """DN output gamma(t, u) (A grad u . nu) on S at every time level,
    (nt+1, *face_shape)."""
    stencil = _FluxStencil(grid, A)
    return stencil.flux(u.values, law.gamma(_face_times(grid), u.values[stencil.planes[0]]))


def level_flux(law: MaterialLaw, A: MatrixField, grid: Grid):
    """The keep of pde.solve_forward that makes it the DN map: each
    converged level's gamma(t_m, u) (A grad u . nu) on S, nonlinear_flux's
    arithmetic on a (B, *grid.shape) stack of levels, so the values of a
    solve are its flux and no history is formed.  The
    stencil (planes, mask) is built once, not per level."""
    stencil = _FluxStencil(grid, A)
    face = stencil.planes[0]
    return lambda t, levels: stencil.flux(levels, law.gamma(t, levels[face]))


def linear_flux(w: SpaceTimeField, law: MaterialLaw, A: MatrixField,
                grid: Grid, lam: float) -> np.ndarray:
    """Linearized DN output gamma(t, lambda) (A grad w . nu) on S,
    (nt+1, *face_shape)."""
    return _FluxStencil(grid, A).flux(w.values, law.gamma(_face_times(grid), lam))


# ---------------------------------------------------------------------------
# surface quadrature and the direct pairing


def surface_pairing(flux: np.ndarray, h: np.ndarray, grid: Grid) -> float:
    """int_{S x (0,T)} flux * h dsigma dt by trapezoid quadrature, both
    (nt+1, *face_shape) face arrays."""
    W = trapezoid_weights(flux.shape[1:], grid.h)
    wt = trapezoid_weights((grid.nt + 1,), grid.dt)
    per_level = (flux * h * W).reshape(grid.nt + 1, -1).sum(axis=1)
    return float((per_level * wt).sum())


def flux_l2_st(flux: np.ndarray, grid: Grid) -> float:
    """L2(S x (0,T)) norm of a face array."""
    return math.sqrt(surface_pairing(flux, flux, grid))


# ---------------------------------------------------------------------------
# boundary norms


def _closed_curve_samples(values_full: np.ndarray, grid: Grid) -> np.ndarray:
    """Order boundary-node values of a 2D grid along the closed curve.

    Walk: bottom edge left->right, right edge up, top edge right->left,
    left edge down; corner duplicates dropped.  (nt+1, 4N) output.
    """
    N = grid.n_cells
    bottom = values_full[:, :, 0]            # y=0, x increasing
    right = values_full[:, N, :]             # x=1, y increasing
    top = values_full[:, ::-1, N]            # y=1, x decreasing
    left = values_full[:, 0, ::-1]           # x=0, y decreasing
    return np.concatenate([bottom[:, :N], right[:, :N], top[:, :N], left[:, :N]],
                          axis=1)


def norm_flag(dim: int) -> str:
    """The flag of the boundary norm of a dim-dimensional grid, which
    BoundaryNorm measures with: spectral in 2D, L2 in 3D."""
    return "spectral-half" if dim == 2 else "L2"


@dataclass
class BoundaryNorm:
    """Discrete stand-in for the H^{1/2,1/2} boundary norm and its dual,
    chosen by the grid's dimension (norm_flag).

    n=2: DFT in (arclength, time) with weights (1+|xi_s|) + (1+|xi_t|);
    dual uses inverse weights, so |<f,g>_L2| <= dual(f) * half(g).
    n=3: plain L2(Sigma), flux_l2_st, for both.

    The samples are real and the weights even in both frequencies, so the
    spectral norm sums over the half spectrum of an rfft in time, where
    every row but the zero row and the Nyquist row (even nt) stands for
    itself and its mirror and counts twice; an fft along arclength
    completes it.  A norm measures a (nt+1, *face_shape) face array, zero
    off S: the rfft runs over its columns only, scattered into their slots
    of the closed-curve half spectrum.  The half-spectrum weights, the row
    multiplicities and the face slots are built once, with the norm.
    """

    grid: Grid
    weights: np.ndarray = dc_field(init=False, default=None, repr=False, compare=False)
    scale: np.ndarray = dc_field(init=False, default=None, repr=False, compare=False)
    slots: tuple = dc_field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        grid = self.grid
        if grid.dim != 2:
            return
        n_t, n_s = grid.nt, 4 * grid.n_cells
        ds = 4.0 / n_s
        xi_s = 2.0 * math.pi * np.abs(fftfreq(n_s, d=ds))
        xi_t = 2.0 * math.pi * rfftfreq(n_t, d=grid.T / n_t)
        self.weights = (1.0 + xi_s)[None, :] + (1.0 + xi_t)[:, None]
        # row multiplicity of the half spectrum times the DFT normalization
        mult = np.full((xi_t.size, 1), 2.0)
        mult[0] = 1.0
        if n_t % 2 == 0:
            mult[-1] = 1.0
        self.scale = mult * (grid.dt * ds / (n_t * n_s))
        # walk face node ids around the curve: (curve slots, face nodes) on S
        ids = np.full((1,) + grid.shape, -1)
        ids[(0,) + grid.face_node_selector(grid.patch_axis, grid.patch_side)] = \
            np.arange(grid.n_cells + 1)
        walk = _closed_curve_samples(ids, grid)[0]
        slot = np.flatnonzero(walk >= 0)
        slot = slot[grid.patch_support_mask()[walk[slot]]]
        self.slots = (slot, walk[slot])

    def half(self, values: np.ndarray) -> float:
        return self._norm(values, lambda p, w: w * p)

    def dual(self, values: np.ndarray) -> float:
        return self._norm(values, lambda p, w: p / w)

    def _norm(self, values: np.ndarray, weigh) -> float:
        """sqrt(sum weigh(p, w)) over the (arclength, time) power spectrum p
        of a face array and the weights w; in 3D plain L2(Sigma)."""
        if self.grid.dim != 2:
            return flux_l2_st(values, self.grid)
        slot, node = self.slots
        half = np.zeros(self.weights.shape, dtype=complex)
        half[:, slot] = rfft(values[:-1, node], axis=0)
        p = np.abs(fft(half, axis=1)) ** 2 * self.scale
        return math.sqrt(float(weigh(p, self.weights).sum()))


# ---------------------------------------------------------------------------
# linearization check and operator-norm surrogate


def linearization_check(law: MaterialLaw, A: MatrixField, grid: Grid, lam: float,
                        g: PatchField, k_list) -> list:
    """Frechet-derivative decay table d_k = ||k N(g/k) - Lambda g||.

    Lambda g comes from patch_linear_flux.  The data g/k, the face of g
    scaled, for every k are advanced in one stacked solve_forward that
    keeps each level's level_flux only; a datum whose Newton solve
    diverges leaves the stack and its row is flagged instead of raising.
    "newton" holds the solver counts of the row's datum.
    """
    [[lam_flux]] = patch_linear_flux([law], A, grid, lam, [g])
    scaled = [PatchField(g.profile, g.face / k, grid) for k in k_list]
    rows = []
    for k, nf in zip(k_list, solve_forward(law, A, grid, lam, scaled,
                                           keep=level_flux(law, A, grid))):
        if isinstance(nf, PDEError):
            rows.append({"k": k, "d_k": float("nan"), "ok": False, "why": str(nf),
                         "newton": None})
            continue
        rows.append({"k": k, "d_k": flux_l2_st(k * nf.values - lam_flux, grid), "ok": True,
                     "why": "", "newton": nf.newton})
    return rows


def _planes_by_steps(src, eig, col, row, r, gam, w):
    """The face row of the interior box in tangential modes, (L, R, nt+1,
    *tang) for the R profile rows src of _recurrence_rows, whose singleton
    tangential axes broadcast against eig, and L laws, by implicit Euler:
    every sine mode of the interior box advanced one level at a time,

        s_m = (r_m s_{m-1} + w_m src_m col) / (r_m + gam_m eig),

    with r = rho/dt, gam and w = gam a_dd / h^2 per law and level, (L,
    nt+1), and the row applied along the normal modes.  The mode state of
    all laws is updated in place through one load buffer, freed on return."""
    (L, levels), R = r.shape, src.shape[0]
    r, gam, w = (c.T.reshape((levels, L, 1) + (1,) * eig.ndim) for c in (r, gam, w))
    state = np.zeros((L, R) + eig.shape)
    load = np.empty_like(state)
    near = np.zeros((L, R, levels) + eig.shape[1:])
    for m in range(1, levels):
        state *= r[m]
        np.multiply(w[m] * src[:, m, None], col, out=load)
        state += load
        state /= r[m] + gam[m] * eig
        near[:, :, m] = (row @ state.reshape(L * R, len(col), -1)).reshape(near[:, :, m].shape)
    return near


def _planes_by_convolution(src, eig, col, row, r, gam, w):
    """The face row of _planes_by_steps when each law's r, gam and w are
    constant over the levels m >= 1 (level 1 is read).  Each mode then
    follows s_m = a s_{m-1} + b src_m with a = r / (r + gam eig) and
    b = w col / (r + gam eig), so the row is the causal convolution of src
    with the law's kernel H[n] = row (b a^n), n = 0 .. nt-1; zero-padded to
    2 nt, the FFT product is that linear convolution, with no wrap-around.
    Each law's H is built by nt small matmuls and kept as its spectrum;
    each profile row is transformed once, then multiplied by every one."""
    (L, levels), R, nt = r.shape, src.shape[0], src.shape[1] - 1
    spec = np.empty((L, nt + 1) + eig.shape[1:], dtype=complex)
    H = np.empty((nt,) + eig.shape[1:])
    for i in range(L):
        den = r[i, 1] + gam[i, 1] * eig
        a = r[i, 1] / den
        pw = w[i, 1] * col / den
        for n in range(nt):
            H[n] = (row @ pw.reshape(len(col), -1)).reshape(H.shape[1:])
            pw *= a
        spec[i] = rfft(H, 2 * nt, axis=0)
    near = np.zeros((L, R, levels) + eig.shape[1:])
    for b in range(R):
        source = rfft(src[b, 1:], 2 * nt, axis=0)
        for i in range(L):
            near[i, b, 1:] = irfft(spec[i] * source, 2 * nt, axis=0)[:nt]
    return near


def _recurrence_rows(data, n_tang: int):
    """The rows a call hands the plane helpers and the row of each datum:
    one row per distinct profile (compared by its bytes, level 0 zeroed as
    solve_linearized's w(0) = 0) at unit amplitude in every tangential
    mode: (R, nt+1) with n_tang singleton tangential axes, which broadcast
    against the spectrum, so the row is not formed over the modes."""
    zeroed = [np.concatenate(([0.0], g.profile[1:])) for g in data]
    keys = [p.tobytes() for p in zeroed]
    distinct = list(dict.fromkeys(keys))
    rows = np.stack([zeroed[keys.index(k)] for k in distinct])
    return rows.reshape(rows.shape + (1,) * n_tang), [distinct.index(k) for k in keys]


def patch_linear_flux(laws, A: MatrixField, grid: Grid, lam: float, data: list):
    """Lambda g on S for each entry of laws and each PatchField g of data:
    an iterator over the entries, in order, each an iterator over data in
    order of the datum's (nt+1, *face_shape) flux values, zero off S.  An
    entry is a law, or a pair (law1, law2) giving (Lambda^1 - Lambda^2) g.

    Same numbers as linear_flux of solve_linearized on g as Dirichlet data
    on all of dOmega, but solved in the sine basis of the interior box,
    forming only what the face reconstruction reads.  For data on the face, K g is -(a_dd / h^2)
    g_face on the interior plane p next to it, whose DST-I along the normal
    is 2 sin(pi k p / N), so an implicit Euler step is one elementwise
    update per mode.  The one-sided normal derivative reads the planes P_0,
    P_1 next to the face only as 4 P_0 - P_1: one face row
    (4 sin(pi k p_0 / N) - sin(pi k p_1 / N)) / N along the normal modes,
    then one tangential inverse DST.  The problem is linear and acts mode
    by mode, so a datum profile(t) * face(x) is its profile's row at unit
    amplitude in every tangential mode times the face's DST-I, and data of
    one profile share the row (_recurrence_rows).  The rows are built once
    per call, the distinct laws a leading axis: a law whose gamma(t_m, lam)
    and rho(t_m, lam) are equal at every level m >= 1 steps by one linear
    map, so its row is a causal convolution with the step's impulse
    response (_planes_by_convolution; the paths differ by rounding only),
    and the other laws are stepped level by level together
    (_planes_by_steps).  An entry is a signed list of laws, [+law] or
    [+law1, -law2]; a datum's flux gamma a_dd (-inward), inward = (-3 g +
    (4 P_0 - P_1)) / (2h), is formed in mode space, -a_dd / (2h) [sum
    +-gam_i (-3 g) + D(sum +-gam_i rows_i)], D one inverse DST.  The
    iterators hold the mode-space rows and form a datum's flux, from its
    product profile x face, when it is reached: a caller that drops each
    flux before taking the next holds one datum's flux at a time.
    """
    d, side = grid.patch_axis, grid.patch_side
    for g in data:
        g.check_compatible()
    src, row_of = _recurrence_rows(data, grid.dim - 1)
    entries = [entry if isinstance(entry, tuple) else (entry,) for entry in laws]
    distinct = list(dict.fromkeys(law for entry in entries for law in entry))
    eig, basis, gam, rho = _frozen_setup(distinct, A, grid, lam)
    basis = [basis[e] for e in grid.tangential_axes]
    N, h, dt = grid.n_cells, grid.h, grid.dt
    a_dd = A.A[d, d]
    inner = (Ellipsis,) + (slice(1, -1),) * (grid.dim - 1)
    # normal modes first, then the tangential ones in face order
    eig = np.moveaxis(eig, d, 0)
    k = np.arange(1, N)
    p0, p1 = (1, 2) if side == 0 else (N - 1, N - 2)
    col = (2.0 * np.sin(np.pi * k * p0 / N)).reshape((-1,) + (1,) * (grid.dim - 1))
    row = (4.0 * np.sin(np.pi * k * p0 / N) - np.sin(np.pi * k * p1 / N)) / N
    r, w = rho / dt, gam * a_dd / h ** 2
    constant_in_t = np.all((gam[:, 1:] == gam[:, 1:2]) & (rho[:, 1:] == rho[:, 1:2]), axis=1)
    rows = [None] * len(distinct)  # each law's face rows, (R, nt+1, *tang)
    for face_row, on in ((_planes_by_convolution, constant_in_t),
                         (_planes_by_steps, ~constant_in_t)):
        if on.any():
            for i, near in zip(np.flatnonzero(on), face_row(src, eig, col, row, r[on],
                                                             gam[on], w[on])):
                rows[i] = near
    modes = dst1(np.stack([g.face[inner] for g in data]), basis)
    gam = gam.reshape(gam.shape + (1,) * (grid.dim - 1))  # levels against faces and modes
    off = ~grid.patch_support_mask()

    def fluxes(entry):
        terms = [(s * gam[i], rows[i]) for s, i in zip((1.0, -1.0), map(distinct.index, entry))]
        scale = -3.0 * sum(c for c, _ in terms)
        for g, j, m in zip(data, row_of, modes):
            out = np.multiply.outer(g.profile, g.face)  # g.values but off S, zeroed below
            out[0] = 0.0  # as solve_linearized's w(0) = 0
            out *= scale
            out[inner] += dst1(sum(c * near[j] for c, near in terms) * m, basis)
            out *= -a_dd / (2.0 * h)
            out[:, off] = 0.0
            yield out

    return map(fluxes, entries)


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hashmix(const: int, mult: int):
    """numpy SeedSequence's 32-bit hash, whose constant starts at const and
    is multiplied by mult at each call."""
    state = [const]

    def hashmix(value):
        value ^= state[0]
        state[0] = state[0] * mult & _M32
        value = value * state[0] & _M32
        return value ^ value >> 16
    return hashmix


def _seed_words(seed: int) -> list:
    """numpy's SeedSequence(seed).generate_state(4, np.uint64): the 32-bit
    words of seed, least significant first, hashed into a pool of 4 words;
    8 words drawn from the pool, paired low word first."""
    entropy = [seed >> 32 * i & _M32 for i in range((seed.bit_length() + 31) // 32 or 1)]
    # numpy's INIT_A, MULT_A; MIX_MULT_L, MIX_MULT_R; INIT_B, MULT_B
    mix_in = _hashmix(0x43B0D7E5, 0x931E8875)

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [mix_in(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], mix_in(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], mix_in(word))
    draw = _hashmix(0x8B51F9DD, 0x58F38DED)
    out = [draw(pool[i % 4]) for i in range(8)]
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class _PCG64:
    """The stream of numpy.random.default_rng(seed), for the draws the
    dictionary makes: PCG64 (O'Neill, HMC-CS-2014-0905), a 128-bit LCG
    whose XSL-RR output is taken after each step, seeded by the
    SeedSequence words (w0 w1 the state, w2 w3 the increment, high word
    first) through the srandom routine."""

    MULT = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed: int):
        w = _seed_words(seed)
        self.inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
        self.state = ((self.inc + (w[0] << 64 | w[1])) * self.MULT + self.inc) & _M128
        self.half = None  # the kept high half of a 64-bit output

    def next64(self) -> int:
        self.state = (self.state * self.MULT + self.inc) & _M128
        x, rot = (self.state >> 64 ^ self.state) & _M64, self.state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def next32(self) -> int:
        """The low half of a fresh 64-bit output, whose high half is the
        next call's word."""
        if self.half is not None:
            x, self.half = self.half, None
            return x
        x = self.next64()
        self.half = x >> 32
        return x & _M32

    def uniform(self, lo: float, hi: float, size: int = None):
        """lo + (hi - lo) u, u the top 53 bits of a 64-bit output times
        2^-53: a float, or an array of size draws."""
        draws = [lo + (hi - lo) * ((self.next64() >> 11) * 2.0 ** -53)
                 for _ in range(1 if size is None else size)]
        return draws[0] if size is None else np.array(draws)

    def integers(self, lo: int, hi: int) -> int:
        """An integer in [lo, hi), 2 <= hi - lo <= 2^32, by Lemire's bounded
        draw over 32-bit words (ACM TOMACS 29(1), 2019)."""
        n = hi - lo
        while True:
            m = self.next32() * n
            if (m & _M32) >= ((1 << 32) - n) % n:
                return lo + (m >> 32)


def random_bump_dictionary(grid: Grid, count: int = 16, seed: int = 0) -> list:
    """Smooth random boundary data supported in S x (0,T).

    Space: Gaussian bump in the patch tangential coordinates, clipped by a
    smooth patch window; time: sine arch sin^2(pi k t / T), k in {1, 2, 3},
    vanishing at both endpoints.  Data of one k share their profile, so
    they share their frozen solve.  The draws are those of
    numpy.random.default_rng(seed), from _PCG64.
    """
    rng = _PCG64(seed)
    smask = grid.patch_support_mask()
    ax = grid.axis_nodes()
    tang = np.meshgrid(*([ax] * (grid.dim - 1)), indexing="ij")
    lo = np.array(grid.patch_lo) * grid.h
    hi = np.array(grid.patch_hi) * grid.h
    # smooth window vanishing on the patch rim
    window = np.ones_like(tang[0])
    for k in range(grid.dim - 1):
        window = window * np.sin(np.pi * np.clip((tang[k] - lo[k]) / (hi[k] - lo[k]), 0, 1))
    out = []
    times = grid.times
    for _ in range(count):
        c = lo + rng.uniform(0.25, 0.75, size=grid.dim - 1) * (hi - lo)
        wdt = rng.uniform(0.1, 0.3) * (hi - lo).min()
        r2 = sum((tang[k] - c[k]) ** 2 for k in range(grid.dim - 1))
        space = np.exp(-r2 / (2 * wdt ** 2)) * window
        space[~smask] = 0.0
        mode = rng.integers(1, 4)
        prof = np.sin(np.pi * mode * times / grid.T) ** 2
        prof[0] = prof[-1] = 0.0  # exact, not sin(pi*k) roundoff
        out.append(PatchField(prof, space, grid))
    return out


def eta_surrogate(diffs, half_norms, norm: BoundaryNorm) -> float:
    """Dictionary maximum of ||(Lambda^1-Lambda^2) g||_dual / ||g||_half.

    diffs yields (Lambda^1 - Lambda^2) g of each dictionary datum g in
    order (the data of a pair's patch_linear_flux entry), each measured and
    dropped before the next is taken, and half_norms holds
    norm.half(g.values); diffs is read for as many data as half_norms has.  A
    lower bound of the operator norm; acceptance fits use it on both sides
    of every relation, so the bias is consistent.

    In 3D the pairing of the DN difference is not resolved at h = 1/16:
    on random dictionaries it still moves by about 2x between h = 1/16
    and h = 1/24, so 3D eta values at h = 1/16 carry a resolution error of
    that order.
    """
    if not half_norms:
        raise DNMapError("eta surrogate needs a nonempty dictionary")
    best = 0.0
    for denom, diff in zip(half_norms, diffs):
        if denom == 0.0:
            continue
        best = max(best, norm.dual(diff) / denom)
    return best
