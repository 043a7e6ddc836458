"""Right-hand sides and time stepping for the sheared-frame MHD system.

Two equivalent formulations are evolved:

* ``vb``: the (v, b) system with the shear-coupling terms -v2*e1 / +b2*e1,
  the alpha*d_x exchange, quadratic transport, and the explicit linear
  pressure 2 d_x Delta_t^{-1} grad_t v2; the quadratic terms enter already
  projected, as perpendicular gradients of the curl-form scalars.
  In the sheared frame d/dt(div_t v) = div_t(dv/dt) - d_x v2, so the linear
  pair (-v2*e1 + pressure) must NOT be projected: it supplies exactly the
  +d_x v2 divergence that keeps div_t v = 0 along the flow.  This is the
  sheared-frame pseudo-spectral scheme of Rogallo (NASA TM 81315, 1981).
  Its right-hand side reads real per-mode coefficients of k, u = eta - k t
  and r = 1/Lambda_t^2 from a per-time cache built on ``shear_symbols``:
  the pair (2 k^2 r - 1, 2 k u r) takes v2 to the shear term plus the
  pressure, and the perpendicular gradients (r i u, -r i k) of c and
  (i u, -i k) of E give the projected quadratic pair.
* ``ptilde``: the tailored system in (ptilde_1, ptilde_2), whose k = 0 rows
  carry the first components of the x-averages of v and b.  The linear
  coupling on ptilde_2 carries, besides alpha*d_x, the symbol produced by
  differentiating the change of unknowns in time,
      S(k, eta, t) = -i k^3 / (alpha * Lambda_t^4),
  i.e. the operator +(1/(alpha d_x)) d_x^4 Delta_t^{-2}.  Two alternative
  sign/term variants of this symbol are selectable for comparison runs
  ("mixed": +i k (k^2 - 2 u^2)/(alpha Lambda_t^4); "flipped": +i k^3/(alpha
  Lambda_t^4)); only the derived default is route-equivalent with the vb
  form.

Both forms take the quadratic terms from :func:`quadratic_terms` in curl
form: the scalars c = b.grad_t j - v.grad_t w and E = v1 b2 - v2 b1 (w, j
the sheared curls), c evaluated in divergence form from the products of v
and b alone.  For divergence-free (v, b) the projected pair is
(perp_grad_t(c / Lambda_t^2), perp_grad_t E), so the vb right-hand side
needs no Leray projection, and the ptilde forcings are Lambda_t^{-1} c and
Lambda_t E.

:func:`ptilde_coupling` is the one place these symbols are written, and
:meth:`LinearModeSystem.matrix` the one place of the p-system coefficient
k u / Lambda_t^2 and of the per-mode 2x2 linear operator, returned as its
four entries, which the ptilde right-hand side (through a per-time cache),
the linear reference and the oracle read.  The energy
identity reads S alone; the vb route, its independent check, reads none.
Each route's right-hand side keeps one ``spectral.per_time_cache`` of its
coefficient tables, ``_vb_rhs_symbols`` on (layout, t) and
``_ptilde_rhs_symbols`` on (layout, alpha, variant, nu, kappa, t); the
quadratic kernel that both call reads the pair taking its transformed
products to c from ``shear_symbols``.  :func:`evolve` tells the integrator
the new stage times t + h/2 and t + h of up to four uniform steps at once
(:meth:`LawsonIntegrator.prepare`), and the ptilde integrator builds their
entries of ``_ptilde_rhs_symbols``, ``ptilde_correction_symbol`` and,
through them, ``shear_symbols`` in one set of array operations each; its
right-hand sides, and a sample at a step's end, read them there.
:func:`linear_mode_propagate` is the one DOP853 oracle of those systems,
for any number of modes at once.  Both integrators share one skeleton
(:class:`LawsonIntegrator`) and one stage sequence
(:func:`lawson_rk4_step`; an ideal run's decay factors are 1.0), and
:func:`evolve` is the one marching loop: every run and the dissipative
decay check step through it, and it samples on the time grid t0 + m *
sample_dt, each interval in equal steps of at most ``dt`` (and of the CFL
limit, taken once per interval, in a CFL run).  The grid-wide linear
reference :func:`propagate_linear_grid` does not: the linear ptilde flow is diagonal
in modes, so it takes sixth-order Magnus steps of its own on compact
ptilde column pairs, each step the closed-form exponential of a traceless
2x2 matrix per mode, with no integrator, transforms or per-step cleanup;
applied to the identity, it gives the propagator U(t1, t0) of every mode.
The experiments that run these pieces, the norm-inflation comparison of
the solution with that reference among them, live in ``experiments``.

Both integrators step compact tables (``spectral.CompactLayout``, the
independent modes only); ``pack`` converts a full-grid state once at the
start, and samples read the compact stacks as states on the layout.  The
vb integrator steps the state's own (2, 2, ...) stack ``MHDState.vb``, field
(v, b) then component, and the ptilde integrator the (2, ...) stack of
``TailoredState.ptilde``.  The per-step cleanup projects (vb, one call on
the whole stack), averages each eta = 0 column with its -k partner
(``CompactLayout.hermitize_column``) and zeroes the mean.

Dissipation nu*Delta_t / kappa*Delta_t is integrated exactly through
per-mode integrating factors exp(-nu * int Lambda_t^2 dt) inside a Lawson
(integrating-factor) RK4; the anisotropic cross term ((nu-kappa)/alpha)
d_y^t ptilde_2 stays in the explicit part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (CompactLayout, Grid, ProductWorkspace, l2_norm, per_time_cache,
                       shear_symbols)
from .unknowns import (MHDState, TailoredState, leray_project_t,
                       ptilde_correction_symbol, state_to_tailored,
                       tailored_to_state)

SYMBOL_VARIANTS = ("derived", "mixed", "flipped")


class NumericalAbort(RuntimeError):
    """Raised when the state stops being finite; carries the last good time."""

    def __init__(self, t_last: float):
        super().__init__(f"non-finite state detected; last good time t = {t_last:.6g}")
        self.t_last = t_last


def dissipation_phase(grid: Grid, t0: float, t1: float) -> np.ndarray:
    """Exact per-mode integral of Lambda_t^2 over [t0, t1] (grid or compact layout)."""
    K, ETA = grid.K, grid.ETA
    dt = t1 - t0
    with np.errstate(divide="ignore", invalid="ignore"):
        cubic = ((ETA - K * t0) ** 3 - (ETA - K * t1) ** 3) / (3.0 * K)
    phase = K**2 * dt + np.where(K == 0, ETA**2 * dt, cubic)
    return phase * np.ones(grid.shape)


def _guarded_lam2(k, u):
    """Lambda^2 = k^2 + u^2, with 1 where it vanishes (k = u = 0)."""
    lam2 = k * k + u * u
    return np.where(lam2 == 0, 1.0, lam2)


def ptilde_coupling(k, u, alpha: float, variant: str = "derived"):
    """S, which multiplies ptilde_2 in the ptilde_1 equation besides i alpha k.

    Elementwise on broadcastable ``k`` and ``u = eta - k t`` (``grid.K`` and
    ``shear_symbols(grid, t).u`` for whole tables).  Vanishes at k = 0."""
    lam2 = _guarded_lam2(k, u)
    if variant == "derived":
        return -1j * k**3 / (alpha * lam2**2)
    if variant == "mixed":
        return 1j * k * (k * k - 2.0 * u * u) / (alpha * lam2**2)
    if variant == "flipped":
        return 1j * k**3 / (alpha * lam2**2)
    raise ValueError(f"unknown symbol variant {variant!r}")


@dataclass
class LinearModeSystem:
    """(k, eta) modes of the linearized dynamics, ``k``, ``eta`` broadcastable;
    a k = 0 row, an x-average, has only the damping (-nu eta^2, -kappa eta^2)."""

    k: int | np.ndarray
    eta: float | np.ndarray
    alpha: float
    coords: str = "p"  # or "ptilde"
    nu: float = 0.0
    kappa: float = 0.0
    symbol_variant: str = "derived"

    def __post_init__(self):
        if self.coords not in ("p", "ptilde"):
            raise ValueError("coords must be 'p' or 'ptilde'")
        variants = SYMBOL_VARIANTS if self.coords == "ptilde" else ("derived",)
        if self.symbol_variant not in variants:
            raise ValueError(f"symbol variant {self.symbol_variant!r} not in {variants}")

    def matrix(self, t):
        """The entries (m11, m12, m21, m22) at time t (scalar or array), each
        broadcastable with u = eta - k t; the scalar 0.0 where 0 on every mode
        (the ideal ptilde diagonal).  They may share memory (m12 is m21 in p
        coordinates), so they are read-only.  The p system is dp1/dt = a p1 +
        i alpha k p2, dp2/dt = -a p2 + i alpha k p1, a = k u / Lambda^2."""
        k, alpha = self.k, self.alpha
        u = self.eta - k * t
        iak = 1j * alpha * k
        if self.coords == "p":
            a = k * u / _guarded_lam2(k, u)
            m11, m12, m22 = a, iak, -a
        else:
            m11 = m22 = 0.0
            m12 = iak + ptilde_coupling(k, u, alpha, self.symbol_variant)
        if self.nu or self.kappa:
            lam2 = k * k + u * u
            m11 = m11 - self.nu * lam2
            m22 = m22 - self.kappa * lam2
            if self.coords == "ptilde":
                # the cross term ((nu - kappa)/alpha) d_y^t ptilde_2, off the averages
                m12 = m12 + (self.nu - self.kappa) / alpha * 1j * u * (k != 0)
        return m11, m12, iak, m22


# ---------------------------------------------------------------------------
# quadratic terms
# ---------------------------------------------------------------------------

def _products(v1, v2, b1, b2, prod):
    """Into ``prod[:3]``, in place, the kernel's padded products D = T22 -
    T11, T12 and E of the samples of (v, b), as (v1 - v2)(v1 + v2) - (b1 -
    b2)(b1 + b2), b1 b2 - v1 v2 and v1 b2 - v2 b1; ``prod[3]`` is scratch."""
    D, T12, E, tmp = prod[:4]
    np.subtract(v1, v2, out=D)
    D *= np.add(v1, v2, out=tmp)
    np.subtract(b1, b2, out=tmp)
    tmp *= np.add(b1, b2, out=E)
    D -= tmp
    np.multiply(b1, b2, out=T12)
    T12 -= np.multiply(v1, v2, out=tmp)
    np.multiply(v1, b2, out=E)
    E -= np.multiply(v2, b1, out=tmp)


def _curl_form(grid, out, t):
    """(c, E) of the transformed products ``out`` = (D, T12, E), in place:
    c = (u^2 - k^2) T12 - k u D, the pair read from ``shear_symbols``."""
    sym = shear_symbols(grid, t)
    out[1] *= sym.u2k2
    out[1] -= np.multiply(out[0], sym.ku, out=out[0])
    return out[1:3]


def quadratic_terms(grid: Grid, vb: np.ndarray, t: float, ws: ProductWorkspace):
    """Dealiased curl-form scalars (c, E) of a divergence-free pair (v, b),
    the stack ``vb`` (2, 2, ...) of an :class:`~shearmhd.unknowns.MHDState`.

    ``grid`` is the compact layout of ``vb`` and of the output.

    c = b.grad_t j - v.grad_t w, with w, j the sheared curls of v, b, is the
    curl of b.grad_t b - v.grad_t v; E = v1 b2 - v2 b1 is the out-of-plane
    v x b, whose perpendicular gradient is b.grad_t v - v.grad_t b.  The
    projected pair is therefore (perp_grad_t(c / Lambda_t^2), perp_grad_t E).

    c is evaluated in divergence form: for divergence-free (v, b) it equals
    d_x d_y^t (T22 - T11) + (d_x^2 - (d_y^t)^2) T12 with T = b b - v v
    (Basdevant, J. Comput. Phys. 50, 1983), so one inverse transform of the
    4 tables of v, b and one forward of the 3 products D = T22 - T11, T12
    and E suffice.  Off the divergence-free set (an RK stage of the vb
    route) this is the curl of div(b b - v v).  E is exactly 0 when b = 0.
    The products are formed in place in the workspace's scratch tables
    (:func:`_products`).
    """
    _products(*ws.phys(vb).reshape(4, ws.Mx, ws.My), ws.scratch())
    return _curl_form(grid, ws.spec(ws.scratch()[:3]), t)


# ---------------------------------------------------------------------------
# integrators
# ---------------------------------------------------------------------------

class LawsonIntegrator:
    """Skeleton shared by the Lawson-RK4 integrators.

    Y stacks compact tables (``self.layout``); ``DAMPING``, in Y's own
    leading shape, names per table the coefficient ("nu" or "kappa") whose
    exact integrating factor it carries.  Subclasses define ``pack``, ``rhs``
    and ``cleanup``.
    """

    DAMPING: tuple = ()

    def __init__(self, grid: Grid, alpha: float, nu: float = 0.0,
                 kappa: float = 0.0):
        if alpha == 0:
            raise ValueError("alpha must be nonzero")
        self.grid = grid
        self.layout = grid.compact
        self.alpha = alpha
        self.nu = nu
        self.kappa = kappa
        self.ws = ProductWorkspace(grid)
        # per table of Y the damping coefficient that DAMPING names
        self._rate = np.where(np.array(self.DAMPING) == "kappa", kappa, nu)[..., None, None]

    def decay_factors(self, t0: float, h: float):
        """(e_half, e_full / e_half, e_full) over [t0, t0 + h]; the exact
        scalars (1.0, 1.0, 1.0) if ideal, which leave the Lawson stages
        classical RK4 bit for bit."""
        if self.nu == 0.0 and self.kappa == 0.0:
            return 1.0, 1.0, 1.0
        e_half = np.exp(-self._rate * dissipation_phase(self.layout, t0, t0 + 0.5 * h))
        e_full = np.exp(-self._rate * dissipation_phase(self.layout, t0, t0 + h))
        return e_half, e_full / e_half, e_full

    def prepare(self, times: tuple):
        """Told by :func:`evolve` the new stage times of its next uniform
        steps, before them; nothing to prepare by default."""

    def max_speed(self, Y: np.ndarray) -> float:
        # the l1 norm of the full table bounds the sup norm
        return float(np.max(np.sum(self.layout.mult * np.abs(Y), axis=(-2, -1))))


def _clean_tables(lay: CompactLayout, Y: np.ndarray) -> np.ndarray:
    """In place: average every eta = 0 column with its -k partner, zero the means."""
    lay.hermitize_column(Y)[..., 0, 0] = 0.0
    return Y


@per_time_cache
def _vb_rhs_symbols(lay, t):
    """Read-only per-mode coefficients of the vb rhs at t, from
    ``shear_symbols``, with u = eta - k t and r = 1/Lambda_t^2 (0 at the
    mean): the real pair (2 k^2 r - 1, 2 k u r) on v2, the shear term -v2 e1
    plus the pressure 2 d_x Delta_t^{-1} grad_t v2; and the perpendicular
    gradients [[r i u, -r i k], [i u, -i k]] that take (c, E) to the
    projected pair (perp_grad_t(c / Lambda_t^2), perp_grad_t E)."""
    sym = shear_symbols(lay, t)
    k, r = lay.K, -sym.inv_lap
    grad = np.stack([sym.idyt, -sym.ikx], axis=-3)
    return (np.stack([2.0 * k * k * r - 1.0, 2.0 * k * sym.u * r], axis=-3),
            np.stack([r[..., None, :, :] * grad, grad], axis=-4))


class VBIntegrator(LawsonIntegrator):
    """Lawson-RK4 integrator for the (v, b) formulation.

    Y is the compact form of :attr:`MHDState.vb`, the (2, 2, ...) stack
    [[v1, v2], [b1, b2]]; v takes nu and b kappa.  With ``linear_only`` the
    quadratic terms are left out of the right-hand side.
    """

    DAMPING = (("nu", "nu"), ("kappa", "kappa"))

    def __init__(self, grid: Grid, alpha: float, nu: float = 0.0,
                 kappa: float = 0.0, linear_only: bool = False):
        super().__init__(grid, alpha, nu, kappa)
        self.linear_only = linear_only
        self._iak = 1j * alpha * self.layout.K  # the alpha d_x exchange, one column

    def pack(self, state: MHDState) -> np.ndarray:
        return self.layout.pack(state.vb)

    def rhs(self, t: float, Y: np.ndarray) -> np.ndarray:
        shear, perp = _vb_rhs_symbols(self.layout, t)
        dY = self._iak * Y[::-1]  # i alpha k b on v, i alpha k v on b
        dY[0] += shear * Y[0, 1]  # -v2 e1 plus the linear pressure
        dY[1, 0] += Y[1, 1]  # +b2 e1
        if not self.linear_only:
            # the projected quadratic terms: perp_grad_t of c / Lambda_t^2 and of E
            q = quadratic_terms(self.layout, Y, t, self.ws)
            dY += q[:, None] * perp
        return dY

    def cleanup(self, Y: np.ndarray, t: float) -> np.ndarray:
        return _clean_tables(self.layout, leray_project_t(self.layout, Y, t))


@per_time_cache
def _ptilde_rhs_symbols(lay, alpha, variant, nu, kappa, t):
    """Read-only (M12, M21, F) of the ptilde rhs at t: the off-diagonals of
    :meth:`LinearModeSystem.matrix`, M21 = i alpha k the layout's one column,
    and the forcings F (c, E), (Lambda_t^{-1} c, Lambda_t E) off k = 0 and
    (-i eta Delta_t^{-1} c, i eta E) on it; for a tuple of times, each with a
    leading time axis (M21 broadcast along it)."""
    sym = shear_symbols(lay, t)
    m = LinearModeSystem(lay.K, lay.ETA, alpha, "ptilde", nu, kappa,
                         variant).matrix(np.asarray(t, dtype=float)[..., None, None])
    forcing = np.stack([sym.inv_lam, sym.lam], axis=-3) + 0j
    forcing[..., 0, 0, :] = -sym.idyt[..., 0, :] * sym.inv_lap[..., 0, :]
    forcing[..., 1, 0, :] = sym.idyt[..., 0, :]
    return m[1], np.broadcast_to(m[2], np.shape(t) + m[2].shape), forcing


class PtildeIntegrator(LawsonIntegrator):
    """Lawson-RK4 integrator for the tailored formulation.

    Stacked layout Y = [ptilde1, ptilde2] of two compact tables, their k = 0
    rows the averages vq, bq (:class:`TailoredState`); vq takes nu with
    ptilde1, and bq kappa with ptilde2.
    """

    DAMPING = ("nu", "kappa")

    def __init__(self, grid: Grid, alpha: float, nu: float = 0.0,
                 kappa: float = 0.0, symbol_variant: str = "derived"):
        super().__init__(grid, alpha, nu, kappa)
        self.variant = symbol_variant

    def prepare(self, times: tuple):
        """Build the tables of the right-hand side at ``times`` at once."""
        _ptilde_rhs_symbols(self.layout, self.alpha, self.variant, self.nu, self.kappa, times)
        ptilde_correction_symbol(self.layout, self.alpha, times)

    def pack(self, ts: TailoredState) -> np.ndarray:
        return self.layout.pack(ts.ptilde)

    def rhs(self, t: float, Y: np.ndarray) -> np.ndarray:
        lay = self.layout
        m12, m21, forcing = _ptilde_rhs_symbols(lay, self.alpha, self.variant,
                                                self.nu, self.kappa, t)
        st = tailored_to_state(TailoredState(lay, Y, t), self.alpha)
        n1, n2 = forcing * quadratic_terms(lay, st.vb, t, self.ws)
        dY = np.empty_like(Y)
        np.multiply(m12, Y[1], out=dY[0])
        np.multiply(m21, Y[0], out=dY[1])
        dY[0] += n1 + ptilde_correction_symbol(lay, self.alpha, t) * n2
        dY[1] += n2
        return dY

    def cleanup(self, Y: np.ndarray, t: float) -> np.ndarray:
        del t
        return _clean_tables(self.layout, Y.copy())


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def lawson_rk4_step(integ, Y: np.ndarray, t: float, h: float) -> np.ndarray:
    """One classical RK4 step in Lawson variables (exact diagonal dissipation);
    an ideal integrator's factors 1.0 make it classical RK4 bit for bit."""
    e_half, e_back, e_full = integ.decay_factors(t, h)
    k1 = integ.rhs(t, Y)
    f2 = integ.rhs(t + 0.5 * h, e_half * (Y + 0.5 * h * k1))
    f3 = integ.rhs(t + 0.5 * h, e_half * Y + 0.5 * h * f2)
    f4 = integ.rhs(t + h, e_full * Y + h * e_back * f3)
    return e_full * Y + (h / 6.0) * (e_full * k1 + 2.0 * e_back * (f2 + f3) + f4)


def cfl_dt(integ, Y: np.ndarray, t: float, cfl: float = 0.5) -> float:
    """The CFL step limit of the state Y, with the shear term k t at time t."""
    g = integ.grid
    kmax = g.Nx / 3.0
    emax = g.Ny / (3.0 * g.Ly)
    symmax = max(kmax, emax + kmax * abs(t))
    umax = integ.max_speed(Y)
    return cfl / (abs(integ.alpha) * kmax + umax * symmax + 1e-30)


def sample_times(t0: float, t_end: float, sample_dt: float | None = None) -> list:
    """The sample times of :func:`evolve` after t0: t0 + m * ``sample_dt``
    below t_end, then t_end (only t_end when ``sample_dt`` is None); none
    unless t_end > t0."""
    if t_end <= t0:
        return []
    # the 1e-9 relative slack keeps a span of exactly m samples (or steps) at m
    m_end = 1 if sample_dt is None else int(np.ceil((t_end - t0) / sample_dt * (1 - 1e-9)))
    return [t0 + m * sample_dt for m in range(1, m_end)] + [float(t_end)]


def evolve(integ, Y0: np.ndarray, t0: float, t_end: float, dt: float = 0.02,
           cfl: float | None = 0.5, callback=None, sample_dt: float | None = None):
    """March Y from t0 to t_end; returns (t, Y) at t = t_end.

    ``callback(t, Y)`` fires at t0 and at every time of :func:`sample_times`,
    with t exactly that time.  Each interval [a, b] between samples takes n
    = ceil((b - a) / h) equal steps, ending at a + j (b - a) / n and at b.
    h is ``dt``, or with ``cfl`` set min(dt, :func:`cfl_dt`), the limit
    taken once per interval at its start state and its largest |t|.
    """
    t, Y = float(t0), Y0.copy()
    if callback is not None:
        callback(t, Y)
    for t_b in sample_times(t, t_end, sample_dt):
        h = dt if cfl is None else min(dt, cfl_dt(integ, Y, max(abs(t), abs(t_b)), cfl))
        t_a, n = t, int(np.ceil((t_b - t) / h * (1 - 1e-9)))
        for j in range(1, n + 1):
            if j % 4 == 1:  # the new stage times of this step and the next three
                ends = [t_a + i * (t_b - t_a) / n if i < n else t_b
                        for i in range(j, min(j + 4, n + 1))]
                integ.prepare(tuple(s for a, b in zip([t, *ends], ends)
                                    for s in (a + 0.5 * (b - a), b)))
            t_next = ends[(j - 1) % 4]
            Y = integ.cleanup(lawson_rk4_step(integ, Y, t, t_next - t), t_next)
            if not np.isfinite(Y.view(float)).all():
                raise NumericalAbort(t)
            t = t_next
        if callback is not None:
            callback(t, Y)
    return t, Y


# ---------------------------------------------------------------------------
# per-mode linear systems
# ---------------------------------------------------------------------------

def linear_mode_propagate(sys: LinearModeSystem, p_init, t0: float, t1: float,
                          tol: float = 1e-10) -> np.ndarray:
    """Adaptive (DOP853) integration of the mode systems of ``sys`` from t0
    to t1, independent of the PDE solver path.

    ``p_init`` has shape (..., 2), one pair per mode; the result has its
    shape.  All modes form one real system, with rtol = ``tol`` and atol =
    1e-3 * tol * max|p_init|.
    """
    from scipy.integrate import solve_ivp
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    z0 = np.moveaxis(np.asarray(p_init, dtype=np.complex128), -1, 0)
    n = z0.size

    def f(t, y):
        z = (y[:n] + 1j * y[n:]).reshape(z0.shape)
        m11, m12, m21, m22 = sys.matrix(t)
        dz = np.stack([m11 * z[0] + m12 * z[1], m21 * z[0] + m22 * z[1]])
        return np.concatenate([dz.real.ravel(), dz.imag.ravel()])

    y0 = np.concatenate([z0.real.ravel(), z0.imag.ravel()])
    scale = max(1e-300, float(np.max(np.abs(z0))))
    sol = solve_ivp(f, (t0, t1), y0, method="DOP853", rtol=tol, atol=tol * scale * 1e-3)
    if not sol.success:
        raise RuntimeError(f"mode integration failed: {sol.message}")
    y = sol.y[:, -1]
    return np.moveaxis((y[:n] + 1j * y[n:]).reshape(z0.shape), 0, -1)


def _bracket(p, q):
    """[P, Q] of traceless 2x2 matrices, each stored as the stack (x, y, z)
    of [[x, y], [z, -x]]; the commutator is traceless too."""
    (x1, y1, z1), (x2, y2, z2) = p, q
    return np.stack([y1 * z2 - y2 * z1, 2.0 * (x1 * y2 - x2 * y1),
                     2.0 * (z1 * x2 - z2 * x1)])


def propagate_linear_grid(grid: Grid, Y0: np.ndarray, t0: float, t1: float,
                          alpha: float, symbol_variant: str = "derived",
                          dt: float = 0.05) -> np.ndarray:
    """Ideal linear ptilde flow of a stack of compact column pairs
    (2, ..., *grid.compact.shape) from t0 to t1; returns a new stack.

    Each mode obeys dp1/dt = (i alpha k + S) p2, dp2/dt = i alpha k p1, the
    traceless :meth:`LinearModeSystem.matrix`.  It takes n = ceil((t1 - t0)
    * max(1/dt, |alpha| k_max)) equal sixth-order Magnus steps, so that no
    step spans more than a radian of the fastest Alfven oscillation: three
    Gauss nodes, one matrix call per step on the stack of the node times,
    three commutators (Blanes, Casas & Ros, BIT 40, 2000), each exponent
    Omega = [[x, y], [z, -x]] kept as the tables (x, y, z) and exponentiated
    in closed form, exp Omega = cosh mu I + (sinh mu / mu) Omega with mu^2 =
    x^2 + y z (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009).  The flow
    is diagonal in modes and commutes with the real-field cleanup, so that
    is applied once, to the input (k = 0 rows zero).  The identity stack
    (2, 2, ...) goes to U(t1, t0), column j the image of the unit pair e_j.
    Raises ``NumericalAbort(t0)`` if the result is not finite.
    """
    lay = grid.compact
    Y = _clean_tables(lay, Y0.copy())
    Y[..., 0, :] = 0.0  # ptilde lives on k != 0
    sys = LinearModeSystem(lay.K, lay.ETA, alpha, "ptilde", symbol_variant=symbol_variant)
    rate = max(1.0 / dt, abs(alpha) * float(np.max(np.abs(lay.K))))
    n = int(np.ceil((t1 - t0) * rate * (1 - 1e-9)))
    h = (t1 - t0) / max(n, 1)
    gauss = 0.5 + np.sqrt(0.15) * np.array([-1.0, 0.0, 1.0])[:, None, None]
    for i in range(n):
        # the traceless [[x, y], [z, -x]] at the nodes, entries first: (x, y, z)
        A = np.array(np.broadcast_arrays(*sys.matrix(t0 + (i + gauss) * h)[:3]))
        a1 = h * A[:, 1]
        a2 = (np.sqrt(15.0) / 3.0 * h) * (A[:, 2] - A[:, 0])
        a3 = (10.0 / 3.0 * h) * (A[:, 2] - 2.0 * A[:, 1] + A[:, 0])
        c1 = _bracket(a1, a2)
        c2 = _bracket(a1, 2.0 * a3 + c1) / -60.0
        x, y, z = a1 + a3 / 12.0 + _bracket(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
        mu = np.sqrt(x * x + y * z)
        ch = np.cosh(mu)
        sh = np.divide(np.sinh(mu), mu, out=np.ones_like(mu), where=mu != 0)
        Y = np.stack([(ch + sh * x) * Y[0] + (sh * y) * Y[1],
                      (sh * z) * Y[0] + (ch - sh * x) * Y[1]])
    if not np.isfinite(Y.view(float)).all():
        raise NumericalAbort(t0)
    return Y


def route_equivalence_run(state0: MHDState, alpha: float, t_end: float,
                          dt: float = 0.01, symbol_variant: str = "derived",
                          nu: float = 0.0, kappa: float = 0.0):
    """Evolve the same data through both formulations; return relative gaps.

    The gap is measured in both charts: tailored variables of the vb-route
    state against the ptilde-route state, and back in (v, b).
    """
    g, t0 = state0.grid, state0.t
    lay = g.compact
    vb = VBIntegrator(g, alpha, nu, kappa)
    pt = PtildeIntegrator(g, alpha, nu, kappa, symbol_variant=symbol_variant)
    Y0 = vb.pack(state0)
    _, Yvb = evolve(vb, Y0, t0, t_end, dt=dt, cfl=None)
    ts0 = state_to_tailored(MHDState(lay, Y0, t0), alpha)
    _, Ypt = evolve(pt, ts0.ptilde, t0, t_end, dt=dt, cfl=None)

    st_vb = MHDState(lay, Yvb, t_end)
    ts_vb = state_to_tailored(st_vb, alpha)
    ts_pt = TailoredState(lay, Ypt, t_end)
    st_pt = tailored_to_state(ts_pt, alpha)

    scale_pt = max(ts_pt.norm(), ts_vb.norm())
    gap_pt = l2_norm(lay, *(ts_vb.ptilde - ts_pt.ptilde)) / scale_pt
    scale_vb = max(st_pt.norm(), st_vb.norm())
    gap_vb = MHDState(lay, st_vb.vb - st_pt.vb, t_end).norm() / scale_vb
    return {"gap_tailored": float(gap_pt), "gap_vb": float(gap_vb),
            "symbol_variant": symbol_variant}
