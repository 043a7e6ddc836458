"""Right-hand sides and time stepping for the sheared-frame MHD system.

Two equivalent formulations are evolved:

* ``vb``: the (v, b) system with the shear-coupling terms -v2*e1 / +b2*e1,
  the alpha*d_x exchange, quadratic transport, and the explicit linear
  pressure 2 d_x Delta_t^{-1} grad_t v2; the quadratic terms enter already
  projected, as perpendicular gradients of the curl-form scalars.
  In the sheared frame d/dt(div_t v) = div_t(dv/dt) - d_x v2, so the linear
  pair (-v2*e1 + pressure) must NOT be projected: it supplies exactly the
  +d_x v2 divergence that keeps div_t v = 0 along the flow.
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
:func:`p_shear_coefficient` the one place of the p-system coefficient
k u / Lambda_t^2; :meth:`LinearModeSystem.matrix` builds on them the one
per-mode 2x2 linear operator, which the ptilde right-hand side (through a
per-time cache), the linear reference and the oracle read.  The energy
identity reads S alone; the vb route, its independent check, reads none.
:func:`linear_mode_propagate` is the one DOP853 oracle of those systems,
for any number of modes at once.  Both integrators share one skeleton
(:class:`LawsonIntegrator`) and one stage sequence
(:func:`lawson_rk4_step`; an ideal run's decay factors are 1.0), and
:func:`evolve` is the one marching loop: every run and the dissipative
decay check step through it, and it samples on the time grid
t0 + m * sample_dt.  The grid-wide linear reference
:func:`propagate_linear_grid` does not: the linear ptilde flow is diagonal
in modes, so it takes sixth-order Magnus steps of its own on compact
ptilde column pairs, each step the closed-form exponential of a traceless
2x2 matrix per mode, with no integrator, transforms or per-step cleanup.

Both integrators step compact tables (``spectral.CompactLayout``, the
independent modes only); ``pack`` converts a full-grid state once at the
start, and samples read the compact stacks as states on the layout.  The
per-step cleanup projects (vb), averages each eta = 0 column with its -k
partner and zeroes the mean.

Dissipation nu*Delta_t / kappa*Delta_t is integrated exactly through
per-mode integrating factors exp(-nu * int Lambda_t^2 dt) inside a Lawson
(integrating-factor) RK4; the anisotropic cross term ((nu-kappa)/alpha)
d_y^t ptilde_2 stays in the explicit part.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .spectral import (CompactLayout, Grid, ProductWorkspace, l2_norm,
                       shear_symbols)
from .unknowns import (MHDState, TailoredState, curl_t, hminus1_norm,
                       leray_project_t, ptilde_correction_symbol,
                       state_to_tailored, tailored_to_state)

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


def p_shear_coefficient(k, u):
    """a = k u / Lambda^2 of the p system dp1/dt = a p1 + i alpha k p2,
    dp2/dt = -a p2 + i alpha k p1.

    Elementwise on broadcastable ``k`` and ``u = eta - k t``; pass ``grid.K``
    and ``shear_symbols(grid, t).u`` for whole tables.  Vanishes at k = 0.
    """
    return k * u / _guarded_lam2(k, u)


def ptilde_coupling(k, u, alpha: float, variant: str = "derived"):
    """S, which multiplies ptilde_2 in the ptilde_1 equation besides i alpha k.

    Elementwise as :func:`p_shear_coefficient`.  Vanishes at k = 0.
    """
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

    def matrix(self, t) -> np.ndarray:
        """The (..., 2, 2) matrices at time t, a scalar or a broadcastable array."""
        k, alpha = self.k, self.alpha
        u = self.eta - k * t
        iak = 1j * alpha * k
        m = np.zeros((2, 2) + np.shape(u), dtype=np.complex128)
        if self.coords == "p":
            a = p_shear_coefficient(k, u)
            m[0, 0], m[0, 1], m[1, 1] = a, iak, -a
        else:
            m[0, 1] = iak + ptilde_coupling(k, u, alpha, self.symbol_variant)
        m[1, 0] = iak
        if self.nu or self.kappa:
            lam2 = k * k + u * u
            m[0, 0] -= self.nu * lam2
            m[1, 1] -= self.kappa * lam2
            if self.coords == "ptilde":
                # the cross term ((nu - kappa)/alpha) d_y^t ptilde_2, off the averages
                m[0, 1] += (self.nu - self.kappa) / alpha * 1j * u * (k != 0)
        # a view in which each entry m[..., i, j] is a contiguous table
        return m.transpose(*range(2, m.ndim), 0, 1)


# ---------------------------------------------------------------------------
# quadratic terms
# ---------------------------------------------------------------------------

def quadratic_terms(grid: Grid, v: np.ndarray, b: np.ndarray, t: float,
                    ws: ProductWorkspace):
    """Dealiased curl-form scalars (c, E) of a divergence-free pair (v, b).

    ``grid`` is the compact layout of ``v``, ``b`` and of the output.

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
    """
    u, k = shear_symbols(grid, t).u, grid.K
    v1, v2, b1, b2 = ws.phys(np.concatenate([v, b]))
    out = ws.spec(np.stack([(v1 - v2) * (v1 + v2) - (b1 - b2) * (b1 + b2),
                            b1 * b2 - v1 * v2, v1 * b2 - v2 * b1]))
    out[1] = (u * u - k * k) * out[1] - (k * u) * out[0]
    return out[1:]


# ---------------------------------------------------------------------------
# integrators
# ---------------------------------------------------------------------------

class LawsonIntegrator:
    """Skeleton shared by the Lawson-RK4 integrators.

    Y stacks compact tables (``self.layout``); ``DAMPING`` names, per
    channel, the coefficient ("nu" or "kappa") whose exact integrating factor
    it carries.  Subclasses define ``pack``, ``rhs`` and ``cleanup``.
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

    def decay_factors(self, t0: float, h: float):
        """(e_half, e_full / e_half, e_full) over [t0, t0 + h]; the exact
        scalars (1.0, 1.0, 1.0) if ideal, which leave the Lawson stages
        classical RK4 bit for bit."""
        if self.nu == 0.0 and self.kappa == 0.0:
            return 1.0, 1.0, 1.0

        def stack(ph):
            decay = {"nu": np.exp(-self.nu * ph), "kappa": np.exp(-self.kappa * ph)}
            return np.stack([decay[c] for c in self.DAMPING])

        e_half = stack(dissipation_phase(self.layout, t0, t0 + 0.5 * h))
        e_full = stack(dissipation_phase(self.layout, t0, t0 + h))
        return e_half, e_full / e_half, e_full

    def max_speed(self, Y: np.ndarray) -> float:
        # the l1 norm of the full table bounds the sup norm
        return float(np.max(np.sum(self.layout.mult * np.abs(Y), axis=(-2, -1))))


def _clean_tables(lay: CompactLayout, Y: np.ndarray) -> np.ndarray:
    """In place: average every eta = 0 column with its -k partner, zero the means."""
    col = Y[..., 0]
    Y[..., 0] = 0.5 * (col + np.conj(col[..., lay.neg]))
    Y[..., 0, 0] = 0.0
    return Y


class VBIntegrator(LawsonIntegrator):
    """Lawson-RK4 integrator for the (v, b) formulation.

    The stacked layout is Y = [v1, v2, b1, b2], four compact tables.  With
    ``linear_only`` the quadratic terms are left out of the right-hand side.
    """

    DAMPING = ("nu", "nu", "kappa", "kappa")

    def __init__(self, grid: Grid, alpha: float, nu: float = 0.0,
                 kappa: float = 0.0, linear_only: bool = False):
        super().__init__(grid, alpha, nu, kappa)
        self.linear_only = linear_only

    def pack(self, state: MHDState) -> np.ndarray:
        return self.layout.pack(np.concatenate([state.v, state.b]))

    def rhs(self, t: float, Y: np.ndarray) -> np.ndarray:
        sym = shear_symbols(self.layout, t)
        v1, v2, b1, b2 = Y
        ik = sym.ikx
        aik = self.alpha * ik
        # linear pressure 2 d_x Delta_t^{-1} grad_t v2 plus the shear pair
        press = 2.0 * ik * sym.inv_lap * v2
        dY = np.empty_like(Y)
        dY[0] = -v2 + ik * press + aik * b1
        dY[1] = sym.idyt * press + aik * b2
        dY[2] = b2 + aik * v1
        dY[3] = aik * v2
        if not self.linear_only:
            # the projected quadratic terms: perp_grad_t of c / Lambda_t^2 and of E
            q = quadratic_terms(self.layout, Y[:2], Y[2:], t, self.ws)
            q[0] *= -sym.inv_lap
            dY[0::2] += sym.idyt * q
            dY[1::2] += -ik * q
        return dY

    def cleanup(self, Y: np.ndarray, t: float) -> np.ndarray:
        lay = self.layout
        return _clean_tables(lay, np.concatenate([leray_project_t(lay, Y[:2], t),
                                                 leray_project_t(lay, Y[2:], t)]))


@functools.lru_cache(maxsize=4)
def _ptilde_rhs_symbols(lay, alpha, variant, nu, kappa, t):
    """Read-only (M12, M21, F) of the ptilde rhs at t: the off-diagonals of
    :meth:`LinearModeSystem.matrix` and the forcings F (c, E), (Lambda_t^{-1}
    c, Lambda_t E) off k = 0 and (-i eta Delta_t^{-1} c, i eta E) on it."""
    sym = shear_symbols(lay, t)
    m = LinearModeSystem(lay.K, lay.ETA, alpha, "ptilde", nu, kappa, variant).matrix(t)
    forcing = np.stack([sym.inv_lam, sym.lam]) + 0j
    forcing[:, 0] = -sym.idyt[0] * sym.inv_lap[0], sym.idyt[0]
    tables = m[..., 0, 1], m[..., 1, 0], forcing
    for tab in tables:
        tab.flags.writeable = False
    return tables


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

    def pack(self, ts: TailoredState) -> np.ndarray:
        return self.layout.pack(ts.ptilde)

    def rhs(self, t: float, Y: np.ndarray) -> np.ndarray:
        lay = self.layout
        m12, m21, forcing = _ptilde_rhs_symbols(lay, self.alpha, self.variant,
                                                self.nu, self.kappa, t)
        dY = np.empty_like(Y)
        dY[0] = m12 * Y[1]
        dY[1] = m21 * Y[0]
        st = tailored_to_state(TailoredState(lay, Y, t), self.alpha)
        n1, n2 = forcing * quadratic_terms(lay, st.v, st.b, t, self.ws)
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
    g = integ.grid
    kmax = g.Nx / 3.0
    emax = g.Ny / (3.0 * g.Ly)
    symmax = max(kmax, emax + kmax * abs(t))
    umax = integ.max_speed(Y)
    return cfl / (abs(integ.alpha) * kmax + umax * symmax + 1e-30)


def evolve(integ, Y0: np.ndarray, t0: float, t_end: float, dt: float = 0.02,
           cfl: float | None = 0.5, callback=None, sample_dt: float | None = None):
    """March Y from t0 to t_end; returns (t, Y) at t = t_end.

    The sample times are t0 + m * ``sample_dt`` below t_end, then t_end
    (only t_end when ``sample_dt`` is None); ``callback(t, Y)`` fires at t0
    and at every sample time, with t exactly that time.  No step crosses a
    sample time.  With ``cfl=None`` each interval between samples takes
    ceil(length / dt) uniform steps; otherwise a step is ``dt``, also held
    to the CFL limit of the current state, and a step clipped by the next
    sample time lands on it exactly.
    """
    t, Y = float(t0), Y0.copy()
    if callback is not None:
        callback(t, Y)
    # the 1e-9 relative slack keeps a span of exactly m samples (or steps) at m
    m_end = 1 if sample_dt is None else int(np.ceil((t_end - t) / sample_dt * (1 - 1e-9)))
    marks = [t + m * sample_dt for m in range(1, m_end)] + [float(t_end)]
    for t_b in (marks if t_end > t else []):
        t_a, i = t, 0
        n = int(np.ceil((t_b - t_a) / dt * (1 - 1e-9)))
        while t < t_b:
            if cfl is None:
                i += 1
                t_next = t_b if i == n else t_a + i * (t_b - t_a) / n
            else:
                h = min(dt, cfl_dt(integ, Y, t, cfl))
                t_next = t_b if t + h * (1 + 1e-9) >= t_b else t + h
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
        m = sys.matrix(t)
        dz = np.stack([m[..., 0, 0] * z[0] + m[..., 0, 1] * z[1],
                       m[..., 1, 0] * z[0] + m[..., 1, 1] * z[1]])
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
    is applied once, to the input (k = 0 rows zero).  Raises
    ``NumericalAbort(t0)`` if the result is not finite.
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
        A = sys.matrix(t0 + (i + gauss) * h)  # per node [[x, y], [z, -x]] -> (x, y, z)
        A = np.stack([A[..., 0, 0], A[..., 0, 1], A[..., 1, 0]], axis=1)
        a1 = h * A[1]
        a2 = (np.sqrt(15.0) / 3.0 * h) * (A[2] - A[0])
        a3 = (10.0 / 3.0 * h) * (A[2] - 2.0 * A[1] + A[0])
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


# ---------------------------------------------------------------------------
# norm-inflation experiment
# ---------------------------------------------------------------------------

def norm_inflation_experiment(state0: MHDState, alpha: float, c0: float,
                              eps: float, t_end: float, dt: float = 0.02,
                              sample_dt: float = 0.5,
                              symbol_variant: str = "derived"):
    """Co-evolve the full solution and the per-mode linear ptilde flow.

    Returns (rows, summary): rows carry per-sample norms and ratios, the
    summary the extreme ratios against C1 = exp(pi/(2 alpha)) and, as
    ``lin_operator_max``, the sup over samples and modes k != 0 of the 2x2
    operator norm of the linear propagator U(t, t0), from the images of the
    unit column pairs (1, 0) and (0, 1), propagated beside ptilde.
    ``lin_within_C1`` gates |ptilde|^2 within [1/C1, C1], so the l2 ratio
    within [1/sqrt(C1), sqrt(C1)]: per mode d/dt |ptilde|^2 = 2 Re(conj(
    ptilde_1) S ptilde_2) <= |S| |ptilde|^2 (the i alpha k terms are skew),
    and int |S| dt = pi/(2 alpha |k|) for the derived or flipped S.  For the
    mixed S, int |S| dt = 3.168/(alpha |k|) exceeds that, so no bound is
    claimed and the key is None (its operator norm reaches 4.92 > sqrt(C1) =
    4.81 at 16^2, alpha = 0.5, over [0, 20]).
    """
    g = state0.grid
    lay = g.compact
    integ = VBIntegrator(g, alpha)
    Y = integ.pack(state0)
    ts0 = state_to_tailored(MHDState(lay, Y[:2], Y[2:], state0.t), alpha)
    ts0.ptilde[:, 0] = 0.0  # the norms are of ptilde alone, not of the averages
    pt_in_l2 = l2_norm(lay, *ts0.ptilde)
    pt_in_h1 = hminus1_norm(lay, *ts0.ptilde)
    if pt_in_l2 == 0:
        raise ValueError("initial tailored state vanishes")

    c1 = float(np.exp(np.pi / (2.0 * abs(alpha))))
    rows = []
    cols = np.zeros((2, 3, *lay.shape), dtype=np.complex128)  # ptilde, U e1, U e2
    cols[:, 0] = ts0.ptilde
    cols[0, 1, 1:] = cols[1, 2, 1:] = 1.0
    state = {"lin": cols, "t_lin": state0.t, "op_max": 0.0}

    def sample(t, Yc):
        if t > state["t_lin"]:
            state["lin"] = propagate_linear_grid(g, state["lin"], state["t_lin"], t,
                                                 alpha, symbol_variant)
            state["t_lin"] = t
        # sigma_max(U) = (sqrt(|U|_F^2 + 2 |det U|) + sqrt(|U|_F^2 - 2 |det U|)) / 2
        U = state["lin"][:, 1:]
        fro2 = np.sum(np.abs(U) ** 2, axis=(0, 1))
        det2 = 2.0 * np.abs(U[0, 0] * U[1, 1] - U[0, 1] * U[1, 0])
        op = 0.5 * (np.sqrt(fro2 + det2) + np.sqrt(np.maximum(fro2 - det2, 0.0)))
        state["op_max"] = max(state["op_max"], float(op.max()))
        st = MHDState(lay, Yc[:2], Yc[2:], t)
        pt = state_to_tailored(st, alpha).ptilde
        pt[:, 0] = 0.0
        lin = state["lin"][:, 0]
        pt_l2 = l2_norm(lay, *pt)
        lin_l2 = l2_norm(lay, *lin)
        dev_l2 = l2_norm(lay, *(pt - lin))
        pt_h1 = hminus1_norm(lay, *pt)
        lin_h1 = hminus1_norm(lay, *lin)
        dev_h1 = hminus1_norm(lay, *(pt - lin))
        wj = l2_norm(lay, curl_t(lay, st.v, t), curl_t(lay, st.b, t))
        rows.append({
            "t": t,
            "ptilde_l2": pt_l2,
            "ptilde_lin_l2": lin_l2,
            "deviation_l2": dev_l2,
            "ratio_l2": pt_l2 / pt_in_l2,
            "ratio_lin_l2": lin_l2 / pt_in_l2,
            "ratio_h1": pt_h1 / pt_in_h1 if pt_in_h1 > 0 else 0.0,
            "ratio_lin_h1": lin_h1 / pt_in_h1 if pt_in_h1 > 0 else 0.0,
            "rel_deviation": dev_l2 / lin_l2 if lin_l2 > 0 else 0.0,
            "rel_deviation_h1": dev_h1 / lin_h1 if lin_h1 > 0 else 0.0,
            "wj_over_t": wj / np.hypot(1.0, t),
        })

    evolve(integ, Y, state0.t, t_end, dt=dt, callback=sample, sample_dt=sample_dt)

    ratios = np.array([r["ratio_l2"] for r in rows])
    lin_ratios = np.array([r["ratio_lin_l2"] for r in rows])
    devs = np.array([r["rel_deviation"] for r in rows])
    summary = {
        "C1": c1,
        "lin_operator_max": state["op_max"],
        "horizon": min(t_end, c0 / eps),
        "ratio_min": float(ratios.min()),
        "ratio_max": float(ratios.max()),
        "lin_ratio_min": float(lin_ratios.min()),
        "lin_ratio_max": float(lin_ratios.max()),
        "lin_within_C1": None if symbol_variant == "mixed" else bool(
            lin_ratios.min() >= c1**-0.5 - 1e-9 and lin_ratios.max() <= c1**0.5 + 1e-9),
        "max_rel_deviation": float(devs.max()),
        "symbol_variant": symbol_variant,
    }
    return rows, summary


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
    ts0 = state_to_tailored(MHDState(lay, Y0[:2], Y0[2:], t0), alpha)
    _, Ypt = evolve(pt, ts0.ptilde, t0, t_end, dt=dt, cfl=None)

    st_vb = MHDState(lay, Yvb[:2], Yvb[2:], t_end)
    ts_vb = state_to_tailored(st_vb, alpha)
    ts_pt = TailoredState(lay, Ypt, t_end)
    st_pt = tailored_to_state(ts_pt, alpha)

    scale_pt = max(ts_pt.norm(), ts_vb.norm())
    gap_pt = l2_norm(lay, *(ts_vb.ptilde - ts_pt.ptilde)) / scale_pt
    scale_vb = max(st_pt.norm(), st_vb.norm())
    gap_vb = l2_norm(lay, *(st_vb.v - st_pt.v), *(st_vb.b - st_pt.b)) / scale_vb
    return {"gap_tailored": float(gap_pt), "gap_vb": float(gap_vb),
            "symbol_variant": symbol_variant}
