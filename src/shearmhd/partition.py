"""Frequency decomposition of the main nonlinearity into reaction,
transport, remainder and average pieces, as a verifiable partition.

Quadruples (k, eta, l, xi) label the paired summand: output mode (k, eta),
input mode (l, xi), middle-factor mode (k-l, eta-xi).  The k = l diagonal is
the average piece NL_eq.  Off the diagonal the three indicator sets are

    T:  8 |k-l, eta-xi| <= |l, xi|
    R:  |k-l, eta-xi| >= 8 |l, xi|  and  GammaTilde
    Rem: everything else,

with GammaTilde = {4 <k> <= |eta| and 4 |k-l| <= |eta-xi|}.  Taken as
written the three comparisons overlap where the factor-8 thresholds hold
with equality (and the nominal remainder set carries both closed
boundaries); the implementation assigns boundaries by the precedence T, R,
remainder-as-complement, which coincides with the nominal sets off those
measure-zero boundaries and makes the tiling exactly disjoint and
exhaustive.  The quadruple sum runs one output row k at a time, broadcast
over every input (l, xi) and term: still O(modes^2), and no transform.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import _pair
from .spectral import CompactLayout, Grid, ProductWorkspace, shear_symbols
from .unknowns import MHDState
from .weights import MultiplierSet, WeightParams

LABEL_T, LABEL_R, LABEL_REM, LABEL_EQ = 0, 1, 2, 3
LABEL_NAMES = {LABEL_T: "transport", LABEL_R: "reaction",
               LABEL_REM: "remainder", LABEL_EQ: "average"}
# the four bilinear terms (b,b | v,v | b,v | v,b) of the pairing: (a1, a2, a3)
# as indices into (v, b), with their signs
TERMS = [(0, 1, 1, 1.0), (0, 0, 0, -1.0), (1, 1, 0, 1.0), (1, 0, 1, -1.0)]


def gamma_tilde(k, eta, l, xi):
    k = np.asarray(k, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return ((4.0 * np.hypot(1.0, k) <= np.abs(eta))
            & (4.0 * np.abs(k - l) <= np.abs(eta - xi)))


def omega_labels(k, eta, l, xi):
    """Partition label for each quadruple; the diagonal k = l maps to EQ."""
    k = np.asarray(k, dtype=float)
    l = np.asarray(l, dtype=float)
    dmag = np.hypot(k - l, np.asarray(eta) - np.asarray(xi))
    lmag = np.hypot(l, np.asarray(xi, dtype=float))
    labels = np.full(np.broadcast(k, eta, l, xi).shape, LABEL_REM, dtype=np.int8)
    labels[(dmag >= 8.0 * lmag) & gamma_tilde(k, eta, l, xi)] = LABEL_R
    labels[8.0 * dmag <= lmag] = LABEL_T
    labels[np.broadcast_to(k == l, labels.shape)] = LABEL_EQ
    return labels


def omega_r_nominal(k, eta, l, xi):
    d = np.hypot(np.asarray(k, dtype=float) - l, np.asarray(eta) - np.asarray(xi))
    return (d >= 8.0 * np.hypot(np.asarray(l, dtype=float), xi)) & gamma_tilde(k, eta, l, xi)


def omega_t_nominal(k, eta, l, xi):
    d = np.hypot(np.asarray(k, dtype=float) - l, np.asarray(eta) - np.asarray(xi))
    return 8.0 * d <= np.hypot(np.asarray(l, dtype=float), xi)


def omega_rem_nominal(k, eta, l, xi):
    d = np.hypot(np.asarray(k, dtype=float) - l, np.asarray(eta) - np.asarray(xi))
    lm = np.hypot(np.asarray(l, dtype=float), xi)
    middle = (d >= lm / 8.0) & (d <= 8.0 * lm)
    return middle | ((~gamma_tilde(k, eta, l, xi)) & (d >= 8.0 * lm))


def _pairing_fft(lay: CompactLayout, A: np.ndarray, a1, a2, a3, t: float,
                 ws: ProductWorkspace) -> float:
    """(1/Ly) Re <A a1, A(a2.grad_t a3) - a2.grad_t(A a3)> via transforms,
    on compact tables of real fields and an even weight A."""
    adv = ws.advect(shear_symbols(lay, t), a2, np.concatenate([a3, A * a3]))
    return _pair(lay, A * a1, A * adv[:2] - adv[2:])


def _pairing_direct(grid: Grid, A: np.ndarray, fields, t: float):
    """The signed sum over :data:`TERMS` (i1, i2, i3, sign) of the pairing of
    (a1, a2, a3) = ``fields[i1], fields[i2], fields[i3]`` as a quadruple sum
    over full tables, split by label: an array indexed by LABEL_*.

    A row's labels and middle-mode indices are built once and broadcast over
    every retained input (l, xi) and term, so no array spans more than one
    output row.  Intended for small grids.
    """
    # retained rows and columns; every retained row keeps every such column
    ki, cj = (np.nonzero(np.any(grid.dealias_keep, axis=a))[0] for a in (1, 0))
    ls, xis = grid.k[ki], grid.eta[cj]  # the retained etas are the xis
    n = np.round(xis * grid.Ly).astype(int)
    dn = n[:, None] - n[None, :]  # (eta, xi) -> index of the middle eta - xi
    valid = np.abs(dn) <= grid.Ny / 3.0
    j2 = dn % grid.Ny
    Fin = np.stack(fields)[:, :, ki][..., cj]  # a3 at every input (l, xi)
    Ain = A[np.ix_(ki, cj)]
    il, ie, ix = np.ix_(range(len(ki)), range(len(cj)), range(len(cj)))
    grad = 1j * ls[il], 1j * (xis[ix] - ls[il] * t)  # grad_t of the input mode
    totals = np.zeros(4)
    for ik, k in zip(ki, grid.k[ki]):
        dk = k - ls
        in_table = (dk >= -(grid.Nx // 2)) & (dk < grid.Nx // 2)
        mid = (dk.astype(int) % grid.Nx)[il], j2[ie, ix]  # middle mode indices
        Ak = A[ik, cj]
        wdiff = Ak[ie] - Ain[il, ix]
        summand = np.zeros(wdiff.shape)
        for i1, i2, i3, sign in TERMS:
            # the commutator weight times a2.grad_t, a2 at the middle mode
            wdot = fields[i2][0][mid] * grad[0]
            wdot += fields[i2][1][mid] * grad[1]
            wdot *= wdiff
            left = np.conj(Ak * fields[i1][:, ik, cj])
            for j in (0, 1):
                summand += sign * (left[j][ie] * wdot * Fin[i3, j][il, ix]).real
        summand[~(valid[ie, ix] & in_table[il])] = 0.0
        labels = omega_labels(k, xis[ie], ls[il], xis[ix])
        totals += np.bincount(labels.ravel(), summand.ravel(), minlength=4)
    return totals / grid.Ly


def nl_partition_check(state: MHDState, params: WeightParams,
                       rtol: float = 1e-10):
    """Verify R + T + Rem + NL_eq reproduces the transform-computed NL.

    Works on the commutator-form pairing with the full A weight; the state's
    four bilinear terms :data:`TERMS` are accumulated with their signs.  The
    transform side pairs the state packed once; the quadruple sum reads the
    full tables.  Returns a report dict; raises nothing (caller asserts).
    """
    g, t = state.grid, state.t
    mset = MultiplierSet(g, t, params)
    if float(np.max(mset.log_A)) > 300.0:
        raise OverflowError("weights too large for direct pairing")
    A = mset.A
    ws = ProductWorkspace(g)
    lay = ws.layout
    full = (state.v, state.b)
    comp = tuple(lay.pack(f) for f in full)
    cA = lay.pack(A)
    nl_fft = 0.0
    for i1, i2, i3, sign in TERMS:
        nl_fft += sign * _pairing_fft(lay, cA, comp[i1], comp[i2], comp[i3], t, ws)
    pieces = _pairing_direct(g, A, full, t)
    total = float(pieces.sum())
    scale = max(abs(nl_fft), sum(abs(p) for p in pieces), 1e-300)
    return {
        "NL": nl_fft,
        "reaction": float(pieces[LABEL_R]),
        "transport": float(pieces[LABEL_T]),
        "remainder": float(pieces[LABEL_REM]),
        "average": float(pieces[LABEL_EQ]),
        "sum_of_pieces": total,
        "mismatch": abs(total - nl_fft),
        "rel_mismatch": abs(total - nl_fft) / scale,
        "passes": bool(abs(total - nl_fft) <= rtol * scale),
    }


def partition_exactness_sample(rng: np.random.Generator, n: int = 2000):
    """Random quadruples: labels are one-hot and match the nominal sets
    off the factor-8 equality boundaries."""
    k = rng.integers(-20, 21, size=n)
    l = rng.integers(-20, 21, size=n)
    eta = rng.uniform(-30, 30, size=n)
    xi = rng.uniform(-30, 30, size=n)
    labels = omega_labels(k, eta, l, xi)
    disp = np.stack([omega_t_nominal(k, eta, l, xi),
                     omega_r_nominal(k, eta, l, xi),
                     omega_rem_nominal(k, eta, l, xi)])
    covered = disp.any(axis=0) | (k == l)
    d = np.hypot(k - l, eta - xi)
    lm = np.hypot(l, xi)
    on_boundary = (np.isclose(d, 8 * lm) | np.isclose(8 * d, lm)) & (k != l)
    agree = np.ones(n, dtype=bool)
    off = ~on_boundary & (k != l)
    agree[off & (labels == LABEL_T)] = disp[0][off & (labels == LABEL_T)]
    agree[off & (labels == LABEL_R)] = disp[1][off & (labels == LABEL_R)]
    agree[off & (labels == LABEL_REM)] = disp[2][off & (labels == LABEL_REM)]
    return {"all_covered": bool(covered.all()),
            "nominal_agrees_off_boundary": bool(agree.all()),
            "n_boundary": int(on_boundary.sum())}
