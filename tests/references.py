"""Closed forms of derivatives the package takes from jets, kept as test references.

No route reads a closed form: R = -d dbar log a comes from jets of the
registered log-densities, and the checks take the Jacobians of deck maps
and chart transitions from jets of the maps. These hand-derived matrices
are what the jets are checked against. cp1 `fs` keeps its closed-form
Ricci matrix in the registry as the convergence suite's reference;
`fs-bump` and hopf `r4` have theirs here.
"""

import numpy as np


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def fs_bump_ricci(coords):
    """cp1 fs-bump, the same formula in both charts, shape (..., 1, 1)."""
    z = coords[..., 0]
    s = 1.0 + _abs2(z)
    bump = np.exp(2.0 * z.real / s - 1.0)
    r = 2.0 / s ** 2 - bump * (_abs2(1.0 - z * z) / s ** 4 - 4.0 * z.real / s ** 3)
    return r[..., None, None].astype(complex)


def r4_ricci(coords):
    """hopf r4: (2/r^4)(r^2 I - zbar z^T), shape (..., 2, 2).

    Each diagonal entry r^2 - |z_i|^2 is the other |z_j|^2, so nothing
    cancels, and R_10 = conj(R_01) keeps the matrix exactly Hermitian.
    """
    z1, z2 = coords[..., 0], coords[..., 1]
    a1, a2 = _abs2(z1), _abs2(z2)
    scale = 2.0 / (a1 + a2) ** 2
    ricci = np.empty(coords.shape[:-1] + (2, 2), dtype=complex)
    ricci[..., 0, 0] = scale * a2
    ricci[..., 1, 1] = scale * a1
    ricci[..., 0, 1] = -scale * (np.conj(z1) * z2)
    ricci[..., 1, 0] = np.conj(ricci[..., 0, 1])
    return ricci


def closed_form_ricci(bundle, volume, chart):
    """The closed-form Ricci evaluator of `volume` in `chart`: the registry's
    where it declares one, else the test reference above."""
    registered = bundle.volumes[volume].exact_ricci.get(chart)
    return registered or {"fs-bump": fs_bump_ricci, "r4": r4_ricci}[volume]


def inversion_jacobian(coords):
    """cp1 chart transition w = 1/z: dw/dz = -1/z^2, shape (..., 1, 1)."""
    return (-1.0 / coords[..., 0] ** 2)[..., None, None]


def doubling_jacobian(coords):
    """hopf deck map z -> 2z: 2 I, shape (..., 2, 2)."""
    return np.broadcast_to(2.0 * np.eye(2), coords.shape[:-1] + (2, 2))
