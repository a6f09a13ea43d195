import dataclasses
import math

import numpy as np
import pytest

from holoinv import IntegrationDomain, QuadratureSpec, registry_get


@pytest.fixture(scope="session")
def cp1():
    return registry_get("cp1")


@pytest.fixture(scope="session")
def cp1_two_discs(cp1):
    """cp1 integrated over two pieces: the closed unit disc |z| <= 1 of each
    chart in polar coordinates (r, theta), one domain object for both, at
    15 x 16 nodes per disc and two levels. The registered cp1 has one piece,
    so this is what keeps the routes' cross-piece work tested: the pieces
    that share a domain share one node set, one chart map and one density
    call with a row per piece, and the evaluators two charts share run once."""
    def chart_map(pts):
        return (pts[..., 0] * np.exp(1j * pts[..., 1]))[..., None]

    disc = IntegrationDomain(
        box=((0.0, 1.0), (0.0, 2.0 * math.pi)),
        chart_map=chart_map,
        measure_map=lambda pts: pts[..., 0],
        rules=("gauss", "periodic"),
    )
    manifold = dataclasses.replace(cp1.manifold,
                                   fundamental_domain={"affine": disc, "affine-inf": disc})
    return dataclasses.replace(cp1, manifold=manifold,
                               default_quadrature=QuadratureSpec((15, 16), 2))


@pytest.fixture(scope="session")
def hopf():
    return registry_get("hopf")


@pytest.fixture(scope="session")
def hopf_blowup():
    return registry_get("hopf-blowup")
