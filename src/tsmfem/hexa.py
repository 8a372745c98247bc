"""Reference trilinear hexahedron: shape functions and 2x2x2 Gauss rule.

Node ordering follows the VTK hexahedron convention: bottom face
counter-clockwise (-,-,-), (+,-,-), (+,+,-), (-,+,-), then the top face
in the same x/y order.
"""

from __future__ import annotations

import numpy as np

# reference corner coordinates, shape (8, 3)
CORNERS = np.array(
    [
        [-1.0, -1.0, -1.0],
        [1.0, -1.0, -1.0],
        [1.0, 1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
        [1.0, -1.0, 1.0],
        [1.0, 1.0, 1.0],
        [-1.0, 1.0, 1.0],
    ]
)

_g = 1.0 / np.sqrt(3.0)
GAUSS_POINTS = CORNERS * _g  # tensor 2x2x2 rule, shape (8, 3)
GAUSS_WEIGHTS = np.ones(8)


def shape_functions(points: np.ndarray) -> np.ndarray:
    """N_a at reference points; shape (npts, 8)."""
    p = np.atleast_2d(points)
    return (
        (1.0 + p[:, None, 0] * CORNERS[None, :, 0])
        * (1.0 + p[:, None, 1] * CORNERS[None, :, 1])
        * (1.0 + p[:, None, 2] * CORNERS[None, :, 2])
        / 8.0
    )


def shape_gradients(points: np.ndarray) -> np.ndarray:
    """dN_a/dxi_k at reference points; shape (npts, 8, 3)."""
    p = np.atleast_2d(points)
    fx = 1.0 + p[:, None, 0] * CORNERS[None, :, 0]
    fy = 1.0 + p[:, None, 1] * CORNERS[None, :, 1]
    fz = 1.0 + p[:, None, 2] * CORNERS[None, :, 2]
    g = np.empty((p.shape[0], 8, 3))
    g[:, :, 0] = CORNERS[None, :, 0] * fy * fz / 8.0
    g[:, :, 1] = CORNERS[None, :, 1] * fx * fz / 8.0
    g[:, :, 2] = CORNERS[None, :, 2] * fx * fy / 8.0
    return g


# evaluated once at the Gauss points: (8 gp, 8 nodes) and (8 gp, 8 nodes, 3)
N_AT_GP = shape_functions(GAUSS_POINTS)
DN_AT_GP = shape_gradients(GAUSS_POINTS)


def jacobians(coords: np.ndarray) -> np.ndarray:
    """Jacobians J[e, g, k, j] = dx_j/dxi_k at the 8 Gauss points of each
    element, from (nelem, 8, 3) nodal coordinates; shape (nelem, 8, 3, 3).

    The chain rule then reads dN/dx = inv(J) @ dN/dxi, i.e. for a row of
    reference gradients dN/dxi, dN/dx = dN/dxi @ inv(J).T.
    """
    return np.einsum("gak,eaj->egkj", DN_AT_GP, coords)
