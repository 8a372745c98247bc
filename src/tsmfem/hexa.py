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


# each node's shape-function factors 1 + xi_k * corner_k, k = x, y, z, at
# each Gauss point: (8 gp, 8 nodes) each
_FX, _FY, _FZ = 1.0 + GAUSS_POINTS.T[:, :, None] * CORNERS.T[:, None, :]
# N_a and dN_a/dxi_k at the Gauss points: (8 gp, 8 nodes) and (8 gp, 8 nodes, 3)
N_AT_GP = _FX * _FY * _FZ / 8.0
DN_AT_GP = np.stack([CORNERS[:, 0] * _FY * _FZ, CORNERS[:, 1] * _FX * _FZ,
                     CORNERS[:, 2] * _FX * _FY], axis=2) / 8.0


def jacobians(coords: np.ndarray) -> np.ndarray:
    """Jacobians J[e, g, k, j] = dx_j/dxi_k at the 8 Gauss points of each
    element, from (nelem, 8, 3) nodal coordinates; shape (nelem, 8, 3, 3).

    The chain rule then reads dN/dx = inv(J) @ dN/dxi, i.e. for a row of
    reference gradients dN/dxi, dN/dx = dN/dxi @ inv(J).T.
    """
    return np.einsum("gak,eaj->egkj", DN_AT_GP, coords)
