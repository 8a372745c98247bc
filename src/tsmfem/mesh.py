"""Hexahedral meshes, node sets, load cases, the two benchmark geometry
generators, and a plain-text mesh file format.

Benchmark note: the exact specimen dimensions of the benchmark family are
not available in machine-readable form, so the generator defaults are
representative stand-ins; benchmark fidelity is anchored on the canonical
element counts (646 for the double notch, 594 for the quarter plate with
hole) and on the stable-time-step scale, which the defaults reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hexa


class MeshFormatError(Exception):
    """Malformed or inconsistent mesh file."""


@dataclass
class Mesh:
    """Nodes, trilinear hex connectivity, named node sets, and named ordered
    element paths used for line extraction."""

    nodes: np.ndarray  # (n_nodes, 3) float64, meters
    elements: np.ndarray  # (n_elements, 8) int64
    node_sets: dict[str, np.ndarray] = field(default_factory=dict)
    element_paths: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def element_coords(self) -> np.ndarray:
        """(n_elements, 8, 3) nodal coordinates gathered per element."""
        return self.nodes[self.elements]

    def element_centroids(self) -> np.ndarray:
        return self.element_coords().mean(axis=1)


def validate_mesh(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Check, in this order, array shapes and that every element's nodes
    lie within the mesh, positive Jacobian determinants at the Gauss
    points, node sets of distinct existing nodes, element paths of existing
    elements whose consecutive pairs share a face, and that no element
    repeats a node; returns the Jacobians J (n_elements, 8, 3, 3) at the
    Gauss points and their determinants detJ (n_elements, 8).

    Raises ValueError naming the first offending element or set.  A
    collapsed hexahedron can keep positive Jacobians at the Gauss points,
    hence the last check.
    """
    n = mesh.n_nodes
    if mesh.nodes.ndim != 2 or mesh.nodes.shape[1] != 3:
        raise ValueError("nodes must be an (n, 3) array")
    if mesh.elements.ndim != 2 or mesh.elements.shape[1] != 8:
        raise ValueError("elements must be an (m, 8) array")
    bad = np.nonzero((mesh.elements < 0) | (mesh.elements >= n))[0]
    if bad.size:
        e = int(bad[0])
        raise ValueError(
            f"element {e} references node {int(mesh.elements[e].max())} "
            f"but the mesh has {n} nodes"
        )
    J = hexa.jacobians(mesh.element_coords())
    detJ = np.linalg.det(J)
    nonpos = np.nonzero((detJ <= 0.0).any(axis=1))[0]
    if nonpos.size:
        raise ValueError(f"element {int(nonpos[0])} has non-positive Jacobian")
    for name, ids in mesh.node_sets.items():
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise ValueError(f"node set '{name}' references nonexistent nodes")
        if np.unique(ids).size != ids.size:
            raise ValueError(f"node set '{name}' contains duplicate nodes")
    for name, ids in mesh.element_paths.items():
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= mesh.n_elements):
            raise ValueError(f"element path '{name}' references nonexistent elements")
        # contiguity: consecutive path elements share a face (4 common nodes)
        for a, b in zip(ids[:-1], ids[1:]):
            shared = np.intersect1d(mesh.elements[a], mesh.elements[b]).size
            if shared < 4:
                raise ValueError(f"element path '{name}' is not contiguous at {int(a)}->{int(b)}")
    repeats = np.nonzero((np.diff(np.sort(mesh.elements, axis=1), axis=1) == 0)
                         .any(axis=1))[0]
    if repeats.size:
        raise ValueError(f"element {int(repeats[0])} repeats a node")
    return J, detJ


@dataclass(frozen=True)
class DirichletRamp:
    """Prescribed displacement on one axis of a node set: linear ramp to
    ``amplitude`` at ``ramp_end``, held constant afterwards."""

    node_set: str
    axis: int  # 0, 1, 2
    amplitude: float  # m
    ramp_end: float  # s


@dataclass(frozen=True)
class LoadCase:
    dirichlet: tuple[DirichletRamp, ...]
    total_time: float
    body_force: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "dirichlet", tuple(self.dirichlet))
        if not 0.0 < self.total_time < np.inf:
            raise ValueError(f"total_time must be finite and positive, got {self.total_time}")
        values = [*self.body_force, *(d.amplitude for d in self.dirichlet)]
        if len(self.body_force) != 3 or not np.isfinite(values).all():
            raise ValueError("body_force must be 3 finite numbers, and ramp amplitudes finite")
        for d in self.dirichlet:
            if not 0.0 < d.ramp_end <= self.total_time:
                raise ValueError(
                    f"ramp end {d.ramp_end} outside (0, total_time={self.total_time}]"
                )
            if d.axis not in (0, 1, 2):
                raise ValueError(f"axis must be 0, 1 or 2, got {d.axis}")


def constrained_dofs(load: LoadCase, mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Which ramp owns each constrained dof: the flat dofs 3 * node + axis
    of ``load``'s Dirichlet rows, ascending, and for each the index in
    ``load.dirichlet`` of the last row that names it."""
    named = [3 * np.asarray(mesh.node_sets[d.node_set], dtype=np.int64) + d.axis
             for d in load.dirichlet]
    rows = np.repeat(np.arange(len(named)), [a.size for a in named])[::-1]
    # the first of each dof in the reversed rows is its last row
    dofs, last = np.unique(np.concatenate(named)[::-1], return_index=True)
    return dofs, rows[last]


def validate_load_case(load: LoadCase, mesh: Mesh) -> None:
    """Check set references, that no constrained set is empty, that no dof
    gets two different ramps, and that the constraints block all six
    rigid-body modes (the intent of requiring a fixed support)."""
    for d in load.dirichlet:
        if d.node_set not in mesh.node_sets:
            raise ValueError(f"unknown node set '{d.node_set}' in load case")
        if len(mesh.node_sets[d.node_set]) == 0:
            raise ValueError(f"node set '{d.node_set}' in load case is empty")
    if not load.dirichlet:
        raise ValueError("load case constrains no degrees of freedom")
    constrained, owner = constrained_dofs(load, mesh)
    ramp = np.array([(d.amplitude, d.ramp_end) for d in load.dirichlet])
    for k, d in enumerate(load.dirichlet):
        ids = np.asarray(mesh.node_sets[d.node_set], dtype=np.int64)
        own = owner[np.searchsorted(constrained, 3 * ids + d.axis)]
        clash = np.nonzero((ramp[own] != ramp[k]).any(axis=1))[0]
        if clash.size:
            i, other = clash[0], load.dirichlet[own[clash[0]]].node_set
            raise ValueError(f"node {ids[i]} axis {d.axis} is prescribed twice with different "
                             f"ramps (sets '{d.node_set}' and '{other}')")
    # rigid-body modes at the constrained dofs: 3 translations, 3 rotations e_k x position
    node, axis = np.divmod(constrained, 3)
    j = np.arange(constrained.size)
    R = np.zeros((6, constrained.size))
    R[axis, j] = 1.0
    R[3 + (axis + 1) % 3, j] = mesh.nodes[node, (axis + 2) % 3]
    R[3 + (axis + 2) % 3, j] = -mesh.nodes[node, (axis + 1) % 3]
    scale = max(1.0, float(np.abs(mesh.nodes).max()))
    if np.linalg.matrix_rank(R, tol=1e-9 * scale) < 6:
        raise ValueError("constraints leave a rigid-body mode unconstrained")


# ---------------------------------------------------------------------------
# structured generation
# ---------------------------------------------------------------------------


def _structured_box(nx: int, ny: int, nz: int, width: float, height: float, thickness: float):
    """Structured grid nodes and hex connectivity over [0,W]x[0,H]x[0,T].

    Nodes are numbered x-fastest, then y, then z; cells likewise.
    """
    if min(nx, ny, nz) < 1:
        raise ValueError("resolution must be at least 1 in every direction")
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    zs = np.linspace(0.0, thickness, nz + 1)
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    # node id = ix + (nx+1)*(iy + (ny+1)*iz)
    nodes = np.stack(
        [X.transpose(2, 1, 0).ravel(), Y.transpose(2, 1, 0).ravel(), Z.transpose(2, 1, 0).ravel()],
        axis=1,
    )

    # cell (ix, iy, iz) starts at node id(ix, iy, iz); its 8 corners are
    # fixed offsets from there, bottom face then top face, counter-clockwise
    iz, iy, ix = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij")
    first = (ix + (nx + 1) * (iy + (ny + 1) * iz)).ravel()
    dy, dz = nx + 1, (nx + 1) * (ny + 1)
    corners = np.array([0, 1, 1 + dy, dy, dz, dz + 1, dz + 1 + dy, dz + dy])
    return nodes, (first[:, None] + corners).astype(np.int64)


def _slab(width, height, thickness, nx, ny, cut, faces, edge=None) -> Mesh:
    """The structured grid over [0,W]x[0,H]x[0,T], one element thick,
    without the cells whose centroid coordinates (x, y) ``cut`` selects;
    the rest keep their grid order, their nodes renumbered ascending from
    0.  Node sets, in this order: one per ``faces`` entry (name, axis,
    value), the nodes within 0.25 * min(W/nx, H/ny) of the plane
    x[axis] = value; then, named ``edge`` if given, the nodes shared by a
    cut and a kept cell, ascending."""
    nodes, cells = _structured_box(nx, ny, 1, width, height, thickness)
    cent = nodes[cells].mean(axis=1)
    dropped = cut(cent[:, 0], cent[:, 1])
    kept = cells[~dropped]
    used = np.unique(kept)
    remap = -np.ones(nodes.shape[0], dtype=np.int64)
    remap[used] = np.arange(used.size)
    mesh = Mesh(nodes[used], remap[kept])
    tol = 0.25 * min(width / nx, height / ny)
    for name, axis, value in faces:
        near = np.abs(mesh.nodes[:, axis] - value) < tol
        mesh.node_sets[name] = np.nonzero(near)[0].astype(np.int64)
    if edge is not None:
        mesh.node_sets[edge] = remap[np.intersect1d(cells[dropped], kept)]
    return mesh


def _row_path(mesh: Mesh, height: float, ny: int, row: int) -> np.ndarray:
    """The elements of grid row ``row`` (0 at y = 0), by ascending x."""
    cent = mesh.element_centroids()
    rows = np.round((cent[:, 1] - 0.5 * height / ny) / (height / ny)).astype(int)
    on_row = np.nonzero(rows == row)[0]
    return on_row[np.argsort(cent[on_row, 0])]


def generate_double_notch(
    width: float = 0.112,
    height: float = 0.100,
    thickness: float = 0.004,
    notch_depth: float = 0.036,
    notch_height: float = 0.012,
    nx: int = 28,
    ny: int = 25,
) -> Mesh:
    """Double-notched specimen: structured grid, one element through the
    thickness, rectangular notches cut from the left and right edges at
    mid-height.  Defaults give 646 elements.

    Sets: "top" (loaded), "bottom" (fixed), "front" (z=0 face);
    path "centerline" runs along the ligament between the notch tips.
    """
    if min(width, height, thickness) <= 0.0:
        raise ValueError("specimen dimensions must be positive")
    if notch_depth < 0.0 or notch_height < 0.0:
        raise ValueError("notch dimensions must be nonnegative")
    if 2.0 * notch_depth >= width:
        raise ValueError(
            f"notches overlap: 2*notch_depth={2 * notch_depth} >= width={width}"
        )
    if notch_height >= height:
        raise ValueError("notch height must be smaller than the specimen height")

    def in_notch(x, y):
        in_band = np.abs(y - 0.5 * height) < 0.5 * notch_height
        return in_band & ((x < notch_depth) | (x > width - notch_depth))

    mesh = _slab(width, height, thickness, nx, ny, in_notch,
                 [("top", 1, height), ("bottom", 1, 0.0), ("front", 2, 0.0)])
    mid_row = int(np.round(0.5 * height / (height / ny) - 0.5))
    mesh.element_paths["centerline"] = _row_path(mesh, height, ny, mid_row)
    return mesh


def generate_plate_with_hole(
    width: float = 0.096,
    height: float = 0.104,
    thickness: float = 0.004,
    hole_radius: float = 0.025,
    nx: int = 24,
    ny: int = 26,
) -> Mesh:
    """Quarter of a plate with a central hole (symmetry at x=0 and y=0),
    one element through the thickness; cells whose centroid lies inside the
    hole radius are removed.  Defaults give 594 elements.

    Sets: "top" (loaded), "symmetry_x" (x=0), "symmetry_y" (y=0),
    "front" (z=0 face), "hole_edge" (staircase boundary of the cut-out);
    path "midline" runs from the hole edge to the outer edge along y~0.
    """
    if min(width, height, thickness) <= 0.0:
        raise ValueError("plate dimensions must be positive")
    if hole_radius < 0.0:
        raise ValueError("hole radius must be nonnegative")
    if hole_radius >= min(width, height):
        raise ValueError(
            f"hole radius {hole_radius} must be smaller than the quarter dimensions"
        )

    mesh = _slab(width, height, thickness, nx, ny,
                 lambda x, y: x**2 + y**2 < hole_radius**2,
                 [("top", 1, height), ("symmetry_x", 0, 0.0), ("symmetry_y", 1, 0.0),
                  ("front", 2, 0.0)], edge="hole_edge")
    mesh.element_paths["midline"] = _row_path(mesh, height, ny, 0)
    return mesh


# ---------------------------------------------------------------------------
# plain-text mesh file: sections NODES / ELEMENTS / SETS / ELEMENT_PATHS
# ---------------------------------------------------------------------------

_MAGIC = "# tsmfem mesh 1"
_BLOCK_ROWS = 1024  # records formatted and written at a time


def save_mesh(mesh: Mesh, path) -> None:
    """Write the mesh as diffable plain text (floats via repr: the
    round trip reproduces coordinates bit-exactly), streamed through
    ``export.atomic_write`` ``_BLOCK_ROWS`` nodes, elements or set ids at
    a time, so memory does not grow with the mesh."""
    from .export import atomic_write  # export imports this module

    def blocks(a):
        return (a[lo:lo + _BLOCK_ROWS].tolist() for lo in range(0, len(a), _BLOCK_ROWS))

    with atomic_write(path) as fh:
        fh.write(f"{_MAGIC}\nNODES {mesh.n_nodes}\n")
        for rows in blocks(np.asarray(mesh.nodes, dtype=float)):
            fh.write("".join(["%r %r %r\n" % tuple(p) for p in rows]))
        fh.write(f"ELEMENTS {mesh.n_elements}\n")
        for rows in blocks(np.asarray(mesh.elements, dtype=np.int64)):
            fh.write("".join([" ".join(map(str, e)) + "\n" for e in rows]))
        for keyword, named in (("SETS", mesh.node_sets), ("ELEMENT_PATHS", mesh.element_paths)):
            fh.write(f"{keyword} {len(named)}\n")
            for name, ids in named.items():
                ids = np.asarray(ids, dtype=np.int64)
                text = (" ".join(map(str, b)) for b in blocks(ids))
                fh.write(f"{name} {ids.size} " + next(text, ""))
                for more in text:
                    fh.write(" " + more)
                fh.write("\n")


def _ints(tokens, lineno, what) -> list[int]:
    try:
        return [int(v) for v in tokens]
    except ValueError as exc:
        raise MeshFormatError(f"line {lineno}: bad {what}") from exc


def _expect_header(tokens, keyword, lineno):
    if len(tokens) != 2 or tokens[0] != keyword:
        raise MeshFormatError(f"line {lineno}: expected '{keyword} <count>'")
    (count,) = _ints(tokens[1:], lineno, f"count in {keyword} header")
    if count < 0:
        raise MeshFormatError(f"line {lineno}: negative count in {keyword} header")
    return count


def load_mesh(path) -> Mesh:
    """Read a mesh file, validating structure and geometry."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw) if ln.strip()]
    if not lines or lines[0][1] != _MAGIC:
        raise MeshFormatError(f"not a mesh file (missing '{_MAGIC}' header)")
    pos = 1

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise MeshFormatError("unexpected end of file")
        item = lines[pos]
        pos += 1
        return item

    records = []
    for keyword, kind, width, parse, dtype, what in (
            ("NODES", "node", 3, float, np.float64, "coordinate"),
            ("ELEMENTS", "element", 8, int, np.int64, "node id")):
        lineno, header = take()
        rows = np.empty((_expect_header(header.split(), keyword, lineno), width), dtype=dtype)
        for i in range(rows.shape[0]):
            lineno, ln = take()
            parts = ln.split()
            if len(parts) != width:
                raise MeshFormatError(f"line {lineno}: {kind} record needs {width} {what}s")
            try:
                rows[i] = [parse(v) for v in parts]
            except ValueError as exc:
                raise MeshFormatError(f"line {lineno}: bad {what}") from exc
        records.append(rows)
    nodes, elements = records

    def read_named(keyword):
        lineno, header = take()
        count = _expect_header(header.split(), keyword, lineno)
        out = {}
        for _ in range(count):
            lineno, ln = take()
            parts = ln.split()
            if len(parts) < 2:
                raise MeshFormatError(f"line {lineno}: expected '<name> <count> ids...'")
            name, (n,) = parts[0], _ints(parts[1:2], lineno, f"count of '{parts[0]}'")
            if len(parts) != 2 + n:
                raise MeshFormatError(f"line {lineno}: '{name}' lists {len(parts) - 2} ids, "
                                      f"header says {n}")
            out[name] = np.asarray(_ints(parts[2:], lineno, f"id in '{name}'"), dtype=np.int64)
        return out

    node_sets = read_named("SETS")
    element_paths = read_named("ELEMENT_PATHS") if pos < len(lines) else {}

    mesh = Mesh(nodes, elements, node_sets, element_paths)
    validate_mesh(mesh)
    return mesh
