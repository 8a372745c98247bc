"""Mesh generators, validation, load cases, and the text file round trip."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tsmfem.cli import main
from tsmfem.config import PRESETS, load_config
from tsmfem.mesh import (
    DirichletRamp,
    LoadCase,
    Mesh,
    MeshFormatError,
    generate_double_notch,
    generate_plate_with_hole,
    load_mesh,
    save_mesh,
    validate_load_case,
    validate_mesh,
)
from tsmfem.solver import _Dirichlet


def test_single_cell_no_notch():
    m = generate_double_notch(width=1.0, height=1.0, thickness=1.0,
                              notch_depth=0.0, notch_height=0.0, nx=1, ny=1)
    assert m.n_elements == 1
    assert m.n_nodes == 8


@pytest.mark.parametrize("nx,ny", [(3, 4), (5, 2)])
def test_grid_counts_no_notch(nx, ny):
    m = generate_double_notch(width=1.0, height=1.0, thickness=0.1,
                              notch_depth=0.0, notch_height=0.0, nx=nx, ny=ny)
    assert m.n_elements == nx * ny


def test_double_notch_benchmark_count():
    m = generate_double_notch()
    assert m.n_elements == 646
    assert len(m.element_paths["centerline"]) == 10
    validate_mesh(m)


def test_plate_benchmark_count():
    m = generate_plate_with_hole()
    assert m.n_elements == 594
    assert len(m.element_paths["midline"]) > 0
    validate_mesh(m)


def test_plate_zero_radius_is_solid():
    m = generate_plate_with_hole(width=1.0, height=1.0, thickness=0.1,
                                 hole_radius=0.0, nx=5, ny=4)
    assert m.n_elements == 20
    assert m.node_sets["hole_edge"].size == 0


def test_plate_symmetry_set_covers_x0_plane():
    m = generate_plate_with_hole()
    on_plane = np.nonzero(np.abs(m.nodes[:, 0]) < 1e-12)[0]
    assert set(m.node_sets["symmetry_x"].tolist()) == set(on_plane.tolist())
    assert on_plane.size > 0


def test_generators_deterministic():
    a, b = generate_double_notch(), generate_double_notch()
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.elements, b.elements)
    for k in a.node_sets:
        assert np.array_equal(a.node_sets[k], b.node_sets[k])


def test_notch_overlap_rejected():
    with pytest.raises(ValueError, match="overlap"):
        generate_double_notch(width=0.1, notch_depth=0.05)


def test_hole_too_large_rejected():
    with pytest.raises(ValueError, match="radius"):
        generate_plate_with_hole(width=0.09, height=0.104, hole_radius=0.09)


def test_centerline_is_ordered_and_contiguous():
    m = generate_double_notch()
    path = m.element_paths["centerline"]
    xs = m.element_centroids()[path, 0]
    assert np.all(np.diff(xs) > 0)
    validate_mesh(m)  # includes the face-adjacency contiguity check


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("preset", ["plate_coarse_desk", "double_notch_desk"])
def test_a_preset_mesh_is_validated_once_per_set_up(monkeypatch, preset):
    """A generator's mesh is valid by construction: ``load_config`` does
    not check it, and ``ElementQuadrature.build``, which every run calls,
    checks it once."""
    from tsmfem import mesh as mesh_module
    from tsmfem import solver

    calls = []

    def counted(mesh):
        calls.append(mesh)
        return validate_mesh(mesh)

    for module in (mesh_module, solver):
        monkeypatch.setattr(module, "validate_mesh", counted)
    cfg = load_config(overrides={"problem": {"preset": preset}})
    assert calls == []
    solver.ElementQuadrature.build(cfg.problem.mesh)
    assert len(calls) == 1 and calls[0] is cfg.problem.mesh


def _unit_cube():
    return generate_double_notch(width=1, height=1, thickness=1,
                                 notch_depth=0, notch_height=0, nx=1, ny=1)


def test_out_of_range_element_named():
    m = _unit_cube()
    bad = Mesh(m.nodes, np.array([[0, 1, 2, 3, 4, 5, 6, 9]]))
    with pytest.raises(ValueError, match="element 0"):
        validate_mesh(bad)


def test_negative_jacobian_named():
    m = _unit_cube()
    flipped = m.elements[:, [4, 5, 6, 7, 0, 1, 2, 3]]  # inverted orientation
    with pytest.raises(ValueError, match="element 0"):
        validate_mesh(Mesh(m.nodes, flipped))


def test_duplicate_node_in_set_rejected():
    m = _unit_cube()
    m.node_sets["dup"] = np.array([0, 0, 1])
    with pytest.raises(ValueError, match="dup"):
        validate_mesh(m)


def _bad_node_set(mesh):
    return replace(mesh, node_sets={**mesh.node_sets, "dup": np.array([0, 0, 1])})


def _bad_element_path(mesh):
    far = int(np.argmax(mesh.element_centroids()[:, 0]))
    return replace(mesh, element_paths={**mesh.element_paths, "gap": np.array([0, far])})


@pytest.mark.parametrize("runner", ["run_deterministic", "run_tsm", "run_mc"])
@pytest.mark.parametrize("defect", [_bad_node_set, _bad_element_path])
def test_every_runner_rejects_a_bad_set_or_path_as_validate_mesh_does(defect, runner):
    """The engine no longer validates a mesh it is given a quadrature for;
    ``ElementQuadrature.build`` validates it, once per quadrature.  A node
    set with a duplicate, or an element path with a gap, still fails each
    runner with the ValueError of ``validate_mesh``, before any step."""
    from tsmfem.montecarlo import run_mc
    from tsmfem.solver import ElementQuadrature, run_deterministic
    from tsmfem.tsm import run_tsm

    cfg = load_config(overrides={"problem": {"preset": "plate_coarse_desk"}})
    p = replace(cfg.problem, mesh=defect(cfg.problem.mesh))
    with pytest.raises(ValueError) as want:
        validate_mesh(p.mesh)
    runs = {
        "run_deterministic": lambda: run_deterministic(p.mesh, p.loads, p.params, 0.0,
                                                       cfg.dt, []),
        "run_tsm": lambda: run_tsm(p, cfg.tsm, cfg.dt, []),
        "run_mc": lambda: run_mc(p, [0.0], cfg.dt, []),
    }
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        runs[runner]()
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        ElementQuadrature.build(p.mesh)


# ---------------------------------------------------------------------------
# load cases
# ---------------------------------------------------------------------------


def test_ramp_value_piecewise_linear():
    m = _unit_cube()
    lc = LoadCase(dirichlet=(DirichletRamp("top", 1, 0.01, 0.5),), total_time=1.0)
    ramp = _Dirichlet(m, lc, scale=1.0)
    assert np.array_equal(ramp.dofs, np.sort(3 * m.node_sets["top"] + 1))
    assert ramp.value(0.25) == pytest.approx(0.005)
    assert ramp.value(0.75) == pytest.approx(0.01)  # held after ramp end


@pytest.mark.parametrize("scale", [1.0, 0.0, 1.7])
def test_compiled_ramp_table_is_the_closed_form(scale):
    """``value``, and the rows of ``steps`` and ``acceleration`` for a
    block of times, give, dof by dof, the bits of the numpy closed form
    amp * min(t, t_end) / t_end of each time and of its differences before
    the start, at the start (t = 0), mid-ramp, at a ramp end and past it,
    for zero, positive and negative amplitudes; a zero amplitude keeps its
    sign (scale 0 times a negative amplitude is -0.0).  A zero amplitude's
    step rows are constant, acceleration and velocity +0.0 and the value
    the amplitude; before the start, where steps never begin, they differ
    from the closed form's in the sign of zero."""
    m = _unit_cube()
    lc = LoadCase(dirichlet=(DirichletRamp("bottom", 0, 0.0, 0.5),
                             DirichletRamp("bottom", 1, 0.0, 0.5),
                             DirichletRamp("front", 2, -0.003, 0.5),
                             DirichletRamp("top", 0, 0.002, 0.25),
                             DirichletRamp("top", 1, 0.01, 0.5)), total_time=1.0)
    table = _Dirichlet(m, lc, scale)
    ramp_of = {3 * int(n) + r.axis: (scale * r.amplitude, r.ramp_end)
               for r in lc.dirichlet for n in m.node_sets[r.node_set]}
    dofs = sorted(ramp_of)
    amp = np.array([ramp_of[k][0] for k in dofs])
    t_end = np.array([ramp_of[k][1] for k in dofs])
    assert np.array_equal(table.dofs, dofs)

    def closed(t):
        return amp * np.minimum(t, t_end) / t_end

    def same_bits(a, b):
        return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    zero = amp == 0.0
    assert zero.any() and (scale == 0.0 or not zero.all())
    constant = (np.zeros_like(amp), np.zeros_like(amp), amp)
    times = np.array([-0.1, 0.0, 0.1, 0.25, 0.3, 0.5, 0.7])
    block = {dt: (table.acceleration(times, dt), table.steps(times, dt)) for dt in (1e-3, 0.07)}
    for i, t in enumerate(times.tolist()):
        assert same_bits(table.value(t), closed(t))
        for dt in (1e-3, 0.07):
            accel, velocity, value = block[dt][0][i], block[dt][1][0][i], block[dt][1][1][i]
            want = ((closed(t + dt) - 2.0 * closed(t) + closed(t - dt)) / dt**2,
                    (closed(t + dt) - closed(t)) / dt, closed(t + dt))
            for got, w, c in zip((accel, velocity, value), want, constant):
                assert same_bits(got[~zero], w[~zero])
                assert same_bits(got[zero], c[zero])
                if t >= 0.0:
                    assert same_bits(got, w)
    assert np.array_equal(np.signbit(table.value(0.3)), np.signbit(amp))


def _per_node_table(mesh, loads, scale):
    """The constraint table as a per-node dict builds it: dofs ascending,
    each following the last row of the load table that names it, and the
    rows' ramps, amplitudes scaled."""
    row_of = {}
    for k, r in enumerate(loads.dirichlet):
        for n in mesh.node_sets[r.node_set]:
            row_of[3 * int(n) + r.axis] = k
    items = sorted(row_of.items())
    return (np.asarray([dof for dof, _ in items], dtype=np.int64),
            np.asarray([k for _, k in items], dtype=np.intp),
            [(scale * r.amplitude, r.ramp_end) for r in loads.dirichlet])


@pytest.mark.parametrize("scale", [1.0, 0.0])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_constraint_table_is_the_per_node_construction(preset, scale):
    """On every preset's load case, and on one where later rows name dofs
    of earlier ones (a -0.0 hold over every node's z, two pulls of 'top'
    in x), the dofs, each dof's row and the rows' ramps, the sign of a zero
    amplitude included, are bitwise those of the per-node construction;
    each dof's ramp is that of the last row naming it."""
    cfg = load_config(overrides={"problem": {"preset": preset}})
    mesh, loads = cfg.problem.mesh, cfg.problem.loads
    mesh.node_sets["all"] = np.arange(mesh.n_nodes)
    overlapping = LoadCase(dirichlet=(
        *loads.dirichlet, DirichletRamp("all", 2, -0.0, loads.total_time),
        DirichletRamp("top", 0, 0.003, 0.5 * loads.total_time),
        DirichletRamp("top", 0, -0.002, loads.total_time)), total_time=loads.total_time)
    for lc in (loads, overlapping):
        table = _Dirichlet(mesh, lc, scale)
        dofs, which, ramps = _per_node_table(mesh, lc, scale)
        assert table.dofs.dtype == dofs.dtype and np.array_equal(table.dofs, dofs)
        assert table._which.dtype == which.dtype and np.array_equal(table._which, which)
        assert [tuple(map(float.hex, r)) for r in table._ramps] == \
            [tuple(map(float.hex, r)) for r in ramps]
    # every z follows the -0.0 hold, and the later x pull wins 'top'
    ramp_of = {3 * int(n) + r.axis: (scale * r.amplitude, r.ramp_end)
               for r in overlapping.dirichlet for n in mesh.node_sets[r.node_set]}
    assert [tuple(map(float.hex, table._ramps[k])) for k in table._which] == \
        [tuple(map(float.hex, ramp_of[dof])) for dof in table.dofs.tolist()]


def test_ramp_end_beyond_total_time_rejected():
    with pytest.raises(ValueError):
        LoadCase(dirichlet=(DirichletRamp("top", 1, 0.01, 2.0),), total_time=1.0)


def test_rigid_modes_must_be_blocked():
    m = generate_plate_with_hole()
    good = LoadCase(dirichlet=(
        DirichletRamp("symmetry_x", 0, 0.0, 1.0),
        DirichletRamp("symmetry_y", 1, 0.0, 1.0),
        DirichletRamp("front", 2, 0.0, 1.0),
        DirichletRamp("top", 1, 0.001, 1.0),
    ), total_time=1.0)
    validate_load_case(good, m)

    free_z = LoadCase(dirichlet=(
        DirichletRamp("symmetry_x", 0, 0.0, 1.0),
        DirichletRamp("symmetry_y", 1, 0.0, 1.0),
        DirichletRamp("top", 1, 0.001, 1.0),
    ), total_time=1.0)
    with pytest.raises(ValueError, match="rigid"):
        validate_load_case(free_z, m)


def test_empty_loaded_set_rejected(tmp_path):
    """A mesh file may list a set with no nodes ("top 0"); a load case that
    ramps it would run with no load and all-zero reactions, so it is
    rejected, naming the set."""
    m = _unit_cube()
    m.node_sets["top"] = np.zeros(0, dtype=np.int64)
    save_mesh(m, tmp_path / "empty_top.mesh")
    m = load_mesh(tmp_path / "empty_top.mesh")
    assert m.node_sets["top"].size == 0
    lc = LoadCase(dirichlet=(
        *(DirichletRamp("bottom", axis, 0.0, 1.0) for axis in range(3)),
        DirichletRamp("top", 1, 0.01, 1.0),
    ), total_time=1.0)
    with pytest.raises(ValueError, match="'top' in load case is empty"):
        validate_load_case(lc, m)


def _top_pulled_and_all_held(m):
    m.node_sets["all"] = np.arange(m.n_nodes)
    return LoadCase(dirichlet=(
        *(DirichletRamp("bottom", axis, 0.0, 1.0) for axis in range(3)),
        DirichletRamp("top", 1, 0.01, 1.0),
        DirichletRamp("all", 1, 0.0, 1.0),
    ), total_time=1.0)


def test_conflicting_dirichlet_ramps_rejected():
    """Two ramps on one node and axis would silently resolve to the last
    one (here: no load at all), so a dof with two different ramps is
    rejected; identical repeats are fine."""
    m = _unit_cube()
    with pytest.raises(ValueError, match="prescribed twice with different ramps"):
        validate_load_case(_top_pulled_and_all_held(m), m)
    same = LoadCase(dirichlet=(
        *(DirichletRamp("bottom", axis, 0.0, 1.0) for axis in range(3)),
        DirichletRamp("all", 1, 0.0, 1.0),
    ), total_time=1.0)
    validate_load_case(same, m)


def test_unknown_set_rejected():
    m = _unit_cube()
    lc = LoadCase(dirichlet=(DirichletRamp("nope", 0, 0.0, 1.0),), total_time=1.0)
    with pytest.raises(ValueError, match="nope"):
        validate_load_case(lc, m)


# ---------------------------------------------------------------------------
# file round trip
# ---------------------------------------------------------------------------


def test_round_trip_bit_exact(tmp_path):
    m = generate_double_notch()
    p = tmp_path / "dns.mesh"
    save_mesh(m, p)
    m2 = load_mesh(p)
    assert np.array_equal(m.nodes, m2.nodes)  # bitwise
    assert np.array_equal(m.elements, m2.elements)
    assert set(m.node_sets) == set(m2.node_sets)
    for k in m.node_sets:
        assert np.array_equal(m.node_sets[k], m2.node_sets[k])
    for k in m.element_paths:
        assert np.array_equal(m.element_paths[k], m2.element_paths[k])


def test_save_load_stable(tmp_path):
    m = generate_plate_with_hole()
    p1, p2 = tmp_path / "a.mesh", tmp_path / "b.mesh"
    save_mesh(m, p1)
    save_mesh(load_mesh(p1), p2)
    assert p1.read_text() == p2.read_text()


def test_save_streams_in_bounded_memory(tmp_path):
    """A 38,034-element mesh, a 4.3 MB file, is formatted and written in
    blocks: its traced peak stays under 4 MB (joining every line first
    took 19.4 MB), and the text round-trips."""
    m = generate_plate_with_hole(nx=200, ny=200)
    p = tmp_path / "big.mesh"
    tracemalloc.start()
    try:
        save_mesh(m, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.stat().st_size > 4e6
    assert peak < 4e6, f"traced peak {peak / 1e6:.1f} MB"
    assert np.array_equal(load_mesh(p).nodes, m.nodes)


def test_save_is_atomic(tmp_path):
    """The text goes to ``<path>.tmp`` and is renamed onto ``path`` when
    complete; a save that fails part-way leaves the old file as it was and
    no ``.tmp``."""
    p = tmp_path / "cube.mesh"
    save_mesh(_unit_cube(), p)
    before = p.read_bytes()
    bad = _unit_cube()
    bad.node_sets["broken"] = ["not an id"]
    with pytest.raises(ValueError):
        save_mesh(bad, p)
    assert p.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["cube.mesh"]


def test_single_cube_file(tmp_path):
    p = tmp_path / "cube.mesh"
    save_mesh(_unit_cube(), p)
    m = load_mesh(p)
    assert m.n_nodes == 8
    assert m.n_elements == 1


def test_load_rejects_out_of_range_element(tmp_path):
    m = _unit_cube()
    bad = Mesh(m.nodes, m.elements.copy())
    bad.elements[0, 7] = 9
    p = tmp_path / "bad.mesh"
    save_mesh(bad, p)
    with pytest.raises(ValueError, match="element 0"):
        load_mesh(p)


def test_load_rejects_an_element_that_repeats_a_node(tmp_path):
    """A collapsed hexahedron (node 6 listed twice) keeps positive
    Jacobians at the Gauss points, so only the repeat check catches it."""
    m = generate_double_notch(width=2, height=1, thickness=1,
                              notch_depth=0, notch_height=0, nx=2, ny=1)
    m.elements[1, 6] = m.elements[1, 7]
    p = tmp_path / "collapsed.mesh"
    save_mesh(m, p)
    with pytest.raises(ValueError, match="element 1 repeats a node"):
        load_mesh(p)


def test_load_rejects_malformed_records(tmp_path):
    p = tmp_path / "junk.mesh"
    p.write_text("# tsmfem mesh 1\nNODES 2\n0 0 0\n1 0\n")
    with pytest.raises(MeshFormatError, match="line 4"):
        load_mesh(p)


def _run_det_exit_code(tmp_path, mesh_path) -> int:
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"problem: {{mesh_file: '{mesh_path}'}}\n")
    return main(["run-det", "--config", str(cfg), "--out", str(tmp_path / "out")])


def _saved_cube_lines(tmp_path):
    cube = generate_double_notch(width=1.0, height=1.0, thickness=1.0,
                                 notch_depth=0.0, notch_height=0.0, nx=1, ny=1)
    save_mesh(cube, tmp_path / "cube.mesh")
    return (tmp_path / "cube.mesh").read_text().splitlines()


@pytest.mark.parametrize("field", [1, 2], ids=["count", "id"])
@pytest.mark.parametrize("section", ["SETS", "ELEMENT_PATHS"])
def test_load_names_the_line_of_a_non_integer_set_row(tmp_path, section, field):
    """A set or path row whose count or id is not an integer is a format
    error naming its line, not a bare ValueError."""
    lines = _saved_cube_lines(tmp_path)
    row = next(i for i, ln in enumerate(lines) if ln.startswith(section)) + 1
    parts = lines[row].split()
    parts[field] = "x" + parts[field]
    lines[row] = " ".join(parts)
    (tmp_path / "bad.mesh").write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshFormatError, match=f"line {row + 1}: bad"):
        load_mesh(tmp_path / "bad.mesh")
    assert _run_det_exit_code(tmp_path, tmp_path / "bad.mesh") == 3


@pytest.mark.parametrize("section", ["NODES", "ELEMENTS", "SETS", "ELEMENT_PATHS"])
def test_load_rejects_a_negative_section_count(tmp_path, section):
    """A negative section count is a format error naming its line, not a
    numpy error or an empty section."""
    lines = _saved_cube_lines(tmp_path)
    row = next(i for i, ln in enumerate(lines) if ln.split()[0] == section)
    lines[row] = f"{section} -25"
    (tmp_path / "bad.mesh").write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshFormatError, match=f"line {row + 1}: negative count in {section}"):
        load_mesh(tmp_path / "bad.mesh")
    assert _run_det_exit_code(tmp_path, tmp_path / "bad.mesh") == 3


def test_load_rejects_wrong_magic(tmp_path):
    p = tmp_path / "junk.mesh"
    p.write_text("NODES 0\nELEMENTS 0\nSETS 0\n")
    with pytest.raises(MeshFormatError, match="header"):
        load_mesh(p)
