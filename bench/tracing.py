"""In-memory span tracer for the benchmark's traced run.

The tracer wraps tsmfem's public functions and methods *where they are
looked up* (a name imported into another module is patched there too), so
the program itself carries no instrumentation.  Each call records one span:
name, start, end, parent span and run id.  Spans stay in memory as flat
arrays and are written out once, when the benchmark ends.

A span's self time is its duration minus the durations of its direct
children.  Because every span nests inside its parent, the self times of
all spans under a root add up to the root's duration exactly; per-layer
self times therefore account for the whole traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from array import array

import numpy as np


class Tracer:
    """Records spans around patched callables; ``restore`` undoes every patch."""

    def __init__(self):
        self.labels: list[str] = []  # label id -> "layer.name"
        self._label_ids: dict[str, int] = {}
        self.label = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self._stack: list[int] = [-1]
        self._run_id = -1
        self._undo: list = []

    # -- span recording -----------------------------------------------------

    def _label_id(self, label: str) -> int:
        lid = self._label_ids.get(label)
        if lid is None:
            lid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return lid

    def _open(self, lid: int) -> int:
        idx = len(self.start)
        self.label.append(lid)
        self.parent.append(self._stack[-1])
        self.run.append(self._run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, label: str):
        """Open a root span under a fresh run id."""
        self._run_id += 1
        idx = self._open(self._label_id(label))
        try:
            yield
        finally:
            self._close(idx)

    # -- patching -------------------------------------------------------------

    def _wrap(self, fn, label: str, on_return=None):
        lid = self._label_id(label)
        open_, close = self._open, self._close

        if inspect.isgeneratorfunction(fn):
            # time each resumption of the generator, not its creation
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = open_(lid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(lid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if on_return is not None:
                on_return(out)
            return out

        return wrapper

    def patch(self, owner, attr: str, label: str, on_return=None):
        """Replace ``owner.attr`` (module function, method or classmethod)
        by a span-recording wrapper.  ``on_return`` sees each result after
        its span has closed."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, label, on_return))
        else:
            new = self._wrap(raw, label, on_return)
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def patch_item(self, mapping: dict, key, label: str):
        """Replace ``mapping[key]`` (a dispatch-table entry) by a wrapper."""
        raw = mapping[key]
        mapping[key] = self._wrap(raw, label)
        self._undo.append(lambda: mapping.__setitem__(key, raw))

    def restore(self):
        while self._undo:
            self._undo.pop()()

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as numpy arrays, with durations and self times."""
        label = np.asarray(self.label, dtype=np.int64)
        start = np.asarray(self.start, dtype=float)
        end = np.asarray(self.end, dtype=float)
        parent = np.asarray(self.parent, dtype=np.int64)
        run = np.asarray(self.run, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=len(dur))
        return {"label": label, "start": start, "end": end, "parent": parent,
                "run": run, "dur": dur, "self": dur - child_sum}

    def nesting_violations(self) -> int:
        """Spans that start before or end after their parent span."""
        a = self.arrays()
        child = np.nonzero(a["parent"] >= 0)[0]
        p = a["parent"][child]
        bad = (a["start"][child] < a["start"][p]) | (a["end"][child] > a["end"][p])
        bad |= a["run"][child] != a["run"][p]
        return int(bad.sum())

    def stats(self, run: int | None = None) -> dict[str, dict]:
        """Per label: calls, inclusive seconds and self seconds."""
        a = self.arrays()
        sel = np.ones(len(a["dur"]), bool) if run is None else a["run"] == run
        n = len(self.labels)
        calls = np.bincount(a["label"][sel], minlength=n)
        incl = np.bincount(a["label"][sel], weights=a["dur"][sel], minlength=n)
        self_s = np.bincount(a["label"][sel], weights=a["self"][sel], minlength=n)
        return {lab: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                      "self_s": float(self_s[i])}
                for i, lab in enumerate(self.labels) if calls[i]}

    def layer_self(self, run: int | None = None) -> dict[str, float]:
        """Self seconds summed per layer (the label prefix before the dot)."""
        out: dict[str, float] = {}
        for lab, s in self.stats(run).items():
            layer = lab.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + s["self_s"]
        return out

    def save(self, path):
        a = self.arrays()
        np.savez(path, labels=np.asarray(self.labels), label=a["label"],
                 start=a["start"], end=a["end"], parent=a["parent"], run=a["run"])


def instrument(tracer: Tracer) -> list[dict]:
    """Patch every tsmfem entry point the workloads reach, labelled
    ``<layer>.<name>``.  Returns a list that receives, for each order-0
    run, the size of the exchange stream it produced.

    Layers follow tsmfem's modules, except that the constitutive callbacks
    (``DeterministicKernels`` in ``solver`` and ``FirstOrderKernels`` in
    ``tsm``) form the ``material`` layer.  A name imported into another
    module is patched in that module as well, because callers look it up
    there.
    """
    from tsmfem import cli, config, export, montecarlo, solver, tsm

    def each(modules, name, label, **kw):
        for mod in modules:
            if name in vars(mod):
                tracer.patch(mod, name, label, **kw)

    # config and mesh
    each((config, cli), "load_config", "config.load_config")
    for kind in list(config._GENERATORS):
        tracer.patch_item(config._GENERATORS, kind, f"mesh.generate_{kind}")
    each((cli,), "save_mesh", "mesh.save_mesh")

    # solver
    eq, eng = solver.ElementQuadrature, solver.ExplicitEngine
    tracer.patch(eq, "build", "solver.quad_build")
    tracer.patch(eq, "strains", "solver.strains")
    each((solver,), "lumped_mass", "solver.lumped_mass")
    each((config,), "stable_timestep", "solver.stable_timestep")
    tracer.patch(eng, "__init__", "solver.engine_init")
    tracer.patch(eng, "initial_state", "solver.initial_state")
    tracer.patch(eng, "evaluate", "solver.evaluate")
    tracer.patch(eng, "advance", "solver.advance")
    each((solver, tsm), "run_with_kernels", "solver.run_with_kernels")
    each((solver, tsm, montecarlo, cli), "run_deterministic", "solver.run_deterministic")

    # material: the per-Gauss-point stress and damage callbacks
    tracer.patch(solver.DeterministicKernels, "stress", "material.stress0")
    tracer.patch(solver.DeterministicKernels, "damage", "material.damage0")
    tracer.patch(tsm.FirstOrderKernels, "stress", "material.stress1")
    tracer.patch(tsm.FirstOrderKernels, "damage", "material.damage1")

    # tsm, with the exchange stream
    each((tsm, cli), "run_tsm", "tsm.run_tsm")
    streams: list[dict] = []

    def exchange_size(out):
        source = out[1]
        if isinstance(source, tsm.ExchangeFileReader):
            streams.append({"records": source.n_records, "held_bytes": 0,
                            "file_bytes": os.path.getsize(source.path)})
        else:
            held = sum(r.eps.nbytes + r.d.nbytes for r in source.records)
            streams.append({"records": source.n_records, "held_bytes": held,
                            "file_bytes": 0})

    each((tsm,), "run_order0", "tsm.run_order0", on_return=exchange_size)
    each((tsm,), "run_order1", "tsm.run_order1")
    each((tsm, cli), "uq_summary", "tsm.uq_summary")
    tracer.patch(tsm.ExchangeFileWriter, "write_record", "tsm.exchange_write")
    tracer.patch(tsm.ExchangeFileWriter, "close", "tsm.exchange_seal")
    tracer.patch(tsm.InMemoryExchange, "hook", "tsm.exchange_hold")
    tracer.patch(tsm.ExchangeFileReader, "__init__", "tsm.exchange_verify")
    tracer.patch(tsm.ExchangeFileReader, "__iter__", "tsm.exchange_read")

    # montecarlo
    for name in ("run_mc", "mc_statistics", "compare", "sample_xi",
                 "extract_line", "fd_oracle"):
        each((montecarlo, cli), name, f"montecarlo.{name}")

    # export: every public function defined in the module
    for name, fn in list(vars(export).items()):
        if (inspect.isfunction(fn) and fn.__module__ == export.__name__
                and not name.startswith("_")):
            tracer.patch(export, name, f"export.{name}")

    # cli entry point and its subcommands
    tracer.patch(cli, "main", "cli.main")
    for cmd in list(cli._DISPATCH):
        tracer.patch_item(cli._DISPATCH, cmd, f"cli.{cmd}")
    return streams
