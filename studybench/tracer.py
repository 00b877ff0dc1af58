"""Span recording around calls into the cdrschwarz package.

A :class:`Tracer` replaces named functions and methods of the package with
wrappers that record one span per call: name, start, end and the span that
was open when the call began. Spans stay in memory until the run ends.

Two patch sets exist. The stage set marks the study's stages (the five
``cmd_*`` commands, the reference integration, each coupled run, the end of
its set-up and each coupled window) plus, where the package has them, the
FE and reduced time steps; it is installed for end-to-end timing and cuts a
pass into some 35k short segments at about a microsecond per call. The layer
set adds every per-layer boundary (gathers, subdomain advances, kernels,
fits, file output) and is installed only for the traced run, because its
many small spans cost time.
"""

import os
import time

import numpy as np

#: Span that covers a coupled run from its start to its first window.
SETUP_SPAN = "schwarz.setup"


def stage_patches(pkg):
    """``(owner, attribute, span name)`` for the study's stage boundaries."""
    d = pkg.driver
    return [
        (d, "cmd_compare", "driver.compare"),
        (d, "cmd_run_fom", "driver.run_fom"),
        (d, "integrate", "timestep.integrate"),
        (d, "cmd_run_schwarz", "driver.run_schwarz"),
        (d, "cmd_train", "driver.train"),
        (d, "cmd_run_hybrid", "driver.run_hybrid"),
        (d, "cmd_run_mono_opinf", "driver.run_mono_opinf"),
    ]


#: ``(module, class, method, span name)`` of the layer spans the untraced
#: run records as well, to cut each pass into short segments (see
#: ``run.segment_durations``). A name the package lacks is skipped.
SEGMENT_PATCHES = (
    ("timestep", "ImplicitEulerStepper", "step", "timestep.step"),
    ("rom", "RomStepper", "step", "rom.step"),
)


def layer_patches(pkg):
    """``(owner, attribute, span name)`` for every per-layer boundary.

    Each name is patched where the package looks it up: module-level
    imports in ``driver`` and ``schwarz``, attributes of the ``kernels`` and
    ``matio`` modules, and methods on their classes.
    """
    d, s, k = pkg.driver, pkg.schwarz, pkg.kernels
    base = s._SubdomainSolverBase
    return [
        (s.GatherPlan, "gather", "schwarz.gather"),
        (s.RomSubdomainSolver, "advance_window", "schwarz.rom_advance"),
        (s.FESubdomainSolver, "advance_window", "schwarz.fe_advance"),
        (base, "snapshot_state", "schwarz.restore"),
        (base, "restore_state", "schwarz.restore"),
        (base, "set_interface_values", "schwarz.restore"),
        (s.FESubdomainSolver, "restore_state", "schwarz.restore"),
        (s.FESubdomainSolver, "lift", "schwarz.lift"),
        (s.RomSubdomainSolver, "lift", "schwarz.lift"),
        (s.StitchPlan, "__init__", "schwarz.stitch"),
        (s.StitchPlan, "apply", "schwarz.stitch"),
        (k, "all_finite", "kernels.check"),
        (k, "relative_sup_change", "kernels.check"),
        (k, "csr_matvec", "kernels.csr_matvec"),
        (pkg.timestep.ImplicitEulerStepper, "step", "timestep.step"),
        (pkg.timestep.ImplicitEulerStepper, "__init__", "timestep.factorize"),
        (d, "assemble", "fem.assemble"),
        (s, "assemble", "fem.assemble"),
        (pkg.mesh.StructuredMesh, "interpolation_matrix",
         "mesh.interpolation_matrix"),
        (d, "boundary_values", "fem.boundary_values"),
        (d, "compute_pod", "rom.pod"),
        (d, "train_opinf", "rom.fit"),
        (pkg.rom.RomStepper, "step", "rom.step"),
        (d, "error_metric_detail", "driver.error_metric"),
        (d, "error_metric", "driver.error_metric"),
        (d.ComparisonReport, "to_text", "driver.export"),
        (d.ComparisonReport, "write_csv", "driver.export"),
    ]


#: matio writers, wrapped as ``driver.export`` spans that also count bytes.
MATIO_WRITERS = ("save_matrix", "export_field_csv", "save_meta")


class Tracer:
    """Records a span per call of every name patched by :meth:`install`."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.results = {}
        self.bytes_written = 0
        self.one_sweep_windows = 0
        self._stack = [-1]
        self._setup_open = None
        self._saved = []

    # -- recording -------------------------------------------------------

    def _open(self, name):
        k = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(np.nan)
        self._stack.append(k)
        self.starts.append(time.perf_counter())
        return k

    def _close(self, k):
        self.ends[k] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, keep=False):
        """Wrapper recording a ``name`` span per call.

        With ``keep`` the last result is kept in ``results[name]``.
        """
        def traced(*args, **kwargs):
            k = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(k)
            if keep:
                self.results[name] = result
            return result
        return traced

    def _wrap_run_coupled(self, fn):
        # The set-up span opens with the run and closes at its first window.
        def traced(*args, **kwargs):
            k = self._open("schwarz.run_coupled")
            self._setup_open = self._open(SETUP_SPAN)
            try:
                return fn(*args, **kwargs)
            finally:
                if self._setup_open is not None:
                    self._close(self._setup_open)
                    self._setup_open = None
                self._close(k)
        return traced

    def _wrap_window(self, fn):
        def traced(*args, **kwargs):
            if self._setup_open is not None:
                self._close(self._setup_open)
                self._setup_open = None
            k = self._open("schwarz.window")
            try:
                iterations, converged = fn(*args, **kwargs)
            finally:
                self._close(k)
            if iterations == 1 and converged:
                self.one_sweep_windows += 1
            return iterations, converged
        return traced

    def _wrap_writer(self, fn):
        def traced(path, *args, **kwargs):
            k = self._open("driver.export")
            try:
                return fn(path, *args, **kwargs)
            finally:
                self._close(k)
                self.bytes_written += os.path.getsize(path)
        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, pkg, layers):
        """Patch the stage boundaries, and with ``layers`` every layer."""
        for owner, attr, name in stage_patches(pkg):
            self._patch(owner, attr,
                        self.wrap(name, getattr(owner, attr), keep=True))
        self._patch(pkg.driver, "run_coupled",
                    self._wrap_run_coupled(pkg.driver.run_coupled))
        self._patch(pkg.schwarz, "schwarz_window",
                    self._wrap_window(pkg.schwarz.schwarz_window))
        if not layers:
            for module, cls, attr, name in SEGMENT_PATCHES:
                owner = getattr(getattr(pkg, module), cls, None)
                if owner is not None and attr in owner.__dict__:
                    self._patch(owner, attr,
                                self.wrap(name, owner.__dict__[attr]))
            return
        for owner, attr, name in layer_patches(pkg):
            self._patch(owner, attr, self.wrap(name, owner.__dict__[attr]))
        for attr in MATIO_WRITERS:
            self._patch(pkg.matio, attr,
                        self._wrap_writer(getattr(pkg.matio, attr)))

    def uninstall(self):
        """Put every patched name back, last patch first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def take(self):
        """``(names, starts, ends, parents)`` arrays of the spans recorded
        since the last call, which the tracer then drops.

        Call it between passes, with no span open; parents index into the
        returned arrays, -1 for a root span.
        """
        if len(self._stack) != 1:
            raise RuntimeError("spans are still open")
        spans = (np.array(self.names, dtype=object), np.array(self.starts),
                 np.array(self.ends), np.array(self.parents, dtype=np.int64))
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        return spans


def write_trace(path, passes):
    """Save the spans of every pass, one ``take()`` each, as ``.npz``.

    Parents index the concatenated arrays; pass ``k`` holds spans
    ``pass_start[k]`` up to the next start.
    """
    counts = [len(p[0]) for p in passes]
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    names = np.concatenate([p[0] for p in passes]).astype(str)
    parents = np.concatenate([np.where(p[3] >= 0, p[3] + off, -1)
                              for p, off in zip(passes, offsets)])
    table, ids = np.unique(names, return_inverse=True)
    np.savez_compressed(
        path, name_table=table, name=ids.astype(np.int32),
        start=np.concatenate([p[1] for p in passes]),
        end=np.concatenate([p[2] for p in passes]),
        parent=parents.astype(np.int32), pass_start=offsets)


def self_times(names, starts, ends, parents):
    """Per-name ``(calls, self seconds)`` of a span set.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap, since the program is single-threaded.
    """
    dur = ends - starts
    child = np.zeros_like(dur)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    own = dur - child
    out = {}
    for name in sorted(set(names.tolist())):
        sel = names == name
        out[name] = (int(np.count_nonzero(sel)), float(own[sel].sum()))
    return out
