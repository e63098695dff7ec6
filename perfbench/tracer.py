"""Span tracing from outside the library.

The tracer replaces public functions of cheblat's modules (and the
``scipy.fft`` entry points they call) with timing wrappers, in the
benchmark's own process only.  A function is wrapped in every namespace
that binds it: ``calculus`` imports ``forward`` and ``adjoint`` by name and
``transform`` imports the ``dct`` functions by name, so those bindings are
wrapped too.  Nothing under ``src/`` changes.

A span records its name, start, end, parent span, the op it ran in (-1
during setup), the workload's size tag, and the lattice it worked on.
Spans stay in memory until the run ends.

``lattice.build`` and ``calculus.evaluate`` are leaf spans whose peak
memory is measured with ``tracemalloc``.  Because ``tracemalloc`` slows
allocation-heavy Python several-fold, only the first call per lattice
(and, for ``evaluate``, per point count) inside an op is measured, and
the op holding such a call is left out of every time aggregate.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
import weakref
from array import array

import numpy as np

TAGS = ("", "small", "large")

# (module name, attribute, span name).  Module names are attributes of the
# ``modules`` mapping passed to ``Tracer.install``.
TARGETS = [
    ("lattice", "build", "lattice.build"),
    ("lattice", "lattice_descriptor", "lattice.lattice_descriptor"),
    ("lattice", "efficiency", "lattice.efficiency"),
    ("lattice", "boundary_efficiency", "lattice.boundary_efficiency"),
    ("lattice", "decompose", "lattice.decompose"),
    ("transform", "plan", "transform.plan"),
    ("transform", "forward", "transform.forward"),
    ("transform", "inverse", "transform.inverse"),
    ("transform", "adjoint", "transform.adjoint"),
    ("transform", "forward_padua", "transform.forward_padua"),
    ("transform", "dense_oracle", "transform.dense_oracle"),
    ("transform", "samples_from_csv", "transform.samples_from_csv"),
    ("transform", "coefficients_from_csv", "transform.coefficients_from_csv"),
    ("transform", "coefficients_to_csv", "transform.coefficients_to_csv"),
    ("transform", "dct_nd", "dct.dct_nd"),
    ("transform", "idct_nd", "dct.idct_nd"),
    ("transform", "adjoint_dct_nd", "dct.adjoint_dct_nd"),
    ("transform", "dct_axis", "dct.dct_axis"),
    ("dct", "dct_nd", "dct.dct_nd"),
    ("dct", "idct_nd", "dct.idct_nd"),
    ("dct", "adjoint_dct_nd", "dct.adjoint_dct_nd"),
    ("dct", "dct_axis", "dct.dct_axis"),
    ("dct", "idct_axis", "dct.idct_axis"),
    ("dct", "adjoint_dct_axis", "dct.adjoint_dct_axis"),
    ("scipy.fft", "dctn", "scipy.fft.dctn"),
    ("scipy.fft", "dct", "scipy.fft.dct"),
    ("scipy.fft", "fft", "scipy.fft.fft"),
    ("scipy.fft", "ifft", "scipy.fft.ifft"),
    ("calculus", "forward", "transform.forward"),
    ("calculus", "adjoint", "transform.adjoint"),
    ("calculus", "make_plan", "transform.plan"),
    ("calculus", "evaluate", "calculus.evaluate"),
    ("calculus", "differentiate", "calculus.differentiate"),
    ("calculus", "quadrature_stencil", "calculus.quadrature_stencil"),
    ("calculus", "basis_integrals", "calculus.basis_integrals"),
    ("calculus", "integrate", "calculus.integrate"),
    ("calculus", "stencil_to_csv", "calculus.stencil_to_csv"),
    ("calculus", "gauss_legendre", "calculus.gauss_legendre"),
    ("bench", "run_interp_convergence", "bench.run_interp_convergence"),
    ("bench", "run_quad_convergence", "bench.run_quad_convergence"),
    ("bench", "reference_integral", "bench.reference_integral"),
    ("bench", "records_to_csv", "bench.records_to_csv"),
    ("cli", "main", "cli.main"),
]

# Layer metrics: group name -> span names it sums.  "dct" is the
# sublattice DCT stage: every cheblat.dct and scipy.fft span.
GROUPS = {
    "lattice.build": ("lattice.build",),
    "transform.plan": ("transform.plan",),
    "dct": tuple(sorted({s for _, _, s in TARGETS if s.startswith(("dct.", "scipy.fft."))})),
    "transform.forward": ("transform.forward",),
    "transform.inverse": ("transform.inverse",),
    "transform.adjoint": ("transform.adjoint",),
    "transform.forward_padua": ("transform.forward_padua",),
    "calculus.evaluate": ("calculus.evaluate",),
    "calculus.differentiate": ("calculus.differentiate",),
    "calculus.quadrature_stencil": ("calculus.quadrature_stencil",),
    "calculus.basis_integrals": ("calculus.basis_integrals",),
    "bench.reference_integral": ("bench.reference_integral",),
    "transform.csv": (
        "transform.samples_from_csv",
        "transform.coefficients_from_csv",
        "transform.coefficients_to_csv",
        "calculus.stencil_to_csv",
    ),
    "cli.main": ("cli.main",),
}
SPLIT_GROUPS = ("dct", "transform.forward", "transform.inverse", "transform.adjoint",
                "transform.forward_padua")
SETUP_GROUPS = ("lattice.build", "transform.plan")
MEMORY_SPANS = ("lattice.build", "calculus.evaluate")


def lattice_label(family, dim, resolution) -> str:
    family = getattr(family, "value", family)
    if family == "cartesian":
        return f"cartesian {dim}d r={resolution}"
    return f"{family} r={resolution}"


class Tracer:
    """Records spans of wrapped functions; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.labels: list[str] = [""]
        self._label_ids: dict[str, int] = {"": 0}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("b")
        self.label = array("i")
        self.count = array("d")  # points built or evaluated, else 0
        self.bytes = array("d")  # computed bytes (evaluate), else 0
        self.peak_mb = array("d")  # tracemalloc peak, -1 when not measured
        self.error = array("b")
        self.op_id = -1
        self.tag_id = 0
        self.probe_ops: set[int] = set()
        self._probed: set = set()
        self._stack: list[int] = []
        self._saved: list = []
        self._lattice_info = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------ control

    def set_tag(self, tag: str) -> None:
        self.tag_id = TAGS.index(tag)

    def install(self, modules: dict) -> None:
        """Replace every target attribute with a timing wrapper."""
        for mod_name, attr, span in TARGETS:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # ------------------------------------------------------------ wrapping

    def _id(self, table: dict, items: list, key: str) -> int:
        i = table.get(key)
        if i is None:
            i = table[key] = len(items)
            items.append(key)
        return i

    def _lattice(self, lattice) -> tuple[int, int]:
        """(label id, total basis members) of a lattice, cached per object."""
        info = self._lattice_info.get(lattice)
        if info is None:
            label = lattice_label(lattice.family, lattice.dim, lattice.resolution)
            members = sum(len(e.members) for e in lattice.basis)
            info = (self._id(self._label_ids, self.labels, label), members)
            self._lattice_info[lattice] = info
        return info

    def _describe(self, span: str, args, result):
        """(label id, count, computed bytes) for a finished span."""
        if span == "lattice.build":
            if result is None:
                return self._id(self._label_ids, self.labels, lattice_label(*args[:3])), 0, 0
            return self._lattice(result)[0], result.npoints, 0
        if span == "transform.plan":
            return self._lattice(args[0])[0], 0, 0
        if span in ("transform.forward", "transform.inverse", "transform.adjoint",
                    "transform.forward_padua"):
            return self._lattice(args[0].lattice)[0], 0, 0
        if span == "calculus.evaluate":
            label, members = self._lattice(args[0].lattice)
            npts = np.atleast_2d(np.asarray(args[1])).shape[0]
            return label, npts, 8.0 * npts * members
        return 0, 0, 0

    def _probe_key(self, span: str, args):
        if self.op_id < 0 or span not in MEMORY_SPANS:
            return None
        if span == "lattice.build":
            key = (span, lattice_label(*args[:3]))
        else:
            key = (span, self._lattice(args[0].lattice)[0],
                   np.atleast_2d(np.asarray(args[1])).shape[0])
        return None if key in self._probed else key

    def _wrap(self, span: str, fn):
        nid = self._id(self._name_ids, self.names, span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            probe = self._probe_key(span, args)
            # children append after this span, so its slots are reserved now
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.tag.append(self.tag_id)
            for col in (self.start, self.end, self.count, self.bytes):
                col.append(0.0)
            self.peak_mb.append(-1.0)
            self.label.append(0)
            self.error.append(1)
            self._stack.append(idx)
            if probe is not None:
                self._probed.add(probe)
                self.probe_ops.add(self.op_id)
                tracemalloc.start()
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                self.error[idx] = 0
                return result
            finally:
                t1 = time.perf_counter()
                if probe is not None:
                    self.peak_mb[idx] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                self.label[idx], self.count[idx], self.bytes[idx] = self._describe(
                    span, args, result)

        return wrapper

    # ------------------------------------------------------------ results

    COLUMNS = ("name", "start", "end", "parent", "op", "tag", "label", "count", "bytes",
               "peak_mb", "error")

    def arrays(self) -> dict:
        """Every span column as a numpy array (once no span is open)."""
        return {c: np.array(getattr(self, c)) for c in self.COLUMNS}

    def save(self, path) -> None:
        """Write every span, with the name, label and tag tables, as .npz."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            labels=np.array(self.labels),
            tags=np.array(TAGS),
            probe_ops=np.array(sorted(self.probe_ops), dtype=np.int64),
            **self.arrays(),
        )

    def layer_metrics(self, op_seconds: float) -> dict:
        """Per-layer metrics over the spans of timed, unprobed ops.

        ``op_seconds`` is the summed latency of those ops, the
        denominator of every ``.share``.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_s = dur - covered
        timed = (a["op"] >= 0) & ~np.isin(a["op"], list(self.probe_ops))
        in_op = a["op"] >= 0
        setup = a["op"] < 0
        ids = {n: i for i, n in enumerate(self.names)}
        out: dict[str, tuple[float, str]] = {}
        for group, spans in GROUPS.items():
            sel = np.isin(a["name"], [ids[s] for s in spans if s in ids])
            t = sel & timed
            total = float(self_s[t].sum())
            out[f"{group}.calls"] = (int((sel & in_op).sum()), "count")
            out[f"{group}.self_s"] = (total, "s")
            out[f"{group}.share"] = (total / op_seconds if op_seconds > 0 else 0.0, "ratio")
            out[f"{group}.errors"] = (int(a["error"][sel & in_op].sum()), "count")
            if group in SPLIT_GROUPS:
                for tag in ("small", "large"):
                    ts = t & (a["tag"] == TAGS.index(tag))
                    out[f"{group}.{tag}.self_s"] = (float(self_s[ts].sum()), "s")
            if group in SETUP_GROUPS:
                out[f"setup.{group}.self_s"] = (float(self_s[sel & setup].sum()), "s")
            if group in MEMORY_SPANS:
                out[f"{group}.points"] = (float(a["count"][sel & in_op].sum()), "count")
                if group == "calculus.evaluate":
                    out[f"{group}.bytes_computed"] = (float(a["bytes"][sel & in_op].sum()), "B")
                peaks = a["peak_mb"][sel & in_op]
                peaks = peaks[peaks >= 0]
                out[f"{group}.peak_mb"] = (float(peaks.max()) if peaks.size else 0.0, "MB")
        return out

    def lattice_table(self) -> list[dict]:
        """One row per lattice: npoints, build, plan, forward, evaluate per 1k points.

        Medians over every span of the run, setup included, leaving out
        calls measured under ``tracemalloc``.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        ids = {n: i for i, n in enumerate(self.names)}
        unprobed = a["peak_mb"] < 0
        rows = []
        for lid, label in enumerate(self.labels):
            if lid == 0:
                continue
            mine = a["label"] == lid

            def median(span, scale=1.0, per_count=False):
                if span not in ids:
                    return None
                sel = mine & (a["name"] == ids[span]) & unprobed
                if not sel.any():
                    return None
                d = dur[sel] * scale
                if per_count:
                    d = d / np.maximum(a["count"][sel], 1) * 1000.0
                return float(np.median(d))

            built = mine & (a["name"] == ids.get("lattice.build", -1))
            npoints = int(a["count"][built].max()) if built.any() else None
            rows.append({
                "lattice": label,
                "npoints": npoints,
                "build_s": median("lattice.build"),
                "plan_s": median("transform.plan"),
                "forward_ms": median("transform.forward", scale=1e3),
                "evaluate_s_per_1k": median("calculus.evaluate", per_count=True),
            })
        return rows
