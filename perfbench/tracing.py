"""Spans around dgiga's public functions, installed from outside the package.

Each layer function is replaced, in every dgiga module that holds it, by a
wrapper that records a span (name, start, end, parent, level id) in memory.
Counts are taken from the arguments and results after the span closes, so
their cost is not charged to the layer.  A name that no longer exists is
reported as absent.  ``metrics`` derives inclusive and self times.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module that defines it, attribute path, span name)
LAYERS = [
    ("dgiga.cli", "main", "cli.main"),
    ("dgiga.geofile", "parse_geometry", "geofile.parse_geometry"),
    ("dgiga.driver", "run_sweep", "driver.run_sweep"),
    ("dgiga.driver", "solve_problem", "driver.solve_problem"),
    ("dgiga.driver", "sample_solution", "driver.sample_solution"),
    ("dgiga.geometry", "refine_surface", "geometry.refine_surface"),
    ("dgiga.geometry", "match_interfaces", "geometry.match_interfaces"),
    ("dgiga.problems", "make_problem", "problems.make_problem"),
    ("dgiga.space", "build_space", "space.build_space"),
    ("dgiga.assembly", "assemble_system", "assembly.assemble_system"),
    ("dgiga.assembly", "assemble_volume", "assembly.assemble_volume"),
    ("dgiga.assembly", "assemble_interface", "assembly.assemble_interface"),
    ("dgiga.assembly", "assemble_boundary", "assembly.assemble_boundary"),
    ("dgiga.linalg", "CsrMatrix.from_coo", "linalg.csr"),
    ("dgiga.linalg", "CsrMatrix.from_scipy", "linalg.csr"),
    ("dgiga.linalg", "cg_solve", "linalg.cg_solve"),
    ("dgiga.linalg", "cg_solve_projected", "linalg.cg_solve"),
    ("dgiga.analysis", "measure_errors", "analysis.measure_errors"),
    ("dgiga.analysis", "dg_error", "analysis.dg_error"),
    ("dgiga.analysis", "surface_h_max", "analysis.surface_h_max"),
]

DATA_FIELDS = ("f", "g_D", "g_N", "u_exact", "grad_u_exact")


def _nnz(matrix) -> int:
    nnz = getattr(matrix, "nnz", None)
    return int(nnz) if nnz is not None else int(len(matrix.values))


def _edge_points(space, interior: bool) -> int:
    """Edge quadrature points of the interface or boundary loop (q = p + 1)."""
    surface = space.surface
    total = 0
    for edge in surface.edges:
        if (edge.kind == "interior") == interior:
            pid, side = edge.left
            total += surface.patches[pid].side_knots(side).num_elements
    return total * (space.degree + 1)


def _elements(space) -> int:
    return sum(
        p.basis.basis_u.num_elements * p.basis.basis_v.num_elements
        for p in space.surface.patches
    )


class Tracer:
    """In-memory span recorder; one per traced sweep."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, level]
        self.counts = Counter()
        self.absent = []
        self.level = 0
        self._stack = []  # indices of open spans
        self._undo = []

    # -- recording --------------------------------------------------------

    def wrap(self, name, fn, on_exit=None, on_enter=None):
        """``fn`` with a span named ``name`` around every call.

        ``on_exit(args, kwargs, result)`` runs after the span closes, and
        only for the outermost call of this name (a projected CG calling
        plain CG counts its iterations once).  If it cannot read what it
        counts, the count is reported absent.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            stack = tracer._stack
            outermost = all(tracer.spans[i][0] != name for i in stack)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.level]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if on_exit is not None and outermost:
                try:
                    on_exit(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the signature or result changed: report, do not crash
                    if f"{name} counts" not in tracer.absent:
                        tracer.absent.append(f"{name} counts")
            return result

        return wrapper

    # -- hooks ------------------------------------------------------------

    def _hooks(self, name):
        c = self.counts

        def add(key, value):
            c[key] += value

        if name == "driver.run_sweep":
            return dict(on_enter=lambda: setattr(self, "level", 0))
        if name == "geometry.refine_surface":
            return dict(on_enter=lambda: setattr(self, "level", self.level + 1))
        if name == "space.build_space":
            return dict(on_exit=lambda a, k, r: add("space.dofs", r.total_dofs))
        if name == "assembly.assemble_system":
            return dict(on_exit=lambda a, k, r: add("assembly.nnz", _nnz(r.matrix)))
        if name == "assembly.assemble_volume":
            return dict(on_exit=lambda a, k, r: add("assembly.elements", _elements(a[0])))
        if name == "assembly.assemble_interface":
            return dict(on_exit=lambda a, k, r: add("assembly.edge_points", _edge_points(a[0], True)))
        if name == "assembly.assemble_boundary":
            return dict(on_exit=lambda a, k, r: add("assembly.edge_points", _edge_points(a[0], False)))
        if name == "linalg.cg_solve":

            def cg(args, kwargs, result):
                iters = result[1].iterations
                add("linalg.cg.iterations", iters)
                add("linalg.cg.matvec_flops", 2 * _nnz(args[0]) * (iters + 1))

            return dict(on_exit=cg)
        if name == "driver.sample_solution":
            return dict(on_exit=lambda a, k, r: add("driver.sample_points", r.count("\n") - 1))
        if name == "problems.make_problem":
            return dict(on_exit=lambda a, k, r: self._wrap_data(r))
        return {}

    def _wrap_data(self, data):
        """Wrap the ProblemData callables; each call is one span."""

        def points(args, kwargs, result):
            self.counts["problems.data.points"] += len(args[-1])

        for field in DATA_FIELDS:
            fn = getattr(data, field, None)
            if fn is not None:
                setattr(data, field, self.wrap("problems.data", fn, on_exit=points))

    # -- installing -------------------------------------------------------

    def install(self):
        """Wrap every layer function wherever a dgiga module looks it up."""
        for module_name, attr, name in LAYERS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            owner_path, _, leaf = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            raw = owner.__dict__.get(leaf) if owner is not None else None
            if raw is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            hooks = self._hooks(name)
            if isinstance(raw, classmethod):
                self._set(owner, leaf, raw, classmethod(self.wrap(name, raw.__func__, **hooks)))
                continue
            wrapped = self.wrap(name, raw, **hooks)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "dgiga" or mod_name.startswith("dgiga.")) and getattr(
                    mod, leaf, None
                ) is raw:
                    self._set(mod, leaf, raw, wrapped)

    def _set(self, owner, attr, old, new):
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per span name: inclusive time ``.s`` (outermost calls), ``.self_s``
        and ``.calls``; plus the counts.  Also the root span's duration."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            out[f"{name}.self_s"] += dur - child_time[i]
            nested = False
            j = parent
            while j >= 0:
                if self.spans[j][0] == name:
                    nested = True
                    break
                j = self.spans[j][3]
            if not nested:
                out[f"{name}.s"] += dur
                out[f"{name}.calls"] += 1
        out.update(self.counts)
        roots = [i for i in range(n) if self.spans[i][3] < 0]
        out["trace.root_s"] = sum(self.spans[i][2] - self.spans[i][1] for i in roots)
        out["trace.root_self_s"] = sum(
            self.spans[i][2] - self.spans[i][1] - child_time[i] for i in roots
        )
        out["trace.spans"] = n
        return dict(out)

    def write(self, path):
        """Write the spans as CSV: name,start,end,parent,level (seconds)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,level\n")
            for name, start, end, parent, level in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{level}\n")
