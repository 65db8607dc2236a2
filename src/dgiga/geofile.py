"""Line-oriented text format for multi-patch NURBS geometries.

A geometry file is UTF-8 text with ``#`` comments and these records:

    patch <id>                         starts patch <id> (ids 0,1,2,... in order)
    knots_u <degree> <knot> ...        open knot vector, first parametric direction
    knots_v <degree> <knot> ...        open knot vector, second parametric direction
    alpha <value>                      diffusion coefficient (optional, default 1)
    cp <x> <y> <z> <w>                 one control point per line, n1*n2 lines,
                                       second index major (k2 outer, k1 inner)
    tag <patch> <side> <dirichlet|neumann>
                                       boundary condition on an outer side,
                                       side in {west, east, south, north}

Numbers must be finite.  A patch takes each of knots_u, knots_v and alpha at
most once, and an outer side takes at most one tag.  Parse errors carry the
offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import SIDES, MultiPatchSurface, NurbsPatch, match_interfaces
from .splines import KnotVector, NurbsBasis2D

__all__ = ["ParseError", "GeometryData", "parse_geometry", "serialize_geometry"]


class ParseError(Exception):
    """Malformed geometry file; message includes the line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class GeometryData:
    """Raw parsed contents: patches plus boundary tags."""

    patches: list[NurbsPatch]
    tags: dict[tuple[int, str], str]
    alpha: np.ndarray

    def surface(self) -> MultiPatchSurface:
        return match_interfaces(self.patches, self.tags, self.alpha)


@dataclass
class _PatchDraft:
    pid: int
    start_line: int
    records: dict = field(default_factory=dict)  # knots_u, knots_v, alpha
    cps: list = field(default_factory=list)

    def finish(self) -> tuple[NurbsPatch, float]:
        kv_u, kv_v = self.records.get("knots_u"), self.records.get("knots_v")
        if kv_u is None or kv_v is None:
            raise ParseError(self.start_line, f"patch {self.pid} is missing knot vectors")
        n1, n2 = kv_u.n, kv_v.n
        if len(self.cps) != n1 * n2:
            raise ParseError(
                self.start_line,
                f"patch {self.pid} needs {n1 * n2} control points, got {len(self.cps)}",
            )
        rows = np.asarray(self.cps, dtype=float).reshape(n2, n1, 4)
        xyz = rows[:, :, :3].transpose(1, 0, 2)
        w = rows[:, :, 3].T
        basis = NurbsBasis2D(kv_u, kv_v, w)
        return NurbsPatch(basis, xyz, self.pid), self.records.get("alpha", 1.0)


def _floats(parts: list[str], lineno: int, what: str) -> list[float]:
    out = []
    for p in parts:
        try:
            out.append(float(p))
        except ValueError:
            raise ParseError(lineno, f"malformed number {p!r} in {what}") from None
        if not np.isfinite(out[-1]):
            raise ParseError(lineno, f"non-finite number {p!r} in {what}")
    return out


def _knot_vector(parts: list[str], lineno: int) -> KnotVector:
    if len(parts) < 2:
        raise ParseError(lineno, "knot record needs a degree and knots")
    try:
        degree = int(parts[0])
    except ValueError:
        raise ParseError(lineno, f"malformed degree {parts[0]!r}") from None
    knots = _floats(parts[1:], lineno, "knot vector")
    try:
        return KnotVector(degree, np.asarray(knots))
    except ValueError as exc:
        raise ParseError(lineno, f"invalid knot vector: {exc}") from None


def parse_geometry(path) -> GeometryData:
    """Parse a geometry file (UTF-8, a leading BOM skipped) into patches, tags and alpha."""
    with open(path, encoding="utf-8-sig") as fh:
        lines = fh.readlines()

    drafts: list[_PatchDraft] = []
    tags: dict[tuple[int, str], str] = {}
    current: _PatchDraft | None = None

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        record, args = parts[0], parts[1:]

        if record == "patch":
            if len(args) != 1:
                raise ParseError(lineno, "patch record needs exactly one id")
            try:
                pid = int(args[0])
            except ValueError:
                raise ParseError(lineno, f"malformed patch id {args[0]!r}") from None
            if pid != len(drafts):
                raise ParseError(lineno, f"expected patch id {len(drafts)}, got {pid}")
            current = _PatchDraft(pid, lineno)
            drafts.append(current)
        elif record in ("knots_u", "knots_v", "alpha", "cp"):
            if current is None:
                raise ParseError(lineno, f"{record} before any patch record")
            if record in current.records:
                raise ParseError(lineno, f"repeated {record} record in patch {current.pid}")
            if record == "cp":
                if len(args) != 4:
                    raise ParseError(lineno, "cp needs x y z w")
                vals = _floats(args, lineno, "control point")
                if vals[3] <= 0:
                    raise ParseError(lineno, "control-point weight must be positive")
                current.cps.append(vals)
            elif record == "alpha":
                if len(args) != 1:
                    raise ParseError(lineno, "alpha needs exactly one value")
                (value,) = _floats(args, lineno, "alpha")
                if value <= 0:
                    raise ParseError(lineno, "alpha must be positive")
                current.records[record] = value
            else:
                current.records[record] = _knot_vector(args, lineno)
        elif record == "tag":
            if len(args) != 3:
                raise ParseError(lineno, "tag needs: patch side kind")
            try:
                pid = int(args[0])
            except ValueError:
                raise ParseError(lineno, f"malformed patch id {args[0]!r}") from None
            side, kind = args[1], args[2]
            if side not in SIDES:
                raise ParseError(lineno, f"unknown side {side!r}")
            if kind not in ("dirichlet", "neumann"):
                raise ParseError(lineno, f"unknown boundary kind {kind!r}")
            if not 0 <= pid < len(drafts):
                raise ParseError(lineno, f"tag references unknown patch {pid}")
            if (pid, side) in tags:
                raise ParseError(lineno, f"repeated tag of patch {pid} {side}")
            tags[(pid, side)] = kind
        else:
            raise ParseError(lineno, f"unknown record {record!r}")

    if not drafts:
        raise ParseError(len(lines) or 1, "no patches in file")
    patches = []
    alphas = []
    for draft in drafts:
        try:
            patch, alpha = draft.finish()
        except ValueError as exc:
            raise ParseError(draft.start_line, str(exc)) from None
        patches.append(patch)
        alphas.append(alpha)
    return GeometryData(patches, tags, np.asarray(alphas))


def serialize_geometry(data: GeometryData) -> str:
    """Geometry file text that parses back to identical structures."""
    out = []
    for patch, alpha in zip(data.patches, data.alpha):
        out.append(f"patch {patch.id}")
        for name, kv in (("knots_u", patch.basis.basis_u), ("knots_v", patch.basis.basis_v)):
            out.append(f"{name} {kv.degree} " + " ".join(f"{k:.17g}" for k in kv.knots))
        out.append(f"alpha {alpha:.17g}")
        n1, n2 = patch.basis.shape
        for k2 in range(n2):
            for k1 in range(n1):
                x, y, z = patch.control_points[k1, k2]
                w = patch.basis.weights[k1, k2]
                out.append(f"cp {x:.17g} {y:.17g} {z:.17g} {w:.17g}")
    for (pid, side), kind in sorted(data.tags.items()):
        out.append(f"tag {pid} {side} {kind}")
    return "\n".join(out) + "\n"
