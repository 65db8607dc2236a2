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

Numbers are ASCII decimal and finite.  A patch takes each of knots_u,
knots_v and alpha at most once, and an outer side takes at most one tag.
Parse errors carry the offending line number.
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


def _number(text: str, lineno: int, what: str, kind=float):
    try:  # int and float would also read 1_0 as 10 and non-ASCII digits
        if not text.isascii() or "_" in text:
            raise ValueError
        value = kind(text)
    except ValueError:
        raise ParseError(lineno, f"malformed number {text!r} in {what}") from None
    if not -np.inf < value < np.inf:  # also an int beyond the float range
        raise ParseError(lineno, f"non-finite number {text!r} in {what}")
    return value


# record: (fewest, most) arguments and the message otherwise; unknown records get (1, 0)
_ARITY = {
    "patch": (1, 1, "patch record needs exactly one id"),
    "knots_u": (2, np.inf, "knot record needs a degree and knots"),
    "knots_v": (2, np.inf, "knot record needs a degree and knots"),
    "alpha": (1, 1, "alpha needs exactly one value"),
    "cp": (4, 4, "cp needs x y z w"),
    "tag": (3, 3, "tag needs: patch side kind"),
}


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
        record, *args = line.split()
        fewest, most, message = _ARITY.get(record, (1, 0, f"unknown record {record!r}"))
        if not fewest <= len(args) <= most:
            raise ParseError(lineno, message)

        if record == "patch":
            pid = _number(args[0], lineno, "patch id", int)
            if pid != len(drafts):
                raise ParseError(lineno, f"expected patch id {len(drafts)}, got {pid}")
            current = _PatchDraft(pid, lineno)
            drafts.append(current)
        elif record == "tag":
            pid, side, kind = _number(args[0], lineno, "patch id", int), args[1], args[2]
            if side not in SIDES:
                raise ParseError(lineno, f"unknown side {side!r}")
            if kind not in ("dirichlet", "neumann"):
                raise ParseError(lineno, f"unknown boundary kind {kind!r}")
            if not 0 <= pid < len(drafts):
                raise ParseError(lineno, f"tag references unknown patch {pid}")
            if (pid, side) in tags:
                raise ParseError(lineno, f"repeated tag of patch {pid} {side}")
            tags[(pid, side)] = kind
        elif current is None:
            raise ParseError(lineno, f"{record} before any patch record")
        elif record in current.records:
            raise ParseError(lineno, f"repeated {record} record in patch {current.pid}")
        elif record == "cp":
            point = [_number(a, lineno, "control point") for a in args]
            if point[3] <= 0:
                raise ParseError(lineno, "control-point weight must be positive")
            current.cps.append(point)
        elif record == "alpha":
            current.records[record] = _number(args[0], lineno, "alpha")
            if current.records[record] <= 0:
                raise ParseError(lineno, "alpha must be positive")
        else:
            degree = _number(args[0], lineno, "degree", int)
            knots = [_number(a, lineno, "knot vector") for a in args[1:]]
            try:
                current.records[record] = KnotVector(degree, np.asarray(knots))
            except ValueError as exc:
                raise ParseError(lineno, f"invalid knot vector: {exc}") from None

    if not drafts:
        raise ParseError(len(lines) or 1, "no patches in file")
    patches = []
    alphas = []
    for draft in drafts:
        patch, alpha = draft.finish()
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
