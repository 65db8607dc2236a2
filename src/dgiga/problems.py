"""Manufactured problems: built-in cases and expression-defined data.

Built-in cases pair an exact solution with the matching source term so
every solve can be checked against it.  Expression-based problems parse a
small arithmetic language (+, -, *, /, ^, sin, cos, exp, atan2, pi and the
coordinates x, y, z) so new cases never require code changes.
"""

from __future__ import annotations

import ast
import math

import numpy as np

from .assembly import ProblemData, default_penalty
from .geometry import MultiPatchSurface

__all__ = ["builtin_problems", "make_problem", "parse_expression"]

_ALLOWED_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "atan2": np.arctan2}
_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Call,
    ast.Name,
    ast.Load,
    ast.Constant,
)


def parse_expression(text: str):
    """Compile an arithmetic expression in x, y, z into a vectorized field.

    The returned callable maps an (N, 3) point array to an (N,) array.
    Raises ValueError on any construct outside the supported language, and
    the callable raises ValueError where the arithmetic fails (an overflow
    of Python numbers or a division by an integer zero).
    """
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {text!r}: {exc}") from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(
                f"unsupported construct {type(node).__name__} in expression {text!r}"
            )
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
                raise ValueError(f"unsupported function call in expression {text!r}")
            if node.keywords:
                raise ValueError("keyword arguments are not supported in expressions")
        if isinstance(node, ast.Name) and node.id not in ("x", "y", "z", "pi", *_ALLOWED_CALLS):
            raise ValueError(f"unknown name {node.id!r} in expression {text!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ValueError(f"non-numeric constant in expression {text!r}")
    code = compile(tree, "<expression>", "eval")

    def field(pts):
        pts = np.asarray(pts, dtype=float)
        env = {
            "x": pts[:, 0],
            "y": pts[:, 1],
            "z": pts[:, 2],
            "pi": math.pi,
            **_ALLOWED_CALLS,
        }
        try:
            out = eval(code, {"__builtins__": {}}, env)
        except ArithmeticError as exc:
            raise ValueError(f"cannot evaluate expression {text!r}: {exc}") from None
        return np.broadcast_to(np.asarray(out, dtype=float), (pts.shape[0],)).copy()

    return field


def _plane_sine(surface: MultiPatchSurface, delta: float) -> ProblemData:
    def u(pts):
        pts = np.asarray(pts)
        return np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])

    def grad(pts):
        pts = np.asarray(pts)
        g = np.empty((pts.shape[0], 3))
        g[:, 0] = np.pi * np.cos(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
        g[:, 1] = np.pi * np.sin(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])
        g[:, 2] = 0.0
        return g

    def f(pid, pts):
        return 2.0 * np.pi**2 * surface.alpha[pid] * u(pts)

    return ProblemData(f=f, g_D=u, g_N=None, delta=delta, u_exact=u, grad_u_exact=grad)


def _plane_cosine(surface: MultiPatchSurface, delta: float) -> ProblemData:
    # Pure-Neumann companion case on the unit square: the normal derivative
    # vanishes on the whole boundary and the source has zero mean.
    def u(pts):
        pts = np.asarray(pts)
        return np.cos(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])

    def grad(pts):
        pts = np.asarray(pts)
        g = np.empty((pts.shape[0], 3))
        g[:, 0] = -np.pi * np.sin(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])
        g[:, 1] = -np.pi * np.cos(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
        g[:, 2] = 0.0
        return g

    def f(pid, pts):
        return 2.0 * np.pi**2 * surface.alpha[pid] * u(pts)

    def g_n(pts):
        return np.zeros(np.asarray(pts).shape[0])

    return ProblemData(f=f, g_D=u, g_N=g_n, delta=delta, u_exact=u, grad_u_exact=grad)


def _cylinder_sine(surface: MultiPatchSurface, delta: float) -> ProblemData:
    # u(theta, z) = sin(theta) sin(pi z) on the unit cylinder.  There the
    # Laplace-Beltrami operator reduces to u_theta_theta + u_zz, so the
    # matching source is (1 + pi^2) u.
    def u(pts):
        pts = np.asarray(pts)
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        return np.sin(theta) * np.sin(np.pi * pts[:, 2])

    def grad(pts):
        pts = np.asarray(pts)
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        u_theta = np.cos(theta) * np.sin(np.pi * pts[:, 2])
        u_z = np.pi * np.sin(theta) * np.cos(np.pi * pts[:, 2])
        g = np.empty((pts.shape[0], 3))
        g[:, 0] = -np.sin(theta) * u_theta
        g[:, 1] = np.cos(theta) * u_theta
        g[:, 2] = u_z
        return g

    def f(pid, pts):
        return (1.0 + np.pi**2) * surface.alpha[pid] * u(pts)

    return ProblemData(f=f, g_D=u, g_N=None, delta=delta, u_exact=u, grad_u_exact=grad)


_BUILTINS = {
    "plane_sine": _plane_sine,
    "plane_cosine": _plane_cosine,
    "cylinder_sine": _cylinder_sine,
}


def builtin_problems() -> tuple[str, ...]:
    """Names of the built-in manufactured cases."""
    return tuple(sorted(_BUILTINS))


def _expression_problem(spec: str, surface, delta: float) -> ProblemData:
    fields = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"expression problem term {part!r} is not key=expr")
        key, expr = part.split("=", 1)
        key = key.strip()
        if key not in ("f", "u", "gD", "gN", "gx", "gy", "gz"):
            raise ValueError(
                f"unknown problem field {key!r} (expected f, u, gD, gN, gx, gy, gz)"
            )
        fields[key] = parse_expression(expr.strip())

    u = fields.get("u")
    grad = None
    if all(k in fields for k in ("gx", "gy", "gz")):
        gx, gy, gz = fields["gx"], fields["gy"], fields["gz"]

        def grad(pts):
            pts = np.asarray(pts)
            return np.stack([gx(pts), gy(pts), gz(pts)], axis=1)

    f_field = fields.get("f")
    f = (lambda pid, pts: f_field(pts)) if f_field is not None else None
    return ProblemData(
        f=f,
        g_D=fields.get("gD", u),
        g_N=fields.get("gN"),
        delta=delta,
        u_exact=u,
        grad_u_exact=grad,
    )


def make_problem(spec: str, surface: MultiPatchSurface, degree: int, delta=None) -> ProblemData:
    """Resolve a problem name or key=expression spec into ProblemData.

    Unknown names raise ValueError listing the available cases.
    """
    if delta is None:
        delta = default_penalty(degree)
    if "=" in spec:
        return _expression_problem(spec, surface, delta)
    try:
        builder = _BUILTINS[spec]
    except KeyError:
        raise ValueError(
            f"unknown problem {spec!r}; available: {', '.join(builtin_problems())}"
        ) from None
    return builder(surface, delta)
