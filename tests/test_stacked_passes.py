"""Volume and error passes are stacked over patches that share both knot vectors.

A stacked pass must equal its one-patch calls bit for bit, and the whole
assembly and error measurement must not depend on how the patches of a
knot group are cut into stacks (``geometry.STACK_ELEMENTS``).
"""

import numpy as np
import pytest
from test_tabulation import two_signature_patches

import dgiga.geometry
from dgiga.analysis import _stack_errors, measure_errors
from dgiga.assembly import ProblemData, _volume_blocks, assemble_volume
from dgiga.geometries import full_cylinder
from dgiga.geometry import MultiPatchSurface, patch_stacks, refine_surface
from dgiga.space import build_space

# Polynomial data: no transcendental function whose vectorised kernels might
# round differently with the array length.
DATA = ProblemData(
    f=lambda pid, x: (pid + 1.0) * x[:, 0] * x[:, 1] + x[:, 2],
    delta=12.0,
    u_exact=lambda x: x[:, 0] ** 2 - x[:, 1] * x[:, 2],
    grad_u_exact=lambda x: np.stack([2.0 * x[:, 0], -x[:, 2], -x[:, 1]], axis=1),
)


def two_signatures():
    """Five rational patches in a row, two knot signatures, no edges (pure Neumann)."""
    return MultiPatchSurface(two_signature_patches(), [], alpha=[1.0, 2.0, 3.0, 4.0, 5.0])


def cylinder():
    """Eight rational p = 3 patches of one knot signature, Neumann rims."""
    return refine_surface(full_cylinder(3, 2))


def random_function(surface):
    space = build_space(surface, surface.patches[0].degree[0])
    return space.function(np.random.default_rng(11).standard_normal(space.total_dofs))


def assert_stack_equals_singles(stacked, singles):
    for k, got in enumerate(stacked):
        expected = np.concatenate([single[k] for single in singles])
        np.testing.assert_array_equal(got, expected, err_msg=f"output {k}")


@pytest.mark.parametrize("build", [two_signatures, cylinder])
def test_stacked_passes_equal_one_patch_calls_bit_for_bit(build):
    u_h = random_function(build())
    q = u_h.space.degree + 2
    stacks = patch_stacks(u_h.space.surface.patches)
    assert max(len(stack) for stack in stacks) > 1
    for stack in stacks:
        assert_stack_equals_singles(
            _volume_blocks(u_h.space, DATA, stack),
            [_volume_blocks(u_h.space, DATA, [pid]) for pid in stack],
        )
        args = (DATA.u_exact, DATA.grad_u_exact, q)
        assert_stack_equals_singles(
            _stack_errors(u_h, stack, *args), [_stack_errors(u_h, [pid], *args) for pid in stack]
        )


def passes(u_h):
    system = assemble_volume(u_h.space, DATA)
    report = measure_errors(u_h, DATA)
    matrix = system.matrix
    return (matrix.data, matrix.indices, matrix.indptr, system.rhs, system.basis_integrals,
            np.array([report.l2_error, report.dg_error, *report.per_patch]))


@pytest.mark.parametrize("build, limit, expected", [
    # 4 elements per patch in the group (0, 2, 4), 6 in the group (1, 3)
    (two_signatures, 8, [[0, 2], [4], [1], [3]]),
    (two_signatures, 1, [[0], [2], [4], [1], [3]]),
    # 4 elements per patch after one refinement
    (cylinder, 12, [[0, 1, 2], [3, 4, 5], [6, 7]]),
])
def test_passes_do_not_depend_on_the_stack_size(monkeypatch, build, limit, expected):
    u_h = random_function(build())
    whole = passes(u_h)
    monkeypatch.setattr(dgiga.geometry, "STACK_ELEMENTS", limit)
    assert patch_stacks(u_h.space.surface.patches) == expected
    for got, ref in zip(passes(u_h), whole):
        np.testing.assert_array_equal(got, ref)
