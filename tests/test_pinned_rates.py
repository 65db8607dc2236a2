"""Rate tables pinned from the pointwise-evaluation implementation.

Any change to how the basis, geometry or errors are evaluated must
reproduce these sweeps.  The bounds: DOF counts exactly, h_max to 1e-13
relative, errors to 1e-6 relative and rates to 1e-6 absolute.  The errors
cannot be pinned near round-off: a different floating-point summation
order in assembly moves the CG iterate within its 1e-10 residual
tolerance, which shifts the errors by up to about 1e-7 relative and the
rates by up to about 1e-7.
"""

import pytest
from conftest import bundled

from dgiga.driver import run_sweep
from dgiga.geofile import parse_geometry
from dgiga.geometries import full_cylinder, quarter_cylinder_grid, square_grid
from dgiga.problems import make_problem

CYLINDER_PROBLEM = (
    "u=x*cos(pi*z); f=(1+pi^2)*x*cos(pi*z); gN=0*x; "
    "gx=y^2*cos(pi*z); gy=-x*y*cos(pi*z); gz=-pi*x*sin(pi*z)"
)

PINNED = {
    "square4_p2": (
        lambda: parse_geometry(bundled("square4_p2.g")).surface(), 2, "plane_sine", 4,
        """\
level,h_max,dofs,l2_error,dg_error,l2_rate,dg_rate
0,0.70710678118654757,36,0.011864574185481111,0.24081690373825243,,
1,0.35355339059327379,64,0.0018858268096347381,0.062058136518708618,2.6533912306168363,1.9562443818151645
2,0.17677669529663689,144,0.00023929088608194552,0.013982575212948866,2.9783598331887684,2.1499902856095781
3,0.088388347648318447,400,3.0099183140217859e-05,0.0033337612683136918,2.9909692102973766,2.0684073893776902
""",
    ),
    "quarter_cylinder_p3": (
        lambda: quarter_cylinder_grid(3), 3, "cylinder_sine", 3,
        """\
level,h_max,dofs,l2_error,dg_error,l2_rate,dg_rate
0,0.91421356237309503,64,0.0010081565990287026,0.031093385333499608,,
1,0.4764622167617143,100,0.00014938148732911166,0.0047132316185717962,2.9299469404646401,2.8950306107401542
2,0.24096294671396273,196,1.2809776320515617e-05,0.00068714142846738446,3.6029509350757367,2.824499219760058
""",
    ),
    # Rational weights, a surface closed in the angle and pure Neumann data
    # (the solution is fixed by its zero integral mean); pinned from the
    # tabulation kernel that preceded the sum-factorised one.
    "full_cylinder_neumann_p3": (
        lambda: full_cylinder(3, 2), 3, CYLINDER_PROBLEM, 3,
        """\
level,h_max,dofs,l2_error,dg_error,l2_rate,dg_rate
0,1.5,128,0.0021221589100414071,0.057884100838355962,,
1,0.80516236724458579,200,0.00030438882241994156,0.0088103777368755496,3.1211135611741483,3.0256890802664893
2,0.42443049372245517,392,2.5631711759187019e-05,0.0012745737824107371,3.8645825356024104,3.019415061766626
""",
    ),
    # 2x2 patches: the jumps lie on x = 1/2 and y = 1/2 only.
    "square_jumps": (
        lambda: square_grid(2, alpha=[1.0, 1e4, 1e4, 1.0]), 2, "plane_sine", 4,
        """\
level,h_max,dofs,l2_error,dg_error,l2_rate,dg_rate
0,0.70710678118654757,36,0.011890502342309421,17.179820840470857,,
1,0.35355339059327379,64,0.0018883037049754897,4.4025089385969798,2.6546469423620906,1.9643171530932826
2,0.17677669529663689,144,0.00023932391115609906,0.98902043308540821,2.9800543682651268,2.1542537008506675
3,0.088388347648318447,400,3.0099568990935989e-05,0.23575157038091688,2.9911498119164532,2.0687329462928563
""",
    ),
}


def sweep_csv(build, p, problem, levels):
    table, _ = run_sweep(build(), p, lambda s, d: make_problem(problem, s, p, d), levels=levels)
    return table.to_csv()


@pytest.mark.parametrize("case", sorted(PINNED))
def test_rates_match_pinned_table(case):
    *setup, expected = PINNED[case]
    got = sweep_csv(*setup)
    assert sweep_csv(*setup) == got  # repeated runs are byte-identical
    got_lines, expected_lines = got.splitlines(), expected.splitlines()
    assert got_lines[0] == expected_lines[0]
    assert len(got_lines) == len(expected_lines)
    for line, ref in zip(got_lines[1:], expected_lines[1:]):
        level, h_max, dofs, l2, dg, l2_rate, dg_rate = line.split(",")
        r_level, r_h_max, r_dofs, r_l2, r_dg, r_l2_rate, r_dg_rate = ref.split(",")
        assert (level, dofs) == (r_level, r_dofs)
        assert float(h_max) == pytest.approx(float(r_h_max), rel=1e-13, abs=0.0)
        for value, pinned in ((l2, r_l2), (dg, r_dg)):
            assert float(value) == pytest.approx(float(pinned), rel=1e-6, abs=0.0)
        for value, pinned in ((l2_rate, r_l2_rate), (dg_rate, r_dg_rate)):
            if pinned == "":
                assert value == ""
            else:
                assert float(value) == pytest.approx(float(pinned), rel=0.0, abs=1e-6)
