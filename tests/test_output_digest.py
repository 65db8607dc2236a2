"""The outputs of ``scripts/output_digest.py``'s cases, byte for byte.

``output_digest.txt`` holds the digest lines and, as ``# key value`` lines,
the environment they hold for.  OpenBLAS picks its kernels by CPU, so where
numpy, scipy, the BLAS build or the CPU differ the comparison is skipped
with the difference as the reason, not passed.
"""

import functools
import importlib.util
from pathlib import Path

import pytest

import dgiga.analysis
import dgiga.assembly
import dgiga.geometry

HERE = Path(__file__).resolve().parent
script = HERE.parent / "scripts" / "output_digest.py"
spec = importlib.util.spec_from_file_location("output_digest", script)
output_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digest)


def expected():
    """(recorded environment, {(case, output): digest}) from output_digest.txt."""
    env, digests = {}, {}
    for line in (HERE / "output_digest.txt").read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" ")
            env[key] = value
        else:
            case, output, digest = line.split()
            digests[(case, output)] = digest
    return env, digests


@functools.cache
def produced() -> dict[tuple[str, str], str]:
    """{(case, output): digest} the script computes here, once per test session."""
    return {(name, output): digest for name in output_digest.CASES
            for output, digest in output_digest.digests(name)}


def environment_difference(recorded: dict, running: dict) -> str:
    """'' when equal, else each differing entry (flags as the set difference)."""
    out = []
    for key in sorted(recorded.keys() | running.keys()):
        a, b = recorded.get(key, "missing"), running.get(key, "missing")
        if a == b:
            continue
        if key == "flags":
            a, b = sorted(set(a.split()) - set(b.split())), sorted(set(b.split()) - set(a.split()))
            out.append(f"flags recorded only {a}, running only {b}")
        else:
            out.append(f"{key} recorded {a!r}, running {b!r}")
    return "; ".join(out)


def test_digest_lines_name_every_output_of_every_case():
    env, digests = expected()
    assert list(env) == list(output_digest.environment())
    names = []
    for name, (_, _, _, levels) in output_digest.CASES.items():
        outputs = ["rates.csv", *(f"solution_L{k}.csv" for k in range(levels))]
        names += [(name, out) for out in outputs + ["data", "indices", "indptr", "rhs"]]
    assert list(digests) == names
    assert list(produced()) == names
    assert all(len(d) == 64 and set(d) <= set("0123456789abcdef") for d in digests.values())


def test_environment_difference_names_what_differs():
    recorded = {"numpy": "2.4.6", "flags": "sse avx2 fma"}
    assert environment_difference(recorded, dict(recorded)) == ""
    message = environment_difference(recorded, {"numpy": "2.5.0", "flags": "sse avx512f fma"})
    assert message == ("flags recorded only ['avx2'], running only ['avx512f']; "
                       "numpy recorded '2.4.6', running '2.5.0'")


def test_outputs_are_byte_identical_to_the_recorded_digests():
    env, digests = expected()
    difference = environment_difference(env, output_digest.environment())
    if difference:
        pytest.skip(f"digests recorded in another environment: {difference}")
    current = produced()
    changed = [f"{name} {output}" for name, output in digests.keys() | current.keys()
               if digests.get((name, output)) != current.get((name, output))]
    assert not changed, "outputs differ from tests/output_digest.txt: " + ", ".join(sorted(changed))


def finest_units(monkeypatch, name):
    """The case's digests, and the rows of every work unit that the volume and error
    passes tabulate on its finest level, per pass."""
    units = {}
    for module in (dgiga.assembly, dgiga.analysis):
        def recorded(patches, q, coeffs=None, rows=slice(None), real=module.tabulate_patches,
                     key=module.__name__):
            nel = patches[0].basis.basis_u.num_elements
            units.setdefault(key, []).append((nel, len(range(nel)[rows])))
            return real(patches, q, coeffs, rows)
        monkeypatch.setattr(module, "tabulate_patches", recorded)
    digests = dict(output_digest.digests(name))
    return digests, {key.split(".")[1]: [rows for nel, rows in calls if nel == max(calls)[0]]
                     for key, calls in units.items()}


def test_the_p4_case_covers_short_units_in_both_passes(monkeypatch):
    """On the finest level of ``square-p4-blocks`` (4 patches of 8 x 8 elements,
    p = 4) both passes run one unit per patch under the default budget: the
    volume pass twice (the sweep and the digest's system), its X in blocks of 6
    and 2 rows.  Under a budget of 6 element rows both run units of 6 and 2
    rows, and the outputs keep the recorded digests."""
    _, default = finest_units(monkeypatch, "square-p4-blocks")
    assert default == {"assembly": [8] * 8, "analysis": [8] * 4}
    # 6 rows of 8 elements of (p+2)^2 points, 64 bytes each (geometry.row_runs)
    monkeypatch.setattr(dgiga.geometry, "STACK_BYTES", 6 * 8 * 6**2 * 64)
    digests, small = finest_units(monkeypatch, "square-p4-blocks")
    assert small == {"assembly": [6, 2] * 8, "analysis": [6, 2] * 4}
    env, recorded = expected()
    difference = environment_difference(env, output_digest.environment())
    if difference:
        pytest.skip(f"digests recorded in another environment: {difference}")
    assert digests == {output: d for (case, output), d in recorded.items()
                       if case == "square-p4-blocks"}
