"""Smoke test of ``scripts/output_digest.py``: the format of its lines, not the digests."""

import importlib.util
import re
from pathlib import Path


def test_digest_lines_name_every_output_of_every_case(capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() == 0
    lines = capsys.readouterr().out.splitlines()
    expected = []
    for name, (_, _, _, levels) in module.CASES.items():
        outputs = ["rates.csv", *(f"solution_L{k}.csv" for k in range(levels))]
        expected += [(name, out) for out in outputs + ["data", "indices", "indptr", "rhs"]]
    assert [tuple(line.split()[:2]) for line in lines] == expected
    assert all(re.fullmatch(r"\S+ \S+ [0-9a-f]{64}", line) for line in lines)
