"""Layout rules of the library source that no linter here checks."""

from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dgiga").glob("*.py"))


def test_no_source_line_is_over_100_characters():
    assert SOURCES
    long = [f"{path.name}:{n}" for path in SOURCES
            for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert long == []
