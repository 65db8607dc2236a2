#!/usr/bin/env python3
"""Regenerate the geometry files bundled with the package.

Writes into src/dgiga/data/.  The files are committed; rerun only when the
builders change.
"""

from pathlib import Path

from dgiga.geofile import GeometryData, serialize_geometry
from dgiga.geometries import quarter_cylinder_grid, square_grid

OUT = Path(__file__).resolve().parent.parent / "src" / "dgiga" / "data"


def surface_to_data(surface):
    tags = {e.left: e.kind for e in surface.edges if e.kind != "interior"}
    return GeometryData(surface.patches, tags, surface.alpha)


HEADERS = {
    "square4.g": "# unit square as a 2x2 patch grid, degree 1, Dirichlet boundary",
    "square4_p2.g": "# unit square as a 2x2 patch grid, degree 2, Dirichlet boundary",
    "square4_p3.g": "# unit square as a 2x2 patch grid, degree 3, Dirichlet boundary",
    "qcyl4.g": "# quarter cylinder (radius 1, height 1) as a 2x2 patch grid, degree 2",
    "qcyl4_p3.g": "# quarter cylinder (radius 1, height 1) as a 2x2 patch grid, degree 3",
}


def bundled_texts() -> dict[str, str]:
    """The text of every bundled geometry file, keyed by file name."""
    files = {
        "square4.g": square_grid(1),
        "square4_p2.g": square_grid(2),
        "square4_p3.g": square_grid(3),
        "qcyl4.g": quarter_cylinder_grid(2),
        "qcyl4_p3.g": quarter_cylinder_grid(3),
    }
    return {
        name: HEADERS[name] + "\n" + serialize_geometry(surface_to_data(surface))
        for name, surface in files.items()
    }


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for name, text in bundled_texts().items():
        (OUT / name).write_text(text, encoding="utf-8")
        print(f"wrote {OUT / name}")


if __name__ == "__main__":
    main()
