import numpy as np
import pytest

from dgiga.cli import data_path, main
from dgiga.geofile import ParseError, parse_geometry, serialize_geometry
from dgiga.geometry import tabulate_grid


def test_parse_bundled_square():
    data = parse_geometry(data_path("square4.g"))
    assert len(data.patches) == 4
    assert sum(p.basis.shape[0] * p.basis.shape[1] for p in data.patches) == 16
    assert all(p.degree == (1, 1) for p in data.patches)
    assert all(kind == "dirichlet" for kind in data.tags.values())
    surface = data.surface()
    assert len(surface.edges_of_kind("interior")) == 4


def test_parse_bundled_cylinder_is_exact(rng):
    surface = parse_geometry(data_path("qcyl4.g")).surface()
    for patch in surface.patches:
        pts = tabulate_grid([patch], rng.random(4), rng.random(4)).points
        assert np.max(np.abs(np.hypot(pts[0], pts[1]) - 1.0)) <= 1e-12


@pytest.mark.parametrize(
    "name", ["square4.g", "square4_p2.g", "square4_p3.g", "qcyl4.g", "qcyl4_p3.g"]
)
def test_round_trip(tmp_path, name):
    data = parse_geometry(data_path(name))
    text = serialize_geometry(data)
    path = tmp_path / "copy.g"
    path.write_text(text, encoding="utf-8")
    again = parse_geometry(path)
    assert len(again.patches) == len(data.patches)
    assert again.tags == data.tags
    np.testing.assert_array_equal(again.alpha, data.alpha)
    for a, b in zip(data.patches, again.patches):
        np.testing.assert_array_equal(a.control_points, b.control_points)
        np.testing.assert_array_equal(a.basis.weights, b.basis.weights)
        np.testing.assert_array_equal(a.basis.basis_u.knots, b.basis.basis_u.knots)
        np.testing.assert_array_equal(a.basis.basis_v.knots, b.basis.basis_v.knots)
    assert serialize_geometry(again) == text


def test_byte_order_mark_is_skipped(tmp_path):
    """A UTF-8 file that starts with a byte-order mark parses like the same file without."""
    path = tmp_path / "bom.g"
    path.write_bytes(b"\xef\xbb\xbf" + data_path("square4.g").read_bytes())
    data, again = parse_geometry(data_path("square4.g")), parse_geometry(path)
    assert again.tags == data.tags
    np.testing.assert_array_equal(again.alpha, data.alpha)
    assert serialize_geometry(again) == serialize_geometry(data)  # knots, weights, points
    assert main(["check", str(path)]) == 0


def write(tmp_path, text):
    path = tmp_path / "test.g"
    path.write_text(text, encoding="utf-8")
    return path


GOOD = """# single patch
patch 0
knots_u 1 0 0 1 1
knots_v 1 0 0 1 1
alpha 1.0
cp 0 0 0 1
cp 1 0 0 1
cp 0 1 0 1
cp 1 1 0 1
tag 0 west dirichlet
tag 0 east dirichlet
tag 0 south dirichlet
tag 0 north dirichlet
"""


def test_parse_minimal_file(tmp_path):
    data = parse_geometry(write(tmp_path, GOOD))
    assert len(data.patches) == 1
    surface = data.surface()
    assert len(surface.edges) == 4


def test_truncated_file_names_line(tmp_path):
    truncated = "\n".join(GOOD.splitlines()[:7]) + "\n"
    with pytest.raises(ParseError, match="line 2") as err:
        parse_geometry(write(tmp_path, truncated))
    assert "control points" in str(err.value)


def test_malformed_number_is_positional(tmp_path):
    bad = GOOD.replace("cp 1 0 0 1", "cp 1 zero 0 1")
    with pytest.raises(ParseError, match="line 7"):
        parse_geometry(write(tmp_path, bad))


def test_non_open_knots_rejected(tmp_path):
    bad = GOOD.replace("knots_u 1 0 0 1 1", "knots_u 1 0 0.5 1 1")
    with pytest.raises(ParseError, match="open"):
        parse_geometry(write(tmp_path, bad))


def test_end_knot_above_degree_plus_one_names_its_line(tmp_path):
    bad = GOOD.replace("knots_v 1 0 0 1 1", "knots_v 1 0 0 0 1 1")
    with pytest.raises(ParseError, match="line 4: invalid knot vector: .* exactly degree"):
        parse_geometry(write(tmp_path, bad))


def test_unknown_record_rejected(tmp_path):
    with pytest.raises(ParseError, match="unknown record"):
        parse_geometry(write(tmp_path, GOOD + "frobnicate 1\n"))


def test_bad_side_rejected(tmp_path):
    with pytest.raises(ParseError, match="unknown side"):
        parse_geometry(write(tmp_path, GOOD + "tag 0 up dirichlet\n"))


@pytest.mark.parametrize("pid", ["5", "-1"])
def test_tag_unknown_patch_rejected(tmp_path, pid):
    with pytest.raises(ParseError, match=f"line 14: tag references unknown patch {pid}"):
        parse_geometry(write(tmp_path, GOOD + f"tag {pid} west dirichlet\n"))


@pytest.mark.parametrize("weight, message", [
    ("0", "control-point weight must be positive"),
    ("nan", "non-finite number 'nan'"),
    ("inf", "non-finite number 'inf'"),
], ids=["0", "nan", "inf"])
def test_nonpositive_weight_rejected(tmp_path, weight, message):
    bad = GOOD.replace("cp 1 1 0 1", f"cp 1 1 0 {weight}")
    with pytest.raises(ParseError, match=f"line 9: {message}"):
        parse_geometry(write(tmp_path, bad))


@pytest.mark.parametrize("good, bad, line", [
    ("alpha 1.0", "alpha nan", 5),
    ("knots_u 1 0 0 1 1", "knots_u 1 0 0 nan 1", 3),
    ("cp 1 0 0 1", "cp 1 nan 0 1", 7),
], ids=["alpha", "knots", "coordinates"])
def test_non_finite_numbers_rejected(tmp_path, good, bad, line):
    with pytest.raises(ParseError, match=f"line {line}: non-finite number 'nan'"):
        parse_geometry(write(tmp_path, GOOD.replace(good, bad)))


@pytest.mark.parametrize("good, bad, line, text, what", [
    ("cp 1 0 0 1", "cp 1_0 0 0 1", 7, "1_0", "control point"),
    ("patch 0", "patch 0_0", 2, "0_0", "patch id"),
    ("knots_u 1 0 0 1 1", "knots_u 0_1 0 0 1 1", 3, "0_1", "degree"),
    ("cp 1 0 0 1", "cp \u0661 0 0 1", 7, "\u0661", "control point"),
    ("cp 1 1 0 1", "cp 1 1 0 \uff11.5", 9, "\uff11.5", "control point"),
], ids=["separator-coordinate", "separator-patch-id", "separator-degree", "arabic-indic",
        "fullwidth"])
def test_numbers_are_ascii_decimal(tmp_path, good, bad, line, text, what):
    # Python's int and float read these as 10, 0, 1, 1 and 1.5.
    with pytest.raises(ParseError, match=f"^line {line}: malformed number '{text}' in {what}$"):
        parse_geometry(write(tmp_path, GOOD.replace(good, bad, 1)))


@pytest.mark.parametrize("good, repeated, line", [
    ("knots_u 1 0 0 1 1", "knots_u 1 0 0 0.5 1 1", 4),
    ("knots_v 1 0 0 1 1", "knots_v 1 0 0 0.5 1 1", 5),
    ("alpha 1.0", "alpha 5", 6),
    ("tag 0 north dirichlet", "tag 0 west neumann", 14),
], ids=["knots_u", "knots_v", "alpha", "tag"])
def test_repeated_records_rejected(tmp_path, good, repeated, line):
    # The last record used to win without a message.
    bad = GOOD.replace(good, f"{good}\n{repeated}")
    with pytest.raises(ParseError, match=f"line {line}: repeated"):
        parse_geometry(write(tmp_path, bad))


@pytest.mark.parametrize("good, bad, message", [
    ("patch 0", "patch 0 1", "line 2: patch record needs exactly one id"),
    ("patch 0", "patch zero", "line 2: malformed number 'zero' in patch id"),
    ("patch 0", f"patch {10**22}", f"line 2: expected patch id 0, got {10**22}"),
    ("tag 0 west dirichlet", "tag x west dirichlet", "line 10: malformed number 'x' in patch id"),
    ("knots_u 1 0 0 1 1", "knots_u one 0 0 1 1", "line 3: malformed number 'one' in degree"),
    ("knots_v 1 0 0 1 1", "knots_v 1", "line 4: knot record needs a degree and knots"),
    ("knots_v 1 0 0 1 1", "knots_v 1 0 0 x 1", "line 4: malformed number 'x'"),
    ("alpha 1.0", "alpha 1.0 2.0", "line 5: alpha needs exactly one value"),
    ("alpha 1.0", "alpha one", "line 5: malformed number 'one'"),
    ("alpha 1.0", "alpha 0", "line 5: alpha must be positive"),
    ("cp 0 1 0 1", "cp 0 1 0", "line 8: cp needs x y z w"),
    ("tag 0 east dirichlet", "tag 0 east", "line 11: tag needs: patch side kind"),
    ("tag 0 east dirichlet", "tag 0 east robin", "line 11: unknown boundary kind 'robin'"),
    ("patch 0\n", "", "line 2: knots_u before any patch record"),
    ("knots_u 1 0 0 1 1\nknots_v 1 0 0 1 1\n", "", "line 2: patch 0 is missing knot vectors"),
], ids=["patch-arity", "patch-id", "huge-id", "tag-id", "degree", "knots-arity", "knot",
        "alpha-arity", "alpha-number", "alpha-positive", "cp-arity", "tag-arity", "tag-kind",
        "before-patch", "no-knots"])
def test_malformed_line_names_line_and_fault(tmp_path, good, bad, message):
    with pytest.raises(ParseError, match=f"^{message}"):
        parse_geometry(write(tmp_path, GOOD.replace(good, bad, 1)))


def test_out_of_order_patch_ids_rejected(tmp_path):
    bad = GOOD.replace("patch 0", "patch 1")
    with pytest.raises(ParseError, match="expected patch id 0"):
        parse_geometry(write(tmp_path, bad))


def test_empty_file_rejected(tmp_path):
    with pytest.raises(ParseError, match="no patches"):
        parse_geometry(write(tmp_path, "# nothing here\n"))


def test_serialize_preserves_bits(tmp_path):
    data = parse_geometry(data_path("qcyl4.g"))
    w = data.patches[0].basis.weights[1, 0]
    text = serialize_geometry(data)
    assert repr(w) in text or f"{w:.17g}" in text


def test_bundled_files_match_their_generator():
    import importlib.util
    from pathlib import Path

    script = Path(__file__).resolve().parent.parent / "scripts" / "make_bundled_geometries.py"
    spec = importlib.util.spec_from_file_location("make_bundled_geometries", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    texts = module.bundled_texts()
    data = Path(data_path("square4.g")).parent
    assert sorted(texts) == sorted(p.name for p in data.glob("*.g"))
    for name, text in texts.items():
        assert (data / name).read_bytes() == text.encode("utf-8"), name
