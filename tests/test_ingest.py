import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import parse_msh_nodes_line_by_line

import loop2mesh.geometry as geometry_mod
from loop2mesh.errors import (
    DegenerateDataError,
    EmptyDatasetError,
    InvalidGeometryError,
    Loop2MeshError,
    ParseError,
)
from loop2mesh.geometry import PointSet, intruders
from loop2mesh.ingest import (
    ChordTransform,
    assemble_sample,
    build_dataset,
    fit_chord,
    load_manifest,
    parse_airfoil_dat,
    parse_msh_nodes,
    upsample_target,
)

GOOD_DAT = """NACA TEST SECTION
1.000000 0.001260
0.500000 0.060000
0.000000 0.000000
0.500000 -0.048000
1.000000 -0.001260
"""

GOOD_MSH = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0.0 0.5 0.0
2 1.5 0.25 0.0
3 -1.0 0.0 7.5
4 2.0 -0.25 0.0
$EndNodes
$Elements
0
$EndElements
"""


# -------------------------------------------------------------- .dat files

class TestParseAirfoilDat:
    def test_name_line_is_skipped(self):
        ps = parse_airfoil_dat(GOOD_DAT)
        assert len(ps) == 5
        assert ps.xy[0] == pytest.approx([1.0, 0.00126])

    def test_headerless_file_parses_every_row(self):
        text = "\n".join(line for line in GOOD_DAT.splitlines()[1:]) + "\n"
        assert len(parse_airfoil_dat(text)) == 5

    def test_numeric_looking_name_line_with_three_tokens_is_header(self):
        # a line is data only when it is exactly two floats
        text = "2220 is my airfoil\n" + GOOD_DAT.split("\n", 1)[1]
        assert len(parse_airfoil_dat(text)) == 5

    def test_bad_line_error_names_one_based_line_number(self):
        bad = GOOD_DAT.replace("0.500000 -0.048000", "0.500000 oops")
        with pytest.raises(ParseError, match=r"line 5"):
            parse_airfoil_dat(bad)

    def test_wrong_token_count_after_data_starts_is_an_error(self):
        bad = GOOD_DAT.replace("0.000000 0.000000", "0.0 0.0 0.0")
        with pytest.raises(ParseError, match=r"line 4"):
            parse_airfoil_dat(bad)

    def test_non_finite_coordinates_rejected(self):
        bad = GOOD_DAT.replace("0.060000", "nan")
        with pytest.raises(ParseError):
            parse_airfoil_dat(bad)
        bad = GOOD_DAT.replace("0.060000", "inf")
        with pytest.raises(ParseError):
            parse_airfoil_dat(bad)

    def test_too_few_points_rejected(self):
        with pytest.raises(InvalidGeometryError):
            parse_airfoil_dat("name\n0.0 0.0\n1.0 0.0\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_airfoil_dat("")
        with pytest.raises(ParseError):
            parse_airfoil_dat("just a name\n")

    def test_whitespace_fuzz_never_changes_values(self):
        rng = np.random.default_rng(7)
        base = parse_airfoil_dat(GOOD_DAT)
        for _ in range(25):
            lines = []
            for line in GOOD_DAT.splitlines():
                toks = line.split()
                sep = "\t" if rng.random() < 0.3 else " " * int(rng.integers(1, 5))
                pad_l = " " * int(rng.integers(0, 4))
                pad_r = " \t"[: int(rng.integers(0, 3)) % 2]
                lines.append(pad_l + sep.join(toks) + pad_r)
                if rng.random() < 0.2:
                    lines.append("   ")  # stray blank line
            eol = "\r\n" if rng.random() < 0.5 else "\n"
            fuzzed = eol.join(lines) + (eol if rng.random() < 0.5 else "")
            got = parse_airfoil_dat(fuzzed)
            assert np.array_equal(got.xy, base.xy)


class TestChordNormalisation:
    def test_x_shifted_and_scaled_y_scaled_only(self):
        ps = PointSet([[2.0, 1.0], [4.0, -1.0], [3.0, 0.5]])
        out = fit_chord(ps).apply(ps)
        assert out.xy[:, 0] == pytest.approx([0.0, 1.0, 0.5])
        assert out.xy[:, 1] == pytest.approx([0.5, -0.5, 0.25])  # y / chord, no shift

    def test_unit_chord_input_unchanged(self):
        ps = PointSet([[0.0, 0.1], [1.0, -0.1], [0.5, 0.0]])
        assert fit_chord(ps).apply(ps).xy == pytest.approx(ps.xy)

    def test_fit_chord_transform_reusable_on_other_sets(self):
        contour = PointSet([[2.0, 0.0], [4.0, 0.2], [3.0, 1.0]])
        t = fit_chord(contour)
        assert t.x_min == pytest.approx(2.0)
        assert t.chord == pytest.approx(2.0)
        mesh = PointSet([[6.0, 2.0]])
        assert t.apply(mesh).xy[0] == pytest.approx([2.0, 1.0])

    def test_zero_chord_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_chord(PointSet([[1.0, 0.0], [1.0, 2.0]]))
        with pytest.raises(DegenerateDataError):
            ChordTransform(0.0, 0.0)


# -------------------------------------------------------------- .msh files

class TestParseMshNodes:
    def test_reads_nodes_drops_z(self):
        ps = parse_msh_nodes(GOOD_MSH)
        assert len(ps) == 4
        assert ps.xy[2] == pytest.approx([-1.0, 0.0])  # z=7.5 discarded

    def test_nodes_sorted_by_id(self):
        shuffled = GOOD_MSH.replace(
            "1 0.0 0.5 0.0\n2 1.5 0.25 0.0\n3 -1.0 0.0 7.5\n4 2.0 -0.25 0.0",
            "4 2.0 -0.25 0.0\n2 1.5 0.25 0.0\n1 0.0 0.5 0.0\n3 -1.0 0.0 7.5")
        assert np.array_equal(parse_msh_nodes(shuffled).xy, parse_msh_nodes(GOOD_MSH).xy)

    def test_count_mismatch_names_declared_and_found(self):
        bad = GOOD_MSH.replace("$Nodes\n4\n", "$Nodes\n5\n")
        with pytest.raises(ParseError, match=r"5.*4|declares 5, found 4"):
            parse_msh_nodes(bad)

    def test_missing_sections_rejected(self):
        with pytest.raises(ParseError):
            parse_msh_nodes("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        with pytest.raises(ParseError):
            parse_msh_nodes(GOOD_MSH.replace("$EndNodes", "$EndNodez"))

    def test_malformed_node_line_rejected(self):
        bad = GOOD_MSH.replace("2 1.5 0.25 0.0", "2 1.5 0.25")
        with pytest.raises(ParseError):
            parse_msh_nodes(bad)
        bad = GOOD_MSH.replace("2 1.5 0.25 0.0", "two 1.5 0.25 0.0")
        with pytest.raises(ParseError):
            parse_msh_nodes(bad)

    def test_bad_count_line_rejected(self):
        bad = GOOD_MSH.replace("$Nodes\n4\n", "$Nodes\nfour\n")
        with pytest.raises(ParseError):
            parse_msh_nodes(bad)

    def test_whitespace_fuzz_never_changes_values(self):
        rng = np.random.default_rng(13)
        base = parse_msh_nodes(GOOD_MSH)
        for _ in range(25):
            lines = []
            for line in GOOD_MSH.splitlines():
                toks = line.split()
                sep = " " * int(rng.integers(1, 4))
                lines.append(" " * int(rng.integers(0, 3)) + sep.join(toks))
            eol = "\r\n" if rng.random() < 0.5 else "\n"
            got = parse_msh_nodes(eol.join(lines) + eol)
            assert np.array_equal(got.xy, base.xy)


def _number_text(rng, value: float) -> str:
    """One of several spellings of a float that both parsers read alike."""
    value = float(value)
    form = int(rng.integers(0, 7))
    if form == 0:
        return repr(value)
    if form == 1:
        return f"{value:+.6e}"
    if form == 2:
        return f"{value:.4E}"
    if form == 3:
        return f"{value:+.3f}"
    if form == 4:
        return str(int(round(value * 10)))
    if form == 5:
        return f"{value:.3f}".replace("0.", ".", 1)
    return f"{value:.17g}"


def _random_mesh(rng) -> tuple[str, list[str]]:
    """A seeded Gmsh v2 text with shuffled (sometimes repeated) ids, CRLF or
    LF endings, blank and whitespace-only lines and ragged spacing.

    Returns the text and its node lines so a caller can corrupt one.
    """
    n = int(rng.integers(1, 40))
    ids = rng.permutation(n) + 1
    if rng.random() < 0.3:
        ids[rng.integers(0, n)] = ids[0]  # a repeated id keeps file order
    node_lines = []
    for node_id in ids:
        x, y, z = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=3)
        tokens = [f"{'+' if rng.random() < 0.2 else ''}{node_id}",
                  _number_text(rng, x), _number_text(rng, y), _number_text(rng, z)]
        seps = [" " * int(rng.integers(1, 4)) if rng.random() < 0.8 else "\t" for _ in range(3)]
        line = tokens[0] + "".join(s + t for s, t in zip(seps, tokens[1:]))
        node_lines.append(" " * int(rng.integers(0, 3)) + line + " " * int(rng.integers(0, 2)))
    return _gmsh_text(rng, node_lines, n), node_lines


def _gmsh_text(rng, node_lines, declared, end_nodes=True) -> str:
    body = []
    for line in node_lines:
        if rng.random() < 0.1:
            body.append(" \t " if rng.random() < 0.5 else "")
        body.append(line)
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", " $Nodes", f" {declared} ", *body]
    if end_nodes:
        lines.append("$EndNodes ")
    lines += ["$Elements", "0", "$EndElements"]
    eol = "\r\n" if rng.random() < 0.5 else "\n"
    return eol.join(lines) + eol


def _both_raise(text) -> tuple[str, str]:
    with pytest.raises(ParseError) as new:
        parse_msh_nodes(text)
    with pytest.raises(ParseError) as old:
        parse_msh_nodes_line_by_line(text)
    return str(new.value), str(old.value)


class TestParseMshNodesAgainstLineByLineOracle:
    """The one-call parser reads every mesh like the line-at-a-time oracle."""

    def test_random_meshes_parse_bit_equal(self):
        rng = np.random.default_rng(20261018)
        for _ in range(300):
            text, _ = _random_mesh(rng)
            got = parse_msh_nodes(text).xy
            want = parse_msh_nodes_line_by_line(text)
            assert got.tobytes() == want.tobytes(), text

    @pytest.mark.parametrize("kind", [
        "too few tokens", "too many tokens", "float id", "word id", "exponent id",
        "word x", "double dot y", "hex y", "word z", "nan x", "inf y", "overflow x",
        "minus infinity y", "comment",
    ])
    def test_malformed_line_names_the_same_line(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(20):
            _, node_lines = _random_mesh(rng)
            row = int(rng.integers(0, len(node_lines)))
            node_id, x, y, z = node_lines[row].split()
            node_lines[row] = {
                "too few tokens": f"{node_id} {x} {y}",
                "too many tokens": f"{node_id} {x} {y} {z} 0",
                "float id": f"{node_id}.0 {x} {y} {z}",
                "word id": f"n{node_id} {x} {y} {z}",
                "exponent id": f"{node_id}e0 {x} {y} {z}",
                "word x": f"{node_id} abc {y} {z}",
                "double dot y": f"{node_id} {x} 1..2 {z}",
                "hex y": f"{node_id} {x} 0x10 {z}",
                "word z": f"{node_id} {x} {y} zz",
                "nan x": f"{node_id} nan {y} {z}",
                "inf y": f"{node_id} {x} +inf {z}",
                "overflow x": f"{node_id} 1e999 {y} {z}",
                "minus infinity y": f"{node_id} {x} -Infinity {z}",
                "comment": f"{node_id} {x} {y} {z} # note",
            }[kind]
            text = _gmsh_text(rng, node_lines, len(node_lines))
            new, old = _both_raise(text)
            assert new == old
            assert new.startswith("line ")

    def test_first_bad_line_wins_in_file_order(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            _, node_lines = _random_mesh(rng)
            if len(node_lines) < 2:
                continue
            a, b = sorted(rng.choice(len(node_lines), size=2, replace=False))
            kinds = ["{} nan 0 0", "{} 0 0", "{} x 0 0"]
            rng.shuffle(kinds)
            node_lines[a] = kinds[0].format(a + 1)
            node_lines[b] = kinds[1].format(b + 1)
            new, old = _both_raise(_gmsh_text(rng, node_lines, len(node_lines)))
            assert new == old

    def test_extreme_spellings_parse_bit_equal(self):
        spellings = ["1e-400", "4.9e-324", "2.2250738585072011e-308", "1.7976931348623157e308",
                     "-0", "-0.0", "0.1", "123456789012345678901234567890", "1E5", "+.5e-3",
                     "0.30000000000000004", "9007199254740993", "   7   "]
        lines = [f"{i + 1} {x.strip()} {y.strip()} 0"
                 for i, (x, y) in enumerate(zip(spellings, reversed(spellings)))]
        text = GOOD_MSH.split("$Nodes")[0] + "$Nodes\n" + f"{len(lines)}\n" + "\n".join(lines) + "\n$EndNodes\n"
        assert parse_msh_nodes(text).xy.tobytes() == parse_msh_nodes_line_by_line(text).tobytes()

    def test_non_finite_z_is_accepted_by_both(self):
        text = GOOD_MSH.replace("3 -1.0 0.0 7.5", "3 -1.0 0.0 nan")
        assert parse_msh_nodes(text).xy.tobytes() == parse_msh_nodes_line_by_line(text).tobytes()

    def test_block_level_errors_match(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            _, node_lines = _random_mesh(rng)
            n = len(node_lines)
            cases = [
                _gmsh_text(rng, node_lines, n, end_nodes=False),   # runs into $Elements
                _gmsh_text(rng, node_lines, n + 1),
                _gmsh_text(rng, node_lines, n - 1),
                _gmsh_text(rng, [], 0),
                _gmsh_text(rng, [], 0, end_nodes=False),
                "$Nodes\n" + "\n".join(node_lines) + "\n",     # count line is a node line
                "$Nodes\n" + f"{n}\n" + "\n".join(node_lines),  # file ends inside the block
                "$Nodes",
                "no nodes here\n",
            ]
            for text in cases:
                new, old = _both_raise(text)
                assert new == old

    @pytest.mark.parametrize("spelling", ["1_0", "\u0661"])
    def test_python_only_number_forms_are_rejected(self, spelling):
        """``int``/``float`` accept underscores and non-ASCII digits; the
        one-call parser does not, and names the line instead."""
        text = GOOD_MSH.replace("2 1.5 0.25 0.0", f"2 {spelling} 0.25 0.0")
        assert len(parse_msh_nodes_line_by_line(text)) == 4
        with pytest.raises(ParseError, match="^line 7: malformed node line"):
            parse_msh_nodes(text)

    def test_id_beyond_int64_is_rejected(self):
        text = GOOD_MSH.replace("2 1.5 0.25 0.0", f"{2**63} 1.5 0.25 0.0")
        with pytest.raises(ParseError, match="^line 7: malformed node line"):
            parse_msh_nodes(text)


# --------------------------------------------------------------- upsampling

class TestUpsampleTarget:
    def test_downsample_returns_sorted_unique_subset(self):
        ps = PointSet(np.arange(20, dtype=float).reshape(10, 2))
        out = upsample_target(ps, 6, seed=0)
        assert len(out) == 6
        rows = {tuple(r) for r in ps.xy}
        assert all(tuple(r) in rows for r in out.xy)
        xs = out.xy[:, 0]
        assert np.all(np.diff(xs) > 0)  # original order kept => strictly increasing here

    def test_upsample_keeps_every_original_point(self):
        ps = PointSet([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        out = upsample_target(ps, 8, seed=1)
        assert len(out) == 8
        assert np.array_equal(out.xy[:3], ps.xy)
        rows = {tuple(r) for r in ps.xy}
        assert all(tuple(r) in rows for r in out.xy[3:])

    def test_exact_count_is_identity(self):
        ps = PointSet([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        assert np.array_equal(upsample_target(ps, 3, seed=5).xy, ps.xy)

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(2)
        ps = PointSet(rng.normal(size=(30, 2)))
        a = upsample_target(ps, 11, seed=9)
        b = upsample_target(ps, 11, seed=9)
        c = upsample_target(ps, 11, seed=10)
        assert np.array_equal(a.xy, b.xy)
        assert not np.array_equal(a.xy, c.xy)


# ----------------------------------------------------------- dataset build

def _square_contour_text() -> str:
    # diamond-ish hexagon around [0,1]x[-0.25,0.25]; valid chord-normalised loop
    return ("hex\n1.0 0.0\n0.75 0.2\n0.25 0.25\n0.0 0.0\n0.25 -0.25\n0.75 -0.2\n")


def _mesh_text(nodes: np.ndarray) -> str:
    body = "\n".join(f"{i + 1} {x} {y} 0.0" for i, (x, y) in enumerate(nodes))
    return f"$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n{len(nodes)}\n{body}\n$EndNodes\n"


class TestAssembleSample:
    def test_happy_path_counts(self):
        contour = parse_airfoil_dat(_square_contour_text())
        rng = np.random.default_rng(0)
        nodes = PointSet(rng.uniform([-1.0, -1.5], [2.0, 1.5], size=(300, 2)))
        sample = assemble_sample("hex", contour, nodes, loop_size=6,
                                 target_count=120, seed=0)
        assert sample.name == "hex"
        assert len(sample.loop) == 6
        assert len(sample.target) == 120

    def test_interior_mesh_nodes_dropped_with_warning(self, caplog):
        contour = parse_airfoil_dat(_square_contour_text())
        rng = np.random.default_rng(1)
        outside = rng.uniform([1.5, 0.5], [3.0, 1.5], size=(100, 2))
        inside = np.full((5, 2), [0.5, 0.0])  # dead center of the hexagon
        nodes = PointSet(np.vstack([outside, inside]))
        with caplog.at_level(logging.WARNING, logger="loop2mesh.ingest"):
            sample = assemble_sample("hex", contour, nodes, loop_size=6,
                                     target_count=60, seed=0)
        assert any("5" in rec.message for rec in caplog.records)
        assert len(sample.target) == 60
        from loop2mesh.geometry import points_in_polygon
        assert points_in_polygon(sample.target.xy, sample.loop).sum() == 0

    def test_all_interior_nodes_is_degenerate(self):
        contour = parse_airfoil_dat(_square_contour_text())
        nodes = PointSet(np.tile([[0.5, 0.0]], (10, 1)))
        with pytest.raises(DegenerateDataError):
            assemble_sample("hex", contour, nodes, loop_size=6, target_count=5, seed=0)


class TestBuildDatasetAndManifest:
    def test_build_from_manifest(self, manifest_path):
        ds = build_dataset(load_manifest(manifest_path), loop_size=35,
                           target_count=200, seed=0)
        assert ds.loop_size == 35
        assert ds.target_count == 200
        assert [s.name for s in ds.samples] == ["naca2220", "naca4412"]
        for s in ds.samples:
            assert len(s.loop) == 35
            assert len(s.target) == 200

    def test_one_edge_kernel_call_per_section(self, manifest_path, monkeypatch):
        # assemble_sample drops intruding nodes once; the sample is not checked again
        calls = []

        def counting(points, vertices):
            calls.append(len(points))
            return intruders(points, vertices)

        monkeypatch.setattr(geometry_mod, "intruders", counting)
        build_dataset(load_manifest(manifest_path), loop_size=35, target_count=200, seed=0)
        assert calls == [1, 1]

    def test_per_sample_seeds_differ(self, tmp_path):
        # two identical entries must not produce identical upsampling picks
        dat = tmp_path / "a.dat"
        msh = tmp_path / "a.msh"
        dat.write_text(_square_contour_text())
        rng = np.random.default_rng(3)
        nodes = rng.uniform([1.2, -1.0], [3.0, 1.0], size=(50, 2))
        msh.write_text(_mesh_text(nodes))
        entries = [("first", dat, msh), ("second", dat, msh)]
        ds = build_dataset(entries, loop_size=6, target_count=80, seed=0)
        assert not np.array_equal(ds.samples[0].target.xy, ds.samples[1].target.xy)
        assert np.array_equal(ds.samples[0].loop.vertices, ds.samples[1].loop.vertices)

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            build_dataset([], loop_size=6, target_count=10, seed=0)

    def test_missing_file_error_names_path(self, tmp_path):
        dat = tmp_path / "a.dat"
        dat.write_text(_square_contour_text())
        entries = [("x", dat, tmp_path / "missing.msh")]
        with pytest.raises(OSError, match="missing.msh"):
            build_dataset(entries, loop_size=6, target_count=10, seed=0)

    def test_parse_error_prefixed_with_path(self, tmp_path):
        dat = tmp_path / "bad.dat"
        dat.write_text("name\n0.0 zero\n1.0 0.0\n0.5 0.5\n")
        msh = tmp_path / "a.msh"
        msh.write_text(GOOD_MSH)
        with pytest.raises(ParseError, match="bad.dat"):
            build_dataset([("x", dat, msh)], loop_size=3, target_count=4, seed=0)

    def test_load_manifest_resolves_relative_paths(self, tmp_path):
        sub = tmp_path / "deep"
        sub.mkdir()
        (sub / "c.dat").write_text(_square_contour_text())
        (sub / "c.msh").write_text(GOOD_MSH)
        man = sub / "manifest.json"
        man.write_text(json.dumps([{"name": "c", "dat": "c.dat", "msh": "c.msh"}]))
        entries = load_manifest(man)
        assert entries[0][0] == "c"
        assert entries[0][1] == sub / "c.dat"
        assert entries[0][2] == sub / "c.msh"

    def test_load_manifest_rejects_bad_documents(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            load_manifest(p)
        p.write_text(json.dumps({"name": "x"}))
        with pytest.raises(ParseError):
            load_manifest(p)
        p.write_text(json.dumps([{"name": "x", "dat": "a.dat"}]))  # msh missing
        with pytest.raises(ParseError):
            load_manifest(p)


# ----------------------------------------------------------- fuzzed input

FUZZ_SETTINGS = settings(max_examples=300, deadline=None, database=None, derandomize=True)
TOKENS = st.one_of(
    st.floats().map(repr), st.integers(-3, 2 ** 70).map(str),
    st.sampled_from(["nan", "-inf", "1e999", "+.5", "1_0", "0x1p3", "$Nodes", "$EndNodes", ""]),
    st.text(max_size=5))
EOLS = st.sampled_from(["\n", "\r\n", "\r"])
NODE_LINES = st.one_of(
    st.tuples(st.integers(-2, 9), st.floats(), st.floats(), st.floats()).map(
        lambda node: " ".join(map(repr, node))),
    st.lists(TOKENS, max_size=5).map(" ".join))


def fuzzed_text(lines):
    """Lines joined by one line ending, or any text at all."""
    joined = st.tuples(EOLS, st.lists(lines, max_size=12)).map(lambda t: t[0].join(t[1]))
    return st.one_of(joined, st.text(max_size=120))


@st.composite
def msh_texts(draw):
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes",
             draw(st.one_of(st.integers(-1, 9).map(str), TOKENS)), *draw(st.lists(NODE_LINES))]
    if draw(st.booleans()):
        lines.append("$EndNodes")
    return draw(EOLS).join(lines)


# file names in a manifest: files in its directory, the directory itself, a
# missing file, or any name without a separator (a NUL, an unpaired surrogate)
MANIFEST_PATHS = st.one_of(
    st.sampled_from(["good.dat", "good.msh", "bad.dat", "missing.msh", "", ".", "a\0b", "\ud800",
                     7, None]),
    st.text(st.characters(exclude_characters="/\\", exclude_categories=()), max_size=8))
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
MANIFEST_RECORDS = st.fixed_dictionaries(
    {"name": st.text(max_size=4), "dat": MANIFEST_PATHS, "msh": MANIFEST_PATHS},
    optional={"extra": JSON_VALUES})
MANIFEST_TEXTS = st.one_of(
    st.lists(MANIFEST_RECORDS, min_size=1, max_size=3).map(json.dumps),
    st.lists(st.one_of(MANIFEST_RECORDS, JSON_VALUES), max_size=3).map(json.dumps),
    JSON_VALUES.map(json.dumps),
    st.sampled_from(["[" * 5000, "[" + "1" * 5000 + "]", '{"a": 1', "[]"]),
    st.text(max_size=60))


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzzed_manifest")
    (d / "good.dat").write_text(_square_contour_text())
    nodes = np.random.default_rng(5).uniform([1.2, -1.0], [3.0, 1.0], size=(50, 2))
    (d / "good.msh").write_text(_mesh_text(nodes))
    (d / "bad.dat").write_text("name\n0.0 zero\n")
    return d


class TestFuzzedInputRaisesOnlyPackageErrors:
    """Malformed input ends in a Loop2MeshError, which the command line turns
    into its exit code, never in a traceback."""

    @FUZZ_SETTINGS
    @given(fuzzed_text(st.lists(TOKENS, max_size=3).map(" ".join)))
    def test_dat(self, text):
        try:
            parse_airfoil_dat(text)
        except Loop2MeshError:
            pass

    @FUZZ_SETTINGS
    @given(st.one_of(msh_texts(), fuzzed_text(NODE_LINES)))
    def test_msh(self, text):
        try:
            parse_msh_nodes(text)
        except Loop2MeshError:
            pass

    @FUZZ_SETTINGS
    @given(MANIFEST_TEXTS)
    def test_manifest(self, manifest_dir, text):
        path = manifest_dir / "manifest.json"
        path.write_text(text)
        try:
            build_dataset(load_manifest(path), loop_size=6, target_count=20, seed=0)
        except (Loop2MeshError, OSError):  # OSError: a name that is no readable file
            pass
