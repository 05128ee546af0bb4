from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import random
import re
import tempfile
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netstrength
from conftest import graphs
from netstrength import datasets
from netstrength.datasets import (
    EdgeListFile,
    GeneratorSpec,
    bundled_eval_path,
    csv_text,
    generate,
    graph_path,
    load_edge_list,
    read_rows,
    save_edge_list,
    write_suite,
)
from netstrength.evaluation import (
    load_predictions_csv,
    load_ranked_gt_csv,
    load_strength_gt_csv,
    load_strength_values_csv,
)
from netstrength.graph import Graph, components
from netstrength.metrics import load_weights
from netstrength.weights import load_survey_csv


def labeled_edges(g: Graph) -> set[frozenset[str]]:
    return {frozenset((g.label(u), g.label(v))) for u, v in g.edges}


class TestGeneratorSpec:
    def test_gnp_bounds(self):
        with pytest.raises(ValueError):
            GeneratorSpec(model="gnp", n=5, p=1.5)
        with pytest.raises(ValueError):
            GeneratorSpec(model="gnp", n=2, p=0.5)

    def test_gnm_bounds(self):
        with pytest.raises(ValueError):
            GeneratorSpec(model="gnm", n=5, m=100)
        GeneratorSpec(model="gnm", n=5, m=10)  # C(5,2) edges is fine

    def test_model_params_do_not_mix(self):
        with pytest.raises(ValueError):
            GeneratorSpec(model="gnp", n=5, p=0.5, m=3)
        with pytest.raises(ValueError):
            GeneratorSpec(model="gnm", n=5, m=3, p=0.5)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            GeneratorSpec(model="barabasi", n=5, p=0.5)


class TestGenerate:
    def test_gnp_extremes(self):
        empty = generate(GeneratorSpec(model="gnp", n=10, p=0.0, seed=1))[0]
        assert empty.edge_count == 0
        full = generate(GeneratorSpec(model="gnp", n=10, p=1.0, seed=1))[0]
        assert full.edge_count == 45

    def test_gnm_exact_edge_count(self):
        for g in generate(GeneratorSpec(model="gnm", n=8, m=5, seed=42,
                                        count=10)):
            assert g.n == 8
            assert g.edge_count == 5

    def test_same_seed_same_graphs(self):
        spec = GeneratorSpec(model="gnm", n=8, m=5, seed=42, count=4)
        assert generate(spec) == generate(spec)
        gnp = GeneratorSpec(model="gnp", n=9, p=0.3, seed=7, count=4)
        assert generate(gnp) == generate(gnp)

    def test_different_seeds_differ(self):
        a = generate(GeneratorSpec(model="gnp", n=12, p=0.5, seed=1))[0]
        b = generate(GeneratorSpec(model="gnp", n=12, p=0.5, seed=2))[0]
        assert a != b

    def test_graphs_within_a_suite_are_independent(self):
        suite = generate(GeneratorSpec(model="gnp", n=10, p=0.5, seed=3,
                                       count=6))
        assert len({g.edges for g in suite}) > 1

    def test_gnp_edge_count_statistics(self):
        n, p = 10, 0.3
        pairs = math.comb(n, 2)
        total = 0
        for seed in range(1000):
            total += generate(
                GeneratorSpec(model="gnp", n=n, p=p, seed=seed)
            )[0].edge_count
        mean = total / 1000
        sigma_one = math.sqrt(pairs * p * (1 - p) / 1000)
        assert abs(mean - pairs * p) <= 3 * sigma_one


class TestGnmSampling:
    """G(n, m) draws pair indices and decodes them; the graphs are those of
    sampling the list of ``combinations`` pairs with the same stream."""

    @staticmethod
    def reference(n: int, m: int, seed: int) -> Graph:
        rng = random.Random(seed)
        return Graph.build(n, rng.sample(list(combinations(range(n), 2)), m))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 12, 30, 58, 141])
    def test_same_graphs_as_sampling_the_pair_list(self, n):
        pairs = math.comb(n, 2)
        for m in sorted({0, 1, 2, 10, pairs // 3, pairs - 1, pairs}):
            if 0 <= m <= pairs:
                for seed in range(4):
                    assert datasets._gnm(n, m, random.Random(seed)) == (
                        self.reference(n, m, seed)
                    ), (n, m, seed)

    def test_memory_does_not_grow_with_the_pair_count(self):
        # the pair list of n = 20,000 would hold about 2 * 10^8 tuples
        tracemalloc.start()
        try:
            g = datasets._gnm(20_000, 10, random.Random(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edge_count == 10
        assert peak < 256 * 1024


class TestEdgeListParsing:
    def test_basic_path(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 2\n")
        g = load_edge_list(path)
        assert g.n == 3
        assert g.edge_count == 2
        assert g.labels == ("0", "1", "2")

    def test_duplicates_and_self_loops_counted(self):
        parsed = EdgeListFile.parse_lines(
            ["a b", "b a", "a b", "c c", "b c"]
        )
        assert parsed.duplicate_count == 2
        assert parsed.self_loop_count == 1
        assert labeled_edges(parsed.graph) == {
            frozenset(("a", "b")), frozenset(("b", "c"))
        }
        assert parsed.graph.labels == ("a", "b", "c")

    def test_comments_and_blanks_ignored(self):
        parsed = EdgeListFile.parse_lines(
            ["# a comment", "", "  ", "x y", "# another"]
        )
        assert parsed.graph.labels == ("x", "y")

    def test_malformed_line_reports_number(self):
        with pytest.raises(ValueError) as excinfo:
            EdgeListFile.parse_lines(["a b", "a b c"])
        assert str(excinfo.value) == (
            "<edge list>:2: expected two labels, got 3"
        )

    def test_unknown_directive_rejected(self):
        with pytest.raises(ValueError, match="^<edge list>:1: unknown "):
            EdgeListFile.parse_lines(["#! frobnicate x"])

    def test_node_directive_preserves_isolates(self):
        g = EdgeListFile.parse_lines(["#! node lone", "a b"]).graph
        assert g.n == 3
        assert g.label(0) == "lone"

    def test_plain_node_comment_is_not_a_directive(self):
        # only "#!" marks a directive; "# node ..." stays a comment
        parsed = EdgeListFile.parse_lines(["# node counts follow", "a b"])
        assert parsed.graph.labels == ("a", "b")

    def test_first_appearance_ordering(self):
        g = EdgeListFile.parse_lines(["b c", "a b"]).graph
        assert g.labels == ("b", "c", "a")
        assert labeled_edges(g) == {
            frozenset(("b", "c")), frozenset(("a", "b"))
        }


def reference_parse_lines(lines, source=None):
    """The label-level edge-list reader of earlier versions, as a
    reference: ``(labels, edges, duplicate_count, self_loop_count)``."""
    labels = []
    seen = set()
    edges = []
    edge_keys = set()
    duplicates = 0
    self_loops = 0

    def register(label):
        if label not in seen:
            seen.add(label)
            labels.append(label)

    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#!"):
            tokens = line[2:].split()
            if len(tokens) != 2 or tokens[0] != "node":
                raise ValueError(
                    f"{source or '<edge list>'}:{line_no}: unknown "
                    f"directive {line!r}"
                )
            register(tokens[1])
            continue
        if line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(
                f"{source or '<edge list>'}:{line_no}: expected two "
                f"labels, got {len(tokens)}"
            )
        u, v = tokens
        if u == v:
            self_loops += 1
            register(u)
            continue
        register(u)
        register(v)
        key = frozenset((u, v))
        if key in edge_keys:
            duplicates += 1
            continue
        edge_keys.add(key)
        edges.append((u, v))
    return tuple(labels), tuple(edges), duplicates, self_loops


def parse_outcome(parse, lines, source):
    """What a reader makes of ``lines``: its labels, labelled edge set and
    dropped-line counts, or its error."""
    try:
        result = parse(lines, source)
    except ValueError as error:
        return type(error), str(error)
    if isinstance(result, EdgeListFile):
        return (result.graph.labels, labeled_edges(result.graph),
                result.duplicate_count, result.self_loop_count)
    labels, edges, duplicates, self_loops = result
    return labels, set(map(frozenset, edges)), duplicates, self_loops


LABEL = st.sampled_from(["a", "b", "c", "d", "#x"])
GAP = st.sampled_from([" ", "\t", "  "])
NEUTRAL_LINE = st.one_of(
    LABEL.map("#! node {}".format),
    LABEL.map("#!node {}\n".format),
    st.sampled_from(["", "  ", "\n", "# comment", "#", "#nodea"]),
)
BAD_LINE = st.sampled_from(
    ["#!", "#! node", "#! node a b", "#! frob a", "#!nodea", "a", "a b c"]
)


@st.composite
def edge_list_lines(draw):
    """Edge lines and self-loops, some pairs again either way round,
    directives, comments and blanks, and at most one malformed line, in
    any order."""
    pairs = draw(st.lists(st.tuples(LABEL, LABEL), max_size=8))
    if pairs:
        again = st.tuples(st.sampled_from(pairs), st.booleans())
        pairs += [(v, u) if flip else (u, v)
                  for (u, v), flip in draw(st.lists(again, max_size=6))]
    lines = [f" {u}{draw(GAP)}{v}\n" for u, v in pairs]
    lines += draw(st.lists(NEUTRAL_LINE, max_size=4))
    lines += draw(st.lists(BAD_LINE, max_size=1))
    return draw(st.permutations(lines))


class TestParseReference:
    @settings(max_examples=500, deadline=None)
    @given(lines=edge_list_lines(), source=st.sampled_from([None, "g.edges"]))
    def test_matches_the_reference_reader(self, lines, source):
        expected = parse_outcome(reference_parse_lines, lines, source)
        assert parse_outcome(EdgeListFile.parse_lines, lines, source) == (
            expected
        )


class TestLoadGraphById:
    @pytest.mark.parametrize(
        "graph_id", ["", ".", "..", "../g", "a/b", os.sep + "g"]
    )
    def test_id_must_be_one_path_component(self, tmp_path, graph_id):
        # refused before any lookup, so a missing directory never shows
        with pytest.raises(ValueError, match="not one path component"):
            graph_path(tmp_path / "missing", graph_id)


class TestLoaderErrors:
    """Every loader names ``file:line`` for a bad value on line 3."""

    @pytest.mark.parametrize("load, text", [
        (lambda p: load_survey_csv(p, p.parent),
         "graph_id,participant_id,estimate\ng1,p1,1\ng1,p2,x\n"),
        (load_strength_gt_csv, "graph_id,mean_estimate\ng1,1\ng2,x\n"),
        (load_strength_values_csv, "graph_id,value\ng1,0.5\ng2,x\n"),
        (load_predictions_csv, "graph_id,members\ng1,a\ng2,;\n"),
        (load_ranked_gt_csv,
         "graph_id,rank,members,vote_share\ng1,1,a,0.5\ng1,x,b,0.5\n"),
        (load_weights, "size,weight\n1,0.5\n2,x\n"),
        (load_edge_list, "a b\nb c\na b c\n"),
        # Python reads these as numbers; a CSV cell does not mean them
        (load_weights, "size,weight\n1,0.5\n2,0_7\n"),
        (load_weights, "size,weight\n1,0.5\n\u0662,0.7\n"),
        (lambda p: load_survey_csv(p, p.parent),
         "graph_id,participant_id,estimate\ng1,p1,1\ng1,p2,2_5\n"),
        (lambda p: load_survey_csv(p, p.parent),
         "graph_id,participant_id,estimate\ng1,p1,1\ng1,p2,\u0662\n"),
        (load_strength_gt_csv, "graph_id,mean_estimate\ng1,1\ng2,\uff11\n"),
        (load_ranked_gt_csv,
         "graph_id,rank,members\ng1,1,a\ng1,1_0,b\n"),
    ], ids=["survey", "strength_gt", "strength_values", "predictions",
            "ranked_gt", "weights", "edge_list", "weights-separator",
            "weights-arabic-indic-size", "survey-separator",
            "survey-arabic-indic", "strength_gt-fullwidth",
            "ranked_gt-separator"])
    def test_bad_cell_names_file_and_line(self, tmp_path, load, text):
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            load(path)
        assert str(excinfo.value).startswith(f"{path}:3:")


    @pytest.mark.parametrize("load, text", [
        (lambda p: load_survey_csv(p, p.parent),
         "graph_id,participant_id,estimate,extra\ng1,p1,1,x\ng1,p2,5,7,8\n"),
        (load_strength_gt_csv, "graph_id,mean_estimate\ng1,1\ng2,2,3\n"),
        (load_predictions_csv, "graph_id,members\ng1,a\ng2,b,c\n"),
        (load_weights, "size,weight\n1,0.5\n2,0.5,0.5\n"),
    ], ids=["survey", "strength_gt", "predictions", "weights"])
    def test_long_row_names_file_and_line(self, tmp_path, load, text):
        # csv.DictReader files the surplus cells under the key None, where
        # they used to be dropped without a word
        path = tmp_path / "input.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as excinfo:
            load(path)
        header_width = len(text.split("\n")[0].split(","))
        assert str(excinfo.value) == (
            f"{path}:3: row has 1 cell(s) more than the {header_width}-column "
            f"header"
        )


    @pytest.mark.parametrize("load, text, column", [
        (lambda p: load_survey_csv(p, p.parent),
         "graph_id,participant_id,estimate,estimate\ng1,p1,1,2\n",
         "estimate"),
        (load_strength_gt_csv,
         "graph_id,mean_estimate,mean_estimate\ng1,5,7\n", "mean_estimate"),
        (load_strength_values_csv, "value,graph_id,value\n0.5,g1,0.9\n",
         "value"),
        (load_predictions_csv, "graph_id,members,graph_id\ng1,a,g2\n",
         "graph_id"),
        (load_ranked_gt_csv,
         "graph_id,rank,members,vote_share,rank\ng1,1,a,50,2\n", "rank"),
        (load_weights, "size,weight,weight\n1,0.5,0.9\n", "weight"),
    ], ids=["survey", "strength_gt", "strength_values", "predictions",
            "ranked_gt", "weights"])
    def test_repeated_column_names_file(self, tmp_path, load, text, column):
        # csv.DictReader keeps the last cell of a repeated column
        path = tmp_path / "input.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as excinfo:
            load(path)
        assert str(excinfo.value) == (
            f"{path}: column {column!r} appears twice in the header"
        )

    def test_trailing_commas_leave_empty_names(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("size,weight,,\n1,0.5,,\n")
        assert load_weights(path).weights == (0.5,)


_CSV_LOADERS = [
    (lambda p: load_survey_csv(p, p.parent),
     "graph_id,participant_id,estimate\ng1,p1,1\ng1,p2,2\n"),
    (load_strength_gt_csv, "graph_id,mean_estimate\ng1,1\ng2,2\n"),
    (load_strength_values_csv, "graph_id,value\ng1,0.5\ng2,0.25\n"),
    (load_predictions_csv, "graph_id,members\ng1,a\ng2,b;c\n"),
    (load_ranked_gt_csv, "graph_id,rank,members,vote_share\ng1,1,a,50\n"),
    (load_weights, "size,weight\n1,0.5\n2,0.25\n"),
]
_CSV_IDS = ["survey", "strength_gt", "strength_values", "predictions",
            "ranked_gt", "weights"]


class TestEncoding:
    """Both text readers take UTF-8 with or without a byte-order mark, and
    name ``file:line`` for a byte that is not UTF-8."""

    BOM = b"\xef\xbb\xbf"

    def test_bom_edge_list_is_the_same_graph(self, tmp_path):
        path = tmp_path / "t.edges"
        path.write_bytes(self.BOM + b"a b\nb c\nc a\n")
        g = load_edge_list(path)
        assert (g.n, g.labels, components(g)) == (3, ("a", "b", "c"),
                                                          (3,))

    @pytest.mark.parametrize("load, text", _CSV_LOADERS, ids=_CSV_IDS)
    def test_bom_csv_loads_as_without(self, tmp_path, load, text):
        save_edge_list(Graph.build(3, [(0, 1), (1, 2)]), tmp_path / "g1.edges")
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(self.BOM + text.encode())
        assert load(marked) == load(plain)

    @pytest.mark.parametrize("load, text", _CSV_LOADERS + [
        (load_edge_list, "a b\nb c\n"),
    ], ids=_CSV_IDS + ["edge_list"])
    def test_latin1_byte_names_file_and_line(self, tmp_path, load, text):
        path = tmp_path / "input.txt"
        path.write_bytes(text.encode() + b"g\xe9,1\n")
        with pytest.raises(ValueError) as excinfo:
            load(path)
        assert str(excinfo.value) == (
            f"{path}:{text.count(chr(10)) + 1}: not UTF-8: byte 0xe9 in "
            f"column 2"
        )

    def test_line_found_past_the_decoder_buffer(self, tmp_path):
        # the decoder reads in chunks, so its own offset is not the file's
        path = tmp_path / "long.edges"
        path.write_bytes(b"a b\n" * 5000 + b"c \xff\n")
        with pytest.raises(ValueError, match=(
            rf"^{re.escape(str(path))}:5001: not UTF-8: byte 0xff in "
            r"column 3$"
        )):
            load_edge_list(path)


class TestLineEndings:
    """``\\r\\n`` and lone ``\\r`` line ends read exactly like ``\\n``,
    in edge lists (directives and comments included) and in every CSV."""

    EDGES = "# comment\n#! node z\na b\n\nb c\n  # indented\nc a\na b\n"

    @staticmethod
    def write(path: Path, text: str, end: str) -> Path:
        path.write_bytes(text.replace("\n", end).encode())
        return path

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_edge_list_reads_as_with_lf(self, tmp_path, end):
        lf = self.write(tmp_path / "lf.edges", self.EDGES, "\n")
        other = self.write(tmp_path / "other.edges", self.EDGES, end)
        with open(lf, encoding="utf-8") as handle:
            expected = EdgeListFile.parse_lines(handle)
        assert EdgeListFile.parse(other) == expected
        assert expected.graph.labels == ("z", "a", "b", "c")
        assert expected.duplicate_count == 1
        assert load_edge_list(other) == load_edge_list(lf)

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("load, text", _CSV_LOADERS, ids=_CSV_IDS)
    def test_csv_reads_as_with_lf(self, tmp_path, load, text, end):
        save_edge_list(Graph.build(3, [(0, 1), (1, 2)]), tmp_path / "g1.edges")
        lf = self.write(tmp_path / "lf.csv", text, "\n")
        other = self.write(tmp_path / "other.csv", text, end)
        assert load(other) == load(lf)

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("load, text", [
        (load_weights, "size,weight\n1,0.5\n2,x\n"),
        (load_edge_list, "a b\nb c\na b c\n"),
        (load_weights, "size,weight\n1,0.5\n2,0.\xe9\n"),
        (load_edge_list, "a b\nb c\nc \xe9\xff\n"),
    ], ids=["weights", "edge_list", "weights_latin1", "edge_list_latin1"])
    def test_errors_name_the_same_line(self, tmp_path, load, text, end):
        path = tmp_path / "input.txt"
        path.write_bytes(text.replace("\n", end).encode("latin-1"))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: "):
            load(path)


class TestRoundTrip:
    def test_save_load_preserves_labeled_structure(self, tmp_path):
        g = Graph.build(
            6, [(0, 3), (1, 2)], labels=["n0", "n1", "n2", "n3", "n4", "n5"]
        )
        path = tmp_path / "g.edges"
        save_edge_list(g, path)
        again = load_edge_list(path)
        assert again.n == g.n
        assert set(again.labels) == set(g.labels)
        assert labeled_edges(again) == labeled_edges(g)

    @pytest.mark.parametrize("labels", [
        ("#a", "b", "c"),  # read back as a comment
        ("x", "x", "y"),  # merged into one node
        ("a b", "c", "d"),
        ("", "c", "d"),
    ])
    def test_labels_that_would_not_read_back_are_rejected(
        self, tmp_path, labels
    ):
        g = Graph.build(3, [(0, 1), (1, 2)], labels=labels)
        path = tmp_path / "g.edges"
        with pytest.raises(ValueError, match=re.escape(repr(labels[0]))):
            save_edge_list(g, path)
        assert not path.exists()

    def test_edgeless_graph_round_trips(self, tmp_path):
        g = Graph.build(4, [])
        path = tmp_path / "iso.edges"
        save_edge_list(g, path)
        again = load_edge_list(path)
        assert again.n == 4
        assert again.edge_count == 0

    def test_generated_suite_round_trips(self, tmp_path):
        for index, g in enumerate(generate(
            GeneratorSpec(model="gnp", n=12, p=0.1, seed=5, count=5)
        )):
            path = tmp_path / f"g{index}.edges"
            save_edge_list(g, path)
            again = load_edge_list(path)
            assert again.n == g.n
            assert set(again.labels) == set(map(g.label, range(g.n)))
            assert labeled_edges(again) == labeled_edges(g)

    @given(graphs(max_n=14))
    def test_arbitrary_graphs_round_trip(self, g: Graph):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.edges"
            save_edge_list(g, path)
            again = load_edge_list(path)
        assert again.n == g.n
        assert set(again.labels) == set(map(g.label, range(g.n)))
        assert labeled_edges(again) == labeled_edges(g)


def writer_corpus():
    """Seeded suites at n = 12, 20, 40 and 58, sparse enough to leave
    isolated nodes, and the same graphs under shuffled text labels."""
    rng = random.Random(13)
    for n in (12, 20, 40, 58):
        for spec in (
            GeneratorSpec(model="gnp", n=n, p=3 / n, seed=n, count=4),
            GeneratorSpec(model="gnm", n=n, m=n // 2, seed=n, count=4),
        ):
            for g in generate(spec):
                yield g
                names = rng.sample(range(10 * n), n)
                yield Graph(g.n, g.edges, tuple(f"v{i}" for i in names))
    yield Graph.build(0, [])
    yield Graph.build(5, [], labels="edcba")


class TestWriterDigest:
    """The bytes ``save_edge_list`` writes for the writer corpus, hashed
    into one pinned SHA-256."""

    DIGEST = (
        "357b28f4fce2694aa659308f6c440dced58b7e20e9241887db0002ba33747a9f"
    )

    def test_written_bytes_match_pinned_digest(self, tmp_path):
        digest = hashlib.sha256()
        path = tmp_path / "g.edges"
        for g in writer_corpus():
            save_edge_list(g, path)
            digest.update(path.read_bytes() + b"\0")
        assert digest.hexdigest() == self.DIGEST


class TestOneCsvWriterAndReader:
    """Every CSV table the package writes goes through ``csv_text`` and
    every one it reads through ``read_rows``: a second ``csv.writer`` or
    ``csv.DictReader`` would bring back its own formatting rules."""

    SOURCES = sorted(Path(netstrength.__file__).parent.glob("*.py"))

    def test_one_writer_and_one_reader(self):
        text = "".join(p.read_text(encoding="utf-8") for p in self.SOURCES)
        assert text.count("csv.writer(") == 1
        assert text.count("csv.DictReader(") == 1
        assert "csv.writer(" in inspect.getsource(csv_text)
        assert "csv.DictReader(" in inspect.getsource(read_rows)

    def test_every_text_file_opens_in_one_newline_mode(self):
        assert list(inspect.signature(datasets._read_text).parameters) == [
            "path"
        ]
        source = inspect.getsource(datasets)
        assert source.count('newline=""') == 1
        assert 'newline=""' in inspect.getsource(datasets._read_text)

    def test_only_datasets_imports_csv_and_io(self):
        importers = [
            p.name for p in self.SOURCES
            if re.search(r"^\s*(import|from) (csv|io)\b",
                         p.read_text(encoding="utf-8"), re.M)
        ]
        assert importers == ["datasets.py"]


class TestWriteSuite:
    def test_files_and_manifest(self, tmp_path):
        spec = GeneratorSpec(model="gnp", n=10, p=0.2, seed=7, count=5)
        paths = write_suite(spec, tmp_path, stem="demo")
        assert [p.name for p in paths] == [
            f"demo_{i}.edges" for i in range(5)
        ]
        manifest = json.loads((tmp_path / "demo_manifest.json").read_text())
        assert manifest["model"] == "gnp"
        assert manifest["p"] == 0.2
        assert manifest["seed"] == 7
        assert manifest["files"] == [p.name for p in paths]

    @pytest.mark.parametrize("spec, text", [
        (GeneratorSpec(model="gnp", n=10, p=0.2, seed=7, count=2),
         '{\n  "count": 2,\n  "files": [\n    "s_0.edges",\n    "s_1.edges"'
         '\n  ],\n  "model": "gnp",\n  "n": 10,\n  "p": 0.2,\n  "seed": 7\n}'
         '\n'),
        (GeneratorSpec(model="gnm", n=9, m=0, seed=13),
         '{\n  "count": 1,\n  "files": [\n    "s_0.edges"\n  ],\n  "m": 0,'
         '\n  "model": "gnm",\n  "n": 9,\n  "seed": 13\n}\n'),
    ], ids=["gnp", "gnm"])
    def test_manifest_bytes(self, tmp_path, spec, text):
        write_suite(spec, tmp_path, stem="s")
        assert (tmp_path / "s_manifest.json").read_bytes() == text.encode()

    @pytest.mark.parametrize("stem", ["../x", "a/b", "{tmp}/x"])
    def test_stem_must_be_one_path_component(self, tmp_path, stem):
        spec = GeneratorSpec(model="gnm", n=9, m=7, seed=13, count=2)
        stem = stem.format(tmp=tmp_path)
        with pytest.raises(
            ValueError, match=re.escape(f"graph id '{stem}_0' is not one")
        ):
            write_suite(spec, tmp_path / "out", stem=stem)
        assert list(tmp_path.iterdir()) == []  # out_dir is not made either

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        spec = GeneratorSpec(model="gnm", n=9, m=7, seed=13, count=3)
        first = tmp_path / "a"
        second = tmp_path / "b"
        write_suite(spec, first)
        write_suite(spec, second)
        for name in ("graph_0.edges", "graph_1.edges", "graph_2.edges",
                     "graph_manifest.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestBundledFixtures:
    def test_known_fixture_resolves(self):
        path = bundled_eval_path("single_gt.csv")
        assert path.exists()

    def test_unknown_fixture_lists_alternatives(self):
        with pytest.raises(FileNotFoundError, match="single_gt.csv"):
            bundled_eval_path("missing.csv")
