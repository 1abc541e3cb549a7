"""The input readers: whole-array parsing against the readers it replaced,
and corrupted graph files through every subcommand that reads them.

`load_edge_list` and `load_features_csv` parse a file in one pass of numpy's
C reader and fall back to their line readers (`graphs._edge_lines`,
`graphs._feature_lines`) only when that pass refuses the file or a rule
fails; with a numpy older than 2.4, where that pass's parity was never
checked, the line readers read every file. Files drawn from near-miss tokens
(`+1`, `01`, `1_000`, Arabic-Indic digits, `1e3`, 2**63, `nan`, `1e400`,
subnormals, padded cells) and line shapes (CRLF, blank, whitespace-only and
tab-only lines, trailing tabs, ragged rows, an empty file) must give the
same bytes or the same message both ways. `splits._edge_array` and `generator.load_samples` are held to the
loops they replaced in `readers_reference.py` the same way.

Corrupted `edges.tsv` and `features.csv` files, truncated or with one byte
replaced, go through every subcommand that reads them: each exits 2 when the
graph files no longer parse and 5 when they parse to other edges than
`split.json` holds, with no traceback. Corrupted `split.json` and
`samples.json` files go through every subcommand that reads them the same
way: each exits with the code of the error its reader raises, 2 or 5, with a
message naming the file and no traceback. So do corrupted checkpoints and
`--config` files: each exits 2 with a message naming the file.
"""

import json
import math
import os
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from counterlink import generator, graphs, splits
from counterlink.cli import build_parser, merge_config
from counterlink.errors import ConfigError, CounterlinkError, InputError, ValidationError
from counterlink.synth import SyntheticGraphSpec, synth_graph, write_graph_files
from readers_reference import edge_array_reference, load_samples_reference
from test_cli import TUNE_FLAGS, pretrained_dirs, run_child
from test_pair_rules import run_cli

# Tokens next to the grammar's edge: some both readers take, some only int()
# or float() takes (the line reader then accepts), some neither takes.
NEAR_IDS = ["+1", "01", "-0", "-1", "1_000", "١", "１", " 1 ", "1\x0c", "\xa02",
            "1\x1c", "1\u0761", "1.0", "1e3", str(2**31), str(2**63 - 1), str(2**63),
            "nan", "inf", "True", "", "0x1", "\r"]
NEAR_FLOATS = ["+1", "01", "1_000", "١", "١.٥", " 1 ", "1.0", "1e3", ".5", "5.",
               "nan", "-nan", "inf", "-inf", "infinity", "1e400", "-1e400", "1e-400", "-0.0",
               "5e-324", "2.2250738585072e-308", "0x1p3", "1d5", "1,5", "", "\x0c", "\r",
               "1.5j", "1\x1f", "\u0761"]
SHAPES = ["", "  ", "\t", " \t ", "\x0b"]  # lines both readers must skip or refuse


@st.composite
def text_files(draw, clean, near, delimiter, width):
    """A file of clean rows, then up to three mutations (none in two draws
    of five): a cell replaced by a near-miss token, a row made ragged, a row
    given a trailing delimiter, or a line inserted from SHAPES; lines end in
    LF or CRLF, the last one with or without its end."""
    w = draw(width)
    rows = [[draw(clean) for _ in range(w)] for _ in range(draw(st.integers(0, 5)))]
    lines = [None] * len(rows)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        kind = draw(st.sampled_from(["cell", "ragged", "trailing", "shape"]))
        if kind == "shape" or not rows:
            at = draw(st.integers(0, len(rows)))
            rows.insert(at, [])
            lines.insert(at, draw(st.sampled_from(SHAPES)))
            continue
        r = draw(st.integers(0, len(rows) - 1))
        if lines[r] is not None or not rows[r]:
            continue
        if kind == "cell":
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(st.sampled_from(near))
        elif kind == "ragged":
            rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + [draw(clean)]
        else:
            lines[r] = delimiter.join(rows[r]) + delimiter
    text = [delimiter.join(row) if line is None else line for row, line in zip(rows, lines)]
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in text]
    body = "".join(t + e for t, e in zip(text, ends))
    if text and draw(st.booleans()):
        body = body[: -len(ends[-1])]
    return body


edge_files = text_files(st.integers(0, 30).map(str), NEAR_IDS, "\t", st.just(2))
floats = st.floats(allow_nan=False, allow_infinity=False)
feature_files = text_files(floats.map(repr), NEAR_FLOATS, ",", st.integers(1, 3))


def write_text(directory, name, text):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def outcome(fn, *args):
    """An InputError's text, or the returned array's dtype, shape and bytes."""
    try:
        x = fn(*args)
    except InputError as exc:
        return "error", str(exc)
    return "array", x.dtype.str, x.shape, x.tobytes()


def both_ways(loader, line_reader, name, text):
    """(loader's outcome, the line reader's, whether the loader used it)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_text(tmp, name, text)
        with mock.patch.object(graphs, line_reader, wraps=getattr(graphs, line_reader)) as spy:
            got = outcome(loader, path)
        want = outcome(getattr(graphs, line_reader), path, graphs._read_text(path))
    return got, want, spy.called


class TestWholeArrayMatchesLineReaders:
    @settings(max_examples=300, deadline=None)
    @given(edge_files)
    def test_edge_list(self, text):
        got, want, fell_back = both_ways(graphs.load_edge_list, "_edge_lines", "edges.tsv", text)
        event("line reader" if fell_back else "whole array")
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(feature_files)
    def test_features(self, text):
        got, want, fell_back = both_ways(graphs.load_features_csv, "_feature_lines",
                                         "x.csv", text)
        event("line reader" if fell_back else "whole array")
        assert got == want

    @pytest.mark.parametrize("text", [
        "0\t1\n1\t2\n", "+1\t02\r\n3\t4", " 1 \t 2 \n\n3\t4\n", "1\t2\x0c\n", "-0\t5\n",
        f"0\t{2**31 - 1}\n",
    ])
    def test_edge_lists_numpy_takes_skip_the_line_reader(self, text):
        got, want, fell_back = both_ways(graphs.load_edge_list, "_edge_lines", "edges.tsv", text)
        assert got == want and got[0] == "array" and fell_back is not graphs._ARRAY_PASS

    @pytest.mark.parametrize("text", [
        "1.5,2\n", "1e-320,-0.0\r\n.5,5.\n", " 1.5 , 2 \n\n", "1e308,-1e308\n", "7\n8\n9",
        "0.1,0.2,0.30000000000000004\n",
    ])
    def test_feature_files_numpy_takes_skip_the_line_reader(self, text):
        got, want, fell_back = both_ways(graphs.load_features_csv, "_feature_lines",
                                         "x.csv", text)
        assert got == want and got[0] == "array" and fell_back is not graphs._ARRAY_PASS

    @pytest.mark.parametrize("loader,line_reader,name,text", [
        (graphs.load_edge_list, "_edge_lines", "edges.tsv", "0\t1\n1\t2\n"),
        (graphs.load_features_csv, "_feature_lines", "x.csv", "1.5,2\n"),
    ])
    def test_numpy_before_2_4_reads_every_file_by_line(self, monkeypatch, loader,
                                                      line_reader, name, text):
        monkeypatch.setattr(graphs, "_ARRAY_PASS", False)
        got, want, fell_back = both_ways(loader, line_reader, name, text)
        assert got == want and got[0] == "array" and fell_back

    @pytest.mark.parametrize("text,message", [
        ("0\t1\n\n1\t1\n", "edges.tsv: rejected 1 line(s): line 3: self-loop"),
        ("0\t1\n1\t0\n", "edges.tsv: rejected 1 line(s): line 2: duplicate of line 1"),
        ("0\t1\n2\t-3\n", "edges.tsv:2: negative node id"),
        ("0\t1\n2\n", "edges.tsv:2: expected 'u<TAB>v', got '2'"),
        ("", None),
        ("1_000\t2\n١\t3\n", None),
        (f"0\t{2**63 - 1}\n", None),
    ])
    def test_what_numpy_refuses_the_line_reader_decides(self, text, message):
        got, want, fell_back = both_ways(graphs.load_edge_list, "_edge_lines", "edges.tsv", text)
        assert got == want and fell_back
        assert got[0] == "array" if message is None else got[1].endswith(message)

    @pytest.mark.parametrize("loader,line_reader,name,text", [
        (graphs.load_edge_list, "_edge_lines", "edges.tsv", "1\x1c\t0\n0\t2\n"),
        (graphs.load_edge_list, "_edge_lines", "edges.tsv", "0\t\x1f2\n"),
        (graphs.load_edge_list, "_edge_lines", "edges.tsv", "1\u0761\t2\n"),
        (graphs.load_features_csv, "_feature_lines", "x.csv", "1.5\x1d,2\n"),
        (graphs.load_features_csv, "_feature_lines", "x.csv", "1.5,\x1e2\n"),
    ])
    def test_what_numpy_misreads_the_line_reader_refuses(self, loader, line_reader, name,
                                                         text):
        # numpy's reader strips \x1c-\x1f inside a cell and reads U+0761 as a
        # digit; int() and float() refuse both.
        got, want, fell_back = both_ways(loader, line_reader, name, text)
        assert got == want and fell_back and got[0] == "error"

    def test_synth_files_skip_the_line_readers(self, tmp_path, monkeypatch):
        g = synth_graph(SyntheticGraphSpec("sbm", 200, blocks=4, p_in=0.1, p_out=0.01,
                                           feature_mode="degree-onehot:8"))
        edges, feats = tmp_path / "edges.tsv", tmp_path / "features.csv"
        write_graph_files(g, edges, feats)
        spies = {name: mock.Mock(wraps=getattr(graphs, name))
                 for name in ("_edge_lines", "_feature_lines")}
        for name, spy in spies.items():
            monkeypatch.setattr(graphs, name, spy)
        loaded = graphs.load_graph(edges, feats)
        assert [spy.called for spy in spies.values()] == [not graphs._ARRAY_PASS] * 2
        assert loaded.edges().tobytes() == g.edges().tobytes()
        assert loaded.features.tobytes() == g.features.tobytes()


ends = st.one_of(st.integers(-1, 4), st.integers(-1, 4), st.booleans(),
                 st.sampled_from([1.0, 2**63, 2**64, "1", None]))
pair_entries = st.one_of(st.integers(-1, 6), st.integers(-1, 6), st.booleans(),
                         st.sampled_from([1.0, 0.5, 2**63, 2**64, -2**63 - 1, None, "1"]))
pair_lists = st.one_of(
    st.lists(st.one_of(st.lists(pair_entries, min_size=2, max_size=2),
                       st.lists(pair_entries, min_size=2, max_size=2),
                       st.lists(pair_entries, max_size=3)), max_size=6),
    st.sampled_from([[], "ab", 5, None, {}, [[]], [[[1, 2]]]]),
)


class TestEdgeArrayMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(pair_lists)
    def test_same_array_or_same_error(self, rows):
        def run(fn):
            try:
                x = fn(rows, 5, "train_pos")
            except (TypeError, ValueError) as exc:
                return type(exc), str(exc)
            return x.dtype.str, x.shape, x.tobytes()

        assert run(splits._edge_array) == run(edge_array_reference)


probabilities = st.one_of(
    st.floats(0, 1), st.floats(0, 1),
    st.sampled_from([0, 1, 2, -3, 7.5, -0.0, 1e-320, "0.5", True, False, None, [0.5],
                     float("nan"), float("inf"), 10**400]))
valid_edges = st.tuples(st.integers(0, 3), st.integers(0, 3), st.floats(0, 1)).map(list)
edge_entries = st.one_of(
    valid_edges, valid_edges, valid_edges, st.tuples(ends, ends, probabilities).map(list),
    st.lists(ends, max_size=4), st.sampled_from(["abc", 5, None, {"a": 1, "b": 2, "c": 3}]))
records = st.fixed_dictionaries(
    {"block_size": st.one_of(st.just(4), st.just(4), st.sampled_from([1, 5, 0, 99, True, 2.0])),
     "label": st.integers(0, 1),
     "target": st.one_of(st.just([0, 1]), st.sampled_from([[0], [0, 4], [0.5, 1], "ab"])),
     "gamma": st.floats(0, 1),
     "edges": st.one_of(st.lists(edge_entries, max_size=6), st.lists(valid_edges, max_size=6),
                        st.sampled_from(["", {}, None, 3, "ab", []]))},
).flatmap(lambda rec: st.sampled_from([rec, rec, rec, {k: v for k, v in rec.items()
                                                       if k != "edges"}]))
sample_docs = st.one_of(
    st.fixed_dictionaries({"samples": st.lists(records, max_size=4)}),
    st.sampled_from([[], {"records": []}, {"samples": {"a": 1}}, {"samples": "ab"}]))


class TestLoadSamplesMatchesReference:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sample_docs)
    def test_same_records_or_same_error(self, doc):
        def run(fn, path):
            try:
                recs = fn(path, 5)
            except ValidationError as exc:
                return str(exc)
            return [{**r, "adjacency": r["adjacency"].tobytes()} for r in recs]

        with tempfile.TemporaryDirectory() as tmp:
            path = write_text(tmp, "samples.json", json.dumps(doc))
            got = run(generator.load_samples, path)
            want = run(load_samples_reference, path)
        assert got == want


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Pipeline dirs with a graph, its split, both pre-trained models and an
    empty sample dump."""
    d, _ = pretrained_dirs(tmp_path_factory.mktemp("ingest"))
    (d["tuned"] / "samples.json").write_text(json.dumps({"samples": []}))
    return d


def sample_dump(rng, blocks):
    """A samples.json body as generator.dump_samples writes it: blocks of 3
    to 6 nodes, each with its upper-triangle edges and their probabilities."""
    records = []
    for b in range(blocks):
        m = int(rng.integers(3, 7))
        iu, ju = np.triu_indices(m, 1)
        keep = rng.random(iu.size) < 0.5
        records.append({"block_size": m, "label": b % 2, "target": [0, 1], "gamma": 0.5,
                        "edges": [[int(i), int(j), float(rng.uniform(0.5, 1.0))]
                                  for i, j in zip(iu[keep], ju[keep])]})
    return json.dumps({"samples": records}).encode()


READERS = ("split", "pretrain-gnn", "pretrain-ggm", "flex-tune", "eval", "analyze", "sweep")


def stage_args(d, command, edges, feats, out):
    """argv running command on the given graph files and the pipeline's other
    artifacts, with the smallest budgets."""
    args = [command, "--edges", edges, "--features", feats]
    if command != "split":
        args += ["--split", d["split"] / "split.json"]
    ckpts = ["--gnn-ckpt", d["gnn"] / "gnn.ckpt", "--ggm-ckpt", d["ggm"] / "ggm.ckpt"]
    args += {
        "split": ["--heuristic", "CN", "--direction", "backward", "--t1", 2, "--t2", 1],
        "pretrain-gnn": ["--epochs", 1, "--patience", 1, "--hidden", 8, "--eval-k", 3],
        "pretrain-ggm": ["--epochs", 1, "--patience", 1, "--noise-dim", 4, "--num-psi", 1],
        "flex-tune": [*ckpts, *TUNE_FLAGS],
        "eval": ["--ckpt", d["gnn"] / "gnn.ckpt", "--k", 3],
        "analyze": ["--samples", d["tuned"] / "samples.json"],
        "sweep": [*ckpts, *TUNE_FLAGS, "--grid", 0.5, "--seeds", 0],
    }[command]
    return args + ["--out", out]


# Replacement bytes: not UTF-8, a NUL, a letter, each delimiter, a sign, a
# point, a space, an exponent and two digits.
REPLACEMENTS = b"\xff\x00x\t,\n-. e90"


@st.composite
def corruptions(draw, size, replacements=REPLACEMENTS):
    """(cut, at, byte): the file truncated to cut bytes, or with the byte at
    `at` replaced by one of replacements."""
    if draw(st.booleans()):
        return draw(st.integers(0, size - 1)), None, None
    return None, draw(st.integers(0, size - 1)), draw(st.sampled_from(replacements))


class TestCorruptedGraphFilesThroughEveryReader:
    """Each corruption either leaves files the graph reader refuses (every
    subcommand exits 2 with that reader's message) or files of other edges
    than split.json holds (every subcommand that reads the split exits 5). A
    corruption that leaves the same edges, or that `split` could split,
    would let the stage run, and is not drawn."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(data=st.data())
    def test_exit_2_or_5_without_a_traceback(self, pipeline, data):
        name = data.draw(st.sampled_from(["edges.tsv", "features.csv"]), label="file")
        raw = (pipeline["graph"] / name).read_bytes()
        cut, at, byte = data.draw(corruptions(len(raw)), label="corruption")
        bad = raw[:cut] if at is None else raw[:at] + bytes([byte]) + raw[at + 1:]
        assume(bad != raw)
        with tempfile.TemporaryDirectory() as tmp:
            paths = {n: pipeline["graph"] / n for n in ("edges.tsv", "features.csv")}
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "wb") as fh:
                fh.write(bad)
            edges, feats = paths["edges.tsv"], paths["features.csv"]
            try:
                g = graphs.load_graph(edges, feats)
            except InputError as exc:
                want, message = 2, f"error: {exc}\n"
            else:
                same = graphs.load_graph(pipeline["graph"] / "edges.tsv",
                                         pipeline["graph"] / "features.csv")
                assume(not np.array_equal(g.edges(), same.edges()))
                want, message = 5, "split.json: "
            event(f"exit {want}")
            for command in READERS[want == 5:]:
                code, err = run_cli(stage_args(pipeline, command, edges, feats,
                                               os.path.join(tmp, command)))
                assert code == want, (command, err)
                assert message in err

    @pytest.mark.parametrize("name,command,want", [
        ("edges.tsv", "flex-tune", 5), ("features.csv", "sweep", 2)])
    def test_in_a_child_process(self, pipeline, tmp_path, name, command, want):
        # The edge list loses its last line, so the split holds a positive
        # that is no longer an edge; the feature file is cut inside its
        # second row.
        paths = {n: pipeline["graph"] / n for n in ("edges.tsv", "features.csv")}
        raw = paths[name].read_bytes()
        paths[name] = tmp_path / name
        paths[name].write_bytes(raw[: raw.rstrip(b"\n").rfind(b"\n") + 1] if want == 5
                                else raw[: raw.find(b"\n") + 4])
        code, err = run_child(stage_args(pipeline, command, paths["edges.tsv"],
                                         paths["features.csv"], tmp_path / "out"))
        assert code == want, err
        assert str(paths[name] if want == 2 else "split.json") in err
        assert "Traceback" not in err


# Replacement bytes for the JSON files: not UTF-8, a NUL, a letter, JSON's
# punctuation, a sign, a point, a space, an exponent and three digits.
JSON_REPLACEMENTS = b'\xff\x00x"[]{},:-. e901'
# Who reads each JSON artifact, after the graph.
JSON_READERS = {"split.json": READERS[1:], "samples.json": ("analyze",)}


def json_args(d, command, paths, out):
    """stage_args on the pipeline's graph, with the split and samples paths given."""
    args = stage_args(d, command, d["graph"] / "edges.tsv", d["graph"] / "features.csv", out)
    args[args.index("--split") + 1] = paths["split.json"]
    if command == "analyze":
        args[args.index("--samples") + 1] = paths["samples.json"]
    return args


def reader_error(d, paths, name):
    """The error the file's own reader raises, or None if it reads the file."""
    graph = graphs.load_graph(d["graph"] / "edges.tsv", d["graph"] / "features.csv")
    try:
        if name == "split.json":
            splits.load_split(paths[name], graph)
        else:
            generator.load_samples(paths[name], graph.num_nodes)
    except CounterlinkError as exc:
        return exc
    return None


class TestCorruptedJsonFilesThroughEveryReader:
    """Each corruption of split.json or samples.json that its reader refuses
    makes every subcommand that reads the file exit with that error's code (2
    for a split spec its config rejects, else 5) and a message naming the
    file. A corruption the reader takes is a valid file, and is not drawn."""

    @pytest.fixture(scope="class")
    def files(self, pipeline, tmp_path_factory):
        dump = tmp_path_factory.mktemp("dump") / "samples.json"
        dump.write_bytes(sample_dump(np.random.default_rng(0), 3))
        return {"split.json": pipeline["split"] / "split.json", "samples.json": dump}

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(data=st.data())
    def test_exit_2_or_5_without_a_traceback(self, pipeline, files, data):
        name = data.draw(st.sampled_from(sorted(JSON_READERS)), label="file")
        raw = files[name].read_bytes()
        cut, at, byte = data.draw(corruptions(len(raw), JSON_REPLACEMENTS), label="corruption")
        bad = raw[:cut] if at is None else raw[:at] + bytes([byte]) + raw[at + 1:]
        with tempfile.TemporaryDirectory() as tmp:
            paths = {**files, name: os.path.join(tmp, name)}
            with open(paths[name], "wb") as fh:
                fh.write(bad)
            exc = reader_error(pipeline, paths, name)
            assume(exc is not None)
            event(f"{name} exit {exc.exit_code}")
            for command in JSON_READERS[name]:
                code, err = run_cli(json_args(pipeline, command, paths,
                                              os.path.join(tmp, command)))
                assert code == exc.exit_code in (2, 5), (command, err)
                assert err == f"error: {exc}\n" and name in err, command

    @pytest.mark.parametrize("old,new", [(b'"CN"', b'"Cx"'), (b'"backward"', b'"bxckward"')])
    def test_spec_its_config_rejects_is_2(self, pipeline, files, tmp_path, old, new):
        # The spec is about 1% of the file, so the fuzz seldom lands there.
        raw = files["split.json"].read_bytes()
        assert raw.count(old) == 1
        paths = {**files, "split.json": tmp_path / "split.json"}
        paths["split.json"].write_bytes(raw.replace(old, new))
        for command in JSON_READERS["split.json"]:
            code, err = run_cli(json_args(pipeline, command, paths, tmp_path / command))
            assert code == 2, (command, err)
            assert err.startswith(f"error: {paths['split.json']}: ") and new.decode()[1:-1] in err

    @pytest.mark.parametrize("name,command", [("split.json", "flex-tune"),
                                              ("samples.json", "analyze")])
    def test_in_a_child_process(self, pipeline, files, tmp_path, name, command):
        # The split is cut inside its pair lists; the dump's first "[" after
        # its first record's edges key becomes "{".
        raw = files[name].read_bytes()
        at = raw.index(b"[", raw.index(b'"edges"'))
        paths = {**files, name: tmp_path / name}
        paths[name].write_bytes(raw[: len(raw) // 2] if name == "split.json"
                                else raw[:at] + b"{" + raw[at + 1:])
        code, err = run_child(json_args(pipeline, command, paths, tmp_path / "out"))
        assert code == 5, err
        assert name in err and "Traceback" not in err


def framing(raw):
    """Offsets of every byte of a checkpoint except its arrays' float values:
    the magic, version and count, each array's name, rank and shape, and the
    closing flag."""
    (count,) = struct.unpack_from("<I", raw, 12)
    at, keep = 16, list(range(16))
    for _ in range(count):
        (size,) = struct.unpack_from("<H", raw, at)
        ndim = raw[at + 2 + size]
        head = 3 + size + 8 * ndim
        keep += range(at, at + head)
        at += head + 8 * math.prod(struct.unpack_from(f"<{ndim}q", raw, at + 3 + size))
    return keep + [at]


# Who reads each checkpoint, after the graph and the split.
CKPT_READERS = {"gnn.ckpt": ("eval", "flex-tune", "sweep"), "ggm.ckpt": ("flex-tune", "sweep")}
# Replacement bytes for a checkpoint: not UTF-8, a NUL, a one, a letter that
# turns one entry name into another, a letter, a point and two digits.
CKPT_REPLACEMENTS = b"\xff\x00\x01bx.09"


def ckpt_args(d, command, paths, out):
    """stage_args on the pipeline's graph, with the checkpoint paths given."""
    args = stage_args(d, command, d["graph"] / "edges.tsv", d["graph"] / "features.csv", out)
    for flag, name in (("--gnn-ckpt", "gnn.ckpt"), ("--ggm-ckpt", "ggm.ckpt"),
                       ("--ckpt", "gnn.ckpt")):
        if flag in args:
            args[args.index(flag) + 1] = paths[name]
    return args


class TestCorruptedCheckpointsThroughEveryReader:
    """A checkpoint truncated anywhere, or with one byte of its framing
    replaced, makes every subcommand that reads it exit 2 with a message
    naming the file. A changed float value is not drawn: the format holds no
    checksum, so it reads as another model."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_exit_2_naming_the_file(self, pipeline, data):
        name = data.draw(st.sampled_from(sorted(CKPT_READERS)), label="file")
        raw = (pipeline[name[:3]] / name).read_bytes()
        if data.draw(st.booleans(), label="truncate"):
            bad = raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")]
        else:
            at = data.draw(st.sampled_from(framing(raw)), label="at")
            byte = data.draw(st.sampled_from(CKPT_REPLACEMENTS).filter(lambda b: b != raw[at]),
                             label="byte")
            bad = raw[:at] + bytes([byte]) + raw[at + 1:]
        with tempfile.TemporaryDirectory() as tmp:
            paths = {n: pipeline[n[:3]] / n for n in CKPT_READERS}
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "wb") as fh:
                fh.write(bad)
            for command in CKPT_READERS[name]:
                code, err = run_cli(ckpt_args(pipeline, command, paths,
                                              os.path.join(tmp, command)))
                assert code == 2, (command, err)
                assert err.startswith(f"error: {paths[name]}: "), (command, err)

    @pytest.mark.parametrize("name,command", [("gnn.ckpt", "eval"), ("ggm.ckpt", "flex-tune")])
    def test_in_a_child_process(self, pipeline, tmp_path, name, command):
        # The predictor is cut inside its first array; the generator's first
        # array name, ggm.b_in, becomes ggm.x_in.
        raw = (pipeline[name[:3]] / name).read_bytes()
        paths = {n: pipeline[n[:3]] / n for n in CKPT_READERS}
        paths[name] = tmp_path / name
        paths[name].write_bytes(raw[:40] if name == "gnn.ckpt"
                                else raw.replace(b"ggm.b_in", b"ggm.x_in"))
        code, err = run_child(ckpt_args(pipeline, command, paths, tmp_path / "out"))
        assert code == 2, err
        assert str(paths[name]) in err and "Traceback" not in err


# A config file with a section for every subcommand, each value of its
# flag's type.
CONFIG = {
    "synth": {"family": "sbm", "n": 60, "p_in": 0.5},
    "split": {"heuristic": "CN", "t1": 3.0},
    "pretrain-gnn": {"epochs": 30, "hidden": 8, "full_adjacency_eval": False},
    "pretrain-ggm": {"noise_dim": 4, "lr": 0.01},
    "flex-tune": {"gamma": 0.5, "tau": None},
    "eval": {"k": 3},
    "analyze": {"out": "analysis"},
    "sweep": {"grid": "0.5,0.9", "seeds": "0,1"},
}


def config_error(parser, command, path):
    """The error merge_config raises for command's section of the file, or None."""
    try:
        merge_config(command, parser.parse_args([command, "--config", path]))
    except ConfigError as exc:
        return exc
    return None


class TestCorruptedConfigThroughEveryReader:
    """A --config file truncated, or with one byte replaced, makes every
    subcommand whose section merge_config refuses exit 2 with that message,
    which names the file. A corruption every subcommand reads is a valid
    config, and is not drawn."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(data=st.data())
    def test_exit_2_naming_the_file(self, data):
        parser = build_parser()
        raw = json.dumps(CONFIG, indent=1).encode()
        cut, at, byte = data.draw(corruptions(len(raw), JSON_REPLACEMENTS), label="corruption")
        bad = raw[:cut] if at is None else raw[:at] + bytes([byte]) + raw[at + 1:]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.json")
            with open(path, "wb") as fh:
                fh.write(bad)
            refused = {c: exc for c in CONFIG if (exc := config_error(parser, c, path))}
            assume(refused)
            for command, exc in refused.items():
                code, err = run_cli([command, "--config", path, "--out",
                                     os.path.join(tmp, command)])
                assert code == 2, (command, err)
                assert err == f"error: {exc}\n" and path in err, (command, err)

    def test_in_a_child_process(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(CONFIG)[:50])
        code, err = run_child(["sweep", "--config", path, "--out", tmp_path / "out"])
        assert code == 2, err
        assert str(path) in err and "Traceback" not in err
