"""The ``ITGR`` v3 image: what it stores, what still loads, what it refuses.

v3 stores the scatter index — ``piece_row`` per piece into an image-wide
values table — where v2 stored cuts only and every process rebuilt the
dicts on first touch.  Three things are pinned here:

*equality* — on every surrogate dataset and on seeded generated graphs
(open-ended lifespans, ``None`` / float / tuple values, values that are
equal but print differently) the encoder's columns equal the retained
derivation (``_derive_piece_rows``, which is also what binds a v2 image),
every edge's ``PieceIndex`` from a v2 bind and from a dumped-and-mapped v3
image agree in cuts, values, label order and sharing, both answer
``pieces()`` as the heap index does, one SSSP leaves the same states and
counters on all three graphs, and the degree accessors equal the lengths
of the edge lists on heap, compact and window;

*compatibility* — a v2 image written by the parent commit's encoder
(``data/parent_v2.itgr2``) keeps loading, and is byte for byte what the v3
encoder's output is without its four new sections and digest;

*the boundary* — a malformed image fails typed, at bind where the section
table can show it and from the first reader that walks off a column where
it cannot; a digest mismatch is refused on request; 500 seeded mutants
never surface a ``TypeError`` / ``IndexError`` or hang.
"""

import hashlib
import json
import random
import time
from pathlib import Path

import pytest

from repro import api
from repro.algorithms import default_source, default_target
from repro.algorithms.td.sssp import TemporalSSSP
from repro.core.engine import IcmProgramError
from repro.core.interval import FOREVER
from repro.datasets import SURROGATES, load_surrogate, transit_graph
from repro.errors import GraphFormatError
from repro.graph import TemporalGraphBuilder
from repro.graph.compact import CompactGraph
from repro.graph.compact_writer import _derive_piece_rows
from repro.runtime.checkpoint import graph_fingerprint

from ._reference_impls import sections_of, v2_image
from .test_text_loader import make_case, sssp

DATA = Path(__file__).parent / "data"
GENERATED = 12


def _printed_differently():
    """Equal values that print differently, under one label and across
    edges: ``1`` / ``1.0`` / ``True``, ``0.0`` / ``-0.0``, ``(1,)`` / ``(1.0,)``."""
    b = TemporalGraphBuilder()
    b.add_vertices(["a", "b", "c"], 0, FOREVER)
    b.add_edge("a", "b", 0, 12, props={
        "w": [(0, 2, 1), (2, 4, 1.0), (4, 6, True), (6, 8, 1), (9, 12, None)],
        "z": [(1, 10, (1,))],
    })
    b.add_edge("b", "c", 2, FOREVER, props={
        "z": [(2, 9, (1.0,)), (9, FOREVER, -0.0)], "w": [(4, 6, 0.0), (6, 7, 1)],
    })
    b.add_edge("c", "a", 1, 4)
    b.add_edge("a", "c", 0, 12, props={"w": [(0, 12, 1)], "z": [(0, 12, (1,))]})
    return b.build()


def _graphs():
    yield "transit", transit_graph()
    for name in sorted(SURROGATES):
        yield name, load_surrogate(name, scale=0.3)
    yield "printed-differently", _printed_differently()
    for case in range(GENERATED):
        seed, graph = make_case(case)
        yield f"seed {seed:#x}", graph


GRAPHS = dict(_graphs())


def _sharing(graph, indexes):
    """Which ``values`` slots hold the same object, graph-wide."""
    seen = {}
    return [[seen.setdefault(id(d), len(seen)) for d in index.values] for index in indexes]


def _pieces(index, span):
    return [(iv, list(values.items())) for iv, values in index.pieces(span.start, span.end)]


# -- equality ------------------------------------------------------------------


@pytest.mark.parametrize("name", GRAPHS)
def test_v2_bind_and_mapped_v3_hold_the_heap_index(name, tmp_path, stores):
    heap = GRAPHS[name]
    frozen = CompactGraph.from_temporal(heap)
    path = tmp_path / "graph.itgr"
    frozen.dump(path)
    mapped = CompactGraph.load(path, verify=True)
    derived = CompactGraph.from_bytes(v2_image(frozen.to_bytes()))
    try:
        # The encoder's columns are the oracle's, row for row.
        piece_row, rows = _derive_piece_rows(mapped)
        assert list(mapped._piece_row) == list(piece_row), name
        assert len(mapped._pv_off) - 1 == len(rows), name
        for r, values in enumerate(rows):
            assert mapped._rows[r] is values, name  # same pool: same object
        assert list(derived._piece_row) == list(piece_row), name

        edges = range(heap.num_edges)
        from_v2 = [derived._piece_index(i) for i in edges]
        from_v3 = [mapped._piece_index(i) for i in edges]
        for a, b, edge in zip(from_v2, from_v3, heap.edges()):
            assert a.cuts == b.cuts, (name, edge)
            assert [list(d.items()) for d in a.values] == \
                   [list(d.items()) for d in b.values], (name, edge)
            want = _pieces(edge.properties.piece_index(heap._values), edge.lifespan)
            assert _pieces(a, edge.lifespan) == _pieces(b, edge.lifespan) == want, (name, edge)
        assert _sharing(derived, from_v2) == _sharing(mapped, from_v3), name

        assert graph_fingerprint(mapped) == graph_fingerprint(derived) \
            == graph_fingerprint(heap), name
        if heap.num_edges:
            want = sssp(heap)
            assert sssp(mapped) == sssp(derived) == want, name
            for store, put in stores:
                assert sssp(put(heap)) == want, (name, store)
    finally:
        mapped.close()


def _shards(graph, directory) -> dict:
    api.run(graph, TemporalSSSP(default_source(graph)),
            options={"checkpoint_every": 1, "checkpoint_dir": str(directory)})
    return {str(p.relative_to(directory)): p.read_bytes() for p in directory.rglob("*.bin")}


@pytest.mark.parametrize("case", (3, 4))
def test_checkpoint_shards_are_equal_on_every_store(case, tmp_path, stores):
    seed, heap = make_case(case)
    image = CompactGraph.from_temporal(heap).to_bytes()
    graphs = {name: put(heap) for name, put in stores}
    graphs.update(v3=CompactGraph.from_bytes(image),
                  v2=CompactGraph.from_bytes(v2_image(image)))
    written = {}
    for name, graph in graphs.items():
        (tmp_path / name).mkdir()
        written[name] = _shards(graph, tmp_path / name)
    assert written["heap"], hex(seed)
    for name in graphs:
        assert written[name] == written["heap"], (hex(seed), name)


@pytest.mark.parametrize("name", GRAPHS)
def test_degrees_equal_the_edge_lists_on_every_store(name):
    heap = GRAPHS[name]
    compact = CompactGraph.from_temporal(heap)
    horizon = heap.time_horizon()
    windows = [(0, max(1, horizon // 2)), (horizon // 3, horizon), (1, FOREVER)]
    for graph in (heap, compact, *[g.window(a, b) for g in (heap, compact) for a, b in windows]):
        for vid in [*heap.vertex_ids(), "no such vertex"]:
            assert graph.out_degree(vid) == len(graph.out_edges(vid)), (name, graph, vid)
            assert graph.in_degree(vid) == len(graph.in_edges(vid)), (name, graph, vid)


def test_choosing_a_source_builds_no_edge_view():
    heap = GRAPHS["usrn"]
    compact = CompactGraph.from_temporal(heap)
    assert default_source(compact) == default_source(heap)
    assert default_target(compact) == default_target(heap)
    assert not compact._edge_cache and not compact._piece_cache


def test_freezing_leaves_the_heap_graph_as_it_was():
    """The encoder reads the timelines; it must not park an index (or
    anything else) on the graph it freezes — the job's parent keeps it."""
    seed, heap = make_case(1)
    CompactGraph.from_temporal(heap)
    assert all(e.properties._index is None for e in heap.edges())
    assert not heap._values


# -- compatibility ---------------------------------------------------------------


def _pieces_digest(graph) -> str:
    digest = hashlib.sha256()
    for e in graph.edges():
        pieces = [(iv.start, iv.end, list(p.values.items())) for iv, p in e.pieces(e.lifespan)]
        digest.update(repr((e.eid, pieces)).encode())
    return digest.hexdigest()


def test_the_parent_commits_v2_image_still_loads():
    recorded = json.loads((DATA / "parent_v2.json").read_text())
    image = (DATA / "parent_v2.itgr2").read_bytes()
    assert hashlib.sha256(image).hexdigest() == recorded["sha256"]
    graph = CompactGraph.load(DATA / "parent_v2.itgr2", verify=True)  # no digest: bind checks only
    try:
        assert (graph.num_vertices, graph.num_edges) == (recorded["vertices"], recorded["edges"])
        assert graph_fingerprint(graph) == recorded["graph_fingerprint"]
        assert _pieces_digest(graph) == recorded["pieces_sha256"]
        graph.validate()
        assert api.load_graph(DATA / "parent_v2.itgr2").num_edges == recorded["edges"]
        # The v3 image of the same graph is that file plus four sections
        # and a digest: nothing else about the layout moved.
        again = CompactGraph.from_temporal(graph.to_temporal())
        assert again.to_bytes()[4] == 3
        assert v2_image(again.to_bytes()) == image
        assert _pieces_digest(again) == recorded["pieces_sha256"]
    finally:
        graph.close()


# -- the boundary ------------------------------------------------------------------


def _image():
    seed, graph = make_case(0)
    return CompactGraph.from_temporal(graph).to_bytes()


def _poke(image: bytes, section: str, index: int, value: int) -> bytes:
    """``image`` with one int64 of ``section`` overwritten."""
    at = sections_of(image)[section][0] + 8 * index
    return image[:at] + value.to_bytes(8, "little", signed=True) + image[at + 8:]


def _retable(image: bytes, section: str, *, offset: int = 0, length: int = 0) -> bytes:
    """``image`` with ``section``'s table entry moved / resized."""
    i = list(sections_of(image)).index(section)
    at = (48 if image[4] == 3 else 16) + 16 * i
    off, size = sections_of(image)[section]
    entry = (off + offset).to_bytes(8, "little") + (size + length).to_bytes(8, "little")
    return image[:at] + entry + image[at + 16:]


def _walk(image: bytes):
    graph = CompactGraph.from_bytes(image)
    for vid in graph.vertex_ids():
        graph.piece_indexes(vid)
        graph.vertex(vid).properties
    for edge in graph.edges():
        edge.properties
    return graph


@pytest.mark.parametrize("version", (3, 2))
def test_a_malformed_table_fails_typed_at_bind(version, tmp_path):
    image = _image() if version == 3 else v2_image(_image())
    CompactGraph.from_bytes(image)
    for mutant, what in (
        (_retable(image, "e_start", length=-4), "not 8-byte aligned"),
        (_retable(image, "out_idx", offset=4), "not 8-byte aligned"),
        (_retable(image, "in_idx", offset=-8), "overlaps its predecessor"),
        (_retable(image, "label_blob", length=8), "exceeds"),
        (_retable(image, "e_end", length=-8), "'e_end' holds"),
        (_retable(image, "cut_start", length=-8), "'cut_off' does not span|'piece_row' holds"),
        (_poke(image, "out_off", 0, 1), "'out_off' does not span"),
        (_poke(image, "ep_off", len(make_case(0)[1]._edges), 10**12), "'ep_off' does not span"),
        (image[:5] + b"\x01" + image[6:], "padding"),
    ):
        with pytest.raises(GraphFormatError, match=what):
            CompactGraph.from_bytes(mutant)
        # ... and through the mapping, which must be closed on the way out
        # (the parent raised BufferError here: the failed bind's views
        # were still exported).
        (tmp_path / "mutant.itgr").write_bytes(mutant)
        with pytest.raises(GraphFormatError, match=what):
            CompactGraph.load(tmp_path / "mutant.itgr")


def test_v3_columns_must_agree_with_the_cut_table():
    image = _image()
    for mutant, what in (
        (_retable(image, "piece_row", length=-8), "'piece_row' holds"),
        (_retable(image, "pv_val", length=-8), "'pv_val' holds"),
        (_poke(image, "pv_off", 0, 1), "'pv_off' does not span"),
    ):
        with pytest.raises(GraphFormatError, match=what):
            CompactGraph.from_bytes(mutant)


@pytest.mark.parametrize("section, index, value, named", [
    ("out_idx", 0, 10**9, "out_idx"),
    ("e_src", 0, 10**9, "e_src"),
    ("cut_off", 1, 10**12, None),  # slices clamp: answers or refuses, never faults
    ("piece_row", 0, 10**9, "pv_off"),
    ("pv_val", 0, 10**12, "pv_val"),
    ("ep_val", 0, 10**12, "ep_"),
    ("vp_val", 0, 10**12, "vp_"),
    ("v_end", 0, -1, "v_start"),
    ("eid_off", 1, 10**9, "eid_off"),
])
def test_a_column_pointing_outside_its_target_fails_typed(section, index, value, named):
    mutant = _poke(_image(), section, index, value)
    if named is None:
        _walk(mutant)
        return
    with pytest.raises(GraphFormatError, match=named):
        _walk(mutant)
    with pytest.raises(GraphFormatError):
        CompactGraph.from_bytes(mutant, verify=True)


def test_a_v2_image_with_a_bad_column_fails_typed_at_bind():
    image = v2_image(_image())
    for section, index in (("ep_val", 0), ("ep_off", 1), ("ep_label", 0)):
        with pytest.raises(GraphFormatError, match="ep_"):
            CompactGraph.from_bytes(_poke(image, section, index, 10**12))
    _walk(_poke(image, "cut_off", 1, 10**12))  # slices clamp, as on v3


def test_digest_is_checked_on_request_only(tmp_path):
    image = _image()
    at = sections_of(image)["e_start"][0]
    mutant = image[:at] + bytes([image[at] ^ 1]) + image[at + 1:]
    path = tmp_path / "edited.itgr"
    path.write_bytes(mutant)
    assert CompactGraph.from_bytes(mutant).num_edges  # well-formed, different data
    for load in (
        lambda: CompactGraph.from_bytes(mutant, verify=True),
        lambda: CompactGraph.load(path, verify=True),
        lambda: CompactGraph.load(path, map=False, verify=True),
        lambda: api.load_graph(path, verify=True),
    ):
        with pytest.raises(GraphFormatError, match="sha256"):
            load()
    api.load_graph(path).close()
    # Formats without a digest take the option and have nothing to check.
    assert api.load_graph("transit", verify=True).num_vertices


FUZZ_SEED = 0xC0DE
MUTANTS = 500
CASE_BUDGET_S = 2.0


def _mutant(rng: random.Random, valid: bytes):
    how = rng.choice(("flip", "flip", "flip", "truncate", "splice"))
    at = rng.randrange(len(valid))
    if how == "flip":
        byte = rng.choice((valid[at] ^ (1 << rng.randrange(8)),
                           (valid[at] + rng.randrange(1, 256)) % 256))
        return how, at, valid[:at] + bytes([byte]) + valid[at + 1:]
    if how == "truncate":
        return how, at, valid[:at]
    src, n = rng.randrange(len(valid)), rng.randrange(1, 64)
    tail = valid[at:] if rng.random() < 0.5 else valid[at + n:]
    return how, at, valid[:at] + valid[src:src + n] + tail


def test_mutated_images_are_refused_or_answer():
    """Byte flips, truncations and splices of a small v3 image.  With
    ``verify=True`` every one is a ``GraphFormatError``.  Without it, load +
    every piece index + one SSSP completes, or raises ``GraphFormatError`` —
    or ``IcmProgramError`` where the image is well-formed and a value the
    program adds up changed type: never a bare fault, each case in time."""
    valid = _image()
    rng = random.Random(FUZZ_SEED)
    outcomes = {"completed": 0, "refused": 0, "program": 0}
    for i in range(MUTANTS):
        how, at, mutant = _mutant(rng, valid)
        if mutant == valid:
            continue
        where = f"mutant {i} ({how} at {at}, seed {FUZZ_SEED:#x})"
        with pytest.raises(GraphFormatError):
            CompactGraph.from_bytes(mutant, verify=True)
            pytest.fail(f"{where}: verified")
        started = time.monotonic()
        try:
            graph = CompactGraph.from_bytes(mutant)
            for vid in graph.vertex_ids():
                graph.piece_indexes(vid)
            api.run(graph, TemporalSSSP(default_source(graph)))
            outcomes["completed"] += 1
        except GraphFormatError:
            outcomes["refused"] += 1
        except IcmProgramError:
            outcomes["program"] += 1
        except Exception as exc:  # the assertion: nothing else may escape
            pytest.fail(f"{where}: {type(exc).__name__}: {exc}")
        assert time.monotonic() - started < CASE_BUDGET_S, where
    assert outcomes["completed"] and outcomes["refused"], outcomes
