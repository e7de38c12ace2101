"""The one-pass text loader against its oracle, and the text boundary.

``repro.graph.io.load_graph`` reads int values without the compiler, appends
to timelines in O(1) and validates row by row; ``reference_load_text``
(``_reference_impls.py``) is the loader it replaced: every value through
``ast.literal_eval``, every row through a sorted insert, ``validate()`` at
the end.  On every file the old loader accepts, the new one must return
the same graph — entity by entity, in the same enumeration order, values
equal *and* of the same type — and the same SSSP run.  At the boundary,
whatever the file holds, the front door raises ``GraphFormatError`` with a
line number or returns a graph that passes ``validate()``.

Seeded cases (fixed ``RANDOM_SEED``, one generated graph per case; a
failure names its seed).
"""

import ast
import gc
import io
import random
import time
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import api
from repro.algorithms import default_source
from repro.algorithms.td.sssp import TemporalSSSP
from repro.core.interval import FOREVER, Interval
from repro.datasets import usrn
from repro.errors import GraphFormatError
from repro.graph import TemporalGraphBuilder
from repro.graph.io import _parse_value, dump_graph, load_graph

from ..runtime.test_golden_serial import fingerprint
from ._reference_impls import reference_load_text

RANDOM_SEED = 0x7E47
CASES = 30

#: What ``dump_graph`` writes for these is read without ``ast.literal_eval`` ...
FAST_VALUES = (0, 7, 42, 10**30, True, False, None)
#: ... and for these it is left to it.
SLOW_VALUES = (
    -3, 1.5, 100.0, -0.5, -0.0, 1e-05, 1e22, 2.5e-300, (), (1, 2), (1, ("a", None), -2.5),
    "", "abc", "it's", 'say "hi"', "naïve", "# not a comment", " padded ", "a\tb",
    "line\nbreak", "back\\slash", "both ' and \"", "\x00", "nbsp\xa0", "\u2028",
)
#: Tokens no ``repr`` writes; either both parsers agree or both refuse.
ADVERSARIAL_TOKENS = (
    "007", "١٢", "²", "1_000", " 7", "+5", "-3", "1e3", "0x10", "nan", "inf", '"a\\tb"',
    "00", "0", "007.5", "1.", ".5", "١.٢", "1.5.2", "'a' 'b'", "'''abc'''", "'", '"', "''",
    "'a\x00b'", "'a\x7fb'", "b'ab'", "u'ab'", "true", "Non\u0435", "", "1" * 5000, "9" * 400 + ".0",
    "foo bar", "(((((1", "{[1]: 2}",
)


# -- generated graphs --------------------------------------------------------------


def make_case(case: int):
    seed = RANDOM_SEED + case
    return seed, _random_graph(random.Random(seed))


def _random_graph(rng: random.Random):
    builder = TemporalGraphBuilder()
    spans = {}
    for i in range(rng.randint(4, 10)):
        start = rng.randint(0, 8)
        end = FOREVER if rng.random() < 0.3 else start + rng.randint(4, 24)
        spans[f"v{i}"] = Interval(start, end)
        builder.add_vertex(
            f"v{i}", start, end,
            props=_random_props(rng, spans[f"v{i}"], {"tag": _any_value, "rank": _any_value}),
        )
    vids = list(spans)
    for _ in range(rng.randint(2 * len(vids), 4 * len(vids))):
        src, dst = rng.sample(vids, 2)
        common = spans[src].intersect(spans[dst])
        if common is None:
            continue
        hi = min(common.end, common.start + 20)
        start = rng.randint(common.start, min(hi - 1, common.start + 8))
        end = common.end if rng.random() < 0.4 else rng.randint(start + 1, hi)
        builder.add_edge(
            src, dst, start, end,
            props=_random_props(
                rng, Interval(start, end),
                {"travel-time": _small_int, "travel-cost": _small_int, "note": _any_value},
            ),
        )
    return builder.build()


def _small_int(rng):
    return rng.randint(1, 3)


def _any_value(rng):
    return rng.choice(FAST_VALUES if rng.random() < 0.5 else SLOW_VALUES)


def _random_props(rng, lifespan: Interval, labels):
    """Per label, maybe a run of consecutive entries inside ``lifespan``
    (with holes); the last may run to an unbounded end."""
    props = {}
    hi = min(lifespan.end, lifespan.start + 16)
    for label, value in labels.items():
        if hi - lifespan.start < 2 or rng.random() < 0.3:
            continue
        cuts = sorted(rng.sample(range(lifespan.start, hi + 1),
                                 rng.randint(2, min(5, hi - lifespan.start + 1))))
        if lifespan.is_unbounded and rng.random() < 0.5:
            cuts[-1] = FOREVER
        entries = [(lo, up, value(rng)) for lo, up in zip(cuts, cuts[1:]) if rng.random() < 0.85]
        if entries:
            props[label] = entries
    return props or None


def text_of(graph) -> str:
    buf = io.StringIO()
    dump_graph(graph, buf)
    return buf.getvalue()


def snapshot(graph):
    """Everything a reader can see, enumeration order and value types
    included (``1 == 1.0 == True``, so values are compared by ``repr``)."""
    def properties(owner):
        return [
            (label, [(iv, type(v), repr(v)) for iv, v in owner.properties.timeline(label)])
            for label in owner.properties
        ]

    return {
        "vertices": [(v.vid, v.lifespan, properties(v)) for v in graph.vertices()],
        "edges": [(e.eid, e.src, e.dst, e.lifespan, properties(e)) for e in graph.edges()],
        "out": [[e.eid for e in graph.out_edges(vid)] for vid in graph.vertex_ids()],
        "in": [[e.eid for e in graph.in_edges(vid)] for vid in graph.vertex_ids()],
        "horizon": graph.time_horizon(),
    }


def unordered(snap):
    """``snapshot`` with every enumeration order dropped."""
    return {
        "vertices": {vid: (life, dict(props)) for vid, life, props in snap["vertices"]},
        "edges": {eid: (src, dst, life, dict(props)) for eid, src, dst, life, props in snap["edges"]},
        "out": sorted(sorted(eids) for eids in snap["out"]),
        "in": sorted(sorted(eids) for eids in snap["in"]),
        "horizon": snap["horizon"],
    }


def shuffled(text: str, rng: random.Random) -> str:
    """The same rows in a random order, except that a property row never
    precedes its owner's row."""
    rows = text.splitlines(keepends=True)
    rng.shuffle(rows)
    placed, seen, waiting = [], set(), defaultdict(list)
    for row in rows:
        kind, _, rest = row.partition("\t")
        owner = (kind[0], rest.split("\t")[0])
        if kind in ("V", "E"):
            seen.add(owner)
            placed.append(row)
            placed += waiting.pop(owner, [])
        elif owner in seen or kind.startswith("#"):
            placed.append(row)
        else:
            waiting[owner].append(row)
    assert not waiting
    return "".join(placed)


def sssp(graph):
    result = api.run(graph, TemporalSSSP(default_source(graph)))
    return fingerprint(result, result.metrics)


# -- the oracle ------------------------------------------------------------------------


@pytest.mark.parametrize("case", range(CASES))
def test_bulk_loader_equals_reference_loader(case):
    seed, graph = make_case(case)
    text = text_of(graph)
    new = load_graph(io.StringIO(text))
    ref = reference_load_text(io.StringIO(text))
    assert snapshot(new) == snapshot(ref), f"seed {seed:#x}"
    assert sssp(new) == sssp(ref), f"seed {seed:#x}: SSSP differs between the loaders"
    # Through the front door too.
    front = api.load_graph(io.StringIO(text), format="text")
    assert snapshot(front) == snapshot(ref), f"seed {seed:#x}"


@pytest.mark.parametrize("case", range(CASES))
def test_any_row_order_loads_the_same_graph(case):
    seed, graph = make_case(case)
    text = text_of(graph)
    mixed = shuffled(text, random.Random(seed))
    want = unordered(snapshot(reference_load_text(io.StringIO(text))))
    new = load_graph(io.StringIO(mixed))
    ref = reference_load_text(io.StringIO(mixed))
    assert snapshot(new) == snapshot(ref), f"seed {seed:#x}"
    assert unordered(snapshot(new)) == want, f"seed {seed:#x}"
    # Enumeration follows the file.
    rows = [row.split("\t") for row in mixed.splitlines()]
    assert [v.vid for v in new.vertices()] == [r[1] for r in rows if r[0] == "V"], hex(seed)
    assert [e.eid for e in new.edges()] == [r[1] for r in rows if r[0] == "E"], hex(seed)
    for e in new.edges():
        labels = [r[2] for r in rows if r[0] == "EP" and r[1] == e.eid]
        assert list(e.properties) == list(dict.fromkeys(labels)), hex(seed)


def test_generated_cases_cover_both_parser_paths(monkeypatch):
    """The cases above mean nothing if every value took one path."""
    slow = []
    real = ast.literal_eval
    monkeypatch.setattr(ast, "literal_eval", lambda token: slow.append(token) or real(token))
    rows = 0
    for case in range(CASES):
        text = text_of(make_case(case)[1])
        rows += sum(row.startswith(("VP", "EP")) for row in text.splitlines())
        load_graph(io.StringIO(text))
    assert {repr(v) for v in SLOW_VALUES} <= set(slow)
    assert not {repr(v) for v in FAST_VALUES} & set(slow)
    assert len(slow) < rows / 2


# -- the value parser ----------------------------------------------------------------


_LITERAL_ERRORS = (ValueError, SyntaxError, TypeError, MemoryError, RecursionError)

_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
)
_values = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6)
#: Not only what ``repr`` writes: short strings over the characters the int
#: path has to tell apart.
_raw_tokens = st.text(alphabet="0127.'\"\\ eE+-_xTrueNon١²\t\x00a(),", max_size=8)


def assert_parses_like_literal_eval(token: str) -> None:
    try:
        want = ast.literal_eval(token)
    except _LITERAL_ERRORS:
        with pytest.raises(ValueError):
            _parse_value(token)
        return
    got = _parse_value(token)
    assert (type(got), repr(got)) == (type(want), repr(want)), repr(token)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_values.map(repr), _raw_tokens))
@example("-" * 100_000 + "1")
def test_value_parser_is_literal_eval(token):
    assert_parses_like_literal_eval(token)


def test_value_parser_on_known_hard_tokens():
    reprs = [repr(v) for v in FAST_VALUES + SLOW_VALUES + (float("inf"), float("nan"))]
    for token in (*ADVERSARIAL_TOKENS, *reprs):
        assert_parses_like_literal_eval(token)


def test_dumped_int_values_never_reach_the_compiler(monkeypatch, tmp_path):
    """``repr`` of a non-negative int — all a generated dataset holds — is
    parsed without ``ast.literal_eval``."""
    path = tmp_path / "ints.txt"
    dump_graph(usrn(0.5, 3), path)
    calls = []
    monkeypatch.setattr(ast, "literal_eval", lambda token: calls.append(token))
    loaded = api.load_graph(path)
    assert calls == []
    assert sum(e.properties.total_entries() for e in loaded.edges()) > 500


# -- the boundary ------------------------------------------------------------------------

HEAD = "# header\nV\tv0\t0\t10\nV\tv1\t0\t10\nE\te0\tv0\tv1\t0\t10\n"  # lines 1-4

#: (what is wrong, file, line that must be named)
MALFORMED = [
    ("unknown record kind", "# header\nBOGUS\trecord\n", 2),
    ("V row too short", "V\tv0\t0\n", 1),
    ("V row too long", "V\tv0\t0\t10\t11\n", 1),
    ("VP row too short", "V\tv0\t0\t10\nVP\tv0\tc\t0\t2\n", 2),
    ("E row too short", HEAD + "E\te1\tv0\tv1\t0\n", 5),
    ("EP row too long", HEAD + "EP\te0\tc\t0\t2\t1\t2\n", 5),
    ("EP row with an empty value", HEAD + "EP\te0\tc\t0\t2\t\n", 5),
    ("VP row for an unknown vertex", HEAD + "VP\tv9\tc\t0\t2\t1\n", 5),
    ("EP row for an unknown edge", HEAD + "EP\te9\tc\t0\t2\t1\n", 5),
    ("EP row before its E row", "V\tv0\t0\t10\nEP\te0\tc\t0\t2\t1\nE\te0\tv0\tv0\t0\t10\n", 2),
    ("negative start", "V\tv0\t-1\t10\n", 1),
    ("empty interval", "V\tv0\t5\t5\n", 1),
    ("inverted interval", HEAD + "EP\te0\tc\t4\t2\t1\n", 5),
    ("start at inf", HEAD + "E\te1\tv0\tv1\tinf\tinf\n", 5),
    ("non-integer time", "V\tv0\tzero\t10\n", 1),
    ("fractional time", HEAD + "EP\te0\tc\t0\t2.5\t1\n", 5),
    ("value that is not a literal", HEAD + "EP\te0\tc\t0\t2\tfoo bar\n", 5),
    ("unclosed parentheses", HEAD + "\nEP\te0\tc\t0\t2\t((((((((1\n", 6),
    ("nesting beyond the parser stack",
     HEAD + "EP\te0\tc\t0\t2\t" + "(1," * 20000 + "1" + ")" * 20000 + "\n", 5),
    ("nesting beyond the recursion limit", HEAD + "EP\te0\tc\t0\t2\t" + "-" * 5000 + "1\n", 5),
    ("inf as a value", HEAD + "EP\te0\tw\t0\t5\tinf\n", 5),
    ("unhashable dict key", HEAD + "EP\te0\tw\t0\t5\t{[1]: 2}\n", 5),
    ("repeated vertex id", HEAD + "V\tv0\t2\t8\n", 5),
    ("repeated edge id", HEAD + "E\te0\tv0\tv1\t0\t10\n", 5),
    ("overlapping values of one label", HEAD + "EP\te0\tc\t0\t4\t1\nEP\te0\tc\t3\t6\t2\n", 6),
    ("overlap found out of order", HEAD + "EP\te0\tc\t5\t8\t1\nEP\te0\tc\t0\t6\t2\n", 6),
    ("vertex property outside the lifespan", "V\tv0\t2\t10\nVP\tv0\tc\t0\t4\t1\n", 2),
    ("edge property outside the lifespan", HEAD + "E\te1\tv0\tv1\t2\t6\nEP\te1\tc\t2\t7\t1\n", 6),
    ("edge to a missing vertex", HEAD + "E\te1\tv0\tv7\t0\t10\nV\tv2\t0\t10\n", 5),
    ("edge outliving its source", HEAD + "V\tv2\t0\t5\nE\te1\tv2\tv0\t0\t6\n", 6),
    ("edge outliving a sink declared later", HEAD + "E\te1\tv0\tv2\t0\t6\nV\tv2\t0\t5\n", 5),
]


@pytest.mark.parametrize("what,text,line", MALFORMED, ids=[m[0].replace(" ", "-") for m in MALFORMED])
def test_malformed_file_is_a_format_error_naming_the_line(what, text, line):
    with pytest.raises(GraphFormatError, match=rf"^text graph: line {line}: ") as handle:
        api.load_graph(io.StringIO(text), format="text")
    assert len(str(handle.value)) < 400, "the message must not echo an unbounded token"


def test_non_literal_value_in_a_sniffed_file(tmp_path):
    """The parent let this one out of ``api.load_graph`` as a bare
    ``SyntaxError`` with no line number."""
    path = tmp_path / "bad.txt"
    path.write_text(HEAD + "EP\te0\tc\t0\t2\tfoo bar\n", encoding="utf-8")
    with pytest.raises(GraphFormatError, match="^text graph: line 5: cannot parse value 'foo bar'"):
        api.load_graph(path)


def test_repeated_edge_row_no_longer_loads_an_inconsistent_graph():
    """The parent loaded this as one edge with two out-edges at ``v0``."""
    with pytest.raises(GraphFormatError, match="line 5: edge 'e0' already exists"):
        load_graph(io.StringIO(HEAD + "E\te0\tv0\tv1\t0\t10\n"))


def test_undecodable_bytes_are_a_format_error(tmp_path):
    path = tmp_path / "latin.txt"
    path.write_bytes(HEAD.encode() + b"EP\te0\tc\t0\t2\t'caf\xe9'\n")
    with pytest.raises(GraphFormatError, match="^text graph: line "):
        api.load_graph(path, format="text")


FUZZ_SEED = 0xF1A5
MUTANTS = 500
FUZZ_BUDGET_S = 30.0


def test_mutated_files_load_validly_or_fail_typed(tmp_path):
    """Single-byte flips, line deletions and line duplications of a small
    valid file: ``GraphFormatError``, or a graph that passes ``validate()``
    — never another exception, and the whole corpus in bounded time."""
    seed, graph = make_case(0)
    valid = text_of(graph).encode("utf-8")
    lines = valid.splitlines(keepends=True)
    rng = random.Random(FUZZ_SEED)
    path = tmp_path / "mutant.txt"
    loaded = refused = 0
    started = time.monotonic()
    for i in range(MUTANTS):
        how = rng.choice(("flip", "flip", "delete", "duplicate"))
        if how == "flip":
            at = rng.randrange(len(valid))
            byte = rng.choice((valid[at] ^ (1 << rng.randrange(8)), rng.randrange(256)))
            mutant = valid[:at] + bytes([byte]) + valid[at + 1:]
        else:
            at = rng.randrange(len(lines))
            keep = lines[:at] + (lines[at:at + 1] * 2 if how == "duplicate" else []) + lines[at + 1:]
            mutant = b"".join(keep)
        path.write_bytes(mutant)
        try:
            got = api.load_graph(path, format="text")
        except GraphFormatError as exc:
            assert str(exc).startswith("text graph: line "), f"mutant {i} ({how} at {at}): {exc}"
            refused += 1
        except Exception as exc:  # the assertion: nothing else may escape
            pytest.fail(f"mutant {i} ({how} at {at}, seed {FUZZ_SEED:#x}): "
                        f"{type(exc).__name__}: {exc}")
        else:
            got.validate()
            loaded += 1
    assert time.monotonic() - started < FUZZ_BUDGET_S
    assert loaded and refused, (loaded, refused)


# -- the write side ------------------------------------------------------------------


def _graph_with_edge_value(value):
    builder = TemporalGraphBuilder()
    builder.add_vertices(["a", "b"], 0, 10)
    builder.add_edge("a", "b", 0, 10, eid="ab", props={"w": [(0, 5, 1.5), (5, 10, value)]})
    return builder.build()


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_dump_refuses_a_float_it_could_not_load_again(value):
    with pytest.raises(ValueError, match=r"edge 'ab' property 'w'.*non-finite"):
        dump_graph(_graph_with_edge_value(value), io.StringIO())


def test_refused_dump_leaves_no_partial_file(tmp_path):
    """The rows before the bad value are a valid, smaller graph; a later
    ``load_graph`` of the path must not find them."""
    path = tmp_path / "graph.txt"
    dump_graph(_graph_with_edge_value(2.5), path)
    assert load_graph(path).num_edges == 1
    with pytest.raises(ValueError, match="non-finite"):
        dump_graph(_graph_with_edge_value(float("nan")), path)
    assert not path.exists()


# -- the collector ---------------------------------------------------------------------


@pytest.fixture
def collector_state():
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


def _rows_recording_collector(text, seen):
    seen.append(gc.isenabled())
    yield from text.splitlines(keepends=True)


@pytest.mark.parametrize("enabled", [True, False])
def test_load_pauses_the_collector_and_restores_it(enabled, collector_state):
    text = text_of(make_case(1)[1])
    (gc.enable if enabled else gc.disable)()
    during = []
    api.load_graph(_rows_recording_collector(text, during), format="text")
    assert during == [False]
    assert gc.isenabled() is enabled
    with pytest.raises(GraphFormatError):
        api.load_graph(_rows_recording_collector(text + "BOGUS\n", during), format="text")
    assert during == [False, False]
    assert gc.isenabled() is enabled



_LOAD_AND_DROP = """
import gc, json, os, sys
from repro import api

def resident_kb():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024

before = resident_kb()
graph = api.load_graph(sys.argv[1])
graph_kb = resident_kb() - before
rounds = []
for _ in range(20):
    del graph
    rounds.append((len(gc.get_objects()) + gc.get_freeze_count(), resident_kb()))
    graph = api.load_graph(sys.argv[1])
print(json.dumps({"graph_kb": graph_kb, "rounds": rounds}))
"""


def test_a_frozen_heap_load_is_freed_when_dropped(tmp_path):
    """A heap load ends with ``gc.freeze()``; the graph is acyclic, so
    dropping it still frees it.  Twenty loads and drops in one fresh
    process: after each drop the tracked objects (frozen or not) number
    the same, and the resident set grows by less than a quarter of what
    one graph occupies."""
    import json

    from .._fresh_interpreter import run_fresh

    path = tmp_path / "graph.txt"
    dump_graph(usrn(2.0), str(path))
    out = json.loads(run_fresh(_LOAD_AND_DROP, str(path)).splitlines()[-1])
    tracked, resident = zip(*out["rounds"][1:])
    assert len(set(tracked)) == 1, tracked
    assert resident[-1] - resident[0] < out["graph_kb"] / 4, (out["graph_kb"], resident)
