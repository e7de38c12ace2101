"""Tests for result export (CSV / JSON)."""

import csv
import io
import json

from repro.algorithms.td.sssp import TemporalSSSP
from repro.core.engine import IntervalCentricEngine
from repro.core.results_io import (
    export_states_csv,
    export_states_dense_csv,
    export_states_json,
    states_document,
)
from repro.datasets import transit_graph


def sssp_result():
    return IntervalCentricEngine(transit_graph(), TemporalSSSP("A")).run()


class TestIntervalCsv:
    def test_rows_and_sentinels(self):
        buf = io.StringIO()
        rows = export_states_csv(sssp_result(), buf)
        buf.seek(0)
        table = list(csv.reader(buf))
        assert table[0] == ["vertex", "start", "end", "value"]
        assert len(table) == rows + 1
        b_rows = [r for r in table if r[0] == "B"]
        assert b_rows == [
            ["B", "0", "4", "inf"],
            ["B", "4", "6", "4"],
            ["B", "6", "inf", "3"],
        ]

    def test_value_fn(self):
        buf = io.StringIO()
        export_states_csv(sssp_result(), buf, value_fn=lambda v: f"<{v}>")
        assert "<4>" in buf.getvalue()

    def test_file_target(self, tmp_path):
        path = tmp_path / "out.csv"
        export_states_csv(sssp_result(), path)
        assert path.read_text().startswith("vertex,start,end,value")


class TestDenseCsv:
    def test_one_row_per_point(self):
        buf = io.StringIO()
        rows = export_states_dense_csv(sssp_result(), buf, horizon=10)
        assert rows == 6 * 10  # six perpetual vertices, horizon 10
        buf.seek(0)
        table = list(csv.reader(buf))
        e_at_9 = [r for r in table if r[0] == "E" and r[1] == "9"]
        assert e_at_9 == [["E", "9", "5"]]


class TestJson:
    def test_document_shape(self):
        buf = io.StringIO()
        doc = export_states_json(sssp_result(), buf)
        parsed = json.loads(buf.getvalue())
        assert parsed == json.loads(json.dumps(doc, default=str))
        assert parsed["algorithm"] == "SSSP"
        e = parsed["vertices"]["E"]
        assert e[-1] == {"start": 9, "end": None, "value": 5}

    def test_document_builder_is_what_the_writer_writes(self):
        """``states_document`` is the writer's document without the write:
        same keys in the same order, and ``value_fn`` applies to both."""
        result = sssp_result()
        buf = io.StringIO()
        written = export_states_json(result, buf, value_fn=str)
        built = states_document(result, value_fn=str)
        assert built == written
        assert json.dumps(built) == json.dumps(written)  # key order too
        assert buf.getvalue() == json.dumps(built, indent=2, default=str)
