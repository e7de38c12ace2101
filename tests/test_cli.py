"""Tests for the command-line interface."""

import pytest

from repro.cli import DATASET_CHOICES, build_parser, engine_options, main

from ._fresh_interpreter import run_fresh


class TestEachCommandImportsWhatItRuns:
    def test_dataset_choices_are_the_generators(self):
        # Spelled out in cli.py so that parsing arguments imports no generator.
        from repro import api
        from repro.datasets import SURROGATES

        assert DATASET_CHOICES == ("transit", *sorted(SURROGATES))
        assert list(DATASET_CHOICES) == api._dataset_names()

    def test_parsing_a_serve_command_loads_no_command_specific_stack(self):
        out = run_fresh(
            "import sys; from repro.cli import build_parser; "
            "build_parser().parse_args(['serve', '--socket', 's', '--graph', 'g']); "
            "print(' '.join(sorted(sys.modules)))"
        ).split()
        loaded = [
            m for m in out
            if m.startswith(("repro.datasets", "repro.obs.exporters",
                             "repro.graph.stats", "repro.algorithms.ti",
                             "repro.algorithms.td", "repro.baselines",
                             "repro.serve", "repro.query"))
        ]
        assert not loaded, loaded


class TestRun:
    def test_run_default(self, capsys):
        assert main(["run", "SSSP", "--dataset", "transit", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "SSSP on transit" in out
        assert "compute calls" in out
        assert "modeled makespan" in out

    def test_run_baseline_platform(self, capsys):
        assert main(["run", "BFS", "--platform", "MSB",
                     "--dataset", "gplus", "--scale", "0.3"]) == 0
        assert "MSB" in capsys.readouterr().out

    def test_bad_platform_for_algorithm(self):
        with pytest.raises(ValueError):
            main(["run", "BFS", "--platform", "TGB", "--dataset", "gplus",
                  "--scale", "0.3"])


class TestCompare:
    def test_compare_td(self, capsys):
        assert main(["compare", "EAT", "--dataset", "reddit", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        for platform in ("GRAPHITE", "TGB", "GoFFish"):
            assert platform in out

    def test_compare_ti(self, capsys):
        assert main(["compare", "WCC", "--dataset", "gplus", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        for platform in ("GRAPHITE", "MSB", "Chlonos"):
            assert platform in out


class TestDatasetsAndConvert:
    def test_datasets(self, capsys):
        assert main(["datasets", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        for name in ("transit", "gplus", "twitter", "webuk"):
            assert name in out

    def test_convert_roundtrip(self, tmp_path, capsys):
        target = tmp_path / "graph.tg"
        assert main(["convert", str(target), "--dataset", "transit"]) == 0
        from repro.graph.io import load_graph

        graph = load_graph(target)
        assert graph.num_vertices == 6

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


class TestJourneys:
    def test_journeys_transit(self, capsys):
        assert main(["journeys", "A", "E", "--dataset", "transit", "--by", "12"]) == 0
        out = capsys.readouterr().out
        assert "A --dep" in out and "E (arr" in out

    def test_no_journey(self, capsys):
        assert main(["journeys", "A", "F", "--dataset", "transit"]) == 1
        assert "no time-respecting journey" in capsys.readouterr().out

    def test_unknown_vertex(self, capsys):
        assert main(["journeys", "A", "ZZZ", "--dataset", "transit"]) == 2


class TestEngineFlagConsolidation:
    """`repro run` and `repro serve` share one flag-definition site
    (``add_engine_flags``) and one parser (``engine_options``): the same
    flags must parse to the same engine options under both commands."""

    FLAGS = ["--executor", "parallel", "--processes", "3",
             "--partitioner", "greedy"]

    def test_run_and_serve_parse_engine_flags_identically(self):
        parser = build_parser()
        run_args = parser.parse_args(["run", "SSSP", *self.FLAGS])
        serve_args = parser.parse_args(
            ["serve", "--socket", "/tmp/x.sock", *self.FLAGS])
        assert engine_options(run_args) == engine_options(serve_args) == {
            "executor": "parallel",
            "executor_processes": 3,
            "partitioner": "greedy",
        }

    def test_compare_parses_engine_flags_identically_too(self):
        parser = build_parser()
        cmp_args = parser.parse_args(["compare", "EAT", *self.FLAGS])
        run_args = parser.parse_args(["run", "EAT", *self.FLAGS])
        assert engine_options(cmp_args) == engine_options(run_args)

    def test_unset_flags_contribute_no_options(self):
        args = build_parser().parse_args(["run", "SSSP"])
        assert engine_options(args) == {}

    def test_run_only_checkpoint_flags_still_parse(self):
        args = build_parser().parse_args(
            ["run", "SSSP", "--checkpoint-every", "2",
             "--checkpoint-dir", "/tmp/ckpt"])
        options = engine_options(args)
        assert options["checkpoint_every"] == 2
        assert options["checkpoint_dir"] == "/tmp/ckpt"


class TestServeAndQuery:
    def test_serve_and_query_session(self, tmp_path, capsys):
        """A real daemon subprocess session: serve, query cold/warm,
        stats, shutdown."""
        import json
        import subprocess
        import sys
        import time

        sock = str(tmp_path / "cli.sock")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--dataset", "transit", "--workers", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            assert main(["query", "SSSP", "--socket", sock,
                         "--source", "A"]) == 0
            assert "computed" in capsys.readouterr().out
            assert main(["query", "SSSP", "--socket", sock,
                         "--source", "A"]) == 0
            assert "cache hit" in capsys.readouterr().out
            assert main(["query", "--socket", sock, "--stats"]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["cache_hits"] == 1
            assert main(["query", "--socket", sock, "--shutdown"]) == 0
        finally:
            try:
                daemon.wait(timeout=20)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
        assert daemon.returncode == 0

    def test_query_json_output(self, tmp_path, capsys):
        import json
        import subprocess
        import sys

        sock = str(tmp_path / "cli2.sock")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--dataset", "transit", "--workers", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            assert main(["query", "BFS", "--socket", sock, "--source", "A",
                         "--interval", "0", "3", "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["algorithm"] == "BFS"
            assert doc["vertices"]
            assert main(["query", "--socket", sock, "--shutdown"]) == 0
        finally:
            try:
                daemon.wait(timeout=20)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()

    def test_query_without_daemon_fails_cleanly(self, tmp_path, capsys):
        assert main(["query", "BFS", "--socket",
                     str(tmp_path / "nobody.sock")]) == 1
        out = capsys.readouterr().out
        assert "query failed" in out

    def test_query_needs_algorithm_or_action(self, tmp_path, capsys):
        """An algorithm-less query against a live daemon is usage error 2."""
        import subprocess
        import sys

        sock = str(tmp_path / "cli3.sock")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--dataset", "transit", "--workers", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            assert main(["query", "--socket", sock]) == 2
            assert main(["query", "--socket", sock, "--shutdown"]) == 0
        finally:
            try:
                daemon.wait(timeout=20)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()


class TestTrace:
    def test_trace_transit(self, capsys):
        assert main(["trace", "SSSP", "--dataset", "transit"]) == 0
        out = capsys.readouterr().out
        assert "=== superstep 1 ===" in out
        assert "scatter" in out and "send" in out

    def test_trace_restricted_vertices(self, capsys):
        assert main(["trace", "SSSP", "--dataset", "transit",
                     "--vertices", "E"]) == 0
        out = capsys.readouterr().out
        assert "compute 'E'" in out
        assert "compute 'B'" not in out
