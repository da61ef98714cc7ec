"""CLI smoke tests for the observability flags and metrics subcommand."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main, metrics_main
from repro.workloads.corpora import BOOK_XML

LIFECYCLE = ("query", "parse", "plan", "optimize", "execute", "scan")


@pytest.fixture()
def book_file(tmp_path):
    path = tmp_path / "book.xml"
    path.write_text(BOOK_XML)
    return str(path)


class TestTraceFlag:
    def test_trace_prints_lifecycle_spans(self, book_file, capsys):
        code = main([book_file, "fragment", "join", "--max-size", "4",
                     "--trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace:" in out
        for phase in LIFECYCLE:
            assert phase in out

    def test_trace_with_rank_adds_rank_span(self, book_file, capsys):
        code = main([book_file, "fragment", "join", "--max-size", "4",
                     "--trace", "--rank"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rank" in out

    def test_no_trace_prints_no_tree(self, book_file, capsys):
        code = main([book_file, "fragment", "--max-size", "2"])
        assert code == 0
        assert "trace:" not in capsys.readouterr().out


class TestMetricsOut:
    def test_json_dump(self, book_file, capsys, tmp_path):
        out_path = tmp_path / "metrics.json"
        code = main([book_file, "fragment", "join", "--max-size", "4",
                     "--metrics-out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        names = {metric["name"] for metric in payload["metrics"]}
        assert "repro_queries_total" in names
        assert "repro_query_latency_seconds" in names

    def test_prom_dump(self, book_file, capsys, tmp_path):
        out_path = tmp_path / "metrics.prom"
        code = main([book_file, "fragment", "join", "--max-size", "4",
                     "--metrics-out", str(out_path)])
        assert code == 0
        text = out_path.read_text()
        assert "# TYPE repro_queries_total counter" in text
        assert "repro_query_latency_seconds_bucket" in text
        assert "repro_join_cache_hits_total" in text


class TestSlowQueriesAndLog:
    def test_slow_query_reported_on_stderr(self, book_file, capsys):
        # threshold 0ms: every query counts as slow
        code = main([book_file, "fragment", "join", "--max-size", "4",
                     "--slow-query-ms", "0"])
        captured = capsys.readouterr()
        assert code == 0
        assert "slow-query:" in captured.err
        record = json.loads(
            captured.err.split("slow-query:", 1)[1].splitlines()[0])
        assert record["type"] == "profile" and record["wall_ms"] >= 0
        assert record["strategy"] == "anchored"

    def test_high_threshold_stays_quiet(self, book_file, capsys):
        code = main([book_file, "fragment", "--max-size", "2",
                     "--slow-query-ms", "60000"])
        assert code == 0
        assert "slow-query:" not in capsys.readouterr().err

    def test_query_log_file(self, book_file, capsys, tmp_path):
        log_path = tmp_path / "queries.jsonl"
        code = main([book_file, "fragment", "join", "--max-size", "4",
                     "--query-log", str(log_path)])
        assert code == 0
        lines = log_path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["terms"] == ["fragment", "join"]
        assert record["answers"] >= 1
        # One line per evaluation, in the dump format: it loads back.
        from repro.obs.recorder import QueryProfile, load_dump
        (profile,), traces = load_dump(log_path)
        assert isinstance(profile, QueryProfile) and traces == {}
        assert profile.terms == ("fragment", "join")
        assert profile.predicted_cost and profile.cpu_ms >= 0


class TestMetricsSubcommand:
    @pytest.fixture()
    def dump(self, book_file, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        main([book_file, "fragment", "join", "--max-size", "4",
              "--metrics-out", str(path)])
        capsys.readouterr()  # swallow the search output
        return str(path)

    def test_summary_format(self, dump, capsys):
        assert metrics_main([dump]) == 0
        out = capsys.readouterr().out
        assert "metrics from" in out
        assert "repro_queries_total" in out

    def test_prom_format(self, dump, capsys):
        assert metrics_main([dump, "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_queries_total counter" in out

    def test_json_format_roundtrips(self, dump, capsys):
        assert metrics_main([dump, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(metric["name"] == "repro_queries_total"
                   for metric in payload["metrics"])

    def test_reachable_through_main(self, dump, capsys):
        assert main(["metrics", dump]) == 0
        assert "repro_queries_total" in capsys.readouterr().out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert metrics_main([str(tmp_path / "absent.json")]) == 2

    def test_malformed_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"metrics\": [{\"kind\": \"mystery\"}]}")
        assert metrics_main([str(path)]) == 2


class TestCollectionObs:
    def test_trace_over_a_directory(self, tmp_path, capsys):
        for name in ("one", "two"):
            (tmp_path / f"{name}.xml").write_text(BOOK_XML)
        code = main([str(tmp_path), "fragment", "join",
                     "--max-size", "4", "--trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "collection-search" in out
        assert "execute" in out


class TestServeProfileQueries:
    def _serve(self, book_file, *extra, queries="fragment join\n"):
        from repro.cli import serve_main
        return serve_main([book_file, *extra],
                          stdin=io.StringIO(queries))

    def test_profile_dump_written_and_summarised(self, book_file,
                                                 tmp_path, capsys):
        dump = tmp_path / "recorder.jsonl"
        code = self._serve(book_file,
                           "--profile-sample-rate", "1.0",
                           "--slow-query-ms", "0",
                           "--profile-dump", str(dump),
                           queries="fragment join\nfragment\n")
        err = capsys.readouterr().err
        assert code == 0
        lines = [json.loads(line) for line in
                 dump.read_text().splitlines()]
        assert any(record.get("type") == "profile" for record in lines)
        assert any(record.get("type") == "trace" for record in lines)
        assert "flight recorder: wrote" in err
        assert "p50=" in err and "p99=" in err
        assert "calibration[anchored]" in err

    def test_profile_queries_without_dump_still_summarises(
            self, book_file, capsys):
        # `serve` always has the ring, so a plain run summarises it.
        code = self._serve(book_file)
        err = capsys.readouterr().err
        assert code == 0
        assert "flight recorder: 1 profile(s)" in err
        assert "wrote" not in err

    @pytest.mark.parametrize("flag", ["--profile-queries",
                                      "--profile-ring-size=8",
                                      "--profile-slow-ms=5"])
    def test_removed_flags_are_rejected(self, book_file, flag):
        with pytest.raises(SystemExit) as excinfo:
            self._serve(book_file, flag)
        assert excinfo.value.code == 2

    def test_bad_sample_rate_is_an_error(self, book_file, capsys):
        code = self._serve(book_file, "--profile-sample-rate", "2.0")
        assert code == 2
        assert "sample_rate" in capsys.readouterr().err


class TestFlightRecorderSubcommand:
    @pytest.fixture()
    def dump(self, book_file, tmp_path, capsys):
        from repro.cli import serve_main
        path = tmp_path / "recorder.jsonl"
        serve_main([book_file,
                    "--profile-sample-rate", "1.0",
                    "--slow-query-ms", "0",
                    "--profile-dump", str(path)],
                   stdin=io.StringIO("fragment join\nfragment\n"))
        capsys.readouterr()  # swallow the serve output
        return str(path)

    def test_summary_format(self, dump, capsys):
        from repro.cli import flightrecorder_main
        assert flightrecorder_main([dump]) == 0
        out = capsys.readouterr().out
        assert "2 profile(s)" in out
        assert "outcomes: ok=2" in out
        assert "latency: p50=" in out
        assert "calibration[anchored]" in out
        assert "--trace <id>" in out

    def test_json_summary_roundtrips(self, dump, capsys):
        from repro.cli import flightrecorder_main
        assert flightrecorder_main([dump, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["profiles"] == 2
        assert summary["outcomes"] == {"ok": 2}
        assert summary["latency"]["samples"] == 2
        assert "anchored" in summary["calibration"]
        assert len(summary["trace_ids"]) == 2

    def test_trace_export_to_file(self, dump, capsys, tmp_path):
        from repro.cli import flightrecorder_main
        flightrecorder_main([dump, "--json"])
        trace_id = json.loads(capsys.readouterr().out)["trace_ids"][0]
        out_path = tmp_path / "trace.json"
        code = flightrecorder_main([dump, "--trace", trace_id,
                                    "--out", str(out_path)])
        assert code == 0
        assert "wrote" in capsys.readouterr().err
        trace = json.loads(out_path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        assert trace["metadata"]["trace_id"] == trace_id
        events = trace["traceEvents"]
        assert events and all(event["ph"] == "X" for event in events)
        assert {event["name"] for event in events} >= {"execute"}

    def test_trace_export_to_stdout(self, dump, capsys):
        from repro.cli import flightrecorder_main
        flightrecorder_main([dump, "--json"])
        trace_id = json.loads(capsys.readouterr().out)["trace_ids"][0]
        assert flightrecorder_main([dump, "--trace", trace_id]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["traceEvents"]

    def test_unknown_trace_is_an_error(self, dump, capsys):
        from repro.cli import flightrecorder_main
        assert flightrecorder_main([dump, "--trace", "q0-nope"]) == 2
        err = capsys.readouterr().err
        assert "no trace" in err and "retained:" in err

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        from repro.cli import flightrecorder_main
        path = str(tmp_path / "absent.jsonl")
        assert flightrecorder_main([path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_reachable_through_main(self, dump, capsys):
        assert main(["flightrecorder", dump]) == 0
        assert "profile(s)" in capsys.readouterr().out


class TestServeSamplerAndSlo:
    def _serve(self, book_file, *extra, queries="fragment join\n"):
        from repro.cli import serve_main
        return serve_main([book_file, *extra],
                          stdin=io.StringIO(queries))

    def test_sampler_and_slo_serve_and_announce_top(self, book_file,
                                                    capsys):
        code = self._serve(
            book_file, "--sample-interval", "0.05",
            "--slo", "p99(repro_query_latency_seconds) < 10",
            "--slo", "errors: ratio(repro_guard_budget_exceeded_total/"
                     "repro_queries_total) < 0.5")
        captured = capsys.readouterr()
        assert code == 0
        assert "repro-search top" in captured.err

    def test_bad_slo_spec_is_an_error(self, book_file, capsys):
        code = self._serve(book_file, "--slo", "latency below 2s")
        assert code == 2
        assert "unparseable SLO spec" in capsys.readouterr().err

    def test_slo_requires_the_sampler(self, book_file, capsys):
        code = self._serve(book_file, "--sample-interval", "0",
                           "--slo", "p99(m) < 1")
        assert code == 2
        assert "--slo requires the sampler" in capsys.readouterr().err
