"""End-to-end tests for the repro-search CLI."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.storage.shards import FORMAT_VERSION
from repro.workloads.corpora import BOOK_XML


@pytest.fixture()
def book_file(tmp_path):
    path = tmp_path / "book.xml"
    path.write_text(BOOK_XML)
    return str(path)


class TestParser:
    def test_requires_file_and_keywords(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["f.xml", "a", "b"])
        assert args.strategy == "anchored"
        assert args.limit == 10
        assert not args.xml


class TestMain:
    def test_basic_search(self, book_file, capsys):
        code = main([book_file, "fragment", "join", "--max-size", "4"])
        captured = capsys.readouterr()
        assert code == 0
        assert "answer(s)" in captured.out
        assert "#1" in captured.out

    def test_xml_output(self, book_file, capsys):
        code = main([book_file, "fragment", "join", "--max-size", "3",
                     "--xml"])
        assert code == 0
        assert "<" in capsys.readouterr().out

    def test_limit(self, book_file, capsys):
        code = main([book_file, "fragment", "--max-size", "2", "-n", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "#1" in out
        assert "#2" not in out

    def test_hide_overlaps(self, book_file, capsys):
        code = main([book_file, "fragment", "join", "--max-size", "4",
                     "--hide-overlaps"])
        assert code == 0

    def test_stats_flag(self, book_file, capsys):
        code = main([book_file, "fragment", "--max-size", "2",
                     "--stats"])
        assert code == 0
        assert "fragment_joins" in capsys.readouterr().out

    def test_strategy_selection(self, book_file, capsys):
        code = main([book_file, "fragment", "join", "--max-size", "3",
                     "--strategy", "brute-force"])
        assert code == 0
        assert "brute-force" in capsys.readouterr().out

    def test_explain_does_not_touch_file(self, capsys):
        code = main(["/nonexistent.xml", "a", "b", "--max-size", "3",
                     "--explain"])
        assert code == 0
        out = capsys.readouterr().out
        assert "anchored[a b; " in out

    def test_missing_file_error(self, capsys):
        code = main(["/nonexistent.xml", "a"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_file_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<a><b></a>")
        code = main([str(bad), "a"])
        assert code == 2

    def test_height_and_width_filters(self, book_file, capsys):
        code = main([book_file, "fragment", "join",
                     "--max-height", "2", "--max-width", "6"])
        assert code == 0

    def test_no_matches(self, book_file, capsys):
        code = main([book_file, "zebra", "unicorn"])
        assert code == 0
        assert "0 answer(s)" in capsys.readouterr().out

    def test_ranked_output(self, book_file, capsys):
        code = main([book_file, "fragment", "join", "--max-size", "4",
                     "--rank"])
        assert code == 0
        assert "score=" in capsys.readouterr().out

    def test_overlap_policy_group(self, book_file, capsys):
        code = main([book_file, "fragment", "join", "--max-size", "4",
                     "--overlap-policy", "group"])
        assert code == 0

    def test_witness_annotations_in_outline(self, book_file, capsys):
        code = main([book_file, "fragment", "join", "--max-size", "4"])
        assert code == 0
        assert "<=" in capsys.readouterr().out

    def test_directory_search(self, tmp_path, capsys):
        (tmp_path / "a.xml").write_text(
            "<a><b>needle thread</b></a>")
        (tmp_path / "b.xml").write_text(
            "<a><b>needle only</b></a>")
        code = main([str(tmp_path), "needle", "thread",
                     "--max-size", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 of 2 document(s)" in out
        assert "a.xml:" in out

    def test_directory_search_xml_output(self, tmp_path, capsys):
        (tmp_path / "a.xml").write_text("<a><b>needle</b></a>")
        code = main([str(tmp_path), "needle", "--xml"])
        assert code == 0
        assert "<b>" in capsys.readouterr().out

    def test_empty_directory(self, tmp_path, capsys):
        code = main([str(tmp_path), "needle"])
        assert code == 2
        assert "no .xml files" in capsys.readouterr().err

    def test_filter_expression(self, book_file, capsys):
        code = main([book_file, "fragment", "join",
                     "--filter", "size<=4 & height<=2"])
        assert code == 0
        assert "size<=4" in capsys.readouterr().out

    def test_bad_filter_expression(self, book_file, capsys):
        code = main([book_file, "fragment", "--filter", "bogus<=3"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_overlap_policy_hide_matches_flag(self, book_file, capsys):
        code = main([book_file, "fragment", "join", "--max-size", "4",
                     "--overlap-policy", "hide"])
        out_policy = capsys.readouterr().out
        code2 = main([book_file, "fragment", "join", "--max-size", "4",
                      "--hide-overlaps"])
        out_flag = capsys.readouterr().out
        assert code == code2 == 0
        # Same fragments shown (timing lines differ).
        assert [l for l in out_policy.splitlines()
                if l.startswith("#")] == \
            [l for l in out_flag.splitlines() if l.startswith("#")]


class TestResilienceFlags:
    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["f.xml", "a", "--timeout-ms", "250", "--retries", "5",
             "--no-fallback"])
        assert args.timeout_ms == 250.0
        assert args.retries == 5
        assert args.no_fallback

    def test_flags_default_to_no_policy(self):
        from repro.cli import _build_resilience
        args = build_parser().parse_args(["f.xml", "a"])
        assert _build_resilience(args) is None

    def test_policy_built_from_flags(self):
        from repro.cli import _build_resilience
        args = build_parser().parse_args(
            ["f.xml", "a", "--timeout-ms", "250", "--no-fallback"])
        policy = _build_resilience(args)
        assert policy.timeout_s == 0.25
        assert policy.fallback == "never"
        assert policy.max_retries == 2  # default retained

    def test_directory_search_with_flags(self, tmp_path, capsys):
        (tmp_path / "a.xml").write_text("<a><b>needle</b></a>")
        code = main([str(tmp_path), "needle", "--workers", "2",
                     "--timeout-ms", "30000", "--retries", "1"])
        assert code == 0
        assert "1 of 1 document(s)" in capsys.readouterr().out


class TestMalformedDirectoryFiles:
    def test_bad_file_skipped_with_warning(self, tmp_path, capsys):
        (tmp_path / "good.xml").write_text("<a><b>needle</b></a>")
        (tmp_path / "bad.xml").write_text("<broken><unclosed>")
        code = main([str(tmp_path), "needle"])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning: skipping" in captured.err
        assert "bad.xml" in captured.err
        assert "1 file(s) skipped" in captured.out
        assert "1 of 1 document(s)" in captured.out

    def test_all_files_malformed_exits_nonzero(self, tmp_path, capsys):
        (tmp_path / "one.xml").write_text("<broken>")
        (tmp_path / "two.xml").write_text("also not xml <")
        code = main([str(tmp_path), "needle"])
        captured = capsys.readouterr()
        assert code == 2
        assert "failed to parse" in captured.err
        assert captured.err.count("warning: skipping") == 2

    def test_batch_over_directory_with_bad_file(self, tmp_path,
                                                capsys):
        (tmp_path / "good.xml").write_text("<a><b>needle</b></a>")
        (tmp_path / "bad.xml").write_text("<broken>")
        batch = tmp_path / "queries.txt"
        batch.write_text("needle\n")
        code = main([str(tmp_path), "--batch", str(batch)])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning: skipping" in captured.err
        assert "1 file(s) skipped" in captured.err


class TestServe:
    def test_serve_answers_stdin_queries(self, book_file, capsys):
        from repro.cli import serve_main
        code = serve_main([book_file], stdin=iter(["fragment\n",
                                                   "# comment\n",
                                                   "\n"]))
        captured = capsys.readouterr()
        assert code == 0
        assert "metrics:" in captured.err
        assert "answer(s)" in captured.out

    def test_serve_holds_no_span_tree_between_requests(
            self, book_file, capsys, monkeypatch):
        # The recorder is serve's only reader of a span tree, so each
        # request's trees are dropped once it is answered, on the stdin
        # and the HTTP path alike; the recorder's ring is bounded by
        # --max-log-records and still serves a retained trace.
        import json
        import re
        import urllib.request
        import repro.obs
        from repro.cli import serve_main
        from repro.obs.tracer import SpanTracer
        bound, seen, dropped = 4, {}, []

        class Tracer(SpanTracer):
            def clear(self):
                dropped.append(len(self.roots))
                super().clear()

        monkeypatch.setattr(repro.obs, "SpanTracer", Tracer)

        def get(url):
            with urllib.request.urlopen(url) as reply:
                return json.loads(reply.read())

        def lines():
            for _ in range(3 * bound):
                yield "fragment\n"
            url = re.search(r"metrics: (http://\S+)/metrics",
                            capsys.readouterr().err).group(1)
            seen.update(get(url + "/varz"))
            request = urllib.request.Request(
                url + "/query", data=b'{"query": "fragment"}')
            with urllib.request.urlopen(request) as reply:
                assert json.loads(reply.read())["answers"]
            snapshot = get(url + "/debug/flightrecorder")
            seen["trace"] = get(url + "/debug/trace/"
                                + snapshot["traces"][-1])

        code = serve_main([book_file, "--max-log-records", str(bound),
                           "--slow-query-ms", "0"], stdin=lines())
        assert code == 0
        # 3N stdin requests and one /query, each dropping its one tree
        assert dropped == [1] * (3 * bound + 1)
        assert "tracer" not in seen
        assert seen["flight_recorder"]["profiles"] \
            == seen["flight_recorder"]["ring_size"] == bound
        assert seen["flight_recorder"]["evicted"] == 2 * bound
        assert "repro_join_cache_memo_entries" in {
            m["name"] for m in seen["metrics"]["metrics"]}
        assert {e["name"] for e in seen["trace"]["traceEvents"]} \
            >= {"execute", "scan"}

    def test_serve_keyboard_interrupt_is_clean(self, book_file,
                                               capsys):
        from repro.cli import serve_main

        def lines():
            yield "fragment\n"
            raise KeyboardInterrupt

        code = serve_main([book_file], stdin=lines())
        captured = capsys.readouterr()
        assert code == 130
        assert "interrupted" in captured.err
        assert "Traceback" not in captured.err

    def test_serve_skips_malformed_directory_files(self, tmp_path,
                                                   capsys):
        (tmp_path / "good.xml").write_text("<a><b>needle</b></a>")
        (tmp_path / "bad.xml").write_text("<broken>")
        from repro.cli import serve_main
        code = serve_main([str(tmp_path)], stdin=iter(["needle\n"]))
        captured = capsys.readouterr()
        assert code == 0
        assert "warning: skipping" in captured.err
        assert "1 file(s) skipped" in captured.err

    def test_serve_all_malformed_exits_nonzero(self, tmp_path, capsys):
        (tmp_path / "bad.xml").write_text("<broken>")
        from repro.cli import serve_main
        code = serve_main([str(tmp_path)], stdin=iter([]))
        assert code == 2
        assert "failed to parse" in capsys.readouterr().err

    def test_serve_resilience_flags_parse(self, book_file, capsys):
        from repro.cli import serve_main
        code = serve_main([book_file, "--timeout-ms", "30000",
                           "--retries", "1", "--workers", "1"],
                          stdin=iter(["fragment\n"]))
        assert code == 0


class TestGuardFlags:
    @pytest.fixture()
    def patho_file(self, tmp_path):
        parts = "".join(f"<b{i}>red pear</b{i}>" for i in range(12))
        path = tmp_path / "patho.xml"
        path.write_text(f"<a>{parts}</a>")
        return str(path)

    def test_deadline_abort_exits_3_with_structured_error(
            self, patho_file, capsys):
        import json as jsonlib
        code = main([patho_file, "red", "pear",
                     "--strategy", "brute-force",
                     "--deadline-ms", "200"])
        captured = capsys.readouterr()
        assert code == 3
        detail = jsonlib.loads(captured.err.split("error: ", 1)[1])
        assert detail["error"] == "budget-exceeded"
        assert detail["reason"] == "deadline"
        assert detail["progress"]["join_ops"] > 0

    def test_max_join_ops_abort_exits_3(self, patho_file, capsys):
        code = main([patho_file, "red", "pear",
                     "--strategy", "brute-force",
                     "--max-join-ops", "500"])
        assert code == 3
        assert "budget-exceeded" in capsys.readouterr().err

    def test_generous_budget_matches_unguarded_output(self, book_file,
                                                      capsys):
        import re

        def strip_timing(text):
            return re.sub(r", \d+\.\d+ ms\]", ", _ ms]", text)

        assert main([book_file, "fragment"]) == 0
        unguarded = capsys.readouterr().out
        assert main([book_file, "fragment",
                     "--deadline-ms", "300000",
                     "--max-join-ops", "1000000000"]) == 0
        assert strip_timing(capsys.readouterr().out) \
            == strip_timing(unguarded)

    def test_serve_rejects_bad_lines_and_keeps_serving(self, book_file,
                                                       capsys):
        from repro.cli import serve_main
        code = serve_main([book_file],
                          stdin=iter(["fragment [\n",
                                      "fragment\n"]))
        captured = capsys.readouterr()
        assert code == 0
        assert '"error": "bad-query"' in captured.err
        assert "answer(s)" in captured.out

    def test_serve_budget_abort_keeps_serving(self, tmp_path, capsys):
        parts = "".join(f"<b{i}>red pear</b{i}>" for i in range(12))
        path = tmp_path / "patho.xml"
        path.write_text(f"<a>{parts}</a>")
        from repro.cli import serve_main
        code = serve_main([str(path), "--strategy", "brute-force",
                           "--max-join-ops", "500"],
                          stdin=iter(["red pear\n", "absent\n"]))
        captured = capsys.readouterr()
        assert code == 0
        assert '"error": "budget-exceeded"' in captured.err
        # The follow-up (trivially cheap) query still gets answered.
        assert "0 answer(s)" in captured.out

    def test_serve_admission_rejection_keeps_serving(self, book_file,
                                                     capsys):
        from repro.cli import serve_main
        code = serve_main([book_file, "--max-cost", "0.000001"],
                          stdin=iter(["fragment\n"]))
        captured = capsys.readouterr()
        assert code == 0
        assert '"error": "admission-rejected"' in captured.err

    def test_serve_filter_syntax_on_query_lines(self, book_file,
                                                capsys):
        from repro.cli import serve_main
        code = serve_main([book_file],
                          stdin=iter(["fragment [size<=4]\n"]))
        captured = capsys.readouterr()
        assert code == 0
        assert "size<=4" in captured.out


class TestIndexCli:
    @pytest.fixture()
    def corpus_dir(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "a.xml").write_text("<a><b>needle thread</b></a>")
        (d / "b.xml").write_text("<a><b>needle</b><c>thread</c></a>")
        return str(d)

    def test_build_then_inspect(self, corpus_dir, tmp_path, capsys):
        from repro.cli import index_main
        out = str(tmp_path / "idx")
        assert index_main(["build", corpus_dir, out,
                           "--shards", "2"]) == 0
        assert "2 document(s)" in capsys.readouterr().out
        assert index_main(["inspect", out, "--verify"]) == 0
        inspected = capsys.readouterr().out
        assert "shard(s) attached" in inspected
        assert "OK" in inspected

    def test_inspect_json(self, corpus_dir, tmp_path, capsys):
        import json as _json
        from repro.cli import index_main
        out = str(tmp_path / "idx")
        index_main(["build", corpus_dir, out])
        capsys.readouterr()
        assert index_main(["inspect", out, "--json"]) == 0
        doc = _json.loads(capsys.readouterr().out)
        assert doc["documents"] == 2
        assert doc["format_version"] == FORMAT_VERSION
        # Per shard: the term directory's size, next to the version.
        assert sorted(doc["directories"]) == ["0", "1", "2", "3"]
        assert sum(entry["terms"] for entry
                   in doc["directories"].values()) >= 2
        assert all(entry["directory_bytes"] >= 12 for entry
                   in doc["directories"].values())

    def test_inspect_corrupt_shard_exits_nonzero(self, corpus_dir,
                                                 tmp_path, capsys):
        from pathlib import Path
        from repro.cli import index_main
        out = tmp_path / "idx"
        index_main(["build", corpus_dir, str(out)])
        shard = sorted(out.glob("shard-*.bin"))[0]
        shard.write_bytes(shard.read_bytes()[:16])
        capsys.readouterr()
        assert index_main(["inspect", str(out)]) == 1

    def test_build_missing_directory_errors(self, tmp_path, capsys):
        from repro.cli import index_main
        code = index_main(["build", str(tmp_path / "nope"),
                           str(tmp_path / "idx")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_serve_from_index(self, corpus_dir, tmp_path, capsys):
        from repro.cli import index_main, serve_main
        out = str(tmp_path / "idx")
        index_main(["build", corpus_dir, out])
        capsys.readouterr()
        code = serve_main(["--index", out],
                          stdin=iter(["needle thread\n"]))
        captured = capsys.readouterr()
        assert code == 0
        assert "answer(s)" in captured.out

    def test_serve_requires_exactly_one_source(self, corpus_dir,
                                               book_file):
        from repro.cli import serve_main
        with pytest.raises(SystemExit):
            serve_main([])
        with pytest.raises(SystemExit):
            serve_main([book_file, "--index", corpus_dir])

    def test_main_dispatches_index(self, corpus_dir, tmp_path, capsys):
        assert main(["index", "build", corpus_dir,
                     str(tmp_path / "idx")]) == 0
        assert "built" in capsys.readouterr().out


class TestStreamFlag:
    def test_single_document_stream(self, book_file, capsys):
        code = main([book_file, "fragment", "join", "--max-size", "4",
                     "--stream", "-n", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "streamed answer(s)" in captured.out
        assert "#1" in captured.out
        assert "#3" not in captured.out

    def test_stream_matches_materialized_prefix(self, book_file,
                                                capsys):
        code = main([book_file, "fragment", "join", "--max-size", "4",
                     "-n", "2"])
        assert code == 0
        plain = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("#")]
        code = main([book_file, "fragment", "join", "--max-size", "4",
                     "--stream", "-n", "2"])
        assert code == 0
        streamed = [line for line
                    in capsys.readouterr().out.splitlines()
                    if line.startswith("#")]
        # Same fragments in the same order; the streamed line adds a
        # height note, so compare the label prefix.
        assert [l.split("(")[0] for l in streamed] == \
            [l.split("(")[0] for l in plain]

    def test_directory_stream(self, tmp_path, capsys):
        (tmp_path / "x.xml").write_text(
            "<a><b>red pear</b><c>red apple</c></a>")
        (tmp_path / "y.xml").write_text("<a><b>red rose</b></a>")
        code = main([str(tmp_path), "red", "--stream", "-n", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "streaming up to 2 answer(s)" in captured.out
        assert "answer(s) streamed" in captured.out
        assert "#1" in captured.out
