"""Tests for the exploration command line interface."""

import json

import pytest

from repro.explore.campaign import SCHEMA_VERSION
from repro.explore.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_table1_arguments(self):
        parser = build_parser()
        args = parser.parse_args(["table1", "--schedules", "schedule_4",
                                  "--validate"])
        assert args.schedules == ["schedule_4"]
        assert args.validate

    def test_all_subcommands_have_handlers(self):
        parser = build_parser()
        for command in ("table1", "speedup", "sweep-compression",
                        "sweep-tam-width", "schedules", "campaign"):
            args = parser.parse_args([command])
            assert callable(args.handler)
        args = parser.parse_args(["merge", "artifact.json"])
        assert callable(args.handler)

    def test_campaign_arguments(self):
        parser = build_parser()
        args = parser.parse_args(["campaign", "--core-counts", "1", "2",
                                  "--tam-widths", "16", "--workers", "2",
                                  "--schedules", "greedy"])
        assert args.core_counts == [1, 2]
        assert args.tam_widths == [16]
        assert args.workers == 2
        assert args.schedules == ["greedy"]
        assert args.shard is None and not args.timing

    def test_shard_argument_parses_index_and_count(self):
        parser = build_parser()
        args = parser.parse_args(["campaign", "--shard", "1/4"])
        assert args.shard == (1, 4)

    @pytest.mark.parametrize("value", ["4/4", "-1/4", "2", "a/b", "1/0"])
    def test_invalid_shard_arguments_rejected(self, value):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["campaign", "--shard", value])

    def test_adaptive_resume_arguments(self):
        parser = build_parser()
        args = parser.parse_args(["adaptive", "--max-rounds", "2",
                                  "--resume-from", "ckpt.json"])
        assert args.max_rounds == 2
        assert args.resume_from == "ckpt.json"
        with pytest.raises(SystemExit):
            parser.parse_args(["adaptive", "--max-rounds", "0"])


class TestExecution:
    def test_table1_single_schedule(self, capsys):
        exit_code = main(["table1", "--schedules", "schedule_4", "--validate"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "schedule_4" in output
        assert "Peak TAM" in output
        assert "estimated length" in output

    def test_speedup_command(self, capsys):
        exit_code = main(["speedup", "--gate-cycles", "20"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "speedup" in output

    def test_compression_sweep_command(self, capsys):
        exit_code = main(["sweep-compression", "--ratios", "1", "50"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "compression_ratio" in output

    def test_campaign_command_writes_artifacts(self, capsys, tmp_path):
        csv_path = tmp_path / "campaign.csv"
        json_path = tmp_path / "campaign.json"
        exit_code = main(["campaign", "--core-counts", "1", "2",
                          "--tam-widths", "32", "--patterns", "64",
                          "--csv", str(csv_path), "--json", str(json_path)])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "scenario_0000" in output
        assert "result rows" in output
        assert csv_path.exists() and json_path.exists()
        # The CLI writes deterministic artifacts unless --timing is given.
        document = json.loads(json_path.read_text())
        assert "cpu_seconds" not in document["columns"]
        assert "worker" not in document["columns"]

    def test_campaign_timing_flag_keeps_timing_columns(self, capsys, tmp_path):
        json_path = tmp_path / "campaign.json"
        exit_code = main(["campaign", "--core-counts", "1", "--tam-widths",
                          "32", "--patterns", "32", "--timing",
                          "--json", str(json_path)])
        capsys.readouterr()
        assert exit_code == 0
        document = json.loads(json_path.read_text())
        assert "cpu_seconds" in document["columns"]
        assert "wall_seconds" in document


GRID = ["--core-counts", "1", "2", "--tam-widths", "32",
        "--patterns", "32", "--seed", "5"]


class TestShardedExecution:
    def shard_paths(self, tmp_path, capsys, count=2):
        paths = []
        for index in range(count):
            path = tmp_path / f"shard{index}.json"
            assert main(["campaign", *GRID, "--shard", f"{index}/{count}",
                         "--json", str(path)]) == 0
            paths.append(path)
        capsys.readouterr()
        return paths

    def test_shard_runs_write_provenance_artifacts(self, capsys, tmp_path):
        path = self.shard_paths(tmp_path, capsys, count=2)[0]
        document = json.loads(path.read_text())
        assert document["shard"]["index"] == 0
        assert document["shard"]["count"] == 2
        assert document["row_count"] < document["shard"]["total_jobs"]

    def test_shard_merge_equals_monolithic_bitwise(self, capsys, tmp_path):
        paths = self.shard_paths(tmp_path, capsys, count=2)
        merged_path = tmp_path / "merged.json"
        merged_csv = tmp_path / "merged.csv"
        assert main(["merge", *map(str, paths), "--json", str(merged_path),
                     "--csv", str(merged_csv)]) == 0
        output = capsys.readouterr().out
        assert "merged 2 shard artifact(s)" in output

        mono_path = tmp_path / "mono.json"
        mono_csv = tmp_path / "mono.csv"
        assert main(["campaign", *GRID, "--json", str(mono_path),
                     "--csv", str(mono_csv)]) == 0
        capsys.readouterr()
        assert merged_path.read_bytes() == mono_path.read_bytes()
        assert merged_csv.read_bytes() == mono_csv.read_bytes()

    @pytest.mark.parametrize("store", [False, True])
    def test_merge_of_truncated_artifact_names_the_file(self, capsys,
                                                        tmp_path, store):
        paths = self.shard_paths(tmp_path, capsys, count=2)
        torn = tmp_path / "torn.json"
        torn.write_bytes(paths[1].read_bytes()[:300])
        extra = ["--store", str(tmp_path / "merged.store")] if store else []
        assert main(["merge", str(paths[0]), str(torn), *extra]) == 2
        assert f"error: {torn}: not a JSON artifact" in capsys.readouterr().err


class TestAdaptiveResumeCli:
    def test_checkpoint_then_resume_matches_uninterrupted(self, capsys,
                                                          tmp_path):
        ckpt = tmp_path / "ckpt.json"
        assert main(["adaptive", *GRID, "--max-rounds", "1",
                     "--json", str(ckpt)]) == 0
        assert "CHECKPOINT" in capsys.readouterr().out

        final = tmp_path / "final.json"
        assert main(["adaptive", "--resume-from", str(ckpt),
                     "--json", str(final)]) == 0
        assert "resumed" in capsys.readouterr().out

        full = tmp_path / "full.json"
        assert main(["adaptive", *GRID, "--json", str(full)]) == 0
        capsys.readouterr()
        assert final.read_bytes() == full.read_bytes()


class TestExitCodes:
    """Failures exit non-zero with an error line — never 0, never a
    traceback (the regression the distrib PR fixed)."""

    def test_success_returns_zero(self, capsys):
        assert main(["speedup", "--gate-cycles", "20"]) == 0
        capsys.readouterr()

    def test_failed_job_returns_nonzero(self, capsys):
        exit_code = main(["campaign", "--core-counts", "1", "--patterns",
                          "16", "--schedules", "nope"])
        captured = capsys.readouterr()
        assert exit_code != 0
        assert "error:" in captured.err
        assert "nope" in captured.err
        # Regression: a bare KeyError used to render as `error: 'nope'` —
        # just the repr of the missing key, with no hint what went wrong.
        assert "error: unknown schedule/key:" in captured.err
        assert captured.err.strip() != "error: 'nope'"

    def test_merge_of_missing_file_returns_nonzero(self, capsys, tmp_path):
        exit_code = main(["merge", str(tmp_path / "missing.json")])
        captured = capsys.readouterr()
        assert exit_code != 0
        assert "error:" in captured.err

    def test_merge_of_invalid_json_returns_nonzero(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        exit_code = main(["merge", str(path)])
        captured = capsys.readouterr()
        assert exit_code != 0
        assert "error:" in captured.err

    @pytest.mark.parametrize("payload", [
        "[]",                                 # valid JSON, not an object
        '{"schema_version": %d, "distrib_schema_version": 1, '
        '"shard": "not-a-block"}' % SCHEMA_VERSION,  # provenance block wrong
    ])
    def test_merge_of_malformed_artifact_returns_nonzero(self, capsys,
                                                         tmp_path, payload):
        path = tmp_path / "malformed.json"
        path.write_text(payload)
        exit_code = main(["merge", str(path)])
        captured = capsys.readouterr()
        assert exit_code != 0
        assert "error:" in captured.err

    def test_resume_from_malformed_artifact_returns_nonzero(self, capsys,
                                                            tmp_path):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({
            "schema_version": SCHEMA_VERSION, "adaptive_schema_version": 2,
            "objectives": ["peak_power"], "eta": 2.0, "min_budget": 0.5,
            "specs": [{"kind": "generated"}],  # spec misses required fields
        }))
        exit_code = main(["adaptive", "--resume-from", str(path)])
        captured = capsys.readouterr()
        assert exit_code != 0
        assert "error:" in captured.err

    def test_resume_from_wrong_typed_specs_exits_two(self, capsys, tmp_path):
        path = tmp_path / "specs5.json"
        path.write_text(json.dumps({
            "schema_version": SCHEMA_VERSION, "adaptive_schema_version": 2,
            "objectives": ["peak_power"], "eta": 2.0, "min_budget": 0.5,
            "specs": 5,
        }))
        exit_code = main(["adaptive", "--resume-from", str(path)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    def test_merge_of_mismatched_schema_returns_nonzero(self, capsys,
                                                        tmp_path):
        path = tmp_path / "stale.json"
        path.write_text(json.dumps({
            "schema_version": SCHEMA_VERSION - 1,
            "distrib_schema_version": 1,
            "shard": {"index": 0, "count": 1, "start": 0, "stop": 1,
                      "total_jobs": 1, "fingerprint": "0" * 64},
            "columns": [], "row_count": 1, "rows": [{}],
        }))
        exit_code = main(["merge", str(path)])
        captured = capsys.readouterr()
        assert exit_code != 0
        assert "schema_version" in captured.err

    def test_resume_from_missing_artifact_returns_nonzero(self, capsys,
                                                          tmp_path):
        exit_code = main(["adaptive", "--resume-from",
                          str(tmp_path / "missing.json")])
        captured = capsys.readouterr()
        assert exit_code != 0
        assert "error:" in captured.err


class TestStrategyCli:
    def test_strategies_listing(self, capsys):
        assert main(["strategies"]) == 0
        output = capsys.readouterr().out
        for name in ("sequential", "greedy", "binpack", "anneal"):
            assert name in output
        assert "--strategy" in output

    def test_campaign_with_strategy_flags(self, capsys, tmp_path):
        json_path = tmp_path / "strategies.json"
        exit_code = main(["campaign", "--core-counts", "1", "--tam-widths",
                          "32", "--patterns", "16", "--schedules", "greedy",
                          "--strategy", "binpack:fit=worst",
                          "--strategy", "anneal:seed=3,steps=64",
                          "--json", str(json_path)])
        capsys.readouterr()
        assert exit_code == 0
        document = json.loads(json_path.read_text())
        assert document["schema_version"] == SCHEMA_VERSION
        assert "strategy" in document["columns"]
        assert "strategy_params" in document["columns"]
        schedules = [row["schedule"] for row in document["rows"]]
        # --strategy appends to --schedules; parameters are canonicalized.
        assert schedules == ["greedy", "binpack:fit=worst",
                             "anneal:steps=64,seed=3"]
        assert [row["strategy"] for row in document["rows"]] == \
            ["greedy", "binpack", "anneal"]

    def test_strategy_only_run_via_empty_schedules(self, capsys, tmp_path):
        json_path = tmp_path / "only.json"
        exit_code = main(["campaign", "--core-counts", "1", "--tam-widths",
                          "32", "--patterns", "16", "--schedules",
                          "--strategy", "binpack", "--json", str(json_path)])
        capsys.readouterr()
        assert exit_code == 0
        document = json.loads(json_path.read_text())
        assert [row["schedule"] for row in document["rows"]] == ["binpack"]

    def test_no_schedules_at_all_fails_cleanly(self, capsys):
        exit_code = main(["campaign", "--core-counts", "1", "--schedules"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "no schedules" in captured.err

    @pytest.mark.parametrize("value", ["nope", "greedy:bogus=1",
                                       "anneal:steps=x"])
    def test_invalid_strategy_flag_rejected_at_parse_time(self, value):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["campaign", "--strategy", value])

    def test_adaptive_accepts_strategies(self, capsys):
        exit_code = main(["adaptive", "--core-counts", "1", "--tam-widths",
                          "32", "--patterns", "16", "--schedules", "greedy",
                          "--strategy", "binpack"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "binpack" in output


class TestPartialMergeCli:
    def shard_paths(self, tmp_path, capsys, count=3):
        paths = []
        for index in range(count):
            path = tmp_path / f"shard{index}.json"
            assert main(["campaign", *GRID, "--shard", f"{index}/{count}",
                         "--json", str(path)]) == 0
            paths.append(path)
        capsys.readouterr()
        return paths

    def test_partial_merge_reports_gaps_and_writes_replan(self, capsys,
                                                          tmp_path):
        paths = self.shard_paths(tmp_path, capsys)
        gaps_path = tmp_path / "gaps.json"
        merged_path = tmp_path / "partial.json"
        exit_code = main(["merge", "--partial", str(paths[0]), str(paths[2]),
                          "--gaps", str(gaps_path),
                          "--json", str(merged_path)])
        captured = capsys.readouterr()
        # rc 3 (EXIT_REPLANNABLE_GAPS): the merge succeeded but spans are
        # missing — after the artifact and re-plan worklist were written.
        assert exit_code == 3
        assert "missing shard 1/3" in captured.err
        assert "PARTIAL" in captured.out
        replan = json.loads(gaps_path.read_text())
        assert [span["index"] for span in replan["missing"]] == [1]
        merged = json.loads(merged_path.read_text())
        assert merged["partial"]["present"] == [0, 2]

    def test_replannable_gaps_exit_distinct_from_validation_error(
            self, capsys, tmp_path):
        # Regression for the latent issue: automation previously had to
        # parse stderr to tell "merged but gapped, re-plan and rerun" (now
        # rc 3) from "the shard set is invalid" (rc 2) — and rc 3 must not
        # leak onto complete merges (rc 0).
        paths = self.shard_paths(tmp_path, capsys)
        assert main(["merge", "--partial", *map(str, paths)]) == 0
        assert main(["merge", "--partial", str(paths[0]),
                     str(paths[2])]) == 3
        assert main(["merge", "--partial", str(paths[0]),
                     str(tmp_path / "nonexistent.json")]) == 2
        tampered = tmp_path / "tampered.json"
        document = json.loads(paths[0].read_text())
        document["shard"]["fingerprint"] = "0" * 64
        tampered.write_text(json.dumps(document))
        assert main(["merge", "--partial", str(tampered),
                     str(paths[2])]) == 2
        capsys.readouterr()

    def test_partial_store_merge_also_exits_replannable(self, capsys,
                                                        tmp_path):
        paths = self.shard_paths(tmp_path, capsys)
        exit_code = main(["merge", "--partial", str(paths[1]),
                          "--store", str(tmp_path / "gapped.store")])
        captured = capsys.readouterr()
        assert exit_code == 3
        assert "missing shard 0/3" in captured.err

    def test_partial_merge_of_complete_set_is_bitwise_identical(self, capsys,
                                                                tmp_path):
        paths = self.shard_paths(tmp_path, capsys)
        partial_path = tmp_path / "partial.json"
        full_path = tmp_path / "full.json"
        assert main(["merge", "--partial", *map(str, paths),
                     "--json", str(partial_path)]) == 0
        assert main(["merge", *map(str, paths),
                     "--json", str(full_path)]) == 0
        capsys.readouterr()
        assert partial_path.read_bytes() == full_path.read_bytes()

    def test_merge_without_partial_still_rejects_gaps(self, capsys, tmp_path):
        paths = self.shard_paths(tmp_path, capsys)
        exit_code = main(["merge", str(paths[0]), str(paths[2])])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "missing shard index" in captured.err


class TestCoordinatorCli:
    def test_connect_argument_rejects_malformed_addresses(self):
        parser = build_parser()
        for bad in ("localhost", "1.2.3.4:", ":80", "host:notaport",
                    "host:0"):
            with pytest.raises(SystemExit):
                parser.parse_args(["work", "--connect", bad])

    def test_observability_arguments(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args(["serve", "--metrics-port", "0",
                                  "--log-file", str(tmp_path / "s.log")])
        assert args.metrics_port == 0
        assert args.log_file == str(tmp_path / "s.log")
        assert parser.parse_args(["serve"]).metrics_port is None
        args = parser.parse_args(["work", "--connect", "127.0.0.1:4000",
                                  "--log-file", str(tmp_path / "w.log")])
        assert args.log_file == str(tmp_path / "w.log")

    def test_status_arguments(self):
        parser = build_parser()
        args = parser.parse_args(["status", "--connect", "127.0.0.1:4000",
                                  "--timeout", "2.5", "--json"])
        assert args.connect == ("127.0.0.1", 4000)
        assert args.timeout == 2.5
        assert args.json
        assert callable(args.handler)
        with pytest.raises(SystemExit):
            parser.parse_args(["status"])  # --connect is required

    def test_submit_rejects_incompatible_modes_before_connecting(self,
                                                                 capsys):
        # Validation fires before any socket is opened, so a dead address
        # is fine here; each incompatible flag is an operational error (2).
        base = ["submit", "--connect", "127.0.0.1:1"]
        for extra in (["--race"], ["--surrogate"], ["--timing"],
                      ["--workers", "2"], ["--shutdown-after"]):
            exit_code = main(base + extra)
            captured = capsys.readouterr()
            assert exit_code == 2, extra
            assert captured.err.startswith("error:")

    def test_worker_exits_cleanly_when_coordinator_is_unreachable(
            self, capsys):
        # Port 1 refuses connections: the worker loop treats that as the
        # coordinator going away and reports its (empty) stats.
        exit_code = main(["work", "--connect", "127.0.0.1:1", "--id", "w0"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "unreachable" in captured.err
        assert "worker w0: 0 span(s) completed" in captured.out

    def test_status_of_unreachable_coordinator_is_an_operational_error(
            self, capsys):
        # Unlike `work` (a refused connection means "drained, go home"),
        # `status` exists to answer a question — failing to connect is a
        # failure: rc 2, one error line naming the address, no traceback.
        exit_code = main(["status", "--connect", "127.0.0.1:1"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "127.0.0.1:1" in lines[0]
        assert "unreachable" in lines[0]
        assert "Traceback" not in captured.err

    def test_status_round_trip_against_a_live_coordinator(self, capsys):
        import threading

        from repro.explore.coordinator import Coordinator, CoordinatorServer

        coordinator = Coordinator()
        server = CoordinatorServer(coordinator)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        try:
            address = f"127.0.0.1:{server.port}"
            assert main(["status", "--connect", address]) == 0
            rendered = capsys.readouterr().out
            assert "campaigns" in rendered
            assert main(["status", "--connect", address, "--json"]) == 0
            document = json.loads(capsys.readouterr().out)
            assert document["campaigns"] == []
            assert document["leases_granted"] == 0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)
            coordinator.close()


class TestAdaptiveShardCli:
    def test_sharded_adaptive_bitwise_identical_to_unsharded(self, capsys,
                                                             tmp_path):
        sharded = tmp_path / "sharded.json"
        plain = tmp_path / "plain.json"
        assert main(["adaptive", *GRID, "--shard", "1/2",
                     "--json", str(sharded)]) == 0
        assert "sharded" in capsys.readouterr().out
        assert main(["adaptive", *GRID, "--json", str(plain)]) == 0
        capsys.readouterr()
        assert sharded.read_bytes() == plain.read_bytes()


class TestAdaptiveShardTimingWarning:
    def test_shard_with_timing_warns_about_zeroed_columns(self, capsys,
                                                          tmp_path):
        path = tmp_path / "sharded_timing.json"
        assert main(["adaptive", *GRID, "--shard", "0/2", "--timing",
                     "--json", str(path)]) == 0
        captured = capsys.readouterr()
        assert "read as zero" in captured.err


class TestStoreCli:
    """--store wires the columnar store through campaign, merge and
    adaptive; the merge path's regenerated artifacts stay bitwise identical
    to the monolithic run."""

    def test_campaign_store_holds_the_json_rows(self, capsys, tmp_path):
        from repro.explore.store import ColumnarStore

        json_path = tmp_path / "run.json"
        store_path = tmp_path / "run.store"
        assert main(["campaign", *GRID, "--json", str(json_path),
                     "--store", str(store_path)]) == 0
        assert f"wrote {store_path}" in capsys.readouterr().out

        store = ColumnarStore.open(store_path)
        document = json.loads(json_path.read_text())
        assert store.rows() == document["rows"]
        assert store.metadata["kind"] == "campaign"

    def test_merge_store_regenerates_monolithic_bitwise(self, capsys,
                                                        tmp_path):
        paths = []
        for index in range(2):
            path = tmp_path / f"shard{index}.json"
            assert main(["campaign", *GRID, "--shard", f"{index}/2",
                         "--json", str(path)]) == 0
            paths.append(path)
        mono = tmp_path / "mono.json"
        mono_csv = tmp_path / "mono.csv"
        assert main(["campaign", *GRID, "--json", str(mono),
                     "--csv", str(mono_csv)]) == 0
        capsys.readouterr()

        store_path = tmp_path / "merged.store"
        merged_json = tmp_path / "merged.json"
        merged_csv = tmp_path / "merged.csv"
        assert main(["merge", *map(str, paths), "--store", str(store_path),
                     "--json", str(merged_json),
                     "--csv", str(merged_csv)]) == 0
        output = capsys.readouterr().out
        assert "merged 2 shard artifact(s)" in output
        assert f"wrote {store_path}" in output
        assert "grouped by schedule" in output  # the store summary table

        assert merged_json.read_bytes() == mono.read_bytes()
        assert merged_csv.read_bytes() == mono_csv.read_bytes()

    def test_shard_campaign_store_carries_provenance(self, capsys, tmp_path):
        from repro.explore.store import ColumnarStore

        store_path = tmp_path / "shard.store"
        assert main(["campaign", *GRID, "--shard", "0/2",
                     "--store", str(store_path)]) == 0
        capsys.readouterr()
        store = ColumnarStore.open(store_path)
        assert store.metadata["kind"] == "shard"
        assert store.document_header["shard"]["index"] == 0

    def test_adaptive_store_holds_all_round_rows(self, capsys, tmp_path):
        from repro.explore.store import ColumnarStore

        json_path = tmp_path / "adaptive.json"
        store_path = tmp_path / "adaptive.store"
        assert main(["adaptive", *GRID, "--json", str(json_path),
                     "--store", str(store_path)]) == 0
        capsys.readouterr()
        store = ColumnarStore.open(store_path)
        document = json.loads(json_path.read_text())
        assert store.rows() == document["rows"]
        assert store.metadata["kind"] == "adaptive"
        assert "round" in store.columns
