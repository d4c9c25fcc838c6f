"""The command-line interface."""

import pytest

from repro.cli import _build_parser, main

PROGRAM = """
(p go (a ^v <x>) --> (write got <x>) (remove 1))
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.ops5"
    path.write_text(PROGRAM)
    return str(path)


@pytest.fixture
def wmes_file(tmp_path):
    path = tmp_path / "mem.wmes"
    path.write_text("(a ^v 7) (a ^v 9)")
    return str(path)


class TestRun:
    def test_runs_program(self, capsys, program_file, wmes_file):
        assert main(["run", program_file, "--wmes", wmes_file]) == 0
        out = capsys.readouterr().out
        assert "got 9" in out and "got 7" in out
        assert "fired 2 productions" in out

    def test_matcher_selection(self, capsys, program_file, wmes_file):
        for matcher in ("rete", "treat", "naive", "compiled"):
            assert main(["run", program_file, "--wmes", wmes_file,
                         "--matcher", matcher]) == 0

    def test_stats_flag(self, capsys, program_file, wmes_file):
        main(["run", program_file, "--wmes", wmes_file, "--stats", "--matcher", "rete"])
        out = capsys.readouterr().out
        assert "mean affected productions" in out
        assert "rete:" in out

    def test_stats_flag_prints_the_default_kernel_line(self, capsys, program_file, wmes_file):
        main(["run", program_file, "--wmes", wmes_file, "--stats"])
        out = capsys.readouterr().out
        assert "mean affected productions" in out
        assert "-- kernel: " in out and "rete:" not in out

    def test_max_cycles(self, capsys, program_file, wmes_file):
        assert main(["run", program_file, "--wmes", wmes_file,
                     "--max-cycles", "1"]) == 0
        out = capsys.readouterr().out
        assert "fired 1 productions" in out

    def test_missing_file_is_error(self, capsys):
        assert main(["run", "/nonexistent.ops5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_program_is_error(self, capsys, tmp_path):
        path = tmp_path / "bad.ops5"
        path.write_text("(p broken")
        assert main(["run", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestDemo:
    @pytest.mark.parametrize("name", ["monkey", "hanoi", "blocks"])
    def test_demos_run(self, capsys, name):
        assert main(["demo", name]) == 0
        assert "fired" in capsys.readouterr().out


class TestSimulate:
    def test_synthetic_system(self, capsys):
        assert main(["simulate", "--system", "ilog", "--processors", "8",
                     "--firings", "10"]) == 0
        out = capsys.readouterr().out
        assert "concurrency" in out and "wme-changes/s" in out

    def test_from_program_file(self, capsys, program_file, wmes_file):
        assert main(["simulate", "--file", program_file, "--wmes", wmes_file,
                     "--processors", "4"]) == 0
        assert "true speed-up" in capsys.readouterr().out

    def test_machine_knobs(self, capsys):
        assert main(["simulate", "--system", "ilog", "--firings", "5",
                     "--scheduler", "software",
                     "--granularity", "production",
                     "--firing-batch", "2"]) == 0


class TestTables:
    def test_compare(self, capsys):
        assert main(["compare"]) == 0
        out = capsys.readouterr().out
        assert "PSM" in out and "DADO" in out

    def test_figures(self, capsys):
        assert main(["figures", "--firings", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6-1" in out and "Figure 6-2" in out


class TestMeasure:
    def test_demo_measurement(self, capsys):
        from repro.cli import main

        assert main(["measure", "--demo", "monkey"]) == 0
        out = capsys.readouterr().out
        assert "static measurement" in out
        assert "dynamic measurement" in out
        assert "productions" in out

    def test_file_measurement(self, capsys, tmp_path):
        from repro.cli import main

        program = tmp_path / "p.ops5"
        program.write_text("(p go (a ^v <x>) --> (remove 1))")
        wmes = tmp_path / "m.wmes"
        wmes.write_text("(a ^v 1)")
        assert main(["measure", "--file", str(program), "--wmes", str(wmes)]) == 0
        out = capsys.readouterr().out
        assert "firings" in out


class TestGantt:
    def test_simulate_gantt_flag(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--system", "ilog", "--firings", "3",
                     "--processors", "2", "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "p0 |" in out and "p1 |" in out


class TestParallelReaping:
    """``--matcher parallel`` must never leak worker processes."""

    @staticmethod
    def _assert_no_children():
        import multiprocessing
        import time

        for _ in range(100):
            if not multiprocessing.active_children():
                return
            time.sleep(0.05)
        raise AssertionError(
            f"leaked workers: {multiprocessing.active_children()}"
        )

    def test_demo_success_reaps_workers(self, capsys):
        assert main(["demo", "closure", "--matcher", "parallel",
                     "--workers", "2"]) == 0
        assert "fired" in capsys.readouterr().out
        self._assert_no_children()

    def test_run_success_reaps_workers(self, capsys, program_file, wmes_file):
        assert main(["run", program_file, "--wmes", wmes_file,
                     "--matcher", "parallel", "--workers", "2"]) == 0
        self._assert_no_children()

    def test_error_exit_reaps_workers(self, capsys, tmp_path):
        # The program fails to load *after* the matcher pool exists; the
        # pool must still be reaped on the error path.
        path = tmp_path / "bad.ops5"
        path.write_text("(literalize a x)\n(p r (a ^y 1) --> (halt))")
        assert main(["run", str(path), "--matcher", "parallel",
                     "--workers", "2"]) == 1
        assert "error" in capsys.readouterr().err
        self._assert_no_children()

    def test_workers_rejected_for_serial_matchers(self, capsys, program_file):
        assert main(["run", program_file, "--matcher", "rete",
                     "--workers", "2"]) == 1
        assert "parallel" in capsys.readouterr().err

    @pytest.mark.parametrize("matcher", ["rete-indexed", "oflazer", "parallel"])
    def test_remaining_registry_backends_run(self, capsys, program_file,
                                             wmes_file, matcher):
        argv = ["run", program_file, "--wmes", wmes_file, "--matcher", matcher]
        if matcher == "parallel":
            argv += ["--workers", "0"]
        assert main(argv) == 0
        assert "fired 2 productions" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_over_unix_socket(self, tmp_path):
        import os
        import threading
        import time

        from repro.serve import RuleClient

        sock = str(tmp_path / "serve.sock")
        rcs = []
        thread = threading.Thread(
            target=lambda: rcs.append(main(["serve", "--socket", sock])),
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 30
        while not os.path.exists(sock):
            assert time.monotonic() < deadline, "server never bound"
            time.sleep(0.02)
        with RuleClient(sock) as client:
            assert client.ping()["ok"] is True
            sid = client.create_session(program="")
            assert sid in client.list_sessions()
            client.shutdown_server()
        thread.join(timeout=30)
        assert rcs == [0]


class TestVerifyFlag:
    def test_verify_passes_on_clean_run(self, capsys, tmp_path):
        from repro.cli import main

        program = tmp_path / "p.ops5"
        program.write_text("(p go (a ^v <x>) --> (remove 1))")
        wmes = tmp_path / "m.wmes"
        wmes.write_text("(a ^v 1) (a ^v 2)")
        assert main(["run", str(program), "--wmes", str(wmes), "--verify"]) == 0
        assert "verified consistent" in capsys.readouterr().out

    def test_verify_rejects_unverifiable_matchers(self, capsys, tmp_path):
        from repro.cli import main

        program = tmp_path / "p.ops5"
        program.write_text("(p go (a) --> (halt))")
        assert main(["run", str(program), "--matcher", "treat", "--verify"]) == 2

    def test_verify_covers_the_compiled_kernel(self, capsys, tmp_path):
        from repro.cli import main

        program = tmp_path / "p.ops5"
        program.write_text("(p go (a ^v <x>) --> (remove 1))")
        wmes = tmp_path / "m.wmes"
        wmes.write_text("(a ^v 1) (a ^v 2)")
        assert main(["run", str(program), "--wmes", str(wmes),
                     "--matcher", "compiled", "--verify"]) == 0
        assert "verified consistent" in capsys.readouterr().out

    def test_verify_covers_every_partition(self, capsys, tmp_path):
        from repro.cli import main

        program = tmp_path / "p.ops5"
        program.write_text(
            "(p go (a ^v <x>) --> (remove 1))\n"
            "(p see (a ^v <x>) (b ^v <x>) --> (make seen ^v <x>))\n"
            "(p mark (b ^v <x>) - (seen ^v <x>) --> (make c ^v <x>))"
        )
        wmes = tmp_path / "m.wmes"
        wmes.write_text("(a ^v 1) (a ^v 2) (b ^v 1) (b ^v 3)")
        for workers in ("2", "3"):
            assert main(["run", str(program), "--wmes", str(wmes),
                         "--matcher", "parallel", "--workers", workers,
                         "--verify"]) == 0
            assert "verified consistent" in capsys.readouterr().out


class TestMatchersCommand:
    def test_lists_every_registered_matcher(self, capsys):
        from repro.cli import main
        from repro.ops5.engine import MATCHER_NAMES

        assert main(["matchers"]) == 0
        out = capsys.readouterr().out
        for name in MATCHER_NAMES:
            assert name in out
        assert "generated kernel" in out  # the one-line descriptions
        assert "partitioned ruleset" in out  # what `parallel` is now
        assert "transport" not in out


class TestProfileCommand:
    def test_profile_demo_emits_trace_and_metrics(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        events = tmp_path / "events.jsonl"
        assert main(["profile", "--demo", "hanoi", "--trace-out", str(trace),
                     "--metrics-out", str(metrics),
                     "--events-out", str(events)]) == 0
        out = capsys.readouterr().out
        assert "metrics consistent" in out
        document = json.loads(trace.read_text())
        assert document["traceEvents"]
        phases = {row["ph"] for row in document["traceEvents"]}
        assert "X" in phases and "M" in phases
        data = json.loads(metrics.read_text())
        assert data["schema"] == "repro.metrics/1"
        assert data["engine"]["wme_changes"] == data["match"]["wme_changes"]
        assert events.read_text().count("\n") == data["recorder"]["events"]

    def test_profile_parallel_runs_on_the_engine_lane(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.json"
        assert main(["profile", "--demo", "closure", "--matcher", "parallel",
                     "--workers", "2", "--trace-out", str(trace)]) == 0
        assert "metrics consistent" in capsys.readouterr().out
        rows = json.loads(trace.read_text())["traceEvents"]
        names = {row["args"]["name"] for row in rows
                 if row["ph"] == "M" and row["name"] == "thread_name"}
        assert names == {"engine"}
        assert {row["tid"] for row in rows} == {0}
        assert any(row["name"] == "kernel:compile" for row in rows)

    def test_profile_file_with_wmes(self, capsys, program_file, wmes_file,
                                    tmp_path):
        metrics = tmp_path / "m.json"
        assert main(["profile", "--file", program_file, "--wmes", wmes_file,
                     "--metrics-out", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "fired 2 productions" in out

    def test_profile_requires_a_workload(self, capsys):
        with pytest.raises(SystemExit):
            main(["profile"])


class TestArgumentChecks:
    """The CLI refuses bad arguments with argparse's exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["demo", "no-such"],
            ["measure", "--demo", "no-such"],
            ["profile", "--demo", "no-such"],
            ["simulate", "--system", "bogus"],
            ["trace", "--system", "bogus", "--out", "unused.json"],
        ],
    )
    def test_an_unknown_name_is_an_invalid_choice(self, capsys, argv):
        """The bundled programs and paper systems are loaded only when
        an argument names one, and still checked by argparse."""
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        error = capsys.readouterr().err
        assert "invalid choice: " in error
        assert "'closure'" in error or "'vt'" in error  # the choices are listed

    def test_help_lists_the_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["demo", "--help"])
        assert "closure" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--heartbeat-interval", "-1"],
            ["serve", "--heartbeat-interval", "nan"],
            ["serve", "--checkpoint-every", "-1"],
            ["serve", "--commit-window", "-0.5"],
            ["chaos", "--heartbeat-interval", "-1"],
            ["chaos", "--checkpoint-every", "-1"],
        ],
    )
    def test_a_negative_period_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            _build_parser().parse_args(argv)
        assert exit_.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_a_malformed_number_still_names_its_type(self, capsys):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["serve", "--checkpoint-every", "x"])
        assert "invalid int value: 'x'" in capsys.readouterr().err

    def test_zero_periods_are_accepted(self):
        args = _build_parser().parse_args(
            ["serve", "--heartbeat-interval", "0", "--checkpoint-every", "0",
             "--commit-window", "0"]
        )
        assert (args.heartbeat_interval, args.checkpoint_every, args.commit_window) == (
            0.0, 0, 0.0
        )
