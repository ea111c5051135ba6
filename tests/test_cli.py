"""CLI tests: CSV loading, policy files, check/shell/demo commands."""

import io

import pytest

from repro.cli import (
    build_enforcer,
    cmd_check,
    cmd_demo,
    cmd_shell,
    load_csv_table,
    load_policy_file,
    main,
    make_parser,
)
from repro.engine import Database
from repro.errors import ReproError


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "listings.csv").write_text(
        "biz_id,name,stars,active\n"
        "1,alpha,4.5,true\n"
        "2,beta,3.0,false\n"
        "3,gamma,,true\n",
        encoding="utf-8",
    )
    (tmp_path / "owners.csv").write_text(
        "biz_id,owner\n1,ann\n2,bob\n", encoding="utf-8"
    )
    (tmp_path / "no-listing-joins.sql").write_text(
        "SELECT DISTINCT 'listings may not be joined' "
        "FROM schema s1, schema s2 "
        "WHERE s1.ts = s2.ts AND s1.irid = 'listings' "
        "AND s2.irid <> 'listings'",
        encoding="utf-8",
    )
    return tmp_path


class TestLoading:
    def test_csv_types(self, workspace):
        db = Database()
        name = load_csv_table(db, workspace / "listings.csv")
        assert name == "listings"
        rows = db.table("listings").rows()
        assert rows[0] == (1, "alpha", 4.5, True)
        assert rows[1][3] is False
        assert rows[2][2] is None  # empty cell = NULL

    def test_empty_csv_rejected(self, tmp_path):
        empty = tmp_path / "x.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(ReproError):
            load_csv_table(Database(), empty)

    def test_policy_file(self, workspace):
        policy = load_policy_file(workspace / "no-listing-joins.sql")
        assert policy.name == "no-listing-joins"
        assert "joined" in policy.message

    def test_build_enforcer(self, workspace):
        enforcer = build_enforcer(
            [str(workspace / "listings.csv"), str(workspace / "owners.csv")],
            [str(workspace / "no-listing-joins.sql")],
        )
        assert enforcer.database.has_table("listings")
        assert len(enforcer.policies) == 1


class TestCheckCommand:
    def _args(self, workspace, **overrides):
        argv = [
            "check",
            "--data",
            str(workspace / "listings.csv"),
            "--data",
            str(workspace / "owners.csv"),
            "--policy",
            str(workspace / "no-listing-joins.sql"),
        ]
        for key, value in overrides.items():
            argv.extend([f"--{key}", value] if value is not True else [f"--{key}"])
        return make_parser().parse_args(argv)

    def test_allowed_query(self, workspace):
        out = io.StringIO()
        args = self._args(workspace, query="SELECT name FROM listings")
        assert cmd_check(args, out) == 0
        assert "ALLOWED (3 rows)" in out.getvalue()

    def test_rejected_query_sets_exit_code(self, workspace):
        out = io.StringIO()
        args = self._args(
            workspace,
            query="SELECT l.name, o.owner FROM listings l, owners o "
            "WHERE l.biz_id = o.biz_id",
        )
        assert cmd_check(args, out) == 1
        assert "REJECTED" in out.getvalue()

    def test_explain_flag(self, workspace):
        out = io.StringIO()
        args = self._args(
            workspace,
            query="SELECT l.name, o.owner FROM listings l, owners o "
            "WHERE l.biz_id = o.biz_id",
            explain=True,
        )
        cmd_check(args, out)
        assert "evidence" in out.getvalue()

    def test_query_file(self, workspace):
        (workspace / "queries.sql").write_text(
            "SELECT name FROM listings; SELECT owner FROM owners",
            encoding="utf-8",
        )
        out = io.StringIO()
        args = make_parser().parse_args(
            [
                "check",
                "--data",
                str(workspace / "listings.csv"),
                "--data",
                str(workspace / "owners.csv"),
                "--policy",
                str(workspace / "no-listing-joins.sql"),
                "--query-file",
                str(workspace / "queries.sql"),
            ]
        )
        assert cmd_check(args, out) == 0
        assert out.getvalue().count("ALLOWED") == 2

    def test_bad_sql_reports_error(self, workspace):
        out = io.StringIO()
        args = self._args(workspace, query="SELEKT nope")
        assert cmd_check(args, out) == 2
        assert "ERROR" in out.getvalue()


class TestShellCommand:
    def test_scripted_session(self, workspace):
        out = io.StringIO()
        script = iter(
            [
                "SELECT name FROM listings",
                "SELECT l.name FROM listings l, owners o WHERE l.biz_id = o.biz_id",
                ":explain",
                ":log",
                ":policies",
                ":quit",
            ]
        )
        args = make_parser().parse_args(
            [
                "shell",
                "--data",
                str(workspace / "listings.csv"),
                "--data",
                str(workspace / "owners.csv"),
                "--policy",
                str(workspace / "no-listing-joins.sql"),
            ]
        )
        code = cmd_shell(args, out, input_fn=lambda prompt: next(script))
        assert code == 0
        text = out.getvalue()
        assert "ALLOWED" in text and "REJECTED" in text
        assert "evidence" in text
        assert "no-listing-joins:" in text

    def test_eof_exits(self, workspace):
        out = io.StringIO()
        args = make_parser().parse_args(
            ["shell", "--data", str(workspace / "listings.csv")]
        )

        def raise_eof(prompt):
            raise EOFError

        assert cmd_shell(args, out, input_fn=raise_eof) == 0


class TestDemoCommand:
    def test_demo_runs(self):
        out = io.StringIO()
        args = make_parser().parse_args(["demo", "--patients", "60"])
        assert cmd_demo(args, out) == 0
        text = out.getvalue()
        assert "W4 uid=1" in text
        assert "REJECTED" in text


class TestMain:
    def test_main_dispatches(self, workspace):
        code = main(
            [
                "check",
                "--data",
                str(workspace / "listings.csv"),
                "--policy",
                str(workspace / "no-listing-joins.sql"),
                "--query",
                "SELECT name FROM listings",
            ]
        )
        assert code == 0


class TestReportCommand:
    def test_report_bundles_results(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig1_uid0.txt").write_text("FIG1 TABLE\n", encoding="utf-8")
        (results / "extra.txt").write_text("EXTRA TABLE\n", encoding="utf-8")
        out = io.StringIO()
        args = make_parser().parse_args(
            ["report", "--results", str(results)]
        )
        from repro.cli import cmd_report

        assert cmd_report(args, out) == 0
        text = out.getvalue()
        assert "FIG1 TABLE" in text and "EXTRA TABLE" in text
        assert text.index("FIG1") < text.index("EXTRA")

    def test_report_writes_output_file(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig4.txt").write_text("FIG4\n", encoding="utf-8")
        target = tmp_path / "REPORT.txt"
        out = io.StringIO()
        args = make_parser().parse_args(
            ["report", "--results", str(results), "--output", str(target)]
        )
        from repro.cli import cmd_report

        cmd_report(args, out)
        assert "FIG4" in target.read_text(encoding="utf-8")

    def test_report_missing_dir(self, tmp_path):
        out = io.StringIO()
        args = make_parser().parse_args(
            ["report", "--results", str(tmp_path / "nope")]
        )
        from repro.cli import cmd_report

        assert cmd_report(args, out) == 1


class TestServeCommand:
    def test_build_server_wires_flags_into_service(self, workspace):
        from repro.cli import build_server

        args = make_parser().parse_args(
            [
                "serve",
                "--data", str(workspace / "listings.csv"),
                "--policy", str(workspace / "no-listing-joins.sql"),
                "--port", "0",
                "--shards", "3",
                "--queue-depth", "7",
            ]
        )
        server = build_server(args)
        try:
            service = server.service
            assert service.config.shards == 3
            assert service.config.queue_depth == 7
            assert len(service.shards) == 3
            [entry] = service.policies()
            assert entry["name"] == "no-listing-joins"
        finally:
            server.server_close()

    def test_workers_flag_is_gone(self, capsys):
        # One worker per shard is not a knob any more.
        with pytest.raises(SystemExit):
            make_parser().parse_args(["serve", "--demo", "--workers", "2"])
        assert "--workers" in capsys.readouterr().err

    def test_demo_flag_serves_marketplace(self):
        from repro.cli import build_server

        args = make_parser().parse_args(
            ["serve", "--demo", "--port", "0", "--shards", "2"]
        )
        server = build_server(args)
        try:
            names = {entry["name"] for entry in server.service.policies()}
            assert "no-blending" in names
            assert any(name.startswith("free-tier-u") for name in names)
            decision = server.service.submit(
                "SELECT name FROM listings WHERE biz_id = 1", uid=1
            )
            assert decision.allowed
        finally:
            server.server_close()
