"""Command-line interface: ``python -m repro``.

Subcommands:

- ``check`` — load CSV tables and ``.sql`` policy files, then check one
  query (or a file of queries) and report each decision;
- ``shell`` — the same setup, interactively: type SQL, see decisions,
  ``:explain`` the last rejection, ``:log`` to inspect the usage log;
- ``demo`` — a self-contained tour on the synthetic MIMIC-II database
  with the paper's six policies;
- ``explain`` — show the physical plan the engine would run for a
  query; ``--analyze`` executes it and annotates every operator with
  observed rows and time;
- ``serve`` — the sharded HTTP enforcement gateway (``--data-dir``
  makes every decision durable via a write-ahead log);
- ``incremental`` — report which policies the incremental classifier
  accepts for running-aggregate maintenance, and why the rest fall
  back to full evaluation; ``--explain NAME`` focuses one policy;
- ``recover`` — offline inspection/repair of a durability directory:
  replays each shard's WAL and reports what survived.

CSV files load as tables named after the file (header row = column
names; values are parsed as int → float → string, empty = NULL). Policy
files contain one policy query each, named after the file.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import Optional, Sequence

from .core import Enforcer, EnforcerOptions, Policy, explain_decision
from .engine import Database, SqlValue
from .errors import ReproError
from .log import SimulatedClock


def _parse_value(text: str) -> SqlValue:
    if text == "":
        return None
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    return text


def load_csv_table(database: Database, path: Path) -> str:
    """Load one CSV file as a table named after the file stem."""
    name = path.stem.lower()
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ReproError(f"{path}: empty CSV file") from None
        columns = [column.strip().lower() for column in header]
        rows = [tuple(_parse_value(cell) for cell in row) for row in reader]
    database.load_table(name, columns, rows)
    return name


def load_policy_file(path: Path) -> Policy:
    """Load one policy query from a .sql file, named after the file stem."""
    return Policy.from_sql(path.stem, path.read_text(encoding="utf-8"))


def build_enforcer(
    data_paths: Sequence[str],
    policy_paths: Sequence[str],
) -> Enforcer:
    database = Database()
    for spec in data_paths:
        load_csv_table(database, Path(spec))
    policies = [load_policy_file(Path(spec)) for spec in policy_paths]
    return Enforcer(
        database,
        policies,
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(),
    )


def _print_decision(decision, out) -> None:
    if decision.allowed:
        result = decision.result
        print(f"ALLOWED ({len(result.rows) if result else 0} rows)", file=out)
        if result and result.rows:
            print("  " + " | ".join(result.columns), file=out)
            for row in result.rows[:25]:
                print("  " + " | ".join(str(v) for v in row), file=out)
            if len(result.rows) > 25:
                print(f"  ... {len(result.rows) - 25} more rows", file=out)
    else:
        print("REJECTED", file=out)
        for violation in decision.violations:
            print(f"  {violation}", file=out)


def cmd_check(args, out=sys.stdout) -> int:
    enforcer = build_enforcer(args.data, args.policy)
    if args.query:
        queries = [args.query]
    else:
        text = Path(args.query_file).read_text(encoding="utf-8")
        queries = [q.strip() for q in text.split(";") if q.strip()]
    exit_code = 0
    for sql in queries:
        print(f"> {sql}", file=out)
        try:
            decision = enforcer.submit(sql, uid=args.uid)
        except ReproError as error:
            print(f"ERROR: {error}", file=out)
            exit_code = 2
            continue
        _print_decision(decision, out)
        if not decision.allowed:
            exit_code = 1
            if args.explain:
                for explanation in explain_decision(enforcer, decision):
                    print(explanation.render(), file=out)
    return exit_code


def cmd_shell(args, out=sys.stdout, input_fn=input) -> int:
    enforcer = build_enforcer(args.data, args.policy)
    print(
        f"DataLawyer shell — {len(enforcer.policies)} policies over "
        f"{', '.join(n for n in enforcer.database.table_names())}",
        file=out,
    )
    print("Type SQL, or :explain / :log / :policies / :quit", file=out)
    last_rejection = None
    while True:
        try:
            line = input_fn("datalawyer> ")
        except (EOFError, KeyboardInterrupt):
            print("", file=out)
            return 0
        line = line.strip()
        if not line:
            continue
        if line in (":quit", ":q", "exit"):
            return 0
        if line == ":log":
            for name, size in enforcer.log_sizes().items():
                print(f"  {name}: {size} rows", file=out)
            continue
        if line == ":policies":
            for policy in enforcer.policies:
                print(f"  {policy.name}: {policy.message}", file=out)
            continue
        if line == ":explain":
            if last_rejection is None:
                print("  nothing to explain", file=out)
            else:
                for explanation in explain_decision(enforcer, last_rejection):
                    print(explanation.render(), file=out)
            continue
        try:
            decision = enforcer.submit(line, uid=args.uid)
        except ReproError as error:
            print(f"ERROR: {error}", file=out)
            continue
        _print_decision(decision, out)
        if not decision.allowed:
            last_rejection = decision


def cmd_demo(args, out=sys.stdout) -> int:
    from .workloads import (
        MimicConfig,
        PolicyParams,
        build_mimic_database,
        make_all_policies,
        make_workload,
    )

    config = MimicConfig(n_patients=args.patients)
    params = PolicyParams.for_config(config)
    enforcer = Enforcer(
        build_mimic_database(config),
        make_all_policies(params),
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(),
    )
    workload = make_workload(config)
    print(
        f"Synthetic MIMIC-II ({config.n_patients} patients) under the "
        "paper's six policies (Table 2).",
        file=out,
    )
    for name, sql in workload.all().items():
        for uid in (0, 1):
            decision = enforcer.submit(sql, uid=uid)
            verdict = "ALLOWED" if decision.allowed else "REJECTED"
            overhead = decision.metrics.overhead_seconds * 1000
            query_ms = decision.metrics.query_seconds * 1000
            print(
                f"  {name} uid={uid}: {verdict}  "
                f"query {query_ms:6.2f} ms, enforcement {overhead:6.2f} ms",
                file=out,
            )
    blocked = enforcer.submit(
        "SELECT o.poe_id FROM poe_order o, d_patients p "
        "WHERE o.subject_id = p.subject_id",
        uid=1,
    )
    print("  restricted join for uid=1:", file=out)
    _print_decision(blocked, out)
    print(f"  usage log after compaction: {enforcer.log_sizes()}", file=out)
    return 0


def cmd_incremental(args, out=sys.stdout) -> int:
    """Show the incremental classifier's verdict for each policy."""
    if args.demo:
        from .workloads import (
            MimicConfig,
            PolicyParams,
            build_mimic_database,
            make_all_policies,
        )

        config = MimicConfig(n_patients=args.patients)
        enforcer = Enforcer(
            build_mimic_database(config),
            make_all_policies(PolicyParams.for_config(config)),
            clock=SimulatedClock(default_step_ms=10),
            options=EnforcerOptions.datalawyer(),
        )
    else:
        enforcer = build_enforcer(args.data, args.policy)
    report = enforcer.incremental_report()
    if args.explain:
        report = [
            entry
            for entry in report
            if args.explain == entry["runtime"]
            or args.explain in entry["policies"]
        ]
        if not report:
            print(f"no policy named {args.explain!r}", file=out)
            return 1
    for entry in report:
        verdict = (
            "incrementalizable" if entry["incrementalizable"] else "full-eval"
        )
        names = ", ".join(entry["policies"])
        print(f"{names}: {verdict} — {entry['reason']}", file=out)
        plan = entry.get("plan")
        if plan:
            print(f"  group by: {', '.join(plan['group_by']) or '(global)'}",
                  file=out)
            for aggregate in plan["aggregates"]:
                print(f"  aggregate: {aggregate}", file=out)
            for window in plan["windows"]:
                print(f"  window: {window}", file=out)
            print(f"  log relations: {', '.join(plan['log_relations'])}",
                  file=out)
    return 0


def cmd_explain(args, out=sys.stdout) -> int:
    """EXPLAIN / EXPLAIN ANALYZE one query, outside any policy check."""
    from .engine import Engine

    if args.demo:
        from .workloads import MimicConfig, build_mimic_database

        database = build_mimic_database(MimicConfig(n_patients=args.patients))
    else:
        database = Database()
        for spec in args.data:
            load_csv_table(database, Path(spec))
    engine = Engine(database)
    try:
        print(engine.explain(args.query, analyze=args.analyze), file=out)
    except ReproError as error:
        print(f"ERROR: {error}", file=out)
        return 2
    return 0


def build_server(args):
    """Construct (but do not start) the HTTP server for ``serve``.

    Split from :func:`cmd_serve` so tests can exercise the wiring —
    flags → :class:`~repro.service.ServiceConfig` → sharded service —
    without binding a real port and blocking on ``serve_forever``.
    """
    from .server import serve
    from .service import ServiceConfig

    if args.demo:
        from .workloads import (
            MarketplaceConfig,
            build_marketplace_database,
            sharded_contract,
            standard_contract,
        )

        config = MarketplaceConfig()
        # Sharded demos use the per-uid contract rewrite — unless the
        # global tier is on, which exists precisely to host the standard
        # contract's cross-user free-tier quota.
        contract = (
            sharded_contract(config)
            if args.shards > 1 and args.global_tier == "off"
            else standard_contract(config)
        )
        enforcer = Enforcer(
            build_marketplace_database(config),
            contract,
            clock=SimulatedClock(default_step_ms=10),
            options=EnforcerOptions.datalawyer(),
        )
    else:
        enforcer = build_enforcer(args.data, args.policy)
    return serve(
        enforcer,
        host=args.host,
        port=args.port,
        config=ServiceConfig(
            shards=args.shards,
            queue_depth=args.queue_depth,
            workers_mode="process" if args.processes else "thread",
            data_dir=args.data_dir,
            wal_sync=not args.no_fsync,
            checkpoint_every=args.checkpoint_every,
            batch_size=args.batch_size,
            decision_cache=not args.no_decision_cache,
            incremental=not args.no_incremental,
            tracing=not args.no_tracing,
            slow_query_seconds=args.slow_query_ms / 1000.0,
            global_tier=args.global_tier,
        ),
    )


def cmd_serve(args, out=sys.stdout) -> int:
    try:
        server = build_server(args)
    except ReproError as error:
        print(f"ERROR: {error}", file=out)
        return 2
    host, port = server.server_address[:2]
    service = server.service
    print(
        f"enforcement gateway on http://{host}:{port} — "
        f"{service.config.shards} shard(s), "
        f"queue depth {service.config.queue_depth}",
        file=out,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("draining...", file=out)
    finally:
        server.server_close()  # drains the shards
    return 0


def cmd_recover(args, out=sys.stdout) -> int:
    """Offline recovery: repair, replay, and report each shard directory."""
    from .storage import checkpoint as write_checkpoint
    from .storage import has_state, recover_enforcer

    root = Path(args.data_dir)

    def shard_key(path: Path) -> "tuple[int, str]":
        suffix = path.name.split("-", 1)[-1]
        return (int(suffix), path.name) if suffix.isdigit() else (-1, path.name)

    shard_dirs = sorted(
        (path for path in root.glob("shard-*") if path.is_dir()),
        key=shard_key,
    )
    if not shard_dirs and has_state(root):
        # A bare (non-sharded) durability directory.
        shard_dirs = [root]
    if not shard_dirs:
        print(f"no durable state under {root}", file=out)
        return 1

    failures = 0
    for shard_dir in shard_dirs:
        try:
            enforcer, wal, report = recover_enforcer(
                shard_dir, clock=SimulatedClock(default_step_ms=10)
            )
        except ReproError as error:
            print(f"{shard_dir.name}: FAILED — {error}", file=out)
            failures += 1
            continue
        print(f"{shard_dir.name}: {report.summary()}", file=out)
        sizes = ", ".join(
            f"{name}={size}" for name, size in enforcer.log_sizes().items()
        )
        print(
            f"  {len(enforcer.policies)} policies; log sizes: {sizes}",
            file=out,
        )
        if args.checkpoint:
            write_checkpoint(enforcer, shard_dir, wal)
            print("  checkpoint written; WAL truncated", file=out)
        wal.close()
    return 2 if failures else 0


def cmd_report(args, out=sys.stdout) -> int:
    """Bundle the benchmark result tables into one report."""
    results_dir = Path(args.results)
    if not results_dir.is_dir():
        print(
            f"no results at {results_dir} — run "
            "`pytest benchmarks/ --benchmark-only` first",
            file=out,
        )
        return 1
    order = [
        "fig1_uid0", "fig1_uid1", "fig2a", "fig2b", "fig2c",
        "fig3_P1", "fig3_P5", "fig3_P6", "fig3_time_independent",
        "table4", "fig4", "fig5",
        "ablation_preemptive", "ablation_improved_partial",
        "ablation_deferred_compaction",
    ]
    names = [name for name in order if (results_dir / f"{name}.txt").exists()]
    names += sorted(
        path.stem
        for path in results_dir.glob("*.txt")
        if path.stem not in order
    )
    if not names:
        print(f"no result tables in {results_dir}", file=out)
        return 1
    sections = [
        (results_dir / f"{name}.txt").read_text(encoding="utf-8")
        for name in names
    ]
    report = (
        "DataLawyer reproduction — measured evaluation artifacts\n"
        "(see EXPERIMENTS.md for the paper-vs-measured discussion)\n"
        + "".join(sections)
    )
    print(report, file=out)
    if args.output:
        Path(args.output).write_text(report, encoding="utf-8")
        print(f"written to {args.output}", file=out)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DataLawyer: automatic enforcement of data use policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="check queries against policies")
    check.add_argument(
        "--data", action="append", default=[], help="CSV file to load as a table"
    )
    check.add_argument(
        "--policy", action="append", default=[], help=".sql policy file"
    )
    check.add_argument("--uid", type=int, default=1, help="submitting user id")
    check.add_argument("--explain", action="store_true", help="explain rejections")
    group = check.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", help="one SQL query")
    group.add_argument("--query-file", help="file of ';'-separated queries")
    check.set_defaults(func=cmd_check)

    shell = sub.add_parser("shell", help="interactive policy-checked SQL shell")
    shell.add_argument("--data", action="append", default=[])
    shell.add_argument("--policy", action="append", default=[])
    shell.add_argument("--uid", type=int, default=1)
    shell.set_defaults(func=cmd_shell)

    demo = sub.add_parser("demo", help="tour on the synthetic MIMIC-II setup")
    demo.add_argument("--patients", type=int, default=200)
    demo.set_defaults(func=cmd_demo)

    explain = sub.add_parser(
        "explain", help="show (or EXPLAIN ANALYZE) a query's physical plan"
    )
    explain.add_argument(
        "--data", action="append", default=[], help="CSV file to load as a table"
    )
    explain.add_argument(
        "--demo",
        action="store_true",
        help="explain against the synthetic MIMIC-II tables",
    )
    explain.add_argument("--patients", type=int, default=200)
    explain.add_argument("--query", required=True, help="the SQL query")
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="execute the plan and annotate operators with rows and time",
    )
    explain.set_defaults(func=cmd_explain)

    serve = sub.add_parser(
        "serve", help="run the sharded HTTP enforcement gateway"
    )
    serve.add_argument("--data", action="append", default=[])
    serve.add_argument("--policy", action="append", default=[])
    serve.add_argument(
        "--demo",
        action="store_true",
        help="serve the marketplace workload instead of --data/--policy",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--shards", type=int, default=1,
        help="enforcer shards (uid-hash routed; policies must be "
        "shard-local when > 1 unless --global-tier is enabled)",
    )
    serve.add_argument(
        "--global-tier", choices=("off", "async", "strict"), default="off",
        help="coordinator-side global policy tier for multi-shard "
        "deployments: 'async' admits monotone aggregate thresholds "
        "answered from streamed aggregator state (bounded staleness), "
        "'strict' additionally serializes the rest through two-phase "
        "reserve/commit admission (bit-identical to one shard)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=32,
        help="admission queue slots per shard (full queue → HTTP 429)",
    )
    serve.add_argument(
        "--processes", action="store_true",
        help="host each shard in a worker process instead of a thread "
        "(shared-nothing enforcers behind pipes; the only flavour that "
        "can use more than one core)",
    )
    serve.add_argument(
        "--data-dir", default=None,
        help="durability directory: journal every decision to a per-shard "
        "write-ahead log and recover existing state on startup",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=256,
        help="snapshot + WAL truncation cadence in queries per shard "
        "(0 = only on drain and policy changes; needs --data-dir)",
    )
    serve.add_argument(
        "--no-fsync", action="store_true",
        help="skip fsync on WAL appends (faster; an OS crash may lose "
        "the newest records)",
    )
    serve.add_argument(
        "--batch-size", type=int, default=1,
        help="max queued queries a shard worker drains per wakeup; a "
        "batch shares one lock hold and one WAL group commit",
    )
    serve.add_argument(
        "--no-decision-cache", action="store_true",
        help="disable the per-shard cross-query decision cache",
    )
    serve.add_argument(
        "--no-incremental", action="store_true",
        help="disable incremental aggregate maintenance (every check "
        "re-evaluates its policies over the full usage log)",
    )
    serve.add_argument(
        "--no-tracing", action="store_true",
        help="disable per-query trace spans (trims the /v1/metrics and "
        "explain=analyze surfaces)",
    )
    serve.add_argument(
        "--slow-query-ms", type=float, default=0.0,
        help="log checks slower than this (with their span tree) and "
        "keep them on GET /v1/slowlog; 0 disables",
    )
    serve.set_defaults(func=cmd_serve)

    incremental = sub.add_parser(
        "incremental",
        help="show which policies can be maintained incrementally",
    )
    incremental.add_argument(
        "--data", action="append", default=[], help="CSV file to load as a table"
    )
    incremental.add_argument(
        "--policy", action="append", default=[], help=".sql policy file"
    )
    incremental.add_argument(
        "--demo",
        action="store_true",
        help="classify the paper's six policies on the MIMIC-II setup",
    )
    incremental.add_argument("--patients", type=int, default=50)
    incremental.add_argument(
        "--explain", metavar="NAME",
        help="show only the named policy's classification (exit 1 if "
        "no policy has that name)",
    )
    incremental.set_defaults(func=cmd_incremental)

    recover = sub.add_parser(
        "recover",
        help="inspect and repair a durability directory offline",
    )
    recover.add_argument(
        "data_dir", help="the --data-dir a previous serve run journaled to"
    )
    recover.add_argument(
        "--checkpoint", action="store_true",
        help="also write a fresh checkpoint (truncating the WAL) so the "
        "next serve starts without replay",
    )
    recover.set_defaults(func=cmd_recover)

    report = sub.add_parser(
        "report", help="bundle benchmark result tables into one report"
    )
    report.add_argument(
        "--results", default="benchmarks/results", help="results directory"
    )
    report.add_argument("--output", help="also write the report to this file")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
