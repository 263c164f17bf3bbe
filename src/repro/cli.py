"""Command-line entry point: regenerate any paper experiment by id.

Usage::

    python -m repro table1            # policy comparison (Table 1)
    python -m repro table2            # allocation iterations, scenario I
    python -m repro table3            # run-time trace, scenario I
    python -m repro table4            # allocation iterations, scenario II
    python -m repro table5            # run-time trace, scenario II
    python -m repro fig3 [--csv]      # charging/use schedule, scenario I
    python -m repro fig4 [--csv]      # charging/use schedule, scenario II
    python -m repro all               # everything, in paper order
    python -m repro library           # proposed vs. static over the extended scenario library
    python -m repro sweep [--workers N] [--scenarios paper|library|all]
                          [--supply-factors 1.0,0.9] [--json report.json]
                                      # batch grid runner (serial or parallel)
    python -m repro serve --socket /tmp/repro-plan.sock [--workers N]
                                      # the plan-serving daemon (docs/SERVICE.md)
    python -m repro client plan --scenario scenario1 [--supply-factor 0.9]
    python -m repro client status     # thin client for the daemon
    python -m repro fleet --socket /tmp/repro-fleet.sock --backends 3
                                      # gateway + N replicas (docs/FLEET.md)
    python -m repro verify [--seed N] [--cases N] [--corrupt]
                                      # paper-invariant oracle + differential
                                      # checks + fuzzers (docs/VERIFY.md);
                                      # exits nonzero on any violation
    python -m repro chaos [--seed N] [--duration S]
                                      # seeded fault injection against a live
                                      # fleet (docs/OPERATIONS.md); exits
                                      # nonzero unless the stack absorbed
                                      # every fault with zero failed requests

Every subcommand accepts ``--log-level``; planner or simulation failures
exit nonzero with a one-line error instead of a traceback.  ``client``
distinguishes failure classes by exit code: 1 for service errors, 3 for
transport failures (daemon unreachable, connection lost mid-frame, or a
gateway with no healthy replica), 4 when the request was load-shed with
``overloaded`` — so wrappers can retry sheds but page on outages.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .analysis.batch import CellSpec, default_workers, run_grid
from .analysis.figures import figure3, figure4
from .analysis.report import format_table
from .analysis.sweep import sweep_scenarios
from .analysis.tables import allocation_table, runtime_table, table1
from .scenarios.library import library_scenarios
from .scenarios.paper import pama_frontier, paper_scenarios, scenario1, scenario2
from .util.jsonio import dump_json, dumps_json

__all__ = ["main"]

_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def _add_log_level(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level",
        choices=_LOG_LEVELS,
        default="warning",
        help="root logging threshold (shared by all subcommands; default warning)",
    )


def _configure_logging(level_name: str) -> None:
    logging.basicConfig(
        level=getattr(logging, level_name.upper()),
        format="%(asctime)s %(levelname)s %(name)s %(message)s",
        force=True,
    )

EXPERIMENTS = ("table1", "table2", "table3", "table4", "table5", "fig3", "fig4")
EXTRAS = ("library", "sweep")


def _render(experiment: str, *, csv: bool, n_periods: int) -> str:
    if experiment == "table1":
        return table1(n_periods=n_periods).text()
    if experiment == "table2":
        return allocation_table(scenario1()).text()
    if experiment == "table4":
        return allocation_table(scenario2()).text()
    if experiment == "table3":
        return runtime_table(scenario1(), n_periods=n_periods).text()
    if experiment == "table5":
        return runtime_table(scenario2(), n_periods=n_periods).text()
    if experiment == "fig3":
        fig = figure3(include_allocation=True)
        return fig.csv() if csv else fig.text()
    if experiment == "fig4":
        fig = figure4(include_allocation=True)
        return fig.csv() if csv else fig.text()
    if experiment == "library":
        scenarios = list(paper_scenarios()) + list(library_scenarios())
        cells = sweep_scenarios(scenarios, pama_frontier(), n_periods=n_periods)
        return format_table(
            ["scenario", "policy", "wasted (J)", "undersupplied (J)", "utilization"],
            [
                (c.scenario, c.policy, c.result.wasted,
                 c.result.undersupplied, c.result.utilization)
                for c in cells
            ],
            title="Proposed vs. static across the scenario library",
        )
    raise ValueError(f"unknown experiment {experiment!r}")


_SCENARIO_SETS = ("paper", "library", "all")


def _sweep_scenario_set(which: str):
    if which == "paper":
        return list(paper_scenarios())
    if which == "library":
        return list(library_scenarios())
    return list(paper_scenarios()) + list(library_scenarios())


def _run_sweep(args) -> str:
    """The ``sweep`` subcommand: run a grid through the batch runner."""
    scenarios = _sweep_scenario_set(args.scenarios)
    policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
    factors = [
        float(f) for f in args.supply_factors.split(",") if f.strip()
    ] if args.supply_factors else [None]
    cells = [
        CellSpec(
            scenario=sc,
            policy=policy,
            knob=factor,
            n_periods=args.periods,
            supply_factor=1.0 if factor is None else factor,
        )
        for sc in scenarios
        for factor in factors
        for policy in policies
    ]
    n_workers = default_workers() if args.workers == "auto" else int(args.workers)
    report = run_grid(
        cells,
        pama_frontier(),
        n_workers=n_workers,
        cache=not args.no_cache,
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            # Strict JSON: NaN (plan-free allocated power, degenerate knobs)
            # serializes as null, never as the bare NaN token.
            dump_json(report.summary(), fh, indent=2)
    table = format_table(
        ["scenario", "policy", "supply factor", "wasted (J)",
         "undersupplied (J)", "utilization"],
        report.rows(),
        title=(
            f"Batch sweep — {len(cells)} cells, "
            f"{report.n_workers or 'serial'} workers"
        ),
    )
    footer = (
        f"wall {report.wall_s:.3f} s (warm {report.warm_s:.3f} s) · "
        f"allocation cache {report.cache_hits} hits / "
        f"{report.cache_misses} misses "
        f"(hit rate {report.cache_hit_rate:.2f})"
    )
    return table + "\n" + footer


def _install_thread_dump_handler() -> None:
    """SIGUSR1 → dump every thread's stack to stderr (live diagnosis of a
    wedged daemon — see docs/OPERATIONS.md).  No-op where unsupported."""
    import faulthandler
    import signal as _signal

    if hasattr(_signal, "SIGUSR1"):
        try:
            faulthandler.register(_signal.SIGUSR1, all_threads=True)
        except (ValueError, RuntimeError):  # non-main thread / exotic platform
            pass


def _serve_main(argv: list[str]) -> int:
    """The ``serve`` subcommand: run the plan-serving daemon until SIGTERM."""
    from .service.server import PlanServer, ServerConfig

    parser = argparse.ArgumentParser(
        prog="repro-dpm serve",
        description="Run the plan-serving daemon (see docs/SERVICE.md).",
    )
    parser.add_argument(
        "--socket",
        default="unix:repro-plan.sock",
        metavar="ADDR",
        help="bind address: unix:PATH or HOST:PORT (default unix:repro-plan.sock)",
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker processes (0/1 = in-process execution, default 0)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=1024, metavar="N",
        help="plan-LRU entries (default 1024)",
    )
    parser.add_argument(
        "--max-pending", type=int, default=64, metavar="N",
        help="in-flight computations before load-shedding (default 64)",
    )
    parser.add_argument(
        "--deadline", type=float, default=30.0, metavar="S",
        help="default per-request deadline in seconds; 0 = none (default 30)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="S",
        help="bound on the SIGTERM drain (default 10)",
    )
    parser.add_argument(
        "--metrics-interval", type=float, default=60.0, metavar="S",
        help="periodic structured metrics log cadence; 0 disables (default 60)",
    )
    parser.add_argument(
        "--alloc-memo-size", type=int, default=None, metavar="N",
        help="resize the process allocation memo (default: leave as-is)",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help=(
            "check mode: run every computed plan through the paper-invariant "
            "oracle; violations are logged and surfaced in status (docs/VERIFY.md)"
        ),
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=0.0, metavar="S",
        help=(
            "supervision watchdog: kill and retry cells running longer than "
            "this (process mode only; 0 disables, default 0)"
        ),
    )
    parser.add_argument(
        "--max-cell-retries", type=int, default=2, metavar="N",
        help="resubmissions per cell after a worker-pool break (default 2)",
    )
    parser.add_argument(
        "--quarantine-threshold", type=int, default=3, metavar="N",
        help=(
            "consecutive pool-breaking executions before a cell is "
            "quarantined (default 3)"
        ),
    )
    parser.add_argument(
        "--degraded-grace", type=float, default=5.0, metavar="S",
        help=(
            "serve stale cached plans (degraded mode) this long after a "
            "worker-pool break (default 5)"
        ),
    )
    parser.add_argument(
        "--snapshot", default=None, metavar="PATH",
        help=(
            "crash-safe plan-cache snapshot file: loaded at start, written "
            "atomically on a cadence and at drain (docs/OPERATIONS.md)"
        ),
    )
    parser.add_argument(
        "--snapshot-interval", type=float, default=30.0, metavar="S",
        help="periodic snapshot cadence; 0 = only at drain (default 30)",
    )
    parser.add_argument(
        "--chaos-policies", action="store_true",
        help=(
            "register the fault-injection policies (chaos_hang, chaos_exit) "
            "used by `repro chaos` — never enable in production"
        ),
    )
    _add_log_level(parser)
    args = parser.parse_args(argv)
    _configure_logging(args.log_level)
    if args.chaos_policies:
        from .verify.chaos import register_chaos_policies

        register_chaos_policies()
    config = ServerConfig(
        address=args.socket,
        n_workers=args.workers,
        cache_size=args.cache_size,
        max_pending=args.max_pending,
        default_deadline_s=args.deadline if args.deadline > 0 else None,
        drain_timeout_s=args.drain_timeout,
        metrics_interval_s=args.metrics_interval,
        alloc_memo_size=args.alloc_memo_size,
        verify=args.verify,
        cell_timeout_s=args.cell_timeout if args.cell_timeout > 0 else None,
        max_cell_retries=args.max_cell_retries,
        quarantine_threshold=args.quarantine_threshold,
        degraded_grace_s=args.degraded_grace,
        snapshot_path=args.snapshot,
        snapshot_interval_s=args.snapshot_interval,
    )
    server = PlanServer(config)
    try:
        server.start()
    except OSError as exc:
        # Bind failures (port in use, bad path) are transport problems:
        # one line, exit 3, no traceback — wrappers can tell them apart.
        print(f"error: cannot bind {args.socket}: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    server.install_signal_handlers()
    _install_thread_dump_handler()
    print(f"serving on {server.endpoint} (SIGTERM to drain)", flush=True)
    server.serve_forever()
    return 0


#: ``repro client`` exit codes (2 is argparse's usage-error convention).
EXIT_SERVICE_ERROR = 1  #: the daemon answered with an error response
EXIT_TRANSPORT = 3  #: transport failure: unreachable, timeout, mid-frame loss
EXIT_OVERLOADED = 4  #: load shed (``overloaded``) — retryable by design


def _client_main(argv: list[str]) -> int:
    """The ``client`` subcommand: one RPC against a running daemon."""
    from .service.client import ClientError, PlanClient, PlanServiceError

    parser = argparse.ArgumentParser(
        prog="repro-dpm client",
        description="Issue one request to a running plan daemon.",
    )
    parser.add_argument(
        "op", choices=("plan", "sweep", "status", "ping", "shutdown"),
        help="request to issue",
    )
    parser.add_argument(
        "--socket", default="unix:repro-plan.sock", metavar="ADDR",
        help="daemon address: unix:PATH or HOST:PORT",
    )
    parser.add_argument("--scenario", default="scenario1", help="plan: scenario name")
    parser.add_argument(
        "--scenarios", default="scenario1,scenario2", metavar="S1,S2",
        help="sweep: comma-separated scenario names",
    )
    parser.add_argument("--policy", default="proposed", help="plan: policy name")
    parser.add_argument(
        "--policies", default="proposed,static", metavar="P1,P2",
        help="sweep: comma-separated policies",
    )
    parser.add_argument("--periods", type=int, default=2, metavar="N")
    parser.add_argument("--supply-factor", type=float, default=1.0, metavar="F")
    parser.add_argument(
        "--supply-factors", default="", metavar="F1,F2",
        help="sweep: comma-separated supply factors",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="per-request deadline in seconds",
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0, metavar="S",
        help="socket timeout (default 60)",
    )
    _add_log_level(parser)
    args = parser.parse_args(argv)
    _configure_logging(args.log_level)
    try:
        with PlanClient(args.socket, timeout=args.timeout) as client:
            if args.op == "plan":
                result = client.plan(
                    args.scenario,
                    policy=args.policy,
                    n_periods=args.periods,
                    supply_factor=args.supply_factor,
                    deadline_s=args.deadline,
                )
            elif args.op == "sweep":
                factors = [
                    float(f) for f in args.supply_factors.split(",") if f.strip()
                ] or None
                result = client.sweep(
                    [s.strip() for s in args.scenarios.split(",") if s.strip()],
                    policies=[p.strip() for p in args.policies.split(",") if p.strip()],
                    supply_factors=factors,
                    n_periods=args.periods,
                    deadline_s=args.deadline,
                )
            elif args.op == "status":
                result = client.status()
            elif args.op == "ping":
                result = client.ping()
            else:
                result = client.shutdown()
    except PlanServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.code == "overloaded":
            return EXIT_OVERLOADED
        if exc.code == "unavailable":
            return EXIT_TRANSPORT  # the fleet itself is unreachable
        return EXIT_SERVICE_ERROR
    except (ClientError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SERVICE_ERROR
    print(dumps_json(result, indent=2))
    return 0


def _fleet_main(argv: list[str]) -> int:
    """The ``fleet`` subcommand: gateway + N replicas until SIGTERM."""
    import tempfile
    import threading

    from .fleet.gateway import GatewayConfig, PlanGateway
    from .fleet.launcher import FleetLauncher

    parser = argparse.ArgumentParser(
        prog="repro-dpm fleet",
        description=(
            "Serve a fleet: spawn (or attach to) N plan daemons and front "
            "them with the routing/health/retry gateway (see docs/FLEET.md)."
        ),
    )
    parser.add_argument(
        "--socket", default="unix:repro-fleet.sock", metavar="ADDR",
        help="gateway bind address: unix:PATH or HOST:PORT",
    )
    parser.add_argument(
        "--backends", type=int, default=0, metavar="N",
        help="replicas to spawn (ignores --attach when > 0)",
    )
    parser.add_argument(
        "--attach", default="", metavar="A1,A2",
        help="comma-separated addresses of already-running daemons",
    )
    parser.add_argument(
        "--socket-dir", default=None, metavar="DIR",
        help="directory for spawned replicas' sockets (default: a tempdir)",
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker processes per spawned replica (default 0 = in-process)",
    )
    parser.add_argument(
        "--max-pending", type=int, default=64, metavar="N",
        help="per-replica in-flight computations before load-shedding",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=4, metavar="N",
        help="replica attempts per request, first try included (default 4)",
    )
    parser.add_argument(
        "--no-hedge", action="store_true",
        help="disable latency-triggered hedged plan requests",
    )
    parser.add_argument(
        "--probe-interval", type=float, default=1.0, metavar="S",
        help="health-probe cadence in seconds (default 1)",
    )
    parser.add_argument(
        "--request-timeout", type=float, default=60.0, metavar="S",
        help="per-forward socket timeout (default 60)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="S",
        help="bound on the SIGTERM drain (default 10)",
    )
    parser.add_argument(
        "--no-supervise", action="store_true",
        help="do not liveness-poll/restart crashed spawned backends",
    )
    parser.add_argument(
        "--supervise-interval", type=float, default=0.5, metavar="S",
        help="backend liveness-poll cadence (default 0.5)",
    )
    parser.add_argument(
        "--restart-backoff", type=float, default=0.5, metavar="S",
        help="base of the capped exponential restart backoff (default 0.5)",
    )
    parser.add_argument(
        "--restart-budget", type=int, default=5, metavar="N",
        help="restarts per backend before giving up on it (default 5)",
    )
    parser.add_argument(
        "--snapshot-dir", default=None, metavar="DIR",
        help="per-backend plan-cache snapshot directory (backend-N.json)",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=0.0, metavar="S",
        help="per-backend hung-cell watchdog timeout; 0 disables (default 0)",
    )
    parser.add_argument(
        "--chaos-policies", action="store_true",
        help="pass --chaos-policies to every spawned backend (chaos harness)",
    )
    _add_log_level(parser)
    args = parser.parse_args(argv)
    _configure_logging(args.log_level)
    attach = [a.strip() for a in args.attach.split(",") if a.strip()]
    if args.backends <= 0 and not attach:
        print("error: need --backends N or --attach ADDR1,ADDR2", file=sys.stderr)
        return 1

    socket_dir_ctx = None
    socket_dir = args.socket_dir
    if args.backends > 0 and socket_dir is None:
        socket_dir_ctx = tempfile.TemporaryDirectory(prefix="repro-fleet-")
        socket_dir = socket_dir_ctx.name
    extra_serve_args: "list[str]" = []
    if args.cell_timeout > 0:
        extra_serve_args += ["--cell-timeout", str(args.cell_timeout)]
    if args.chaos_policies:
        extra_serve_args.append("--chaos-policies")
    launcher = FleetLauncher(
        n_backends=max(0, args.backends),
        socket_dir=socket_dir,
        attach=attach,
        n_workers=args.workers,
        max_pending=args.max_pending,
        log_level=args.log_level,
        extra_serve_args=extra_serve_args,
        snapshot_dir=args.snapshot_dir,
        supervise_interval_s=args.supervise_interval,
        restart_backoff_s=args.restart_backoff,
        restart_budget=args.restart_budget,
    )
    try:
        try:
            launcher.spawn()
        except (OSError, TimeoutError) as exc:
            print(f"error: spawning backends failed: {exc}", file=sys.stderr)
            launcher.terminate()
            return 1
        gateway = PlanGateway(
            GatewayConfig(
                address=args.socket,
                backends=launcher.addresses,
                max_attempts=args.max_attempts,
                hedge=not args.no_hedge,
                probe_interval_s=args.probe_interval,
                request_timeout_s=args.request_timeout,
                drain_timeout_s=args.drain_timeout,
            )
        )
        try:
            gateway.start()
        except OSError as exc:
            print(f"error: cannot bind {args.socket}: {exc}", file=sys.stderr)
            launcher.terminate()
            return EXIT_TRANSPORT
        except (RuntimeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            launcher.terminate()
            return 1
        if not args.no_supervise:
            launcher.start_supervision(
                lambda backend: gateway.notify_backend_restarted(backend.address)
            )

        drain_lock = threading.Lock()
        drained = False

        def _drain() -> None:
            # The signal handler drains on a thread, and serve_forever()
            # returns as soon as the gateway stops — before the backends are
            # gone.  The main thread drains too, so it waits here for them.
            nonlocal drained
            with drain_lock:
                if not drained:
                    gateway.stop()
                    launcher.terminate()
                    drained = True

        def _handler(signum: int, frame) -> None:
            threading.Thread(target=_drain, name="fleet-drain", daemon=True).start()

        import signal as _signal

        _signal.signal(_signal.SIGTERM, _handler)
        _signal.signal(_signal.SIGINT, _handler)
        _install_thread_dump_handler()
        for backend in launcher.backends:
            role = "spawned" if backend.spawned else "attached"
            pid = f" pid={backend.pid}" if backend.pid else ""
            print(f"backend {backend.address} ({role}{pid})", flush=True)
        print(
            f"fleet gateway serving on {gateway.endpoint} fronting "
            f"{len(launcher.addresses)} backends (SIGTERM to drain)",
            flush=True,
        )
        gateway.serve_forever()
        _drain()  # after a signal: wait for its drain; after shutdown: drain
        return 0
    finally:
        if socket_dir_ctx is not None:
            socket_dir_ctx.cleanup()


def _chaos_main(argv: list[str]) -> int:
    """The ``chaos`` subcommand: seeded fault injection against a live fleet.

    Exit 0 only when the run is clean — zero failed client requests, zero
    oracle violations, and the injected faults demonstrably exercised the
    supervision/degradation machinery (nonzero rebuild/restart/degraded
    counters).  Same ``--seed`` → same injection schedule.
    """
    import json as _json

    from .verify.chaos import ChaosConfig, run_chaos

    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description=(
            "Stand up a real fleet, attack it on a seeded schedule (worker "
            "SIGKILLs, hung cells, backend kills, snapshot corruption), and "
            "assert zero failed client requests and oracle-clean plans."
        ),
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="injection-schedule seed (default 0)")
    parser.add_argument("--duration", type=float, default=20.0,
                        help="attack-window length in seconds (default 20)")
    parser.add_argument("--backends", type=int, default=2,
                        help="backend daemons to spawn (default 2)")
    parser.add_argument("--workers", type=int, default=2,
                        help="pool workers per backend (default 2, min 2)")
    parser.add_argument("--clients", type=int, default=3,
                        help="concurrent client threads (default 3)")
    parser.add_argument("--socket-dir", default=None,
                        help="directory for sockets/snapshots (default: tempdir)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the full report as JSON to PATH")
    parser.add_argument("--log-level", default="warning",
                        choices=("debug", "info", "warning", "error"))
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    config = ChaosConfig(
        seed=args.seed,
        duration_s=args.duration,
        n_backends=args.backends,
        n_workers=args.workers,
        n_clients=args.clients,
        socket_dir=args.socket_dir,
        log_level=args.log_level,
    )
    try:
        report = run_chaos(config)
    except (OSError, TimeoutError, ValueError) as exc:
        print(f"error: chaos harness could not start: {exc}", file=sys.stderr)
        return 1
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    for note in report.injections_done:
        print(f"  injected: {note}")
    print(report.summary())
    if not report.ok:
        for reason in report.reasons:
            print(f"  FAIL: {reason}", file=sys.stderr)
        return 1
    return 0


def _verify_main(argv: list[str]) -> int:
    """The ``verify`` subcommand: one oracle over the whole stack.

    Exit 0 only when every check passes; any violation (including a
    corruption the oracle *fails* to catch under ``--corrupt``) exits 1.
    """
    import random as _random
    import tempfile

    from .verify import CheckSession, check_plan_payload, verify_scenario
    from .verify.differential import check_continuous_agreement, check_discrete_search
    from .verify.fuzz import corrupt_payload, fuzz_engine, fuzz_protocol, fuzz_scenarios
    from .verify.oracle import VerificationReport, Violation

    parser = argparse.ArgumentParser(
        prog="repro-dpm verify",
        description=(
            "Run the paper-invariant oracle, differential checks, and "
            "seeded fuzzers across core, service, and fleet (docs/VERIFY.md)."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="fuzzer seed; a failing case replays from the same seed (default 0)",
    )
    parser.add_argument(
        "--cases", type=int, default=100, metavar="N",
        help="fuzz cases per fuzzer (default 100)",
    )
    parser.add_argument(
        "--scenarios", choices=_SCENARIO_SETS, default="all",
        help="scenario set for the end-to-end oracle pass (default all)",
    )
    parser.add_argument(
        "--skip-protocol", action="store_true",
        help="skip the live daemon/gateway protocol fuzz (no sockets opened)",
    )
    parser.add_argument(
        "--corrupt", action="store_true",
        help=(
            "inject a seeded fault into a valid plan payload and require the "
            "oracle to reject it (always exits nonzero: either the corruption "
            "is caught — reported as the injected violation — or the miss is)"
        ),
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write the combined report as JSON"
    )
    _add_log_level(parser)
    args = parser.parse_args(argv)
    _configure_logging(args.log_level)
    if args.cases < 1:
        parser.error("--cases must be >= 1")

    frontier = pama_frontier()
    reports: dict[str, VerificationReport] = {}

    # 1 — end-to-end oracle over the named scenarios (Eqs. 6/8/10, Alg. 1–2)
    session = CheckSession()
    for scenario in _sweep_scenario_set(args.scenarios):
        for supply_factor in (1.0, 0.9):
            verify_scenario(
                scenario, frontier, supply_factor=supply_factor, session=session
            )
    reports["scenarios"] = session.report()

    # 2 — differential sweep on the PAMA table (Alg. 2 vs Eq. 18)
    from .core.pareto import build_operating_points
    from .scenarios.paper import (
        FREQUENCIES_HZ,
        N_WORKERS,
        pama_performance_model,
        pama_power_model,
    )

    session = CheckSession()
    perf_model = pama_performance_model()
    power_model = pama_power_model(include_standby_floor=False)
    points = build_operating_points(
        N_WORKERS, FREQUENCIES_HZ, perf_model, power_model, count_standby=False
    )
    rng = _random.Random(f"{args.seed}:budgets")
    for i in range(max(args.cases, 100)):
        budget = rng.uniform(0.0, 1.3 * frontier.max_power)
        session.push_context(f"budget sweep {i}")
        try:
            session.run(check_discrete_search, frontier, points, budget)
            session.run(
                check_continuous_agreement,
                frontier,
                points,
                perf_model,
                power_model,
                budget,
                n_max=N_WORKERS,
            )
        finally:
            session.pop_context()
    reports["differential"] = session.report()

    # 3/4 — seeded fuzzers (replayable from --seed/--cases)
    reports["fuzz_scenarios"] = fuzz_scenarios(args.seed, args.cases)
    reports["fuzz_engine"] = fuzz_engine(args.seed, max(10, args.cases // 2))

    # 5 — protocol fuzz against a live daemon, then a gateway fronting it
    if not args.skip_protocol:
        from .fleet.gateway import GatewayConfig, PlanGateway
        from .service.server import PlanServer, ServerConfig

        protocol_cases = min(args.cases, 50)
        with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
            server = PlanServer(
                ServerConfig(
                    address=f"unix:{tmp}/daemon.sock",
                    metrics_interval_s=0.0,
                    verify=True,
                ),
                frontier=frontier,
            )
            server.start()
            gateway = None
            try:
                reports["fuzz_protocol_daemon"] = fuzz_protocol(
                    server.endpoint, args.seed, protocol_cases
                )
                gateway = PlanGateway(
                    GatewayConfig(
                        address=f"unix:{tmp}/gateway.sock",
                        backends=[server.endpoint],
                        probe_interval_s=0.2,
                    )
                )
                gateway.start()
                reports["fuzz_protocol_gateway"] = fuzz_protocol(
                    gateway.endpoint, args.seed, protocol_cases
                )
            finally:
                if gateway is not None:
                    gateway.stop()
                server.stop()

    # 6 — seeded corruption: the oracle must reject a deliberately broken plan
    if args.corrupt:
        from .analysis.batch import run_cell
        from .service.protocol import PlanRequest
        from .service.server import PlanServer as _PS

        request = PlanRequest("scenario1", supply_factor=0.9)
        outcome = run_cell(request.to_cell_spec(), frontier)
        payload = _PS._plan_payload(request, request.digest(), outcome)
        clean = check_plan_payload(payload, frontier=frontier)
        mutated, fault = corrupt_payload(
            payload, _random.Random(f"{args.seed}:corrupt")
        )
        caught = check_plan_payload(mutated, frontier=frontier)
        session = CheckSession()
        session.add(clean)  # a valid plan must pass before the fault counts
        session.push_context(f"injected fault: {fault}")
        try:
            if caught:
                session.add(caught)
            else:
                session.add(
                    [
                        Violation(
                            "oracle_miss",
                            "oracle accepted the corrupted payload",
                        )
                    ]
                )
        finally:
            session.pop_context()
        reports["corrupt"] = session.report()

    total = VerificationReport(0)
    for name, report in reports.items():
        print(f"{name:24s} {report.summary()}")
        total = total + report
    for violation in total.violations:
        print(f"  VIOLATION {violation}")
    verdict = "PASS" if total.ok else "FAIL"
    if args.corrupt:
        verdict = "FAIL (expected: --corrupt injects a fault)" if not total.ok else verdict
    print(f"{verdict}: {total.summary()} (seed {args.seed}, {args.cases} cases)")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            dump_json(
                {
                    "seed": args.seed,
                    "cases": args.cases,
                    "stages": {k: r.as_dict() for k, r in reports.items()},
                    "total": total.as_dict(),
                },
                fh,
                indent=2,
            )
    return 0 if total.ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # serve/client/fleet/verify carry their own flag sets; dispatch before
    # the experiment parser so `repro serve --workers 4` parses cleanly.
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "client":
        return _client_main(argv[1:])
    if argv and argv[0] == "fleet":
        return _fleet_main(argv[1:])
    if argv and argv[0] == "verify":
        return _verify_main(argv[1:])
    if argv and argv[0] == "chaos":
        return _chaos_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-dpm",
        description=(
            "Reproduce the evaluation of 'Dynamic Power Management of "
            "Multiprocessor Systems' (IPPS 2002).  'serve' and 'client' "
            "run/talk to the plan-serving daemon (docs/SERVICE.md); "
            "'fleet' serves N replicas behind one gateway (docs/FLEET.md)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS + EXTRAS + ("all",),
        help="which table/figure to regenerate ('library' adds the extended scenario sweep)",
    )
    parser.add_argument(
        "--csv",
        action="store_true",
        help="emit figure data as CSV instead of an ASCII plot",
    )
    parser.add_argument(
        "--periods",
        type=int,
        default=2,
        metavar="N",
        help="periods to simulate for table1/3/5 and sweep cells (default 2)",
    )
    sweep_opts = parser.add_argument_group("sweep options")
    sweep_opts.add_argument(
        "--workers",
        default="0",
        metavar="N",
        help="worker processes for 'sweep' (0/1 = serial, 'auto' = CPU count)",
    )
    sweep_opts.add_argument(
        "--scenarios",
        choices=_SCENARIO_SETS,
        default="paper",
        help="scenario set for 'sweep' (default: the paper's two)",
    )
    sweep_opts.add_argument(
        "--policies",
        default="proposed,static",
        metavar="P1,P2",
        help="comma-separated policies for 'sweep'",
    )
    sweep_opts.add_argument(
        "--supply-factors",
        default="",
        metavar="F1,F2",
        help="optional supply-factor knob values for 'sweep' (e.g. 1.0,0.9)",
    )
    sweep_opts.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the allocation memo for 'sweep'",
    )
    sweep_opts.add_argument(
        "--json",
        metavar="PATH",
        help="also write the sweep run report as JSON",
    )
    _add_log_level(parser)
    args = parser.parse_args(argv)
    _configure_logging(args.log_level)
    if args.periods < 1:
        parser.error("--periods must be >= 1")
    if args.workers != "auto":
        try:
            if int(args.workers) < 0:
                raise ValueError
        except ValueError:
            parser.error("--workers must be a non-negative integer or 'auto'")

    # Planner/simulation failures are operational outcomes, not crashes:
    # report one line on stderr and exit nonzero for scripts to catch.
    try:
        if args.experiment == "sweep":
            print(_run_sweep(args))
            return 0
        targets = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
        chunks = [
            _render(t, csv=args.csv, n_periods=args.periods) for t in targets
        ]
        print("\n\n".join(chunks))
        return 0
    except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        logging.getLogger(__name__).debug("experiment failed", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
