#!/usr/bin/env python3
"""End-to-end benchmark of the three user-visible operations.

* ``cold-plan``  — ``python -m repro plan`` from nothing, one fresh
  interpreter per city (chicago, nyc, orlando) at scale 0.2;
* ``warm-plan``  — ``python -m repro serve`` (chicago + orlando) with one
  closed-loop reader sending ``/v1/plan`` with K/C overrides to either
  tenant;
* ``update-mix`` — the same daemon with the reader beside a closed-loop
  writer cycling ``/v1/update`` → ``/v1/journey`` → ``/v1/plan`` on
  chicago.

``BENCHMARK.json`` gates warm-plan and update-mix.  Run from the
repository root::

    python3 perfbench/run.py --workload update-mix --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics (measured through ``launcher.py``) with
``--trace 1``.  Every run checks its outputs against direct in-process
plans and the datasets against ``fingerprints.json``, outside the timed
region.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

WORKLOADS = ("cold-plan", "warm-plan", "update-mix")
SCALE = 0.2
COLD_CITIES = ("chicago", "nyc", "orlando")
SERVE_CITIES = ("chicago", "orlando")
K_RANGE = (8, 30)
C_CHOICES = (1.0, 1.5, 2.0, 2.5, 3.0)
#: cold-plan set-up repeats (the median is reported).
IMPORT_REPEATS = 3
#: update-mix's writer changes one tenant, so every cycle costs the same
#: kind of work.  Each update adds one targeted area: the
#: ``UPDATE_SHARE`` x |demand| network nodes nearest to a demand node,
#: and retires the area it added ``RETIRE_LAG`` updates earlier.
UPDATE_CITY = "chicago"
UPDATE_SHARE = 0.01
RETIRE_LAG = 2
#: update-mix's reader pauses this long after each reply, as a planner
#: reads a result, so it holds the compute lock part of the time.
READ_THINK_S = 0.5
#: Reader plans re-planned in-process, per tenant.
REFERENCE_READS = 2
#: the shape planned after update-mix's last write.
FINAL_SHAPE = (20, 2.0)
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "throughput_ops": "1/s",
    "success_frac": "ratio",
    "peak_rss_mb": "MB",
}


class RunContext:
    def __init__(self, seed: int, seconds: float, scale: float,
                 inject: Optional[str], work: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.inject = inject
        self.work = work
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self._references: Dict[str, Any] = {}

    def reference(self, city: str) -> Any:
        """The in-process reference for ``city`` (built once per run,
        its dataset checked against the pinned fingerprint)."""
        if city not in self._references:
            from checks import Reference

            ref = Reference(city, self.scale)
            self.problems += ref.problems()
            self._references[city] = ref
        return self._references[city]


# -- processes ----------------------------------------------------------


def child_env() -> Dict[str, str]:
    """The environment of every program process: the checkout's ``src``
    on the path and no ``REPRO_*`` overrides, so defaults apply."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PERFBENCH_SPAWN_T"] = repr(time.monotonic())
    return env


def program(argv: List[str], trace_out: Optional[Path]) -> List[str]:
    """The command line of a ``repro`` CLI call, traced or not."""
    if trace_out is None:
        return [sys.executable, "-m", "repro", *argv]
    return [sys.executable, str(HERE / "launcher.py"), str(trace_out), "--", *argv]


def run_child(cmd: List[str], stdout_path: Path) -> Tuple[int, float, int]:
    """Run ``cmd`` to completion: ``(exit code, wall s, peak RSS KiB)``.
    Waits with a blocking ``wait4`` so the wall time carries no polling
    delay; a watchdog kills a child that overruns."""
    with open(stdout_path, "w") as out:
        started = time.monotonic()
        env = child_env()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def snapshot_file(path: Path, timeout_s: float = 30.0) -> Dict[str, Any]:
    deadline = time.monotonic() + timeout_s
    while not path.exists():
        if time.monotonic() > deadline:
            raise RuntimeError(f"traced process wrote no {path.name}")
        time.sleep(0.01)
    return json.loads(path.read_text())


# -- statistics ---------------------------------------------------------


def p50(values: List[float]) -> float:
    return statistics.median(values)


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# -- cold-plan ------------------------------------------------------------


def cold_plan(ctx: RunContext, traced: bool) -> Dict[str, Any]:
    imports, plain, replay = cold_plan_runs(ctx, traced)
    calls = [call for one in plain for call in one] + replay
    ctx.attempted += len(calls)
    ctx.failed += sum(call["code"] != 0 for call in calls)
    check_cold_routes(ctx, calls)

    pass_s = [sum(call["wall"] for call in one) for one in plain]
    result: Dict[str, Any] = {
        "samples": {"pass": len(pass_s), "import": len(imports)},
        "e2e": {
            "setup_s": p50(imports),
            "op_p50_ms": p50(pass_s) * 1e3,
            "op_p90_ms": p90(pass_s) * 1e3,
            "throughput_ops": len(pass_s) / sum(pass_s),
            "peak_rss_mb": max(call["rss_kb"] for call in calls) / 1024,
        },
        "detail": {
            f"{city}_s": p50([c["wall"] for c in calls_of(plain, city)])
            for city in COLD_CITIES
        },
    }
    result["notes"] = [
        f"pass {index}: " + ", ".join(f"{c['city']} {c['wall']:.2f} s" for c in one)
        for index, one in enumerate(plain)
    ]
    if traced:
        totals = layers.merge([
            snapshot_file(Path(f"{ctx.work}/cold-{city}.final.json"))
            for city in COLD_CITIES
        ])
        wall = sum(call["wall"] for call in replay)
        base = sum(call["wall"] for call in plain[0] if call["city"] != "atlantis")
        result["layers"] = layer_metrics(totals, ops=1, wall=wall)
        result["layers"]["obs.trace_overhead_frac"] = wall / base - 1
        result["split"] = {"per pass": (totals["self"], wall)}
    return result


def cold_plan_runs(ctx: RunContext, traced: bool) -> Tuple[
        List[float], List[List[Dict[str, Any]]], List[Dict[str, Any]]]:
    """The timed part of cold-plan: import timings, plain passes, and (in
    trace mode) the traced replay of the first pass."""
    imports = []
    for _ in range(IMPORT_REPEATS):
        code, wall, _ = run_child([sys.executable, "-c", "import repro.cli"],
                                  ctx.work / "import.out")
        if code != 0:
            raise RuntimeError("cannot import repro.cli from the checkout's src")
        imports.append(wall)

    rng = random.Random(f"{ctx.seed}-cold")
    passes: List[List[Dict[str, Any]]] = []
    started = time.monotonic()
    # Like the serve clients, a pass starts while the run's seconds last.
    # Trace mode times one pass plainly, then replays it traced.
    while not passes or (not traced and time.monotonic() - started < ctx.seconds):
        draws = [(city, rng.randint(*K_RANGE), rng.choice(C_CHOICES))
                 for city in COLD_CITIES]
        if ctx.inject == "bad-status" and not passes:
            draws.append(("atlantis", 10, 2.0))
        passes.append([cold_plan_call(ctx, *draw, len(passes), None)
                       for draw in draws])
    replay = [
        cold_plan_call(ctx, call["city"], call["k"], call["c"], 1,
                       ctx.work / f"cold-{call['city']}")
        for call in passes[0] if traced and call["city"] != "atlantis"
    ]
    return imports, passes, replay


def calls_of(passes: List[List[Dict[str, Any]]], city: str) -> List[Dict[str, Any]]:
    return [call for one in passes for call in one if call["city"] == city]


def cold_plan_call(ctx: RunContext, city: str, k: int, c: float, index: int,
                   trace_out: Optional[Path]) -> Dict[str, Any]:
    argv = ["plan", "--city", city, "--scale", str(ctx.scale), "-k", str(k),
            "-c", str(c)]
    out = ctx.work / f"plan-{city}-{index}-{trace_out is not None}.out"
    code, wall, rss = run_child(program(argv, trace_out), out)
    return {"city": city, "k": k, "c": c, "code": code, "wall": wall,
            "rss_kb": rss, "stdout": out.read_text()}


def check_cold_routes(ctx: RunContext, calls: List[Dict[str, Any]]) -> None:
    from checks import cli_output_lines

    for index, call in enumerate(c for c in calls if c["code"] == 0):
        printed = cli_output_lines(call["stdout"])
        if ctx.inject == "wrong-route" and index == 0:
            printed[-1] += " -> 0"
        expected = ctx.reference(call["city"]).cli_lines(call["k"], call["c"])
        if printed != expected:
            ctx.problems.append(
                f"cold plan {call['city']} K={call['k']} C={call['c']} printed "
                f"{printed!r}, in-process reference {expected!r}"
            )


# -- serve workloads --------------------------------------------------------


class Daemon:
    """``repro serve`` as a child process on an ephemeral loopback port."""

    def __init__(self, ctx: RunContext, trace_out: Optional[Path]) -> None:
        argv = ["serve", "--port", "0", "--scale", str(ctx.scale)]
        for city in SERVE_CITIES:
            argv += ["--dataset", city]
        self.trace_out = trace_out
        self._marks = 0
        started = time.monotonic()
        self.proc = subprocess.Popen(
            program(argv, trace_out), cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            port = None
            for line in self.proc.stdout:
                match = re.match(r"serving .* on http://[\d.]+:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()
        self.setup_s = time.monotonic() - started
        if port is None:
            self.stop()
            raise RuntimeError("repro serve exited before it listened")
        self.port = port

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def mark(self) -> Dict[str, Any]:
        """A layer snapshot from the traced daemon, taken now."""
        self._marks += 1
        self.proc.send_signal(signal.SIGUSR1)
        return snapshot_file(Path(f"{self.trace_out}.mark{self._marks}.json"))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def call(conn: http.client.HTTPConnection, method: str, path: str,
         body: Optional[Dict[str, Any]] = None) -> Tuple[int, Any, float]:
    """One request: ``(status, decoded body, latency ms)``; status 0 if
    the connection failed."""
    data = json.dumps(body) if body is not None else None
    started = time.perf_counter()
    try:
        conn.request(method, path, data, {"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
        status = response.status
    except (OSError, http.client.HTTPException):
        conn.close()
        return 0, None, (time.perf_counter() - started) * 1e3
    elapsed = (time.perf_counter() - started) * 1e3
    return status, json.loads(raw), elapsed


class Demand:
    """The writer's model of the written tenant's demand: the node ids it
    holds (a multiset, as the daemon keeps it) and the coordinates used
    to draw targeted areas."""

    def __init__(self, dataset: Any) -> None:
        import numpy as np

        self.nodes = list(dataset.queries.nodes)
        self.centres = list(self.nodes)
        self.xy = np.array(list(dataset.network.coordinates()), dtype=float)
        self.batch = max(1, round(UPDATE_SHARE * len(self.nodes)))

    def area(self, rng: random.Random) -> List[int]:
        """The ``batch`` nodes nearest to a demand node drawn from the
        initial demand (ties broken by node id)."""
        import numpy as np

        centre = self.xy[rng.choice(self.centres)]
        d2 = ((self.xy - centre) ** 2).sum(axis=1)
        return [int(v) for v in np.argsort(d2, kind="stable")[:self.batch]]


def writer(daemon: Daemon, rng: random.Random, deadline: float,
           demand: Demand, log: List[Dict[str, Any]], inject: bool,
           updates: List[Dict[str, Any]], problems: List[str]) -> None:
    """The closed-loop writer: update → journey → plan on ``UPDATE_CITY``.
    Each applied update is logged with the monotonic times it was sent
    and answered, so reads in between can be checked."""
    conn = daemon.connect()
    outstanding: List[List[int]] = []
    nodes = len(demand.xy)
    try:
        if inject:
            status, _, ms = call(conn, "POST", "/v1/update",
                                 {"dataset": "atlantis", "add": [1]})
            log.append({"ops": [("update", status, ms)]})
        while time.monotonic() < deadline:
            add = demand.area(rng)
            remove = outstanding.pop(0) if len(outstanding) >= RETIRE_LAG else []
            ops = []
            sent = time.monotonic()
            status, body, ms = call(conn, "POST", "/v1/update", {
                "dataset": UPDATE_CITY, "add": add, "remove": remove})
            ops.append(("update", status, ms))
            if status == 200:
                outstanding.append(add)
                updates.append({"add": add, "remove": remove, "sent": sent,
                                "answered": time.monotonic()})
                demand.nodes.extend(add)
                for node in remove:
                    demand.nodes.remove(node)
                if body["queries"] != len(demand.nodes):
                    problems.append(f"update left {body['queries']} queries, "
                                    f"the client's log gives {len(demand.nodes)}")
            elif remove:
                outstanding.insert(0, remove)
            origin, destination = rng.randrange(nodes), rng.randrange(nodes)
            status, body, ms = call(conn, "POST", "/v1/journey", {
                "dataset": UPDATE_CITY, "origin": origin, "destination": destination,
            })
            ops.append(("journey", status, ms))
            if status == 200 and not body["minutes"] >= 0:
                problems.append(f"journey {origin}->{destination} took "
                                f"{body['minutes']} minutes")
            status, body, ms = call(conn, "POST", "/v1/plan", {
                "dataset": UPDATE_CITY, "max_stops": rng.randint(*K_RANGE),
                "max_adjacent_cost": rng.choice(C_CHOICES),
            })
            ops.append(("plan", status, ms))
            log.append({"ops": ops})
            if any(op[1] == 0 for op in ops):
                break
    finally:
        conn.close()


def reader(daemon: Daemon, rng: random.Random, deadline: float,
           reads: List[Dict[str, Any]], inject: bool, think_s: float) -> None:
    """The closed-loop reader: ``/v1/plan`` with dataset, K and C drawn
    per request, so the tenants' default-plan caches never answer, and
    ``think_s`` of idle time after each reply."""
    conn = daemon.connect()
    try:
        if inject:
            status, _, ms = call(conn, "POST", "/v1/plan", {"dataset": "atlantis"})
            reads.append({"ops": [("read", status, ms)]})
        while time.monotonic() < deadline:
            shape = (rng.choice(SERVE_CITIES), rng.randint(*K_RANGE),
                     rng.choice(C_CHOICES))
            sent = time.monotonic()
            status, body, ms = call(conn, "POST", "/v1/plan", {
                "dataset": shape[0], "max_stops": shape[1],
                "max_adjacent_cost": shape[2],
            })
            reads.append({"ops": [("read", status, ms)], "shape": shape,
                          "body": body, "sent": sent, "answered": time.monotonic()})
            if status == 0:
                break
            time.sleep(max(0.0, min(think_s, deadline - time.monotonic())))
    finally:
        conn.close()


def serve_phase(ctx: RunContext, workload: str,
                trace_out: Optional[Path]) -> Dict[str, Any]:
    """Boot one daemon, drive it for ``ctx.seconds`` and stop it.  The
    op log holds the writer's cycles on update-mix (the reader runs
    beside it) and the reader's requests on warm-plan."""
    demand = Demand(ctx.reference(UPDATE_CITY).dataset)
    for city in SERVE_CITIES:
        ctx.reference(city)
    daemon = Daemon(ctx, trace_out)
    try:
        conn = daemon.connect()
        status, body, _ = call(conn, "GET", "/v1/datasets")
        sizes = {row["name"]: row["queries"] for row in body["datasets"]}
        if sizes[UPDATE_CITY] != len(demand.nodes):
            ctx.problems.append(f"{UPDATE_CITY} serves {sizes[UPDATE_CITY]} "
                                f"queries, its dataset has {len(demand.nodes)}")
        mark0 = daemon.mark() if trace_out else None
        rejected0 = rejected(conn)
        log: List[Dict[str, Any]] = []
        reads: List[Dict[str, Any]] = []
        updates: List[Dict[str, Any]] = []
        started = time.monotonic()
        deadline = started + ctx.seconds
        inject = ctx.inject == "bad-status"
        read_rng = random.Random(f"{ctx.seed}-read")
        if workload == "warm-plan":
            reader(daemon, read_rng, deadline, reads, inject, 0.0)
            log = reads
        else:
            helper = threading.Thread(target=reader, args=(
                daemon, read_rng, deadline, reads, False, READ_THINK_S))
            helper.start()
            try:
                writer(daemon, random.Random(f"{ctx.seed}-update"), deadline,
                       demand, log, inject, updates, ctx.problems)
            finally:
                helper.join()
        phase_s = time.monotonic() - started
        mark1 = daemon.mark() if trace_out else None
        rejected1 = rejected(conn)
        peak = daemon.peak_rss_mb()
        k, c = FINAL_SHAPE
        final = call(conn, "POST", "/v1/plan", {
            "dataset": UPDATE_CITY, "max_stops": k, "max_adjacent_cost": c,
        }) if updates else None
        conn.close()
    finally:
        daemon.stop()
    return {"daemon": daemon, "log": log, "reads": reads, "updates": updates,
            "batch": demand.batch, "queries": sizes[UPDATE_CITY],
            "final": final, "phase_s": phase_s, "peak_rss_mb": peak,
            "marks": (mark0, mark1), "rejected": rejected1 - rejected0}


def rejected(conn: http.client.HTTPConnection) -> int:
    """Requests the daemon's admission control has refused so far."""
    _, body, _ = call(conn, "GET", "/v1/stats")
    admission = body["admission"]
    return admission["rejected_queue_full"] + admission["rejected_deadline"]


def drive(ctx: RunContext, workload: str, trace_out: Optional[Path]) -> Dict[str, Any]:
    """One serve phase, counted and checked.  Requests are ``(endpoint,
    status, ms)``; an op is one writer cycle or one warm-plan read."""
    phase = serve_phase(ctx, workload, trace_out)
    entries = phase["log"] if workload == "warm-plan" else phase["log"] + phase["reads"]
    ops = [op for entry in entries for op in entry["ops"]]
    ctx.attempted += len(ops)
    ctx.failed += sum(op[1] != 200 for op in ops)
    check_reads(ctx, phase["reads"], phase["updates"])
    if phase["final"] is not None:
        check_final_plan(ctx, phase["updates"], phase["final"])
    phase["ops"] = ops
    phase["op_ms"] = [sum(op[2] for op in entry["ops"]) for entry in phase["log"]
                      if all(op[1] == 200 for op in entry["ops"])]
    phase["request_ms"] = sum(op[2] for op in ops if op[1] == 200)
    return phase


def serve_workload(ctx: RunContext, workload: str, traced: bool) -> Dict[str, Any]:
    phase = drive(ctx, workload, None)
    op_ms = phase["op_ms"]
    endpoint_ms: Dict[str, List[float]] = {}
    for endpoint, status, ms in phase["ops"]:
        if status == 200:
            endpoint_ms.setdefault(endpoint, []).append(ms)
    result: Dict[str, Any] = {
        "samples": {"op": len(op_ms), **{k: len(v) for k, v in endpoint_ms.items()}},
        "e2e": {
            "setup_s": phase["daemon"].setup_s,
            "op_p50_ms": p50(op_ms),
            "op_p90_ms": p90(op_ms),
            "throughput_ops": len(op_ms) / phase["phase_s"],
            "peak_rss_mb": phase["peak_rss_mb"],
        },
        "detail": {
            f"{name}_{label}_ms": fn(values)
            for name, values in sorted(endpoint_ms.items())
            for label, fn in (("p50", p50), ("p90", p90))
        },
        "notes": [f"update batch: {phase['batch']} nodes, {UPDATE_SHARE:.0%} of "
                  f"{UPDATE_CITY}'s {phase['queries']} queries"] * bool(phase["updates"]),
    }
    if traced:
        result.update(traced_serve(ctx, workload, phase["request_ms"] / len(op_ms)))
    return result


def traced_serve(ctx: RunContext, workload: str,
                 plain_request_ms: float) -> Dict[str, Any]:
    """The same phase on a daemon started through the launcher: the
    request-phase layer split per op, and the boot split.  An op's
    request time is the latency of every request of the phase (on
    update-mix the reader's included), divided by the ops."""
    out = ctx.work / "serve"
    phase = drive(ctx, workload, out)
    mark0, mark1 = phase["marks"]
    during = layers.delta(mark1, mark0)
    n = len(phase["op_ms"])
    wall = phase["request_ms"] / n / 1e3
    handle = during["time"].get("serve.handle", 0.0) / n
    self_times = {k: v / n for k, v in during["self"].items()}
    self_times["serve.wait"] = self_times.pop("serve.handle", 0.0)
    self_times["serve.http"] = wall - handle
    metrics = layer_metrics(during, ops=n, wall=wall)
    metrics["serve.http_ms"] = (wall - handle) * 1e3
    metrics["admission.rejected"] = phase["rejected"] / n
    metrics["unattributed_frac"] = layers.split(self_times, wall)[-1][2]
    metrics["obs.trace_overhead_frac"] = wall * 1e3 / plain_request_ms - 1
    boot = snapshot_file(Path(f"{out}.boot.json"))
    for key in ("startup.import_s", "tenant.boot_s", "datasets.network_s",
                "datasets.transit_s", "datasets.demand_s", "calibrate.alpha_s"):
        metrics[key] = boot["time"].get(key[:-2], 0.0)
    metrics["datasets.snap_calls"] = boot["counts"].get("datasets.snap_calls", 0)
    return {
        "layers": metrics,
        "split": {"per request-phase op": (self_times, wall),
                  "boot (setup_s)": (boot["self"], phase["daemon"].setup_s)},
    }


def check_reads(ctx: RunContext, reads: List[Dict[str, Any]],
                updates: List[Dict[str, Any]]) -> None:
    """Reads of one shape on one demand agree, and a seeded sample of
    distinct shapes per tenant equals a direct in-process ``plan_route``.
    On the written tenant only a read sent after update i was answered
    and answered before update i+1 was sent is eligible; it is planned on
    the demand of updates 1..i."""
    from checks import plan_body, served_view

    eligible: Dict[str, Dict[Tuple[Any, ...], Dict[str, Any]]] = {}
    for entry in reads:
        if entry["ops"][0][1] != 200 or "shape" not in entry:
            continue
        city = entry["shape"][0]
        version = 0
        if city == UPDATE_CITY:
            if any(u["sent"] <= entry["answered"] and entry["sent"] <= u["answered"]
                   for u in updates):
                continue
            version = sum(u["answered"] < entry["sent"] for u in updates)
        view = served_view(entry["body"])
        key = (*entry["shape"], version)
        if eligible.setdefault(city, {}).setdefault(key, view) != view:
            ctx.problems.append(f"{key} (dataset, K, C, updates applied) was "
                                "served two different plans")
    rng = random.Random(f"{ctx.seed}-check")
    first = True
    for city in SERVE_CITIES:
        shapes = sorted(eligible.get(city, {}))
        for shape in rng.sample(shapes, min(REFERENCE_READS, len(shapes))):
            view = eligible[city][shape]
            if ctx.inject == "wrong-route" and first:
                view["route"]["stops"].reverse()
            first = False
            _, k, c, version = shape
            ref = ctx.reference(city)
            result = (ref.plan_after_updates(logged(updates[:version]), k, c)
                      if version else ref.plan(k, c))
            if view != plan_body(result):
                ctx.problems.append(f"served plan for {shape} (dataset, K, C, "
                                    "updates applied) differs from plan_route")


def logged(updates: List[Dict[str, Any]]) -> List[Tuple[List[int], List[int]]]:
    return [(u["add"], u["remove"]) for u in updates]


def check_final_plan(ctx: RunContext, updates: List[Dict[str, Any]],
                     final: Tuple[int, Any, float]) -> None:
    """After the last write, a plan on the written tenant equals
    ``plan_route`` over a scratch Algorithm 2 run on the demand the
    client's own update log leaves."""
    from checks import plan_body, served_view

    status, body, _ = final
    if status != 200:
        ctx.problems.append(f"final plan on {UPDATE_CITY} answered {status}")
        return
    view = served_view(body)
    if ctx.inject == "wrong-route":
        view["route"]["stops"].reverse()
    expected = plan_body(ctx.reference(UPDATE_CITY).plan_after_updates(
        logged(updates), *FINAL_SHAPE))
    if view != expected:
        ctx.problems.append(f"plan after {len(updates)} updates differs from "
                            "plan_route on the logged demand")


# -- per-layer metrics ----------------------------------------------------


def layer_metrics(totals: Dict[str, Any], ops: int, wall: float) -> Dict[str, float]:
    """Per-layer metrics per operation from summed layer totals; ``wall``
    is the mean wall time of one operation in seconds."""
    t, s, calls, counts = (totals[k] for k in ("time", "self", "calls", "counts"))
    stops = counts.get("selection.stops", 0)
    lookups = counts.get("engine.hits", 0) + counts.get("engine.misses", 0)
    per = 1.0 / ops
    metrics = {
        "startup.import_s": t.get("startup.import", 0.0) * per,
        "tenant.boot_s": t.get("tenant.boot", 0.0) * per,
        "datasets.network_s": t.get("datasets.network", 0.0) * per,
        "datasets.transit_s": t.get("datasets.transit", 0.0) * per,
        "datasets.demand_s": t.get("datasets.demand", 0.0) * per,
        "datasets.snap_calls": counts.get("datasets.snap_calls", 0) * per,
        "calibrate.alpha_s": t.get("calibrate.alpha", 0.0) * per,
        "preprocess.calls": calls.get("preprocess", 0) * per,
        "preprocess.s": t.get("preprocess", 0.0) * per,
        "preprocess.self_s": s.get("preprocess", 0.0) * per,
        "selection.s": t.get("selection", 0.0) * per,
        "selection.evaluations": counts.get("selection.evaluations", 0) * per,
        "selection.evals_per_stop": (
            counts.get("selection.evaluations", 0) / stops if stops else 0.0),
        "ordering.christofides_s": t.get("ordering.christofides", 0.0) * per,
        "refinement.s": t.get("refinement", 0.0) * per,
        "ebrr.evaluate_route_s": t.get("ebrr.evaluate_route", 0.0) * per,
        "plan_route.self_s": s.get("plan_route", 0.0) * per,
        "update.s": t.get("update", 0.0) * per,
        "update.searches": counts.get("update.searches", 0) * per,
        "engine.settled": counts.get("engine.settled", 0) * per,
        "engine.cache_hit_rate": counts.get("engine.hits", 0) / lookups if lookups else 0.0,
        "engine.evictions": counts.get("engine.evictions", 0) * per,
        "journey.build_s": t.get("journey.build", 0.0) * per,
        "journey.rebuilds": calls.get("journey.build", 0) * per,
        "journey.query_s": t.get("journey.query", 0.0) * per,
        "serve.handle_ms": t.get("serve.handle", 0.0) * per * 1e3,
        "serve.wait_ms": s.get("serve.handle", 0.0) * per * 1e3,
        "serve.http_ms": 0.0,
        "admission.rejected": 0.0,
    }
    for method in layers.ENGINE_METHODS:
        metrics[f"engine.{method}_s"] = t.get(f"engine.{method}", 0.0) * per
        metrics[f"engine.{method}_calls"] = calls.get(f"engine.{method}", 0) * per
    metrics["unattributed_frac"] = layers.split(
        {k: v * per for k, v in s.items()}, wall)[-1][2]
    return metrics


# -- reporting --------------------------------------------------------------


def print_split(workload: str, split: Dict[str, Any], record: bool) -> None:
    path = HERE / "baseline_shares.json"
    baseline = json.loads(path.read_text()) if path.exists() else {}
    for label, (self_times, wall) in split.items():
        key = f"{workload} {label}"
        print(f"layer split, {key}: {wall:.3f} s per op")
        rows = layers.split(self_times, wall)
        print(f"  {'layer':<30} {'s/op':>10} {'share':>8} {'baseline':>9}")
        for layer, seconds, share in rows:
            base = baseline.get(key, {}).get(layer)
            base_text = f"{base:8.1%}" if base is not None else "        -"
            print(f"  {layer:<30} {seconds:10.4f} {share:8.1%} {base_text}")
        if record:
            baseline[key] = {layer: round(share, 4) for layer, _, share in rows}
    if record:
        path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")


def run_workload(workload: str, args: argparse.Namespace) -> Dict[str, Any]:
    work = ROOT / ".perfbench" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = RunContext(args.seed, args.seconds, args.scale, args.inject, work)
    traced = bool(args.trace)
    try:
        if workload == "cold-plan":
            result = cold_plan(ctx, traced)
        else:
            result = serve_workload(ctx, workload, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    e2e = result["e2e"]
    e2e["success_frac"] = 1 - ctx.failed / ctx.attempted

    print(f"== {workload} (seed {args.seed}, {args.seconds:g} s, scale {args.scale:g})")
    print("samples: " + ", ".join(f"{k}={v}" for k, v in result["samples"].items()))
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {e2e[name]:12.4f} {unit}")
    for name, value in result["detail"].items():
        print(f"  {name:<16} {value:12.4f} (detail)")
    for note in result["notes"]:
        print(f"  {note}")
    for problem in ctx.problems:
        print(f"CHECK FAILED: {problem}")
    if traced:
        print_split(workload, result["split"], args.record_baseline)
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in result["layers"].items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": not ctx.problems, "attempted": ctx.attempted,
            "failed": ctx.failed, "metrics": metrics}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_frac", "_rate", "_per_stop")):
        return "ratio"
    return "count"


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=SCALE,
                        help="dataset scale (the pinned fingerprints cover "
                             "0.2 and the smoke test's 0.05)")
    parser.add_argument("--inject", choices=("wrong-route", "bad-status"),
                        default=None, help="plant a fault the checks must catch")
    parser.add_argument("--record-baseline", action="store_true",
                        help="with --trace 1, store this run's layer shares "
                             "in baseline_shares.json")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so every child is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {workload: run_workload(workload, args) for workload in workloads}
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": metric for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
