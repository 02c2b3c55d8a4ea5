#!/usr/bin/env python3
"""Seeded, single-threaded, closed-loop benchmark of uncross.

    python3 perfbench/run.py --workload accum_medium --seed 3 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all        # every workload, default seed

Run from the repository root.  The process first starts one child process,
which only ever runs passes.  Then, until ``--seconds`` are spent, it either
sets the workload up (generating its logs through ``uncross gen``, timed) or
asks the child for one pass, one thing at a time, so that the set-ups are
spread over the run.  With ``--trace 0`` every pass is untraced and the run
reports the end-to-end metrics; with ``--trace 1`` the passes of the first
half are untraced and those of the second half traced, and the run reports
the per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any operation failed.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from importlib import metadata
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
DEFAULT_SEED = 3
# set-ups are spread over the run: one whenever they have had less than this
# share of the time so far, and at least MIN_SETUPS in a run
SETUP_SHARE = 0.15
MIN_SETUPS = 3

# single-threaded: keep numpy's math libraries from starting worker threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

if not (SRC / "uncross" / "__init__.py").is_file():
    sys.exit(f"perfbench: no uncross sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402


def median(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    """Nearest-rank 90th percentile: with 100 samples, 10 lie beyond it."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[max(0, -(-9 * len(s) // 10) - 1)]


def environment() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "nproc": nproc,
        "machine": platform.machine(),
    }


# ------------------------------------------------------------- layer metrics

CLI_COMMANDS = ("replay", "impact", "density", "regime", "response", "series", "stats", "rerun")


def layer_metrics(spans, counters: Counter) -> dict[str, float]:
    """Per-layer numbers of one traced pass (its spans and boundary counters)."""
    busy, count, self_s = Counter(), Counter(), Counter()
    for sp in spans:
        busy[sp.name] += sp.busy
        count[sp.name] += sp.count
        self_s[sp.name] += sp.self_s

    def layer_self(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    def raised(prefix):
        return sum(v for k, v in counters.items() if k.startswith(prefix) and ":raised:" in k)

    def ratio(a, b):
        return a / b if b else 0.0

    fit_calls = count["regime.fit_regime"]
    fit_failed = raised("regime.fit_regime:")
    m = {
        "events.read_s": busy["events.read_events"],
        "events.rows": counters["events.read_events:items"],
        "book.apply_s": busy["book.AuctionBook.apply"],
        "book.submit": counters["book.submit"],
        "book.modify": counters["book.modify"],
        "book.cancel": counters["book.cancel"],
        "book.live_orders": counters["book.live_orders"],
        "book.ticks": counters["book.ticks"],
        "grid.index_of_calls": count["grid.PriceGrid.index_of"],
        "clearing.clear_calls": count["clearing.clear"],
        "clearing.clear_s": busy["clearing.clear"],
        "clearing.orders_scanned": counters["clearing.orders_scanned"],
        "clearing.fills": counters["clearing.fills"],
        "clearing.fill_ratio": ratio(counters["clearing.fills"], counters["clearing.orders_scanned"]),
        "clearing.series_s": busy["clearing.indicative_series"],
        "clearing.snapshots": counters["clearing.snapshots"],
        "clearing.no_cross": counters["clearing.uncross_values:raised:NoCross"],
        "clearing.uncross_calls": count["clearing.uncross_values"],
        "clearing.uncross_s": busy["clearing.uncross_values"],
        "response.curves_s": layer_self("response."),
        "response.recorded": counters["response.recorded"],
        "response.recorded_ratio": ratio(counters["response.recorded"],
                                         count["response.classify_marketable"]),
        "response.skipped_no_cross": counters["response.skipped_no_cross"],
        "regime.fit_calls": fit_calls,
        "regime.fit_s": busy["regime.fit_regime"],
        "regime.fit_failed": fit_failed,
        "regime.fit_ok_ratio": ratio(fit_calls - fit_failed, fit_calls),
        "regime.changepoint_s": busy["regime.changepoint"],
        "regime.changepoint_points": counters["regime.changepoint_points"],
        "impact.curve_calls": count["impact.impact_curve"],
        "impact.curve_s": busy["impact.impact_curve"],
        "impact.breakpoints": counters["impact.breakpoints"],
        "impact.reclear_calls": count["impact.inject_and_reclear"]
        + count["impact.cancel_market_and_reclear"],
        "impact.reclear_s": busy["impact.inject_and_reclear"]
        + busy["impact.cancel_market_and_reclear"],
        "density.profile_s": busy["density.day_profile"],
        "density.orders_binned": counters["density.orders_binned"],
        "density.samples_s": busy["density.total_density_samples"],
        "density.average_s": busy["density.average_density"],
        "stats.calls": sum(v for k, v in count.items() if k.startswith("stats.")),
        "stats.s": layer_self("stats."),
        "cli.self_s": layer_self("cli."),
        "cli.exit_nonzero": sum(v for k, v in counters.items()
                                if k.startswith("cli.") and k.endswith(":raised:SystemExit")),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = busy[f"cli.{cmd}"]
        m[f"cli.{cmd}_calls"] = count[f"cli.{cmd}"]
    return m


def setup_layer_metrics(spans, counters: Counter) -> dict[str, float]:
    busy, count = Counter(), Counter()
    for sp in spans:
        busy[sp.name] += sp.busy
        count[sp.name] += sp.count
    return {
        "flowgen.generate_s": busy["flowgen.generate"],
        "flowgen.events": counters["flowgen.events"],
        "cli.gen_s": busy["cli.gen"],
        "cli.gen_calls": count["cli.gen"],
    }


def medians(per_pass: list[dict]) -> dict[str, float]:
    return {k: median([m[k] for m in per_pass]) for k in per_pass[0]} if per_pass else {}


# --------------------------------------------------------------------- child


def peak_rss_mb() -> float:
    """Peak resident memory of this process since its exec, in MiB."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child(args) -> None:
    """Serve the parent's requests, one line each, on a private copy of stdout.

    ``pass 0`` or ``pass 1`` runs one untraced or traced pass and answers with
    its wall time; ``end`` writes child.json and answers ``done``.
    """
    reply = os.fdopen(os.dup(1), "w", buffering=1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)  # nothing the program prints can reach the replies
    os.close(devnull)
    work = Path(args.work)
    ops = workloads.Ops()
    stems = [s for s, _ in workloads.configs(args.workload, args.seed, args.tiny)]
    run_pass = workloads.PASSES[args.workload]
    ctx = workloads.Context(work / "setup0" / "logs", work / "out", ops, stems)
    tracer = tracing.Tracer()
    passes: list[dict] = []  # wall and CPU seconds of each untraced pass
    traced: list[dict] = []  # layer metrics of each traced pass

    def one_pass() -> float:
        shutil.rmtree(ctx.out, ignore_errors=True)
        ctx.out.mkdir(parents=True)
        ctx.pass_index += 1
        gc.collect()
        if ctx.tracer is None:
            t0, c0 = perf_counter(), process_time()
            run_pass(ctx)
            passes.append({"wall": perf_counter() - t0, "cpu": process_time() - c0})
            return passes[-1]["wall"]
        first = len(tracer.spans)
        tracer.counters = Counter()
        with tracer.span("pass", f"p{ctx.pass_index}") as root:
            run_pass(ctx)
        traced.append({**layer_metrics(tracer.spans[first:], tracer.counters),
                       "trace.pass_s": root.busy})
        return root.busy

    bad = tracing.untraced_violations()
    ops.check(f"untraced passes call the original functions (not {bad})", not bad)
    for line in sys.stdin:
        request = line.split()
        if request[0] == "end":
            break
        if request[1] == "1" and ctx.tracer is None:
            bad = tracing.untraced_violations()
            ops.check(f"untraced passes still call the original functions (not {bad})", not bad)
            days_untraced = len(ctx.days)
            tracer.install()
            ctx.tracer = tracer
        try:
            reply.write(json.dumps({"ok": True, "wall": one_pass()}) + "\n")
        except workloads.Failed:
            reply.write(json.dumps({"ok": False}) + "\n")
    record: dict = {"passes": passes}
    if ctx.tracer is None:
        bad = tracing.untraced_violations()
        ops.check(f"untraced passes still call the original functions (not {bad})", not bad)
    else:
        tracer.uninstall()
        del ctx.days[days_untraced:]  # day samples are taken untraced only
        layers = medians(traced)
        if layers and passes:
            reference = median([p["wall"] for p in passes])
            layers["trace.untraced_pass_s"] = reference
            layers["trace_overhead_frac"] = layers["trace.pass_s"] / reference - 1
        record["layers"] = layers
        tracer.write(work / "spans.jsonl")
    record.update(attempted=ops.attempted, failed=ops.failed, errors=ops.errors, info=ctx.info,
                  days=ctx.days, peak_rss_mb=peak_rss_mb())
    (work / "child.json").write_text(json.dumps(record))
    reply.write("done\n")


# -------------------------------------------------------------------- parent


class Child:
    """The pass process: started before any set-up, driven one request at a time."""

    def __init__(self, cmd: list[str], timeout: float):
        self.timeout = timeout
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, bufsize=1)

    def ask(self, request: str) -> str | None:
        """Send one request and return the answer, or None if none came in time."""
        try:
            self.proc.stdin.write(request + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        ready, _, _ = select.select([self.proc.stdout], [], [], self.timeout)
        return self.proc.stdout.readline().strip() or None if ready else None

    def stop(self, finished: bool) -> int:
        """Wait for a child that has finished; kill one that has not answered."""
        if not finished:
            self.proc.kill()
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            return self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    work = WORK / (f"{name}-tiny" if tiny else name)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = workloads.Ops()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", name,
           "--seed", str(seed), "--work", str(work)] + (["--tiny"] if tiny else [])
    # a single request may take as long as the whole run, and never less than 30 s
    child_proc = Child(cmd, timeout=max(30.0, seconds))
    tracer = tracing.Tracer() if trace else None
    setups, setup_layers = [], []  # wall and CPU seconds (and layers) of each set-up
    untraced, traced = [], []  # wall seconds of each pass the child reports
    identity = {"workload": name, "seed": seed, "tiny": tiny, "logs": {}}
    min_passes = workloads.MIN_PASSES.get(name, 1)

    def set_up() -> None:
        r = len(setups)
        dest = work / f"setup{r}"
        if tracer:
            tracer.counters = Counter()
            first = len(tracer.spans)
            tracer.install()
        gc.collect()
        try:
            with tracer.span("setup", f"s{r}") if tracer else contextlib.nullcontext():
                t0, c0 = perf_counter(), process_time()
                workloads.setup(name, seed, dest, ops, tiny)
                setups.append({"wall": perf_counter() - t0, "cpu": process_time() - c0})
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            setup_layers.append(setup_layer_metrics(tracer.spans[first:], tracer.counters))
        if r == 0:
            record_inputs(name, seed, tiny, dest / "logs", identity, ops)
            return
        for stem, log in identity["logs"].items():
            again = workloads.sha256(dest / "logs" / f"{stem}.csv")
            ops.check(f"{stem}: regenerated log has the same sha256", again == log["sha256"])
        shutil.rmtree(dest)

    def next_task(elapsed: float) -> str | None:
        """Set up whenever set-ups have had less than their share of the time, else pass."""
        # the traced passes start in the second half, after at least one untraced pass
        second_half = trace and untraced and elapsed >= seconds / 2
        lacking = (len(setups) < MIN_SETUPS, len(untraced) < (1 if trace else min_passes),
                   trace and len(traced) < 1)
        if elapsed >= seconds:
            return "setup" if lacking[0] else "pass 0" if lacking[1] else \
                "pass 1" if lacking[2] else None
        if not setups or sum(s["wall"] for s in setups) < SETUP_SHARE * elapsed:
            task, spent = "setup", [s["wall"] for s in setups]
        else:
            task, spent = ("pass 1", traced) if second_half else ("pass 0", untraced)
        if elapsed + median(spent) > seconds and not any(lacking):
            return None
        return task

    start = perf_counter()
    try:
        while ops.failed == 0 and (task := next_task(perf_counter() - start)):
            if task == "setup":
                set_up()
                continue
            answer = child_proc.ask(task)
            if not ops.check(f"pass process answers `{task}` within {child_proc.timeout:.0f} s",
                             answer is not None) or not json.loads(answer)["ok"]:
                break
            (traced if task == "pass 1" else untraced).append(json.loads(answer)["wall"])
    except workloads.Failed:
        pass
    child_rec = {}
    done = child_proc.ask("end")
    code = child_proc.stop(done == "done")
    if ops.check(f"pass process ends cleanly (answer {done!r}, exit {code})",
                 done == "done" and code == 0):
        child_rec = json.loads((work / "child.json").read_text())
    if tracer:
        tracer.write(work / "spans_setup.jsonl")

    attempted = ops.attempted + child_rec.get("attempted", 0)
    failed = ops.failed + child_rec.get("failed", 0)
    passes = child_rec.get("passes", [])
    days = child_rec.get("days", [])

    def summary(clock: str) -> dict[str, float]:
        day_ms = [d[clock] * 1e3 for d in days]
        return {
            "pass_s": median([p[clock] for p in passes]),
            "setup_s": median([s[clock] for s in setups]),
            "day_ms_p50": median(day_ms),
            "day_ms_p90": p90(day_ms),
        }

    result = {
        "workload": name,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted if attempted else 1.0,
        "errors": ops.errors + child_rec.get("errors", []),
        "environment": environment(),
        "identity": {**identity, "days": child_rec.get("info", {})},
        "setup_samples": setups,
        "pass_samples": passes,
        "day_samples": len(days),
        "cpu_clock": summary("cpu"),
        "wall_clock": summary("wall"),
    }
    if trace:
        layers = {**child_rec.get("layers", {}), **medians(setup_layers)}
        result["metrics"] = {k: layers[k] for k in per_layer_names()} if layers else {}
    else:
        cpu = result["cpu_clock"]
        result["metrics"] = {
            "setup_s": cpu["setup_s"],
            "day_cpu_ms_p90": cpu["day_ms_p90"],
            "peak_rss_mb": child_rec.get("peak_rss_mb", 0.0),
        }
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    shutil.rmtree(work / "setup0", ignore_errors=True)
    shutil.rmtree(work / "out", ignore_errors=True)
    return result


def record_inputs(name: str, seed: int, tiny: bool, logs: Path, identity: dict, ops) -> None:
    """Record each log's config, sha256 and size; the days must share one grid."""
    grids = set()
    for stem, cfg in workloads.configs(name, seed, tiny):
        meta = json.loads((logs / f"{stem}_meta.json").read_text())
        grids.add((meta["tick_size"], meta["anchor"], meta["reference_price"]))
        identity["logs"][stem] = {"sha256": workloads.sha256(logs / f"{stem}.csv"),
                                  "n_events": meta["n_events"],
                                  "config": workloads.full_config(cfg)}
    ops.check("all days share one price grid", len(grids) == 1)


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def per_layer_names() -> list[str]:
    return [m["name"] for m in bench_spec()["per_layer"]]


def units(trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in bench_spec()["per_layer" if trace else "end_to_end"]}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="Shrink every day (smoke tests).")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--work", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(args)
        return

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    unit = units(bool(args.trace))
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.tiny)
               for n in names]
    for res in results:
        print(f"[{res['workload']}] seed={args.seed} correct={res['correct']} "
              f"ops_failed_frac={res['ops_failed_frac']:.6g} "
              f"(failed={res['failed']} attempted={res['attempted']})")
        for err in res["errors"][:10]:
            print(f"[{res['workload']}]   {err}")
        for k, v in res["metrics"].items():
            print(f"[{res['workload']}]   {k} = {v:.6g} {unit[k]}")
        if not args.trace:
            print(f"[{res['workload']}]   not compared: CPU {json.dumps(res['cpu_clock'])}, "
                  f"wall {json.dumps(res['wall_clock'])}, {res['day_samples']} day samples")
    prefix = len(results) > 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": unit[k]}
                    for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(line))
    sys.exit(0 if line["correct"] else 1)


if __name__ == "__main__":
    main()
