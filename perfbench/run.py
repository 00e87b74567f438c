"""Benchmark for the ``ssrc`` experiment runner.

One process, one client, closed loop: requests (one ``run_experiment``
call on one generated config each) run one at a time until ``--seconds``
have passed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

    python3 perfbench/run.py --workload synth --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --report [--seed 1] [--seconds 35]
    python3 perfbench/run.py --ledger

``--report`` runs every workload untraced and traced and prints all the
metrics with units and sample counts, plus the tracing overhead.
``--ledger`` replays the known failures listed in NOTES.md.

Each run leaves its configs, data files, per-request records and (traced)
spans under ``.perfbench_out/`` at the repository root.  The thread-count
variables (``OMP_NUM_THREADS`` ...) are recorded as found; those that are
unset are set to 1 before NumPy loads.  With OpenBLAS's default of one
thread per core, the CLI's worker threads make OpenBLAS spin, and one busy
neighbour on the host then slows a request four-fold (NOTES.md,
"Threading").
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3  # this process plus two fresh child processes
TAIL_BEYOND = 10
DIGEST_PREFIX = 10  # requests every run completes, so digests compare
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_ENV_FOUND = {k: os.environ.get(k) for k in THREAD_VARS}


def _import_ssrc():
    """Import ``ssrc.cli`` from this checkout's ``src`` directory only."""
    src = ROOT / "src"
    if not (src / "ssrc" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no ssrc sources under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("ssrc.cli")
    if Path(cli.__file__).resolve().parent != src / "ssrc":
        raise SystemExit(f"perfbench: imported ssrc from {cli.__file__}")
    return cli


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env_found": THREAD_ENV_FOUND,
        "thread_env_run": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def steal_seconds() -> float | None:
    """CPU time the host took from this machine so far (Linux only)."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def setup(workload: str, seed: int, config_dir: Path):
    """Import ``ssrc.cli``, write every config and validate each one.

    Returns (cli module, requests, loaded configs, (wall s, CPU s) taken).
    """
    started, cpu0 = time.perf_counter(), time.process_time()
    cli = _import_ssrc()
    requests = workloads.generate(workload, seed)
    config_dir.mkdir(parents=True, exist_ok=True)
    configs = []
    for req in requests:
        path = config_dir / f"{req.stem}.ini"
        path.write_text(req.ini(), encoding="utf-8")
        configs.append(cli.load_config(path))
    return cli, requests, configs, (time.perf_counter() - started,
                                    time.process_time() - cpu0)


def _child_setup(workload: str, seed: int, out: Path) -> tuple[float, float]:
    """Set-up (wall s, CPU s) measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed), "--out", str(out)],
        capture_output=True, text=True, timeout=120, check=True)
    wall, cpu = proc.stdout.strip().splitlines()[-1].split()
    return float(wall), float(cpu)


def tail(times: list[float]) -> tuple[float, float]:
    """Time at the highest percentile with >= 10 requests beyond it.

    Returns (time, percentile); with 10 or fewer requests it is the
    largest one and the percentile is 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_loop(cli, requests, configs, seconds, data_dir, oracles, tracer):
    """The closed loop; returns one record per request run."""
    records = []
    first_digest: dict[int, str] = {}
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        req = requests[k % len(requests)]
        if tracer is not None:
            tracer.request = k
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            cli.run_experiment(configs[req.index], data_dir)
            error = None
        except Exception:  # a failed request is counted, never retried
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        rec = {"k": k, "request": req.index, "shape": req.shape,
               "experiment": req.experiment, "wall_s": wall, "cpu_s": cpu,
               "rows": 0, "bytes": 0, "sha256": None, "problems": []}
        if error is not None:
            rec["problems"].append(error)
        else:
            path = data_dir / f"{req.stem}.csv"
            rows = checks.read_rows(path)
            rec["rows"], rec["bytes"] = len(rows), path.stat().st_size
            rec["sha256"] = sha256(path)
            rec["problems"] = checks.check(req.experiment, dict(req.params),
                                           rows, oracles)
            if first_digest.setdefault(req.index, rec["sha256"]) != \
                    rec["sha256"]:
                rec["problems"].append("data differs from its first run")
        records.append(rec)
        k += 1
    if tracer is not None:
        tracer.request = None
    return records


def per_block(records, mix, key: str) -> tuple[int, float, float]:
    """Requests, rows and ``key`` seconds of one block of the shape mix.

    Each shape contributes its mean rows and its median ``key`` time,
    weighted by its count in a block.  A run rarely ends on a block
    boundary, and a few requests disturbed by other load on the host would
    move plain sums over the loop; these figures move with neither.
    """
    requests, rows, seconds = 0, 0.0, 0.0
    for shape, count in mix.items():
        mine = [r for r in records if r["shape"] == shape]
        if mine:
            requests += count
            rows += count * statistics.fmean(r["rows"] for r in mine)
            seconds += count * statistics.median(r[key] for r in mine)
    return requests, rows, seconds


def end_to_end(records, mix, setup_cpu) -> dict:
    """The gated metrics, all in CPU time (NOTES.md, "Why CPU time")."""
    cpus = [r["cpu_s"] for r in records]
    requests, _, seconds = per_block(records, mix, "cpu_s")
    return {
        "setup_s": statistics.median(setup_cpu),
        "cpu_s": seconds / requests,
        "request_cpu_s.p50": statistics.median(cpus),
        "request_cpu_s.tail": tail(cpus)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def wall_figures(records, mix, setup_wall) -> dict:
    """What the user waits for; printed and kept, not gated."""
    walls = [r["wall_s"] for r in records]
    _, rows, seconds = per_block(records, mix, "wall_s")
    return {
        "setup_wall_s": statistics.median(setup_wall),
        "rows_per_s": rows / seconds,
        "request_s.p50": statistics.median(walls),
        "request_s.tail": tail(walls)[0],
    }


def run(args) -> int:
    out = ROOT / ".perfbench_out" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    data_dir = out / "data"
    cli, requests, configs, setup_s = setup(args.workload, args.seed,
                                            out / "configs")
    setup_times = [setup_s]
    mix = workloads.block_mix(args.workload)
    tracer = None
    if args.trace:
        import ssrc
        from spans import Tracer

        tracer = Tracer(ssrc)
        tracer.install()
        # Re-validate under the tracer so cli.load_config gets spans.
        configs = [cli.load_config(out / "configs" / f"{r.stem}.ini")
                   for r in requests]
    else:
        for i in range(1, SETUP_REPEATS):
            setup_times.append(_child_setup(args.workload, args.seed,
                                            out / f"setup-{i}"))
            shutil.rmtree(out / f"setup-{i}")
    oracles = checks.load_oracles(ROOT)
    hop = sys.modules["ssrc.schwinger"]._hop_csr
    cache0 = hop.cache_info()
    steal0 = steal_seconds()
    records = run_loop(cli, requests, configs, args.seconds, data_dir,
                       oracles, tracer)
    cache1 = hop.cache_info()
    steal1 = steal_seconds()
    steal = None if steal0 is None else steal1 - steal0
    failed = sum(bool(r["problems"]) for r in records)
    rows = sum(r["rows"] for r in records)
    tail_pct = tail([r["wall_s"] for r in records])[1]
    wall = wall_figures(records, mix, [w for w, _ in setup_times])
    if tracer is None:
        metrics = end_to_end(records, mix, [c for _, c in setup_times])
    else:
        tracer.uninstall()
        metrics = tracer.metrics(
            sum(r["wall_s"] for r in records),
            (cache1.hits - cache0.hits, cache1.misses - cache0.misses))
        metrics["cli.data_bytes"] = sum(r["bytes"] for r in records)
        metrics["trace.rows_per_s"] = wall["rows_per_s"]
        with open(out / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
    units = _units("per_layer" if args.trace else "end_to_end")
    prefix = records[:DIGEST_PREFIX]
    digest = hashlib.sha256("".join(
        f"{r['request']}:{r['sha256']}\n" for r in prefix).encode()).hexdigest()
    summary = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "requests": len(records), "distinct_requests": len(
            {r["request"] for r in records}),
        "rows": rows, "failed": failed, "failed_frac": failed / len(records),
        "tail_percentile": tail_pct, "setup_samples": setup_times,
        "steal_s": steal,
        "data_sha256": digest, "metrics": metrics, "wall": wall,
    }
    (out / "result.json").write_text(
        json.dumps({**summary, "records": records}, indent=1) + "\n",
        encoding="utf-8")
    env = summary["environment"]
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"cpu time taken by the host during the loop: {steal} s")
    print(f"requests: {len(records)} ({summary['distinct_requests']} "
          f"distinct), rows: {rows}, failed_frac: "
          f"{summary['failed_frac']:.4f} ({failed}/{len(records)})")
    print(f"p50 over {len(records)} requests; tail is p{tail_pct:.1f}; "
          f"setup is the median of {len(setup_times)}")
    print(f"wall time (not gated): {json.dumps(wall)}")
    for rec in records:
        for problem in rec["problems"]:
            print(f"FAILED {rec['shape']} {rec['experiment']} "
                  f"req-{rec['request']:04d}: {problem}")
    print(f"data_sha256 of the first {len(prefix)} requests: {digest}")
    print(f"configs, data files and per-request records: {out}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in _spec()[kind]}


def report(args) -> int:
    """Run every workload untraced and traced; print every metric."""
    spec = _spec()
    for workload in (w["name"] for w in spec["workloads"]):
        results = {}
        for trace in (0, 1):
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                check=True, stdout=subprocess.DEVNULL, timeout=600)
            path = ROOT / ".perfbench_out" / \
                f"{workload}-seed{args.seed}-trace{trace}" / "result.json"
            results[trace] = json.loads(path.read_text(encoding="utf-8"))
        plain, traced = results[0], results[1]
        n = plain["requests"]
        print(f"== {workload} (seed {args.seed}, {args.seconds} s, "
              f"closed loop, 1 client)")
        setups = f"n={len(plain['setup_samples'])}"
        tails = f"p{plain['tail_percentile']:.1f}, n={n}"
        counts = {"setup_s": setups, "setup_wall_s": setups,
                  "request_cpu_s.tail": tails, "request_s.tail": tails}
        units = {**_units("end_to_end"), "setup_wall_s": "s",
                 "rows_per_s": "rows/s", "request_s.p50": "s",
                 "request_s.tail": "s"}
        for name, value in plain["metrics"].items():
            print(f"  {name:28s} {value:14.6g} {units[name]:7s} "
                  f"{counts.get(name, f'n={n}')}")
        print("  -- wall time, not gated:")
        for name, value in plain["wall"].items():
            print(f"  {name:28s} {value:14.6g} {units[name]:7s} "
                  f"{counts.get(name, f'n={n}')}")
        print(f"  {'failed_frac':28s} {plain['failed_frac']:14.6g} "
              f"{'ratio':7s} {plain['failed']}/{n}")
        print(f"  {'steal_s':28s} {plain['steal_s']!s:>14s} {'s':7s} "
              "CPU time the host took during the loop")
        units = _units("per_layer")
        print(f"  -- traced run: {traced['requests']} requests, "
              f"failed {traced['failed']}")
        for name, value in traced["metrics"].items():
            print(f"  {name:44s} {value:14.6g} {units[name]}")
        untraced = plain["wall"]["rows_per_s"]
        traced_rate = traced["metrics"]["trace.rows_per_s"]
        print(f"  tracing overhead: rows_per_s {untraced:.4g} untraced, "
              f"{traced_rate:.4g} traced "
              f"({100.0 * (traced_rate / untraced - 1.0):+.1f}%)")
    return 0


# Configs that fail at the seed commit; see NOTES.md.
LEDGER = (
    ("synthesis-bench N=32, seed 1", "synthesis-bench", 1,
     {"n_list": "32", "targets": "1"}),
    ("synthesis-bench N=32, seed 4", "synthesis-bench", 4,
     {"n_list": "32", "targets": "1"}),
    ("synthesis-bench N=24, seed 2", "synthesis-bench", 2,
     {"n_list": "24", "targets": "1"}),
    ("phase-locking theta=0.2, N=1e6", "phase-locking", 1,
     {"theta": "0.2", "n_list": "1000000"}),
)


def ledger(args) -> int:
    """Replay each known failure and report what it does now."""
    out = ROOT / ".perfbench_out" / "ledger"
    shutil.rmtree(out, ignore_errors=True)
    cli = _import_ssrc()
    oracles = checks.load_oracles(ROOT)
    for i, (label, experiment, seed, params) in enumerate(LEDGER):
        req = workloads.Request(i, label, experiment, seed,
                                tuple(params.items()))
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{req.stem}.ini"
        path.write_text(req.ini(), encoding="utf-8")
        t0 = time.perf_counter()
        try:
            cli.run_experiment(cli.load_config(path), out)
            rows = checks.read_rows(out / f"{req.stem}.csv")
            problems = checks.check(experiment, params, rows, oracles)
            status = "; ".join(problems) or "passes checks: " + json.dumps(
                rows[0])
        except Exception as exc:  # the ledger reports, it does not stop
            status = f"raises {type(exc).__name__}: {exc}"
        print(f"{label}: {status} ({time.perf_counter() - t0:.1f} s; "
              f"config {path})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--ledger", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.report:
        return report(args)
    for name in THREAD_VARS:  # before NumPy loads
        os.environ.setdefault(name, "1")
    if args.ledger:
        return ledger(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        *_, (wall, cpu) = setup(args.workload, args.seed, args.out)
        print(f"{wall!r} {cpu!r}")
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
