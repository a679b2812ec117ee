"""tiltlab benchmark: timed `tiltlab run` processes on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is an experiment config in perfbench/workloads/. A run spawns
fresh `python3 -m tiltlab run CONFIG --seed S_i --output-dir D` processes one
after another until S seconds are spent, with the checkout's src/ first on
PYTHONPATH and BLAS threads capped at the number of usable CPUs. Child seeds
are derived from N. The benchmark reads only each child's report.json and
artifacts, never tiltlab's internals, and gates every child: exit code 0, the
workload's closed-form oracle within tolerance, and byte-identical artifacts
for a rerun of the same seed.

--trace 0 reports the end-to-end metrics (median over children). --trace 1
alternates an untraced child with a traced one (child.py) on the same seed
and reports the per-layer metrics (median over traced children) and the
tracing overhead. The last line of stdout is the result object; the line
before it holds the machine fingerprint, quartiles and per-child records.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ORACLE_TOL = 0.05
MIN_RECALL_AT_1 = 0.02
MIN_UNITS = 3  # children (trace 0) or untraced/traced pairs (trace 1) per run
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 60.0
HARD_LIMIT_S = 100.0  # no new child once the run would pass this
PROBE = "import time, tiltlab.cli; print(repr(time.monotonic()), tiltlab.cli.__file__)"


class BenchError(Exception):
    """The benchmark cannot run here (no program, or the wrong one)."""


# ---------------------------------------------------------------------------
# oracle gates: each takes report["results"] and returns (oracle_err, problems)


def gate_gp(results):
    errs = [row["frob_rel_err"] for row in results["sweep"]]
    problems = [f"frob_rel_err {e:.4f} not < {ORACLE_TOL}" for e in errs if not e < ORACLE_TOL]
    return sum(errs) / len(errs), problems


def gate_g2d(results):
    problems = []
    if not abs(results["a_joint"] - 1.0 / 3.0) < 1e-9:
        problems.append(f"closed-form a_joint {results['a_joint']!r} is not 1/3")
    err = abs(results["a_trained"] - results["a_joint"])
    if not err < ORACLE_TOL:
        problems.append(f"|a_trained - a_joint| {err:.4f} not < {ORACLE_TOL}")
    return err, problems


def gate_flow(results):
    first, final = results["first"], results["final"]
    problems = []
    for way in ("traj_to_coeff", "coeff_to_traj"):
        r1, r5 = final[f"r1_{way}"], final[f"r5_{way}"]
        if not r1 >= MIN_RECALL_AT_1:
            problems.append(f"final R@1 {way} {r1} < {MIN_RECALL_AT_1}")
        if not r5 >= r1:
            problems.append(f"final R@5 {way} {r5} < R@1 {r1}")
        if not r5 >= first[f"r5_{way}"]:
            problems.append(f"final R@5 {way} {r5} < first epoch's {first[f'r5_{way}']}")
    return 1.0 - 0.5 * (final["r5_traj_to_coeff"] + final["r5_coeff_to_traj"]), problems


GATES = {
    "gp-cond-b512": gate_gp,
    "g2d-joint-b512": gate_g2d,
    "flow-mlp-b64": gate_flow,
}


def training_pairs(config) -> int:
    """Epochs times training pairs over every training run the config makes."""
    sweep = config.get("sweep", {})
    epochs = config["train"]["epochs"]
    if config["experiment"] == "gaussian-gp":
        runs = len(sweep.get("batch_sizes", [1])) * len(sweep.get("embedding_dims", [1]))
        return epochs * runs * sum(sweep["sample_sizes"])
    return epochs * sweep["sample_sizes"][0]


# ---------------------------------------------------------------------------
# child processes


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in BLAS_THREAD_VARS:
        env[var] = str(threads)
    return env


def spawn(argv, env, log_path):
    """Run one process to its end: (exit code, wall seconds, peak RSS in MB).

    PERFBENCH_T0 passes the spawn stamp to a traced child. os.wait4 reaps
    the process itself, because only it returns that child's peak RSS; a
    timer kills a process that outlives CHILD_TIMEOUT_S.
    """
    with open(log_path, "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            argv, env=dict(env, PERFBENCH_T0=repr(t0)), stdout=log, stderr=subprocess.STDOUT, cwd=ROOT
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def setup_time(env) -> float:
    """Seconds from spawning a Python process until tiltlab.cli is imported."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60, cwd=ROOT
    )
    if out.returncode != 0:
        raise BenchError(f"cannot import tiltlab.cli from {SRC}: {out.stderr.strip()[-500:]}")
    stamp, path = out.stdout.split(maxsplit=1)
    if not Path(path.strip()).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"tiltlab.cli came from {path.strip()}, not from {SRC}")
    return float(stamp) - t0


def same_artifacts(a: Path, b: Path) -> bool:
    names = sorted(os.listdir(a))
    return names == sorted(os.listdir(b)) and all(
        (a / name).read_bytes() == (b / name).read_bytes() for name in names
    )


def run_child(workload, seed, traced, env, work: Path, tag: str) -> dict:
    outdir = work / f"out-{tag}"
    trace_path = work / f"trace-{tag}.json"
    config = HERE / "workloads" / f"{workload}.json"
    cli_args = ["run", str(config), "--seed", str(seed), "--output-dir", str(outdir)]
    if traced:
        argv = [sys.executable, str(HERE / "child.py"), str(trace_path), *cli_args]
    else:
        argv = [sys.executable, "-m", "tiltlab", *cli_args]
    code, wall, rss = spawn(argv, env, work / f"log-{tag}.txt")
    record = {"seed": seed, "traced": traced, "code": code, "run_s": wall, "peak_rss_mb": rss,
              "outdir": outdir, "problems": []}
    if code != 0:
        log = (work / f"log-{tag}.txt").read_text(encoding="utf-8", errors="replace")
        record["problems"].append(f"exit code {code}: {log.strip()[-300:]}")
        return record
    try:
        with open(outdir / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        record["oracle_err"], problems = GATES[workload](report["results"])
        record["problems"].extend(problems)
        missing = [name for name in report["artifacts"] if not (outdir / name).is_file()]
        if missing:
            record["problems"].append(f"listed artifacts missing: {missing}")
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        record["problems"].append(f"unreadable report: {exc!r}")
    if traced:
        try:
            with open(trace_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            record["layers"] = tracing.summarize(doc)
            record["absent"] = doc["absent"]
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            record["problems"].append(f"unreadable trace: {exc!r}")
    return record


# ---------------------------------------------------------------------------
# one benchmark run


def run_units(workload, seed, seconds, trace, env, work: Path) -> list:
    """Children until the time is spent. trace 0: seeds s0, s0, s1, s2, ...
    (the second child reruns the first). trace 1: (untraced, traced) pairs
    on s0, s1, ... Each rerun must reproduce its partner's artifacts."""
    records, unit_s = [], []
    start = time.monotonic()
    k = 0
    while True:
        tic = time.monotonic()
        if trace:
            child_seed = seed * 1000 + k
            plain = run_child(workload, child_seed, False, env, work, f"{k}p")
            rerun = run_child(workload, child_seed, True, env, work, f"{k}t")
            unit = [plain, rerun]
        else:
            child_seed = seed * 1000 + max(0, k - 1)
            rerun = run_child(workload, child_seed, False, env, work, str(k))
            plain = records[0] if k == 1 else None
            unit = [rerun]
        if plain is not None and plain["code"] == 0 and rerun["code"] == 0:
            if not same_artifacts(plain["outdir"], rerun["outdir"]):
                rerun["problems"].append(f"artifacts differ from the first run of seed {child_seed}")
        records.extend(unit)
        unit_s.append(time.monotonic() - tic)
        k += 1
        elapsed = time.monotonic() - start
        next_end = elapsed + statistics.median(unit_s)
        if next_end > HARD_LIMIT_S or (k >= MIN_UNITS and next_end > seconds):
            return records


def quartiles(values) -> dict:
    values = values or [0.0]
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        med = statistics.median(values)  # keeps a count whole
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "pairs_per_s": "1/s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "fallbacks", "rows", "params", "queries"):
        return "count"
    if last in ("s", "self_s"):
        return "s"
    if last.startswith("ns_"):
        return "ns"
    if last.startswith("us_"):
        return "us"
    return "1"


def fingerprint(threads: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        blas_name = blas_version = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "missing"
    return {
        "nproc": threads,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": threads,
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def summarize_run(workload, trace, records, setup) -> tuple[dict, dict]:
    """(metric values for the result line, quartiles for the detail line)."""
    with open(HERE / "workloads" / f"{workload}.json", encoding="utf-8") as fh:
        pairs = training_pairs(json.load(fh))
    good = [r for r in records if not r["problems"]] or records
    oracle = {r["seed"]: r["oracle_err"] for r in records if "oracle_err" in r}
    series = {}
    if trace:
        traced = [r for r in good if "layers" in r]
        for name in tracing.summarize({"spans": []}):
            if name != "trace.self_sum_s":
                series[name] = [r["layers"][name] for r in traced]
        series["trace.accounted_ratio"] = [r["layers"]["trace.self_sum_s"] / r["run_s"] for r in traced]
        series["trace.overhead_ratio"] = [
            t["run_s"] / p["run_s"] for p, t in zip(records[::2], records[1::2]) if p in good and t in good
        ] or [0.0]
        series["oracle_err"] = [statistics.fmean(oracle.values())] if oracle else [0.0]
    else:
        series["run_s"] = [r["run_s"] for r in good]
        series["setup_s"] = setup
        series["pairs_per_s"] = [pairs / r["run_s"] for r in good]
        series["peak_rss_mb"] = [r["peak_rss_mb"] for r in good]
    detail = {name: quartiles(values) for name, values in series.items()}
    if not trace:
        detail["oracle_err"] = quartiles(list(oracle.values()) or [0.0])
    return {name: q["median"] for name, q in detail.items() if name in series}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(GATES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "tiltlab" / "cli.py").is_file():
        print(f"perfbench: no tiltlab sources under {SRC}", file=sys.stderr)
        return 2

    # a terminated benchmark still kills and reaps its running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        setup_time(env)  # compiles bytecode and checks where tiltlab comes from
        setup = [] if args.trace else [setup_time(env) for _ in range(SETUP_PROBES)]
        records = run_units(args.workload, args.seed, args.seconds, args.trace, env, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(ROOT / ".perfbench_work")
        except OSError:
            pass

    failed = [r for r in records if r["problems"]]
    for r in failed:
        print(f"perfbench: seed {r['seed']} failed: {'; '.join(r['problems'])}", file=sys.stderr)
    metrics, detail = summarize_run(args.workload, args.trace, records, setup)
    absent = sorted({layer for r in records for layer in r.get("absent", [])})
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": fingerprint(threads),
        "fail_ratio": len(failed) / len(records),
        "absent_layers": absent,
        "quartiles": detail,
        "children": [
            {key: value for key, value in r.items() if key not in ("outdir", "layers")}
            for r in records
        ],
    }))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
