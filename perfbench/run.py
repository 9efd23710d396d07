"""flowmesh benchmark: times the fit, metrics and deform workflows end to end
and, in a traced run, layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Inputs are made from the seed.  The program is imported from ``src/`` of
the checkout.  Human-readable lines go to stdout first; the last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_PROBES = 2
# Rounds a run makes at least: every median has two samples, and a traced
# run has one untraced and one traced round.
MIN_ROUNDS = 2
# The whole run must end within 180 s; rounds must end by this many seconds
# after the start, which leaves room for the checks that follow them.
ROUNDS_DEADLINE_S = 150.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import flowmesh.cli\n"
    "print(time.perf_counter() - start, flowmesh.cli.__file__)\n"
)


def child_env() -> dict[str, str]:
    """Environment of every measured process: the checkout's ``src`` first,
    and one thread per numeric library (the library is single-threaded)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def read_text(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def environment_record(args, workload) -> dict:
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read_text(index / "level"), read_text(index / "type")
        if level and kind != "Instruction":
            caches[f"L{level}"] = read_text(index / "size")
    model = None
    cpuinfo = read_text(Path("/proc/cpuinfo")) or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = probe.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_per_core": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "thread_env_inherited": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_env_measured": {v: "1" for v in THREAD_VARS},
        "working_sets_bytes_computed": workload.working_sets(),
    }


def setup_samples(env) -> list[float]:
    """Import times of flowmesh.cli in fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        seconds, path = out.stdout.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"probe imported flowmesh from {path.strip()}")
        samples.append(float(seconds))
    return samples


def run_round(work: Path, index: int, traced: bool, env, deadline: float) -> dict:
    """Run one round in a fresh worker process and return its result."""
    result = work / f"round{index}.json"
    log = work / f"round{index}.log"
    with open(log, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(work / "spec.json"),
             str(result), str(index), str(int(traced))],
            env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("a round did not finish in time")
    if code != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise RuntimeError(f"worker exited with {code}:\n{tail}")
    with open(result, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not Path(data["flowmesh_file"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"worker imported flowmesh from {data['flowmesh_file']}")
    return data


def write_spec(work: Path, workload) -> None:
    """The spec every worker of the run reads: the argv of a round's calls."""
    with open(work / "spec.json", "w", encoding="utf-8") as fh:
        json.dump({"round_argv": workload.round_argv()}, fh)


def run_rounds(work: Path, workload, args, env, deadline: float) -> list[dict]:
    """Closed loop of rounds until the window is used.

    A round starts only while the median round so far still fits in the
    window, but at least MIN_ROUNDS rounds run.  When
    tracing, untraced and traced rounds alternate, so the tracing overhead
    is measured in the same run.
    """
    write_spec(work, workload)
    rounds: list[dict] = []
    durations: list[float] = []
    start = time.monotonic()
    while True:
        index = len(rounds)
        began = time.monotonic()
        rounds.append(run_round(work, index, bool(args.trace) and index % 2 == 1,
                                env, deadline))
        durations.append(time.monotonic() - began)
        if any(c["exit"] != 0 for c in rounds[-1]["calls"]):
            return rounds
        elapsed = time.monotonic() - start
        typical = statistics.median(durations)
        if len(rounds) >= MIN_ROUNDS and elapsed + typical > args.seconds:
            return rounds


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")

    started = time.monotonic()
    if not (SRC / "flowmesh" / "cli.py").is_file():
        return fail(f"no flowmesh sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import flowmesh

    if not Path(flowmesh.__file__).resolve().is_relative_to(SRC):
        return fail(f"flowmesh imported from {flowmesh.__file__}, not {SRC}")

    work = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    env = child_env()
    try:
        workload = WORKLOADS[args.workload](work, args.seed, STATE / "cache")
        workload.prepare()
        record = environment_record(args, workload)
        attempted, failures = workload.run_checks()
        setup = [] if args.trace else setup_samples(env)
        rounds = run_rounds(work, workload, args, env, started + ROUNDS_DEADLINE_S)
        failed = len(failures)
        problems = list(failures)
        for index, rnd in enumerate(rounds):
            codes = [c["exit"] for c in rnd["calls"]]
            attempted += len(codes)
            try:
                round_problems = workload.check_round(index, codes)
            except (OSError, ValueError) as exc:  # missing or malformed output
                round_problems = [f"unreadable output: {exc}"]
            if round_problems:
                failed += len(codes)
                problems += [f"round {index}: {p}" for p in round_problems]
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(record, sort_keys=True))
    if args.trace:
        metrics = traced_metrics(rounds, workload)
    else:
        metrics = untraced_metrics(rounds, workload, setup)
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def untraced_metrics(rounds, workload, setup) -> dict:
    """End-to-end metrics: medians over the run's rounds.

    The program's set-up is the import of flowmesh.cli in a fresh
    interpreter, sampled by the probes and by every round's worker.
    """
    per_call = list(zip(*([c["wall_s"] for c in r["calls"]] for r in rounds)))
    for name, walls in zip(workload.CALL_NAMES, per_call):
        print(f"call {name} median {statistics.median(walls)!r} s over "
              f"{len(walls)} calls: {', '.join(f'{w:.4f}' for w in walls)}")
    return {
        "workflow_s": {
            "value": statistics.median(sum(call) for call in zip(*per_call)),
            "unit": "s",
        },
        "first_call_s": {"value": statistics.median(per_call[0]), "unit": "s"},
        "setup_s": {
            "value": statistics.median(setup + [r["import_s"] for r in rounds]),
            "unit": "s",
        },
        "peak_rss_mb": {
            "value": statistics.median(r["peak_rss_kb"] for r in rounds) / 1024.0,
            "unit": "MB",
        },
    }


def traced_metrics(rounds, workload) -> dict:
    """Per-layer metrics: medians over the traced rounds."""
    from spans import LAYER_METRICS

    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]

    def round_wall(r):
        return sum(c["wall_s"] for c in r["calls"])

    values = {}
    if traced and plain:  # both exist unless the first round failed
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        values["trace.overhead_share"] = (
            statistics.median(map(round_wall, traced))
            / statistics.median(map(round_wall, plain)) - 1.0
        )
    values.update(workload.quality())
    return {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, (unit, _) in LAYER_METRICS.items()
    }


if __name__ == "__main__":
    sys.exit(main())
