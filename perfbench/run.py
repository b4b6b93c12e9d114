"""The repro benchmark: one workload run, end-to-end or traced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_default --seed 20211102 \\
        --seconds 10 --trace 0

Workloads are defined in ``perfbench/workloads.py`` and explained in
``perfbench/NOTES.md``.  Every workload execution starts in a fresh
interpreter (``perfbench/child.py``) with every ``REPRO_*`` variable
removed from its environment, so no stray setting changes which code
path is measured.

``--trace 0`` measures the end-to-end metrics: set-up time (the median
of several fresh-interpreter set-ups), the workload's makespan and the
peak resident set of the whole process tree; it also prints each
phase's wall time.  ``--trace 1`` runs the workload once untraced and once
with spans around every layer boundary, checks that both rendered the
same reports, and reports the per-layer metrics plus the trace's own
overhead and unattributed share.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit.  The exit code is 0 when a
result was printed, and non-zero (without a result) when the checkout
has no program to run or a workload run did not finish.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import PHASE_GROUP, WORKLOADS  # noqa: E402


SRC = ROOT / "src"
#: Scratch space for results, artifact caches and the digest ledger.
WORK = ROOT / ".perfbench_work"

#: The scenario default seed (``repro.config``'s ``_DEFAULT_SEED``).
DEFAULT_SEED = 20211102

#: Fresh-interpreter set-ups whose median is ``setup_s`` (the workload
#: run's own set-up is one of them).
SETUP_SAMPLES = 3

#: Every child still running this long after the benchmark started is
#: killed, and the run fails without a result.
RUN_BUDGET_S = 170.0
STARTED = time.monotonic()

#: Interval between two memory samples of the run's process tree.
RSS_POLL_S = 0.02


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics.

    ``BENCHMARK.json`` at the checkout root is the one list of metrics;
    every run prints exactly the metrics it declares.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {metric["name"]: metric["unit"] for metric in declared}


def clean_env() -> dict[str, str]:
    """This environment without any ``REPRO_*`` setting.

    Temporary files (the program's spill directories) go to the
    checkout's scratch space, never to the host's temp directory.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def tree_rss_bytes(root_pid: int) -> int:
    """Summed resident set of ``root_pid`` and all its descendants."""
    page = os.sysconf("SC_PAGE_SIZE")
    total, pending = 0, [root_pid]
    while pending:
        pid = pending.pop()
        try:
            with open(f"/proc/{pid}/statm") as handle:
                total += int(handle.read().split()[1]) * page
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/children") as handle:
                    pending.extend(int(c) for c in handle.read().split())
        except (OSError, ValueError):
            continue  # the process exited between two reads
    return total


class TreeSampler(threading.Thread):
    """Polls a process tree's summed RSS; keeps the largest sample."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.peak = 0
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.is_set():
            self.peak = max(self.peak, tree_rss_bytes(self.pid))
            self._halt.wait(RSS_POLL_S)

    def stop(self) -> int:
        self._halt.set()
        self.join()
        return self.peak


def run_child(workload: str, seed: int, mode: str, trace: int,
              out: Path | None, cache_dir: Path | None) -> dict:
    """Run ``child.py`` once; returns set-up time, peak RSS and exit code.

    The child runs in its own session so a timeout kills its pool
    workers too; on return every process of that session has ended.
    """
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--mode", mode, "--trace", str(trace)]
    if out is not None:
        command += ["--out", str(out)]
    if cache_dir is not None:
        command += ["--cache-dir", str(cache_dir)]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=clean_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    remaining = max(RUN_BUDGET_S - (time.monotonic() - STARTED), 1.0)
    timer = threading.Timer(remaining, kill_session, (proc.pid,))
    timer.start()
    info: dict = {"setup_s": None, "peak_rss_mb": 0.0}
    sampler = None
    try:
        for line in proc.stdout:
            if not line.startswith("@@"):
                sys.stderr.write(line)
                continue
            name, _, payload = line[2:].partition(" ")
            fields = json.loads(payload or "{}")
            if name == "ready":
                info["setup_s"] = time.perf_counter() - start
            elif name == "timed_begin":
                sampler = TreeSampler(proc.pid)
                sampler.start()
            elif name == "timed_end" and sampler is not None:
                tree_peak = sampler.stop() / 2**20
                sampler = None
                info["peak_rss_mb"] = max(tree_peak, fields["hwm_mb"])
        info["returncode"] = proc.wait()
    finally:
        timer.cancel()
        if sampler is not None:
            sampler.stop()
        if proc.poll() is None:
            os.killpg(proc.pid, 9)
        proc.wait()
        kill_session(proc.pid)  # pool workers outliving the child
    return info


def kill_session(pid: int) -> None:
    """SIGKILL every process left in the child's session; wait for them."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pid, 9)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.02)


def run_workload(workload: str, seed: int, trace: int, tag: str) -> dict:
    """One timed workload execution; returns the child's result."""
    out = WORK / f"result-{tag}-{os.getpid()}.json"
    cache_dir = None
    if WORKLOADS[workload].cache:
        cache_dir = WORK / f"cache-{tag}-{os.getpid()}"
        shutil.rmtree(cache_dir, ignore_errors=True)
    try:
        info = run_child(workload, seed, "run", trace, out, cache_dir)
        if info["returncode"] != 0 or not out.exists():
            raise SystemExit(f"{workload} run exited with code "
                             f"{info['returncode']}")
        result = json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    result.update(setup_s=info["setup_s"], peak_rss_mb=info["peak_rss_mb"])
    return result


def setup_probe(workload: str, seed: int, index: int) -> float:
    """Fresh interpreter -> constructed ``EdgeStudy``, in seconds."""
    cache_dir = None
    if WORKLOADS[workload].cache:
        cache_dir = WORK / f"setup-cache-{index}-{os.getpid()}"
    try:
        info = run_child(workload, seed, "setup", 0, None, cache_dir)
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    if info["returncode"] != 0 or info["setup_s"] is None:
        raise SystemExit(f"{workload} set-up exited with code "
                         f"{info['returncode']}")
    return info["setup_s"]


def report_digest(result: dict) -> str:
    """One digest over every rendered report's text digest."""
    joined = json.dumps(result["digests"], sort_keys=True)
    return hashlib.sha256(joined.encode()).hexdigest()


def source_digest() -> str:
    """Digest of the program and the workload definitions.

    Keys the digest ledger, so runs of different code or of a changed
    workload are never compared with each other.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [HERE / "workloads.py"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def repeat_check(workload: str, seed: int, digest: str) -> dict:
    """Reports must equal every earlier run of this workload and seed.

    The first run of a (workload, seed, source) triple records its
    digest in the checkout's ledger; later runs compare against it.
    """
    ledger_path = WORK / "digests.json"
    ledger = (json.loads(ledger_path.read_text())
              if ledger_path.exists() else {})
    key = f"{workload}:{seed}:{source_digest()}"
    recorded = ledger.setdefault(key, digest)
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    ok = recorded == digest
    return {"op": "check:report_repeat", "ok": ok,
            "error": None if ok else f"reports {digest} != earlier "
                                     f"{recorded}"}


def phase_times(result: dict) -> dict[str, float]:
    """The run's phase wall times by group, plus reports."""
    times = {f"phase_s.{group}": 0.0
             for group in dict.fromkeys(PHASE_GROUP.values())}
    for phase, seconds_taken in result["phase_s"].items():
        times[f"phase_s.{PHASE_GROUP[phase]}"] += seconds_taken
    times["phase_s.reports"] = result["reports_s"]
    return times


def emit(metrics: dict[str, tuple[float, str]], ops: list[dict],
         info: dict[str, float]) -> None:
    """Print the metric table, then the one-line JSON result.

    ``info`` rows (phase times) are printed with the table but are not
    part of the result's metrics.
    """
    failed = [op for op in ops if not op["ok"]]
    for op in ops:
        if "wall_s" in op:
            print(f"op {op['op']:<31} {op['wall_s']:>16.6f} s",
                  file=sys.stderr)
    for op in failed:
        print(f"FAILED {op['op']}: {op['error']}")
    for name, value in info.items():
        print(f"{name:<34} {value:>16.6f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>16.6f} {unit}")
    print(f"{'failed_ops_share':<34} {len(failed) / len(ops):>16.6f} ratio"
          f"  ({len(failed)} of {len(ops)} operations)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def end_to_end(workload: str, seed: int, seconds: float) -> None:
    """``--trace 0``: the end-to-end metrics, medians over repetitions."""
    setups = [setup_probe(workload, seed, i)
              for i in range(SETUP_SAMPLES - 1)]
    results = []
    measured = 0.0
    while not results or measured < seconds:
        result = run_workload(workload, seed, 0, f"e2e{len(results)}")
        results.append(result)
        measured += result["wall_s"]
        setups.append(result["setup_s"])
    ops = [op for result in results for op in result["ops"]]
    ops += [repeat_check(workload, seed, report_digest(result))
            for result in results]
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    phases = [phase_times(result) for result in results]
    info = {name: statistics.median(p[name] for p in phases)
            for name in phases[0] if any(p[name] for p in phases)}
    emit({name: (values[name], unit)
          for name, unit in declared_metrics("end_to_end").items()},
         ops, info)


def traced(workload: str, seed: int) -> None:
    """``--trace 1``: untraced then traced run; per-layer metrics."""
    plain = run_workload(workload, seed, 0, "plain")
    spans = run_workload(workload, seed, 1, "traced")
    ops = plain["ops"] + spans["ops"]
    same = report_digest(plain) == report_digest(spans)
    ops.append({"op": "check:report_equal_traced", "ok": same,
                "error": None if same else "traced reports differ"})
    ops.append(repeat_check(workload, seed, report_digest(plain)))
    layers = dict(spans["layers"], **phase_times(plain))
    layers["trace.overhead"] = spans["wall_s"] / plain["wall_s"] - 1.0
    emit({name: (layers[name], unit)
          for name, unit in declared_metrics("per_layer").items()},
         ops, {})


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one repro benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="least timed work per run; the workload "
                             "repeats until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    # Byte-compile up front so no timed set-up pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, env=clean_env(), stdout=subprocess.DEVNULL)
    if args.trace:
        traced(args.workload, args.seed)
    else:
        end_to_end(args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
