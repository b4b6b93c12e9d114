"""One workload run in a fresh interpreter (started by ``run.py``).

Usage::

    python3 perfbench/child.py --workload NAME --seed N --mode run|setup
        --trace 0|1 --out RESULT.json [--cache-dir DIR]

``--mode setup`` stops once the :class:`repro.study.EdgeStudy` is
constructed; ``--mode run`` then builds the workload's phases in their
fixed order, renders its reports, runs the correctness checks outside
the timed region and writes one JSON result to ``--out``.

Progress markers go to stdout as ``@@<name> <json>`` lines, so the
parent can time set-up from outside the interpreter and sample the
process tree's memory only while the workload is timed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import hooks  # noqa: E402  (benchmark-side capture hooks and spans)
from workloads import WORKLOADS  # noqa: E402

def marker(name: str, **fields: object) -> None:
    """Tell the parent where the run is; one flushed stdout line."""
    sys.stdout.write(f"@@{name} {json.dumps(fields)}\n")
    sys.stdout.flush()


def vm_hwm_mb() -> float:
    """This process's peak resident set (VmHWM), in MiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def build_study(workload, seed: int, cache_dir: str | None):
    """Scenario, cache and journal -> a constructed ``EdgeStudy``."""
    from repro.cache import ArtifactCache
    from repro.obs import RunJournal
    from repro.study import EdgeStudy

    journal = RunJournal(None)
    cache = ArtifactCache(cache_dir) if cache_dir else None
    return EdgeStudy(workload.scenario(seed), jobs=workload.jobs,
                     cache=cache, journal=journal,
                     streaming=workload.streaming)


def run_timed(study, workload, recorder) -> dict:
    """Build the phases in order, then render the reports; all timed."""
    from repro.reports import REPORTS

    ops: list[dict] = []
    phase_s: dict[str, float] = {}
    digests: dict[str, str] = {}
    begin = time.perf_counter()
    for name in workload.phases:
        start = time.perf_counter()
        error = None
        with recorder.span(f"phase.{name}"):
            try:
                getattr(study, name)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        phase_s[name] = elapsed
        ops.append({"op": f"phase:{name}", "ok": error is None,
                    "error": error, "wall_s": elapsed})
    built = time.perf_counter()
    for name in workload.reports:
        start = time.perf_counter()
        error = None
        with recorder.span(f"report.{name}"):
            try:
                text = REPORTS[name](study)
                digests[name] = hashlib.sha256(text.encode()).hexdigest()
            except Exception as exc:  # noqa: BLE001 - counted as failed
                error = f"{type(exc).__name__}: {exc}"
        ops.append({"op": f"report:{name}", "ok": error is None,
                    "error": error, "wall_s": time.perf_counter() - start})
    end = time.perf_counter()
    return {
        "wall_s": end - begin,
        "reports_s": end - built,
        "phase_s": phase_s,
        "digests": digests,
        "ops": ops,
        "region": (begin, end),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--cache-dir")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    captured = hooks.install_capture()
    recorder = hooks.install_tracing() if args.trace else hooks.NullRecorder()
    study = build_study(workload, args.seed, args.cache_dir)
    marker("ready")
    if args.mode == "setup":
        return 0

    marker("timed_begin")
    timed = run_timed(study, workload, recorder)
    recorder.stop()
    marker("timed_end", hwm_mb=vm_hwm_mb())

    import checks

    check_ops = checks.run_checks(study, workload, captured, args.seed)
    result = {
        "wall_s": timed["wall_s"],
        "reports_s": timed["reports_s"],
        "phase_s": timed["phase_s"],
        "digests": timed["digests"],
        "ops": timed["ops"] + check_ops,
    }
    if args.trace:
        result["layers"] = hooks.layer_metrics(
            recorder, study, captured, timed["region"])
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
