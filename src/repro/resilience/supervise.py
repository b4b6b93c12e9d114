"""Supervision knobs of the one worker pool in :mod:`repro.parallel`.

A :class:`SupervisionConfig` bundles the watchdog timeouts with the
job-level :class:`~repro.resilience.retry.RetryPolicy`.  Both fronts of
the pool read it: :func:`~repro.parallel.run_series_jobs` (series
blocks; it also accepts an explicit config) and
:class:`~repro.parallel.TaskFarm` (sweep cells and QoE chunks, always
:meth:`SupervisionConfig.from_env`).  The defaults are deliberately
generous — a paper-scale series job renders in seconds, a city-scale
sweep cell in minutes, so the stock timeouts only ever catch genuinely
wedged workers — and every knob has an environment override so chaos
probes and constrained CI hosts can tighten them without threading
parameters through the study stack.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from .retry import RetryPolicy

#: Environment overrides (floats, seconds / int, attempts).
JOB_TIMEOUT_ENV = "REPRO_JOB_TIMEOUT_S"
HEARTBEAT_TIMEOUT_ENV = "REPRO_HEARTBEAT_TIMEOUT_S"
MAX_ATTEMPTS_ENV = "REPRO_JOB_ATTEMPTS"

#: Stock limits: a series job at city scale renders well under this.
DEFAULT_JOB_TIMEOUT_S = 900.0
DEFAULT_HEARTBEAT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class SupervisionConfig:
    """Watchdog limits plus the per-job retry policy."""

    #: Wall-clock budget for one job attempt; longer means the worker
    #: is killed and the job retried.  ``None`` disables the check.
    job_timeout_s: float | None = DEFAULT_JOB_TIMEOUT_S
    #: Maximum heartbeat staleness before a worker counts as wedged.
    #: ``None`` disables the check.
    heartbeat_timeout_s: float | None = DEFAULT_HEARTBEAT_TIMEOUT_S
    #: Per-job retry budget (attempt 1 = first dispatch).
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        for name in ("job_timeout_s", "heartbeat_timeout_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"{name} must be positive or None, got {value}")

    @classmethod
    def from_env(cls) -> "SupervisionConfig":
        """The stock config with any environment overrides applied."""
        kwargs: dict[str, object] = {}
        job_timeout = os.environ.get(JOB_TIMEOUT_ENV)
        if job_timeout:
            kwargs["job_timeout_s"] = _positive_or_none(
                JOB_TIMEOUT_ENV, job_timeout)
        heartbeat = os.environ.get(HEARTBEAT_TIMEOUT_ENV)
        if heartbeat:
            kwargs["heartbeat_timeout_s"] = _positive_or_none(
                HEARTBEAT_TIMEOUT_ENV, heartbeat)
        attempts = os.environ.get(MAX_ATTEMPTS_ENV)
        if attempts:
            try:
                kwargs["retry"] = RetryPolicy(max_attempts=int(attempts))
            except ValueError:
                raise ConfigurationError(
                    f"{MAX_ATTEMPTS_ENV} must be an integer, "
                    f"got {attempts!r}") from None
        return cls(**kwargs)


def _positive_or_none(name: str, raw: str) -> float | None:
    """Parse an env override: a positive float, or 0/'off' to disable."""
    if raw.strip().lower() in ("off", "none"):
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be a number (seconds) or 'off', "
            f"got {raw!r}") from None
    if value == 0:
        return None
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
    return value
