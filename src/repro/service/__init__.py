"""BIST-as-a-service: the crash-tolerant job layer under every sweep.

The paper's programmable controllers exist to keep memory testing
dependable in the field; this package keeps the *harness* dependable at
the same standard.  :mod:`~repro.service.engine` is the resilient
worker pool (timeouts, bounded retry with deterministic backoff, crash
quarantine, serial degradation), :mod:`~repro.service.store` the
content-hashed result cache that makes sweeps resumable and reruns
cheap, and :mod:`~repro.service.chaos` the deterministic
fault-injection harness for the service itself.  See ``docs/SERVICE.md``.
"""

from repro.service.chaos import (
    BEHAVIOURS,
    ChaosError,
    ChaosPlan,
    corrupt_store_entry,
)
from repro.service.engine import (
    EngineReport,
    Job,
    JobEngine,
    JobOutcome,
    JobsInterrupted,
    RetryPolicy,
    ServiceError,
)
from repro.service.store import (
    ResultStore,
    StoreKey,
    canonical_json,
    code_version,
    payload_digest,
)

__all__ = [
    "BEHAVIOURS",
    "ChaosError",
    "ChaosPlan",
    "EngineReport",
    "Job",
    "JobEngine",
    "JobOutcome",
    "JobsInterrupted",
    "ResultStore",
    "RetryPolicy",
    "ServiceError",
    "StoreKey",
    "canonical_json",
    "code_version",
    "corrupt_store_entry",
    "payload_digest",
]
