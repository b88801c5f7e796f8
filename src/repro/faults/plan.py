"""Seeded, deterministic fault plans.

A :class:`FaultPlan` is a list of :class:`FaultSpec` triggers consulted
at named *sites* threaded through the allocator, the resize engines and
the L2P budget.  Decisions are functions of (spec, per-spec opportunity
counter, per-spec forked RNG), so the same seed and the same sequence of
site consultations produce the same faults — and therefore the same
degradation-event log — on every run.  :meth:`FaultPlan.replicate`
returns a fresh plan with zeroed counters for re-running a sweep
deterministically.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.faults.log import EVENT_FAULT, DegradationLog
from repro.hashing.storage import ChunkBudget

#: Injection sites.
SITE_CONTIGUOUS_ALLOC = "contiguous_alloc"  # permanent contiguous-allocation failure
SITE_CHUNK_ALLOC = "chunk_alloc"            # transient (retryable) allocation failure
SITE_CUCKOO_KICKS = "cuckoo_kicks"          # insertion exceeds the re-insertion bound
SITE_L2P_RESERVE = "l2p_reserve"            # L2P subtable refuses a reservation

SITES = (
    SITE_CONTIGUOUS_ALLOC,
    SITE_CHUNK_ALLOC,
    SITE_CUCKOO_KICKS,
    SITE_L2P_RESERVE,
)


class FaultSpec:
    """One fault trigger.

    Parameters
    ----------
    site:
        One of :data:`SITES`.
    every:
        Deterministic mode: fire on every ``every``-th matching
        opportunity (1 = every opportunity).  Mutually exclusive with
        ``probability``.
    probability:
        Stochastic mode: fire with this probability per matching
        opportunity, drawn from the plan's seeded RNG (still
        deterministic for a fixed seed and call sequence).
    max_failures:
        Stop firing after this many faults (0 = unlimited).
    min_bytes:
        For allocation sites: only requests of at least this many
        (full-scale-equivalent) bytes are eligible.
    fmfi_above:
        For allocation sites: only fire when the machine FMFI exceeds
        this value (mirrors the paper's >0.7 failure rule).
    """

    __slots__ = ("site", "every", "probability", "max_failures", "min_bytes", "fmfi_above")

    def __init__(
        self,
        site: str,
        every: int = 0,
        probability: float = 0.0,
        max_failures: int = 0,
        min_bytes: int = 0,
        fmfi_above: float = -1.0,
    ) -> None:
        if site not in SITES:
            raise ConfigurationError(f"unknown fault site {site!r} (not in {SITES})")
        for name, value in (("every", every), ("max_failures", max_failures),
                            ("min_bytes", min_bytes)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"{name}={value!r} must be an integer count "
                    f"(got {type(value).__name__})"
                )
        if not isinstance(probability, (int, float)) or isinstance(probability, bool):
            raise ConfigurationError(
                f"probability={probability!r} must be a number in [0, 1] "
                f"(got {type(probability).__name__})"
            )
        if not isinstance(fmfi_above, (int, float)) or isinstance(fmfi_above, bool):
            raise ConfigurationError(
                f"fmfi_above={fmfi_above!r} must be a number "
                f"(got {type(fmfi_above).__name__})"
            )
        if every < 0:
            raise ConfigurationError(f"every={every} must be >= 0")
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(f"probability={probability} must be in [0, 1]")
        if (every > 0) == (probability > 0.0):
            raise ConfigurationError(
                "exactly one of every / probability must be set "
                f"(got every={every}, probability={probability})"
            )
        if max_failures < 0:
            raise ConfigurationError(f"max_failures={max_failures} must be >= 0")
        if min_bytes < 0:
            raise ConfigurationError(f"min_bytes={min_bytes} must be >= 0")
        if fmfi_above >= 1.0:
            raise ConfigurationError(
                f"fmfi_above={fmfi_above} can never fire — FMFI is always "
                f"< 1.0 (use a negative value to disable the guard)"
            )
        self.site = site
        self.every = every
        self.probability = probability
        self.max_failures = max_failures
        self.min_bytes = min_bytes
        self.fmfi_above = float(fmfi_above)

    def to_dict(self) -> dict:
        """JSON-safe form (the fuzz corpus embeds fault plans this way)."""
        return {
            "site": self.site,
            "every": self.every,
            "probability": self.probability,
            "max_failures": self.max_failures,
            "min_bytes": self.min_bytes,
            "fmfi_above": self.fmfi_above,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "FaultSpec":
        """Rebuild from :meth:`to_dict` output (full validation applies)."""
        if not isinstance(raw, dict):
            raise ConfigurationError(
                f"fault spec must be a dict, got {type(raw).__name__}"
            )
        unknown = set(raw) - {
            "site", "every", "probability", "max_failures", "min_bytes",
            "fmfi_above",
        }
        if unknown:
            raise ConfigurationError(
                f"unknown fault spec field(s) {sorted(unknown)}"
            )
        return cls(**raw)

    def __repr__(self) -> str:
        mode = f"every={self.every}" if self.every else f"probability={self.probability}"
        return (
            f"FaultSpec({self.site!r}, {mode}, max_failures={self.max_failures}, "
            f"min_bytes={self.min_bytes}, fmfi_above={self.fmfi_above})"
        )


class FaultPlan:
    """A seeded set of fault triggers with per-spec counters.

    ``decide(site, ...)`` counts one opportunity against every matching
    spec and returns the first spec that fires (or None).  Call sites
    translate a firing into their failure mode (raising a transient
    error, refusing a reservation, forcing an emergency resize).
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        self.specs: List[FaultSpec] = list(specs)
        for i, spec in enumerate(self.specs):
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(
                    f"specs[{i}]={spec!r} is not a FaultSpec "
                    f"(got {type(spec).__name__})"
                )
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigurationError(
                f"seed={seed!r} must be an integer (got {type(seed).__name__})"
            )
        self.seed = seed
        root = DeterministicRng(seed)
        self._rngs = [root.fork(salt=1000 + i) for i in range(len(self.specs))]
        self._opportunities = [0] * len(self.specs)
        self._fired = [0] * len(self.specs)

    def replicate(self) -> "FaultPlan":
        """A fresh plan with the same specs and seed, counters zeroed.

        Each simulation build replicates the configured plan so repeated
        builds of the same configuration see identical fault sequences.
        """
        return FaultPlan(self.specs, seed=self.seed)

    def decide(self, site: str, nbytes: int = 0, fmfi: float = 0.0) -> Optional[FaultSpec]:
        """Consult the plan at ``site``; return the firing spec or None."""
        for i, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            if nbytes < spec.min_bytes:
                continue
            if spec.fmfi_above >= 0.0 and fmfi <= spec.fmfi_above:
                continue
            if spec.max_failures and self._fired[i] >= spec.max_failures:
                continue
            self._opportunities[i] += 1
            if spec.every:
                fire = self._opportunities[i] % spec.every == 0
            else:
                fire = self._rngs[i].random() < spec.probability
            if fire:
                self._fired[i] += 1
                return spec
        return None

    def fired(self, site: Optional[str] = None) -> int:
        """Total faults fired (optionally restricted to one site)."""
        return sum(
            fired
            for spec, fired in zip(self.specs, self._fired)
            if site is None or spec.site == site
        )

    def opportunities(self, site: Optional[str] = None) -> int:
        return sum(
            count
            for spec, count in zip(self.specs, self._opportunities)
            if site is None or spec.site == site
        )

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, specs={self.specs!r})"


class FaultInjectedBudget(ChunkBudget):
    """A chunk budget that can refuse reservations on command.

    Wraps a real budget (typically an
    :class:`~repro.core.l2p.L2PSubtable`) and consults the fault plan's
    :data:`SITE_L2P_RESERVE` site before delegating.  A refused
    reservation looks exactly like L2P exhaustion, driving the caller
    down the chunk-size-transition / out-of-place path.
    """

    def __init__(
        self,
        inner: ChunkBudget,
        plan: FaultPlan,
        log: Optional[DegradationLog] = None,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.log = log

    def reserve(self, count: int) -> bool:
        if self.plan.decide(SITE_L2P_RESERVE) is not None:
            if self.log is not None:
                self.log.record(EVENT_FAULT, SITE_L2P_RESERVE, count=count)
            return False
        return self.inner.reserve(count)

    def release(self, count: int) -> None:
        self.inner.release(count)

    @property
    def in_use(self) -> int:
        """The wrapped budget's chunk pointers in use."""
        return self.inner.in_use
