"""Instance leasing: strict accounting for warm-pool microVMs.

The serve control plane (:mod:`repro.serve`) stops booting inline per
request and instead *leases* pre-provisioned instances out of warm pools.
Real control planes get this accounting wrong in exciting ways (an
instance handed to two invocations, an instance serving after it was
reclaimed), so the registry makes every transition explicit and every
illegal one a typed error:

``register`` (provisioned) -> ``lease`` (serving exactly one request)
-> ``release`` (request done) -> ``retire`` (instance destroyed).

Retire may also follow ``register`` directly (scale-down of an idle warm
instance).  Double-leasing, leasing an unknown or retired instance, and
releasing an instance that is not leased all raise
:class:`~repro.errors.MonitorError` — the pool invariant tests pin each
of these.  The registry is the single source of truth the serve pool
builds on; it never forgets an id, so post-run audits can check that
every registered instance ended retired and no lease outlived the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MonitorError

__all__ = ["InstanceLease", "LeaseRegistry"]


@dataclass(frozen=True)
class InstanceLease:
    """One granted lease: which instance, and when it was handed out."""

    instance_id: int
    leased_at_ns: int


@dataclass
class LeaseRegistry:
    """Lifecycle accounting for every instance a pool ever produced."""

    _known: set[int] = field(default_factory=set)
    _active: dict[int, InstanceLease] = field(default_factory=dict)
    _retired: set[int] = field(default_factory=set)
    #: total leases granted over the registry's lifetime
    leases_granted: int = 0
    #: high-water mark of simultaneously active leases
    peak_active: int = 0

    # -- transitions -----------------------------------------------------------

    def register(self, instance_id: int) -> None:
        """A freshly provisioned instance enters the accounting."""
        if instance_id in self._known:
            raise MonitorError(
                f"instance {instance_id} registered twice; ids must be unique"
            )
        self._known.add(instance_id)

    def lease(self, instance_id: int, now_ns: int) -> InstanceLease:
        """Hand the instance to exactly one request."""
        if instance_id not in self._known:
            raise MonitorError(f"cannot lease unknown instance {instance_id}")
        if instance_id in self._retired:
            raise MonitorError(f"cannot lease retired instance {instance_id}")
        if instance_id in self._active:
            raise MonitorError(
                f"instance {instance_id} is already leased; "
                "an instance serves exactly one request at a time"
            )
        lease = InstanceLease(instance_id=instance_id, leased_at_ns=now_ns)
        self._active[instance_id] = lease
        self.leases_granted += 1
        self.peak_active = max(self.peak_active, len(self._active))
        return lease

    def release(self, instance_id: int) -> None:
        """The leased request completed; the instance is reclaimable."""
        if instance_id not in self._active:
            raise MonitorError(
                f"cannot release instance {instance_id}: it holds no lease"
            )
        del self._active[instance_id]

    def retire(self, instance_id: int) -> None:
        """Destroy the instance (post-invocation teardown or scale-down)."""
        if instance_id not in self._known:
            raise MonitorError(f"cannot retire unknown instance {instance_id}")
        if instance_id in self._active:
            raise MonitorError(
                f"cannot retire instance {instance_id} while it is leased"
            )
        if instance_id in self._retired:
            raise MonitorError(f"instance {instance_id} already retired")
        self._retired.add(instance_id)

    # -- audits ----------------------------------------------------------------

    def audit_drained(self) -> None:
        """Post-run check: every instance retired, no lease left active."""
        if self._active:
            held = sorted(self._active)
            raise MonitorError(
                f"leases still active after drain: instances {held}"
            )
        leaked = self._known - self._retired
        if leaked:
            raise MonitorError(
                f"instances never retired: {sorted(leaked)}"
            )
