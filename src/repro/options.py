"""The single run-behavior knob object: :class:`RunOptions`.

One frozen dataclass, accepted by :class:`repro.node.Node`,
:class:`repro.exec.RunRequest` and the runners, carries everything that
modulates how a simulation runs (docs/api.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigError

#: Engines a Node can run programs on (docs/performance.md).
ENGINES = ("event", "array")


@dataclass(frozen=True)
class RunOptions:
    """Everything that modulates *how* a simulation runs.

    With one deliberate exception — ``engine`` — none of these change the
    simulated latencies.

    ``data_movement``
        Actually move buffer bytes (numerical correctness checks need it;
        latency sweeps leave it off).
    ``observe``
        ``None``/``False`` | ``"spans"`` | ``True``/``"full"`` — span
        tracing and metrics (docs/observability.md).
    ``check``
        ``None``/``False`` | ``"race"`` | ``"deadlock"`` |
        ``True``/``"full"`` — the dynamic sanitizer (docs/checking.md).
    ``engine``
        ``"event"`` (default) — the per-event heap engine, the numeric
        reference. ``"array"`` — the vectorized array-mode engine
        (:class:`repro.sim.array_engine.ArrayEngine`): zero-decision
        pipeline segments are priced as numpy batches with bulk
        bandwidth-contention sampling. Array-mode latencies differ from
        the event engine by the documented approximations
        (docs/performance.md); the engine name is therefore part of the
        result-cache key (docs/api.md). Requires numpy (the ``[perf]``
        extra) and is incompatible with ``observe``/``check``.
    """

    data_movement: bool = True
    observe: "bool | str | None" = None
    check: "bool | str | None" = None
    engine: str = "event"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{'/'.join(ENGINES)}"
            )

    @property
    def instrumented(self) -> bool:
        """True when the run produces side artifacts (spans, findings)
        beyond a latency — such runs bypass the result cache, which
        stores latencies only."""
        return bool(self.observe) or bool(self.check)

    def with_(self, **changes) -> "RunOptions":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return replace(self, **changes)


#: The do-nothing default: data moves, nothing is instrumented.
DEFAULT_OPTIONS = RunOptions()
