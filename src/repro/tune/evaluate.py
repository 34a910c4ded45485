"""Candidate evaluation on top of the shared executor.

Each candidate runs the same OSU-style measurement the benchmarks use, as
a :class:`~repro.exec.RunRequest` through :class:`~repro.exec.Executor` —
so tuned numbers are directly comparable with every figure the repo
regenerates, and tuning shares the one content-addressed
:class:`~repro.exec.ResultCache` with every other entry point.
"""

from __future__ import annotations

from ..exec.cache import ResultCache
from ..exec.executor import Executor
from ..exec.request import RunRequest
from ..xhc.config import XhcConfig
from .space import config_from_dict, config_to_dict

EVAL_ITERS = dict(warmup=1, iters=3)
QUICK_ITERS = dict(warmup=1, iters=2)


def measurement_request(system: str, collective: str, size: int, nranks: int,
                        cfg: XhcConfig, iters: dict) -> RunRequest:
    """The candidate's measurement as an executor request."""
    return RunRequest(system=system, collective=collective, size=size,
                      nranks=nranks, component="xhc",
                      config=config_to_dict(cfg), **iters)


def simulate_payload(payload: dict) -> float:
    """Run one measurement described by a request payload (inline)."""
    from ..exec.worker import execute
    request = RunRequest(
        system=payload["system"], collective=payload["collective"],
        size=payload["size"], nranks=payload["nranks"],
        component=payload.get("component", "xhc"),
        config=config_to_dict(config_from_dict(payload["config"])),
        warmup=payload["warmup"], iters=payload["iters"],
        modify=payload.get("modify", True),
        mapping=payload.get("mapping", "core"),
        root=payload.get("root", 0),
    )
    result = execute(request)
    if result.latency_s is None:
        raise RuntimeError(f"simulation failed: {result.error}")
    return result.latency_s


class BudgetExhausted(RuntimeError):
    """Raised internally when the simulation budget hits zero."""


class Evaluator:
    """Cached, optionally-parallel scoring of candidate configs.

    A thin adapter that phrases candidates as run requests and delegates
    scheduling to :class:`~repro.exec.Executor`. ``workers=0`` evaluates
    inline (tests, deterministic debugging); ``workers=None`` picks a
    process count from the CPU. ``budget`` caps the number of *new*
    simulations across the evaluator's lifetime — cached results are
    always free.
    """

    def __init__(self, cache: ResultCache | None = None,
                 workers: int | None = None,
                 budget: int | None = None) -> None:
        self.executor = Executor(workers=workers, cache=cache, budget=budget)

    @property
    def cache(self) -> ResultCache:
        return self.executor.cache

    @property
    def workers(self) -> int | None:
        return self.executor.workers

    @property
    def budget(self) -> int | None:
        return self.executor.budget

    @property
    def simulations(self) -> int:
        return self.executor.simulations

    @property
    def budget_left(self) -> int | None:
        return self.executor.budget_left

    def close(self) -> None:
        """Shut the executor's worker pool down and persist the cache."""
        self.executor.close()

    def evaluate(self, system: str, collective: str, size: int, nranks: int,
                 configs: list[XhcConfig], *,
                 iters: dict = EVAL_ITERS) -> dict[XhcConfig, float]:
        """Latency per config; silently drops configs past the budget."""
        requests = [
            measurement_request(system, collective, size, nranks, cfg, iters)
            for cfg in configs
        ]
        results: dict[XhcConfig, float] = {}
        for cfg, result in zip(configs, self.executor.run_many(requests)):
            if result is not None and result.latency_s is not None:
                results[cfg] = result.latency_s
        return results
