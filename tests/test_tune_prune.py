"""Analytic pruning + the end-to-end tuning loop.

The load-bearing property: on a small grid the pruner must never discard
the candidate the simulator would have crowned — otherwise tuned tables
silently encode the analytic model's blind spots.
"""

import pytest

from repro.exec.cache import ResultCache
from repro.memory.model import model_for
from repro.topology import get_system
from repro.tune import Evaluator, estimate_cost, prune, tune
from repro.tune.evaluate import (QUICK_ITERS, measurement_request,
                                 simulate_payload)
from repro.tune.space import PAPER_DEFAULT
from repro.tune.table import DecisionTable
from repro.xhc import XhcConfig

NRANKS = 16
SIZE = 65536

GRID = [
    PAPER_DEFAULT,
    XhcConfig(hierarchy="flat"),
    XhcConfig(hierarchy="numa"),
    XhcConfig(hierarchy="l3+numa"),
    XhcConfig(hierarchy="numa", chunk_size=16384),
    XhcConfig(hierarchy="l3+numa", chunk_size=16384),
    XhcConfig(hierarchy="numa+socket", chunk_size=65536),
]


def simulate(cfg, system="epyc-1p", collective="bcast"):
    return simulate_payload(measurement_request(
        system, collective, SIZE, NRANKS, cfg, QUICK_ITERS).payload())


@pytest.mark.parametrize("collective", ["bcast", "allreduce"])
def test_prune_keeps_simulated_optimum(collective):
    topo = get_system("epyc-1p")
    model = model_for(topo)
    grid = [c for c in GRID if "socket" not in c.hierarchy]  # 1P machine
    survivors = prune(grid, topo, model, collective, SIZE, NRANKS,
                      always_keep=(PAPER_DEFAULT,))
    sim = {cfg: simulate(cfg, collective=collective) for cfg in grid}
    optimum = min(sim, key=sim.get)
    assert optimum in survivors, (
        f"pruner discarded simulated optimum {optimum} "
        f"({sim[optimum] * 1e6:.2f}us)")


def test_estimates_are_positive_and_finite():
    for system in ("epyc-1p", "epyc-2p", "arm-n1"):
        topo = get_system(system)
        model = model_for(topo)
        for cfg in (PAPER_DEFAULT, XhcConfig(hierarchy="flat")):
            for collective in ("bcast", "allreduce"):
                for size in (64, 4096, 1048576):
                    est = estimate_cost(topo, model, cfg, collective, size,
                                        topo.n_cores)
                    assert 0 < est < 1.0


def test_prune_margin_and_keep_caps():
    topo = get_system("epyc-2p")
    model = model_for(topo)
    survivors = prune(GRID, topo, model, "bcast", SIZE, NRANKS, keep=2)
    assert len(survivors) <= 2
    everything = prune(GRID, topo, model, "bcast", SIZE, NRANKS,
                       margin=1e9, keep=None)
    assert len(everything) == len(GRID)


def test_evaluator_budget_and_cache():
    cache = ResultCache()
    ev = Evaluator(cache=cache, workers=0, budget=2)
    grid = GRID[:4]
    scores = ev.evaluate("epyc-1p", "bcast", 1024, 8, grid,
                         iters=QUICK_ITERS)
    assert len(scores) == 2 and ev.simulations == 2
    assert ev.budget_left == 0
    # Cached entries stay free even with the budget exhausted.
    again = ev.evaluate("epyc-1p", "bcast", 1024, 8, grid,
                        iters=QUICK_ITERS)
    assert set(again) == set(scores)
    assert ev.simulations == 2


def test_tune_end_to_end_never_loses_to_default(tmp_path):
    cache = ResultCache(tmp_path / "cache.json")
    result = tune(systems=("epyc-1p",), collectives=("bcast",),
                  sizes=(1024, SIZE), quick=True, nranks=NRANKS,
                  workers=0, cache=cache)
    assert len(result.table) == 2
    for point in result.points:
        assert point.best_s is not None
        assert point.best_s <= point.baseline_s  # the acceptance criterion
        assert result.table.lookup(point.system, point.collective,
                                   point.size) == point.best_config
    assert result.simulations > 0

    # Warm-cache re-tune: identical decisions, zero new simulations.
    warm = tune(systems=("epyc-1p",), collectives=("bcast",),
                sizes=(1024, SIZE), quick=True, nranks=NRANKS,
                workers=0, cache=ResultCache(tmp_path / "cache.json"))
    assert warm.simulations == 0
    assert warm.cache_hit_rate == 1.0
    assert warm.table.to_json() == result.table.to_json()


def test_tune_resume_skips_decided_cells():
    table = DecisionTable()
    table.record("epyc-1p", "bcast", 1024, PAPER_DEFAULT, 1e-6)
    result = tune(systems=("epyc-1p",), collectives=("bcast",),
                  sizes=(1024,), quick=True, nranks=NRANKS, workers=0,
                  table=table, resume=True)
    assert result.simulations == 0
    assert result.points[0].skipped
