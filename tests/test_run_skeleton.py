"""Golden run skeletons of the asynchronous runtime.

The first ten entries were recorded from the envelope-heap transport that
the array transport replaced; the array transport must reproduce every one.
The three far entries, whose delay bounds of 127 and more pass the first
ring and so run the sweep, ring doubling and the deliveries it carries,
were recorded from the array transport at 873ecf8.  A
skeleton is the step count, the per-worker update counts, the completed
detection rounds, the stale detection messages dropped and a SHA-256 of
the envelope timing tuples (from, to, tag, inject, deliver, round, epoch).
Payload digests stay out of the hash: the reductions sum in a fixed
order, but the shares and pieces hold the bits of the dense interior
solve's BLAS GEMM, which can differ between CPUs.
"""

import hashlib
import json

import numpy as np
import pytest

from aschur import GridSpec, SchurSystem, assemble, partition
from aschur.runtime import AsyncSimulator, DelayModel, FaultEvent, FaultPlan, RuntimeConfig
from aschur.splitting import InterfaceSplitting


def uniform(high, reorder):
    return DelayModel(kind="uniform", low=0, high=high, reorder=reorder)


CONFIGS = {
    "2d-7x7-p4 uniform reorder": ("2d-7x7-p4", dict(seed=5, delay=uniform(6, True))),
    "1d-15-p4 uniform fifo": ("1d-15-p4", dict(seed=2, delay=uniform(6, False))),
    "3d-5x5x5-p8 uniform reorder": ("3d-5x5x5-p8", dict(seed=0, delay=uniform(10, True))),
    "2d-15x15-p8 uniform fifo": ("2d-15x15-p8", dict(seed=1, delay=uniform(10, False))),
    "1d-7-p2 fixed": ("1d-7-p2", dict(delay=DelayModel(kind="fixed", fixed=3))),
    "1d-7-p2 table": ("1d-7-p2", dict(delay=DelayModel(kind="table", table={(0, 1): 2, (1, 0): 5}))),
    "2d-13x13-p6 activation": ("2d-13x13-p6", dict(seed=3, activation=0.5, delay=uniform(5, True))),
    "2d-7x7-p4 step faults": ("2d-7x7-p4", dict(seed=1, delay=uniform(4, True), faults=FaultPlan(events=(
        FaultEvent(victims=(1,), at_step=30), FaultEvent(victims=(0, 2), at_step=55))))),
    "1d-15-p4 iteration fault": ("1d-15-p4", dict(seed=2, delay=uniform(5, False), faults=FaultPlan(events=(
        FaultEvent(victims=(3,), at_local_iteration=20),)))),
    "1d-6-p1": ("1d-6-p1", dict(seed=0, delay=uniform(3, True))),
    "1d-7-p2 far fixed": ("1d-7-p2", dict(delay=DelayModel(kind="fixed", fixed=200))),
    "2d-7x7-p4 far uniform faults": ("2d-7x7-p4", dict(seed=4, activation=0.6, delay=uniform(300, True), faults=FaultPlan(
        events=(FaultEvent(victims=(1,), at_step=150), FaultEvent(victims=(0, 2), at_step=400))))),
    "1d-7-p2 far uniform fifo": ("1d-7-p2", dict(seed=2, delay=uniform(200, False))),
}

# (sim_steps, per_worker_k, iterations_k, stale_discarded, envelope timing hash)
GOLDEN = {
    '2d-7x7-p4 uniform reorder': (232, [232, 232, 231, 231], 17, 0, '30b1cf5d62d25d24faf55fda529d3b380072a71bf406863aaf5c248bf3820f65'),
    '1d-15-p4 uniform fifo': (677, [677, 677, 677, 677], 49, 0, '082e9985d746fc4b62ad14fc784159c75ea98afb1c10d73ed89640731a15d22f'),
    '3d-5x5x5-p8 uniform reorder': (266, [266, 266, 266, 266, 266, 265, 265, 265], 12, 0, '5e83f0d37897428294df1c8259b31195bb98d5029d46af8fa9112504d59f92cb'),
    '2d-15x15-p8 uniform fifo': (1561, [1561, 1561, 1561, 1560, 1560, 1560, 1560, 1560], 69, 0, '5b0cb31ab2a6a81d6c6427ba6c2b760a1ae77aefc83ca821277db59f83f581ab'),
    '1d-7-p2 fixed': (153, [153, 152], 17, 0, 'a1cea67e236ec7c08e006c49ad6c06b4144680f62d7c75ecec1e416bf34be736'),
    '1d-7-p2 table': (170, [170, 169], 17, 0, '593361ad2ce763d9c44562ba473368aca5dc06b08a4a0a0c0e538470f82ccf90'),
    '2d-13x13-p6 activation': (775, [371, 382, 397, 390, 411, 394], 46, 0, '7674892c7790e83de0c4852e2153365248b249eb4e7687efae1cac603a1274ed'),
    '2d-7x7-p4 step faults': (241, [241, 241, 241, 240], 23, 3, '4eb336333c21a440b67a1502ca690ca7253f20db87c82dd9b25f4f18bf3203d0'),
    '1d-15-p4 iteration fault': (588, [588, 588, 588, 588], 48, 5, '43219621bfcba8679d610d143c7b37ce52b0aaba4f2c65663072abf475f18b3c'),
    '1d-6-p1': (1, [1], 1, 0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    '1d-7-p2 far fixed': (6448, [6448, 6447], 16, 0, 'c39cca7bdf9e1b6ec088a2cc4e8635dd675bda81c822588644e74e22da5f31fb'),
    '2d-7x7-p4 far uniform faults': (2900, [1771, 1733, 1752, 1762], 5, 6, '98c2f191586ea0a82e0eb21faec8efb33c523a9cd89b7fa74ba98a642a44f89b'),
    '1d-7-p2 far uniform fifo': (5888, [5888, 5888], 16, 0, '1e392d32860308f5018d0ae06c6eaeb78208f5430d8e7320c1aa0b357b17d8fb'),
}


def _system(suite, name):
    if name == "1d-6-p1":
        problem = assemble(GridSpec(dims=(6,)))
        return SchurSystem.build(problem, partition(problem, (1,))), InterfaceSplitting(alpha=1.0, m_diag=np.zeros(0))
    return suite[name].system, suite[name].split


@pytest.mark.parametrize("label", list(CONFIGS))
def test_run_skeleton_matches_the_recorded_transport(suite, label):
    name, settings = CONFIGS[label]
    system, split = _system(suite, name)
    sim = AsyncSimulator(system, split, RuntimeConfig(tol=1e-6, k_max=100_000, trace=True, **settings))
    x, report = sim.run()
    timing = [[r["from"], r["to"], r["tag"], r["inject"], r["deliver"], r["round"], r["epoch"]]
              for r in sim.trace if r["type"] == "envelope"]
    digest = hashlib.sha256(json.dumps(timing).encode()).hexdigest()
    assert report.converged
    assert report.stale_discarded == sim.stale_discarded
    got = (report.sim_steps, report.per_worker_k, report.iterations_k, report.stale_discarded, digest)
    assert got == GOLDEN[label]
