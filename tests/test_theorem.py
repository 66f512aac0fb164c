"""The convergence theorem as a property: on random small boxes, splits and
schedules, ``rho_async < 1`` means the asynchronous run converges, under any
bounded delay with or without reordering, partial activation and reset faults,
and it stops only on a firing that the exact residual confirms."""

import itertools
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aschur import (
    DelayModel,
    FaultEvent,
    FaultPlan,
    GridSpec,
    RuntimeConfig,
    SchurSystem,
    assemble,
    async_solve,
    build_splitting,
    certify_async,
    interface_diagonal,
    partition,
)

MAX_UNKNOWNS = 400
# Steps grow with p, the delays and 1 / (1 - rho_async), which nears 1 on long boxes and thin
# strips (0.9958 on 91/8 took 34k steps, 0.978 on 19x16/7x1 5k); with these caps the 100
# examples take about 5 s on one core.
MAX_EXTENT = 24
MAX_P = 6
MAX_DELAY = 4
TOL = 1e-6

# Derandomized, so that tier-1 draws the same 100 examples on every run.
THEOREM = settings(max_examples=100, derandomize=True, database=None, deadline=None, print_blob=True,
                   suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@st.composite
def boxes(draw):
    """Extents of a box with 1-3 axes, each at most MAX_EXTENT, and at most MAX_UNKNOWNS nodes,
    and valid split counts giving at most MAX_P subdomains."""
    dims, splits = [], []
    for _ in range(draw(st.integers(1, 3))):
        dims.append(draw(st.integers(1, min(MAX_EXTENT, MAX_UNKNOWNS // math.prod(dims)))))
        splits.append(draw(st.integers(1, min((dims[-1] + 1) // 2, MAX_P // math.prod(splits)))))
    return tuple(dims), tuple(splits)


@st.composite
def delays(draw, p):
    kind = draw(st.sampled_from(["uniform", "fixed", "table"]))
    reorder = draw(st.booleans())
    if kind == "uniform":
        low = draw(st.integers(0, MAX_DELAY))
        return DelayModel(kind=kind, low=low, high=draw(st.integers(low, MAX_DELAY)), reorder=reorder)
    if kind == "fixed":
        return DelayModel(kind=kind, fixed=draw(st.integers(0, MAX_DELAY)), reorder=reorder)
    links = [(i, j) for i, j in itertools.product(range(p), repeat=2) if i != j]
    table = {link: draw(st.integers(0, MAX_DELAY)) for link in links}
    return DelayModel(kind=kind, table=table, reorder=reorder)


@st.composite
def faults(draw, p):
    events = []
    for _ in range(draw(st.integers(0, 3))):
        victims = tuple(draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=p, unique=True)))
        if draw(st.booleans()):
            events.append(FaultEvent(victims=victims, at_step=draw(st.integers(0, 300))))
        else:
            events.append(FaultEvent(victims=victims, at_local_iteration=draw(st.integers(0, 100))))
    by_step = sorted((e for e in events if e.at_step is not None), key=lambda e: e.at_step)
    by_count = sorted((e for e in events if e.at_step is None), key=lambda e: e.at_local_iteration)
    return FaultPlan(events=tuple(by_step + by_count))


@THEOREM
@given(data=st.data())
def test_rho_async_below_one_means_confirmed_convergence(data):
    dims, splits = data.draw(boxes(), label="box")
    problem = assemble(GridSpec(dims=dims))
    decomp = partition(problem, splits)
    system = SchurSystem.build(problem, decomp)
    split = build_splitting(interface_diagonal(problem, decomp), alpha=data.draw(st.floats(1.0, 2.0), label="alpha"))
    p = system.p
    cfg = RuntimeConfig(
        tol=TOL, k_max=100_000, seed=data.draw(st.integers(0, 2**16), label="seed"),
        activation=data.draw(st.floats(0.0, 1.0, exclude_min=True), label="activation"),
        delay=data.draw(delays(p), label="delay"), faults=data.draw(faults(p), label="faults"),
    )
    if certify_async(system.subdomains, system.imap, split) >= 1.0:
        return
    _, report = async_solve(system, split, cfg)
    assert report.status == "converged" and report.converged, report.status
    assert report.final_residual <= TOL, report.final_residual
    # A firing ends the run only when the exact residual confirms it: the last
    # one is confirmed, and every earlier (premature) one was not taken.
    *premature, (value, exact) = report.detection_events
    assert value <= TOL and exact <= TOL and report.detection_residual == value
    assert all(v <= TOL < e for v, e in premature), premature
