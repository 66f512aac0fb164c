"""Simulated asynchronous cluster: one worker per subdomain, message
channels with configurable delay and reordering, non-blocking convergence
detection and fault injection.

A virtual-time scheduler steps the workers: messages injected at step t
are deliverable from step t + 1 + delay, which is the bounded-delay model
of asynchronous iterations with arbitrary reordering.  Every draw comes
from seeded generators, so equal seeds reproduce runs bit for bit.
Uniform delays come from the same seeded stream as one draw per message,
drawn in blocks.

One step runs in three parts, since the workers active in it never see
each other's output: each ingests its due messages and merges the latest
neighbor shares; one batched update over the stacked local space
(``SchurSystem.local_space``, one gather of A) solves every interior with
the one interior factorization, forms each new local share (identity share
plus the scaled local interface defect) and, when a worker starts a
detection round, the residual pieces at the new shares; then, in
activation order, each commits its share, publishes it to its neighbors
and advances the three-phase detection machine of ``_WorkerState``:

* phase 0: capture the local residual, start a non-blocking interface
  residual exchange with the neighbors;
* phase 1: once all neighbor pieces for the current round arrived, start a
  non-blocking global sum of the weighted residual squares;
* phase 2: once the sum is complete, compare its square root to the
  tolerance and open the next round.

Workers never block on any phase.  A firing counts as convergence only
once the exact residual, recomputed from the assembled interface vector,
confirms it.

A fault resets the victim's interface share and communication buffers to
their initial state and drops its in-flight messages; the interior
factorization is kept.  Step faults apply at the start of their step;
iteration faults at the end of the step in which a victim reaches the
count.  Detection rounds in flight are invalidated conservatively: a
global epoch counter stamps every detection message, faults bump it, and
stale contributions are discarded on arrival.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import logging
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .solvers import (
    DIVERGENCE_LIMIT,
    SchurSystem,
    SolveReport,
    _check_tol,
    _check_victims,
    _restarted_cg,
    _start_vector,
    global_residual,
)

__all__ = [
    "DelayModel",
    "FaultEvent",
    "FaultPlan",
    "Envelope",
    "RuntimeConfig",
    "AsyncSimulator",
    "ReplayResult",
    "async_solve",
    "cg_with_restart",
    "deterministic_replay",
]

DETECTION_SLACK = 2.0
DELAY_BLOCK = 1024
DELAY_MAX = 2**63 - 1  # the largest bound Generator.integers takes

log = logging.getLogger("aschur.runtime")

TAG_DATA = "data"
TAG_RESIDUAL = "residual-sync"
TAG_REDUCTION = "reduction"


@dataclass(frozen=True)
class DelayModel:
    """Message delay distribution in whole scheduler steps.

    ``zero`` and ``fixed`` are deterministic; ``uniform`` draws from the
    closed range [low, high]; ``table`` reads a fixed per-link value.  With
    ``reorder`` unset, deliveries on each directed link keep send order.
    """

    kind: str = "zero"
    fixed: int = 0
    low: int = 0
    high: int = 0
    table: dict | None = None
    reorder: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("zero", "fixed", "uniform", "table"):
            raise ValueError(f"unknown delay kind {self.kind!r}")
        if self.fixed < 0 or self.low < 0 or not self.low <= self.high <= DELAY_MAX:
            raise ValueError(f"delay bounds must satisfy 0 <= low <= high <= {DELAY_MAX}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.kind == "table":
            if self.table is None:
                raise ValueError("table delays need a table")
            if any(v < 0 for v in self.table.values()):
                raise ValueError("table delays must be nonnegative")

    @property
    def bound(self) -> int:
        if self.kind == "fixed":
            return self.fixed
        if self.kind == "uniform":
            return self.high
        if self.kind == "table" and self.table:
            return max(self.table.values())
        return 0

    def sampler(self, rng: np.random.Generator):
        """Per-message delay function ``(src, dst) -> steps``.  Uniform delays
        are drawn ``DELAY_BLOCK`` at a time: the same stream as one scalar
        ``rng.integers(low, high, endpoint=True)`` per call."""
        if self.kind == "uniform":
            blocks = iter(lambda: rng.integers(self.low, self.high, endpoint=True, size=DELAY_BLOCK).tolist(), None)
            draws = itertools.chain.from_iterable(blocks)
            return lambda src, dst: next(draws)
        if self.kind == "table":
            return lambda src, dst: int(self.table.get((src, dst), 0))
        delay = self.fixed if self.kind == "fixed" else 0
        return lambda src, dst: delay


@dataclass(frozen=True)
class FaultEvent:
    """Reset of one or more workers, triggered by sim time or local count."""

    victims: tuple[int, ...]
    at_step: int | None = None
    at_local_iteration: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "victims", tuple(int(v) for v in self.victims))
        if not self.victims:
            raise ValueError("a fault event needs at least one victim")
        if min(self.victims) < 0:
            raise ValueError(f"fault victim {min(self.victims)} must be nonnegative")
        if (self.at_step is None) == (self.at_local_iteration is None):
            raise ValueError("exactly one of at_step / at_local_iteration must be set")


@dataclass(frozen=True)
class FaultPlan:
    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        steps = [e.at_step for e in self.events if e.at_step is not None]
        iters = [e.at_local_iteration for e in self.events if e.at_local_iteration is not None]
        if steps != sorted(steps) or iters != sorted(iters):
            raise ValueError("fault events must be time-ordered")


@dataclass(slots=True)
class Envelope:
    """One message: interface share, residual piece or reduction scalar."""

    src: int
    dst: int
    tag: str
    payload: object
    inject_step: int
    deliver_step: int
    round: int = -1
    epoch: int = 0
    seq: int = 0


@dataclass(frozen=True)
class RuntimeConfig:
    tol: float = 1e-6
    k_max: int = 10_000
    delay: DelayModel = field(default_factory=DelayModel)
    faults: FaultPlan = field(default_factory=FaultPlan)
    seed: int = 0
    activation: float = 1.0
    step_limit: int | None = None
    record_trajectory: bool = False
    trace: bool = False

    def __post_init__(self):
        # Each message starts with the field name; the CLI maps it to a key path.
        _check_tol(self.tol)
        if self.k_max < 1:
            raise ValueError(f"k_max must be at least 1, got {self.k_max}")
        if not 0.0 <= self.activation <= 1.0:
            raise ValueError(f"activation must lie in [0, 1], got {self.activation}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def _payload_digest(payload) -> str:
    if isinstance(payload, np.ndarray):
        return hashlib.sha1(np.ascontiguousarray(payload).tobytes()).hexdigest()[:16]
    return hashlib.sha1(np.float64(payload).tobytes()).hexdigest()[:16]


class _WorkerState:
    """One worker's receive rule, neighbour-merge state and detection machine.

    ``y_own`` and ``nbr_sum`` are views of the worker's slots in the
    simulator's stacked share and neighbour-sum vectors.
    """

    __slots__ = (
        "idx", "slots", "w", "x0_l", "y_own", "neighbors", "init_nbr", "nbr_y", "nbr_pos", "nbr_sum",
        "k_local", "phase", "round", "rs_have", "red_have", "r_own_G", "r_own_I_sq", "rounds_done", "done",
    )

    def __init__(self, idx: int, slots: slice, sim: "AsyncSimulator"):
        self.idx = idx
        self.slots = slots
        self.w = sim.space.weights[slots]
        self.x0_l = sim.x0[sim.space.positions[slots]]
        self.y_own = sim.y[slots]
        self.nbr_sum = sim.nbr[slots]
        self.neighbors = []  # (j, idx_into_my_slots)
        self.init_nbr = {}
        self.k_local = 0
        self.round = 0
        self.rounds_done = 0
        self.done = False

    def attach_neighbors(self, imap, w_global, x0):
        i = self.idx
        gpos = imap.gamma_positions[i]
        for j in imap.neighbors[i]:
            shared = imap.shared_positions(i, j)
            self.neighbors.append((j, np.searchsorted(gpos, shared)))
            self.init_nbr[j] = w_global[shared] * x0[shared]
        self.nbr_pos = np.array([k for _, my_idx in self.neighbors for k in my_idx], dtype=np.intp)
        self.reset_state()

    def reset_state(self):
        self.y_own[:] = self.w * self.x0_l
        self.nbr_y = {j: (-1, payload.copy()) for j, payload in self.init_nbr.items()}
        self.phase = 0
        self.rs_have = {}
        self.red_have = {}
        self.r_own_G = None
        self.r_own_I_sq = 0.0

    def receive(self, env: Envelope) -> None:
        """Keep the newest share per neighbor; file detection pieces by round."""
        if env.tag == TAG_DATA:
            cur = self.nbr_y.get(env.src)
            if cur is None or env.inject_step > cur[0]:
                self.nbr_y[env.src] = (env.inject_step, env.payload)
        elif env.tag == TAG_RESIDUAL:
            self.rs_have.setdefault(env.round, {})[env.src] = env.payload
        else:
            self.red_have.setdefault(env.round, {})[env.src] = env.payload

    def merge(self) -> None:
        """Sum the latest neighbour shares into ``nbr_sum``.  bincount adds in input
        order: each entry sums the neighbours in list order from 0.0."""
        if self.neighbors:
            shares = np.concatenate([self.nbr_y[j][1] for j, _ in self.neighbors])
            self.nbr_sum[:] = np.bincount(self.nbr_pos, shares, len(self.nbr_sum))

    def detect(self, send, p: int, r_I_sq, r_G) -> tuple[int, float] | None:
        """Advance the three-phase detection machine without blocking.

        Phase 0 takes this worker's entries of the step's residual pieces:
        ``r_I_sq`` per worker, ``r_G`` per slot.  Returns the round number
        and protocol value when a round completes, else None.
        """
        if self.phase == 0:
            self.r_own_I_sq = float(r_I_sq[self.idx])
            self.r_own_G = r_G[self.slots]
            for j, my_idx in self.neighbors:
                send(j, TAG_RESIDUAL, self.r_own_G[my_idx], self.round)
            self.phase = 1
        if self.phase == 1:
            # Only neighbors send residual pieces, one each per round.
            have = self.rs_have.get(self.round, {})
            if len(have) == len(self.neighbors):
                r_sync = self.r_own_G.copy()
                for j, my_idx in self.neighbors:
                    r_sync[my_idx] += have[j]
                contrib = self.r_own_I_sq + float((self.w * r_sync) @ r_sync)
                for j in range(p):
                    if j != self.idx:
                        send(j, TAG_REDUCTION, contrib, self.round)
                self.red_have.setdefault(self.round, {})[self.idx] = contrib
                self.phase = 2
        if self.phase == 2:
            have = self.red_have.get(self.round, {})
            if len(have) == p:
                total = sum(have[j] for j in sorted(have))
                value = float(np.sqrt(max(total, 0.0)))
                self.rs_have.pop(self.round, None)
                self.red_have.pop(self.round, None)
                completed_round = self.round
                self.round += 1
                self.phase = 0
                self.rounds_done += 1
                return completed_round, value
        return None


class AsyncSimulator:
    """Virtual-time scheduler over in-process workers.

    Exposes ``step`` and ``inject_fault`` so protocol-level tests can drive
    and perturb a run manually; ``run`` loops to completion.
    """

    def __init__(self, system: SchurSystem, split, cfg: RuntimeConfig, x0=None):
        self.system = system
        self.cfg = cfg
        self.p = system.p
        _check_victims([v for e in cfg.faults.events for v in e.victims], self.p)
        self.x0 = _start_vector(system, x0)
        self.space = space = system.local_space
        self._lu = system.blocks.lu
        self._n_I = space.K_I.shape[1]
        self._minv = 1.0 / split.m_diag[space.positions]
        self._owner_I = np.repeat(np.arange(self.p), [len(part) for part in system.decomp.parts])
        self.y = np.zeros(len(space.weights))  # every worker's committed share, stacked
        self.nbr = np.zeros(len(space.weights))  # every worker's merged neighbour sum, stacked
        w_global = 1.0 / system.decomp.owner_count.astype(np.float64) if system.n_interface else np.zeros(0)
        off = space.offsets
        self.workers = [_WorkerState(i, slice(off[i], off[i + 1]), self) for i in range(self.p)]
        for w in self.workers:
            w.attach_neighbors(system.imap, w_global, self.x0)
        self.rng_sched = np.random.default_rng(cfg.seed)
        delay_seed = cfg.delay.seed if cfg.delay.seed else cfg.seed + 1
        self.rng_delay = np.random.default_rng(delay_seed)
        # Read once per run; the sampler holds no reference back to the simulator.
        self._delay = cfg.delay.sampler(self.rng_delay)
        self._reorder = cfg.delay.reorder
        self._trace = cfg.trace
        self.inbox = [[] for _ in range(self.p)]
        self.last_deliver = {}
        self.seq = 0
        self.t = 0
        self.epoch = 0
        self.idle = np.zeros(self.p, dtype=np.int64)
        self.window = 16 * self.p
        self.detected = False
        self.diverged = False
        self.detection_value = None
        self.detection_events: list[tuple[float, float]] = []
        self.rounds_completed = 0
        self._round_seen = set()
        self.history: list[tuple[int, float]] = []
        self.faults_injected = 0
        self.stale_discarded = 0
        self.trajectory: list[np.ndarray] = []
        self.trace: list[dict] = []
        # FaultPlan keeps the events of each kind in trigger order.
        self._pending_step_faults = [e for e in cfg.faults.events if e.at_step is not None]
        self._pending_iter_faults = [e for e in cfg.faults.events if e.at_local_iteration is not None]

    # -- transport -----------------------------------------------------

    def _send(self, src: int, dst: int, tag: str, payload, rnd: int = -1) -> None:
        deliver = self.t + 1 + self._delay(src, dst)
        if not self._reorder:
            link = (src, dst)
            deliver = max(deliver, self.last_deliver.get(link, 0))
            self.last_deliver[link] = deliver
        self.seq = seq = self.seq + 1
        env = Envelope(src, dst, tag, payload, self.t, deliver, rnd, self.epoch, seq)
        heapq.heappush(self.inbox[dst], (deliver, seq, env))
        if self._trace:
            self.trace.append({
                "type": "envelope", "from": src, "to": dst, "tag": tag,
                "inject": self.t, "deliver": deliver, "round": rnd,
                "epoch": self.epoch, "payload": _payload_digest(payload),
            })

    def _ingest(self, w: _WorkerState) -> int:
        """Deliver the worker's due messages; returns how many stale ones it dropped."""
        box = self.inbox[w.idx]
        stale = 0
        while box and box[0][0] <= self.t:
            env = heapq.heappop(box)[2]
            if env.tag == TAG_DATA or env.epoch == self.epoch:
                w.receive(env)
            else:
                stale += 1
        return stale

    # -- the batched update ----------------------------------------------

    def _update(self, residual: bool):
        """Every worker's update from its merged local view, in one pass over the stack.

        Returns the new stacked shares and, if ``residual``, the phase-0
        pieces at the new shares: the interior residual square per worker
        and the interface residual per slot.  Only the active workers'
        entries are used.
        """
        n_I, space = self._n_I, self.space
        x_l = self.y + self.nbr
        g = space.K_G @ x_l  # [A_IG x_l; A_GG x_l]
        x_I = self._lu.solve(space.b[:n_I] - g[:n_I])
        h = space.K_I @ x_I  # [A_II x_I; A_GI x_I]
        y_new = space.weights * x_l + self._minv * (space.b[n_I:] - h[n_I:] - g[n_I:])
        if not residual:
            return y_new, None, None
        r = space.b - h - space.K_G @ (y_new + self.nbr)
        return y_new, np.bincount(self._owner_I, r[:n_I] * r[:n_I], self.p), r[n_I:]

    def _note_round(self, rnd: int, value: float) -> None:
        key = (self.epoch, rnd)
        if key in self._round_seen:
            return
        self._round_seen.add(key)
        self.rounds_completed += 1
        self.history.append((self.rounds_completed, value))
        if self.cfg.trace:
            self.trace.append({"type": "round", "t": self.t, "k": self.rounds_completed, "value": value})
        if value <= self.cfg.tol:
            # The protocol value mixes snapshots from different moments, so a
            # firing is confirmed against an exact synchronous residual; a
            # premature firing is recorded and iteration simply continues.
            exact = global_residual(self.system, self.assembled_interface())
            self.detection_events.append((value, exact))
            if exact > DETECTION_SLACK * self.cfg.tol:
                log.warning(
                    "detector fired at %.3e but the exact residual %.3e exceeds %g*tol",
                    value, exact, DETECTION_SLACK,
                )
            if exact <= self.cfg.tol:
                self.detected = True
                self.detection_value = value
        elif value > DIVERGENCE_LIMIT or not np.isfinite(value):
            self.diverged = True

    # -- faults ----------------------------------------------------------

    def inject_fault(self, victims) -> None:
        """Reset the victims and invalidate every detection round in flight."""
        victims = sorted({int(v) for v in victims})
        _check_victims(victims, self.p)
        victim_set = set(victims)
        for v in victims:
            self.workers[v].reset_state()
            self.inbox[v] = []
        for i in range(self.p):
            if i in victim_set:
                continue
            box = [entry for entry in self.inbox[i] if entry[2].src not in victim_set]
            heapq.heapify(box)
            self.inbox[i] = box
        self.epoch += 1
        for w in self.workers:
            w.phase = 0
            w.round = 0
            w.rs_have = {}
            w.red_have = {}
        self.faults_injected += 1
        if self.cfg.trace:
            self.trace.append({"type": "fault", "t": self.t, "victims": victims, "epoch": self.epoch})

    def _apply_step_faults(self) -> None:
        while self._pending_step_faults and self._pending_step_faults[0].at_step <= self.t:
            self.inject_fault(self._pending_step_faults.pop(0).victims)

    def _apply_iteration_faults(self) -> None:
        remaining = []
        for event in self._pending_iter_faults:
            if any(self.workers[v].k_local >= event.at_local_iteration for v in event.victims):
                self.inject_fault(event.victims)
            else:
                remaining.append(event)
        self._pending_iter_faults = remaining

    # -- scheduling ------------------------------------------------------

    def _choose_active(self) -> list[int]:
        live = [i for i in range(self.p) if not self.workers[i].done]
        if not live or self.cfg.activation >= 1.0:
            return live  # every live worker runs; idle counts are never read
        draws = self.rng_sched.random(self.p)
        chosen = [i for i in live if draws[i] < self.cfg.activation or self.idle[i] >= self.window - 1]
        if not chosen:
            chosen = [max(live, key=lambda i: (self.idle[i], -i))]
        chosen_set = set(chosen)
        for i in live:
            self.idle[i] = 0 if i in chosen_set else self.idle[i] + 1
        return chosen

    def assembled_interface(self) -> np.ndarray:
        """Interface vector as the sum of the workers' prolonged shares."""
        # bincount adds in slot order, so each entry sums the workers in order from 0.0.
        return np.bincount(self.space.positions, self.y, self.system.n_interface)

    # -- driving ---------------------------------------------------------

    def step(self) -> None:
        """Advance virtual time by one step.

        Messages sent in a step arrive in a later one, so the active workers
        never see each other's output: they merge, update in one batched
        pass, then commit, publish and detect one by one in activation order.
        """
        self._apply_step_faults()
        workers = [self.workers[i] for i in self._choose_active()]
        stale = [self._ingest(w) for w in workers]  # counted at commit: workers after a detection never run
        for w in workers:
            w.merge()
        y_new, r_I_sq, r_G = self._update(any(w.phase == 0 for w in workers))
        for w, n_stale in zip(workers, stale):
            self.stale_discarded += n_stale
            w.y_own[:] = y_new[w.slots]
            w.k_local += 1
            send = partial(self._send, w.idx)
            for j, my_idx in w.neighbors:
                send(j, TAG_DATA, w.y_own[my_idx], -1)  # fancy indexing already copies
            completed = w.detect(send, self.p, r_I_sq, r_G)
            if completed is not None:
                if w.rounds_done >= self.cfg.k_max:
                    w.done = True
                self._note_round(*completed)
            if self._trace:
                self.trace.append({"type": "step", "t": self.t, "worker": w.idx, "k": w.k_local, "phase": w.phase})
            if self.detected or self.diverged:
                break
        if self._pending_iter_faults:
            self._apply_iteration_faults()
        self.t += 1
        if self.cfg.record_trajectory:
            self.trajectory.append(self.assembled_interface())

    def run(self) -> tuple[np.ndarray, SolveReport]:
        t0 = time.perf_counter()
        hard_cap = self.cfg.step_limit
        if hard_cap is None:
            hard_cap = 1000 + self.cfg.k_max * 50 * (1 + self.cfg.delay.bound)
        while True:
            if self.detected or self.diverged:
                break
            if all(w.done for w in self.workers):
                break
            if self.t >= hard_cap:
                break
            self.step()
        x = self.assembled_interface()
        final = global_residual(self.system, x)
        if self.detected:
            status = "converged"
        elif self.diverged:
            status = "diverged"
        elif all(w.done for w in self.workers):
            status = "k-max"
        else:
            status = "step-cap"
        per_worker = [w.k_local for w in self.workers]
        report = SolveReport(
            solver="async",
            converged=self.detected,
            iterations_k=self.rounds_completed,
            per_worker_k=per_worker,
            k_max=max(per_worker) if per_worker else 0,
            residual_history=self.history,
            final_residual=final,
            wall_time=time.perf_counter() - t0,
            status=status,
            faults_injected=self.faults_injected,
            sim_steps=self.t,
            detection_residual=self.detection_value,
            detection_events=self.detection_events,
        )
        return x, report

    def trace_lines(self) -> list[str]:
        return [json.dumps(rec, sort_keys=True) for rec in self.trace]


@dataclass(frozen=True)
class ReplayResult:
    trace_lines: tuple[str, ...]
    trace_hash: str
    x_interface: np.ndarray
    report: SolveReport


def deterministic_replay(system: SchurSystem, split, cfg: RuntimeConfig, x0=None) -> ReplayResult:
    """One fully traced run; equal seeds give equal traces."""
    sim = AsyncSimulator(system, split, replace(cfg, trace=True), x0=x0)
    x, report = sim.run()
    lines = sim.trace_lines()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return ReplayResult(trace_lines=tuple(lines), trace_hash=digest, x_interface=x, report=report)


def async_solve(system: SchurSystem, split, cfg: RuntimeConfig, x0=None) -> tuple[np.ndarray, SolveReport]:
    """Run the asynchronous interface solver on the simulated cluster."""
    return AsyncSimulator(system, split, cfg, x0=x0).run()


# -- conjugate gradients with synchronous restart on faults ---------------


def cg_with_restart(system: SchurSystem, cfg: RuntimeConfig, x0=None) -> tuple[np.ndarray, SolveReport]:
    """Conjugate gradients that restart after every injected fault.

    Fault triggers are read as cumulative iteration counts.  A fault resets
    the victims' interface entries to their initial values and discards the
    Krylov space; iteration counting continues across restarts.
    """
    restarts = sorted(
        ((e.at_step if e.at_step is not None else e.at_local_iteration, e.victims) for e in cfg.faults.events),
        key=lambda r: r[0],
    )
    return _restarted_cg(system, cfg.tol, cfg.k_max, x0, restarts, solver="cg-restart")

