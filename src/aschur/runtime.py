"""Simulated asynchronous cluster: one worker per subdomain, message
channels with configurable delay and reordering, non-blocking convergence
detection and fault injection.

The workers run one kernel: the ``_WorkerState`` methods for the update,
the detection machine and the receive rule, which publish through a
``send(dst, tag, payload, round)`` callback.  A virtual-time scheduler
steps them: messages injected at step t are deliverable from step
t + 1 + delay, which is the bounded-delay model of asynchronous iterations
with arbitrary reordering.  Every draw comes from seeded generators, so
equal seeds reproduce runs bit for bit.  Uniform delays come from the same
seeded stream as one draw per message, drawn in blocks.

Worker loop per activation: merge the latest received neighbor shares into
the local interface vector, solve the interior block, form the new local
share (identity share plus the scaled local interface defect), publish the
updated share to the neighbors, and advance the three-phase detection
machine:

* phase 0: capture the local residual, start a non-blocking interface
  residual exchange with the neighbors;
* phase 1: once all neighbor pieces for the current round arrived, start a
  non-blocking global sum of the weighted residual squares;
* phase 2: once the sum is complete, compare its square root to the
  tolerance and open the next round.

Workers never block on any phase.  After detection the final residual is
always recomputed synchronously from the assembled interface vector.

A fault resets the victim's interface share, interior values and
communication buffers to their initial state and drops its in-flight
messages; interior factorizations are kept.  Detection rounds in flight are
invalidated conservatively: a global epoch counter stamps every detection
message, faults bump it, and stale contributions are discarded on arrival.
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

from .linalg import lu_solve
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
    """Mutable per-subdomain state owned by exactly one worker."""

    __slots__ = (
        "idx", "lu", "A_II_op", "A_IG_op", "A_GI_op", "A_GG", "b_I", "b_G",
        "w", "minv", "gpos", "x0_l", "neighbors", "init_nbr", "y_own",
        "nbr_y", "x_I", "k_local", "phase", "round", "rs_have", "red_have",
        "r_own_G", "r_own_I_sq", "rounds_done", "done", "nbr_sum", "nbr_pos",
    )

    def __init__(self, local, split, x0):
        self.idx = local.index
        self.lu = local.lu
        dense_ok = local.n_interior * max(local.n_interior, local.n_gamma, 1) <= 500_000
        self.A_II_op = local.A_II.to_dense() if dense_ok else local.A_II._csr
        self.A_IG_op = local.A_IG.to_dense() if dense_ok else local.A_IG._csr
        self.A_GI_op = local.A_GI.to_dense() if dense_ok else local.A_GI._csr
        self.A_GG = local.A_GG
        self.b_I = local.b_I
        self.b_G = local.b_G
        self.w = local.weights
        self.minv = 1.0 / split.m_diag[local.gamma_positions] if local.n_gamma else np.zeros(0)
        self.gpos = local.gamma_positions
        self.x0_l = x0[local.gamma_positions].copy() if local.n_gamma else np.zeros(0)
        self.neighbors = []  # (j, idx_into_my_gamma) filled by the runtime
        self.init_nbr = {}
        self.y_own = self.w * self.x0_l
        self.nbr_y = {}
        self.x_I = np.zeros(local.n_interior)
        self.k_local = 0
        self.phase = 0
        self.round = 0
        self.rs_have = {}
        self.red_have = {}
        self.r_own_G = None
        self.r_own_I_sq = 0.0
        self.rounds_done = 0
        self.done = False
        self.nbr_sum = np.zeros(local.n_gamma)

    def attach_neighbors(self, imap, w_global, x0):
        i = self.idx
        for j in imap.neighbors[i]:
            shared = imap.shared_positions(i, j)
            my_idx = np.searchsorted(self.gpos, shared)
            self.neighbors.append((j, my_idx))
            self.init_nbr[j] = w_global[shared] * x0[shared]
        self.nbr_pos = np.array([k for _, my_idx in self.neighbors for k in my_idx], dtype=np.intp)
        self.reset_state()

    def reset_state(self):
        self.y_own = self.w * self.x0_l
        self.nbr_y = {j: (-1, payload.copy()) for j, payload in self.init_nbr.items()}
        self.x_I = np.zeros_like(self.x_I)
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

    def update(self, send) -> None:
        """One relaxation: merge, interior solve, new share, publish it.

        ``send(dst, tag, payload, round)`` hands a message to the transport.
        ``ndarray.dot`` makes the same BLAS gemv call as ``@`` with less dispatch.
        """
        if self.neighbors:
            # bincount adds in input order: each entry sums the neighbors in list order from 0.0.
            shares = np.concatenate([self.nbr_y[j][1] for j, _ in self.neighbors])
            self.nbr_sum = np.bincount(self.nbr_pos, shares, len(self.nbr_sum))
        x_l = self.y_own + self.nbr_sum
        if len(self.b_I):
            self.x_I = lu_solve(self.lu, self.b_I - self.A_IG_op.dot(x_l))
        if len(x_l):
            defect = self.b_G - self.A_GI_op.dot(self.x_I) - self.A_GG.dot(x_l)
            self.y_own = self.w * x_l + self.minv * defect
        self.k_local += 1
        for j, my_idx in self.neighbors:
            send(j, TAG_DATA, self.y_own[my_idx], -1)  # fancy indexing already copies

    def detect(self, send, p: int) -> tuple[int, float] | None:
        """Advance the three-phase detection machine without blocking.

        Uses the neighbor sum merged by the last ``update``.  Returns the
        round number and protocol value when a round completes, else None.
        """
        if self.phase == 0:
            x_merged = self.y_own + self.nbr_sum
            if len(self.b_I):
                r_I = self.b_I - self.A_II_op.dot(self.x_I) - self.A_IG_op.dot(x_merged)
                self.r_own_I_sq = float(r_I @ r_I)
            else:
                self.r_own_I_sq = 0.0
            r_G = self.b_G - self.A_GI_op.dot(self.x_I) - self.A_GG.dot(x_merged) if len(x_merged) else np.zeros(0)
            self.r_own_G = r_G
            for j, my_idx in self.neighbors:
                send(j, TAG_RESIDUAL, r_G[my_idx], self.round)
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
        self.split = split
        self.cfg = cfg
        self.p = system.p
        _check_victims([v for e in cfg.faults.events for v in e.victims], self.p)
        self.x0 = _start_vector(system, x0)
        w_global = 1.0 / system.decomp.owner_count.astype(np.float64) if system.n_interface else np.zeros(0)
        self.workers = [_WorkerState(local, split, self.x0) for local in system.subdomains]
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
        self._pending_step_faults = sorted(
            (e for e in cfg.faults.events if e.at_step is not None), key=lambda e: e.at_step
        )
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

    def _ingest(self, w: _WorkerState) -> None:
        box = self.inbox[w.idx]
        while box and box[0][0] <= self.t:
            env = heapq.heappop(box)[2]
            if env.tag == TAG_DATA or env.epoch == self.epoch:
                w.receive(env)
            else:
                self.stale_discarded += 1

    # -- worker step ---------------------------------------------------

    def _step_worker(self, w: _WorkerState) -> None:
        self._ingest(w)
        send = partial(self._send, w.idx)
        w.update(send)
        completed = w.detect(send, self.p)
        if completed is not None:
            if w.rounds_done >= self.cfg.k_max:
                w.done = True
            self._note_round(*completed)
        if self._trace:
            self.trace.append({"type": "step", "t": self.t, "worker": w.idx, "k": w.k_local, "phase": w.phase})

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
        x = np.zeros(self.system.n_interface)
        for w in self.workers:
            x[w.gpos] += w.y_own
        return x

    # -- driving ---------------------------------------------------------

    def step(self) -> None:
        """Advance virtual time by one step."""
        self._apply_step_faults()
        for i in self._choose_active():
            self._step_worker(self.workers[i])
            if self._pending_iter_faults:
                self._apply_iteration_faults()
            if self.detected or self.diverged:
                break
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

