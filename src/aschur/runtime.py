"""Simulated asynchronous cluster: one worker per subdomain, message
channels with configurable delay and reordering, non-blocking convergence
detection and fault injection.

A virtual-time scheduler steps the workers: messages injected at step t
are deliverable from step t + 1 + delay, the bounded-delay model of
asynchronous iterations with arbitrary reordering (worker i's update reads
neighbour j's share from a step s_ij(t) <= t - 1).  Every draw comes from
seeded generators, so equal seeds reproduce runs bit for bit; a step's
delays are one block of the stream, in send order (per active worker: its
data shares, residual pieces, then reductions).

The transport holds arrays, not messages, and each delivery step once.  A
ring of the last steps' stacked shares holds per row its inject step and a
delivery step per wheel column (a directed link, or a spare that takes the
detection messages); each detection slot (a residual piece per link, a
reduction per round parity and pair; worker rounds never differ by more
than one) holds a delivery step, and a spare slot takes the data messages.
A link adopts the greatest inject step among its delivered shares as its
stamp; the merge is one gather from the ring at the stamps.  A delivery
wheel (Varghese & Lauck, "Hashed and hierarchical timing wheels", SOSP
1987), with as many rows W as the ring, holds per delivery step modulo W
and per link the greatest inject step delivered then, so a step adopts one
wheel row at a cost independent of the delay bound; the entries of a
receiver inactive at their step move on to the next row.  The wheel covers
the deliveries in [t, t + W); a later one waits in its delivery row until a
sweep moves it in, whenever fewer than W/2 steps ahead are covered and
after each resize (amortized O(links) per step).  The fixed tables are built
once per system (``SchurSystem.links``, and the update's blocks, cut from
the stacked ones, ``SchurSystem.local_space``); the rest is per run.  In a
step the active workers ingest and merge; one batched update over the
stacked slots forms each new share (identity share plus the scaled local
interface defect) and, for workers starting a detection round, the
residual pieces at it: at desk scale one product with the update blocks
(``EXPLICIT_UPDATE_LIMIT``), else factored through the operator's solve on
the coupled interior rows.  Then the workers commit and publish in
activation order, each advancing its three-phase detection machine:

* phase 0: capture the local residual, start a non-blocking interface
  residual exchange with the neighbors;
* phase 1: once all neighbor pieces for the current round arrived, start a
  non-blocking global sum of the weighted residual squares;
* phase 2: once the sum is complete, compare its square root to the
  tolerance and open the next round.

Each step reads every active worker's readiness from its phase, round and
delivered counts.  A step in which every worker commits and none sends a
piece or reduction writes the fixed data messages, one per link, into its row.

A firing counts as convergence only once the exact residual of the shares
committed so far confirms it; later workers do not commit in that step.  A
fault resets the victims' shares and buffers and drops the messages in
flight to or from them, keeping the interior factors.  Step faults
apply at the start of their step, iteration faults at the end of the step
in which a victim reaches the count, unless that step ended the run.  The
epoch is the number of faults injected so far: detection messages a fault
finds in flight arrive stale, and are dropped and counted.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .linalg import DENSE_OP_LIMIT, matvec
from .solvers import (
    SchurSystem,
    SolveReport,
    _check_tol,
    _check_victims,
    _diverged,
    _restarted_cg,
    global_residual,
)

__all__ = [
    "DelayModel",
    "FaultEvent",
    "FaultPlan",
    "RuntimeConfig",
    "AsyncSimulator",
    "async_solve",
    "cg_with_restart",
]

DETECTION_SLACK = 2.0
DELAY_BLOCK = 1024
DELAY_MAX = 2**63 - 1  # the largest bound Generator.integers takes
NEVER = DELAY_MAX  # delivery time of an empty slot; RuntimeConfig keeps every delivery below it
EXPLICIT_UPDATE_LIMIT = 4096
"""Most cells, sum_i |Gamma_i|**2, of the explicit update (whose records also cap each interior at DENSE_OP_LIMIT).
Microseconds a step, factored / explicit, at 26 cells (31/8) 34-38 / 28-29, 1,928 (15^2/4x2) 38 / 31, 2,888
(5^3/2x2x2) 40-42 / 34-35, 4,900 (7x7x5/2x2x1) 35-42 / 29-31, 9,228 (31^2/4x4) 49-56 / 44-46, 50,460 (63^2/8x8)
147-167 / 158-166 and 204,316 (127^2/8x8) 204-217 / 305-327: three passes of 300 steps, one BLAS thread on 2 cores,
uniform(0, 10) delays with reordering (uniform(0, 2) at p = 64).  The limit sits below the crossover, near 50,460,
so both forms run in the tests and the benchmark, and the fault and p = 64 step counts keep their bits."""

log = logging.getLogger("aschur.runtime")

TAGS = ("data", "residual-sync", "reduction")


@dataclass(frozen=True)
class DelayModel:
    """Message delay distribution in whole scheduler steps.

    ``zero`` and ``fixed`` are deterministic, ``uniform`` draws from [low, high]
    and ``table`` reads a per-link value; only the kind's own keys may be set.
    With ``reorder`` unset, deliveries on each directed link keep send order.
    """

    kind: str = "zero"
    fixed: int = 0
    low: int = 0
    high: int = 0
    table: dict | None = None
    reorder: bool = False

    def __post_init__(self):
        if self.kind not in ("zero", "fixed", "uniform", "table"):
            raise ValueError(f"unknown delay kind {self.kind!r}")
        for key, owner in (("fixed", "fixed"), ("low", "uniform"), ("high", "uniform"), ("table", "table")):
            if getattr(self, key) not in (0, None) and self.kind != owner:
                raise ValueError(f"{key} must be unset unless the kind is {owner!r}, not {self.kind!r}")
        if not 0 <= self.fixed <= DELAY_MAX or self.low < 0 or not self.low <= self.high <= DELAY_MAX:
            raise ValueError(f"delays must satisfy 0 <= fixed <= {DELAY_MAX} and 0 <= low <= high <= {DELAY_MAX}")
        if self.kind == "table":
            if self.table is None:
                raise ValueError("table delays need a table")
            if any(not 0 <= v <= DELAY_MAX for v in self.table.values()):
                raise ValueError(f"table delays must lie in [0, {DELAY_MAX}]")

    @property
    def bound(self) -> int:
        if self.kind == "fixed":
            return self.fixed
        if self.kind == "uniform":
            return self.high
        if self.kind == "table" and self.table:
            return max(self.table.values())
        return 0

    def sampler(self, rng: np.random.Generator, p: int):
        """Delay function ``(src, dst) -> steps`` over arrays of messages in send
        order.  Uniform delays are drawn ``DELAY_BLOCK`` at a time: the same
        stream as one scalar ``rng.integers(low, high, endpoint=True)`` per
        message.  A table link must join two of the p workers, so ``bound``
        is a delay some message can take."""
        if self.kind == "uniform":
            drawn = np.zeros(0, dtype=np.int64)

            def draw(src, dst):
                nonlocal drawn
                if len(drawn) < len(src):
                    block = rng.integers(self.low, self.high, endpoint=True, size=max(DELAY_BLOCK, len(src)))
                    drawn = np.concatenate((drawn, block))
                out, drawn = drawn[:len(src)], drawn[len(src):]
                return out

            return draw
        if self.kind == "table":
            table = np.zeros((p, p), dtype=np.int64)
            for (src, dst), value in self.table.items():
                if not (0 <= src < p and 0 <= dst < p and src != dst):
                    raise ValueError(f"table link {src}->{dst} does not join two of the {p} workers")
                table[src, dst] = value
            return lambda src, dst: table[src, dst]
        return lambda src, dst: np.full(len(src), self.fixed, dtype=np.int64)  # 0 unless the kind is fixed


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
        trigger = self.at_step if self.at_step is not None else self.at_local_iteration
        if trigger < 0:
            raise ValueError(f"fault trigger {trigger} must be nonnegative")


@dataclass(frozen=True)
class FaultPlan:
    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        steps = [e.at_step for e in self.events if e.at_step is not None]
        iters = [e.at_local_iteration for e in self.events if e.at_local_iteration is not None]
        if steps != sorted(steps) or iters != sorted(iters):
            raise ValueError("fault events must be time-ordered")


@dataclass(frozen=True)
class RuntimeConfig:
    tol: float = 1e-6
    k_max: int = 10_000
    delay: DelayModel = field(default_factory=DelayModel)
    faults: FaultPlan = field(default_factory=FaultPlan)
    seed: int = 0
    activation: float = 1.0
    trace: bool = False

    def __post_init__(self):
        # Each message starts with the field name; the CLI maps it to a key path.
        _check_tol(self.tol)
        if self.k_max < 1:
            raise ValueError(f"k_max must be at least 1, got {self.k_max}")
        if self.step_cap + self.delay.bound >= DELAY_MAX:  # a delivery t + 1 + delay stays below NEVER
            key = "k_max" if 1000 + 50 * self.k_max >= DELAY_MAX else "delay"  # k_max alone breaks it
            raise ValueError(f"{key} must keep the step cap 1000 + 50 k_max (1 + bound) plus bound below 2**63 - 1")
        if not 0.0 <= self.activation <= 1.0:
            raise ValueError(f"activation must lie in [0, 1], got {self.activation}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    @property
    def step_cap(self) -> int:
        """Steps after which an unfinished run ends ``step-cap``: 1000 + 50 k_max (1 + delay bound)."""
        return 1000 + 50 * self.k_max * (1 + self.delay.bound)


class LinkTables:
    """The transport's fixed tables, built once per system (``SchurSystem.links``), shared
    read-only by its runs: directed links (by sender, then its neighbour order), merge entries
    (by receiver, its neighbour order, shared position), detection slots (a residual piece per
    link, a reduction per (round parity, dst, src)) and every message in send order, with its
    column of the delivery rows and wheel (its link; detection: a spare) and slot (data: a spare)."""

    def __init__(self, imap):
        p, offsets = len(imap.neighbors), imap.offsets
        links = [(i, j) for i in range(p) for j in imap.neighbors[i]]
        index = {link: k for k, link in enumerate(links)}
        reverse = [index[(j, i)] for i, j in links]
        shared = [imap.shared_positions(i, j) for i, j in links]
        self.link_slots = [offsets[i] + np.searchsorted(imap.gamma_positions[i], s) for (i, _), s in zip(links, shared)]
        self.link_src, self.link_dst = np.array(links, dtype=np.intp).reshape(-1, 2).T
        self.n_links = n_links = len(links)
        self.n_nbr = np.bincount(self.link_dst, minlength=p)
        self.e_link = np.repeat(np.array(reverse, dtype=np.intp), [len(s) for s in shared])  # link j -> i
        self.e_src = np.concatenate([self.link_slots[k] for k in reverse] + [np.zeros(0, dtype=np.intp)])
        self.e_dst = np.concatenate(self.link_slots + [np.zeros(0, dtype=np.intp)])
        self.sync_pos = np.concatenate([np.arange(offsets[-1]), self.e_dst])
        self.n_det = n_links + 2 * p * p
        self.det_src = np.concatenate([self.link_src, np.tile(np.arange(p), 2 * p)])
        self.det_dst = np.concatenate([self.link_dst, np.tile(np.repeat(np.arange(p), p), 2)])
        self.det_group = np.concatenate([self.link_dst, p + np.repeat(np.arange(2 * p), p)])  # index into _got
        # Per message (src, kind, order, dst, link, target), kind 0 data, 1 residual piece,
        # 2 + round parity reduction; the target is the detection slot or, for data, the
        # spare slot n_det.
        msgs = sorted([(i, 0, k, j, k, self.n_det) for k, (i, j) in enumerate(links)]
                      + [(i, 1, k, j, k, k) for k, (i, j) in enumerate(links)]
                      + [(i, 2 + par, j, j, 0, n_links + (par * p + j) * p + i)
                         for par in (0, 1) for i in range(p) for j in range(p) if i != j])
        msgs = np.array(msgs, dtype=np.intp).reshape(-1, 6).T
        self.msg_src, self.msg_kind, _, self.msg_dst, self.msg_link, self.msg_target = msgs
        self.msg_key = self.msg_kind * p + self.msg_src
        self.msg_col = np.where(self.msg_kind == 0, self.msg_link, n_links)
        self.data_ids = np.flatnonzero(self.msg_kind == 0)  # one per link, in link order
        for table in [*vars(self).values(), *self.link_slots]:
            if isinstance(table, np.ndarray):
                table.flags.writeable = False


class AsyncSimulator:
    """Virtual-time scheduler over the stacked worker state: per worker
    ``k_local``, ``phase``, ``round``, ``rounds_done`` and ``done``, and its
    committed shares ``y[offsets[i]:offsets[i + 1]]`` (``InterfaceMap.offsets``).
    ``step`` and ``inject_fault`` let protocol-level tests drive and perturb
    a run manually; ``run`` loops to completion."""

    def __init__(self, system: SchurSystem, split, cfg: RuntimeConfig):
        self.system, self.cfg, self.p = system, cfg, system.p
        p = self.p
        _check_victims([v for e in cfg.faults.events for v in e.victims], p)
        self.rng_sched = np.random.default_rng(cfg.seed)
        self.rng_delay = np.random.default_rng(cfg.seed + 1)
        self._delay = cfg.delay.sampler(self.rng_delay, p)  # checks the table links; holds no reference back
        self.space, imap = system.local_space, system.imap
        self._lk = system.links  # read-only, shared by every run on the system
        self._lu, self._n_c = system.blocks.lu, len(system.blocks.coupled)
        self._m = split.m_diag[imap.positions]
        self._minv, self._Q, sizes = 1.0 / self._m, None, np.diff(imap.offsets)
        if sizes @ sizes <= EXPLICIT_UPDATE_LIMIT and max(map(len, system.decomp.parts)) <= DENSE_OP_LIMIT:
            subdomains = system.subdomains
            self._Q = scipy.sparse.block_diag([local.update_block(split.m_diag) for local in subdomains], "csr")
            self._f = self._minv * np.concatenate([local.d for local in subdomains])
        self._owner_c = np.repeat(np.arange(p), [len(part) for part in system.decomp.parts])[system.blocks.coupled]
        self._owner_G = np.repeat(np.arange(p), np.diff(imap.offsets))
        self._off, self._workers = imap.offsets.tolist(), np.arange(p)
        self._all, self._everyone, self._all_on = list(range(p)), np.ones(p, dtype=bool), [True] * p
        self._n_nbr = self._lk.n_nbr.tolist()
        self.y = np.zeros(len(imap.positions))  # every worker's committed share, stacked; runs start at zero
        self.nbr = np.zeros(len(self.y))  # every worker's merged neighbour sum, stacked
        self.k_local, self.phase, self.round, self.rounds_done = (np.zeros(p, dtype=np.int64) for _ in range(4))
        self.done, self._n_done = np.zeros(p, dtype=bool), 0
        self._r_own_G, self._r_own_I_sq = np.zeros(len(self.y)), np.zeros(p)  # captured at phase 0
        self._red_val = np.zeros((2, p))  # reduction value per (round parity, src)
        # Detection messages delivered for the current round: residual pieces
        # per dst, then reductions per (round parity, dst).
        self._got = np.zeros(3 * p, dtype=np.int64)
        self._rs_cnt, self._red_cnt = self._got[:p], self._got[p:].reshape(2, p)
        self._stamp = np.full(self._lk.n_links, -1, dtype=np.int64)  # inject step of the adopted share
        self._floor = -1  # no greater than any stamp
        self.t = self.faults_injected = self.stale_discarded = 0
        self._inj, self._ring, self._dl, self._wheel = np.zeros(0, dtype=np.int64), None, None, None
        self._when = np.full(self._lk.n_det + 1, NEVER, dtype=np.int64)  # per detection slot, then a spare
        self._far, self._horizon = True, 0  # a delivery may pass the wheel; it holds every one before the horizon
        self._resize(2 * min(cfg.delay.bound, 62) + 4)
        self._last = np.zeros((p, p), dtype=np.int64)  # FIFO links: latest delivery per pair
        self._stale = np.zeros((3, 0), dtype=np.int64)  # src, dst, delivery of stale detection messages
        self._reorder, self._trace = cfg.delay.reorder, cfg.trace
        self.idle, self.window = np.zeros(p, dtype=np.int64), 16 * p
        self.detected = self.diverged = False
        self._round_seen = set()
        self.detection_events: list[tuple[float, float]] = []
        self.history: list[tuple[int, float]] = []
        self.trace: list[dict] = []
        # FaultPlan keeps the events of each kind in trigger order.
        self._pending_step_faults = [e for e in cfg.faults.events if e.at_step is not None]
        self._pending_iter_faults = [e for e in cfg.faults.events if e.at_local_iteration is not None]

    # -- transport -----------------------------------------------------

    def _resize(self, rows: int) -> None:
        """Lay out for ``rows`` steps what is indexed by ring row (ring, inject steps, delivery
        rows) or by delivery step (wheel), keeping what it holds; the ring's last row, all zero,
        holds the initial shares.  Wheel row r holds the step in [t, t + rows) that is r mod rows."""
        lk, used, t = self._lk, np.flatnonzero(self._inj >= 0), self.t
        new = self._inj[used] % rows
        ring = np.zeros((rows + 1, len(self.y)))
        inj = np.full(rows, -1, dtype=np.int64)
        dl = np.full((rows, lk.n_links + 1), NEVER, dtype=np.int64)  # per ring row, per wheel column
        wheel = np.full((rows, lk.n_links + 1), -1, dtype=np.int64)  # per delivery step, per column
        if len(used):
            ring[new], inj[new], dl[new] = self._ring[used], self._inj[used], self._dl[used]
        if self._wheel is not None:
            old = len(self._wheel)  # old row r holds the step in [t, t + old) that is r modulo old
            wheel[(t + (np.arange(old) - t) % old) % rows] = self._wheel
        self._ring, self._inj, self._dl, self._wheel = ring, inj, dl, wheel
        far, self._far = self._far, self.cfg.delay.bound + 2 > rows  # a delivery t + 1 + delay may pass t + rows
        if far:
            self._sweep()

    def _sweep(self) -> None:
        """Move the deliveries in [horizon, t + W) into the wheel, W its row count."""
        t, rows = self.t, len(self._inj)
        r, link = ((self._dl >= self._horizon) & (self._dl < t + rows)).nonzero()
        np.maximum.at(self._wheel, (self._dl[r, link] % rows, link), self._inj[r])
        self._horizon = t + rows

    def _ingest(self, on, full: bool) -> np.ndarray | None:
        """Deliver the active workers' due messages and merge; returns the stale
        detection messages each dropped, if any are in flight.  A link adopts the
        greatest inject step in the wheel's row of step t, which is then cleared; an
        inactive receiver's entries move to the row of t + 1.  bincount adds in input
        order and the entries run in each receiver's neighbour order: each slot sums
        its neighbours in list order from 0.0."""
        t, lk, rows = self.t, self._lk, len(self._inj)
        if self._far and self._horizon <= t + rows // 2:
            self._sweep()
        row = self._wheel[t % rows]
        got, due = row[:lk.n_links], self._when[:lk.n_det] <= t
        if not full:
            link_on, nxt = on[lk.link_dst], self._wheel[(t + 1) % rows, :lk.n_links]
            np.maximum(nxt, np.where(link_on, -1, got), out=nxt)
            got = np.where(link_on, got, -1)
            due &= on[lk.det_dst]
        np.maximum(self._stamp, got, out=self._stamp)
        row.fill(-1)
        ring_rows = np.fmod(self._stamp, rows)  # stamp -1 reads the initial row
        self.nbr = np.bincount(lk.e_dst, self._ring[ring_rows[lk.e_link], lk.e_src], len(self.y))
        due = due.nonzero()[0]
        if len(due):
            self._when[due] = NEVER
            self._got += np.bincount(self._lk.det_group[due], minlength=3 * self.p)
        if not self._stale.size:
            return None
        due = (self._stale[2] <= t) & on[self._stale[1]]
        stale = np.bincount(self._stale[1, due], minlength=self.p)
        self._stale = self._stale[:, ~due]
        return stale

    def _send(self, com, res, red, y_new, data_only: bool):
        """Publish the committed workers' messages, ``red`` the reduction senders as
        (worker, round parity), or with ``data_only`` the data messages alone; returns
        them (indices into the message table) and their delivery steps, in send order.
        The ring and the wheel double while this step's row holds shares that are
        adopted, or in flight to a live worker and newer than what it holds."""
        t, lk, p = self.t, self._lk, self.p
        if data_only:
            ids, src, dst = lk.data_ids, lk.link_src, lk.link_dst
        else:
            flags = np.concatenate((com, res, np.zeros(2 * p, dtype=bool)))
            for i, par in red:
                flags[(2 + par) * p + i] = True
            ids = flags[lk.msg_key].nonzero()[0]
            src, dst = lk.msg_src[ids], lk.msg_dst[ids]
        deliver = self._delay(src, dst) + (t + 1)
        if not self._reorder:  # FIFO: a pair carries at most one message per kind per step
            kind = lk.msg_kind[ids]
            for k in range(4):
                sel = (kind == k).nonzero()[0]
                s, d = src[sel], dst[sel]
                deliver[sel] = self._last[s, d] = np.maximum(deliver[sel], self._last[s, d])
        while True:
            row = t % len(self._inj)
            old = self._inj[row]
            if old < 0 or old < self._floor:  # unused, or older than every adopted share
                break
            self._floor = self._stamp.min() if self._lk.n_links else NEVER  # stamps only grow between faults
            wanted = ((self._dl[row, :-1] < NEVER) & (old > self._stamp)) | (old == self._stamp)
            if old < self._floor or not (wanted & ~self.done[self._lk.link_dst]).any():
                break
            self._resize(2 * len(self._inj))
        self._ring[row], self._inj[row], self._dl[row, :-1] = y_new, t, deliver if data_only else NEVER
        rows, col = len(self._inj), lk.msg_col[ids]
        if not data_only:
            self._dl[row, col] = deliver
            self._when[lk.msg_target[ids]] = deliver
        if self._far:  # a later delivery waits for the sweep
            col = np.where(deliver < t + rows, col, lk.n_links)
        self._wheel[deliver % rows, col] = t  # newer than anything pending: the maximum
        return ids, deliver

    # -- the batched update ----------------------------------------------

    def _update(self, residual: bool):
        """Every worker's update from its merged local view, in one pass over the
        stack.  Explicit: ``Q x_l + inv(M) d``, one product with the block-diagonal Q of
        ``LocalSubdomain.update_block``, its row sums starting at ``inv(M) d``.  Factored:
        the interior on the coupled rows, ``x_c = c - inv(A_II)[coupled, coupled] A_IG x_l``
        (the operator's solve), the local defect ``D = b_G - A_GI x_c - A_GG x_l`` and the
        new shares ``w x_l + inv(M) D``.  If ``residual``, the phase-0 pieces at them
        (interior residual square per worker, interface residual per slot): as ``b_I -
        A_II x_I = A_IG x_l``, they are ``[A_IG; A_GG] (y - y_new)`` plus ``[0; D]``, one
        more product, the explicit form taking D as ``M (y_new - w x_l)``.  Only the
        active workers' entries are used."""
        space, n_c, x_l = self.space, self._n_c, self.y + self.nbr
        if self._Q is not None:
            y_new = matvec(self._Q, x_l, self._f)
            defect = self._m * (y_new - space.weights * x_l) if residual else None
        else:
            g = matvec(space.K_G, x_l)  # [A_IG x_l on the coupled rows; A_GG x_l]
            defect = space.b_G - matvec(space.A_GI, self.system.c - self._lu.solve_coupled(g[:n_c])) - g[n_c:]
            y_new = space.weights * x_l + self._minv * defect
        if not residual:
            return y_new, None, None
        q = matvec(space.K_G, self.y - y_new)
        return y_new, np.bincount(self._owner_c, q[:n_c] * q[:n_c], self.p), defect + q[n_c:]

    def _detect(self, on, res, r_I_sq, r_G):
        """Advance the active workers' detection machines from what they ingested;
        ``res`` marks the workers in phase 0.  Captures their pieces and reduction
        values (from one pass over every slot, which sums each worker's own slots in
        order from 0.0); returns the active workers that pass phase 1 and that complete
        a round, as (worker, round parity) in index order.  The caller commits the moves."""
        if r_G is not None:  # phase 0: capture the pieces at the new shares
            self._r_own_I_sq[res] = r_I_sq[res]
            np.copyto(self._r_own_G, r_G, where=res[self._owner_G])
        p, red, fin = self.p, [], []
        phase, rnd, got = self.phase.tolist(), self.round.tolist(), self._got.tolist()
        on_l, n_nbr = self._all_on if on is self._everyone else on.tolist(), self._n_nbr
        for i in self._all:
            if not on_l[i]:
                continue
            par = rnd[i] & 1
            sends = phase[i] < 2 and got[i] == n_nbr[i]  # phase 1: every neighbour's piece is in
            if sends:
                red.append((i, par))
            if got[(1 + par) * p + i] + sends == p:  # phase 2: all in, own one from phase 1
                fin.append((i, par))
        if red:
            r_sync = np.bincount(self._lk.sync_pos, np.concatenate((self._r_own_G, self._r_own_G[self._lk.e_src])))
            value = self._r_own_I_sq + np.bincount(self._owner_G, self.space.weights * r_sync * r_sync, p)
            for i, par in red:
                self._red_val[par, i] = value[i]
        return red, fin

    def _note_round(self, rnd: int, value: float) -> bool:
        """Record a completed round once per (epoch, round); True if it is new."""
        key = (self.faults_injected, rnd)
        if key in self._round_seen:
            return False
        self._round_seen.add(key)
        self.history.append((len(self.history) + 1, value))
        if value <= self.cfg.tol:
            # The protocol value mixes snapshots from different moments, so a
            # firing is confirmed against an exact synchronous residual; a
            # premature firing is recorded and iteration simply continues.
            exact = global_residual(self.system, self.assembled_interface())
            self.detection_events.append((value, exact))
            if exact > DETECTION_SLACK * self.cfg.tol:
                log.warning("detector fired at %.3e but the exact residual %.3e exceeds %g*tol",
                            value, exact, DETECTION_SLACK)
            if exact <= self.cfg.tol:
                self.detected = True
        elif _diverged(self.history, self.cfg.tol):
            self.diverged = True
        return True

    # -- faults ----------------------------------------------------------

    def inject_fault(self, victims) -> None:
        """Reset the victims and invalidate every detection round in flight."""
        victims = sorted({int(v) for v in victims})
        _check_victims(victims, self.p)
        hit = np.zeros(self.p, dtype=bool)
        hit[victims] = True
        cut = np.append(hit[self._lk.link_src] | hit[self._lk.link_dst], False)  # the spare column stays
        self._dl[:, cut] = NEVER
        self._wheel[:, cut] = -1
        self._stamp[hit[self._lk.link_dst]] = self._floor = -1
        slots = hit[self._owner_G]
        self.y[slots] = 0.0
        # Detection messages in flight between survivors arrive stale.
        n_det, src, dst = self._lk.n_det, self._lk.det_src, self._lk.det_dst
        live = (self._when[:n_det] < NEVER) & ~(hit[src] | hit[dst])
        keep = ~(hit[self._stale[0]] | hit[self._stale[1]])
        fresh = np.stack([src[live], dst[live], self._when[:n_det][live]])
        self._stale = np.concatenate([self._stale[:, keep], fresh], axis=1)
        self._when[:n_det] = NEVER
        self._got[:] = self.phase[:] = self.round[:] = 0
        self.faults_injected += 1
        if self._trace:
            self.trace.append({"type": "fault", "t": self.t, "victims": victims, "epoch": self.faults_injected})

    def _apply_step_faults(self) -> None:
        while self._pending_step_faults and self._pending_step_faults[0].at_step <= self.t:
            self.inject_fault(self._pending_step_faults.pop(0).victims)

    def _apply_iteration_faults(self) -> None:
        due = [e for e in self._pending_iter_faults if max(self.k_local[list(e.victims)]) >= e.at_local_iteration]
        for event in due:
            self._pending_iter_faults.remove(event)
            self.inject_fault(event.victims)

    # -- scheduling ------------------------------------------------------

    def _choose_active(self) -> list[int]:
        live = np.flatnonzero(~self.done).tolist() if self._n_done else self._all
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
        return np.bincount(self.system.imap.positions, self.y, self.system.n_interface)

    # -- driving ---------------------------------------------------------

    def step(self) -> None:
        """Advance virtual time by one step.  Messages sent in a step arrive in a
        later one, so the active workers never see each other's output: they
        ingest and merge, update in one batched pass and advance detection from
        what they ingested, then commit and publish in activation order."""
        self._apply_step_faults()
        p, off = self.p, self._off
        active = self._choose_active()
        full = len(active) == p
        on = self._everyone if full else np.bincount(active, minlength=p).astype(bool)
        stale = self._ingest(on, full)
        res = self.phase == 0 if full else (self.phase == 0) & on
        pieces = bool(np.count_nonzero(res))
        y_new, r_I_sq, r_G = self._update(pieces)
        red, fin = self._detect(on, res, r_I_sq, r_G)
        sent_round = self.round.copy() if self._trace else None
        cut, noted = p, {}
        values = fin and [float(np.sqrt(max(sum(v), 0.0))) for v in self._red_val.tolist()]  # per round parity
        for i, par in fin:
            value = values[par]
            self.rounds_done[i] += 1
            if self.rounds_done[i] >= self.cfg.k_max:
                self.done[i] = True
                self._n_done += 1
            hi = off[i + 1]
            if value <= self.cfg.tol:  # a firing: the exact residual sees the commits up to this worker
                np.copyto(self.y[:hi], y_new[:hi], where=on[self._owner_G[:hi]])
            if self._note_round(int(self.round[i]), value):
                noted[i] = {"type": "round", "t": self.t, "k": len(self.history), "value": value}
            if self.detected or self.diverged:
                cut = i + 1
                break
        if cut < p:  # the ready workers from cut on commit nothing
            on, red, fin = on & (self._workers < cut), [m for m in red if m[0] < cut], [m for m in fin if m[0] < cut]
            full, res = False, res & on
        self.y = y_new if full else np.where(on[self._owner_G], y_new, self.y)
        self.k_local += 1 if full else on
        if stale is not None:
            self.stale_discarded += int(stale[on].sum())
        ids, deliver = self._send(on, res, red, y_new, full and not pieces and not red)
        if pieces:
            self.phase[res] = 1
        for i, par in red:
            self.phase[i], self._rs_cnt[i] = 2, 0
            self._red_cnt[par, i] += 1
        for i, par in fin:
            self.phase[i] = self._red_cnt[par, i] = 0
            self.round[i] += 1
        if self._trace:
            self._trace_step(on, ids, deliver, noted, y_new, r_G, sent_round)
        if self._pending_iter_faults and not (self.detected or self.diverged):
            self._apply_iteration_faults()
        self.t += 1

    def _trace_step(self, com, ids, deliver, noted, y_new, r_G, sent_round) -> None:
        """Per committed worker in activation order: its envelopes in send order, the
        round it noted first, if any, and its step record."""
        src = self._lk.msg_src[ids]
        for i in com.nonzero()[0].tolist():
            lo, hi = np.searchsorted(src, [i, i + 1])
            head = {"type": "envelope", "from": i, "inject": self.t, "epoch": self.faults_injected}
            for m, dl in zip(ids[lo:hi].tolist(), deliver[lo:hi].tolist()):
                kind, slots = self._lk.msg_kind[m], self._lk.link_slots[self._lk.msg_link[m]]
                rnd, payload = ((-1, y_new[slots]) if kind == 0 else (sent_round[i], r_G[slots]) if kind == 1
                                else (sent_round[i], self._red_val[kind - 2, i]))
                digest = hashlib.sha1(np.float64(payload).tobytes()).hexdigest()[:16]
                self.trace.append({**head, "to": int(self._lk.msg_dst[m]), "tag": TAGS[min(kind, 2)], "deliver": dl,
                                   "round": int(rnd), "payload": digest})
            if i in noted:
                self.trace.append(noted[i])
            self.trace.append({"type": "step", "t": self.t, "worker": i, "k": int(self.k_local[i]),
                               "phase": int(self.phase[i])})

    def run(self) -> tuple[np.ndarray, SolveReport]:
        t0 = time.perf_counter()
        cap = self.cfg.step_cap
        while not (self.detected or self.diverged or self._n_done == self.p or self.t >= cap):
            self.step()
        x = self.assembled_interface()
        status = ("converged" if self.detected else "diverged" if self.diverged
                  else "k-max" if self.done.all() else "step-cap")
        per_worker = self.k_local.tolist()
        report = SolveReport(
            solver="async", converged=self.detected, iterations_k=len(self.history),
            per_worker_k=per_worker, k_max=max(per_worker) if per_worker else 0, residual_history=self.history,
            final_residual=self.detection_events[-1][1] if self.detected else global_residual(self.system, x),
            wall_time=time.perf_counter() - t0,
            status=status, faults_injected=self.faults_injected, sim_steps=self.t,
            detection_residual=self.detection_events[-1][0] if self.detected else None,
            detection_events=self.detection_events,
            stale_discarded=self.stale_discarded,
        )
        return x, report

    def trace_lines(self) -> list[str]:
        """The trace records as sorted-key JSON lines; equal seeds give equal lines."""
        return [json.dumps(rec, sort_keys=True) for rec in self.trace]


def async_solve(system: SchurSystem, split, cfg: RuntimeConfig) -> tuple[np.ndarray, SolveReport]:
    """Run the asynchronous interface solver on the simulated cluster."""
    return AsyncSimulator(system, split, cfg).run()


# -- conjugate gradients with synchronous restart on faults ---------------


def cg_with_restart(system: SchurSystem, cfg: RuntimeConfig) -> tuple[np.ndarray, SolveReport]:
    """Conjugate gradients that restart after every injected fault.

    Fault triggers are read as cumulative iteration counts.  A fault resets
    the victims' interface entries to zero, where every run starts, and
    discards the Krylov space; iteration counting continues across restarts.
    """
    restarts = sorted(
        ((e.at_step if e.at_step is not None else e.at_local_iteration, e.victims) for e in cfg.faults.events),
        key=lambda r: r[0],
    )
    return _restarted_cg(system, cfg.tol, cfg.k_max, restarts, solver="cg-restart")

