"""Nonoverlapping partition of an assembled grid problem.

The grid is cut by single-node separator planes along each axis.  Separator
nodes form the global interface; the remaining nodes fall into box-shaped
subdomain interiors, which gives the block-arrow structure directly: an
interior node only couples to its own interior and to the interface.

Each interface entry is shared by the subdomains whose closed boxes touch
it (2 on a plane, 4 on a 2-D cross point, 8 on a 3-D one) and local
interface blocks are scaled by one over that pair multiplicity, so the
per-subdomain pieces sum back to the assembled blocks exactly and keep the
signs of the assembled entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import LuFactors, SingularMatrixError, SparseMatrix, lu_factorize, lu_solve, submatrix
from .poisson import AssembledProblem

__all__ = [
    "Decomposition",
    "InterfaceMap",
    "LocalSubdomain",
    "check_splits",
    "partition",
    "build_interface_map",
    "extract_local",
    "restrict",
    "prolong",
    "assemble_schur_explicit",
    "decomposition_to_json",
]

INTERIOR_LU_LIMIT = 2000
SCHUR_EXPLICIT_LIMIT = 2000


@dataclass(frozen=True)
class Decomposition:
    """Index bookkeeping for a separator-plane partition.

    ``parts`` and ``local_interfaces`` hold global row ids; ``interface`` is
    the sorted global interface row list and ``owner_count`` its per-entry
    multiplicity.  ``cover_lo``/``cover_hi`` store, per interface entry and
    axis, the contiguous range of subdomain slab indices whose closure
    contains the node (used to derive pair multiplicities).
    """

    p: int
    splits: tuple[int, ...]
    parts: tuple[np.ndarray, ...]
    interface: np.ndarray
    local_interfaces: tuple[np.ndarray, ...]
    owner_count: np.ndarray
    cover_lo: np.ndarray  # (n_interface, d)
    cover_hi: np.ndarray  # (n_interface, d)

    @property
    def n_interface(self) -> int:
        return len(self.interface)


@dataclass(frozen=True)
class InterfaceMap:
    """Local-to-global interface position maps plus neighbor exchange lists.

    ``gamma_positions[i]`` maps subdomain i's local interface slots to
    positions in the global interface vector.  ``shared[(i, j)]`` (i < j)
    lists the global positions both subdomains carry; ``neighbors[i]`` the
    subdomains it shares at least one entry with.
    """

    n_interface: int
    gamma_positions: tuple[np.ndarray, ...]
    shared: dict
    neighbors: tuple[tuple[int, ...], ...]

    def shared_positions(self, i: int, j: int) -> np.ndarray:
        return self.shared[(i, j) if i < j else (j, i)]


@dataclass(frozen=True)
class LocalSubdomain:
    """One subdomain's blocks, right-hand side pieces and interior LU."""

    index: int
    A_II: SparseMatrix
    A_IG: SparseMatrix
    A_GI: SparseMatrix
    A_GG: np.ndarray  # multiplicity-weighted dense interface block
    b_I: np.ndarray
    b_G: np.ndarray  # multiplicity-weighted
    weights: np.ndarray  # diagonal of the local identity share, 1/m per entry
    lu: LuFactors
    interior_rows: np.ndarray
    gamma_rows: np.ndarray
    gamma_positions: np.ndarray

    @property
    def n_interior(self) -> int:
        return len(self.interior_rows)

    @property
    def n_gamma(self) -> int:
        return len(self.gamma_rows)


def _axis_layout(extent: int, split: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate closure range of slab indices along one axis.

    Returns (klo, khi) arrays of length ``extent``: coordinates inside slab k
    get (k, k); a separator between slabs k and k+1 gets (k, k+1).
    """
    interior_total = extent - (split - 1)
    base, rem = divmod(interior_total, split)
    klo = np.empty(extent, dtype=np.int64)
    khi = np.empty(extent, dtype=np.int64)
    c = 0
    for k in range(split):
        size = base + (1 if k < rem else 0)
        klo[c : c + size] = k
        khi[c : c + size] = k
        c += size
        if k < split - 1:
            klo[c] = k
            khi[c] = k + 1
            c += 1
    return klo, khi


def check_splits(dims, splits) -> None:
    """Reject split counts that cannot cut a grid of extents ``dims`` into boxes."""
    if len(splits) != len(dims):
        raise ValueError(f"{len(splits)} counts for a {len(dims)}-D grid")
    if any(s < 1 for s in splits):
        raise ValueError("every split count must be at least 1")
    for ext, s in zip(dims, splits):
        if ext < 2 * s - 1:
            raise ValueError(f"axis of extent {ext} cannot host {s} subdomains plus separators")


def partition(problem: AssembledProblem, splits) -> Decomposition:
    """Cut the grid into prod(splits) box subdomains with plane interfaces."""
    dims = problem.grid.dims
    splits = tuple(int(s) for s in splits)
    check_splits(dims, splits)

    d = len(dims)
    p = int(np.prod(splits))
    coords = problem.node_coords

    axis_klo = []
    axis_khi = []
    for a in range(d):
        klo, khi = _axis_layout(dims[a], splits[a])
        axis_klo.append(klo)
        axis_khi.append(khi)

    node_klo = np.stack([axis_klo[a][coords[:, a]] for a in range(d)], axis=1)
    node_khi = np.stack([axis_khi[a][coords[:, a]] for a in range(d)], axis=1)
    on_sep = node_khi > node_klo
    is_interface = on_sep.any(axis=1)

    interface = np.flatnonzero(is_interface).astype(np.int64)
    cover_lo = node_klo[is_interface]
    cover_hi = node_khi[is_interface]
    owner_count = np.prod(cover_hi - cover_lo + 1, axis=1).astype(np.int64)

    # Interior assignment: flatten the slab multi-index, first axis fastest.
    interior_mask = ~is_interface
    sub = np.zeros(len(coords), dtype=np.int64)
    mult = 1
    for a in range(d):
        sub += node_klo[:, a] * mult
        mult *= splits[a]
    parts = tuple(np.flatnonzero(interior_mask & (sub == i)).astype(np.int64) for i in range(p))

    # Local interface lists: every subdomain whose closure range covers the
    # node in all axes.  Cover ranges are tiny (at most 2 per axis).
    strides = np.cumprod((1,) + splits[:-1])
    local = [[] for _ in range(p)]
    for t in range(len(interface)):
        owners = [0]
        for a in range(d):
            lo, hi = cover_lo[t, a], cover_hi[t, a]
            owners = [o + k * strides[a] for o in owners for k in range(lo, hi + 1)]
        for o in owners:
            local[o].append(interface[t])
    local_interfaces = tuple(np.asarray(ids, dtype=np.int64) for ids in local)

    return Decomposition(
        p=p,
        splits=splits,
        parts=parts,
        interface=interface,
        local_interfaces=local_interfaces,
        owner_count=owner_count,
        cover_lo=cover_lo,
        cover_hi=cover_hi,
    )


def build_interface_map(decomp: Decomposition) -> InterfaceMap:
    gamma_positions = tuple(
        np.searchsorted(decomp.interface, ids).astype(np.int64) for ids in decomp.local_interfaces
    )
    shared = {}
    neighbors = [[] for _ in range(decomp.p)]
    for i in range(decomp.p):
        for j in range(i + 1, decomp.p):
            common = np.intersect1d(gamma_positions[i], gamma_positions[j])
            if common.size:
                shared[(i, j)] = common
                neighbors[i].append(j)
                neighbors[j].append(i)
    return InterfaceMap(
        n_interface=decomp.n_interface,
        gamma_positions=gamma_positions,
        shared=shared,
        neighbors=tuple(tuple(ns) for ns in neighbors),
    )


def _pair_multiplicity(decomp: Decomposition, gpos: np.ndarray) -> np.ndarray:
    """Number of subdomains covering each pair of interface entries in gpos."""
    if gpos.size == 0:
        return np.zeros((0, 0))
    count = np.ones((len(gpos), len(gpos)))
    for a in range(decomp.cover_lo.shape[1]):
        lo = decomp.cover_lo[gpos, a]
        hi = decomp.cover_hi[gpos, a]
        overlap = np.minimum.outer(hi, hi) - np.maximum.outer(lo, lo) + 1
        count *= np.maximum(overlap, 0)
    return count


def extract_local(problem: AssembledProblem, decomp: Decomposition, i: int) -> LocalSubdomain:
    """Gather subdomain i's blocks and factor its interior matrix once."""
    if not 0 <= i < decomp.p:
        raise ValueError(f"subdomain id {i} out of range")
    rows_I = decomp.parts[i]
    rows_G = decomp.local_interfaces[i]
    gpos = np.searchsorted(decomp.interface, rows_G).astype(np.int64)
    if len(rows_I) > INTERIOR_LU_LIMIT:
        raise ValueError(f"subdomain {i}: interior of size {len(rows_I)} exceeds the dense LU cap")

    A = problem.A
    A_II = submatrix(A, rows_I, rows_I)
    A_IG = submatrix(A, rows_I, rows_G)
    A_GI = submatrix(A, rows_G, rows_I)
    A_GG_raw = submatrix(A, rows_G, rows_G).to_dense()

    pair_count = _pair_multiplicity(decomp, gpos)
    if pair_count.size and pair_count.min() < 1:
        raise AssertionError("interface pair without a covering subdomain")
    A_GG = A_GG_raw / pair_count if pair_count.size else A_GG_raw

    weights = 1.0 / decomp.owner_count[gpos] if gpos.size else np.zeros(0)
    b_I = problem.b[rows_I]
    b_G = problem.b[rows_G] * weights if gpos.size else np.zeros(0)

    try:
        lu = lu_factorize(A_II.to_dense())
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"subdomain {i}: interior factorization failed ({exc})") from exc

    return LocalSubdomain(
        index=i,
        A_II=A_II,
        A_IG=A_IG,
        A_GI=A_GI,
        A_GG=A_GG,
        b_I=b_I,
        b_G=b_G,
        weights=weights,
        lu=lu,
        interior_rows=rows_I,
        gamma_rows=rows_G,
        gamma_positions=gpos,
    )


def restrict(imap: InterfaceMap, i: int, x_g: np.ndarray) -> np.ndarray:
    x_g = np.asarray(x_g, dtype=np.float64)
    if x_g.shape != (imap.n_interface,):
        raise ValueError("interface vector has the wrong length")
    return x_g[imap.gamma_positions[i]]


def prolong(imap: InterfaceMap, i: int, x_l: np.ndarray) -> np.ndarray:
    x_l = np.asarray(x_l, dtype=np.float64)
    pos = imap.gamma_positions[i]
    if x_l.shape != pos.shape:
        raise ValueError("local interface vector has the wrong length")
    out = np.zeros(imap.n_interface)
    out[pos] = x_l
    return out


def assemble_schur_explicit(local: LocalSubdomain) -> tuple[np.ndarray, np.ndarray]:
    """Dense local interface complement and its right-hand side.

    Eliminates the interior block through the stored LU factors:
    S = A_GG - A_GI inv(A_II) A_IG and d = b_G - A_GI inv(A_II) b_I.
    """
    if local.n_gamma > SCHUR_EXPLICIT_LIMIT:
        raise ValueError(f"local interface of size {local.n_gamma} exceeds the explicit cap")
    if local.n_gamma == 0:
        return np.zeros((0, 0)), np.zeros(0)
    a_gi = local.A_GI.to_dense()
    if local.n_interior:
        X = lu_solve(local.lu, local.A_IG.to_dense())
        S = local.A_GG - a_gi @ X
        d = local.b_G - a_gi @ lu_solve(local.lu, local.b_I)
    else:
        S = local.A_GG.copy()
        d = local.b_G.copy()
    return S, d


def decomposition_to_json(decomp: Decomposition) -> str:
    """Index lists and multiplicities as JSON, for fixtures and debugging."""
    payload = {
        "p": decomp.p,
        "splits": list(decomp.splits),
        "interior": [part.tolist() for part in decomp.parts],
        "interface": decomp.interface.tolist(),
        "local_interfaces": [ids.tolist() for ids in decomp.local_interfaces],
        "multiplicity": decomp.owner_count.tolist(),
    }
    return json.dumps(payload, indent=2)
