"""Nonoverlapping partition of an assembled grid problem.

The grid is cut by single-node separator planes along each axis.  Separator
nodes form the global interface; the remaining nodes fall into box-shaped
subdomain interiors, which gives the block-arrow structure directly: an
interior node only couples to its own interior and to the interface.

Each interface entry is shared by the subdomains whose closed boxes touch it (2 on a plane, 4 on a
2-D cross point, 8 on a 3-D one), recorded once in ``Decomposition.owners``.  Local interface blocks
are scaled by one over the pair multiplicity (the subdomains owning both entries: the product over
axes of their slab ranges' overlaps), so the per-subdomain pieces sum back to the assembled blocks
exactly and keep the signs of the assembled entries.  A is permuted once, and every block is cut from
its raw CSR arrays by scipy's compiled kernels (``linalg``): only the stored blocks become matrices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from .linalg import SingularMatrixError, gather_rows, submatrix
from .poisson import AssembledProblem

__all__ = [
    "Decomposition",
    "InterfaceMap",
    "LocalSubdomain",
    "LocalSpace",
    "StackedBlocks",
    "InteriorFactors",
    "check_splits",
    "partition",
    "build_interface_map",
    "cut_local_space",
    "stack_blocks",
    "decomposition_to_json",
]


@dataclass(frozen=True)
class Decomposition:
    """Index bookkeeping for a separator-plane partition.

    ``parts`` and ``local_interfaces`` hold global row ids; ``interface`` is
    the sorted global interface row list.  ``owners`` is the one record of
    which subdomains own each interface entry: row t lists, per corner of
    the entry's cover box (the slab range per axis whose closures contain
    the node, at most two slabs wide), that corner's subdomain id, or -1
    where the corner lies outside the range.  Corner c takes slab
    ``lo + bit a of c`` on axis a, so the valid ids of a row ascend.
    ``owner_count`` (its per-row count), ``local_interfaces``, the
    neighbour lists and the pair multiplicities are all read from it.
    """

    p: int
    splits: tuple[int, ...]
    parts: tuple[np.ndarray, ...]
    interface: np.ndarray
    local_interfaces: tuple[np.ndarray, ...]
    owner_count: np.ndarray
    owners: np.ndarray  # (n_interface, 2**d)

    @property
    def n_interface(self) -> int:
        return len(self.interface)


@dataclass(frozen=True)
class InterfaceMap:
    """Local-to-global interface position maps plus neighbor exchange lists.

    ``positions`` maps every subdomain's local interface slots, stacked in
    subdomain order, to positions in the global interface vector; subdomain
    i owns the slots ``offsets[i]:offsets[i + 1]``, and ``gamma_positions[i]``
    is their view.  ``shared[(i, j)]`` (i < j) lists the global positions
    both subdomains carry; ``neighbors[i]`` the subdomains it shares at
    least one entry with.
    """

    n_interface: int
    positions: np.ndarray
    offsets: np.ndarray
    gamma_positions: tuple[np.ndarray, ...]
    shared: dict
    neighbors: tuple[tuple[int, ...], ...]

    def shared_positions(self, i: int, j: int) -> np.ndarray:
        return self.shared[(i, j) if i < j else (j, i)]


@dataclass(frozen=True)
class LocalSubdomain:
    """One subdomain's dense local interface complement ``S = A_GG - A_GI inv(A_II) A_IG`` and its
    right-hand side ``d = b_G - A_GI inv(A_II) b_I``, with A_GG and b_G multiplicity-weighted; the
    diagonal of its identity share (1/m per entry) and its slots' positions in the interface vector."""

    S: np.ndarray
    d: np.ndarray
    weights: np.ndarray
    gamma_positions: np.ndarray

    def update_block(self, m_diag: np.ndarray) -> np.ndarray:
        """The relaxation's update block ``Q_i = diag(w_i) - inv(M_i) S_i``, M the splitting ``m_diag``."""
        return np.diag(self.weights) - (1.0 / m_diag[self.gamma_positions])[:, None] * self.S


@dataclass(frozen=True)
class LocalSpace:
    """The asynchronous workers' blocks over every subdomain's local interface slots, stacked as in
    ``InterfaceMap.positions``, and the interior rows ``StackedBlocks.coupled``.  Its matrix is
    block diagonal by subdomain, each block ``[[A_II, A_IG], [A_GI, weighted A_GG]]``; the update
    reads its slot columns on the coupled and slot rows, ``K_G = [A_IG; A_GG]``, and its slot rows
    at the coupled columns, ``A_GI``; ``b_G`` is the weighted interface right-hand side and
    ``weights`` each slot's identity-share weight."""

    K_G: scipy.sparse.csr_matrix
    A_GI: scipy.sparse.csr_matrix
    b_G: np.ndarray
    weights: np.ndarray


DENSE_INVERSE_FILL = 16  # InteriorFactors' dense-path test: m * m <= DENSE_INVERSE_FILL * lu.nnz


class InteriorFactors:
    """Solves with a block-diagonal A_II, one block per subdomain in ``decomp.parts`` order.

    Each distinct block is factored once: blocks are keyed by their exact CSR
    content (size, ``indptr``, ``indices``, ``data``), so bitwise-equal blocks
    share a SuperLU factor (``factors``; it raises on a singular block and
    gives the fill; ``copies`` holds each factor's copies' first stacked rows)
    and any other block gets its own.  ``solve`` makes one product per factor
    over its copies' pieces of b: SuperLU's multi-column solve or, for a block
    of size m small against its fill (``m * m <= DENSE_INVERSE_FILL *
    lu.nnz``), one GEMM with its inverse, formed once as ``lu.solve(eye(m))``
    and kept transposed in ``inverses`` (else None); the paths differ in the
    last bits.  Crossover, as SuperLU time over GEMM time at 8, 16, 64 and 256
    columns (one BLAS thread, 2 cores), m * m / lu.nnz in brackets: 15**2
    [14.4] 1.6-2.6, 17**2 [17.3] 1.1-1.9, 19**2 [20.2] 0.7-1.5, 25**2 [30.9]
    0.5-1.0; 7**3 [9.5] 1.7-2.4, 8**3 [10.9] 1.1-2.1, 9**3 [14.2] 0.6-1.7; 1-D
    200 [50.1] 1.0-1.2.  So the ladder's and suite's blocks (at most 15**2 and
    7**3) take the GEMM; the 511**2/8x8 and 47**3/2x2x2 rungs' 63**2 [128.5]
    and 23**3 [44.4] blocks take SuperLU.  The ratio alone misplaces some
    blocks: 9**3 takes the GEMM, slower there at 8 and 16 copies (0.6-0.7; 1.1
    at 64), and 8**3 read 0.77 at 8 copies in one of two passes.

    The interface operator reads the interior only on the rows that couple to
    the interface (``touched``: an entry in A_IG or in a column of A_GI).  Per
    distinct block, B is the union of its copies' touched local rows, so one
    product still serves every copy; ``coupled`` lists, ascending, the stacked
    rows ``lo + B`` of every copy, and ``solve_coupled`` applies
    ``inv(A_II)[coupled, coupled]``: on the dense path one GEMM per block with
    the gathered ``inv_t[B, B]``, a block with B empty skipped.  SuperLU solves
    whole blocks, so there B is every row and the product is that of ``solve``.
    """

    def __init__(self, A_II: scipy.sparse.csr_matrix, sizes, touched: np.ndarray):
        A_II = A_II.tocsr()
        A_II.sort_indices()
        ptr, starts, copies = A_II.indptr, np.cumsum([0, *sizes]), {}
        rows = np.flatnonzero(np.diff(ptr))  # the columns being sorted, each row's first and last settle it
        owner = np.repeat(np.arange(len(sizes)), sizes)[rows]
        if ((A_II.indices[ptr[rows]] < starts[owner]) | (A_II.indices[ptr[rows + 1] - 1] >= starts[owner + 1])).any():
            raise ValueError("interiors of different subdomains are coupled")
        for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
            p0, p1 = ptr[lo], ptr[hi]
            key = (hi - lo, (ptr[lo:hi + 1] - p0).tobytes(), (A_II.indices[p0:p1] - lo).tobytes(),
                   A_II.data[p0:p1].tobytes())
            copies.setdefault(key, []).append(lo)
        # Per distinct block: factor, transposed inverse or None, size, copies' rows (copies, m), B.
        blocks, on = [], np.zeros(len(touched), dtype=bool)
        for (m, *_), los in copies.items():
            lu = scipy.sparse.linalg.splu(A_II[los[0]:los[0] + m, los[0]:los[0] + m].tocsc(), "MMD_AT_PLUS_A",
                                          options={"SymmetricMode": True})
            inv_t = np.ascontiguousarray(lu.solve(np.eye(m)).T) if m * m <= DENSE_INVERSE_FILL * lu.nnz else None
            rows = np.add.outer(los, np.arange(m))
            B = np.flatnonzero(touched[rows].any(axis=0)) if inv_t is not None else np.arange(m)
            on[rows[:, B]] = True
            blocks.append((lu, inv_t, m, rows, B))
        self.coupled = np.flatnonzero(on)
        one = len(blocks) == 1  # then its copies tile b, and c, in order: no index arrays
        # Per product: factor, matrix or None (SuperLU), piece size, the copies' positions in the vector.
        self._copies = [(lu, inv_t, m, slice(None) if one else rows.ravel()) for lu, inv_t, m, rows, _ in blocks]
        self._coupled = [(lu, None if inv_t is None else inv_t[np.ix_(B, B)], len(B),
                          slice(None) if one else np.searchsorted(self.coupled, rows[:, B].ravel()))
                         for lu, inv_t, _, rows, B in blocks if len(B)]
        self.factors, self.inverses = [c[0] for c in self._copies], [c[1] for c in self._copies]
        self.copies = [rows[:, 0] for *_, rows, _ in blocks]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``inv(A_II) b``: per factor, its copies' pieces of b as the rows of one (copies, m) array."""
        return _per_block(self._copies, b)

    def solve_coupled(self, c: np.ndarray) -> np.ndarray:
        """``inv(A_II)[coupled, coupled] c`` for c on the ``coupled`` rows: per block, its copies' pieces
        of c as the rows of one (copies, |B|) array."""
        return _per_block(self._coupled, c)

    def solve_coupled_rows(self, C: np.ndarray) -> np.ndarray:
        """``solve_coupled`` of each row of C, in one product per block: each block's pieces of every row."""
        rows = np.arange(len(C))[:, None] * C.shape[1]  # where each row of C starts in its ravel
        products = [(*f, at if isinstance(at, slice) else (rows + at).ravel()) for *f, at in self._coupled]
        return _per_block(products, C.ravel()).reshape(C.shape)


def _per_block(products, b: np.ndarray) -> np.ndarray:
    """One product per block over its copies' pieces of b: a GEMM with the matrix, or SuperLU's solve.
    A product at ``slice(None)`` is the only one and tiles b, so its raveled result is the vector."""
    x = None if products and isinstance(products[0][3], slice) else np.empty(len(b))
    for lu, mat, n, at in products:
        pieces = b[at].reshape(-1, n)
        out = (pieces @ mat if mat is not None else lu.solve(pieces.T).T).ravel()
        if x is None:
            return out
        x[at] = out
    return x


@dataclass(frozen=True)
class StackedBlocks:
    """All interiors, concatenated from ``decomp.parts``, against the sorted interface:
    assembled (unweighted) blocks in canonical CSR, and ``lu``, the solver of the
    block-diagonal A_II with one factor per distinct subdomain block.  A_IG and A_GI
    keep only the interior rows and columns ``coupled`` (``lu.coupled``, positions in
    ``interior``): every interior entry either block has lies there, so its products
    sum the same entries in the same order as the full blocks'."""

    interior: np.ndarray
    coupled: np.ndarray
    A_IG: scipy.sparse.csr_matrix  # rows ``coupled``
    A_GI: scipy.sparse.csr_matrix  # columns ``coupled``
    A_GG: scipy.sparse.csr_matrix
    b_I: np.ndarray
    b_G: np.ndarray
    lu: InteriorFactors


def _axis_layout(extent: int, split: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate closure range of slab indices along one axis.

    Returns (klo, khi) arrays of length ``extent``: coordinates inside slab k
    get (k, k); a separator between slabs k and k+1 gets (k, k+1).  The
    first slabs take the remainder of the interior width.
    """
    base, rem = divmod(extent - (split - 1), split)
    seps = np.cumsum(base + 1 + (np.arange(split - 1) < rem)) - 1  # each slab's width plus its separator
    coords = np.arange(extent)
    return np.searchsorted(seps, coords), np.searchsorted(seps, coords, side="right")  # separators below, at or below


def check_splits(dims, splits) -> None:
    """Reject split counts that cannot cut a grid of extents ``dims`` into boxes."""
    if len(splits) != len(dims):
        raise ValueError(f"{len(splits)} counts for a {len(dims)}-D grid")
    if any(s < 1 for s in splits):
        raise ValueError("every split count must be at least 1")
    for ext, s in zip(dims, splits):
        if ext < 2 * s - 1:
            raise ValueError(f"axis of extent {ext} cannot host {s} subdomains plus separators")


def _cut(values: np.ndarray, ends: list[int]) -> list[np.ndarray]:
    """``values`` cut into consecutive views ending at the ascending ``ends``."""
    return [values[lo:hi] for lo, hi in zip([0, *ends[:-1]], ends)]


def _split_by(keys: np.ndarray, values: np.ndarray, n: int) -> list[np.ndarray]:
    """``values`` grouped by integer key 0..n-1, in their order within a group."""
    return _cut(values[np.argsort(keys, kind="stable")], np.cumsum(np.bincount(keys, minlength=n)).tolist())


def partition(problem: AssembledProblem, splits) -> Decomposition:
    """Cut the grid into prod(splits) box subdomains with plane interfaces."""
    dims = problem.grid.dims
    splits = tuple(int(s) for s in splits)
    check_splits(dims, splits)

    d = len(dims)
    p = int(np.prod(splits))
    strides = np.cumprod((1,) + splits[:-1])
    # Per node, on the grid's array axes (x last): the slab id of its cover box's
    # low corner, first axis fastest, and one bit per axis on which it is a separator.
    low = sep = 0
    for a in range(d):
        klo, khi = _axis_layout(dims[a], splits[a])
        low = low + (klo * strides[a]).reshape((-1,) + (1,) * a)
        sep = sep | ((khi - klo) << a).reshape((-1,) + (1,) * a)
    low, sep = low.ravel(), sep.ravel()
    interface = np.flatnonzero(sep)
    interior = np.flatnonzero(sep == 0)
    parts = tuple(_split_by(low[interior], interior, p))

    # Owners: one subdomain per corner of each entry's cover box; corner c
    # lies in the box when each of its bits is a separator axis of the entry.
    corners = np.arange(2**d)
    inside = (corners & ~sep[interface, None]) == 0
    owners = np.where(inside, low[interface, None] + (((corners[:, None] >> np.arange(d)) & 1) * strides).sum(1), -1)
    owner_count = np.count_nonzero(inside, axis=1).astype(np.int64)
    local_interfaces = tuple(_split_by(owners[inside], np.repeat(interface, owner_count), p))

    return Decomposition(
        p=p,
        splits=splits,
        parts=parts,
        interface=interface,
        local_interfaces=local_interfaces,
        owner_count=owner_count,
        owners=owners,
    )


def build_interface_map(decomp: Decomposition) -> InterfaceMap:
    offsets = np.cumsum([0] + [len(ids) for ids in decomp.local_interfaces])
    positions = np.searchsorted(decomp.interface, np.concatenate(decomp.local_interfaces))
    # Two owners of one entry share it.  Valid ids ascend along a row, so a
    # corner pair a < b yields a subdomain pair i < j; the entries t ascend,
    # and a stable sort by pair keeps them ascending within each pair.
    p, owners = decomp.p, decomp.owners
    a, b = np.triu_indices(owners.shape[1], k=1)
    t, q = np.nonzero((owners[:, a] >= 0) & (owners[:, b] >= 0))
    key = owners[t, a[q]] * p + owners[t, b[q]]
    order = np.argsort(key, kind="stable")
    key, t = key[order], t[order]
    ends = np.flatnonzero(np.diff(key, append=p * p)) + 1  # where the pair changes; no key reaches p * p
    i, j = np.divmod(key[ends - 1], p)
    shared = dict(zip(zip(i.tolist(), j.tolist()), _cut(t, ends.tolist())))
    # Lower neighbours first, then higher ones, so each list ascends.
    neighbors = _split_by(np.concatenate([j, i]), np.concatenate([i, j]), p)
    return InterfaceMap(
        n_interface=decomp.n_interface,
        positions=positions,
        offsets=offsets,
        gamma_positions=tuple(_cut(positions, offsets[1:].tolist())),
        shared=shared,
        neighbors=tuple(tuple(ns.tolist()) for ns in neighbors),
    )


def stack_blocks(problem: AssembledProblem, decomp: Decomposition) -> StackedBlocks:
    """Gather the stacked interior and interface blocks and factor each distinct interior block once.
    A is permuted once, interiors first, into raw CSR arrays, and only the stored blocks cut from them."""
    interior = np.concatenate(decomp.parts)
    A, n, n_i = problem.A.csr, problem.A.nrows, len(interior)
    order = np.concatenate([interior, decomp.interface])
    inverse = np.empty(n, dtype=A.indices.dtype)
    inverse[order] = np.arange(n)
    P = gather_rows(A, order, inverse)  # canonical A[order][:, order]
    IG, GI = submatrix(P, n, 0, n_i, n_i, n), submatrix(P, n, n_i, n, 0, n_i)
    touched = np.diff(IG[2]) > 0
    touched[GI[1]] = True  # the columns of A_GI
    try:
        A_II = scipy.sparse.csr_matrix(submatrix(P, n, 0, n_i, 0, n_i), shape=(n_i, n_i))
        lu = InteriorFactors(A_II, [len(part) for part in decomp.parts], touched)
    except RuntimeError as exc:
        raise SingularMatrixError(f"stacked interior factorization failed ({exc})") from exc
    coupled, n_g = lu.coupled, n - n_i  # A_IG's other rows are empty; ``coupled`` ascends and holds A_GI's columns
    A_IG = scipy.sparse.csr_matrix((*IG[:2], IG[2][np.append(coupled, n_i)]), shape=(len(coupled), n_g))
    column = np.empty(n_i, dtype=GI[1].dtype)
    column[coupled] = np.arange(len(coupled))
    A_GI = scipy.sparse.csr_matrix((GI[0], column[GI[1]], GI[2]), shape=(n_g, len(coupled)))
    A_GG = scipy.sparse.csr_matrix(submatrix(P, n, n_i, n, n_i, n), shape=(n_g, n_g))
    return StackedBlocks(interior, coupled, A_IG, A_GI, A_GG, problem.b[interior], problem.b[decomp.interface], lu)


def cut_local_space(blocks: StackedBlocks, decomp: Decomposition, imap: InterfaceMap) -> LocalSpace:
    """The workers' blocks cut from the stacked ones: each subdomain's coupled rows of A_IG, and its slots'
    rows of A_GG (each entry over its pair multiplicity, the subdomains owning both) and of A_GI, keeping the
    entries whose column is a slot or an interior row of the same subdomain.  The multiplicity is the product
    over axes of the two entries' slab-range overlaps, each range read from ``decomp.owners``."""
    positions, n_c, p, owners = imap.positions, len(blocks.coupled), decomp.p, decomp.owners
    owner_G = np.repeat(np.arange(p), np.diff(imap.offsets))
    owner_c = np.repeat(np.arange(p), [len(part) for part in decomp.parts])[blocks.coupled]
    IG, GG = blocks.A_IG, gather_rows(blocks.A_GG, positions)
    rows = (np.concatenate([IG.data, GG[0]]), np.concatenate([IG.indices, GG[1]]),
            np.concatenate([IG.indptr, GG[2][1:] + IG.nnz]))
    data, cols, ptr = _own(rows, np.concatenate([owner_c, owner_G]), owner_G * imap.n_interface + positions,
                           imap.n_interface)
    cut = ptr[n_c]
    r, c, count = np.repeat(positions, np.diff(ptr[n_c:])), positions[cols[cut:]], 1
    for a, (stride, split) in enumerate(zip(np.cumprod((1,) + decomp.splits[:-1]), decomp.splits)):
        lo = owners[:, 0] // stride % split  # column 0 is the low corner
        hi = lo + (owners[:, 1 << a] >= 0)  # column 1 << a is valid when the range spans two slabs on axis a
        count = count * (np.minimum(hi[r], hi[c]) - np.maximum(lo[r], lo[c]) + 1)
    data[cut:] /= count
    K_G = scipy.sparse.csr_matrix((data, cols, ptr), shape=(len(ptr) - 1, len(positions)))
    GI = _own(gather_rows(blocks.A_GI, positions), owner_G, owner_c * n_c + np.arange(n_c), n_c)
    A_GI = scipy.sparse.csr_matrix(GI, shape=(len(positions), n_c))
    weights = 1.0 / decomp.owner_count[positions]
    return LocalSpace(K_G, A_GI, blocks.b_G[positions] * weights, weights)


def _own(M: tuple, owner: np.ndarray, keys: np.ndarray, n: int) -> tuple:
    """The entries of the CSR arrays ``M = (data, indices, indptr)`` whose key ``owner[row] * n + column`` is
    in the ascending ``keys``, each in the column of its key's index (per row, the columns keep their order)."""
    data, indices, indptr = M
    key = np.repeat(owner, np.diff(indptr)) * n + indices
    at = np.searchsorted(keys, key)
    keep = keys.take(at, mode="clip") == key
    return data[keep], at[keep], np.append(0, np.cumsum(keep))[indptr]


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
