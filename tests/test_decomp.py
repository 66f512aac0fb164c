import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aschur.decomp import (
    InteriorFactors,
    _per_block,
    build_interface_map,
    decomposition_to_json,
    partition,
    stack_blocks,
    update_matrix,
)
from aschur.linalg import SingularMatrixError, SparseMatrix, gather_rows
from aschur.poisson import GridSpec, assemble, exact_solution
from aschur.runtime import AsyncSimulator, LinkTables, RuntimeConfig
from aschur.solvers import SchurSystem, apply_interface_operator
from aschur.splitting import build_splitting, interface_diagonal
from conftest import (
    all_pairs_reference,
    assemble_interface_operator,
    dense_complement,
    lattice_coords,
    local_complements,
    reference_subdomains,
)


def test_partition_1d_3_nodes():
    prob = assemble(GridSpec(dims=(3,)))
    dec = partition(prob, (2,))
    assert [p.tolist() for p in dec.parts] == [[0], [2]]
    assert dec.interface.tolist() == [1]
    assert dec.owner_count.tolist() == [2]


def test_partition_1d_7_nodes_balanced():
    prob = assemble(GridSpec(dims=(7,)))
    dec = partition(prob, (2,))
    assert dec.interface.tolist() == [3]
    assert [len(p) for p in dec.parts] == [3, 3]


def test_partition_2d_middle_column():
    prob = assemble(GridSpec(dims=(3, 3)))
    dec = partition(prob, (2, 1))
    assert dec.interface.tolist() == [1, 4, 7]
    assert [len(p) for p in dec.parts] == [3, 3]
    assert dec.owner_count.tolist() == [2, 2, 2]


def test_partition_cross_point_multiplicity():
    prob = assemble(GridSpec(dims=(3, 3)))
    dec = partition(prob, (2, 2))
    # center node sits on both separator planes
    center = 4
    t = dec.interface.tolist().index(center)
    assert dec.owner_count[t] == 4
    assert all(center in ids for ids in dec.local_interfaces)


def test_partition_rejects_infeasible_splits():
    prob = assemble(GridSpec(dims=(3,)))
    with pytest.raises(ValueError):
        partition(prob, (3,))
    with pytest.raises(ValueError):
        partition(prob, (2, 2))
    with pytest.raises(ValueError):
        partition(prob, (0,))


def test_partition_indices_cover_everything_once(suite):
    for case in suite.values():
        dec = case.decomp
        seen = np.concatenate([*dec.parts, dec.interface])
        assert len(seen) == case.problem.A.nrows
        assert len(np.unique(seen)) == len(seen)
        assert np.all(dec.owner_count >= 1)


def test_block_arrow_structure(suite):
    # every interior node couples only inside its own part or into the interface
    for case in suite.values():
        dense = case.problem.A.csr.toarray()
        iface = set(case.decomp.interface.tolist())
        for i, part in enumerate(case.decomp.parts):
            own = set(part.tolist())
            for row in part:
                for col in np.flatnonzero(dense[row]):
                    assert int(col) in own or int(col) in iface


def test_sparse_blocks_are_canonical_csr(suite):
    # Sorted indices without duplicates fix the order in which every row of every product sums.
    for case in suite.values():
        blocks = [getattr(case.system.blocks, f) for f in ("A_IG", "A_GI", "A_GG")]
        blocks += [case.system.local_space.K_G, case.system.local_space.A_GI]
        for m in blocks:
            assert isinstance(m, scipy.sparse.csr_matrix) and m.has_canonical_format, case.name


def test_extract_local_1d_hand_values(tiny_1d):
    loc = reference_subdomains(tiny_1d.system)[0]
    np.testing.assert_array_equal(loc.A_II.toarray(), [[2.0]])
    np.testing.assert_array_equal(loc.A_IG.toarray(), [[-1.0]])
    np.testing.assert_array_equal(loc.A_GG, [[1.0]])
    np.testing.assert_array_equal(loc.weights, [0.5])
    np.testing.assert_array_equal(loc.b_G, [0.5])


def test_extract_local_single_subdomain_degenerate():
    prob = assemble(GridSpec(dims=(5,)))
    dec = partition(prob, (1,))
    assert dec.n_interface == 0
    system = SchurSystem.build(prob, dec)
    (loc,) = reference_subdomains(system)
    np.testing.assert_array_equal(loc.A_II.toarray(), prob.A.csr.toarray())
    assert loc.n_gamma == 0
    assert loc.A_GG.shape == (0, 0)
    assert system.subdomains.shape == (0, 0) and system.imap.weights.shape == (0,)
    ((S, d),) = local_complements(system)
    assert S.shape == (0, 0) and d.shape == system.imap.gamma_positions[0].shape == (0,)


def test_reassembly_is_exact(suite):
    # prolonged weighted blocks telescope back to the assembled interface block
    for case in suite.values():
        dec = case.decomp
        n = dec.n_interface
        acc = np.zeros((n, n))
        wacc = np.zeros(n)
        for loc in reference_subdomains(case.system):
            pos = loc.gamma_positions
            acc[np.ix_(pos, pos)] += loc.A_GG
            wacc[pos] += loc.weights
        target = case.problem.A.csr.toarray()[np.ix_(dec.interface, dec.interface)]
        np.testing.assert_array_equal(acc, target)
        np.testing.assert_array_equal(wacc, np.ones(n))


def test_sign_compatibility_of_weighted_blocks(suite):
    for case in suite.values():
        dec = case.decomp
        target = case.problem.A.csr.toarray()[np.ix_(dec.interface, dec.interface)]
        for loc in reference_subdomains(case.system):
            block = target[np.ix_(loc.gamma_positions, loc.gamma_positions)]
            prod = loc.A_GG * block
            assert np.all(prod >= 0.0)
            assert np.array_equal(loc.A_GG == 0.0, block == 0.0)


def test_neighbor_lists_symmetric(suite):
    for case in suite.values():
        lk, imap = case.system.links, case.system.imap
        links = list(zip(lk.link_src.tolist(), lk.link_dst.tolist()))
        assert len(set(links)) == len(links)
        for (i, j), slots in zip(links, lk.link_slots, strict=True):
            assert i != j and (j, i) in links
            assert len(np.unique(imap.positions[slots])) == len(slots)
        for i, pos in enumerate(imap.gamma_positions):
            assert len(np.unique(pos)) == len(pos)


def _assert_links_match(lk, imap, shared, neighbors):
    """The link tables against per-pair shared positions (``shared[(i, j)]``, i < j) and neighbour lists: each
    worker's neighbours in order, each link's slots at the pair's shared positions among its sender's slots,
    and each merge entry at one position in its sender's and its receiver's slots."""
    links = list(zip(lk.link_src.tolist(), lk.link_dst.tolist()))
    assert links == [(i, j) for i, ns in enumerate(neighbors) for j in ns]
    for (i, j), slots in zip(links, lk.link_slots, strict=True):
        assert _same(imap.positions[slots], shared[(min(i, j), max(i, j))]), (i, j)
        assert np.all((imap.offsets[i] <= slots) & (slots < imap.offsets[i + 1])), (i, j)
    assert _same(lk.e_dst, np.concatenate([np.zeros(0, dtype=np.intp), *lk.link_slots]))
    owner = np.repeat(np.arange(len(neighbors)), np.diff(imap.offsets))
    assert np.array_equal(imap.positions[lk.e_src], imap.positions[lk.e_dst])
    assert np.array_equal(owner[lk.e_src], lk.link_src[lk.e_link])  # link j -> i carries j's slot
    assert np.array_equal(owner[lk.e_dst], lk.link_dst[lk.e_link])


def _in_closed_boxes(problem, dec):
    """(p, n_interface) mask: entry in the subdomain's interior extent widened by one node each side."""
    coords = lattice_coords(problem.grid.dims)
    lo = np.array([coords[part].min(axis=0) - 1 for part in dec.parts])
    hi = np.array([coords[part].max(axis=0) + 1 for part in dec.parts])
    c = coords[dec.interface]
    return ((lo[:, None, :] <= c) & (c <= hi[:, None, :])).all(axis=2)


def _cases(suite, extra):
    if extra is None:
        return [(case.problem, case.decomp) for case in suite.values()]
    problem = assemble(GridSpec(dims=extra[0]))
    return [(problem, partition(problem, extra[1]))]


@pytest.mark.parametrize("extra", [None, ((9, 9, 9), (3, 3, 3)), ((17, 17), (4, 4))], ids=["suite", "3d-p27", "2d-p16"])
def test_interface_map_matches_all_pairs_reference(suite, extra):
    for problem, dec in _cases(suite, extra):
        system = SchurSystem.build(problem, dec)
        subdomains, imap = reference_subdomains(system), system.imap
        _assert_links_match(system.links, imap, *all_pairs_reference(imap.gamma_positions))
        owned = _in_closed_boxes(problem, dec)
        dense = problem.A.csr.toarray()
        for i in range(dec.p):
            rows = dec.local_interfaces[i]
            np.testing.assert_array_equal(rows, dec.interface[owned[i]])
            inside = owned[:, owned[i]].astype(float)
            count = inside.T @ inside  # pair count from the cover ranges
            assert count.min(initial=1) >= 1
            expected = dense[np.ix_(rows, rows)] / count
            np.testing.assert_array_equal(subdomains[i].A_GG, expected)


def _same(a, b):
    if scipy.sparse.issparse(a):
        return a.shape == b.shape and all(_same(getattr(a, f), getattr(b, f)) for f in ("indptr", "indices", "data"))
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "extra", [None, ((9, 9, 9), (3, 3, 3)), ((17, 17), (4, 4)), ((7, 5), (1, 1))],
    ids=["suite", "3d-p27", "2d-p16", "2d-p1"],
)
def test_local_space_matches_per_subdomain_reference(suite, extra):
    # The update's blocks, cut from the stacked ones, equal bit for bit the
    # per-subdomain gathers of A assembled block by block on the coupled interior
    # rows, with the pair and owner counts from the closed boxes; c is the
    # interior solve of the gathered b_I on those rows.
    for problem, dec in _cases(suite, extra):
        system = SchurSystem.build(problem, dec)
        ref = reference_subdomains(system, _in_closed_boxes(problem, dec))
        diag = lambda blocks: scipy.sparse.block_diag(blocks, format="csr")  # noqa: E731
        coupled = system.blocks.coupled
        expected = {
            "K_G": scipy.sparse.vstack([diag([s.A_IG for s in ref])[coupled],
                                        diag([scipy.sparse.csr_matrix(s.A_GG) for s in ref])], format="csr"),
            "A_GI": diag([s.A_GI for s in ref])[:, coupled],
            "b_G": np.concatenate([s.b_G for s in ref]),
            "weights": np.concatenate([s.weights for s in ref]),
            "positions": np.concatenate([s.gamma_positions for s in ref]),
            "offsets": np.cumsum([0] + [s.n_gamma for s in ref]),
        }
        for field, value in expected.items():
            owner = system.imap if field in ("positions", "offsets", "weights") else system.local_space
            assert _same(getattr(owner, field), value), (dec.splits, field)
        assert _same(system.c, system.blocks.lu.solve(np.concatenate([s.b_I for s in ref]))[coupled]), dec.splits


@pytest.mark.parametrize("dims, splits", [((31,), (8,)), ((9, 1, 7), (3, 1, 2)), ((1, 9), (1, 3)), ((7, 7, 5), (2, 2, 1)),
                                          ((17, 5, 9), (3, 2, 4)), ((9, 9, 9), (3, 3, 3)), ((17, 17), (4, 4))])
def test_pair_multiplicity_matches_the_owner_broadcast(dims, splits):
    # The oracle compares every owner of an A_GG entry's row with every owner of its column:
    # an (entries, 2^d, 2^d) broadcast over ``decomp.owners``.
    problem = assemble(GridSpec(dims=dims))
    dec = partition(problem, splits)
    system = SchurSystem.build(problem, dec)
    K_G, positions, n_c = system.local_space.K_G, system.imap.positions, len(system.blocks.coupled)
    cut = K_G.indptr[n_c]
    r, c = np.repeat(positions, np.diff(K_G.indptr[n_c:])), positions[K_G.indices[cut:]]
    o_r, o_c = dec.owners[r][:, :, None], dec.owners[c][:, None, :]
    count = ((o_r == o_c) & (o_r >= 0)).sum(axis=(1, 2))
    assert count.min(initial=1) >= 1 and count.max(initial=1) == 2 ** sum(s > 1 for s in splits)
    expected = np.asarray(system.blocks.A_GG[r, c]).ravel() / count
    assert np.array_equal(K_G.data[cut:], expected), (dims, splits)


def test_schur_explicit_1d_hand_values(tiny_1d):
    imap = tiny_1d.system.imap
    for i, (S, d) in enumerate(local_complements(tiny_1d.system)):
        np.testing.assert_allclose(S, [[0.5]], atol=1e-14)
        np.testing.assert_allclose(d, [1.0], atol=1e-14)
        np.testing.assert_array_equal(imap.weights[imap.offsets[i]:imap.offsets[i + 1]], [0.5])
        np.testing.assert_array_equal(imap.gamma_positions[i], [0])
    assert i == 1


@pytest.mark.parametrize("alpha", [1.0, 1.4])
def test_update_matrix_is_the_dense_update_blocks_bit_for_bit(suite, alpha):
    # The oracle forms each block ``diag(w_i) - inv(M_i) S_i`` densely, one subdomain at a time, and the
    # simulator's ``f`` as ``inv(M_i) d_i``.
    for case in suite.values():
        imap, offsets = case.system.imap, case.system.imap.offsets
        split = build_splitting(interface_diagonal(case.problem, case.decomp), alpha=alpha)
        m = split.m_diag
        Q, f = update_matrix(case.system.subdomains, imap, m), AsyncSimulator(case.system, split, RuntimeConfig())._f
        dense, sizes = Q.toarray(), np.diff(offsets)
        owner = np.repeat(np.arange(len(sizes)), sizes)
        rows = np.repeat(np.arange(Q.shape[0]), np.diff(Q.indptr))
        assert Q.nnz == sizes @ sizes and np.array_equal(owner[rows], owner[Q.indices]), case.name
        for (S, d), pos, lo, hi in zip(local_complements(case.system), imap.gamma_positions, offsets[:-1], offsets[1:]):
            minv = 1.0 / m[pos]
            assert _same(dense[lo:hi, lo:hi], np.diag(imap.weights[lo:hi]) - minv[:, None] * S), (case.name, lo)
            assert _same(f[lo:hi], minv * d), (case.name, lo)
            dense[lo:hi, lo:hi] = 0.0
        assert not dense.any(), case.name


def test_update_matrix_never_reads_the_padding(suite):
    # The stacked complement pads each subdomain's rows to the largest local interface; with every
    # padding cell NaN, Q keeps its bits.
    padded = 0
    for case in suite.values():
        imap, S = case.system.imap, case.system.subdomains.copy()
        sizes = np.diff(imap.offsets)
        pad = np.arange(S.shape[1]) >= np.repeat(sizes, sizes)[:, None]
        S[pad] = np.nan
        padded += np.count_nonzero(pad)
        Q = update_matrix(case.system.subdomains, imap, case.split.m_diag)
        assert _same(update_matrix(S, imap, case.split.m_diag), Q), case.name
    assert padded


def test_schur_explicit_consistency_with_direct_solve(tiny_1d):
    S, d = assemble_interface_operator(tiny_1d.system)
    np.testing.assert_allclose(S @ np.array([2.0]), d, atol=1e-12)


def test_schur_explicit_rejects_oversized_interface(monkeypatch):
    # 5^2/2x2: 4 interior rows and 5 interface slots per subdomain, so a cap of 4
    # leaves the interface, not the interior, over it.
    prob = assemble(GridSpec(dims=(5, 5)))
    dec = partition(prob, (2, 2))
    assert {len(part) for part in dec.parts} == {4} and {len(ids) for ids in dec.local_interfaces} == {5}
    monkeypatch.setattr("aschur.solvers.DENSE_OP_LIMIT", 4)
    with pytest.raises(ValueError, match="exceed the explicit cap"):
        SchurSystem.build(prob, dec).subdomains
    monkeypatch.setattr("aschur.solvers.DENSE_OP_LIMIT", 5)
    assert SchurSystem.build(prob, dec).subdomains.shape == (20, 5)


def test_schur_explicit_rejects_oversized_interior():
    # 4003/2: 2,001 interior rows and one interface row per subdomain, so the
    # dense interior block, not the interface, is over the cap.
    prob = assemble(GridSpec(dims=(4003,)))
    dec = partition(prob, (2,))
    assert [len(part) for part in dec.parts] == [2001, 2001] and [len(ids) for ids in dec.local_interfaces] == [1, 1]
    with pytest.raises(ValueError, match="exceed the explicit cap"):
        SchurSystem.build(prob, dec).subdomains


def test_schur_equals_interface_block_when_decoupled(tiny_1d):
    # Without the interior-to-interface entries (A_IG = 0), each complement is its weighted A_GG exactly.
    dense = tiny_1d.problem.A.csr.toarray()
    dense[np.ix_([0, 2], [1])] = 0.0
    m = scipy.sparse.csr_matrix(dense)
    problem = replace(tiny_1d.problem, A=SparseMatrix(3, 3, m.indptr, m.indices, m.data))
    system = SchurSystem.build(problem, tiny_1d.decomp)
    for (S, _), ref in zip(local_complements(system), reference_subdomains(system), strict=True):
        assert ref.A_IG.nnz == 0
        np.testing.assert_array_equal(S, ref.A_GG)


def test_interface_solution_matches_direct_solve(suite):
    for case in suite.values():
        S, d = assemble_interface_operator(case.system)
        x_g = np.linalg.solve(S, d)
        direct = exact_solution(case.problem)[case.decomp.interface]
        assert np.linalg.norm(x_g - direct) <= 1e-8 * max(np.linalg.norm(direct), 1e-30)


def test_decomposition_json_dump(tiny_1d):
    payload = json.loads(decomposition_to_json(tiny_1d.decomp))
    assert payload["p"] == 2
    assert payload["interior"] == [[0], [2]]
    assert payload["interface"] == [1]
    assert payload["local_interfaces"] == [[1], [1]]
    assert payload["multiplicity"] == [2]


def test_stack_blocks_rejects_singular_interior(tiny_1d):
    from dataclasses import replace

    A = tiny_1d.problem.A
    values = A.values.copy()
    values[A.row_offsets[0] : A.row_offsets[1]] = 0.0  # row 0 is subdomain 0's interior
    singular = replace(tiny_1d.problem, A=SparseMatrix(A.nrows, A.ncols, A.row_offsets, A.col_indices, values))
    with pytest.raises(SingularMatrixError, match="stacked interior factorization"):
        stack_blocks(singular, tiny_1d.decomp)


# name, dims, splits, distinct interior box shapes
INTERIOR_GRIDS = [("1d-6-p1", (6,), (1,), 1), ("2d-13x13-p6", (13, 13), (3, 2), 2),
                  ("3d-10x10x10-p27", (10, 10, 10), (3, 3, 3), 8), ("2d-15x15-p8", (15, 15), (4, 2), 1)]


def _box_shapes(problem, decomp) -> set:
    """The distinct extents of the subdomain boxes, read from the node coordinates."""
    coords = lattice_coords(problem.grid.dims)
    return {tuple(np.ptp(coords[part], axis=0) + 1) for part in decomp.parts}


def _check_against_one_stacked_factor(problem, blocks):
    # Reference: one sparse LU of the whole block-diagonal interior matrix.
    A_II = problem.A.csr[blocks.interior][:, blocks.interior].tocsc()
    b = np.random.default_rng(0).standard_normal(len(blocks.interior))
    ref = scipy.sparse.linalg.splu(A_II).solve(b)
    x = blocks.lu.solve(b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    np.testing.assert_allclose(A_II @ x, b, rtol=0, atol=1e-11 * np.abs(b).max())


def test_interior_solve_matches_one_stacked_factor_on_the_suite(suite):
    for case in suite.values():
        _check_against_one_stacked_factor(case.problem, case.system.blocks)
        assert len(case.system.blocks.lu.factors) == len(_box_shapes(case.problem, case.decomp))


@pytest.mark.parametrize("name, dims, splits, shapes", INTERIOR_GRIDS, ids=[g[0] for g in INTERIOR_GRIDS])
def test_one_factor_per_distinct_interior_box(name, dims, splits, shapes):
    problem = assemble(GridSpec(dims=dims))
    decomp = partition(problem, splits)
    blocks = stack_blocks(problem, decomp)
    assert len(_box_shapes(problem, decomp)) == shapes
    assert len(blocks.lu.factors) == shapes
    _check_against_one_stacked_factor(problem, blocks)


@pytest.mark.parametrize("dims, splits", [((31,), (8,)), ((15, 15), (4, 2)), ((7, 7, 5), (2, 2, 1))])
def test_permute_matches_fancy_indexing_bit_for_bit(dims, splits):
    problem = assemble(GridSpec(dims=dims))
    decomp = partition(problem, splits)
    rng = np.random.default_rng(0)
    A = problem.A.csr.copy()
    A.data = rng.normal(size=A.nnz)  # distinct values, so a misplaced entry shows
    for order in (np.concatenate([*decomp.parts, decomp.interface]), rng.permutation(A.shape[0])):
        expected = A[order][:, order]
        expected.sort_indices()
        inverse = np.empty_like(order)
        inverse[order] = np.arange(len(order))
        got = scipy.sparse.csr_matrix(gather_rows(A, order, inverse), shape=A.shape)
        assert got.has_canonical_format and got.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).dtype == getattr(expected, name).dtype
            assert np.array_equal(getattr(got, name), getattr(expected, name))


def _scaled(problem, row, factor, col=None):
    """``problem`` with row ``row`` of A, or only its entry in column ``col``, scaled by ``factor``."""
    A = problem.A
    lo, hi = A.row_offsets[row], A.row_offsets[row + 1]
    values = A.values.copy()
    if col is None:
        values[lo:hi] *= factor
    else:
        values[lo + np.flatnonzero(A.col_indices[lo:hi] == col)[0]] *= factor
    return replace(problem, A=SparseMatrix(A.nrows, A.ncols, A.row_offsets, A.col_indices, values))


def test_perturbed_interior_block_gets_its_own_factor():
    problem = assemble(GridSpec(dims=(15, 15)))
    decomp = partition(problem, (4, 2))
    row = decomp.parts[5][7]  # an interior node of subdomain 5
    perturbed = _scaled(problem, row, 1.0 + 1e-9, col=row)  # its diagonal entry
    blocks = stack_blocks(perturbed, decomp)
    assert len(stack_blocks(problem, decomp).lu.factors) == 1
    assert len(blocks.lu.factors) == 2
    _check_against_one_stacked_factor(perturbed, blocks)


def test_stack_blocks_rejects_coupled_interiors(tiny_1d):
    # Interior nodes 0 and 2 belong to different subdomains; a coupling between
    # them leaves A_II not block diagonal, which per-block factors cannot solve.
    lil = scipy.sparse.lil_matrix(tiny_1d.problem.A.csr)
    lil[0, 2] = lil[2, 0] = -0.5
    m = lil.tocsr()
    coupled = replace(tiny_1d.problem, A=SparseMatrix(3, 3, m.indptr, m.indices, m.data))
    with pytest.raises(ValueError, match="interiors of different subdomains are coupled"):
        stack_blocks(coupled, tiny_1d.decomp)


@pytest.fixture(params=["gemm", "superlu"])
def interior_path(request, monkeypatch):
    """Every interior block on one solve path: the GEMM with the inverse, or SuperLU."""
    monkeypatch.setattr("aschur.decomp.DENSE_INVERSE_FILL", math.inf if request.param == "gemm" else 0)
    return request.param


def _check_path_against_spsolve(problem, decomp, path):
    blocks = stack_blocks(problem, decomp)
    assert [inv is not None for inv in blocks.lu.inverses] == [path == "gemm"] * len(blocks.lu.factors)
    A_II = problem.A.csr[blocks.interior][:, blocks.interior].tocsc()
    b = np.random.default_rng(1).standard_normal(len(blocks.interior))
    ref = scipy.sparse.linalg.spsolve(A_II, b)
    assert np.linalg.norm(blocks.lu.solve(b) - ref) <= 1e-12 * np.linalg.norm(ref)
    return blocks


# name, dims, splits, distinct interior blocks
PATH_GRIDS = [("1d-31-p4", (31,), (4,), 1), ("2d-15x15-p8", (15, 15), (4, 2), 1),
              ("3d-7x7x7-p8", (7, 7, 7), (2, 2, 2), 1), ("2d-16x17-p6", (16, 17), (3, 2), 2)]


@pytest.mark.parametrize("name, dims, splits, distinct", PATH_GRIDS, ids=[g[0] for g in PATH_GRIDS])
def test_both_interior_paths_match_spsolve(interior_path, name, dims, splits, distinct):
    problem = assemble(GridSpec(dims=dims))
    blocks = _check_path_against_spsolve(problem, partition(problem, splits), interior_path)
    assert len(blocks.lu.factors) == distinct


def test_both_interior_paths_match_spsolve_on_a_nonsymmetric_block(interior_path):
    problem = assemble(GridSpec(dims=(15, 15)))
    decomp = partition(problem, (4, 2))
    row = decomp.parts[5][7]
    col = next(c for c in problem.A.csr[row].indices if c != row and c in decomp.parts[5])
    perturbed = _scaled(problem, row, 1.5, col=col)  # A[row, col] only: subdomain 5's block is nonsymmetric
    assert len(_check_path_against_spsolve(perturbed, decomp, interior_path).lu.factors) == 2


@pytest.mark.parametrize("name, dims, splits, distinct", PATH_GRIDS, ids=[g[0] for g in PATH_GRIDS])
def test_a_row_stack_solves_as_its_rows_bit_for_bit(interior_path, name, dims, splits, distinct):
    # Every block here has several copies, so a vector's pieces go to the same GEMM or SuperLU call as a
    # stack's; numpy hands a single copy's one-row product to a GEMV instead.
    problem = assemble(GridSpec(dims=dims))
    blocks = stack_blocks(problem, partition(problem, splits))
    lu, rng = blocks.lu, np.random.default_rng(12)
    assert len(lu.factors) == distinct and min(map(len, lu.copies)) >= 2
    for solve, n in ((lu.solve, len(blocks.interior)), (lu.solve_coupled, len(lu.coupled))):
        B = rng.standard_normal((7, n))
        X = solve(B)
        assert X.shape == B.shape
        assert [x.tobytes() for x in X] == [solve(b).tobytes() for b in B]
        assert solve(B[:0]).shape == (0, n)


# A grid's whole Laplacian has the pattern of a box interior of that size; 63**2 is the
# interior block of the 511**2/8x8 rung, 15**2 that of 255**2/16x16, 7**3 that of 31**3/4x4x4.
@pytest.mark.parametrize("dims, gemm", [((15, 15), True), ((7, 7, 7), True), ((19, 19), False), ((31, 31), False),
                                        ((200,), False), ((63, 63), False)])
def test_small_blocks_take_the_gemm_and_large_ones_superlu(dims, gemm):
    A = assemble(GridSpec(dims=dims)).A.csr
    lu = InteriorFactors(A, [A.shape[0]], np.ones(A.shape[0], dtype=bool))
    assert (lu.inverses[0] is not None) == gemm
    if gemm:
        np.testing.assert_allclose(lu.inverses[0].T @ A.toarray(), np.eye(A.shape[0]), atol=1e-12)


def test_singular_block_raises_on_either_path(interior_path):
    problem = assemble(GridSpec(dims=(15, 15)))
    decomp = partition(problem, (4, 2))
    with pytest.raises(SingularMatrixError, match="stacked interior factorization"):
        stack_blocks(_scaled(problem, decomp.parts[5][7], 0.0), decomp)


def test_non_finite_operator_input_raises_on_either_path(interior_path):
    problem = assemble(GridSpec(dims=(7, 7)))
    system = SchurSystem.build(problem, partition(problem, (2, 2)))
    v = np.zeros(system.n_interface)
    v[0] = np.nan
    with pytest.raises(FloatingPointError):
        apply_interface_operator(system, v)


def _full_coupling_blocks(problem, blocks):
    """The unrestricted A_IG and A_GI of the stacked interior against the interface, dense."""
    A, interface = problem.A.csr, np.setdiff1d(np.arange(problem.A.nrows), blocks.interior)
    return A[blocks.interior][:, interface].toarray(), A[interface][:, blocks.interior].toarray()


# name, dims, splits; the 1-D ends couple on one side only, and one subdomain has no interface at all
COUPLED_GRIDS = [("1d-31-p8", (31,), (8,)), ("1d-9-p1", (9,), (1,)), ("2d-15x15-p8", (15, 15), (4, 2)),
                 ("3d-7x7x7-p8", (7, 7, 7), (2, 2, 2)), ("2d-16x17-p6", (16, 17), (3, 2))]


def _check_coupled_rows(problem, decomp, path):
    blocks = stack_blocks(problem, decomp)
    coupled, n_i = blocks.coupled, len(blocks.interior)
    assert coupled is blocks.lu.coupled and (np.diff(coupled) > 0).all()
    A_IG, A_GI = _full_coupling_blocks(problem, blocks)
    touched = np.flatnonzero(A_IG.any(axis=1) | A_GI.any(axis=0))
    assert np.isin(touched, coupled).all()
    if path == "superlu":  # SuperLU solves whole blocks
        np.testing.assert_array_equal(coupled, np.arange(n_i))
    elif decomp.n_interface == 0:
        assert coupled.size == 0
    # The restricted blocks are the full ones without their empty rows and columns, still canonical.
    for restricted, full, at in ((blocks.A_IG, A_IG, np.s_[coupled, :]), (blocks.A_GI, A_GI, np.s_[:, coupled])):
        assert isinstance(restricted, scipy.sparse.csr_matrix) and restricted.has_canonical_format
        scattered = np.zeros_like(full)
        scattered[at] = restricted.toarray()
        np.testing.assert_array_equal(scattered, full)
    # solve_coupled is inv(A_II)[coupled, coupled].
    c = np.random.default_rng(3).standard_normal(len(coupled))
    b = np.zeros(n_i)
    b[coupled] = c
    ref = scipy.sparse.linalg.spsolve(problem.A.csr[blocks.interior][:, blocks.interior].tocsc(), b)[coupled]
    assert np.linalg.norm(blocks.lu.solve_coupled(c) - ref) <= 1e-12 * max(np.linalg.norm(ref), 1e-300)
    # The operator on the coupled rows against the dense sum of the local complements.
    system = SchurSystem.build(problem, decomp)
    S, _ = assemble_interface_operator(system)
    v = np.random.default_rng(4).standard_normal(system.n_interface)
    assert np.linalg.norm(apply_interface_operator(system, v) - S @ v) <= 1e-12 * max(np.linalg.norm(S @ v), 1e-300)
    return blocks


@pytest.mark.parametrize("name, dims, splits", COUPLED_GRIDS, ids=[g[0] for g in COUPLED_GRIDS])
def test_operator_on_the_coupled_rows_on_either_path(interior_path, name, dims, splits):
    problem = assemble(GridSpec(dims=dims))
    _check_coupled_rows(problem, partition(problem, splits), interior_path)


def test_operator_on_the_coupled_rows_of_a_nonsymmetric_block(interior_path):
    problem = assemble(GridSpec(dims=(15, 15)))
    decomp = partition(problem, (4, 2))
    row = decomp.parts[5][0]  # a corner of subdomain 5's box, next to the interface
    col = next(c for c in problem.A.csr[row].indices if c != row and c in decomp.parts[5])
    perturbed = _scaled(problem, row, 1.5, col=col)
    assert len(_check_coupled_rows(perturbed, decomp, interior_path).lu.factors) == 2


def test_a_block_whose_copies_couple_on_different_sides_takes_the_union():
    # 1-D 31/8: the end subdomains couple on one side only, the middle ones on both.
    problem = assemble(GridSpec(dims=(31,)))
    decomp = partition(problem, (8,))
    blocks = stack_blocks(problem, decomp)
    assert len(blocks.lu.factors) == 1 and blocks.lu.inverses[0] is not None
    sizes = [len(part) for part in decomp.parts]
    np.testing.assert_array_equal(blocks.coupled, (np.cumsum([0, *sizes[:-1]])[:, None] + [0, sizes[0] - 1]).ravel())


@pytest.mark.parametrize("name, dims, splits", [g[:3] for g in PATH_GRIDS if g[3] == 1],
                         ids=[g[0] for g in PATH_GRIDS if g[3] == 1])
def test_a_single_product_returns_the_bits_the_scatter_path_writes(interior_path, name, dims, splits):
    # One distinct block tiles the vector, so its product is returned as it is;
    # an explicit index array forces the allocate-and-scatter path.
    problem = assemble(GridSpec(dims=dims))
    blocks = stack_blocks(problem, partition(problem, splits))
    lu, rng = blocks.lu, np.random.default_rng(11)
    for products, n in ((lu._copies, len(blocks.interior)), (lu._coupled, len(lu.coupled))):
        assert len(products) == 1 and products[0][3] == slice(None)
        b = rng.standard_normal(n)
        x = _per_block(products, b)
        ref = _per_block([(f, mat, m, np.arange(n)) for f, mat, m, _ in products], b)
        assert x.shape == (n,) and x.flags.c_contiguous and not np.shares_memory(x, b)
        assert x.tobytes() == ref.tobytes()


@st.composite
def grids(draw):
    """A box of 1 to 3 axes with extents up to 17 and at most 700 nodes, and valid split counts."""
    dims, splits = [], []
    for _ in range(draw(st.integers(1, 3))):
        dims.append(draw(st.integers(1, min(17, 700 // math.prod(dims)))))
        splits.append(draw(st.integers(1, (dims[-1] + 1) // 2)))
    return tuple(dims), tuple(splits)


def _reference_setup(problem, splits):
    """Partition, interface map and interior-block grouping, one subdomain, entry and block at a time."""
    dims, d = problem.grid.dims, len(problem.grid.dims)
    coords = np.stack(np.unravel_index(np.arange(problem.A.nrows), dims[::-1])[::-1], axis=1)
    slab = []  # per axis and coordinate: (lowest, highest) slab whose closure holds it
    for ext, s in zip(dims, splits):
        base, rem = divmod(ext - (s - 1), s)
        ranges = []
        for k in range(s):
            ranges += [(k, k)] * (base + (k < rem)) + ([(k, k + 1)] if k < s - 1 else [])
        slab.append(ranges)
    strides = [math.prod(splits[:a]) for a in range(d)]
    p = math.prod(splits)
    on_separator = [any(slab[a][c[a]][0] != slab[a][c[a]][1] for a in range(d)) for c in coords]
    interface = np.flatnonzero(on_separator).astype(np.int64)
    parts, on_interface = [[] for _ in range(p)], set(interface.tolist())
    for n, c in enumerate(coords):
        if n not in on_interface:
            parts[sum(slab[a][c[a]][0] * strides[a] for a in range(d))].append(n)
    owners = np.full((len(interface), 2**d), -1, dtype=np.int64)
    for t, n in enumerate(interface):
        for corner in range(2**d):
            ks = [slab[a][coords[n][a]][0] + (corner >> a & 1) for a in range(d)]
            if all(k <= slab[a][coords[n][a]][1] for a, k in enumerate(ks)):
                owners[t, corner] = sum(k * stride for k, stride in zip(ks, strides))
    local = [interface[(owners == i).any(axis=1)] for i in range(p)]
    shared = {}
    for t, row in enumerate(owners):
        for i, j in itertools.combinations(row[row >= 0].tolist(), 2):
            shared.setdefault((i, j), []).append(t)
    return dict(
        parts=[np.array(part, dtype=np.int64) for part in parts], interface=interface, owners=owners,
        owner_count=(owners >= 0).sum(axis=1).astype(np.int64), local_interfaces=local,
        gamma_positions=[np.array([interface.tolist().index(n) for n in ids], dtype=np.int64) for ids in local],
        shared={key: np.array(ts, dtype=np.int64) for key, ts in sorted(shared.items())},
        neighbors=tuple(tuple(sorted({j for key in shared if i in key for j in key} - {i})) for i in range(p)),
    )


def _reference_groups(A_II, sizes):
    """Each distinct interior block's size and copies' first rows, keyed by its CSR bytes, in first-occurrence order."""
    ptr, copies = A_II.indptr, {}
    for lo, hi in itertools.pairwise(np.cumsum([0, *sizes]).tolist()):
        p0, p1 = ptr[lo], ptr[hi]
        key = (hi - lo, (ptr[lo:hi + 1] - p0).tobytes(), (A_II.indices[p0:p1] - lo).tobytes(),
               A_II.data[p0:p1].tobytes())
        copies.setdefault(key, []).append(lo)
    return [(key[0], los) for key, los in copies.items()]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(grids(), st.integers(0, 2))
def test_setup_matches_plain_per_subdomain_reference(grid, perturb):
    # The whole-array set-up against loops over subdomains, interface entries
    # and blocks: every array equal with its dtype and order.  A perturbed
    # interior entry gives its block a factor of its own.
    dims, splits = grid
    problem = assemble(GridSpec(dims=dims))
    ref = _reference_setup(problem, splits)
    if perturb and any(len(part) for part in ref["parts"]):
        part = next(part for part in reversed(ref["parts"]) if len(part))
        problem = _scaled(problem, int(part[-1]), 1.0 + perturb * 1e-9, col=int(part[-1]))
    dec = partition(problem, splits)
    for field in ("parts", "local_interfaces"):
        assert len(getattr(dec, field)) == dec.p
        assert all(_same(got, want) for got, want in zip(getattr(dec, field), ref[field])), field
    for field in ("interface", "owners", "owner_count"):
        assert _same(getattr(dec, field), ref[field]), field
    imap = build_interface_map(dec)
    assert all(_same(got, want) for got, want in zip(imap.gamma_positions, ref["gamma_positions"], strict=True))
    _assert_links_match(LinkTables(dec, imap), imap, ref["shared"], ref["neighbors"])

    blocks = stack_blocks(problem, dec)
    A, interior, interface = problem.A.csr, np.concatenate(ref["parts"]), ref["interface"]
    assert _same(blocks.interior, interior)
    A_II = A[interior][:, interior]
    A_II.sort_indices()
    groups = _reference_groups(A_II, [len(part) for part in ref["parts"]])
    lu = blocks.lu
    assert [factor.shape[0] for factor in lu.factors] == [m for m, _ in groups]
    assert all(_same(rows, np.array(los, dtype=np.int64)) for rows, (_, los) in zip(lu.copies, groups, strict=True))
    # coupled: per distinct block on the GEMM, the union of its copies' rows that touch the interface.
    touched = (A[interior][:, interface].getnnz(axis=1) > 0) | (A[interface][:, interior].getnnz(axis=0) > 0)
    coupled = []
    for (m, los), inv in zip(groups, lu.inverses, strict=True):
        B = np.arange(m) if inv is None else np.flatnonzero(np.any([touched[lo:lo + m] for lo in los], axis=0))
        coupled += [lo + b for lo in los for b in B.tolist()]
    assert _same(blocks.coupled, np.array(sorted(coupled), dtype=np.int64))
    for got, want in ((blocks.A_IG, A[interior[blocks.coupled]][:, interface]),
                      (blocks.A_GI, A[interface][:, interior[blocks.coupled]]),
                      (blocks.A_GG, A[interface][:, interface])):
        want.sort_indices()
        assert got.has_canonical_format and _same(got, want)
    assert _same(blocks.b_I, problem.b[interior]) and _same(blocks.b_G, problem.b[interface])


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(grids(), st.integers(0, 2))
@example(((401,), (2,)), 1)  # 200-row interior blocks on SuperLU, one of them perturbed
@example(((6,), (1,)), 0)  # p = 1: no interface
@example(((7, 5), (1, 1)), 1)
def test_complement_records_match_dense_solves(grid, perturb):
    # Every record formed at once on the coupled rows against one dense solve
    # per subdomain on blocks gathered from A.  A perturbed interior
    # diagonal gives its block a factor of its own.
    dims, splits = grid
    problem = assemble(GridSpec(dims=dims))
    dec = partition(problem, splits)
    if perturb:
        row = int(dec.parts[-1][-1])
        problem = _scaled(problem, row, 1.0 + perturb * 1e-9, col=row)
    system = SchurSystem.build(problem, dec)
    assert len(system.blocks.lu.factors) >= (2 if perturb and dec.p > 1 else 1)
    imap = system.imap
    for i, ((S_i, d_i), ref) in enumerate(zip(local_complements(system), reference_subdomains(system), strict=True)):
        S, d = dense_complement(ref)
        assert S_i.shape == S.shape and d_i.shape == d.shape
        assert np.abs(S_i - S).max(initial=0.0) <= 1e-12 * np.abs(S).max(initial=1e-300)
        assert np.abs(d_i - d).max(initial=0.0) <= 1e-12 * np.abs(d).max(initial=1e-300)
        weights = imap.weights[imap.offsets[i]:imap.offsets[i + 1]]
        assert _same(weights, ref.weights) and _same(imap.gamma_positions[i], ref.gamma_positions)
