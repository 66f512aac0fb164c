import numpy as np
import pytest
import scipy.sparse

from aschur.decomp import partition
from aschur.linalg import SparseMatrix, spectral_radius_nonneg
from aschur.poisson import GridSpec, assemble
from aschur.solvers import SchurSystem
from aschur.splitting import (
    InterfaceSplitting,
    build_splitting,
    certify,
    certify_async,
    certify_global,
    certify_h_conditions,
    interface_diagonal,
    problem_hash,
)
from conftest import dense_complement, reference_subdomains


def test_build_splitting_alpha_one(tiny_1d):
    split = build_splitting(np.array([2.0]), alpha=1.0)
    np.testing.assert_array_equal(split.m_diag, [2.0])


def test_build_splitting_alpha_14():
    split = build_splitting(np.array([2.0]), alpha=1.4)
    np.testing.assert_allclose(split.m_diag, [2.8])


def test_build_splitting_alpha_one_zero_defect_diagonal(tiny_1d):
    # alpha = 1 leaves M - A_GG with a zero diagonal
    diag = interface_diagonal(tiny_1d.problem, tiny_1d.decomp)
    split = build_splitting(diag, alpha=1.0)
    np.testing.assert_array_equal(split.m_diag - diag, np.zeros_like(diag))


def test_build_splitting_rejects_small_alpha():
    for bad in (0.5, 1.0 - 2**-53, 0.0, -1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="alpha"):
            build_splitting(np.array([2.0]), alpha=bad)
    with pytest.raises(ValueError):
        build_splitting(np.array([0.0]), alpha=1.0)


def test_certify_async_1d_hand_value(tiny_1d):
    rho = certify_async(tiny_1d.system.subdomains, tiny_1d.system.imap, tiny_1d.split)
    assert rho == pytest.approx(0.5, abs=1e-8)


def test_certify_async_single_subdomain_is_zero():
    # no interface at all: T is 0 x 0, so the certified radius is zero
    from aschur.splitting import InterfaceSplitting

    prob = assemble(GridSpec(dims=(5,)))
    dec = partition(prob, (1,))
    system = SchurSystem.build(prob, dec)
    empty = InterfaceSplitting(alpha=1.0, m_diag=np.zeros(0))
    assert certify_async(system.subdomains, system.imap, empty) == 0.0


def test_certify_async_alpha_sweep_monotone_beyond_minimizer(tiny_1d):
    # on the single-interface case the radius is |1 - 0.5/alpha|
    diag = interface_diagonal(tiny_1d.problem, tiny_1d.decomp)
    values = []
    for alpha in (1.0, 1.5, 2.0, 4.0, 8.0, 16.0):
        split = build_splitting(diag, alpha=alpha)
        rho = certify_async(tiny_1d.system.subdomains, tiny_1d.system.imap, split)
        assert rho == pytest.approx(abs(1.0 - 0.5 / alpha), abs=1e-10)
        values.append(rho)
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v < 1.0 for v in values)


def test_certify_async_matches_the_per_subdomain_scatter_bit_for_bit(suite, monkeypatch):
    # The oracle adds each subdomain's block into T through ``np.ix_``, in subdomain order.
    seen = []
    monkeypatch.setattr("aschur.splitting.spectral_radius_nonneg", lambda T: seen.append(T) or spectral_radius_nonneg(T))
    for case in suite.values():
        rho = certify_async(case.system.subdomains, case.system.imap, case.split)
        T = np.zeros((case.system.n_interface, case.system.n_interface))
        for local in case.system.subdomains:
            pos = local.gamma_positions
            minv = 1.0 / case.split.m_diag[pos]
            T[np.ix_(pos, pos)] += np.abs(np.diag(local.weights) - minv[:, None] * local.S)
        assert seen[-1].dtype == T.dtype and np.array_equal(seen[-1], T), case.name
        assert rho == spectral_radius_nonneg(T), case.name


def test_certify_global_1d_value(tiny_1d):
    rho = certify_global(tiny_1d.problem, tiny_1d.decomp, tiny_1d.split)
    assert rho == pytest.approx(np.sqrt(0.5), abs=1e-9)
    assert rho < 1.0


def test_certify_global_diagonal_matrix_exact_splitting():
    # single subdomain and diagonal A make M equal to A, so the radius is 0
    grid = GridSpec(dims=(3,))
    m = scipy.sparse.csr_matrix(np.diag([2.0, 3.0, 4.0]))
    a = SparseMatrix(3, 3, m.indptr, m.indices, m.data)
    prob = assemble(grid)
    prob = type(prob)(A=a, b=np.ones(3), grid=grid, node_coords=prob.node_coords)
    dec = partition(prob, (1,))
    from aschur.splitting import InterfaceSplitting

    split = InterfaceSplitting(alpha=1.0, m_diag=np.zeros(0))
    assert certify_global(prob, dec, split) == 0.0


def test_certificates_reject_oversized_problems():
    prob = assemble(GridSpec(dims=(2001,)))
    dec = partition(prob, (1,))
    from aschur.splitting import InterfaceSplitting

    split = InterfaceSplitting(alpha=1.0, m_diag=np.zeros(0))
    with pytest.raises(ValueError):
        certify_global(prob, dec, split)
    with pytest.raises(ValueError):
        certify_h_conditions(prob, dec, split)


def test_certify_h_conditions_poisson_both_alphas(suite):
    for alpha in (1.0, 1.4):
        for name in ("1d-7-p2", "2d-7x7-p4", "3d-5x5x5-p2"):
            case = suite[name]
            split = build_splitting(interface_diagonal(case.problem, case.decomp), alpha=alpha)
            a_is_h, h_split_ok = certify_h_conditions(case.problem, case.decomp, split)
            assert a_is_h and h_split_ok
    # Diagonals near 4/h^2 = 4.4e5: the identity holds exactly, though
    # m - |m - a| rounds away from a by more than 1e-12.
    problem = assemble(GridSpec(dims=(7, 7), spacing=0.003))
    decomp = partition(problem, (2, 2))
    diag = interface_diagonal(problem, decomp)
    assert certify_h_conditions(problem, decomp, build_splitting(diag, alpha=2.5)) == (True, True)
    # m below diag(A_GG) breaks the identity on the diagonal.
    assert certify_h_conditions(problem, decomp, InterfaceSplitting(alpha=0.5, m_diag=0.5 * diag)) == (True, False)


def test_certify_h_conditions_zero_diagonal_not_h():
    grid = GridSpec(dims=(3,))
    base = assemble(grid)
    dense = base.A.csr.toarray()
    dense[0, 0] = 0.0
    m = scipy.sparse.csr_matrix(dense)
    prob = type(base)(A=SparseMatrix(3, 3, m.indptr, m.indices, m.data), b=base.b, grid=grid,
                      node_coords=base.node_coords)
    dec = partition(prob, (2,))
    split = build_splitting(interface_diagonal(prob, dec), alpha=1.0)
    a_is_h, h_split_ok = certify_h_conditions(prob, dec, split)
    assert not a_is_h
    assert h_split_ok


def test_sign_compatibility_makes_summed_blocks_exact(suite):
    # summed absolute update blocks equal the absolute summed blocks, and the
    # certified radius coincides with the one of the assembled operator
    for case in suite.values():
        n = case.system.n_interface
        sum_abs = np.zeros((n, n))
        sum_q = np.zeros((n, n))
        for loc in reference_subdomains(case.system):
            S, _ = dense_complement(loc)
            pos = loc.gamma_positions
            Q = np.diag(loc.weights) - (1.0 / case.split.m_diag[pos])[:, None] * S
            sum_abs[np.ix_(pos, pos)] += np.abs(Q)
            sum_q[np.ix_(pos, pos)] += Q
        assert np.max(np.abs(sum_abs - np.abs(sum_q)), initial=0.0) <= 1e-10
        rho_t = certify_async(case.system.subdomains, case.system.imap, case.split)
        rho_assembled = spectral_radius_nonneg(np.abs(sum_q))
        assert rho_t == pytest.approx(rho_assembled, abs=1e-10)


def test_h_chain_implies_contractive_global_radius(suite):
    for name in ("1d-15-p4", "2d-9x9-p3", "3d-5x5x5-p8"):
        case = suite[name]
        for alpha in (1.0, 1.4):
            split = build_splitting(interface_diagonal(case.problem, case.decomp), alpha=alpha)
            a_is_h, h_split_ok = certify_h_conditions(case.problem, case.decomp, split)
            assert a_is_h and h_split_ok
            assert certify_global(case.problem, case.decomp, split) < 1.0


def test_certify_returns_stamped_certificates(tiny_1d):
    certs = certify(tiny_1d.system, tiny_1d.split)
    assert certs.rho_async == pytest.approx(0.5, abs=1e-8)
    assert certs.rho_global < 1.0
    assert certs.a_is_h and certs.h_split_ok
    assert certs.input_hash == problem_hash(tiny_1d.problem, tiny_1d.decomp, 1.0)
    assert certs.input_hash != problem_hash(tiny_1d.problem, tiny_1d.decomp, 1.4)


def test_problem_hash_sensitive_to_inputs(suite):
    a = suite["1d-3-p2"]
    b = suite["1d-7-p2"]
    assert problem_hash(a.problem, a.decomp) != problem_hash(b.problem, b.decomp)
    assert problem_hash(a.problem, a.decomp) == problem_hash(a.problem, a.decomp)
