"""Lattice Hamiltonians, the exact transform, and amplitude scaling."""

import gc
import inspect
import math
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from fractions import Fraction
from functools import cache, lru_cache
from pathlib import Path

import numpy as np
import pytest

from spincorr import ParticleParams
from spincorr import qfw as qfw_module
from spincorr import checks
from spincorr.checks import RUN_PARAMS, check_correspondence_scaling, check_spectrum_preservation, run_checks
from spincorr.classical import DiagnosticError, fit_slope
from spincorr.config import SCHEMA, load_config
from spincorr.opalg.core import PI
from spincorr.opalg.identities import binom_half, binom_minus_half, case_algebra, series_sqrt_expand
from spincorr.qfw import (
    ALPHA4,
    BETA4,
    CASE_I,
    CASE_II,
    ConfigurationError,
    LatticeHamiltonian,
    LatticeSpec,
    OddnessError,
    _axis_operators,
    _dagger,
    _dirac_blocks,
    _fw_root,
    _hermitize,
    _image,
    _mul_op,
    _odd_coupling,
    _orbital,
    _per_sector,
    _scatter,
    _sectors,
    _sector_kron,
    _weyl,
    block_diagonality_defect,
    build_correspondence,
    build_hamiltonian,
    component_spectrum,
    darwin_coefficient,
    darwin_vs_classical_hd,
    default_lattice,
    default_params,
    eriksen_fw,
    exact_transform,
    parity_check,
    residual_scaling,
)

LAT_I = default_lattice(CASE_I)
PAR_I = default_params(CASE_I, LAT_I)
LAT_II = default_lattice(CASE_II)
PAR_II = default_params(CASE_II, LAT_II)
LAMS = SCHEMA["amplitudes"][1]


def hamiltonian(case, lattice, lam, params):
    """H at one amplitude, on a fresh orbital assembly."""
    return build_hamiltonian(case, lattice, params, _orbital(case, lattice, lam, params))


def float_darwin(params):
    return darwin_coefficient(params.m, params.e, params.gamma_m, params.hbar, params.c)


def dense_beta(lattice):
    """beta (x) 1 on the full matrix: +1 on the first 2 orbital_dim indices."""
    return np.kron(BETA4, np.eye(lattice.orbital_dim))


def dense_eriksen_fw(H):
    """The transform on the full matrix: one eigh of m^2c^4 + O^2 (the oracle)."""
    beta = dense_beta(H.lattice)
    O = H.matrix - H.params.mc2 * beta
    w, U = np.linalg.eigh(H.params.mc2 ** 2 * np.eye(O.shape[0]) + O @ O)
    Hp = beta @ ((U * np.sqrt(np.maximum(w, 0.0))) @ U.conj().T)
    return 0.5 * (Hp + Hp.conj().T)


def parity_operator(lattice):
    """beta (x) site inversion as one dense matrix in the momentum basis (the oracle)."""
    N = lattice.n_sites
    F = np.fft.fft(np.eye(N), norm="ortho")
    perm = np.zeros((N, N))
    perm[(N - np.arange(N)) % N, np.arange(N)] = 1.0
    inv_k = F @ perm @ F.conj().T
    orb = inv_k
    for _ in range(lattice.dimension - 1):
        orb = np.kron(orb, inv_k)
    return np.kron(BETA4, orb)


def dense_parity_check(H, Hfw):
    """Parity defects of H and H' from the dense matrices (the oracle of the block lookup).

    P = beta (x) site inversion is a real signed permutation and an
    involution: (P M P^+)_ab = sign_a sign_b M[pi(a), pi(b)], with pi the
    inversion of each row's orbital index and sign_a the beta of its Dirac
    component. The two dense matrices are scattered one at a time.
    """
    rows, sign = parity_map(H.lattice)

    def defect(M):
        return float(np.abs(np.outer(sign, sign) * M[rows[:, None], rows] - M).max())

    return defect(H.matrix), defect(Hfw.matrix)


def parity_map(lattice):
    """(pi(a), sign_a) of every dense row a: the signed permutation P = beta (x) site inversion."""
    N, n = lattice.n_sites, lattice.orbital_dim
    axes = tuple(range(lattice.dimension))
    # flipping each axis takes i to N - 1 - i, and the roll by one then to (-i) mod N
    inv = np.roll(np.flip(np.arange(n).reshape((N,) * len(axes))), 1, axis=axes).ravel()
    return (np.arange(4)[:, None] * n + inv).ravel(), np.repeat(BETA4.diagonal().real, n)


def parity_even_two_blocks():
    """A parity-even dense operator of the case II lattice cut to two blocks, and each block's split pairs.

    The blocks split the orbitals in halves, so k -> -k takes orbital 1 of the
    first block to orbital 63 of the second. An entry (a, b) of a block is
    split when the images of a and b lie in different blocks.
    """
    D = LAT_II.orbital_dim
    orbitals = np.arange(D).reshape(2, D // 2)
    index = (np.arange(4)[None, :, None] * D + orbitals[:, None, :]).reshape(2, -1)
    rng = np.random.default_rng(5)
    w = index.shape[1]
    blocks = rng.normal(size=(2, w, w)) + 1j * rng.normal(size=(2, w, w))
    M = LatticeHamiltonian(blocks, index, CASE_II, LAT_II, PAR_II).matrix
    rows, sign = parity_map(LAT_II)
    M = 0.5 * (M + np.outer(sign, sign) * M[rows[:, None], rows])
    even = LatticeHamiltonian(M[index[:, :, None], index[:, None, :]], index, CASE_II, LAT_II, PAR_II)
    crossing = np.tile((-orbitals) % D // (D // 2) != np.arange(2)[:, None], (1, 4))
    return even, crossing[:, :, None] != crossing[:, None, :]


def hermitian_part(M):
    return 0.5 * (M + M.conj().T)


def dense_orbital(case, lattice, lam, params):
    """Momenta, c^2 pi^2, coupling and field of the kron assembly on all orbitals.

    The oracle of the per-block `_orbital`: every operator on the full
    N^d-wide orbital space, orbital index i_x N + i_y in case I.
    """
    hbar, c = params.hbar, params.c
    k, F, Q, p1, x = _axis_operators(lattice, hbar)
    q = 1.0  # fundamental wavenumber of the 2 pi period
    if case == CASE_I:
        I_N = np.eye(lattice.n_sites)
        Ay = np.kron(_mul_op(lam * params.mc2 / abs(params.e) * np.sin(q * x), F, Q), I_N)
        Px = np.kron(p1, I_N)
        Py = np.kron(I_N, p1) - (params.e / c) * Ay
        B = (c / (1j * hbar * params.e)) * (Px @ Py - Py @ Px)
        return (Px, Py), hermitian_part(c ** 2 * (Px @ Px + Py @ Py)), hermitian_part(B), Ay
    Ex = _mul_op(lam * params.mc2 / abs(params.mu_prime) * np.sin(q * x), F, Q)
    divE = (1j / hbar) * (p1 @ Ex - Ex @ p1)
    return (p1,), hermitian_part(c ** 2 * (p1 @ p1)), hermitian_part(divE), Ex


def dense_hamiltonian(case, lattice, lam, params):
    """H from the kron assembly, one dense Dirac layer (the oracle of the blocks)."""
    momenta, _, _, field_profile = dense_orbital(case, lattice, lam, params)
    H = params.mc2 * dense_beta(lattice) + params.c * sum(np.kron(ALPHA4[i], p) for i, p in enumerate(momenta))
    if case == CASE_II:
        H = H + 1j * params.mu_prime * np.kron(BETA4 @ ALPHA4[0], field_profile)
    return hermitian_part(H)


def weyl_series(w, V, X, mc2, nmax=30):
    """sum_{n <= nmax} C(-1/2, n) (X pi^{2n})_Weyl / (mc)^{2n}, and its tail bound.

    The truncated operator Taylor series that the closed kernel replaces:
    in the eigenbasis (w, V) of c^2 pi^2 the Weyl average over placements
    is the kernel sum_l u_a^l u_b^{n-l}/(n+1). Each term's norm is at most
    |C(-1/2, n)| u_max^n |X|_2, which bounds the tail geometrically.
    """
    u = w / mc2 ** 2
    umax = float(u.max())
    G = np.zeros((len(w), len(w)))
    Sn = np.ones_like(G)
    for n in range(nmax + 1):
        if n:
            Sn = u[:, None] * Sn + u[None, :] ** n
        G += float(binom_minus_half(n)) * Sn / (n + 1)
    tail = abs(float(binom_minus_half(nmax + 1))) * umax ** (nmax + 1) / (1.0 - umax)
    return V @ ((V.conj().T @ X @ V) * G) @ V.conj().T, tail * float(np.linalg.norm(X, 2))


def dense_correspondence(case, lattice, lam, params, include_darwin=True):
    """The image on the full matrix: kron assembly, one eigh, 30-term series."""
    _, P2, coupling, _ = dense_orbital(case, lattice, lam, params)
    mc2 = params.mc2
    w, V = np.linalg.eigh(P2)
    Hc = np.kron(BETA4, (V * np.sqrt(mc2 ** 2 + w)) @ V.conj().T)
    if case == CASE_I:
        pref = params.e * params.hbar / (2.0 * params.m * params.c)
        Hc = Hc - pref * np.kron(BETA4 @ SIGMA4[2], weyl_series(w, V, coupling, mc2)[0])
    elif include_darwin:
        Hc = Hc + float_darwin(params) * np.kron(np.eye(4), weyl_series(w, V, coupling, mc2)[0])
    return hermitian_part(Hc)


# sigma_0..sigma_3: spin index 4a + b of the operator algebra is rho_a (x) sigma_b
PAULI = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
# the block-diagonal spin vector rho_0 sigma_i on the four Dirac components
SIGMA4 = tuple(np.kron(PAULI[0], s) for s in PAULI[1:])


def instantiate_case_i(expr, lattice, lam, params):
    """Evaluate a symbolic operator expression as a case-I lattice matrix.

    pi_1, pi_2 map to the kinetic momenta, pi_3 to zero (decoupled axis);
    B_3 and its x-derivatives map to band-limited multiplications by the
    analytic derivatives of B_z(x) = A0 q cos(q x); every other field
    component vanishes for this profile. Spin symbols become the 4x4
    Kronecker matrices. Unit symbols evaluate from params.
    """
    orb = _orbital(CASE_I, lattice, lam, params)
    orb_dim = lattice.orbital_dim
    Px, Py = (_scatter(p, orb.index, orb_dim) for p in orb.momenta)
    _, F, Q, _, x = _axis_operators(lattice, params.hbar)
    q = 1.0  # fundamental wavenumber of the 2 pi period
    A0 = lam * params.mc2 / abs(params.e)
    zeros = np.zeros((orb_dim, orb_dim), dtype=complex)

    @lru_cache(maxsize=None)
    def b_profile(n_derivs):
        # d^n/dx^n of B_z = A0 q cos(qx)
        amp = A0 * q ** (n_derivs + 1)
        phase = n_derivs % 4
        f = {0: np.cos(q * x), 1: -np.sin(q * x), 2: -np.cos(q * x), 3: np.sin(q * x)}[phase]
        return np.kron(_mul_op(amp * f, F, Q), np.eye(lattice.n_sites))

    def word_matrix(word):
        M = np.eye(orb_dim, dtype=complex)
        for sym in word:
            if sym[0] == PI:
                if sym[1] == 3:
                    return zeros
                M = M @ (Px if sym[1] == 1 else Py)
            else:
                base, comp, derivs = sym
                if base != "B" or comp != 3 or any(d != 1 for d in derivs):
                    return zeros  # only B_z(x) is present in this geometry
                M = M @ b_profile(len(derivs))
        return M

    units_vals = (params.hbar, params.c, params.m, params.e, params.mu_prime)
    # orbital part of each spin component, summed before the Kronecker product
    per_spin = {}
    for (word, spin, units, ipow), coeff in expr.terms.items():
        scalar = float(coeff) * (1j ** ipow)
        for v, kexp in zip(units_vals, units):
            if kexp:
                scalar *= v ** kexp
        if scalar == 0.0:
            continue
        per_spin[spin] = per_spin.get(spin, zeros) + scalar * word_matrix(word)
    out = np.zeros((4 * orb_dim, 4 * orb_dim), dtype=complex)
    for spin, M in per_spin.items():
        rho, sigma = divmod(spin, 4)
        out += np.kron(np.kron(PAULI[rho], PAULI[sigma]), M)
    return out


# largest u = c^2 pi^2 / m^2c^4 the series cross-check accepts: c p = 0.9 mc^2
SERIES_U_MAX = 0.81


def opalg_cross_check(order=6, lam=1e-2, lattice=None, params=None):
    """Instantiate the symbolic square-root series and compare with eriksen_fw.

    The map pi_i -> lattice momenta, B -> band-limited multiplications is a
    homomorphism up to the algebra's own truncations, so the matrix built
    from the order-N symbolic expansion must match the exact transform
    within the series tail bound. Headroom 1.5 absorbs the field-dependent
    tail pieces the kinetic bound does not count. The series converges
    only for u_max < 1, and the geometric tail bound is loose near 1, so
    u_max past SERIES_U_MAX is refused.
    """
    lattice = lattice or default_lattice(CASE_I)
    params = params or default_params(CASE_I, lattice)
    orb = _orbital(CASE_I, lattice, lam, params)
    umax = float(np.linalg.eigvalsh(orb.P2).max()) / params.mc2 ** 2
    if umax > SERIES_U_MAX:
        raise ConfigurationError(f"series cross-check needs u_max <= {SERIES_U_MAX}, got {umax:.6g}")
    expr = series_sqrt_expand(CASE_I, order, case_algebra(CASE_I))
    M = instantiate_case_i(expr, lattice, lam, params)
    Hfw = eriksen_fw(hamiltonian(CASE_I, lattice, lam, params))
    diff = float(np.abs(M - Hfw.matrix).max())
    tail = params.mc2 * abs(float(binom_half(order + 1))) * umax ** (order + 1) / (1.0 - umax)
    return {"difference": diff, "tail_bound": tail, "ok": bool(diff <= 1.5 * tail)}


def free_energies(lattice, params):
    k = lattice.axis_wavenumbers()
    if lattice.dimension == 2:
        kx, ky = np.meshgrid(k, k, indexing="ij")
        k2 = (kx ** 2 + ky ** 2).ravel()
    else:
        k2 = k ** 2
    e = np.sqrt(params.mc2 ** 2 + (params.c * params.hbar) ** 2 * k2)
    return np.sort(np.concatenate([e, e, -e, -e]))


class TestLatticeSpec:
    def test_rejects_odd_sites(self):
        with pytest.raises(ConfigurationError):
            LatticeSpec(n_sites=15)

    def test_rejects_tiny_lattice(self):
        with pytest.raises(ConfigurationError):
            LatticeSpec(n_sites=6)

    def test_rejects_rho_past_hard_limit(self):
        # c p_max = 0.95 mc^2 puts u_max past the series cross-check's 0.81;
        # the lattice itself builds at any mass
        lat = LatticeSpec(dimension=2, n_sites=12)
        par = ParticleParams.dirac(m=lat.p_max() / 0.95, e=1.0)
        hamiltonian(CASE_I, lat, 1e-2, par)
        with pytest.raises(ConfigurationError, match="u_max <= 0.81"):
            opalg_cross_check(lattice=lat, params=par)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ConfigurationError):
            LatticeSpec(dimension=3)

    def test_nyquist_mode_is_zeroed(self):
        k = LatticeSpec(n_sites=8).axis_wavenumbers()
        assert k[4] == 0.0
        assert np.abs(k).max() == pytest.approx(3.0)

    def test_mass_saturates_cutoff(self):
        for case in (CASE_I, CASE_II):
            lat = default_lattice(case)
            assert default_params(case, lat).m == lat.p_max() / 0.5

    def test_case_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            hamiltonian(CASE_I, LAT_II, 0.0, PAR_I)

    def test_case_parameter_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            hamiltonian(CASE_II, LAT_II, 0.0, PAR_I)


class TestBuild:
    def test_free_spectrum_exact(self):
        for case, lat, par in ((CASE_I, LAT_I, PAR_I), (CASE_II, LAT_II, PAR_II)):
            H = hamiltonian(case, lat, 0.0, par)
            got = np.sort(np.linalg.eigvalsh(H.matrix))
            assert np.abs(got - free_energies(lat, par)).max() < 1e-11

    def test_hermitian(self):
        for case, lat, par in ((CASE_I, LAT_I, PAR_I), (CASE_II, LAT_II, PAR_II)):
            H = hamiltonian(case, lat, 1e-2, par)
            assert np.abs(H.matrix - H.matrix.conj().T).max() < 1e-12

    def test_interaction_is_odd(self):
        for case, lat, par in ((CASE_I, LAT_I, PAR_I), (CASE_II, LAT_II, PAR_II)):
            H = hamiltonian(case, lat, 1e-2, par)
            beta = dense_beta(lat)
            O = H.matrix - par.mc2 * beta
            assert np.abs(beta @ O @ beta + O).max() < 1e-12

    def test_magnetic_coupling_is_commutator_of_momenta(self):
        N = LAT_I.n_sites
        lam = 1e-2
        orb = _orbital(CASE_I, LAT_I, lam, PAR_I)
        _, F, Q, _, x = _axis_operators(LAT_I, PAR_I.hbar)
        q = 1.0  # fundamental wavenumber of the 2 pi period
        A0 = lam * PAR_I.mc2 / abs(PAR_I.e)
        Bmul = np.kron(_mul_op(A0 * q * np.cos(q * x), F, Q), np.eye(N))
        assert np.abs(_scatter(orb.coupling, orb.index, LAT_I.orbital_dim) - Bmul).max() < 1e-12


class TestEriksen:
    def test_spectrum_preserved(self):
        for case, lat, par in ((CASE_I, LAT_I, PAR_I), (CASE_II, LAT_II, PAR_II)):
            for lam in (1e-2, 1e-3):
                H = hamiltonian(case, lat, lam, par)
                Hfw = eriksen_fw(H)
                a = np.sort(np.linalg.eigvalsh(H.matrix))
                b = np.sort(np.linalg.eigvalsh(Hfw.matrix))
                assert np.abs(a - b).max() < 1e-10

    def test_block_diagonal(self):
        for case, lat, par in ((CASE_I, LAT_I, PAR_I), (CASE_II, LAT_II, PAR_II)):
            H = hamiltonian(case, lat, 1e-2, par)
            Hfw = eriksen_fw(H)
            beta = dense_beta(lat)
            assert np.abs(beta @ Hfw.matrix @ beta - Hfw.matrix).max() < 1e-11

    def test_free_case_gives_kinetic_root(self):
        H = hamiltonian(CASE_II, LAT_II, 0.0, PAR_II)
        Hfw = eriksen_fw(H)
        C = build_correspondence(CASE_II, LAT_II, 0.0, PAR_II)
        half = 2 * LAT_II.orbital_dim
        assert np.abs(Hfw.matrix[:half, :half] - C.matrix[:half, :half]).max() < 1e-12

    def test_rejects_non_odd_input(self):
        H = hamiltonian(CASE_II, LAT_II, 1e-2, PAR_II)
        # an even perturbation breaks the closed-form construction: beta on a sector is diag(1, -1)
        n = H.blocks.shape[-1] // 2
        H = replace(H, blocks=H.blocks + 1e-3 * np.kron(np.diag([1.0, -1.0]), np.eye(n)))
        with pytest.raises(OddnessError):
            eriksen_fw(H)


def scattered_blocks(rng, sizes):
    """A Hermitian matrix whose blocks of `sizes` sit on randomly permuted indices."""
    n = sum(sizes)
    perm = rng.permutation(n)
    M = np.zeros((n, n), dtype=complex)
    start = 0
    for size in sizes:
        idx = perm[start:start + size]
        B = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        M[idx[:, None], idx[None, :]] = B + B.conj().T
        start += size
    return M, perm


class TestComponentSpectrum:
    def test_matches_dense_spectrum_on_criterion_9(self):
        # all eight matrices of the spectrum check: both cases, both amplitudes, H and H'
        for case, lat, par in ((CASE_I, LAT_I, PAR_I), (CASE_II, LAT_II, PAR_II)):
            for lam in (1e-2, 1e-3):
                H = hamiltonian(case, lat, lam, par)
                for M in (H.matrix, eriksen_fw(H).matrix):
                    w, shapes = component_spectrum(M)
                    assert sum(count * size for count, size in shapes) == lat.matrix_dim
                    assert np.abs(w - np.linalg.eigvalsh(M)).max() < 1e-11

    def test_lattice_component_counts(self):
        # the excised Nyquist modes split off H; the transform splits further
        H = hamiltonian(CASE_I, LAT_I, 1e-2, PAR_I)
        counts = [sum(c for c, _ in component_spectrum(M)[1]) for M in (H.matrix, eriksen_fw(H).matrix)]
        assert counts == [52, 48]

    def test_permuted_blocks_split_exactly(self):
        rng = np.random.default_rng(11)
        M, _ = scattered_blocks(rng, (5, 3, 5, 1, 7))
        w, shapes = component_spectrum(M)
        assert shapes == [[1, 1], [1, 3], [2, 5], [1, 7]]
        assert np.abs(w - np.linalg.eigvalsh(M)).max() < 1e-12

    def test_tiny_entry_merges_two_components(self):
        rng = np.random.default_rng(12)
        M, perm = scattered_blocks(rng, (4, 6, 5))
        # one pair between the first two blocks, far below round-off but not zero
        i, j = perm[0], perm[4]
        M[i, j] = M[j, i] = 1e-300
        w, shapes = component_spectrum(M)
        assert shapes == [[1, 5], [1, 10]]
        assert np.abs(w - np.linalg.eigvalsh(M)).max() < 1e-12

    def test_one_sided_entry_links_its_pair(self):
        # a pair is linked by an entry in either triangle, whichever one eigvalsh reads
        M, perm = scattered_blocks(np.random.default_rng(13), (3, 3))
        i, j = perm[0], perm[3]
        for row, col in ((i, j), (j, i)):
            one_sided = M.copy()
            one_sided[row, col] = 1e-300
            assert component_spectrum(one_sided)[1] == [[1, 6]]

    def test_dense_matrix_is_one_component(self):
        rng = np.random.default_rng(14)
        B = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        M = B + B.conj().T
        w, shapes = component_spectrum(M)
        assert shapes == [[1, 30]]
        assert np.abs(w - np.linalg.eigvalsh(M)).max() < 1e-12

    def test_one_eigvalsh_per_component_size(self, monkeypatch):
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            sizes.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        M, _ = scattered_blocks(np.random.default_rng(15), (2, 4, 2, 4, 4, 1))
        component_spectrum(M)
        assert sorted(sizes) == [(1, 1, 1), (2, 2, 2), (3, 4, 4)]


class TestBlockedEriksen:
    @pytest.mark.parametrize("lam", [0.0, 1e-3, 1e-2])
    @pytest.mark.parametrize("case", [CASE_I, CASE_II])
    def test_matches_dense_transform(self, case, lam):
        lat = default_lattice(case)
        H = hamiltonian(case, lat, lam, default_params(case, lat))
        assert np.abs(eriksen_fw(H).matrix - dense_eriksen_fw(H)).max() <= 1e-12

    def test_records_block_shapes(self):
        # eriksen_fw fills only the two beta halves of each (sector, k_y) block,
        # and the spectrum check counts each half as one eigh'd block
        for case, lat, par in ((CASE_I, LAT_I, PAR_I), (CASE_II, LAT_II, PAR_II)):
            Hfw = eriksen_fw(hamiltonian(case, lat, 1e-2, par))
            half = Hfw.blocks.shape[-1] // 2
            assert not np.any(Hfw.blocks[:, :half, half:]) and not np.any(Hfw.blocks[:, half:, :half])
        fw_blocks = check_spectrum_preservation().detail["fw_blocks"]
        assert fw_blocks == {"case_i": [[48, 12]], "case_ii": [[4, 64]]}

    def test_block_diagonality_equals_dense_formula(self):
        H = hamiltonian(CASE_I, LAT_I, 1e-2, PAR_I)
        beta = dense_beta(LAT_I)
        Hfw = eriksen_fw(H)
        # entries between the spin components of one beta half, s = 0, 1 and
        # s = 2, 3, leave it block-diagonal; the sector blocks hold none, so
        # they are set on the dense matrix
        D = LAT_I.orbital_dim
        spin = Hfw.matrix.copy()
        spin[[0, D, 2 * D, 3 * D], [D, 0, 3 * D, 2 * D]] = 1.0
        for M in (Hfw.matrix, spin, H.matrix):
            dense = float(np.abs(beta @ M @ beta - M).max())
            assert block_diagonality_defect(M) == dense
        assert dense > 0.0  # H itself is not block-diagonal


class TestSectors:
    def test_derived_sectors(self):
        # beta = +1 component first: 0 with 3, 1 with 2
        assert _sectors().tolist() == [[0, 3], [1, 2]]
        assert not _sectors().flags.writeable

    @pytest.mark.parametrize("lam", [0.0, 1e-3, 1e-2])
    @pytest.mark.parametrize("case", [CASE_I, CASE_II])
    def test_dense_hamiltonian_vanishes_between_sectors(self, case, lam):
        lat = default_lattice(case)
        H = dense_hamiltonian(case, lat, lam, default_params(case, lat))
        # the dense index s N^d + orbital index puts Dirac component s on rows s N^d onward
        sector_of = np.empty(4, int)
        sector_of[_sectors()] = np.arange(len(_sectors()))[:, None]
        sector = np.repeat(sector_of, lat.orbital_dim)
        between = sector[:, None] != sector[None, :]
        assert np.any(H[~between]) and np.all(H[between] == 0.0)


class TestBlockAssembly:
    @pytest.mark.parametrize("case", [CASE_I, CASE_II])
    def test_block_guard_rejects_even_part(self, case):
        lat = default_lattice(case)
        par = default_params(case, lat)
        Hb = _dirac_blocks(case, _orbital(case, lat, 1e-2, par), par)
        half = Hb.shape[-1] // 2
        assert _odd_coupling(Hb, half, par.mc2).shape == (Hb.shape[0], half, half)
        # an even perturbation in the last block only
        Hb[-1, 0, 1] += 1e-3
        Hb[-1, 1, 0] += 1e-3
        with pytest.raises(OddnessError, match="not odd within a block"):
            _odd_coupling(Hb, half, par.mc2)

    @pytest.mark.parametrize("case", [CASE_I, CASE_II])
    def test_scattered_blocks_match_dense_assembly(self, case):
        lat = default_lattice(case)
        par = default_params(case, lat)
        H = hamiltonian(case, lat, 1e-2, par)
        orb = _orbital(case, lat, 1e-2, par)
        _, P2, coupling, _ = dense_orbital(case, lat, 1e-2, par)
        D = lat.orbital_dim
        assert np.abs(H.matrix - dense_hamiltonian(case, lat, 1e-2, par)).max() <= 1e-15
        # c^2 pi^2 reaches 50 in case I, where 1e-15 is below one ulp: the
        # per-block and dense products may round their sums differently
        assert np.abs(_scatter(orb.P2, orb.index, D) - P2).max() <= 1e-15 * np.abs(P2).max()
        assert np.abs(_scatter(orb.coupling, orb.index, D) - coupling).max() <= 1e-15

    @pytest.mark.parametrize("case, darwin", [(CASE_I, True), (CASE_II, True), (CASE_II, False)])
    def test_particle_residual_matches_dense(self, case, darwin):
        lat = default_lattice(case)
        par = default_params(case, lat)
        lams = (1e-2, 1e-3, 1e-4)
        if darwin:
            res, _ = residual_scaling(case, lat, par, lams)
        else:
            rep = darwin_vs_classical_hd(lat, par, lams)
            res = [rep["residual_no_darwin"][lam] for lam in lams]
        half = 2 * lat.orbital_dim
        for lam, r in zip(lams, res):
            Hfw = eriksen_fw(hamiltonian(case, lat, lam, par))
            gap = (Hfw.matrix - dense_correspondence(case, lat, lam, par, darwin))[:half, :half]
            assert abs(r - float(np.abs(gap).max())) <= 1e-13


class TestWeylKernel:
    @pytest.mark.parametrize("lam", [0.0, 1e-3, 1e-2])
    @pytest.mark.parametrize("case", [CASE_I, CASE_II])
    def test_closed_kernel_matches_series(self, case, lam):
        lat = default_lattice(case)
        par = default_params(case, lat)
        orb = _orbital(case, lat, lam, par)
        w, V = np.linalg.eigh(orb.P2)
        closed = _weyl(w, V, orb.coupling, par.mc2)
        for b in range(len(w)):
            series, _ = weyl_series(w[b], V[b], orb.coupling[b], par.mc2)
            assert np.abs(closed[b] - series).max() <= 1e-13

    def test_truncated_series_fails_near_hard_cutoff(self):
        # c p_max = 0.9 mc^2 puts u_max at 0.81: eight series terms miss the
        # closed kernel by far more than 1e-12 mc^2, thirty by less, and the
        # tail bound covers each miss; the closed kernel is exact at any u
        lat = LatticeSpec(dimension=1, n_sites=64)
        par = ParticleParams.neutral(mu_prime=0.08, m=lat.p_max() / 0.9)
        orb = _orbital(CASE_II, lat, 1e-3, par)
        w, V = np.linalg.eigh(orb.P2[0])
        closed = _weyl(w, V, orb.coupling[0], par.mc2)
        pref = abs(float_darwin(par))
        misses = []
        for nmax in (8, 30):
            series, tail = weyl_series(w, V, orb.coupling[0], par.mc2, nmax)
            misses.append(float(np.abs(series - closed).max()))
            assert misses[-1] <= tail
        assert pref * misses[0] > 1e-12 * par.mc2
        assert misses[1] < misses[0]

    @pytest.mark.parametrize("lam", [0.0, 1e-3, 1e-2])
    @pytest.mark.parametrize("case", [CASE_I, CASE_II])
    def test_image_is_built_per_block(self, case, lam):
        lat = default_lattice(case)
        par = default_params(case, lat)
        C = build_correspondence(case, lat, lam, par).matrix
        half = 2 * lat.orbital_dim
        assert np.abs(C[:half, :half] - dense_correspondence(case, lat, lam, par)[:half, :half]).max() <= 1e-13
        # the image lives on the particle half alone
        assert not np.any(C[half:]) and not np.any(C[:, half:])
        # index s N^d + orbital index carries the block label: i_y in case I, one block in case II
        labels = np.arange(lat.matrix_dim) % lat.n_sites if case == CASE_I else np.zeros(lat.matrix_dim, int)
        assert not np.any(C[labels[:, None] != labels[None, :]])


    @pytest.mark.parametrize("lam", [0.0, 1e-4, 1e-3, 1e-2])
    def test_diagonal_p2_image_equals_eigh_path(self, monkeypatch, lam):
        # case II's c^2 pi^2 has exactly zero off-diagonal entries, where eigh
        # returns the sorted diagonal and a 0/1 permutation
        orb = _orbital(CASE_II, LAT_II, lam, PAR_II)
        mc2 = PAR_II.mc2
        diagonal = np.diagonal(orb.P2, axis1=-2, axis2=-1)
        assert np.array_equal(np.diag(diagonal[0])[None], orb.P2)
        w, V = np.linalg.eigh(orb.P2)
        assert np.array_equal(w, np.sort(diagonal.real)) and np.all(np.isin(V, (0.0, 1.0)))
        root = (V * np.sqrt(mc2 ** 2 + w)[..., None, :]) @ _dagger(V)
        want = _per_sector(root), _per_sector(float_darwin(PAR_II) * _weyl(w, V, orb.coupling, mc2))

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called on a diagonal c^2 pi^2")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        got = _image(CASE_II, orb, PAR_II)
        for g, e in zip(got, want):
            assert np.array_equal(g, e)
            # no signbit of an exact zero differs either
            assert np.array_equal(np.signbit(g.real), np.signbit(e.real))
            assert np.array_equal(np.signbit(g.imag), np.signbit(e.imag))


class TestHermiticityGuard:
    def test_large_lattice_builds(self):
        # c^2 pi^2 and div E grow with the mass, which default_params grows with N
        lat = LatticeSpec(dimension=1, n_sites=512)
        orb = _orbital(CASE_II, lat, 1e-2, default_params(CASE_II, lat))
        assert orb.coupling.shape == (1, 512, 512)

    def test_anti_hermitian_part_raises(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        M = X + X.conj().T
        Mh = _hermitize(M)
        assert np.abs(Mh - Mh.conj().T).max() == 0.0
        with pytest.raises(ConfigurationError, match="not Hermitian"):
            _hermitize(M + 1e-9 * (X - X.conj().T))
        # judged per block: the defect is small against the other block's scale
        with pytest.raises(ConfigurationError, match="not Hermitian"):
            _hermitize(np.stack([1e6 * M, M + 1e-9 * (X - X.conj().T)]))


class TestCorrespondence:
    def test_matches_transform_at_zero_amplitude(self):
        for case, lat, par in ((CASE_I, LAT_I, PAR_I), (CASE_II, LAT_II, PAR_II)):
            Hfw = eriksen_fw(hamiltonian(case, lat, 0.0, par))
            C = build_correspondence(case, lat, 0.0, par)
            half = 2 * lat.orbital_dim
            assert np.abs(Hfw.matrix[:half, :half] - C.matrix[:half, :half]).max() < 1e-12

    def test_charged_residual_scales_quadratically(self):
        res, slope = residual_scaling(CASE_I, LAT_I, PAR_I, (1e-2, 1e-3, 1e-4))
        assert res[0] > res[1] > res[2] > 0
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_neutral_residual_scales_quadratically(self):
        _, slope = residual_scaling(CASE_II, LAT_II, PAR_II, (1e-2, 1e-3, 1e-4))
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_dropping_darwin_costs_an_order(self):
        lams = (1e-2, 1e-3, 1e-4)
        rep = darwin_vs_classical_hd(LAT_II, PAR_II, lams)
        slope = fit_slope(lams, [rep["residual_no_darwin"][lam] for lam in lams])
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_rejects_short_amplitude_list(self):
        with pytest.raises(ConfigurationError):
            residual_scaling(CASE_II, LAT_II, PAR_II, (1e-2, 1e-3))

    def test_rejects_non_geometric_amplitudes(self):
        with pytest.raises(ConfigurationError):
            residual_scaling(CASE_II, LAT_II, PAR_II, (1e-2, 1e-3, 2e-4))

    @pytest.mark.parametrize("lams", [(1e-2, 1e-3), (1e-2, 1e-3, 2e-4)])
    def test_darwin_report_rejects_what_residual_scaling_rejects(self, lams):
        with pytest.raises(ConfigurationError) as scaling:
            residual_scaling(CASE_II, LAT_II, PAR_II, lams)
        with pytest.raises(ConfigurationError) as report:
            darwin_vs_classical_hd(LAT_II, PAR_II, lams)
        assert str(report.value) == str(scaling.value)


class TestOneCaseIISweep:
    """Criteria 10 and 11 read one Darwin report; residual_scaling is its case II oracle."""

    def test_verify_fw_sweeps_case_ii_once(self, monkeypatch):
        calls = {"report": 0, "scaling": []}
        report, scaling = qfw_module.darwin_vs_classical_hd, qfw_module.residual_scaling

        def counted_report(*args, **kwargs):
            calls["report"] += 1
            return report(*args, **kwargs)

        def counted_scaling(case, *args, **kwargs):
            calls["scaling"].append(case)
            return scaling(case, *args, **kwargs)

        monkeypatch.setattr(qfw_module, "darwin_vs_classical_hd", counted_report)
        monkeypatch.setattr(qfw_module, "residual_scaling", counted_scaling)
        results = run_checks(load_config("verify-fw"))
        assert all(r.passed for r in results)
        assert calls == {"report": 1, "scaling": [CASE_I]}

    @pytest.mark.parametrize("lams", [(1e-2, 1e-3, 1e-4), (1e-4, 1e-3, 1e-2), (3e-3, 1e-3, 1e-3 / 3, 1e-3 / 9)])
    def test_case_ii_residuals_match_residual_scaling(self, lams):
        r = check_correspondence_scaling(lams)
        res, slope = residual_scaling(CASE_II, LAT_II, PAR_II, lams)
        assert np.abs(np.subtract(r.detail["residuals"]["case_ii"], res)).max() <= 1e-13
        assert abs(r.value["case_ii_slope"] - slope) <= 1e-9

    @pytest.mark.parametrize(
        "profile, slope", [("default", "slope_with_darwin"), ("negative-result", "slope_without_darwin")]
    )
    def test_criteria_10_and_11_report_one_case_ii_slope(self, profile, slope):
        results = {r.name: r for r in run_checks(load_config("verify-fw", None, {"profile": profile}))}
        assert results["negative_result"].value[slope] == results["correspondence_scaling"].value["case_ii_slope"]

    @pytest.mark.parametrize("lams", [(1e-2, 1e-3, 1e-4), (1e-4, 1e-3, 1e-2)])
    def test_report_fits_in_the_order_given(self, lams):
        rep = darwin_vs_classical_hd(LAT_II, PAR_II, lams)
        for key, slope in (("residual_correct", "slope_with_darwin"), ("residual_no_darwin", "slope_without_darwin")):
            assert rep[slope] == fit_slope(lams, [rep[key][lam] for lam in lams])

    def test_negative_result_profile_reads_residual_no_darwin(self):
        lams = (1e-2, 1e-3, 1e-4)
        r = check_correspondence_scaling(lams, "negative-result")
        rep = darwin_vs_classical_hd(LAT_II, PAR_II, lams)
        assert r.detail["residuals"]["case_ii"] == [rep["residual_no_darwin"][lam] for lam in lams]
        assert r.expected_fail and not r.detail["darwin_included"]


def verify_fw_config(profile, lams):
    return load_config("verify-fw", None, {"profile": profile, "amplitudes": lams})


class TestRunScopedTransforms:
    """verify-fw transforms each (case, lattice, amplitude, params) once, through run-scoped caches."""

    @pytest.mark.parametrize("lams", [LAMS, (1e-1, 1e-4, 1e-7)])
    @pytest.mark.parametrize("profile", ["default", "negative-result"])
    def test_each_check_alone_equals_its_run(self, profile, lams):
        # the last list shares no amplitude with the spectrum and parity checks' 1e-2 and 1e-3
        cfg = verify_fw_config(profile, lams)
        for r in run_checks(cfg):
            check = getattr(checks, f"check_{r.name}")
            params = [p for p in inspect.signature(check).parameters if p in RUN_PARAMS]
            alone = check(**{p: cfg[RUN_PARAMS[p]] for p in params})
            assert (alone.value, alone.detail) == (r.value, r.detail), r.name

    def test_one_assembly_and_transform_per_key(self, monkeypatch):
        calls = {"eigh": 0, "orbital": 0}
        eigh, orbital = np.linalg.eigh, qfw_module._orbital

        def counted_eigh(*args, **kwargs):
            calls["eigh"] += 1
            return eigh(*args, **kwargs)

        def counted_orbital(*args, **kwargs):
            calls["orbital"] += 1
            return orbital(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(qfw_module, "_orbital", counted_orbital)
        assert all(r.passed for r in run_checks(load_config("verify-fw")))
        # six keys: each case at 1e-2, 1e-3 and 1e-4. Each entry's transform
        # is two eigh; each case I amplitude's image adds one for its kinetic
        # root, and case II's c^2 pi^2, diagonal, needs none
        assert calls == {"orbital": 6, "eigh": 6 * 2 + 3}

    def test_run_frees_its_transforms(self, monkeypatch):
        # with the collector off only reference counts free memory, so a
        # reference cycle through the run's caches, or a cache that outlives
        # the run, keeps these arrays alive
        blocks = []

        def recorded(*args):
            orb, Hfw = exact_transform(*args)
            blocks.append((weakref.ref(orb.P2), weakref.ref(Hfw.blocks)))
            return orb, Hfw

        monkeypatch.setattr(qfw_module, "exact_transform", recorded)
        cfg = load_config("verify-fw")
        gc.disable()
        try:
            assert all(r.passed for r in run_checks(cfg))
            alive = [ref() is not None for pair in blocks for ref in pair]
        finally:
            gc.enable()
        assert len(blocks) == 6 and not any(alive)

    @pytest.mark.parametrize("case", [CASE_I, CASE_II])
    def test_exact_transform_matches_direct_build(self, case):
        lat = default_lattice(case)
        par = default_params(case, lat)
        orb, Hfw = exact_transform(case, lat, 1e-2, par)
        H = build_hamiltonian(case, lat, par, orb)
        direct = hamiltonian(case, lat, 1e-2, par)
        assert np.array_equal(H.blocks, direct.blocks) and np.array_equal(H.index, direct.index)
        assert np.array_equal(Hfw.blocks, eriksen_fw(direct).blocks)
        # the particle half is the beta = +1 root of the same blocks, bit for bit
        half = H.blocks.shape[-1] // 2
        root = _fw_root(_odd_coupling(direct.blocks, half, par.mc2), par.mc2)
        assert np.array_equal(Hfw.blocks[:, :half, :half], root)

    def test_keys_are_values(self):
        transforms = cache(exact_transform)
        first = transforms(CASE_I, LAT_I, 1e-2, PAR_I)
        lat = LatticeSpec(dimension=2, n_sites=12)
        assert lat is not LAT_I
        assert transforms(CASE_I, lat, 1e-2, default_params(CASE_I, lat)) is first
        assert transforms(CASE_I, LAT_I, 1e-3, PAR_I) is not first

    def test_arrays_are_read_only(self):
        orb, Hfw = exact_transform(CASE_I, LAT_I, 1e-2, PAR_I)
        half = Hfw.blocks.shape[-1] // 2
        particle = Hfw.blocks[:, :half, :half]
        arrays = (Hfw.blocks, Hfw.index, particle, *orb.momenta, orb.P2, orb.coupling, orb.field_profile, orb.index)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0

    def test_verify_fw_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on first use; component_spectrum no longer calls it
        script = (
            "import sys\n"
            "from spincorr.checks import run_checks\n"
            "from spincorr.config import load_config\n"
            "cfg = load_config('verify-fw')\n"
            "before = set(sys.modules)\n"
            "assert all(r.passed for r in run_checks(cfg))\n"
            "print(sorted(m for m in set(sys.modules) - before if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestParity:
    def test_parity_squares_to_identity(self):
        P = parity_operator(LAT_II)
        assert np.abs(P @ P - np.eye(P.shape[0])).max() < 1e-12

    def test_both_hamiltonians_commute_with_parity(self):
        for case, lat, par in ((CASE_I, LAT_I, PAR_I), (CASE_II, LAT_II, PAR_II)):
            H = hamiltonian(case, lat, 1e-2, par)
            dev_h, dev_hp = parity_check(H, eriksen_fw(H))
            assert dev_h < 1e-12
            assert dev_hp < 1e-12

    @pytest.mark.parametrize("case, lat, par", [(CASE_I, LAT_I, PAR_I), (CASE_II, LAT_II, PAR_II)])
    def test_factored_parity_equals_dense_product(self, case, lat, par):
        P = parity_operator(lat)
        H = hamiltonian(case, lat, 1e-2, par)
        Hfw = eriksen_fw(H)
        dense_devs = [float(np.abs(P @ M @ P.conj().T - M).max()) for M in (H.matrix, Hfw.matrix)]
        assert np.abs(np.subtract(parity_check(H, Hfw), dense_devs)).max() < 1e-13

    def test_random_blocks_match_dense_product(self):
        # no structure of a Hamiltonian assumed: one complex, non-Hermitian block of the case II lattice
        rng = np.random.default_rng(3)
        n = LAT_II.matrix_dim
        P = parity_operator(LAT_II)
        blocks = rng.normal(size=(2, 1, n, n)) + 1j * rng.normal(size=(2, 1, n, n))
        # the first is beta-odd, so only the beta signs tell P from the bare site inversion
        blocks[0, :, : n // 2, : n // 2] = blocks[0, :, n // 2 :, n // 2 :] = 0.0
        ops = [LatticeHamiltonian(b, np.arange(n)[None], CASE_II, LAT_II, PAR_II) for b in blocks]
        dense_devs = [float(np.abs(P @ op.matrix @ P.conj().T - op.matrix).max()) for op in ops]
        assert dense_devs[0] > 1.0
        assert np.abs(np.subtract(parity_check(*ops), dense_devs)).max() < 1e-12
        assert parity_check(*ops) == dense_parity_check(*ops)

    @pytest.mark.parametrize("case, lat, par", [(CASE_I, LAT_I, PAR_I), (CASE_II, LAT_II, PAR_II)])
    def test_block_lookup_equals_dense_oracle(self, case, lat, par):
        H = hamiltonian(case, lat, 1e-2, par)
        assert parity_check(H, eriksen_fw(H)) == dense_parity_check(H, eriksen_fw(H))

    def test_image_in_another_block_reads_zero(self):
        even, split = parity_even_two_blocks()
        # within a block only the entries whose row and column images lie in
        # different blocks break parity, each by its whole magnitude
        got = parity_check(even, even)
        assert np.any(split) and got == dense_parity_check(even, even) == (float(np.abs(even.blocks[split]).max()),) * 2

    def test_image_outside_every_block_reads_zero(self):
        even, _ = parity_even_two_blocks()
        # the first block alone: the images of its crossing rows lie in no block
        first = replace(even, blocks=even.blocks[:1], index=even.index[:1])
        assert parity_check(first, first) == dense_parity_check(first, first)

    @pytest.mark.parametrize("case, lat, par", [(CASE_I, LAT_I, PAR_I), (CASE_II, LAT_II, PAR_II)])
    def test_parity_odd_term_is_detected(self, case, lat, par):
        # P (beta (x) f(x)) P^+ = beta (x) f(-x), so beta (x) sin(x) flips sign and the defect is twice its largest entry
        eps = 1e-6
        orb = _orbital(case, lat, 1e-2, par)
        H = build_hamiltonian(case, lat, par, orb)
        odd = replace(H, blocks=H.blocks + eps * _sector_kron(BETA4, orb.field_profile))
        dev_h, dev_hp = parity_check(odd, eriksen_fw(H))
        expected = 2.0 * eps * float(np.abs(orb.field_profile).max())
        assert expected > 1e-8  # far above criterion 12's bound of 1e-12
        assert dev_h == pytest.approx(expected, rel=1e-6)
        assert dev_hp < 1e-12


class TestDarwin:
    def test_dirac_coefficient_exact(self):
        # gamma_m = e/mc makes the bracket collapse to hbar^2 e / 8 m^2 c^2
        m, e = Fraction(3, 2), Fraction(5, 7)
        got = darwin_coefficient(m, e, gamma_m=e / m)
        assert got == e / (8 * m ** 2)

    def test_neutral_coefficient_exact(self):
        mu_p = Fraction(4, 11)
        got = darwin_coefficient(Fraction(2), 0, gamma_m=2 * mu_p)
        assert got == -mu_p / 4

    def test_float_matches_exact(self):
        want = darwin_coefficient(Fraction(PAR_II.m), 0, gamma_m=Fraction(PAR_II.gamma_m))
        assert isinstance(want, Fraction)
        assert float_darwin(PAR_II) == pytest.approx(float(want), rel=1e-14)

    def test_flat_candidate_detectably_worse(self):
        rep = darwin_vs_classical_hd(LAT_II, PAR_II, (1e-2, 1e-3, 1e-4))
        # the report holds measurements only: no verdict, and no bound but gamma_max's
        assert not any(isinstance(v, bool) for v in rep.values())
        assert "required_gap" not in rep
        assert rep["nonrel_form_rel_diff"] < 1e-3
        assert rep["fit_rel_dev"] < 1e-3
        assert rep["gap_over_darwin"] >= (rep["gamma_max"] - 1.0) / 2.0
        assert rep["slope_with_darwin"] == pytest.approx(2.0, abs=0.1)
        assert rep["slope_without_darwin"] == pytest.approx(1.0, abs=0.1)
        # criterion 11 applies every bound it gates on, and reports each
        r = checks.check_negative_result((1e-2, 1e-3, 1e-4), lambda *args: rep)
        assert r.passed
        assert r.value["nonrel_form_rel_diff"] == rep["nonrel_form_rel_diff"]
        assert r.value["required_gap"] == (rep["gamma_max"] - 1.0) / 2.0
        assert r.to_json()["tolerance"] == {
            "gap_over_darwin": r.value["required_gap"],
            "nonrel_form_rel_diff": 1e-3,
            "slope_with_darwin": [1.9, 2.1],
            "slope_without_darwin": [0.9, 1.1],
        }

    @pytest.mark.parametrize(
        "key, value",
        [
            ("gap_over_darwin", 0.0),
            ("nonrel_form_rel_diff", 1e-3),
            ("slope_with_darwin", 1.85),
            ("slope_with_darwin", 2.15),
            ("slope_without_darwin", 0.85),
            ("slope_without_darwin", 1.15),
            # a centred band gates abs(slope - centre) <= 0.1, which rounds above
            # 0.1 at these edges of the recorded bands
            ("slope_with_darwin", 1.9),
            ("slope_with_darwin", 2.1),
            ("slope_without_darwin", 1.1),
        ],
    )
    def test_each_bound_gates_the_check(self, key, value):
        rep = dict(darwin_vs_classical_hd(LAT_II, PAR_II, LAMS), **{key: value})
        assert not checks.check_negative_result(LAMS, lambda *args: rep).passed

    def test_lower_edge_of_the_linear_band_passes(self):
        # abs(0.9 - 1.0) rounds below 0.1
        rep = dict(darwin_vs_classical_hd(LAT_II, PAR_II, LAMS), slope_without_darwin=0.9)
        assert checks.check_negative_result(LAMS, lambda *args: rep).passed

    @pytest.mark.filterwarnings("error")
    def test_underflowed_darwin_fit_is_nan_without_warnings(self):
        # the near-rest Darwin block's squared norm underflows at these amplitudes: no coefficient to fit
        rep = darwin_vs_classical_hd(LAT_II, PAR_II, (1e-160, 1e-161, 1e-162))
        derived = ("fitted_coefficient", "fit_rel_dev", "nonrel_form_rel_diff", "gap_over_darwin")
        assert all(math.isnan(rep[key]) for key in derived)
        assert all(math.isnan(r) for r in rep["residual_candidate"].values())
        assert not checks.check_negative_result((1e-160, 1e-161, 1e-162), lambda *args: rep).passed

    def test_degenerate_fit_rejected(self):
        with pytest.raises(DiagnosticError):
            fit_slope([1e-2, 1e-3, 1e-4], [1.0, 0.0, 1.0])


class TestSymbolicCrossCheck:
    def test_series_instantiation_matches_transform(self):
        rep = opalg_cross_check(order=6, lam=1e-2)
        assert rep["difference"] <= 1.5 * rep["tail_bound"]
        assert rep["ok"]


class TestLightMass:
    """Lattices whose largest momentum is relativistic: gamma_max > 1.4.

    The exact transform and the closed-form image need no series, so the
    O(lambda^2) correspondence holds at any mass the lattice is given.
    """

    def test_neutral_correspondence(self):
        lat = LatticeSpec(dimension=1, n_sites=128)
        par = ParticleParams.neutral(0.08, m=62.0)
        _, slope = residual_scaling(CASE_II, lat, par, LAMS)
        assert 1.9 <= slope <= 2.1
        rep = darwin_vs_classical_hd(lat, par, LAMS)
        assert round(rep["gamma_max"], 4) == 1.4257
        assert 1.9 <= rep["slope_with_darwin"] <= 2.1
        assert 0.9 <= rep["slope_without_darwin"] <= 1.1
        assert rep["fit_rel_dev"] < 1e-3

    def test_charged_correspondence(self):
        lat = LatticeSpec(dimension=2, n_sites=24)
        par = ParticleParams.dirac(m=14.142, e=1.0)
        assert math.sqrt(1.0 + (lat.p_max() / par.mc2) ** 2) > 1.4
        res, slope = residual_scaling(CASE_I, lat, par, LAMS)
        assert 1.9 <= slope <= 2.1
        assert res[0] == pytest.approx(4.40828e-7, rel=1e-5)
