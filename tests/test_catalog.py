"""Potential families: coefficients, remainders, zeta, assumption checks."""

import math

import numpy as np
import pytest

import latticewaves as lw
from latticewaves.catalog import b_coefficient, check_assumptions

# frozen with 50-digit arithmetic: psi_1'(0.1) for the power-law lattice a=4,
# i.e. -4*(1.1)^-5 + 4 - 20*0.1 + 60*0.01
PSI1_01_A4 = 0.11631470776337930221
# frozen oracle: 1e7-term direct partial sum of m^-3.5 plus integral tail
ZETA_35 = 1.1267338673170566


class TestBuildModel:
    def test_cm4_leading_coefficients(self, cm4):
        assert cm4.alpha[0] == pytest.approx(20.0, abs=1e-12)
        assert cm4.beta[0] == pytest.approx(-60.0, abs=1e-12)
        assert cm4.varsigma[0] == pytest.approx(-4.0, abs=1e-12)
        assert cm4.gamma[0] == pytest.approx(840.0, abs=1e-12)
        # sharp Lagrange radius for the remainder bounds
        assert cm4.delta_star == pytest.approx(1.0 - 6.0 ** (-1.0 / 8.0), abs=1e-15)

    def test_nnn_structure(self, nnn1):
        assert nnn1.M == 2
        assert nnn1.alpha[0] == 1.0 and nnn1.alpha[1] == 1.0
        assert nnn1.tail_alpha_m2 == 0.0 and nnn1.tail_gamma_m4 == 0.0

    def test_cm_certified_sums_vs_closed_forms(self):
        # trunc_tol controls the array length; the certified sums are
        # tail-corrected and must hit the closed forms regardless
        m = lw.build_model(lw.PotentialSpec.calogero_moser(4.0), trunc_tol=1e-10)
        assert m.sum_alpha_m2 == pytest.approx(2.0 * np.pi ** 4 / 9.0, abs=1e-10)
        assert m.sum_alpha_m4 == pytest.approx(10.0 * np.pi ** 2 / 3.0, abs=1e-10)

    def test_cm_rejects_small_exponent(self):
        with pytest.raises(lw.DegeneracyError):
            lw.PotentialSpec.calogero_moser(3.0)
        with pytest.raises(lw.DegeneracyError):
            lw.PotentialSpec.calogero_moser(2.5)

    def test_nnn_rejects_degenerate_quadratic(self):
        with pytest.raises(lw.DegeneracyError):
            lw.PotentialSpec.nnn(1.0, beta1=-8.0, beta2=1.0)

    def test_finite_range_rejects_degenerate_quadratic(self):
        with pytest.raises(lw.DegeneracyError):
            lw.PotentialSpec.finite_range([1.0, 1.0], [-8.0, 1.0])

    @pytest.mark.parametrize("gamma", [[0.5], [0.5, 0.1]])
    def test_gamma_length_must_match(self, gamma):
        # one entry per range: a short gamma is neither broadcast nor
        # left to fail later in range_tail_bound
        with pytest.raises(lw.ConfigError, match=rf"gamma has {len(gamma)} entries, "
                                                 r"alpha and beta 3"):
            lw.PotentialSpec.finite_range([1, 0.4, 0.1], [1, -0.3, 0.05], gamma=gamma)

    @pytest.mark.parametrize("family, args, value", [
        ("nnn", (1.0,), -1.0), ("nnn", (1.0,), 0.0), ("classical_fput", (), math.nan),
        ("finite_range", ([1.0], [1.0]), -0.5), ("custom", ([1.0], [1.0], None), 0.0),
        ("calogero_moser", (4.0,), -0.1), ("calogero_moser", (4.0,), 1.0),
        ("calogero_moser", (4.0,), 2.0),
    ])
    def test_delta_star_rejected(self, family, args, value):
        # a radius must be positive, and the power law's below the pole of
        # its bond length m + eta at eta = -m
        with pytest.raises(lw.ConfigError, match=rf"delta_star={value}"):
            getattr(lw.PotentialSpec, family)(*args, delta_star=value)

    def test_delta_star_accepted_inside(self):
        assert lw.PotentialSpec.calogero_moser(4.0, delta_star=0.99).delta_star == 0.99
        assert lw.PotentialSpec.nnn(1.0, delta_star=2.0).delta_star == 2.0

    def test_determinism(self):
        a = lw.build_model(lw.PotentialSpec.calogero_moser(3.7), trunc_tol=1e-7)
        b = lw.build_model(lw.PotentialSpec.calogero_moser(3.7), trunc_tol=1e-7)
        assert a.M == b.M
        assert np.array_equal(a.alpha, b.alpha)
        assert a.sum_alpha_m2 == b.sum_alpha_m2

    def test_tail_bounds_below_tolerance(self, cm4):
        assert cm4.tail_alpha_m2 < cm4.trunc_tol
        assert cm4.tail_beta_m3 < cm4.trunc_tol
        assert cm4.tail_gamma_m4 < cm4.trunc_tol

    def test_immutability(self, cm4):
        with pytest.raises(ValueError):
            cm4.alpha[0] = 1.0


class TestRemainders:
    def test_psi_prime_at_zero(self, cm4, nnn1):
        assert cm4.psi_prime(1, 0.0) == 0.0
        assert cm4.psi_prime(5, 0.0) == 0.0
        assert nnn1.psi_prime(1, 0.0) == 0.0

    def test_psi_prime_frozen_value(self, cm4):
        assert cm4.psi_prime(1, 0.1) == pytest.approx(PSI1_01_A4, abs=1e-13)

    def test_psi_prime_cubic_bound_m2(self, cm4):
        gamma2 = 4 * 5 * 6 * 7 / 2.0 ** 8
        for eta in (0.05, -0.05):
            assert abs(cm4.psi_prime(2, eta)) <= gamma2 * abs(eta) ** 3

    def test_cubic_bounds_random(self, rng):
        # |psi'| <= gamma |eta|^3 and |psi''| <= 3 gamma eta^2 across the
        # catalog, 100 random (m, eta) pairs per model
        for spec in (lw.PotentialSpec.calogero_moser(3.5),
                     lw.PotentialSpec.calogero_moser(4.0),
                     lw.PotentialSpec.calogero_moser(6.0)):
            model = lw.build_model(spec)
            for _ in range(100):
                m = int(rng.integers(1, 50))
                eta = rng.uniform(-1.0, 1.0) * m * model.delta_star
                gam = model.gamma[m - 1]
                assert abs(model.psi_prime(m, eta)) <= gam * abs(eta) ** 3 * (1 + 1e-12)
                assert abs(model.psi_second(m, eta)) <= 3 * gam * eta ** 2 * (1 + 1e-12)

    def test_series_switch_continuity(self, cm4, cm35):
        # direct and Taylor branches must agree at the switch threshold
        for model in (cm4, cm35):
            for m in (1, 3, 10):
                eta = 1e-3 * m
                below = model.psi_prime(m, eta * (1 - 1e-9))
                above = model.psi_prime(m, eta * (1 + 1e-9))
                assert abs(below - above) < 1e-12

    def test_domain_violation(self, cm4):
        with pytest.raises(lw.DomainError):
            cm4.psi_prime(1, 0.6)  # delta_star = 1/2
        with pytest.raises(lw.DomainError):
            cm4.psi_prime(3, -1.6)

    def test_domain_violation_names_the_number(self, cm4):
        # the error names the range and the largest |eta|/m of the call
        eta = np.array([0.1, -0.9, 0.3])
        with pytest.raises(lw.DomainError,
                           match=r"m=3, max \|eta\|/m = 3\.000e-01 > delta_star"):
            cm4.psi_prime(3.0, eta)

    @pytest.mark.parametrize("a", [3.5, 6.0])
    def test_remainder_degrees_sum_psi_prime(self, a):
        # m^-p sum_n kappa_n z^n against m psi_m'(m z) = -a m^-a [(1 + z)^(-a-1)
        # - 1 + (a+1) z - (a+1)(a+2) z^2 / 2] at 40 digits, also past the
        # 12-term cap of psi' (|z| = 0.2)
        mpmath = pytest.importorskip("mpmath")
        model = lw.build_model(lw.PotentialSpec.calogero_moser(a))
        for zmax in (1e-3, 0.05, 0.2):
            p, kappa = model.remainder_degrees(zmax)
            assert p == a
            n = np.arange(3, kappa.size + 3)
            for z in (zmax, -zmax):
                with mpmath.workdps(40):
                    A, Z = mpmath.mpf(a), mpmath.mpf(z)
                    ref = float(-A * ((1 + Z) ** (-A - 1) - 1 + (A + 1) * Z
                                      - (A + 1) * (A + 2) / 2 * Z * Z))
                assert abs(np.sum(kappa * z ** n) - ref) <= 2e-15 * abs(ref)
        with pytest.raises(lw.DomainError, match="diverges"):
            model.remainder_degrees(1.0)

    def test_tables_have_no_degree_form(self, nnn1):
        assert nnn1.remainder_degrees(0.01) is None

    def test_broadcast_shapes(self, cm4):
        m = np.arange(1, 5, dtype=float)[:, None]
        eta = 1e-4 * np.ones((4, 7))
        assert cm4.psi_prime(m, eta).shape == (4, 7)

    @pytest.mark.parametrize("a", [3.5, 4.0, 6.0])
    def test_series_accuracy_against_mpmath(self, a):
        # psi' and psi'' against 40-digit arithmetic, from 1e-5 through the
        # former 1e-3 switch to past the 12-term series cap, where the
        # direct formula takes over and its cancellation costs some digits
        mpmath = pytest.importorskip("mpmath")
        from latticewaves.catalog import _series_cut
        model = lw.build_model(lw.PotentialSpec.calogero_moser(a))
        assert _series_cut(a + 1.0, 3, 0.05) is None
        assert _series_cut(a + 2.0, 2, 0.05) is None
        with mpmath.workdps(40):
            A = mpmath.mpf(a)
            for z, tol in ((1e-5, 1e-14), (9e-4, 1e-14), (1.1e-3, 1e-14),
                           (1e-2, 1e-14), (0.05, 1e-12)):
                for m in (1, 7, 300):
                    for eta in (z * m, -z * m):
                        M, E = mpmath.mpf(m), mpmath.mpf(eta)
                        al = A * (A + 1) * M ** (-A - 2)
                        be = -A * (A + 1) * (A + 2) / 2 * M ** (-A - 3)
                        d1 = (-A * (M + E) ** (-A - 1) + A * M ** (-A - 1)
                              - al * E - be * E * E)
                        d2 = A * (A + 1) * (M + E) ** (-A - 2) - al - 2 * be * E
                        assert abs(model.psi_prime(m, eta) - d1) <= tol * abs(d1)
                        assert abs(model.psi_second(m, eta) - d2) <= tol * abs(d2)


class TestZeta:
    def test_classical_values(self):
        assert lw.zeta(2.0) == pytest.approx(np.pi ** 2 / 6.0, abs=1e-13)
        assert lw.zeta(4.0) == pytest.approx(np.pi ** 4 / 90.0, abs=1e-13)

    def test_partial_sum_oracle(self):
        assert lw.zeta(3.5) == pytest.approx(ZETA_35, abs=1e-13)

    def test_domain(self):
        with pytest.raises(lw.DomainError):
            lw.zeta(1.0)
        with pytest.raises(lw.DomainError):
            lw.zeta(0.5)

    def test_monotone_decreasing_above_one(self):
        s = np.linspace(2.0, 10.0, 33)
        vals = [lw.zeta(v) for v in s]
        assert all(v > 1.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_tail_correction_against_high_precision(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        from latticewaves.sums import power_tail
        for p in (1.2, 1.5, 2.0, 3.5, 7.0):
            for m_last in (16, 64, 300):
                exact = float(mpmath.zeta(p) - sum(mpmath.mpf(m) ** (-p)
                                                   for m in range(1, m_last + 1)))
                assert power_tail(p, m_last) == pytest.approx(exact, abs=1e-13,
                                                              rel=1e-12)


class TestScalarSums:
    def test_b_cm4(self, cm4):
        assert b_coefficient(cm4) == pytest.approx(-2.0 * np.pi ** 4 / 3.0, abs=1e-10)

    def test_b_nnn_single_term(self):
        m = lw.build_model(lw.PotentialSpec.nnn(0.5, beta1=1.0, beta2=0.0))
        assert b_coefficient(m) == 1.0

    def test_b_degenerate_custom(self):
        # beta1 = -8 beta2 makes b vanish; the custom family defers the
        # degeneracy to b_coefficient
        m = lw.build_model(lw.PotentialSpec.custom(
            alpha=[1.0, 1.0], beta=[-8.0, 1.0], gamma=[0.0, 0.0]))
        assert m.sum_beta_m3 == 0.0
        with pytest.raises(lw.DegeneracyError):
            b_coefficient(m)

    def test_assumption_report_cm4(self, cm4):
        rep = check_assumptions(cm4)
        assert rep.passed and rep.b_nonzero and rep.sums_finite
        # sum |beta_m| m^5 = 60 zeta(2) = 10 pi^2, sum gamma m^4 = 840 zeta(4)
        assert rep.beta_m5_value == pytest.approx(10.0 * np.pi ** 2, abs=1e-9)
        assert rep.gamma_m4_value == pytest.approx(840.0 * np.pi ** 4 / 90.0, abs=1e-9)

    def test_assumption_report_nnn(self, nnn1):
        rep = check_assumptions(nnn1)
        assert rep.passed
        assert rep.beta_m5_value == 1.0  # beta2 = 0
        assert rep.b_value == 1.0

    def test_assumption_report_slow_exponent(self):
        m = lw.build_model(lw.PotentialSpec.calogero_moser(3.2), trunc_tol=1e-4)
        rep = check_assumptions(m)
        assert rep.passed
        a = 3.2
        expect = 0.5 * a * (a + 1) * (a + 2) * lw.zeta(a - 2.0)
        assert rep.beta_m5_value == pytest.approx(expect, rel=1e-10)

    def test_pair_energy_matches_force_term(self, cm4):
        # d/d eta pair_energy = varsigma + alpha eta + beta eta^2 + psi'
        h = 1e-6
        for m in (1, 2, 7):
            for eta in (0.01, -0.02, 0.2):
                de = (cm4.pair_energy(m, eta + h) - cm4.pair_energy(m, eta - h)) / (2 * h)
                expected = cm4.varsigma[m - 1] + cm4.force_term(np.array([[float(m)]]),
                                                                np.array([[eta]]))[0, 0]
                assert de == pytest.approx(expected, rel=2e-9, abs=1e-10)
