import pytest

import polycheck as pc
from conftest import rand_dense, rand_monic_sparse, rand_sparse
from oracle import (
    companion_matrix,
    oracle_divides,
    oracle_matrix_eval,
    oracle_mod_product,
    poly_divmod,
)

Z = pc.ZZ


class TestOracleModProduct:
    def test_two_term_product_mod_binomial(self):
        F = pc.SparsePoly(Z, [(0, 2), (7, 2), (14, 1)])
        H = pc.SparsePoly(Z, [(0, 2), (7, -2), (14, 1)])
        P = pc.x_pow_minus_one(Z, 30)
        assert oracle_mod_product(F, H, P) == pc.SparsePoly(Z, [(0, 4), (28, 1)])

    def test_zero_inputs(self):
        P = rand_monic_sparse(Z, 8, 3, __import__("polycheck.rings", fromlist=["RngStream"]).RngStream(1))
        assert oracle_mod_product(pc.SparsePoly.zero(Z), pc.SparsePoly.zero(Z), P).is_zero()

    def test_definitional_equality(self, rng):
        for _ in range(60):
            ctx = (Z, pc.GF(11))[rng.below(2)]
            n = 2 + rng.below(16)
            P = rand_monic_sparse(ctx, n, 1 + rng.below(4), rng)
            F = rand_sparse(ctx, n, 1 + rng.below(5), rng)
            G = rand_sparse(ctx, n, 1 + rng.below(5), rng)
            want = pc.mod_reduce(pc.mul_oracle(F, G), P)
            assert oracle_mod_product(F, G, P) == want
            assert oracle_mod_product(F.to_dense(), G.to_dense(), P) == want.to_dense()

    def test_requires_monic(self):
        P = pc.SparsePoly(Z, [(0, 1), (3, 2)])
        F = pc.SparsePoly(Z, [(0, 1)])
        with pytest.raises(ValueError):
            oracle_mod_product(F, F, P)


class TestMatrixOracle:
    def test_minimal_polynomial_annihilates(self, rng):
        for q in (2, 3, 13):
            R = rand_dense(pc.GF(q), 3, rng)
            R = pc.DensePoly(pc.GF(q), list(R.coeffs[:-1]) + [1])
            M = oracle_matrix_eval(R, R)
            assert all(all(x == 0 for x in row) for row in M)

    def test_x_gives_companion(self):
        R = pc.DensePoly(pc.GF(5), [2, 3, 1])
        X = pc.DensePoly(pc.GF(5), [0, 1])
        assert oracle_matrix_eval(X, R) == companion_matrix(R)

    def test_divisibility_criterion(self, rng):
        # H(C_R) = 0 exactly when R divides H
        for _ in range(40):
            q = (2, 7)[rng.below(2)]
            K = pc.GF(q)
            R = pc.DensePoly(K, [rng.below(q) for _ in range(3)] + [1])
            H = rand_dense(K, rng.below(9), rng)
            if H.is_zero():
                continue
            M = oracle_matrix_eval(H, R)
            is_zero = all(all(x == 0 for x in row) for row in M)
            assert is_zero == oracle_divides(H, R)


class TestDivides:
    def test_x6_by_x2(self):
        A = pc.SparsePoly(Z, [(0, -1), (6, 1)])
        B = pc.SparsePoly(Z, [(0, -1), (2, 1)])
        assert oracle_divides(A, B) is True

    def test_x5_by_x2(self):
        A = pc.SparsePoly(Z, [(0, -1), (5, 1)])
        B = pc.SparsePoly(Z, [(0, -1), (2, 1)])
        assert oracle_divides(A, B) is False

    def test_zero_dividend(self):
        B = pc.SparsePoly(Z, [(0, -1), (2, 1)])
        assert oracle_divides(pc.SparsePoly.zero(Z), B) is True

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            oracle_divides(pc.SparsePoly(Z, [(0, 1)]), pc.SparsePoly.zero(Z))


class TestPolyDivmod:
    def test_reconstruction(self, rng):
        for _ in range(60):
            ctx = (Z, pc.GF(13))[rng.below(2)]
            P = rand_monic_sparse(ctx, 2 + rng.below(10), 2, rng).to_dense()
            Q = rand_dense(ctx, rng.below(40), rng)
            quo, rem = poly_divmod(Q, P)
            recon = pc.mul_oracle(quo, P)
            total = list(recon.coeffs) + [ctx.zero()] * max(
                0, len(rem.coeffs) - len(recon.coeffs)
            )
            for i, c in enumerate(rem.coeffs):
                total[i] = ctx.add(total[i], c)
            assert pc.DensePoly(ctx, total) == Q
            if not rem.is_zero():
                assert rem.degree() < P.degree()
