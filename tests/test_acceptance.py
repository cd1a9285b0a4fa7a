"""Acceptance suite.

One test per criterion; each prints a PASS line with its measured numbers so
the run log doubles as the evidence record.  Criterion 9 is report-only: it
archives the benchmark CSV and never gates.
"""

import math
import time
import zlib
from fractions import Fraction

import pytest

import polycheck as pc
from polycheck import modeval, modverify, prodverify
from polycheck.cli import main as cli_main, run_bench
from polycheck.modeval import CompanionOperator
from polycheck.modverify import VerifyConfig
from polycheck.oracle import oracle_matrix_eval, oracle_mod_product
from polycheck.poly import write_poly_file
from polycheck.rings import ExtField, POLY_MUL_OPS, RngStream
from conftest import perturb_poly, rand_dense, rand_monic_sparse, rand_sparse

Z = pc.ZZ
F2 = pc.GF(2)
F65537 = pc.GF(65537)
# 2^128 - 159, the largest prime below 2^128
Q128 = pc.GF(2**128 - 159)
GF2_8 = ExtField(F2, (1, 0, 1, 1, 1, 0, 0, 0, 1))  # X^8+X^4+X^3+X^2+1
QUARTER = Fraction(1, 4)

EX1_F = pc.SparsePoly(Z, [(0, 2), (7, 2), (14, 1)])
EX1_G = pc.SparsePoly(Z, [(0, 3), (8, 5), (13, 3)])
EX1_H = pc.SparsePoly(Z, [(0, 2), (7, -2), (14, 1)])
EX1_FG = pc.SparsePoly(
    Z, [(0, 6), (7, 6), (8, 10), (13, 6), (14, 3), (15, 10), (20, 6), (22, 5), (27, 3)]
)
EX1_FH = pc.SparsePoly(Z, [(0, 4), (28, 1)])


def report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def cfg(seed, eps=QUARTER, method="auto"):
    return VerifyConfig(epsilon=eps, method=method, seed=seed)


def test_criterion_1_product_fixtures(tmp_path):
    t0 = time.time()
    assert pc.mul_oracle(EX1_F, EX1_G) == EX1_FG
    assert pc.mul_oracle(EX1_F, EX1_H) == EX1_FH
    for name, P in (("F", EX1_F), ("G", EX1_G), ("H", EX1_H),
                    ("FG", EX1_FG), ("FH", EX1_FH)):
        write_poly_file(tmp_path / f"{name}.poly", P)
    rc1 = cli_main(["verify-prod", "--F", str(tmp_path / "F.poly"),
                    "--G", str(tmp_path / "G.poly"), "--H", str(tmp_path / "FG.poly"),
                    "--seed", "1"])
    rc2 = cli_main(["verify-prod", "--F", str(tmp_path / "F.poly"),
                    "--G", str(tmp_path / "H.poly"), "--H", str(tmp_path / "FH.poly"),
                    "--seed", "1"])
    elapsed = time.time() - t0
    assert rc1 == 0 and rc2 == 0
    assert elapsed < 1.0
    report("1 product fixtures", f"both triples exit 0 in {elapsed:.3f}s")


def test_criterion_2_reduction_fixture():
    t0 = time.time()
    P = pc.SparsePoly(Z, [(0, 3), (56, 1), (59, -8), (61, 2), (65, 7), (80, 1)])
    Q = pc.SparsePoly(Z, [(32, 5), (71, 1), (80, -3), (108, -3), (118, 8), (120, 4), (131, 1)])
    R = pc.mod_reduce(Q, P)
    elapsed = time.time() - t0
    assert (R.degree(), R.sparsity(), R.norm()) == (79, 53, 11912)
    assert elapsed < 1.0
    report("2 reduction fixture", f"degree 79 sparsity 53 norm 11912 in {elapsed:.3f}s")


def _alpha_for(ctx, rng):
    if ctx == Z:
        return rng.below(9) - 4
    return ctx.sample(rng)


def _sparse_params(ctx, rng):
    if ctx == Z:
        return 2 + rng.below(40), 1 + rng.below(5)
    return 2 + rng.below(998), 1 + rng.below(5)


def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    rings = [Z, F2, F65537, Q128, GF2_8]
    per_cell = 1000
    checked = 0
    for ring_idx, ctx in enumerate(rings):
        rng = RngStream(1000 + ring_idx)
        for _ in range(per_cell):
            # scalar ops: one dense and one sparse modulus instance
            n = 2 + rng.below(10)
            P = rand_monic_sparse(ctx, n, 1 + rng.below(3), rng, hi=4)
            Fd = rand_dense(ctx, rng.below(n), rng, hi=4)
            Gd = rand_dense(ctx, rng.below(n), rng, hi=4)
            a = _alpha_for(ctx, rng)
            truth = pc.evaluate(
                oracle_mod_product(Fd.to_sparse(), Gd.to_sparse(), P), a
            )
            assert modeval.eval_mod_p_dense(P, Fd, Gd, a) == truth
            assert modeval.eval_mod_binomial_dense(
                Fd, Gd, n, a
            ) == pc.evaluate(
                oracle_mod_product(
                    Fd.to_sparse(), Gd.to_sparse(), pc.x_pow_minus_one(ctx, n)
                ),
                a,
            )
            ns, t = _sparse_params(ctx, rng)
            Ps = rand_monic_sparse(ctx, ns, 1 + rng.below(3), rng, hi=4)
            Fs = rand_sparse(ctx, ns, t, rng, hi=4)
            Gs = rand_sparse(ctx, ns, t, rng, hi=4)
            a = _alpha_for(ctx, rng)
            assert modeval.eval_mod_p_sparse(Ps, Fs, Gs, a) == pc.evaluate(
                oracle_mod_product(Fs, Gs, Ps), a
            )
            assert modeval.eval_mod_binomial_sparse(Fs, Gs, ns, a) == pc.evaluate(
                oracle_mod_product(Fs, Gs, pc.x_pow_minus_one(ctx, ns)), a
            )
            # companion ops: projection on dense, full matrix on sparse
            k = 1 + rng.below(3)
            R = pc.DensePoly(
                ctx, [ctx.canon(rand) for rand in
                      ([rng.below(2) for _ in range(k)] if ctx in (F2,) else
                       [_alpha_for(ctx, rng) for _ in range(k)])] + [ctx.one()]
            )
            op = CompanionOperator(R)
            u = tuple(rng.below(2) for _ in range(k))
            Hm = oracle_mod_product(Fd.to_sparse(), Gd.to_sparse(), P).to_dense()
            M = oracle_matrix_eval(Hm, R)
            want_u = tuple(
                _dot_u(ctx, u, M, c) for c in range(k)
            )
            assert modeval.project_modprod_companion(P, Fd, Gd, op, u) == want_u
            nm = 2 + rng.below(24)
            Pm = rand_monic_sparse(ctx, nm, 1 + rng.below(3), rng, hi=3)
            Fm = rand_sparse(ctx, nm, 1 + rng.below(4), rng, hi=3)
            Gm = rand_sparse(ctx, nm, 1 + rng.below(4), rng, hi=3)
            want_m = oracle_matrix_eval(oracle_mod_product(Fm, Gm, Pm).to_dense(), R)
            assert modeval.eval_modprod_companion_sparse(Pm, Fm, Gm, op) == want_m
            checked += 6
    elapsed = time.time() - t0
    assert elapsed < 120
    report(
        "3 oracle equivalence",
        f"{checked} op-instances across 5 rings, 100% agreement in {elapsed:.1f}s",
    )


def _dot_u(ctx, u, M, col):
    s = ctx.zero()
    for r in range(len(u)):
        if u[r]:
            s = ctx.add(s, M[r][col])
    return s


def _true_mod_instance(ctx, n, t, rng, sparse=True):
    P = rand_monic_sparse(ctx, n, 3, rng)
    if sparse:
        F = rand_sparse(ctx, n, t, rng)
        G = rand_sparse(ctx, n, t, rng)
    else:
        F = rand_dense(ctx, rng.below(n), rng)
        G = rand_dense(ctx, rng.below(n), rng)
    H = oracle_mod_product(F, G, P)
    return P, F, G, H


def test_criterion_4_one_sidedness():
    t0 = time.time()
    counts = {}

    def run(name, total, fn):
        rng = RngStream(zlib.crc32(name.encode()))
        ok = 0
        for i in range(total):
            seed = i % 10  # at least 10 distinct seeds over the suite
            ok += 1 if fn(rng, seed, i) else 0
        assert ok == total, f"{name}: {total - ok} false rejections"
        counts[name] = total

    K31 = pc.GF(2**31 - 1)

    def f_mod(rng, seed, i):
        P, F, G, H = _true_mod_instance(K31, 24, 4, rng)
        return modverify.verify_mod(F, G, H, P, cfg(seed)).verdict

    def f_mod_z(rng, seed, i):
        P, F, G, H = _true_mod_instance(Z, 16, 4, rng)
        return modverify.verify_mod_over_Z(F, G, H, P, cfg(seed)).verdict

    def f_mod_ff(rng, seed, i):
        P, F, G, H = _true_mod_instance(F2, 48, 4, rng)
        return modverify.verify_mod_ff(F, G, H, P, cfg(seed)).verdict

    def f_companion(rng, seed, i):
        P, F, G, H = _true_mod_instance(F2, 32, 4, rng, sparse=False)
        method = "companion-freivalds" if i % 2 else "companion-no-polymul"
        return modverify.verify_mod_companion(F, G, H, P, cfg(seed, method=method)).verdict

    def f_companion_sparse(rng, seed, i):
        P, F, G, H = _true_mod_instance(F2, 256, 3, rng)
        return modverify.verify_mod_companion_sparse(F, G, H, P, cfg(seed)).verdict

    small_e = prodverify.KaminskiParams(e=Fraction(1, 10))

    def f_kaminski(rng, seed, i):
        if i % 5 == 0:
            F = rand_dense(F2, 600, rng)
            G = rand_dense(F2, 580, rng)
            H = pc.mul_oracle(F, G)
            return prodverify.verify_product_kaminski(F, G, H, cfg(seed), small_e).verdict
        F = rand_dense(Z, 40, rng)
        G = rand_dense(Z, 38, rng)
        H = pc.mul_oracle(F, G)
        return prodverify.verify_product_kaminski(F, G, H, cfg(seed)).verdict

    def f_kaminski_nomul(rng, seed, i):
        if i % 25 == 0:
            F = rand_dense(F2, 300, rng)
            G = rand_dense(F2, 280, rng)
        else:
            F = rand_dense(Z, 300, rng)
            G = rand_dense(Z, 280, rng)
        H = pc.mul_oracle(F, G)
        return prodverify.verify_product_kaminski_nomul(
            F, G, H, cfg(seed), small_e
        ).verdict

    def f_int(rng, seed, i):
        a = rng.bits(2000) | 1
        b = rng.bits(2000) | 1
        return prodverify.verify_int_product(
            a, b, a * b, cfg(seed), e=Fraction(1, 10)
        ).verdict

    def f_kron(rng, seed, i):
        F = rand_dense(Z, 64, rng, hi=2**32)
        G = rand_dense(Z, 60, rng, hi=2**32)
        return prodverify.verify_product_kronecker(F, G, pc.mul_oracle(F, G), cfg(seed)).verdict

    def f_sparse(rng, seed, i):
        F = rand_sparse(Z, 2**20, 8, rng)
        G = rand_sparse(Z, 2**20, 8, rng)
        return prodverify.verify_sparse_product(F, G, pc.mul_oracle(F, G), cfg(seed)).verdict

    run("verify_mod", 500, f_mod)
    run("verify_mod_over_Z", 500, f_mod_z)
    run("verify_mod_ff", 500, f_mod_ff)
    run("verify_mod_companion", 500, f_companion)
    run("verify_mod_companion_sparse", 500, f_companion_sparse)
    run("verify_product_kaminski", 500, f_kaminski)
    run("verify_product_kaminski_nomul", 500, f_kaminski_nomul)
    run("verify_int_product", 500, f_int)
    run("verify_product_kronecker", 500, f_kron)
    run("verify_sparse_product", 500, f_sparse)
    elapsed = time.time() - t0
    assert elapsed < 120
    report(
        "4 one-sidedness",
        f"{sum(counts.values())} true instances, zero false rejections in {elapsed:.1f}s",
    )


def test_criterion_5_soundness_quarter():
    t0 = time.time()
    rates = {}

    def run(name, fn, trials=2000):
        rng = RngStream(zlib.crc32(name.encode()) ^ 0x5)
        accepted = sum(1 for seed in range(trials) if fn(rng, seed))
        rate = accepted / trials
        assert rate <= 0.30, f"{name}: acceptance rate {rate}"
        rates[name] = rate

    K31 = pc.GF(2**31 - 1)
    rng0 = RngStream(77)
    P1, F1, G1, H1 = _true_mod_instance(K31, 100, 6, rng0)
    H1bad = perturb_poly(H1, rng0)
    run("verify_mod", lambda rng, s: modverify.verify_mod(F1, G1, H1bad, P1, cfg(s)).verdict)

    P2, F2_, G2, H2 = _true_mod_instance(Z, 24, 5, rng0)
    H2bad = perturb_poly(H2, rng0)
    run("verify_mod_over_Z",
        lambda rng, s: modverify.verify_mod_over_Z(F2_, G2, H2bad, P2, cfg(s)).verdict)

    P3, F3, G3, H3 = _true_mod_instance(F2, 64, 6, rng0)
    H3bad = perturb_poly(H3, rng0)
    run("verify_mod_ff",
        lambda rng, s: modverify.verify_mod_ff(F3, G3, H3bad, P3, cfg(s)).verdict)

    P4, F4, G4, H4 = _true_mod_instance(F2, 64, 5, rng0, sparse=False)
    H4bad = perturb_poly(H4, rng0)
    run("verify_mod_companion",
        lambda rng, s: modverify.verify_mod_companion(
            F4, G4, H4bad, P4, cfg(s, method="companion-freivalds" if s % 2 else "companion-no-polymul")
        ).verdict)

    P5, F5, G5, H5 = _true_mod_instance(F2, 1024, 4, rng0)
    H5bad = perturb_poly(H5, rng0)
    run("verify_mod_companion_sparse",
        lambda rng, s: modverify.verify_mod_companion_sparse(F5, G5, H5bad, P5, cfg(s)).verdict)

    small_e = prodverify.KaminskiParams(e=Fraction(1, 10))
    F6 = rand_dense(F2, 1024, rng0)
    G6 = rand_dense(F2, 1000, rng0)
    H6 = pc.mul_oracle(F6, G6)
    H6perturb = perturb_poly(H6, rng0)
    lo6, hi6 = small_e.fold_range(1024)
    L6 = lo6 * (hi6 // lo6 if hi6 // lo6 >= 2 else 2)
    H6lcm = pc.DensePoly(
        F2,
        [
            (c + (1 if e in (0, L6) else 0)) % 2
            for e, c in enumerate(list(H6.coeffs) + [0] * max(0, L6 + 1 - len(H6.coeffs)))
        ],
    )

    def kaminski_trial(rng, s):
        Hbad = H6perturb if s % 2 else H6lcm
        return prodverify.verify_product_kaminski(F6, G6, Hbad, cfg(s), small_e).verdict

    run("verify_product_kaminski", kaminski_trial)

    F7 = rand_dense(Z, 1024, rng0)
    G7 = rand_dense(Z, 1000, rng0)
    H7bad = perturb_poly(pc.mul_oracle(F7, G7), rng0)
    run("verify_product_kaminski_nomul",
        lambda rng, s: prodverify.verify_product_kaminski_nomul(
            F7, G7, H7bad, cfg(s), small_e
        ).verdict)

    a8 = rng0.bits(10**4) | (1 << (10**4 - 1))
    b8 = rng0.bits(10**4) | (1 << (10**4 - 1))
    c8 = a8 * b8

    def int_trial(rng, s):
        cbad = c8 + (1 << RngStream(s).below(2 * 10**4 - 2))
        return prodverify.verify_int_product(a8, b8, cbad, cfg(s), e=Fraction(3, 10)).verdict

    run("verify_int_product", int_trial)

    F9 = rand_dense(Z, 256, rng0, hi=2**64)
    G9 = rand_dense(Z, 250, rng0, hi=2**64)
    H9 = pc.mul_oracle(F9, G9)

    def kron_trial(rng, s):
        H9bad = perturb_poly(H9, RngStream(s ^ 0x5A5A))
        return prodverify.verify_product_kronecker(F9, G9, H9bad, cfg(s), e=Fraction(3, 10)).verdict

    run("verify_product_kronecker", kron_trial)

    F10 = rand_sparse(Z, 2**20, 16, rng0)
    G10 = rand_sparse(Z, 2**20, 16, rng0)
    H10 = pc.mul_oracle(F10, G10)
    d10 = dict(H10.terms)
    d10[2**20 + 7] = d10.get(2**20 + 7, 0) + 3
    H10bad = pc.SparsePoly.from_dict(Z, d10)
    run("verify_sparse_product",
        lambda rng, s: prodverify.verify_sparse_product(F10, G10, H10bad, cfg(s)).verdict)

    elapsed = time.time() - t0
    assert elapsed < 300
    worst = max(rates.values())
    report(
        "5 soundness",
        f"10 verifiers x 2000 adversarial trials, worst rate {worst:.4f} <= 0.30 in {elapsed:.1f}s",
    )


def test_criterion_6_binomial_divisor_bound():
    t0 = time.time()
    e = Fraction(9, 20)
    total = 0
    for n in (256, 1024, 4096):
        rng = RngStream(n)
        k = prodverify.kaminski_k(n, e)
        assert k >= 1
        params = prodverify.KaminskiParams(e=e)
        lo, hi = params.fold_range(n)
        for _ in range(70):
            delta = rand_dense(Z, rng.below(2 * n), rng)
            assert prodverify.count_binomial_divisors(delta, n, e) < k
            total += 1
        # lcm-adversarial: X^L - 1 with L a multiple of several fold degrees
        for j in range(7):
            base = lo + rng.below(max(hi - lo, 1))
            L = base
            for cand in range(base + 1, hi):
                nxt = L * cand // math.gcd(L, cand)
                if nxt <= 2 * n:
                    L = nxt
            delta = pc.SparsePoly(Z, [(0, -1), (L, 1)]).to_dense()
            count = prodverify.count_binomial_divisors(delta, n, e)
            assert count < k
            total += 1
    elapsed = time.time() - t0
    assert elapsed < 120
    report("6 divisor bound", f"{total} deltas, all counts < k in {elapsed:.1f}s")


def test_criterion_7_growth_bounds():
    t0 = time.time()
    rng = RngStream(7007)
    reductions = 0
    while reductions < 500:
        n = 2 + rng.below(24)
        P = rand_monic_sparse(Z, n, 2 + rng.below(3), rng)
        Q = rand_sparse(Z, n + rng.below(80), 1 + rng.below(8), rng, hi=20)
        if Q.is_zero():
            continue
        g = pc.gap_info(P)
        excess = max(0, Q.degree() - (n - 1))
        R = pc.mod_reduce(Q, P)
        assert R.sparsity() <= pc.sparsity_bound(Q.sparsity(), P.sparsity(), excess, g)
        assert R.norm() <= pc.reduced_norm_bound(
            Q.norm(), P.sparsity(), P.norm(), excess, g
        )
        reductions += 1
    products = 0
    while products < 500:
        F = rand_sparse(Z, 60, 1 + rng.below(10), rng, hi=60)
        G = rand_sparse(Z, 60, 1 + rng.below(10), rng, hi=60)
        H = pc.mul_oracle(F, G)
        if H.is_zero():
            continue
        assert H.norm() <= pc.product_norm_bound(F, G)
        products += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    report("7 growth bounds", f"{reductions}+{products} instances, zero violations in {elapsed:.1f}s")


def test_criterion_8_no_multiplication_paths():
    rng = RngStream(808)
    small_e = prodverify.KaminskiParams(e=Fraction(1, 10))
    before = POLY_MUL_OPS.count
    for ctx, n in ((Z, 400), (F2, 400), (pc.GF(65537), 300)):
        F = rand_dense(ctx, n, rng)
        G = rand_dense(ctx, n - 5, rng)
        H = pc.mul_oracle(F, G)
        Hbad = perturb_poly(H, rng)
        snapshot = POLY_MUL_OPS.count
        assert prodverify.verify_product_kaminski_nomul(F, G, H, cfg(1), small_e).verdict
        assert not prodverify.verify_product_kaminski_nomul(F, G, Hbad, cfg(1), small_e).verdict
        assert POLY_MUL_OPS.count == snapshot, f"multiplications on {ctx}"
    # small-degree fallback stays multiplication-free too
    F = rand_dense(Z, 10, rng)
    G = rand_dense(Z, 9, rng)
    H = pc.mul_oracle(F, G)
    snapshot = POLY_MUL_OPS.count
    assert prodverify.verify_product_kaminski_nomul(F, G, H, cfg(0)).verdict
    assert POLY_MUL_OPS.count == snapshot
    # companion-no-polymul, true and adversarial
    P, Fd, Gd, Hd = _true_mod_instance(F2, 64, 5, rng, sparse=False)
    Hbad = perturb_poly(Hd, rng)
    snapshot = POLY_MUL_OPS.count
    for seed in range(30):
        modverify.verify_mod_companion(Fd, Gd, Hd, P, cfg(seed, method="companion-no-polymul"))
        modverify.verify_mod_companion(Fd, Gd, Hbad, P, cfg(seed, method="companion-no-polymul"))
    assert POLY_MUL_OPS.count == snapshot
    # a strict epsilon: at n = 2^11, d = 15 and 234 draws, so one scan of
    # 233 lanes after the first draw
    n = 2**11
    P = pc.SparsePoly(F2, [(0, 1), (3, 1), (n, 1)])
    Fd, Gd = rand_dense(F2, n - 1, rng), rand_dense(F2, n - 2, rng)
    Hd = pc.mod_reduce(pc.mul_oracle(Fd, Gd), P)
    snapshot = POLY_MUL_OPS.count
    r = modverify.verify_mod_companion(
        Fd, Gd, Hd, P, cfg(0, Fraction(1, 2**20), "companion-no-polymul")
    )
    assert r.verdict and r.rounds == len(r.witnesses) == 234
    assert POLY_MUL_OPS.count == snapshot
    report("8 no-multiplication", "instrumented counter stayed at zero on both paths")


def test_criterion_9_bench_evidence(tmp_path):
    t0 = time.time()
    csv_text = run_bench("modverify", [2**16], 1, 99)
    target = tmp_path / "acceptance_bench.csv"
    target.write_text(csv_text)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("method,ring,n,")
    assert len(lines) == 2
    cells = lines[1].split(",")
    verify_s, multiply_s, rate = float(cells[6]), float(cells[7]), float(cells[8])
    print(f"ACCEPTANCE 9 bench (report-only): verify {verify_s:.3f}s vs multiply "
          f"{multiply_s:.3f}s at n=2^16, acceptance {rate}; CSV:")
    print(csv_text)
    if verify_s < multiply_s:
        report("9 soft performance", f"verification {multiply_s / verify_s:.1f}x faster")
    else:
        print("ACCEPTANCE 9 soft performance: verification not faster on this host "
              "(report-only, non-gating)")
    assert rate == 1.0
    assert time.time() - t0 < 300
