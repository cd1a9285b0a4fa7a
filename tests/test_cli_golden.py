"""Golden stdout of the default-method verify commands.

For a fixed seed the report a default-method ``verify-mod`` or
``verify-prod`` prints is a stable output of the package: these cases pin
the sha256 of its stdout (first 16 hex digits) on instances over Z, GF(2),
GF(7) and GF(65537), dense and sparse, modulo X^n - 1 and a trinomial, true
and wrong H, seeds 0-2, epsilon 2^-20 and 1/4.  A change that alters any of
them changes what a user replaying a seed sees.

On the random sparse instances ``auto`` computes the exact product (its
estimate is far below the verifier's), so the ``example2`` cases pin the
paper's sparse verifiers: the collapsing triple F = sum X^i,
G = sum (X^(iT+1) - X^(iT)), F*G = X^(T^2) - 1 at T = 256, where
verification is the cheaper route.
"""

import hashlib
import itertools

import pytest

import polycheck as pc
from polycheck.cli import main
from polycheck.oracle import oracle_mod_product
from polycheck.poly import write_poly_file
from polycheck.rings import RngStream
from conftest import perturb_poly, rand_dense, rand_sparse

RINGS = {"Z": pc.ZZ, "GF2": pc.GF(2), "GF7": pc.GF(7), "GF65537": pc.GF(65537)}
REPS = ("dense", "sparse")
TRUTHS = ("true", "wrong")
GROUPS = (
    itertools.product(("mod",), RINGS, REPS, ("binomial", "trinomial"), TRUTHS),
    itertools.product(("prod",), RINGS, REPS, TRUTHS),
    itertools.product(("mod",), ("Z", "GF2"), ("example2",), ("binomial",), TRUTHS),
    itertools.product(("prod",), ("Z", "GF2"), ("example2",), TRUTHS),
)
EXAMPLE2_T = 256
# case name -> (key, seed); the seed cycles through 0-2 within each command,
# and seed 2 runs at epsilon 1/4
CASES = {"-".join(key): (key, i % 3) for group in GROUPS for i, key in enumerate(group)}

GOLDEN = {
    "mod-GF2-dense-binomial-true": "0583d0c83a89908d",
    "mod-GF2-dense-binomial-wrong": "b584ac925c3857bc",
    "mod-GF2-dense-trinomial-true": "104e718f275c64d4",
    "mod-GF2-dense-trinomial-wrong": "58e3321e9bc910ad",
    "mod-GF2-example2-binomial-true": "355fe33a24757650",
    "mod-GF2-example2-binomial-wrong": "21fbb78c98103dd0",
    "mod-GF2-sparse-binomial-true": "4454cbc3e02ab74c",
    "mod-GF2-sparse-binomial-wrong": "6e4c74002cd8b2e5",
    "mod-GF2-sparse-trinomial-true": "b352a6491cc86a19",
    "mod-GF2-sparse-trinomial-wrong": "1db152667e5f2403",
    "mod-GF65537-dense-binomial-true": "faedfbe3181f0720",
    "mod-GF65537-dense-binomial-wrong": "7506203a9ef51939",
    "mod-GF65537-dense-trinomial-true": "d29bf9d4ffae989c",
    "mod-GF65537-dense-trinomial-wrong": "1fd6ddae9864c91e",
    "mod-GF65537-sparse-binomial-true": "f57b4f6d292c85ac",
    "mod-GF65537-sparse-binomial-wrong": "aba0033af3927700",
    "mod-GF65537-sparse-trinomial-true": "5c6bbe783a4a8069",
    "mod-GF65537-sparse-trinomial-wrong": "fa08013647fc78e3",
    "mod-GF7-dense-binomial-true": "1e8a1ffe2aaea85a",
    "mod-GF7-dense-binomial-wrong": "9df26c75d24a97ec",
    "mod-GF7-dense-trinomial-true": "6de08f7f2b154e15",
    "mod-GF7-dense-trinomial-wrong": "f99d6cca7a76910c",
    "mod-GF7-sparse-binomial-true": "8f20a9d7837ed1f6",
    "mod-GF7-sparse-binomial-wrong": "9e9a88d650686c89",
    "mod-GF7-sparse-trinomial-true": "ada1c6ce5b41e93c",
    "mod-GF7-sparse-trinomial-wrong": "d8433a69d408a424",
    "mod-Z-dense-binomial-true": "f9b2444cedede790",
    "mod-Z-dense-binomial-wrong": "032655c21bdf5d85",
    "mod-Z-dense-trinomial-true": "8d7a648c5077f354",
    "mod-Z-dense-trinomial-wrong": "64ce3f8f8376c718",
    "mod-Z-example2-binomial-true": "75993aa01fab3d7f",
    "mod-Z-example2-binomial-wrong": "a884edd9812f6c05",
    "mod-Z-sparse-binomial-true": "d70e32e71fb86644",
    "mod-Z-sparse-binomial-wrong": "aba0033af3927700",
    "mod-Z-sparse-trinomial-true": "f9c2a78ed62ee289",
    "mod-Z-sparse-trinomial-wrong": "de4c2c8facab4a5f",
    "prod-GF2-dense-true": "20b1d8ed2bd82d7e",
    "prod-GF2-dense-wrong": "f5a7cfaf06fa05d8",
    "prod-GF2-example2-true": "8c693db596912508",
    "prod-GF2-example2-wrong": "7ac013c2ecc43388",
    "prod-GF2-sparse-true": "520ea81910a09dc7",
    "prod-GF2-sparse-wrong": "e456ad69b07cd7e3",
    "prod-GF65537-dense-true": "1c0adc3c99734d4f",
    "prod-GF65537-dense-wrong": "019692f6016754da",
    "prod-GF65537-sparse-true": "79205c701f56eb2c",
    "prod-GF65537-sparse-wrong": "0a6f3347d32e6c70",
    "prod-GF7-dense-true": "5cb8285a68be4ace",
    "prod-GF7-dense-wrong": "c4421038d9cec2ed",
    "prod-GF7-sparse-true": "8d63d85c2c87138e",
    "prod-GF7-sparse-wrong": "f4df03d2fa6100dc",
    "prod-Z-dense-true": "93f7258255f10b0b",
    "prod-Z-dense-wrong": "edd3af01794bcade",
    "prod-Z-example2-true": "fe9c608d14dd09b0",
    "prod-Z-example2-wrong": "da4ec669fb6af913",
    "prod-Z-sparse-true": "300bc90c0a012ca2",
    "prod-Z-sparse-wrong": "57855fedcf5bde75",
}


def _example2(key):
    """The collapsing triple at T = EXAMPLE2_T; modulo X^n - 1 with
    n = T^2 - T + 2, just above deg G, X^(T^2) - 1 reduces to X^(T-2) - 1.
    The wrong H adds X^T."""
    ctx = RINGS[key[1]]
    t = EXAMPLE2_T
    one, minus_one = ctx.one(), ctx.neg(ctx.one())
    F = pc.SparsePoly(ctx, [(i, one) for i in range(t)])
    G = pc.SparsePoly(
        ctx, [(e, c) for i in range(t) for e, c in ((i * t, minus_one), (i * t + 1, one))]
    )
    top = t * t
    polys = {"F": F, "G": G}
    if key[0] == "mod":
        n = t * t - t + 2
        polys["P"] = pc.x_pow_minus_one(ctx, n)
        top -= n
    H = {0: minus_one, top: one}
    if key[-1] == "wrong":
        H[t] = one
    polys["H"] = pc.SparsePoly.from_dict(ctx, H)
    return polys


def _instance(key):
    """The files' polynomials, drawn from a stream fixed by the case name."""
    if key[2] == "example2":
        return _example2(key)
    digest = hashlib.sha256("-".join(key).encode()).digest()
    rng = RngStream(int.from_bytes(digest[:8], "big"))
    if key[0] == "mod":
        _, ring, rep, pkind, truth = key
        ctx = RINGS[ring]
        n = 48 if rep == "dense" else 4096
        if pkind == "binomial":
            P = pc.x_pow_minus_one(ctx, n)
        else:
            k = 1 + rng.below(n - 1)
            P = pc.SparsePoly(ctx, [(0, ctx.one()), (k, ctx.one()), (n, ctx.one())])
        if rep == "dense":
            F, G = (rand_dense(ctx, n - 1 - rng.below(4), rng) for _ in "FG")
        else:
            F, G = (rand_sparse(ctx, n, 5, rng) for _ in "FG")
        H = oracle_mod_product(F, G, P)
        if rep == "dense" and not isinstance(H, pc.DensePoly):
            H = H.to_dense()
        polys = {"F": F, "G": G, "H": H, "P": P}
    else:
        _, ring, rep, truth = key
        ctx = RINGS[ring]
        if rep == "dense":
            F, G = (rand_dense(ctx, 40 + rng.below(8), rng) for _ in "FG")
        else:
            F, G = (rand_sparse(ctx, 2**14, 6, rng) for _ in "FG")
        polys = {"F": F, "G": G, "H": pc.mul_oracle(F, G)}
    if truth == "wrong":
        polys["H"] = perturb_poly(polys["H"], rng)
    return polys


@pytest.mark.parametrize("case", sorted(CASES))
def test_default_output_is_pinned(case, tmp_path, capsys):
    key, seed = CASES[case]
    args = ["verify-mod" if key[0] == "mod" else "verify-prod", "--seed", str(seed)]
    if seed == 2:
        args += ["--epsilon", "1/4"]
    for name, X in _instance(key).items():
        path = tmp_path / f"{name}.poly"
        write_poly_file(path, X)
        args += [f"--{name}", str(path)]
    code = main(args)
    out = capsys.readouterr().out
    assert code == (0 if key[-1] == "true" else 1)
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == GOLDEN[case]
