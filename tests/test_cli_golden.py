"""Golden stdout of the default-method verify commands.

For a fixed seed the report a default-method ``verify-mod`` or
``verify-prod`` prints is a stable output of the package: these cases pin
the sha256 of its stdout (first 16 hex digits) on instances over Z, GF(2),
GF(7) and GF(65537), dense and sparse, modulo X^n - 1 and a trinomial, true
and wrong H, seeds 0-2, epsilon 2^-20 and 1/4.  A change that alters any of
them changes what a user replaying a seed sees.
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
)
# case name -> (key, seed); the seed cycles through 0-2 within each command,
# and seed 2 runs at epsilon 1/4
CASES = {"-".join(key): (key, i % 3) for group in GROUPS for i, key in enumerate(group)}

GOLDEN = {
    "mod-GF2-dense-binomial-true": "0583d0c83a89908d",
    "mod-GF2-dense-binomial-wrong": "b584ac925c3857bc",
    "mod-GF2-dense-trinomial-true": "104e718f275c64d4",
    "mod-GF2-dense-trinomial-wrong": "58e3321e9bc910ad",
    "mod-GF2-sparse-binomial-true": "686f310498b17320",
    "mod-GF2-sparse-binomial-wrong": "6f0a1c64f3b6a6e8",
    "mod-GF2-sparse-trinomial-true": "e6625c9f3e2220c5",
    "mod-GF2-sparse-trinomial-wrong": "fc4c6db183123033",
    "mod-GF65537-dense-binomial-true": "faedfbe3181f0720",
    "mod-GF65537-dense-binomial-wrong": "7506203a9ef51939",
    "mod-GF65537-dense-trinomial-true": "d29bf9d4ffae989c",
    "mod-GF65537-dense-trinomial-wrong": "1fd6ddae9864c91e",
    "mod-GF65537-sparse-binomial-true": "447cae047cf93c3d",
    "mod-GF65537-sparse-binomial-wrong": "0cf75015d7f9697e",
    "mod-GF65537-sparse-trinomial-true": "4c0cadf042d95759",
    "mod-GF65537-sparse-trinomial-wrong": "5a5c663f10bbd76a",
    "mod-GF7-dense-binomial-true": "1e8a1ffe2aaea85a",
    "mod-GF7-dense-binomial-wrong": "9df26c75d24a97ec",
    "mod-GF7-dense-trinomial-true": "6de08f7f2b154e15",
    "mod-GF7-dense-trinomial-wrong": "f99d6cca7a76910c",
    "mod-GF7-sparse-binomial-true": "51bd619413c0a035",
    "mod-GF7-sparse-binomial-wrong": "aa0baca2102588e7",
    "mod-GF7-sparse-trinomial-true": "15edff1325193c69",
    "mod-GF7-sparse-trinomial-wrong": "579d38a6f7b63675",
    "mod-Z-dense-binomial-true": "f9b2444cedede790",
    "mod-Z-dense-binomial-wrong": "032655c21bdf5d85",
    "mod-Z-dense-trinomial-true": "8d7a648c5077f354",
    "mod-Z-dense-trinomial-wrong": "64ce3f8f8376c718",
    "mod-Z-sparse-binomial-true": "7e93be327b947afc",
    "mod-Z-sparse-binomial-wrong": "0cf75015d7f9697e",
    "mod-Z-sparse-trinomial-true": "dd151560aeab6d7b",
    "mod-Z-sparse-trinomial-wrong": "1bf7bb4f1c14776d",
    "prod-GF2-dense-true": "20b1d8ed2bd82d7e",
    "prod-GF2-dense-wrong": "f5a7cfaf06fa05d8",
    "prod-GF2-sparse-true": "49fe50fe8e946589",
    "prod-GF2-sparse-wrong": "d7ca90020d90fd8f",
    "prod-GF65537-dense-true": "1c0adc3c99734d4f",
    "prod-GF65537-dense-wrong": "019692f6016754da",
    "prod-GF65537-sparse-true": "8bdcbce22bb197e0",
    "prod-GF65537-sparse-wrong": "c0b8c3dd2d1ce6cb",
    "prod-GF7-dense-true": "5cb8285a68be4ace",
    "prod-GF7-dense-wrong": "c4421038d9cec2ed",
    "prod-GF7-sparse-true": "e1c31bbb1c9d98f7",
    "prod-GF7-sparse-wrong": "fda7ed822d6f0cbd",
    "prod-Z-dense-true": "93f7258255f10b0b",
    "prod-Z-dense-wrong": "edd3af01794bcade",
    "prod-Z-sparse-true": "17f3df383a8ac755",
    "prod-Z-sparse-wrong": "b129c783f22b538f",
}


def _instance(key):
    """The files' polynomials, drawn from a stream fixed by the case name."""
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
