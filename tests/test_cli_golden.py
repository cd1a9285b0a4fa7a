"""Golden stdout of the verify commands, default and explicit methods.

For a fixed seed the report a ``verify-mod`` or ``verify-prod`` prints
is a stable output of the package: these cases pin the sha256 of its
stdout (first 16 hex digits) on instances over Z, GF(2), GF(7) and
GF(65537), dense and sparse, modulo X^n - 1 and a trinomial, true and
wrong H, seeds 0-2, epsilon 2^-20 and 1/4.  A change that alters any of
them changes what a user replaying a seed sees.

On the random sparse instances ``auto`` computes the exact product (its
estimate is far below the verifier's), so the ``example2`` cases pin the
paper's sparse verifiers: the collapsing triple F = sum X^i,
G = sum (X^(iT+1) - X^(iT)), F*G = X^(T^2) - 1 at T = 256, where
verification is the cheaper route.  The explicit methods are pinned on
the dense instances (EXPLICIT_GOLDEN).
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
    "prod-GF2-example2-true": "c20f78a999588630",
    "prod-GF2-example2-wrong": "465a6c34d433445a",
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
    "prod-Z-example2-true": "c5a2083bbab048fe",
    "prod-Z-example2-wrong": "058ebc8c27466b6f",
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


# The explicit methods on the dense instances above, pinned the same way:
# every modular method that runs the scans at X modulo R over GF(q),
# direct-eval over GF(65537), the Kaminski verifiers over every ring, and
# Kronecker over Z.  Each case reuses the instance and seed of its
# default-method case.  direct-eval never extends the field: at degree 48
# GF(65537) reaches epsilon 1/4 but not 2^-20, where the command is an
# input error, exit 2 with an empty stdout.
EXPLICIT_GROUPS = (
    itertools.product(
        ("mod",), ("GF2", "GF7", "GF65537"), ("dense",), ("binomial", "trinomial"), TRUTHS,
        ("extension", "companion-freivalds", "companion-no-polymul"),
    ),
    itertools.product(
        ("mod",), ("GF65537",), ("dense",), ("binomial", "trinomial"), TRUTHS, ("direct-eval",)
    ),
    itertools.product(("prod",), RINGS, ("dense",), TRUTHS, ("kaminski", "kaminski-nomul")),
    itertools.product(("prod",), ("Z",), ("dense",), TRUTHS, ("kronecker",)),
)
EXPLICIT_CASES = {"-".join(key): key for group in EXPLICIT_GROUPS for key in group}

EXPLICIT_GOLDEN = {
    "mod-GF2-dense-binomial-true-companion-freivalds": "4c3ed7056df82a9b",
    "mod-GF2-dense-binomial-true-companion-no-polymul": "1c2e712605c9f966",
    "mod-GF2-dense-binomial-true-extension": "0583d0c83a89908d",
    "mod-GF2-dense-binomial-wrong-companion-freivalds": "ca19d93adb0af2a7",
    "mod-GF2-dense-binomial-wrong-companion-no-polymul": "76eda8f1629d56d3",
    "mod-GF2-dense-binomial-wrong-extension": "b584ac925c3857bc",
    "mod-GF2-dense-trinomial-true-companion-freivalds": "43a724646add284b",
    "mod-GF2-dense-trinomial-true-companion-no-polymul": "e39b3b9e7aa34dad",
    "mod-GF2-dense-trinomial-true-extension": "104e718f275c64d4",
    "mod-GF2-dense-trinomial-wrong-companion-freivalds": "c7aebde5f9042106",
    "mod-GF2-dense-trinomial-wrong-companion-no-polymul": "42a4521a015b954c",
    "mod-GF2-dense-trinomial-wrong-extension": "58e3321e9bc910ad",
    "mod-GF65537-dense-binomial-true-companion-freivalds": "afa293e22ec3b2bc",
    "mod-GF65537-dense-binomial-true-companion-no-polymul": "03aad25bf6b304f6",
    "mod-GF65537-dense-binomial-true-direct-eval": "e3b0c44298fc1c14",
    "mod-GF65537-dense-binomial-true-extension": "faedfbe3181f0720",
    "mod-GF65537-dense-binomial-wrong-companion-freivalds": "3c3d35f76bdf3a5a",
    "mod-GF65537-dense-binomial-wrong-companion-no-polymul": "9ea00f7814e33bed",
    "mod-GF65537-dense-binomial-wrong-direct-eval": "e3b0c44298fc1c14",
    "mod-GF65537-dense-binomial-wrong-extension": "7506203a9ef51939",
    "mod-GF65537-dense-trinomial-true-companion-freivalds": "ba1c9c438c85e4ea",
    "mod-GF65537-dense-trinomial-true-companion-no-polymul": "7d5b926fbd72d50a",
    "mod-GF65537-dense-trinomial-true-direct-eval": "d29bf9d4ffae989c",
    "mod-GF65537-dense-trinomial-true-extension": "09e7b462d9fd7751",
    "mod-GF65537-dense-trinomial-wrong-companion-freivalds": "ea70279480713363",
    "mod-GF65537-dense-trinomial-wrong-companion-no-polymul": "5b5db5df71a03064",
    "mod-GF65537-dense-trinomial-wrong-direct-eval": "e3b0c44298fc1c14",
    "mod-GF65537-dense-trinomial-wrong-extension": "1fd6ddae9864c91e",
    "mod-GF7-dense-binomial-true-companion-freivalds": "ad0cb2b0275a00ae",
    "mod-GF7-dense-binomial-true-companion-no-polymul": "d9d2fa07723d4a1c",
    "mod-GF7-dense-binomial-true-extension": "1e8a1ffe2aaea85a",
    "mod-GF7-dense-binomial-wrong-companion-freivalds": "d0296f4c0ae1e1b1",
    "mod-GF7-dense-binomial-wrong-companion-no-polymul": "49db0f3c76bd50e7",
    "mod-GF7-dense-binomial-wrong-extension": "9df26c75d24a97ec",
    "mod-GF7-dense-trinomial-true-companion-freivalds": "36e1fbbb412f130b",
    "mod-GF7-dense-trinomial-true-companion-no-polymul": "c1b949c08f0e7287",
    "mod-GF7-dense-trinomial-true-extension": "6de08f7f2b154e15",
    "mod-GF7-dense-trinomial-wrong-companion-freivalds": "93653cb497d1b131",
    "mod-GF7-dense-trinomial-wrong-companion-no-polymul": "fbd19441cd026c9e",
    "mod-GF7-dense-trinomial-wrong-extension": "f99d6cca7a76910c",
    "prod-GF2-dense-true-kaminski": "20b1d8ed2bd82d7e",
    "prod-GF2-dense-true-kaminski-nomul": "e94cc8d58cb16b8f",
    "prod-GF2-dense-wrong-kaminski": "f5a7cfaf06fa05d8",
    "prod-GF2-dense-wrong-kaminski-nomul": "b73d239b65cea263",
    "prod-GF65537-dense-true-kaminski": "1c0adc3c99734d4f",
    "prod-GF65537-dense-true-kaminski-nomul": "4f941d7c20c8a4d7",
    "prod-GF65537-dense-wrong-kaminski": "019692f6016754da",
    "prod-GF65537-dense-wrong-kaminski-nomul": "5c0bc052903d10b8",
    "prod-GF7-dense-true-kaminski": "5cb8285a68be4ace",
    "prod-GF7-dense-true-kaminski-nomul": "5184958e7bd66aec",
    "prod-GF7-dense-wrong-kaminski": "c4421038d9cec2ed",
    "prod-GF7-dense-wrong-kaminski-nomul": "240c7ecaaa53ecd0",
    "prod-Z-dense-true-kaminski": "59dc2c24a555d596",
    "prod-Z-dense-true-kaminski-nomul": "8c094a7d73a63eb7",
    "prod-Z-dense-true-kronecker": "93f7258255f10b0b",
    "prod-Z-dense-wrong-kaminski": "55141ad6a5dc66f6",
    "prod-Z-dense-wrong-kaminski-nomul": "f1529dc0593a0a17",
    "prod-Z-dense-wrong-kronecker": "edd3af01794bcade",
}


@pytest.mark.parametrize("case", sorted(EXPLICIT_CASES))
def test_explicit_method_output_is_pinned(case, tmp_path, capsys):
    key = EXPLICIT_CASES[case]
    default_key, method = key[:-1], key[-1]
    seed = CASES["-".join(default_key)][1]
    args = ["verify-mod" if key[0] == "mod" else "verify-prod", "--seed", str(seed)]
    args += ["--method", method]
    if seed == 2:
        args += ["--epsilon", "1/4"]
    for name, X in _instance(default_key).items():
        path = tmp_path / f"{name}.poly"
        write_poly_file(path, X)
        args += [f"--{name}", str(path)]
    code = main(args)
    out = capsys.readouterr().out
    if method == "direct-eval" and seed != 2:
        assert code == 2 and out == ""
    else:
        assert code == (0 if key[-2] == "true" else 1)
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == EXPLICIT_GOLDEN[case]


@pytest.mark.parametrize("ring", ["GF2", "GF7"])
def test_direct_eval_refuses_a_small_field(ring, tmp_path, capsys):
    # direct-eval evaluates at a point of the coefficient field and never
    # extends it: at epsilon 2^-20 GF(2) and GF(7) are input errors
    key = ("mod", ring, "dense", "binomial", "true")
    args = ["verify-mod", "--method", "direct-eval", "--seed", "0"]
    for name, X in _instance(key).items():
        path = tmp_path / f"{name}.poly"
        write_poly_file(path, X)
        args += [f"--{name}", str(path)]
    code = main(args)
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert code == 2 and out == ""
    assert len(lines) == 1 and lines[0].startswith("error: field of size ")
