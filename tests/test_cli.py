import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import polycheck as pc
from polycheck.cli import EPSILON_FLOOR, _parse_epsilon, build_parser, main, run_bench
from polycheck.poly import format_poly, parse_poly, write_poly_file
from polycheck.rings import RngStream
from conftest import rand_monic_sparse, rand_sparse
from oracle import oracle_mod_product

Z = pc.ZZ


def run_cli(args, env_seed=None, timeout=None):
    env = dict(os.environ)
    env.pop("POLYPROOF_SEED", None)
    if env_seed is not None:
        env["POLYPROOF_SEED"] = str(env_seed)
    proc = subprocess.run(
        [sys.executable, "-m", "polycheck.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def poly_args(tmp_path, ring, **bodies):
    """Write one .poly file per keyword and return the --name path flags."""
    args = []
    for name, body in bodies.items():
        path = tmp_path / f"{name}.poly"
        path.write_text(f"ring {ring}\n{body}\n")
        args += [f"--{name}", str(path)]
    return args


@pytest.fixture
def example1_files(tmp_path):
    F = pc.SparsePoly(Z, [(0, 2), (7, 2), (14, 1)])
    H = pc.SparsePoly(Z, [(0, 2), (7, -2), (14, 1)])
    FH = pc.SparsePoly(Z, [(0, 4), (28, 1)])
    paths = {}
    for name, P in (("F", F), ("H", H), ("FH", FH)):
        path = tmp_path / f"{name}.poly"
        write_poly_file(path, P)
        paths[name] = str(path)
    return paths


@pytest.fixture
def mod_instance_files(tmp_path, rng):
    K = pc.GF(65537)
    P = rand_monic_sparse(K, 40, 3, rng)
    F = rand_sparse(K, 40, 5, rng)
    G = rand_sparse(K, 40, 5, rng)
    H = oracle_mod_product(F, G, P)
    paths = {}
    for name, X in (("F", F), ("G", G), ("H", H), ("P", P)):
        path = tmp_path / f"{name}.poly"
        write_poly_file(path, X)
        paths[name] = str(path)
    return paths


class TestVerifyProdCommand:
    def test_collapsing_triple_exits_zero(self, example1_files):
        code, out, _ = run_cli(
            [
                "verify-prod",
                "--F", example1_files["F"],
                "--G", example1_files["H"],
                "--H", example1_files["FH"],
                "--seed", "1",
            ]
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] is True and report["command"] == "verify-prod"

    def test_example2_exits_zero(self, tmp_path):
        code, out, _ = run_cli(
            ["gen", "--ring", "Z", "--T", "10", "--adversarial", "example2",
             "--out-prefix", str(tmp_path / "e2")]
        )
        assert code == 0
        code, out, _ = run_cli(
            ["verify-prod", "--F", str(tmp_path / "e2_F.poly"),
             "--G", str(tmp_path / "e2_G.poly"), "--H", str(tmp_path / "e2_H.poly")]
        )
        assert code == 0

    def test_flipped_sign_exits_one_deterministically(self, example1_files, tmp_path):
        bad = pc.SparsePoly(Z, [(0, -4), (28, 1)])
        bad_path = tmp_path / "bad.poly"
        write_poly_file(bad_path, bad)
        args = [
            "verify-prod",
            "--F", example1_files["F"],
            "--G", example1_files["H"],
            "--H", str(bad_path),
            "--seed", "9",
        ]
        runs = [run_cli(args) for _ in range(2)]
        assert all(code == 1 for code, _, _ in runs)
        assert runs[0][1] == runs[1][1]

    def test_method_choices(self, example1_files):
        for method in ("kaminski", "kaminski-nomul", "kronecker", "sparse"):
            code, out, _ = run_cli(
                ["verify-prod", "--F", example1_files["F"], "--G", example1_files["H"],
                 "--H", example1_files["FH"], "--method", method, "--seed", "3"]
            )
            assert code == 0, (method, out)


class TestVerifyProdInputs:
    def test_all_zero_integers_auto_accepts(self, tmp_path):
        # 0 * 0 = 0 is a true identity: auto picks Kronecker and accepts it
        args = poly_args(tmp_path, "Z", F="dense", G="dense 0", H="dense")
        code, out, err = run_cli(["verify-prod", *args], timeout=60)
        assert code == 0 and "Traceback" not in err
        report = json.loads(out)
        assert report["verdict"] is True and report["method"] == "kronecker"

    def test_mixed_dense_sparse_integers_auto(self, tmp_path):
        # (1 + 2X + 3X^2)(1 + X) = 1 + 3X + 5X^2 + 3X^3
        args = poly_args(tmp_path, "Z", F="dense 1 2 3", G="sparse 0:1 1:1", H="dense 1 3 5 3")
        code, out, err = run_cli(["verify-prod", *args], timeout=60)
        assert code == 0 and "Traceback" not in err
        assert json.loads(out)["method"] == "kronecker"

    @pytest.mark.parametrize("method", ["auto", "kaminski"])
    @pytest.mark.parametrize("H, code", [("dense 1 3 5 3", 0), ("dense 1 3 5 4", 1)])
    def test_mixed_dense_sparse_field_kaminski(self, tmp_path, method, H, code):
        # the exact-product fallback once handed the mixed pair to mul_oracle
        args = poly_args(tmp_path, "GF 7", F="dense 1 2 3", G="sparse 0:1 1:1", H=H)
        got, out, err = run_cli(["verify-prod", "--method", method, *args], timeout=60)
        assert got == code and "Traceback" not in err and err == ""
        assert json.loads(out)["verdict"] is (code == 0)

    @pytest.mark.parametrize("ring", ["GF 2", "GF 65537", "Z"])
    def test_mixed_triple_past_the_densify_cap(self, tmp_path, ring):
        # (1 + X^(2^27))(1 + X) with F and H sparse, G dense: no form rule
        # densifies it, so every method accepts the true H and rejects it
        # with its top term removed
        n = 2**27
        true = f"sparse 0:1 1:1 {n}:1 {n + 1}:1"
        for method in ("auto", "kaminski", "kaminski-nomul"):
            for H, code in ((true, 0), (f"sparse 0:1 1:1 {n}:1", 1)):
                args = poly_args(tmp_path, ring, F=f"sparse 0:1 {n}:1", G="dense 1 1", H=H)
                got, out, err = run_cli(["verify-prod", "--method", method, *args], timeout=60)
                assert (got, err) == (code, ""), (ring, method, H)
                assert json.loads(out)["verdict"] is (code == 0)

    def test_kronecker_past_the_densify_cap_is_decided(self, tmp_path):
        # X^(2^26) * 1 = X^(2^26) is accepted and 2 X^(2^26) rejected, as by
        # --method sparse; at X^(2^61) * X^(2^61) = X^(2^62) the fold modulus
        # would pass FOLD_BITS_CAP, so the prime decides it.  The child's
        # address space is capped at 1 GB, so a regression fails with a
        # MemoryError rather than exhausting the host
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        cases = [
            (f"sparse {2**26}:1", "sparse 0:1", f"sparse {2**26}:1", 0),
            (f"sparse {2**26}:1", "sparse 0:1", f"sparse {2**26}:2", 1),
            (f"sparse {2**61}:1", f"sparse {2**61}:1", f"sparse {2**62}:1", 0),
            (f"sparse {2**61}:1", f"sparse {2**61}:1", f"sparse {2**62}:2", 1),
        ]
        for F, G, H, code in cases:
            args = poly_args(tmp_path, "Z", F=F, G=G, H=H)
            for method in ("kronecker", "sparse"):
                proc = subprocess.run(
                    [sys.executable, "-m", "polycheck.cli", "verify-prod", "--method", method,
                     *args],
                    capture_output=True, text=True, timeout=60, preexec_fn=cap,
                )
                assert (proc.returncode, proc.stderr) == (code, ""), (F, H, method)
                assert json.loads(proc.stdout)["verdict"] is (code == 0)

    def test_kronecker_h_below_a_factor_degree_is_a_shape_rejection(self, tmp_path):
        # X^(2^40) * 1 != X: a certain rejection before anything of size
        # 2^40 w is formed; the child's address space is capped at 1 GB so a
        # regression fails with a MemoryError rather than exhausting the host
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        args = poly_args(tmp_path, "Z", F=f"sparse {2**40}:1", G="sparse 0:1", H="sparse 1:1")
        proc = subprocess.run(
            [sys.executable, "-m", "polycheck.cli", "verify-prod", "--method", "kronecker", *args],
            capture_output=True, text=True, timeout=60, preexec_fn=cap,
        )
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        report = json.loads(proc.stdout)
        assert (report["verdict"], report["error_bound"], report["rounds"]) == (False, 0.0, 0)
        assert report["witnesses"] == [{"deterministic": "shape"}]

    @pytest.mark.parametrize("ring, body, named", [
        ("Z", "dense 1 " + "9" * 4400, "bad coefficient '99999999...' (4400 characters)"),
        ("GF 7", "sparse 0:" + "9" * 4000,
         "coefficient '99999999...' (4000 characters) not reduced into [0, 7)"),
    ])
    def test_a_wide_bad_coefficient_is_named_short(self, tmp_path, ring, body, named):
        args = poly_args(tmp_path, ring, F=body, G="dense 1", H="dense 1")
        code, out, err = run_cli(["verify-prod", *args], timeout=60)
        assert code == 2 and out == ""
        assert err == f"error: {tmp_path / 'F.poly'}: {named}\n"


class TestVerifyModCommand:
    def test_constant_modulus_exits_two(self, tmp_path):
        args = poly_args(tmp_path, "GF 2", F="dense", G="dense", H="dense", P="dense 1")
        code, out, err = run_cli(
            ["verify-mod", "--method", "companion-no-polymul", *args], timeout=60
        )
        assert code == 2 and out == ""
        assert err.startswith("error: modulus must have degree >= 1")

    @pytest.mark.parametrize(
        "method", ["auto", "extension", "companion-freivalds", "companion-no-polymul"]
    )
    @pytest.mark.parametrize("H, code", [("dense 1 0 1", 0), ("dense 1 1 1", 1)])
    def test_dense_input_past_the_densify_cap_runs_the_sparse_scans(
        self, tmp_path, method, H, code
    ):
        # (1 + X)^2 = 1 + X^2 modulo X^n + 1 over GF(2): past the cap no
        # dense scan runs, and the dense files are checked as sparse ones
        n = 2**63 - 1
        args = poly_args(tmp_path, "GF 2", F="dense 1 1", G="dense 1 1", H=H,
                         P=f"sparse 0:1 {n}:1")
        got, out, err = run_cli(["verify-mod", "--method", method, *args], timeout=60)
        assert (got, err) == (code, "")
        report = json.loads(out)
        assert report["verdict"] is (code == 0)
        sparse = {"companion-no-polymul": "companion-sparse", "auto": "extension"}
        assert report["method"] == sparse.get(method, method)

    @pytest.mark.parametrize("ring, methods", [
        ("GF 65537", ("auto", "extension", "companion-no-polymul")),
        ("Z", ("auto",)),
    ])
    def test_mixed_triple_past_the_densify_cap(self, tmp_path, ring, methods):
        # F dense, G and H sparse, deg P = 2^30: decided as the all-sparse
        # triple is by the same method, the true H accepted, a perturbed one
        # rejected
        P = f"sparse 0:1 {2**30}:1"
        true, wrong = "sparse 0:1 1:2 2:3 5:1 6:2 7:3", "sparse 0:1 1:2 2:3 5:1 6:2 7:4"
        for method in methods:
            for H, code in ((true, 0), (wrong, 1)):
                reports = []
                for F in ("dense 1 2 3", "sparse 0:1 1:2 2:3"):
                    args = poly_args(tmp_path, ring, F=F, G="sparse 0:1 5:1", H=H, P=P)
                    got, out, err = run_cli(
                        ["verify-mod", "--method", method, *args], timeout=60
                    )
                    assert (got, err) == (code, ""), (ring, method, F, H)
                    reports.append(json.loads(out))
                if method != "auto":  # auto on all-sparse files may take the exact route
                    assert reports[0] == reports[1]

    def test_true_instance_exits_zero(self, mod_instance_files):
        code, out, _ = run_cli(
            ["verify-mod", "--F", mod_instance_files["F"], "--G", mod_instance_files["G"],
             "--H", mod_instance_files["H"], "--P", mod_instance_files["P"], "--seed", "5"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] is True

    def test_perturbed_exits_one(self, mod_instance_files, tmp_path):
        H = parse_poly(open(mod_instance_files["H"]).read())
        d = dict(H.terms)
        d[0] = (d.get(0, 0) + 1) % 65537
        bad = pc.SparsePoly(pc.GF(65537), sorted(d.items()))
        write_poly_file(tmp_path / "bad.poly", bad)
        code, _, _ = run_cli(
            ["verify-mod", "--F", mod_instance_files["F"], "--G", mod_instance_files["G"],
             "--H", str(tmp_path / "bad.poly"), "--P", mod_instance_files["P"],
             "--seed", "5"]
        )
        assert code == 1

    def test_missing_flag_exits_two(self, mod_instance_files):
        code, _, err = run_cli(
            ["verify-mod", "--F", mod_instance_files["F"], "--G", mod_instance_files["G"],
             "--H", mod_instance_files["H"]]
        )
        assert code == 2

    def test_malformed_file_exits_two(self, tmp_path, mod_instance_files):
        bad = tmp_path / "bad.poly"
        bad.write_text("ring GF 7\ndense 1 9\n")
        code, _, err = run_cli(
            ["verify-mod", "--F", str(bad), "--G", mod_instance_files["G"],
             "--H", mod_instance_files["H"], "--P", mod_instance_files["P"]]
        )
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("q, code", [(4, 2), (15, 2), (7, 0)])
    def test_field_modulus_must_be_prime(self, tmp_path, capsys, q, code):
        paths = []
        for name, body in (("F", "dense 1 1"), ("H", "dense 1 2 1"), ("P", "sparse 3:1")):
            path = tmp_path / f"{name}.poly"
            path.write_text(f"ring GF {q}\n{body}\n")
            paths.append(str(path))
        F, H, P = paths
        assert main(["verify-mod", "--F", F, "--G", F, "--H", H, "--P", P]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert f"field modulus {q} is not prime" in err

    def test_mismatched_rings_exit_two(self, tmp_path, mod_instance_files):
        other = tmp_path / "z.poly"
        other.write_text("ring Z\ndense 1 1\n")
        code, _, _ = run_cli(
            ["verify-mod", "--F", str(other), "--G", mod_instance_files["G"],
             "--H", mod_instance_files["H"], "--P", mod_instance_files["P"]]
        )
        assert code == 2


class TestGenCommand:
    def test_default_roundtrip(self, tmp_path):
        prefix = str(tmp_path / "inst")
        code, out, _ = run_cli(
            ["gen", "--ring", "GF", "--q", "101", "--n", "50", "--T", "6",
             "--seed", "11", "--out-prefix", prefix]
        )
        assert code == 0
        manifest = json.loads(out)
        assert manifest["true_product"] is True
        code, _, _ = run_cli(
            ["verify-prod", "--F", f"{prefix}_F.poly", "--G", f"{prefix}_G.poly",
             "--H", f"{prefix}_H.poly", "--seed", "2"]
        )
        assert code == 0

    def test_monomial_instance(self, tmp_path):
        prefix = str(tmp_path / "mono")
        code, out, _ = run_cli(
            ["gen", "--ring", "Z", "--n", "30", "--T", "1", "--seed", "4",
             "--out-prefix", prefix]
        )
        assert code == 0
        H = parse_poly(open(f"{prefix}_H.poly").read())
        assert H.sparsity() == 1

    def test_perturb_fails_verification(self, tmp_path):
        prefix = str(tmp_path / "adv")
        code, out, _ = run_cli(
            ["gen", "--ring", "Z", "--n", "40", "--T", "5", "--seed", "8",
             "--out-prefix", prefix, "--adversarial", "perturb"]
        )
        assert code == 0
        assert json.loads(out)["true_product"] is False
        code, _, _ = run_cli(
            ["verify-prod", "--F", f"{prefix}_F.poly", "--G", f"{prefix}_G.poly",
             "--H", f"{prefix}_H.poly", "--seed", "1"]
        )
        assert code == 1

    def test_lcm_divisors_kind(self, tmp_path):
        prefix = str(tmp_path / "lcm")
        code, out, _ = run_cli(
            ["gen", "--ring", "Z", "--n", "1024", "--seed", "2",
             "--out-prefix", prefix, "--adversarial", "lcm-divisors"]
        )
        assert code == 0
        code, _, _ = run_cli(
            ["verify-prod", "--F", f"{prefix}_F.poly", "--G", f"{prefix}_G.poly",
             "--H", f"{prefix}_H.poly", "--seed", "1"]
        )
        assert code == 1

    def test_deterministic_files(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_cli(["gen", "--ring", "Z", "--n", "20", "--T", "4", "--seed", "6",
                 "--out-prefix", a])
        run_cli(["gen", "--ring", "Z", "--n", "20", "--T", "4", "--seed", "6",
                 "--out-prefix", b])
        for name in ("F", "G", "H"):
            assert open(f"{a}_{name}.poly").read() == open(f"{b}_{name}.poly").read()

    def test_composite_q_exits_two(self, tmp_path, capsys):
        code = main(["gen", "--ring", "GF", "--q", "4", "--n", "10",
                     "--out-prefix", str(tmp_path / "x")])
        assert code == 2 and "not prime" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sizes",
        [
            ["--n", "-1", "--T", "2"],
            ["--n", "8", "--coeff-bits", "0"],
            # coefficients past the 4300-digit int-to-str limit have no text form
            ["--n", "2", "--coeff-bits", "16000"],
            # exponents past EXPONENT_CAP: F and G themselves, or F*G of degree 2n
            ["--n", "9223372036854775808", "--T", "3"],
            ["--n", "9223372036854775807", "--T", "3"],
        ],
    )
    def test_bad_sizes_exit_two(self, tmp_path, capsys, sizes):
        code = main(["gen", "--ring", "Z", *sizes, "--out-prefix", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err
        assert not list(tmp_path.glob("x_*.poly"))

    def test_largest_sparse_size_generates_and_verifies(self, tmp_path, capsys):
        prefix = str(tmp_path / "x")
        assert main(["gen", "--ring", "Z", "--T", "3", "--n", str(2**62 - 1),
                     "--seed", "1", "--out-prefix", prefix]) == 0
        for method in ("auto", "kaminski"):
            capsys.readouterr()
            assert main(["verify-prod", "--method", method, "--seed", "1",
                         *(f"--{x}={prefix}_{x}.poly" for x in "FGH")]) == 0
            assert json.loads(capsys.readouterr().out)["verdict"] is True

    def test_z_refuses_q(self, tmp_path, capsys):
        # mixed rings are bad input: Z with a field modulus writes no file
        code = main(["gen", "--ring", "Z", "--q", "7", "--n", "10", "--T", "2",
                     "--out-prefix", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2 and err == "error: --q is not allowed with --ring Z\n"
        assert not list(tmp_path.glob("x_*.poly"))

    def test_gf_requires_q(self, tmp_path):
        code, _, _ = run_cli(
            ["gen", "--ring", "GF", "--n", "10", "--T", "2",
             "--out-prefix", str(tmp_path / "x")]
        )
        assert code == 2


class TestEnvSeed:
    def test_env_fallback_deterministic(self, example1_files):
        args = ["verify-prod", "--F", example1_files["F"], "--G", example1_files["H"],
                "--H", example1_files["FH"]]
        _, out1, _ = run_cli(args, env_seed=42)
        _, out2, _ = run_cli(args, env_seed=42)
        assert out1 == out2
        assert json.loads(out1)["seed"] == 42

    def test_flag_overrides_env(self, example1_files):
        args = ["verify-prod", "--F", example1_files["F"], "--G", example1_files["H"],
                "--H", example1_files["FH"], "--seed", "7"]
        _, out, _ = run_cli(args, env_seed=42)
        assert json.loads(out)["seed"] == 7


class TestBenchCommand:
    def test_zero_trials_header_only(self):
        code, out, _ = run_cli(["bench", "--suite", "modverify", "--sizes", "64",
                                "--trials", "0", "--seed", "1"])
        assert code == 0
        assert out == (
            "method,ring,n,T,bits,trials,verify_mean_s,multiply_mean_s,acceptance_rate\n"
        )

    @pytest.mark.parametrize(
        "suite, sizes, trials",
        [
            ("modverify", "0", "1"),
            ("modverify", "1", "1"),
            ("prodverify", "0", "1"),
            ("prodverify", "1", "1"),
            ("modverify", "64,-3", "1"),
            ("modverify", "64", "-1"),
            ("prodverify", "64", "-1"),
        ],
    )
    def test_bad_sizes_or_trials_exit_two(self, suite, sizes, trials):
        code, out, err = run_cli(["bench", "--suite", suite, f"--sizes={sizes}",
                                  f"--trials={trials}", "--seed", "1"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_smallest_size_runs(self):
        for suite in ("modverify", "prodverify"):
            lines = run_bench(suite, [2], 1, 5).strip().splitlines()
            assert len(lines) == 2 and lines[1].split(",")[-1] == "1.0000"

    def test_acceptance_rate_is_one_on_true_instances(self):
        out = run_bench("modverify", [128], 3, 7)
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[-1] == "1.0000"

    def test_prodverify_suite_rows(self):
        out = run_bench("prodverify", [256, 512], 2, 3)
        lines = out.strip().splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[0] == "verify_sparse_product"
            assert float(cells[6]) > 0 and float(cells[7]) > 0

    def test_unwritable_csv_fails_before_the_run(self, tmp_path):
        # a run of many minutes: it ends at once if the CSV file cannot be opened
        argv = ["bench", "--suite", "modverify", "--sizes", "65536", "--trials", "1000",
                "--csv", str(tmp_path)]
        code, out, err = run_cli(argv, timeout=60)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {tmp_path}: ") and err.count("\n") == 1

    def test_bad_arguments_leave_the_csv_file_alone(self, tmp_path):
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text("kept\n")
        for target in (old, new):
            code, out, _ = run_cli(["bench", "--suite", "modverify", "--sizes", "1",
                                    "--trials", "1", "--csv", str(target)])
            assert code == 2 and out == ""
        assert old.read_text() == "kept\n" and not new.exists()

    def test_csv_file_written(self, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(["bench", "--suite", "prodverify", "--sizes", "128",
                                "--trials", "1", "--seed", "2", "--csv", str(target)])
        assert code == 0
        assert target.read_text() == out


class TestInProcessMain:
    def test_main_returns_exit_codes(self, example1_files, capsys):
        rc = main(["verify-prod", "--F", example1_files["F"],
                   "--G", example1_files["H"], "--H", example1_files["FH"],
                   "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert json.loads(out)["verdict"] is True

    def test_bad_epsilon_exits_two(self, example1_files, capsys):
        for eps in ("2", "inf", "-inf"):
            rc = main(["verify-prod", "--F", example1_files["F"],
                       "--G", example1_files["H"], "--H", example1_files["FH"],
                       f"--epsilon={eps}"])
            assert rc == 2
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["verify-mod", "verify-prod"])
    def test_epsilon_below_the_floor_exits_two(self, example1_files, capsys, command):
        args = [command, "--F", example1_files["F"], "--G", example1_files["H"],
                "--H", example1_files["FH"], "--epsilon", "2^-1100"]
        if command == "verify-mod":
            args += ["--P", example1_files["FH"]]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify-mod", "verify-prod"])
    @pytest.mark.parametrize("eps", ["1e-400", "1e-320", "0.0"])
    def test_decimal_epsilon_below_the_floor_exits_two(self, example1_files, capsys,
                                                       command, eps):
        """A positive decimal whose float underflows to 0.0 (1e-400) or is
        subnormal (1e-320) is refused for the floor, not as out of (0, 1);
        an exact zero is out of (0, 1)."""
        args = [command, "--F", example1_files["F"], "--G", example1_files["H"],
                "--H", example1_files["FH"], "--epsilon", eps]
        if command == "verify-mod":
            args += ["--P", example1_files["FH"]]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        reason = "in (0, 1)" if eps == "0.0" else "at least 2^-1022"
        assert err == f"error: epsilon must be {reason}\n"

    def test_epsilon_floor_itself_parses(self):
        assert _parse_epsilon("2^-1022") == EPSILON_FLOOR == Fraction(1, 2**1022)


class TestOneParserPerProcess:
    """main builds its parser once per process; calls after it, a usage
    error among them, print what a fresh process prints."""

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal
        monkeypatch.delenv("POLYPROOF_SEED", raising=False)
        prefix = str(tmp_path / "inst")
        F, G, H = (f"{prefix}_{name}.poly" for name in "FGH")
        P = tmp_path / "P.poly"
        P.write_text("ring GF 7\nsparse 0:1 1:3 200:1\n")  # above deg F*G: H is (F*G) mod P
        calls = [
            ["verify-prod", "--F", F],
            ["gen", "--ring", "GF", "--q", "7", "--n", "64", "--T", "8", "--seed", "3",
             "--out-prefix", prefix],
            ["verify-prod", "--F", F, "--G", G, "--H", H, "--seed", "5"],
            ["verify-mod", "--F", F, "--G", G, "--H", H, "--P", str(P), "--seed", "5"],
            ["verify-mod", "--F", F, "--G", G, "--H", H, "--P", str(P), "--method", "cubic"],
        ]
        codes = []
        for argv in calls:
            code = main(argv)
            got = capsys.readouterr()
            assert (code, got.out, got.err) == run_cli(argv)
            codes.append(code)
        assert codes == [2, 0, 0, 0, 2]


def _action_rows(parser):
    """Per action of parser: option strings, dest, required, default,
    choices, type and help."""
    return [
        (a.option_strings, a.dest, a.required, a.default,
         None if a.choices is None else list(a.choices),
         None if a.type is None else a.type.__name__, a.help)
        for a in parser._actions
    ]


HELP = (["-h", "--help"], "help", False, "==SUPPRESS==", None, None,
        "show this help message and exit")


class TestParserShape:
    """The parser's usage lines at 80 columns and every action's option
    strings, dest, required, default, choices, type and help; the full
    help text is not pinned, as its section titles differ between Python
    versions."""

    USAGE = {
        None: "usage: polycheck [-h] {verify-mod,verify-prod,gen,bench} ...\n",
        "verify-mod": (
            "usage: polycheck verify-mod [-h] --F F --G G --H H --P P [--epsilon EPSILON]\n"
            "                            [--method {auto,direct-eval,extension,"
            "companion-freivalds,companion-no-polymul}]\n"
            "                            [--seed SEED]\n"
        ),
        "verify-prod": (
            "usage: polycheck verify-prod [-h] --F F --G G --H H [--epsilon EPSILON]\n"
            "                             [--method {auto,kaminski,kaminski-nomul,"
            "kronecker,sparse}]\n"
            "                             [--seed SEED]\n"
        ),
        "gen": (
            "usage: polycheck gen [-h] --ring {Z,GF} [--q Q] [--n N] [--T T]\n"
            "                     [--coeff-bits COEFF_BITS] [--seed SEED] --out-prefix\n"
            "                     OUT_PREFIX\n"
            "                     [--adversarial {perturb,lcm-divisors,example2}]\n"
        ),
        "bench": (
            "usage: polycheck bench [-h] --suite {modverify,prodverify} [--sizes SIZES]\n"
            "                       [--trials TRIALS] [--seed SEED] [--csv CSV]\n"
        ),
    }
    ACTIONS = {
        None: [
            HELP,
            ([], "command", True, None, ["verify-mod", "verify-prod", "gen", "bench"],
             None, None),
        ],
        "verify-mod": [
            HELP,
            (["--F"], "F", True, None, None, None, None),
            (["--G"], "G", True, None, None, None, None),
            (["--H"], "H", True, None, None, None, None),
            (["--P"], "P", True, None, None, None, None),
            (["--epsilon"], "epsilon", False, "2^-20", None, None, None),
            (["--method"], "method", False, "auto",
             ["auto", "direct-eval", "extension", "companion-freivalds",
              "companion-no-polymul"], None, None),
            (["--seed"], "seed", False, None, None, "int", None),
        ],
        "verify-prod": [
            HELP,
            (["--F"], "F", True, None, None, None, None),
            (["--G"], "G", True, None, None, None, None),
            (["--H"], "H", True, None, None, None, None),
            (["--epsilon"], "epsilon", False, "2^-20", None, None, None),
            (["--method"], "method", False, "auto",
             ["auto", "kaminski", "kaminski-nomul", "kronecker", "sparse"], None, None),
            (["--seed"], "seed", False, None, None, "int", None),
        ],
        "gen": [
            HELP,
            (["--ring"], "ring", True, None, ["Z", "GF"], None, None),
            (["--q"], "q", False, None, None, "int", None),
            (["--n"], "n", False, 64, None, "int", None),
            (["--T"], "T", False, None, None, "int", None),
            (["--coeff-bits"], "coeff_bits", False, 16, None, "int", None),
            (["--seed"], "seed", False, None, None, "int", None),
            (["--out-prefix"], "out_prefix", True, None, None, None, None),
            (["--adversarial"], "adversarial", False, None,
             ["perturb", "lcm-divisors", "example2"], None, None),
        ],
        "bench": [
            HELP,
            (["--suite"], "suite", True, None, ["modverify", "prodverify"], None, None),
            (["--sizes"], "sizes", False, "1024", None, None, None),
            (["--trials"], "trials", False, 4, None, "int", None),
            (["--seed"], "seed", False, None, None, "int", None),
            (["--csv"], "csv", False, None, None, None, None),
        ],
    }
    SUBCOMMAND_HELP = [
        ("verify-mod", "check H = (F*G) mod P"),
        ("verify-prod", "check H = F*G"),
        ("gen", "generate an instance triple F, G, H"),
        ("bench", "timing and acceptance-rate harness"),
    ]

    @staticmethod
    def _parsers():
        top = build_parser()
        (sub,) = (a for a in top._actions if isinstance(a, argparse._SubParsersAction))
        return top, sub

    def test_usage_lines(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal
        top, sub = self._parsers()
        got = {None: top.format_usage()}
        got.update((name, p.format_usage()) for name, p in sub.choices.items())
        assert got == self.USAGE

    def test_actions(self):
        top, sub = self._parsers()
        got = {None: _action_rows(top)}
        got.update((name, _action_rows(p)) for name, p in sub.choices.items())
        assert got == self.ACTIONS
        assert [(a.dest, a.help) for a in sub._choices_actions] == self.SUBCOMMAND_HELP


class TestLibraryErrorsExitTwo:
    """Library exceptions on the CLI paths end in exit 2 and one error line."""

    @staticmethod
    def _raise(exc):
        def fail(*args, **kwargs):
            raise exc

        return fail

    def _check(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_verify_mod_type_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pc.modverify, "verify_mod_ff", self._raise(TypeError("bad type")))
        args = poly_args(tmp_path, "GF 7", F="dense 1 1", G="dense 1 1", H="dense 1 2 1",
                         P="sparse 0:1 3:1")
        self._check(capsys, ["verify-mod", *args], "bad type")

    def test_verify_mod_prime_generation_error(self, tmp_path, capsys, monkeypatch):
        exc = pc.rings.PrimeGenerationError("no probable prime")
        monkeypatch.setattr(pc.modverify, "random_prime", self._raise(exc))
        args = poly_args(tmp_path, "Z", F="dense 1 1", G="dense 1 1", H="dense 1 2 1",
                         P="sparse 0:1 3:1")
        self._check(capsys, ["verify-mod", *args], "no probable prime")

    def test_verify_prod_prime_generation_error(self, tmp_path, capsys, monkeypatch):
        # no fold prime can be below degree 10: the one point's prime fails
        exc = pc.rings.PrimeGenerationError("no probable prime")
        monkeypatch.setattr(pc.modverify, "random_prime", self._raise(exc))
        args = poly_args(tmp_path, "Z", F="sparse 0:1 5:1", G="sparse 0:1 5:1",
                         H="sparse 0:1 5:2 10:1")
        self._check(capsys, ["verify-prod", "--method", "sparse", *args], "no probable prime")

    def test_verify_prod_fold_prime_generation_error(self, tmp_path, capsys, monkeypatch):
        # at degree 2^41 the fold prime's range lies below the degree
        exc = pc.rings.PrimeGenerationError("no probable prime")
        monkeypatch.setattr(pc.prodverify, "random_prime", self._raise(exc))
        n = 2**40
        args = poly_args(tmp_path, "Z", F=f"sparse 0:1 {n}:1", G=f"sparse 0:1 {n}:1",
                         H=f"sparse 0:1 {n}:2 {2 * n}:1")
        self._check(capsys, ["verify-prod", "--method", "sparse", *args], "no probable prime")

    # a method the ring of the files cannot run is the library's TypeError,
    # from point_kind's one rule or from verify_product_kronecker
    @pytest.mark.parametrize("method", ["extension", "companion-freivalds", "companion-no-polymul"])
    def test_verify_mod_method_over_Z(self, tmp_path, capsys, method):
        args = poly_args(tmp_path, "Z", F="dense 1 1", G="dense 1 1", H="dense 1 2 1",
                         P="sparse 0:1 3:1")
        self._check(capsys, ["verify-mod", "--method", method, *args],
                    f"method '{method}' needs GF(q) inputs")

    def test_kronecker_over_GF(self, tmp_path, capsys):
        args = poly_args(tmp_path, "GF 7", F="dense 1 1", G="dense 1 1", H="dense 1 2 1")
        self._check(capsys, ["verify-prod", "--method", "kronecker", *args],
                    "kronecker needs ring Z inputs")


class TestFileErrorsExitTwo:
    """A file the CLI cannot read or write is an input error: exit 2, one
    error line naming the path, no traceback, and no report."""

    @staticmethod
    def _argv(tmp_path, case):
        """The command line of one case and the path its error names."""
        args = poly_args(tmp_path, "GF 7", F="dense 1 1", G="dense 1 1", H="dense 1 2 1")
        if case == "gen-dir":
            prefix = tmp_path / "missing" / "x"
            argv = ["gen", "--ring", "Z", "--n", "4", "--out-prefix", str(prefix)]
            return argv, f"{prefix}_F.poly"
        if case == "bench-csv":
            return ["bench", "--suite", "prodverify", "--sizes", "64", "--trials", "1",
                    "--csv", str(tmp_path)], tmp_path
        bad = {"missing": tmp_path / "missing.poly", "directory": tmp_path,
               "non-ascii": tmp_path / "F.poly"}[case]
        if case == "non-ascii":
            bad.write_bytes("ring GF 7\ndense 1 \u00e9\n".encode())
        args[1] = str(bad)  # the --F file
        return ["verify-prod", *args], bad

    @pytest.mark.parametrize("case", ["missing", "directory", "non-ascii", "gen-dir", "bench-csv"])
    def test_file_error(self, tmp_path, case):
        argv, bad = self._argv(tmp_path, case)
        code, out, err = run_cli(argv, timeout=60)
        assert code == 2 and "Traceback" not in err
        if case == "missing":
            assert err == f"error: no such file: {bad}\n"
        else:
            assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert out == ""
