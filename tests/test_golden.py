"""Golden output: the small sweep's CSVs, two deep qlae runs, two deep
classical-baseline runs and two empirical-oracle runs are pinned byte for byte.

At T=5000 qlae/twodim stops at the eps=1/8 packing (81 points); at T=6·10^5
it reaches the eps=1/64 packing (355 points), so the deep pins cover the
large packings the small sweep never builds.

A change that is meant to keep behaviour must keep these SHA-256 digests.
They depend on numpy's PCG64 streams and float formatting, so a numpy
release that changes either would need them re-recorded, with the reason
stated.
"""

import hashlib

import pytest

from lipzoom.cli import cli_main

SWEEP_ARGS = ["sweep", "--T", "5000", "--trials", "2", "--master-seed", "7"]

GOLDEN = {
    "classical_zooming_sine_bernoulli_summary.csv": "838f1cd0097feeaadbbcf6a87d2e9bd5fa5a9caceff09931c39d521f09af82e8",
    "classical_zooming_sine_bernoulli_traces.csv": "6dd96d6c9e6b9c0220d0ad5ab9e7fce6222bafdf636b3d34435959823606fe26",
    "classical_zooming_sine_gaussian_summary.csv": "3ed84b5faed077b9cdb24c710ac09feb9314d32d080c280459d81204170bef4e",
    "classical_zooming_sine_gaussian_traces.csv": "b7cddc29ed0cc2d8b0fcc33eb8aa6ab5ae8a2080e2f2046c6b617dcf9dc34be5",
    "classical_zooming_triangle_bernoulli_summary.csv": "782095e4940cffc5af74ca41bf9506fbb299d9123b8f70fa688c12a64def99a3",
    "classical_zooming_triangle_bernoulli_traces.csv": "29ad5ec5d9b4ffe3205abc1cc8399f9dbefa56ba10dddd7264cd081809c214e0",
    "classical_zooming_triangle_gaussian_summary.csv": "b0123aefa2aa3430bbf3ade1d9c228c35288e2b0a17521f871cbd12a3fb332a2",
    "classical_zooming_triangle_gaussian_traces.csv": "56409eb7a75a7f8fcd49c3bd236a979c6500d254cc867e55a4731b2f8b7c1278",
    "classical_zooming_twodim_bernoulli_summary.csv": "b87307e35ea4e575c7c926ee8807c0b534a0a30a795c91b6aff42da090e2613a",
    "classical_zooming_twodim_bernoulli_traces.csv": "1b5f265e442d82d21fb428417dd72e254edbdb362327d8981faafd7bbe6d20fc",
    "classical_zooming_twodim_gaussian_summary.csv": "e82f76b1fb694af3c1f2b2c3c43b0ee47139e2a56c04942ec17d23abd923cca5",
    "classical_zooming_twodim_gaussian_traces.csv": "f1de3df63508212bf0a9385dab361a3b002a313e8fc4908c23ecac241a76447e",
    "qlae_bv_sine_gaussian_summary.csv": "a454c3f8b1e9bc95cfd4bbcb1861381883c381221a24764bdf9861078d227e14",
    "qlae_bv_sine_gaussian_traces.csv": "fa4a8eb31676d3cdea2999ba32e3653faf23b7e1562f43c6ce20f1dc225f7c2f",
    "qlae_bv_triangle_gaussian_summary.csv": "ed5dfd042733e13450a9d2e755dfc318cc3beb4862b5a18e1a9b87723ffc3e41",
    "qlae_bv_triangle_gaussian_traces.csv": "e99f17030796c88cbc6a98eb499d9ff5b83d69b1c380e7b70a45d3f60941b2e6",
    "qlae_bv_twodim_gaussian_summary.csv": "6b4adfa146d79c8cc238b49818a8ccc5b4f8c3bd53251f8f51b44f919adc5381",
    "qlae_bv_twodim_gaussian_traces.csv": "8045a4353480f939c75bbb05e1cc05922b1e910a467fb11a793b0826b7522ae2",
    "qlae_sine_bernoulli_summary.csv": "d782df38187db80a7a530a98db4f37cb92bbdfc98124aeeff8e41febb98c1f54",
    "qlae_sine_bernoulli_traces.csv": "583a2ccce4af935d0d36b1e7b83a454aa51c1237593b39bcbda139876402bdfe",
    "qlae_triangle_bernoulli_summary.csv": "02f4332720ebe5d34cc0a7d327da142b441f3de61115e8ef00019061b86579ad",
    "qlae_triangle_bernoulli_traces.csv": "ea8b4bb32a8d09570e1cd2ecb74412856fe38f00395af5eefe5ab78e2c8eade4",
    "qlae_twodim_bernoulli_summary.csv": "576a553f4f5631d7ef413cedc2a87cef9a896df9c9cde2ffa066afdc0f3dc96e",
    "qlae_twodim_bernoulli_traces.csv": "1ee0f399d1380fb4751ba91d174e3ceb6a51fd427d93395b9a98e0f7ed172b72",
    "qzooming_bv_sine_gaussian_summary.csv": "dc3bff17155197ddfbab02def5ab57cf5f099a46323ab69a074329fd2b5b83a6",
    "qzooming_bv_sine_gaussian_traces.csv": "6a0cd09398f2aa1fd28d446c2a8105471a774e1b69fc3344e873138c55dd202d",
    "qzooming_bv_triangle_gaussian_summary.csv": "8731511dd72a30dde2e3c3ab4752b3f29ba314d3add4d6c58374e0892286771a",
    "qzooming_bv_triangle_gaussian_traces.csv": "c58aec60729ccc129307cf16fc0412c378b5944ef7a996df2d39f5fdc5581f50",
    "qzooming_bv_twodim_gaussian_summary.csv": "4d6754611e543b2b4ac5cf6754c7a976692fbb585b006279650b6f85fef8e397",
    "qzooming_bv_twodim_gaussian_traces.csv": "d2a7d24f7e5d463d1e5f36caece7fa33cf507993b649c9cf12e9c056d037ee63",
    "qzooming_sine_bernoulli_summary.csv": "934ad4690e572a5ba405fcb5fe010477557827b0fc4d48b6da606be7a874e28f",
    "qzooming_sine_bernoulli_traces.csv": "fba1dfe19ee3358eba2a745d07a8511eee7435c26e2939b3adfdd24175c585aa",
    "qzooming_triangle_bernoulli_summary.csv": "89c5fdbecf8f1136ab2867de3bd54a993d481059cbb093ca883f3d78d8826753",
    "qzooming_triangle_bernoulli_traces.csv": "50f5cc3be8a4bc0312dea455acb33eb80d0a7b18db798cae46bdc631b93fd83e",
    "qzooming_twodim_bernoulli_summary.csv": "c12288c2e500e1d9db21277c76e2bf9798cf736ceeb6d21ee93d8126d4efbf28",
    "qzooming_twodim_bernoulli_traces.csv": "1924a373a8f9ac7f28a2f87be07116a0f13b48c2d6c684a94d10779eea4e58d1",
}


def test_small_sweep_csvs_match_golden_digests(tmp_path):
    assert cli_main(SWEEP_ARGS + ["--out", str(tmp_path)]) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.glob("*.csv"))
    }
    assert sorted(got) == sorted(GOLDEN)
    changed = sorted(name for name in GOLDEN if got[name] != GOLDEN[name])
    assert not changed, f"CSV bytes changed: {changed}"


DEEP_QLAE = ["--reward", "twodim", "--T", "600000", "--master-seed", "7"]

DEEP_RUNS = {
    ("qlae", "bernoulli"): {
        "qlae_twodim_bernoulli_summary.csv": "64e4fd33d3619873e9d1fdfec22d7e00b0f84c597c7d5c1c60c8a5a4f6419436",
        "qlae_twodim_bernoulli_traces.csv": "afec5ab633c6629b39bc6c4c8ef908b688a9c795fe078d284cb44934c2ea6749",
    },
    ("qlae_bv", "gaussian"): {
        "qlae_bv_twodim_gaussian_summary.csv": "a8fcc5de5fcc66e5f7e1213b1d38ad69aae54ee195aa2f93954183b1da558964",
        "qlae_bv_twodim_gaussian_traces.csv": "845383214fde541d0d40d98e0e6fab26de5d1d4a376238f34cb963a25bae21d7",
    },
}

DEEP_AUDIT_STDOUT = (
    "trial 0: estimates=656 clean-violations=0 gap-violations=0 survival-misses=0\n"
    "clean-event violation fraction: 0.0000 over 656 estimates\n"
)


@pytest.mark.parametrize("algorithm, noise", sorted(DEEP_RUNS))
def test_deep_qlae_run_csvs_match_golden_digests(algorithm, noise, tmp_path):
    argv = ["run", "--algorithm", algorithm, "--noise", noise, "--trials", "1"]
    assert cli_main(argv + DEEP_QLAE + ["--out", str(tmp_path)]) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.glob("*.csv"))
    }
    assert got == DEEP_RUNS[algorithm, noise]


def test_deep_qlae_audit_stdout_matches_golden(capsys):
    argv = ["audit", "--algorithm", "qlae", "--noise", "bernoulli"] + DEEP_QLAE
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == DEEP_AUDIT_STDOUT


# At T=5·10^4 the classical baseline shrinks its confidence radii past many
# candidate distances, which the T=5000 sweep barely reaches.
DEEP_CLASSICAL = ["--algorithm", "classical_zooming", "--T", "50000", "--trials", "1",
                  "--master-seed", "7"]

DEEP_CLASSICAL_RUNS = {
    ("twodim", "gaussian"): {
        "classical_zooming_twodim_gaussian_summary.csv": "338d0f90debf5084c6b4b0377241b19a6f9b5f4a0a0b31b0f7a85eccd00d03c2",
        "classical_zooming_twodim_gaussian_traces.csv": "27e7b64ad9682b82d7ff20fc9f084c68a96a7a44638aa3086447aed4009049c5",
    },
    ("triangle", "bernoulli"): {
        "classical_zooming_triangle_bernoulli_summary.csv": "dfb0ebb505eccffd03b2cff48f1fe963fa26c981c5319f818f34331bbc837bee",
        "classical_zooming_triangle_bernoulli_traces.csv": "8a9ec6e5f618e136b53a42332bd6672210789ac3ae6ee30b200b93599a8b2f45",
    },
}


@pytest.mark.parametrize("reward, noise", sorted(DEEP_CLASSICAL_RUNS))
def test_deep_classical_run_csvs_match_golden_digests(reward, noise, tmp_path):
    argv = ["run", "--reward", reward, "--noise", noise] + DEEP_CLASSICAL
    assert cli_main(argv + ["--out", str(tmp_path)]) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.glob("*.csv"))
    }
    assert got == DEEP_CLASSICAL_RUNS[reward, noise]


# The empirical oracle averages classical draws, one per query.  The qzooming_bv
# run's first estimate, at eps=1/2 >= 4*sigma, charges the qmc1 budget with
# c1=4; later estimates charge qmc2.
EMPIRICAL = ["--qmc-mode", "empirical", "--T", "20000", "--trials", "2", "--master-seed", "7"]

EMPIRICAL_RUNS = {
    ("qlae", "twodim", "bernoulli"): ([], {
        "qlae_twodim_bernoulli_summary.csv": "712f5757bf8bb5a5ba1fd11a91b42f50885e7a1d1ed3217d410b82401bfd1052",
        "qlae_twodim_bernoulli_traces.csv": "3d9ae76132a88793fc25a9792da0772cee1d8f600a60f0c041cf6dbb9226c15f",
    }),
    ("qzooming_bv", "sine", "gaussian"): (["--sigma", "0.1", "--c1", "4"], {
        "qzooming_bv_sine_gaussian_summary.csv": "8ffd591aa8dd2571582107c24ca54f6d720ad3fa339b8829c5cad122aecaffdf",
        "qzooming_bv_sine_gaussian_traces.csv": "843b9e042c8a16dd6a4049d1c99e22407e826a4ded0127f890cc69099b439539",
    }),
}


@pytest.mark.parametrize("algorithm, reward, noise", sorted(EMPIRICAL_RUNS))
def test_empirical_oracle_run_csvs_match_golden_digests(algorithm, reward, noise, tmp_path):
    extra, digests = EMPIRICAL_RUNS[algorithm, reward, noise]
    argv = ["run", "--algorithm", algorithm, "--reward", reward, "--noise", noise]
    assert cli_main(argv + extra + EMPIRICAL + ["--out", str(tmp_path)]) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.glob("*.csv"))
    }
    assert got == digests


# `lipzoom dim` prints the number of cells of side 2r/divisor that hold a
# point of the near-optimal set.  On twodim at divisor 14 the cells at
# r <= 1/64 are narrower than the 1/256 lattice, so each holds one point.
DIM_STDOUT = {
    ("triangle", 3): (
        "r=0.25  N_z=4\n"
        "r=0.125  N_z=6\n"
        "r=0.0625  N_z=6\n"
        "r=0.03125  N_z=6\n"
        "r=0.015625  N_z=6\n"
        "r=0.0078125  N_z=6\n"
        "fitted zooming dimension (divisor 3): 0.0836  (residual 0.1142)\n"
    ),
    ("sine", 3): (
        "r=0.25  N_z=5\n"
        "r=0.125  N_z=4\n"
        "r=0.0625  N_z=4\n"
        "r=0.03125  N_z=6\n"
        "r=0.015625  N_z=6\n"
        "r=0.0078125  N_z=10\n"
        "fitted zooming dimension (divisor 3): 0.2097  (residual 0.1890)\n"
    ),
    ("twodim", 3): (
        "r=0.25  N_z=35\n"
        "r=0.125  N_z=45\n"
        "r=0.0625  N_z=46\n"
        "r=0.03125  N_z=45\n"
        "r=0.015625  N_z=42\n"
        "r=0.0078125  N_z=34\n"
        "fitted zooming dimension (divisor 3): 0.0000  (residual 0.1219)\n"
    ),
    ("twodim", 14): (
        "r=0.25  N_z=381\n"
        "r=0.125  N_z=634\n"
        "r=0.0625  N_z=626\n"
        "r=0.03125  N_z=598\n"
        "r=0.015625  N_z=193\n"
        "r=0.0078125  N_z=51\n"
        "fitted zooming dimension (divisor 14): 0.0000  (residual 0.6181)\n"
    ),
}


@pytest.mark.parametrize("reward, divisor", sorted(DIM_STDOUT))
def test_dim_stdout_matches_golden(reward, divisor, capsys):
    assert cli_main(["dim", "--reward", reward, "--divisor", str(divisor)]) == 0
    assert capsys.readouterr().out == DIM_STDOUT[reward, divisor]
