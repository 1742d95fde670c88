import hashlib
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import kernelcontrast
from kernelcontrast import contrastive, eigenfunctions, encoders, manifest
from kernelcontrast.cli import main
from kernelcontrast.fileio import load_matrix_csv, save_matrix_csv, save_sym_csv
from kernelcontrast.manifest import load_manifest
from kernelcontrast.svgplot import line_chart


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv("KC_SEED", raising=False)


def _write_process(path, items, p, augment):
    path.write_text(
        json.dumps({"items": items, "p": p, "augment": augment}) + "\n"
    )
    return str(path)


TWO_STATE = dict(
    items=["a", "b"], p=[0.5, 0.5], augment=[[0.8, 0.2], [0.2, 0.8]]
)


# ------------------------------------------------------------ exit code map


def test_gen_writes_csv_and_manifest(tmp_path, capsys):
    out = str(tmp_path / "roll.csv")
    assert main(["gen", "swiss-roll", "--n", "30", "--output", out]) == 0
    data = load_matrix_csv(out)
    assert data.shape == (30, 5)
    manifest = load_manifest(out + ".manifest.json")
    assert manifest["subcommand"] == "gen"
    assert manifest["seed"] == 0
    assert manifest["flags"]["n"] == 30
    assert "wrote" in capsys.readouterr().out


def test_reduce_pca_on_trivial_matrix(tmp_path):
    """The 2 x 2 identity as a point set: one axis carries all variance."""
    src = tmp_path / "pts.csv"
    src.write_text("1.0,0.0\n0.0,1.0\n")
    out = str(tmp_path / "emb.csv")
    assert main(["reduce", "--method", "pca", "--dim", "1",
                 "--input", str(src), "--output", out]) == 0
    emb = load_matrix_csv(out)
    assert emb.shape == (2, 1)
    manifest = load_manifest(out + ".manifest.json")
    assert manifest["metrics"]["variance_kept"] == pytest.approx(1.0)


def test_reduce_parse_error_exits_1(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    src.write_text("1.0,not_a_number\n")
    out = str(tmp_path / "emb.csv")
    code = main(["reduce", "--method", "pca", "--input", str(src), "--output", out])
    assert code == 1
    err = capsys.readouterr().err
    assert "kc: error:" in err
    assert "pts.csv:1" in err


def test_digit_separator_in_a_csv_exits_1(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    src.write_text("1_0,2,3\n4,5,6\n")
    out = tmp_path / "emb.csv"
    code = main(["reduce", "--method", "pca", "--dim", "1",
                 "--input", str(src), "--output", str(out)])
    assert code == 1
    assert "pts.csv:1: digit separator in '1_0'" in capsys.readouterr().err
    assert not out.exists()
    table = tmp_path / "k.csv"
    table.write_text("1.0,0.5\n0.5,1.0\n")
    weights = tmp_path / "w.csv"
    weights.write_text("0_5,0.5\n")
    code = main(["eigenfun", "--kernel", str(table), "--p", str(weights), "--dim", "1",
                 "--output", str(tmp_path / "f.csv")])
    assert code == 1
    assert "w.csv:1: digit separator in '0_5'" in capsys.readouterr().err


def test_reduce_non_finite_input_exits_1_without_output(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    src.write_text("1.0,2.0\nnan,0.5\n3.0,1.0\n")
    out = tmp_path / "emb.csv"
    code = main(["reduce", "--method", "pca", "--dim", "1",
                 "--input", str(src), "--output", str(out)])
    assert code == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_kernel_approx_rff_rejects_nan_csv(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    src.write_text("1.0,2.0\n0.5,nan\n3.0,1.0\n2.0,2.0\n")
    out = tmp_path / "feats.csv"
    code = main(["kernel-approx", "--method", "rff", "--kernel", "gaussian",
                 "--sigma2", "1.0", "--features", "16", "--input", str(src),
                 "--output", str(out)])
    assert code == 1
    assert "pts.csv:2: non-finite" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "feats.csv.manifest.json").exists()


@pytest.mark.parametrize(
    "kernel, landmarks, rank",
    [(["--kernel", "linear"], 8, 8), (["--kernel", "gaussian", "--sigma2", "2.0"], 12, 5)],
    ids=["linear-rank-deficient", "gaussian-truncated"],
)
def test_kernel_approx_nystrom_end_to_end(tmp_path, kernel, landmarks, rank):
    """The written features are n x usable rank, and the reported error is
    max |F F^T - K| for exactly those features."""
    roll = str(tmp_path / "roll.csv")
    assert main(["gen", "swiss-roll", "--n", "40", "--seed", "3", "--output", roll]) == 0
    out = str(tmp_path / "feats.csv")
    rep = str(tmp_path / "report.json")
    code = main(["kernel-approx", "--method", "nystrom", *kernel,
                 "--landmarks", str(landmarks), "--rank", str(rank), "--input", roll,
                 "--columns", "0,1,2", "--seed", "1", "--output", out, "--report", rep])
    assert code == 0
    manifest = load_manifest(out + ".manifest.json")
    usable = manifest["metrics"]["usable_rank"]
    feats = load_matrix_csv(out)
    assert feats.shape == (40, min(rank, usable))
    x = load_matrix_csv(roll)[:, :3]
    if kernel[1] == "linear":
        assert usable == 3  # 3-D points: the landmark Gram has rank 3
        exact = x @ x.T
    else:
        exact = np.exp(-np.square(x[:, None, :] - x[None, :, :]).sum(axis=2) / 4.0)
    with open(rep) as fh:
        report = json.load(fh)
    recomputed = np.abs(feats @ feats.T - exact).max()
    scale = np.abs(exact).max()
    assert report["max_abs_error"] == pytest.approx(recomputed, rel=0, abs=1e-12 * scale)


def test_reduce_isomap_on_inf_csv_exits_1_without_warnings(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    src.write_text("# points\n1.0,2.0\n0.5,0.5\n3.0,1.0\n-inf,2.0\n")
    out = tmp_path / "emb.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["reduce", "--method", "isomap", "--knn", "2",
                     "--input", str(src), "--output", str(out)])
    assert code == 1
    assert "pts.csv:5: non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_reduce_lle_without_knn_is_usage_error(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    save_matrix_csv(str(src), np.random.default_rng(0).normal(size=(8, 2)))
    code = main(["reduce", "--method", "lle", "--input", str(src),
                 "--output", str(tmp_path / "o.csv")])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_bad_columns_spec_is_usage_error(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    src.write_text("1.0,2.0\n3.0,4.0\n")
    code = main(["reduce", "--method", "pca", "--input", str(src),
                 "--columns", "0,7", "--output", str(tmp_path / "o.csv")])
    assert code == 2
    code = main(["reduce", "--method", "pca", "--input", str(src),
                 "--columns", "zero", "--output", str(tmp_path / "o.csv")])
    assert code == 2


def test_landmarks_outside_the_points_is_usage_error(tmp_path, capsys):
    """--landmarks 0 and n + 1 are one usage error line each, naming the flag."""
    roll = str(tmp_path / "roll.csv")
    assert main(["gen", "swiss-roll", "--n", "20", "--output", roll]) == 0
    capsys.readouterr()
    for m in (0, 21):
        out = tmp_path / f"feats{m}.csv"
        code = main(["kernel-approx", "--method", "nystrom", "--landmarks", str(m),
                     "--rank", "2", "--input", roll, "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"kc: usage error: --landmarks must lie in [1, 20], the input points; got {m}\n"
        )
        assert not out.exists()


def test_argparse_rejects_unknown_method(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--method", "umap", "--input", "x", "--output", "y"])
    assert exc.value.code == 2


def test_gen_into_reduce_composition(tmp_path):
    """The generated CSV carries latent columns; --columns drops them."""
    roll = str(tmp_path / "roll.csv")
    assert main(["gen", "swiss-roll", "--n", "40", "--seed", "2",
                 "--output", roll]) == 0
    out = str(tmp_path / "emb.csv")
    assert main(["reduce", "--method", "pca", "--dim", "2", "--input", roll,
                 "--columns", "0,1,2", "--output", out]) == 0
    assert load_matrix_csv(out).shape == (40, 2)


# ------------------------------------------------------------ seed handling


def _gen_seed(tmp_path, argv_extra=(), config_text=None):
    out = str(tmp_path / "g.csv")
    argv = ["gen", "swiss-roll", "--n", "5", "--output", out]
    if config_text is not None:
        cfg = tmp_path / "kc.ini"
        cfg.write_text(config_text)
        argv = ["--config", str(cfg)] + argv
    assert main(argv + list(argv_extra)) == 0
    return load_manifest(out + ".manifest.json")["seed"]


def test_seed_default_is_zero(tmp_path):
    assert _gen_seed(tmp_path) == 0


def test_seed_from_config(tmp_path):
    assert _gen_seed(tmp_path, config_text="[kc]\nseed = 3\n") == 3
    assert _gen_seed(tmp_path, config_text="[gen]\nseed = 4\n") == 4


def test_env_seed_beats_config(tmp_path, monkeypatch):
    monkeypatch.setenv("KC_SEED", "9")
    assert _gen_seed(tmp_path, config_text="[kc]\nseed = 3\n") == 9


def test_flag_seed_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("KC_SEED", "9")
    assert _gen_seed(tmp_path, argv_extra=["--seed", "5"]) == 5


def test_invalid_env_seed_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KC_SEED", "common")
    out = str(tmp_path / "g.csv")
    assert main(["gen", "swiss-roll", "--n", "5", "--output", out]) == 2
    assert "KC_SEED" in capsys.readouterr().err


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "nope.ini"),
                 "gen", "swiss-roll", "--output", str(tmp_path / "g.csv")])
    assert code == 2


def test_malformed_config_file_is_usage_error(tmp_path, capsys):
    """A file without a section header, or a '%' in a value, is one usage
    error line, not a traceback."""
    cfg = tmp_path / "kc.ini"
    for text in ("seed = 3\n", "[gen]\nn = 5%\n"):
        cfg.write_text(text)
        code = main(["--config", str(cfg), "gen", "swiss-roll",
                     "--output", str(tmp_path / "g.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("kc: usage error:")


# ------------------------------------------------------- contrast commands


def test_contrast_sgns_end_to_end(tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b a b a b\n")
    out = str(tmp_path / "emb.csv")
    assert main(["contrast", "sgns", "--corpus", str(corpus), "--dim", "1",
                 "--output", out]) == 0
    emb = load_matrix_csv(out)
    assert emb.shape == (2, 1)
    # context table lands next to the target table by default
    ctx = load_matrix_csv(str(tmp_path / "emb.context.csv"))
    assert ctx.shape == (2, 1)
    manifest = load_manifest(out + ".manifest.json")
    assert "loss" in manifest["metrics"]
    assert manifest["flags"]["window"] == 1


def test_contrast_sgns_byte_determinism(tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b b a\n")
    out1 = str(tmp_path / "one.csv")
    out2 = str(tmp_path / "two.csv")
    for out in (out1, out2):
        assert main(["contrast", "sgns", "--corpus", str(corpus), "--dim", "1",
                     "--seed", "7", "--output", out]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_contrast_config_sections(tmp_path):
    """[contrast] supplies the window; [optimizer] caps the iterations."""
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b a b a\n")
    cfg = tmp_path / "kc.ini"
    cfg.write_text("[contrast]\nwindow = 2\n\n[optimizer]\nmax_iter = 1\n")
    out = str(tmp_path / "short.csv")
    assert main(["--config", str(cfg), "contrast", "sgns",
                 "--corpus", str(corpus), "--dim", "1", "--output", out]) == 0
    capped = load_manifest(out + ".manifest.json")
    assert capped["flags"]["window"] == 2
    out_full = str(tmp_path / "full.csv")
    assert main(["contrast", "sgns", "--corpus", str(corpus), "--dim", "1",
                 "--output", out_full]) == 0
    full = load_manifest(out_full + ".manifest.json")
    # same data, same seed: only the iteration cap separates the losses
    assert capped["metrics"]["loss"] > full["metrics"]["loss"]


def test_contrast_infonce_with_process(tmp_path):
    proc = _write_process(tmp_path / "p.json", **TWO_STATE)
    out = str(tmp_path / "f.csv")
    assert main(["contrast", "infonce", "--process", proc, "--dim", "2",
                 "--tau", "1.0", "--output", out]) == 0
    manifest = load_manifest(out + ".manifest.json")
    assert manifest["metrics"]["tv_gap"] < 1e-2
    assert os.path.exists(str(tmp_path / "f.context.csv"))


@pytest.mark.parametrize("flag", [["--dim", "0"], ["--tau", "0"], ["--tau", "-1"]],
                         ids=["dim-0", "tau-0", "tau-negative"])
def test_contrast_infonce_rejects_bad_dim_or_tau_before_training(tmp_path, capsys,
                                                                 monkeypatch, flag):
    """A zero dimension or a nonpositive temperature exits 1 in one line,
    before any loss is evaluated: no file, no NumPy warning."""
    proc = _write_process(
        tmp_path / "p.json", items=list("abcd"), p=[0.4, 0.3, 0.2, 0.1],
        augment=(0.6 * np.eye(4) + 0.1).tolist(),
    )
    calls = []
    monkeypatch.setattr(contrastive, "simclr_loss_grad", lambda *a: calls.append(a))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["contrast", "infonce", "--process", proc, *flag,
                     "--output", str(tmp_path / "o.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("kc: error:") and err.count("\n") == 1
    assert not caught and not calls
    assert os.listdir(tmp_path) == ["p.json"]


def test_contrast_spectral_factor_gap(tmp_path):
    proc = _write_process(tmp_path / "p.json", **TWO_STATE)
    out = str(tmp_path / "s.csv")
    assert main(["contrast", "spectral", "--process", proc, "--dim", "2",
                 "--output", out]) == 0
    manifest = load_manifest(out + ".manifest.json")
    assert manifest["metrics"]["factor_gap"] < 1e-3


def test_contrast_bad_process_row_is_error_1(tmp_path, capsys):
    bad = _write_process(
        tmp_path / "bad.json",
        items=["a", "b"], p=[0.5, 0.5],
        augment=[[0.9, 0.2], [0.1, 0.9]],
    )
    code = main(["contrast", "spectral", "--process", bad,
                 "--output", str(tmp_path / "o.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "augment row 0" in err and "bad.json" in err


@pytest.mark.parametrize("algo", ["infonce", "spectral"])
@pytest.mark.parametrize("items", [["a\nb", "c", "d", "e"], ["a b", "a", "b", "e"]],
                         ids=["newline", "space"])
def test_contrast_rejects_item_names_that_break_the_items_line(tmp_path, capsys, algo, items):
    """Such a name would split or pad the `# items:` comment of the CSV."""
    proc = _write_process(tmp_path / "p.json", items=items, p=[0.25] * 4,
                          augment=np.eye(4).tolist())
    out = tmp_path / "out"
    code = main(["contrast", algo, "--process", proc, "--output", str(out / "o.csv")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("kc: error:") and "p.json" in err[0]
    assert not out.exists()


def test_contrast_sgns_without_corpus_is_usage_error(tmp_path):
    assert main(["contrast", "sgns", "--output", str(tmp_path / "o.csv")]) == 2


def test_contrast_manifest_records_each_optimizer_run(tmp_path):
    proc = _write_process(tmp_path / "p.json", **TWO_STATE)
    manifests = []
    for name in ("a.csv", "b.csv"):
        out = str(tmp_path / name)
        assert main(["contrast", "spectral", "--process", proc, "--dim", "2",
                     "--output", out]) == 0
        manifests.append(load_manifest(out + ".manifest.json"))
    (run,) = manifests[0]["optimizer"]
    assert set(run) == {"stop_reason", "iterations", "evaluations", "grad_norm"}
    assert run["stop_reason"] in ("gradient", "stalled")
    assert run["evaluations"] > run["iterations"] > 0
    assert manifests[0]["optimizer"] == manifests[1]["optimizer"]


def test_budget_exhaustion_warns_but_exits_0(tmp_path, capsys):
    """A run that stops at max_iter gets one stderr warning; exit stays 0."""
    cfg = tmp_path / "kc.ini"
    cfg.write_text("[optimizer]\nmax_iter = 1\n")
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b a b a\n")
    assert main(["--config", str(cfg), "contrast", "sgns", "--corpus", str(corpus),
                 "--dim", "1", "--output", str(tmp_path / "s.csv")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["kc: warning: 1 of 1 optimizer runs stopped at max_iter"]
    kern = tmp_path / "k.csv"
    save_sym_csv(str(kern), np.array([[2.0, 0.5], [0.5, 1.0]]))
    pfile = tmp_path / "p.csv"
    pfile.write_text("0.5,0.5\n")
    assert main(["--config", str(cfg), "eigenfun", "--kernel", str(kern),
                 "--p", str(pfile), "--dim", "2", "--output", str(tmp_path / "f.csv")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["kc: warning: 2 of 2 optimizer runs stopped at max_iter"]


def test_bad_optimizer_config_value_is_usage_error(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b a b\n")
    cfg = tmp_path / "kc.ini"
    cfg.write_text("[optimizer]\nmax_iter = lots\n")
    code = main(["--config", str(cfg), "contrast", "sgns", "--corpus", str(corpus),
                 "--output", str(tmp_path / "o.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "max_iter" in err


def test_divergence_is_error_1(tmp_path, capsys, monkeypatch):
    """A line search that cannot start (MIN_STEP above STEP_SIZE) raises
    DivergenceError; the CLI reports it in one line instead of a traceback."""
    proc = _write_process(tmp_path / "p.json", **TWO_STATE)
    monkeypatch.setattr(encoders, "MIN_STEP", 2.0)
    code = main(["contrast", "spectral", "--process", proc,
                 "--output", str(tmp_path / "o.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("kc: error: line search failed") and err.count("\n") == 1


# --------------------------------------------------------------- eigenfun


def test_eigenfun_reports_oracle_agreement(tmp_path, capsys):
    kern = tmp_path / "k.csv"
    g = np.array([[2.0, 0.5, 0.2], [0.5, 1.5, 0.3], [0.2, 0.3, 1.0]])
    save_sym_csv(str(kern), g)
    pfile = tmp_path / "p.csv"
    pfile.write_text("0.25,0.5,0.25\n")
    out = str(tmp_path / "funcs.csv")
    report = str(tmp_path / "cmp.json")
    assert main(["eigenfun", "--kernel", str(kern), "--p", str(pfile),
                 "--dim", "2", "--output", out, "--report", report]) == 0
    cmp = json.load(open(report))
    assert cmp["max_estimate_deviation"] < 1e-6
    assert min(cmp["weighted_cosines"]) > 1.0 - 1e-6
    funcs = load_matrix_csv(out)
    assert funcs.shape == (3, 2)
    stages = load_manifest(out + ".manifest.json")["optimizer"]
    assert len(stages) == 2
    assert all(s["stop_reason"] in ("gradient", "stalled") for s in stages)
    assert "warning" not in capsys.readouterr().err


def test_eigenfun_rejects_weights_off_one_before_training(tmp_path, capsys, monkeypatch):
    """Weights that do not sum to 1 exit 1 before the first training stage,
    with a message that names the weights file."""
    calls = []
    monkeypatch.setattr(eigenfunctions, "minimize", lambda *a: calls.append(a))
    kern = tmp_path / "k.csv"
    save_sym_csv(str(kern), np.array([[2.0, 0.5, 0.2], [0.5, 1.5, 0.3], [0.2, 0.3, 1.0]]))
    pfile = tmp_path / "p.csv"
    pfile.write_text("0.3,0.3,0.3\n")
    assert main(["eigenfun", "--kernel", str(kern), "--p", str(pfile), "--dim", "2",
                 "--output", str(tmp_path / "f.csv")]) == 1
    assert not calls
    err = capsys.readouterr().err
    assert err == f"kc: error: {pfile}: weights sum to 0.8999999999999999, not 1\n"


@pytest.mark.parametrize("p, augment, message", [
    ([0.45, 0.45], [[0.8, 0.2], [0.2, 0.8]], "probabilities sum to 0.9, not 1"),
    ([0.6, 0.5], [[0.8, 0.2], [0.2, 0.8]], "probabilities sum to 1.1, not 1"),
    ([0.5, 0.5], [[0.9, 0.2], [0.1, 0.9]], "augment row 0 sums to 1.1, not 1"),
], ids=["probabilities", "probabilities-over", "augment"])
def test_process_sum_errors_print_plain_numbers(tmp_path, capsys, p, augment, message):
    """A bad sum is reported as a plain float, not a NumPy scalar repr, in
    a message that names the file and the field it rejects."""
    proc = _write_process(tmp_path / "p.json", items=["a", "b"], p=p, augment=augment)
    assert main(["contrast", "spectral", "--process", proc,
                 "--output", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{proc}: {message}" in err and "np." not in err


# ---------------------------------------------------------------- analyze


def test_analyze_conductance_subset(tmp_path, capsys):
    proc = _write_process(tmp_path / "p.json", **TWO_STATE)
    assert main(["analyze", "conductance", "--process", proc,
                 "--subset", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # cross mass p_plus(a,b) over marginal(a): (0.5*2*0.8*0.2) / 0.5
    assert payload["value"] == pytest.approx(0.32)


def test_analyze_sparsest_partition(tmp_path, capsys):
    proc = _write_process(tmp_path / "p.json", **TWO_STATE)
    outfile = str(tmp_path / "cut.json")
    assert main(["analyze", "conductance", "--process", proc,
                 "--parts", "2", "--output", outfile]) == 0
    printed = json.loads(capsys.readouterr().out)
    stored = json.load(open(outfile))
    assert printed == stored
    assert stored["quantity"] == "sparsest_partition"


def test_analyze_output_has_reproducible_manifest(tmp_path):
    proc = _write_process(tmp_path / "p.json", **TWO_STATE)
    outfile = str(tmp_path / "cond.json")
    blobs = []
    for _ in range(2):
        assert main(["analyze", "conductance", "--process", proc,
                     "--subset", "0", "--output", outfile]) == 0
        manifest = load_manifest(outfile + ".manifest.json")
        assert manifest["subcommand"] == "analyze"
        assert manifest["metrics"]["value"] == pytest.approx(0.32)
        assert list(manifest["inputs"]) == [proc]
        del manifest["timestamps"]
        blobs.append(json.dumps(manifest, sort_keys=True))
    assert blobs[0] == blobs[1]


def test_analyze_requires_exactly_one_selector(tmp_path):
    proc = _write_process(tmp_path / "p.json", **TWO_STATE)
    assert main(["analyze", "conductance", "--process", proc]) == 2
    assert main(["analyze", "conductance", "--process", proc,
                 "--subset", "0", "--parts", "2"]) == 2


# ----------------------------------------------------------------- verify


def test_verify_suite_passes_and_reports(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    assert main(["verify", "classification", "--output", out]) == 0
    stdout = capsys.readouterr().out
    assert "[ok ]" in stdout
    assert "suite classification passed" in stdout
    report = json.load(open(out))
    assert report["passed"] is True
    assert all(c["observed"] <= c["tolerance"] for c in report["checks"])


def test_verify_report_is_byte_identical_across_runs(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main(["verify", "classification", "--output", a]) == 0
    assert main(["verify", "classification", "--output", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_verify_suite_construction_error_is_error_1(capsys):
    """At seed 2 the eigenfun suite's kernel has too small a spectral gap and
    the suite refuses to build with a RuntimeError."""
    assert main(["verify", "eigenfun", "--seed", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("kc: error: suite construction error") and err.count("\n") == 1


def test_consecutive_main_calls_share_no_parsed_values(tmp_path, capsys):
    """One process builds the parser once; no call's arguments or usage
    error reach the next call."""
    assert _gen_seed(tmp_path, argv_extra=["--seed", "3"]) == 3
    assert _gen_seed(tmp_path) == 0
    capsys.readouterr()
    out = str(tmp_path / "report.json")
    argv = ["verify", "classification", "--output", out]
    assert main(argv) == 0
    first = (capsys.readouterr().out, open(out).read())
    with pytest.raises(SystemExit) as exc:
        main(["verify", "classification", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert (capsys.readouterr().out, open(out).read()) == first


def test_verify_unknown_suite_is_usage_error(capsys):
    assert main(["verify", "no-such-suite"]) == 2
    err = capsys.readouterr().err
    assert "no-such-suite" in err
    # the message lists what is available
    assert "classification" in err


def test_kernel_approx_nystrom_records_the_rank_it_writes(tmp_path):
    """With more usable landmark eigenvalues than --rank, the manifest's
    usable_rank is the number of feature columns written."""
    roll = str(tmp_path / "roll.csv")
    assert main(["gen", "swiss-roll", "--n", "200", "--seed", "0", "--output", roll]) == 0
    out = str(tmp_path / "feats.csv")
    assert main(["kernel-approx", "--method", "nystrom", "--input", roll, "--columns", "0,1,2",
                 "--seed", "0", "--landmarks", "40", "--rank", "20", "--output", out]) == 0
    assert load_manifest(out + ".manifest.json")["metrics"]["usable_rank"] == 20
    assert load_matrix_csv(out).shape == (200, 20)


# ------------------------------------------------------------------ report


def _report_inputs(tmp_path) -> list:
    """Manifests of a 25-point roll, its PCA and its 3-d MDS."""
    roll = str(tmp_path / "roll.csv")
    red = ["reduce", "--input", roll, "--columns", "0,1,2", "--output"]
    assert main(["gen", "swiss-roll", "--n", "25", "--output", roll]) == 0
    assert main(red + [str(tmp_path / "pca.csv"), "--method", "pca"]) == 0
    assert main(red + [str(tmp_path / "mds.csv"), "--method", "mds", "--dim", "3"]) == 0
    return [str(tmp_path / name) + ".manifest.json" for name in ("roll.csv", "pca.csv", "mds.csv")]


def test_report_summarizes_manifests_and_plots(tmp_path, capsys):
    """One chart of the given manifests' metrics: a legend label for each
    metric and one point marker for each value on a log axis."""
    manifests = _report_inputs(tmp_path)
    outdir = str(tmp_path / "report")
    assert main(["report", "--manifests", *manifests, "--outdir", outdir]) == 0
    assert capsys.readouterr().out.endswith(f"and 1 plot to {outdir}\n")
    summary = open(os.path.join(outdir, "summary.csv")).read()
    assert "gen" in summary and "rows" in summary
    values = {}
    for path in manifests:
        for name, value in load_manifest(path)["metrics"].items():
            values.setdefault(name, []).append(value)
    assert {"rows", "variance_kept", "reconstruction_error"} <= set(values)
    assert sorted(f for f in os.listdir(outdir) if f.endswith(".svg")) == ["metrics.svg"]
    svg = open(os.path.join(outdir, "metrics.svg")).read()
    assert svg.startswith("<svg")
    for name in values:
        assert f">{name}</text>" in svg
    # every value here is a nonzero number, so each one is plotted
    assert all(type(v) in (int, float) and v != 0 for vs in values.values() for v in vs)
    assert svg.count("<circle") == sum(len(v) for v in values.values())


def test_report_chart_changes_with_an_input_metric(tmp_path):
    manifests = _report_inputs(tmp_path)
    outdir = str(tmp_path / "report")

    def chart():
        assert main(["report", "--manifests", *manifests, "--outdir", outdir]) == 0
        return open(os.path.join(outdir, "metrics.svg")).read()

    before = chart()
    pca = load_manifest(manifests[1])
    pca["metrics"]["variance_kept"] /= 2
    with open(manifests[1], "w") as fh:
        json.dump(pca, fh)
    assert chart() != before


def test_report_without_plottable_metrics_writes_no_chart(tmp_path, capsys):
    """Values that are 0, not finite or not numbers have no log magnitude:
    the summary keeps their rows, and no chart is drawn."""
    manifests = _report_inputs(tmp_path)[:2]
    unplottable = [0, 0.0, float("nan"), float("inf"), "text", None]
    for path, values in zip(manifests, (unplottable[:3], unplottable[3:])):
        manifest = load_manifest(path)
        manifest["metrics"] = {f"m{i}": value for i, value in enumerate(values)}
        with open(path, "w") as fh:
            json.dump(manifest, fh)
    outdir = str(tmp_path / "report")
    assert main(["report", "--manifests", *manifests, "--outdir", outdir]) == 0
    assert "no finite nonzero metric to plot" in capsys.readouterr().out
    with open(os.path.join(outdir, "summary.csv")) as fh:
        assert len([line for line in fh if not line.startswith("#")]) == len(unplottable)
    assert sorted(os.listdir(outdir)) == ["report.manifest.json", "summary.csv"]


def test_report_without_plottable_metrics_removes_an_earlier_chart(tmp_path, capsys):
    """A chart left by an earlier report in the same --outdir would not
    describe the new summary, so it goes."""
    manifest = _report_inputs(tmp_path)[0]
    outdir = str(tmp_path / "report")
    assert main(["report", "--manifests", manifest, "--outdir", outdir]) == 0
    assert os.path.exists(os.path.join(outdir, "metrics.svg"))
    data = load_manifest(manifest)
    data["metrics"] = {name: 0 for name in data["metrics"]}
    with open(manifest, "w") as fh:
        json.dump(data, fh)
    assert main(["report", "--manifests", manifest, "--outdir", outdir]) == 0
    assert "no finite nonzero metric to plot" in capsys.readouterr().out
    assert sorted(os.listdir(outdir)) == ["report.manifest.json", "summary.csv"]


@pytest.mark.parametrize("count", [7, 12])
def test_line_chart_draws_each_series_with_its_own_stroke(tmp_path, count):
    """The toolbox report charts 7 metrics; past the palette's length a
    colour comes back dashed, so no two series look alike."""
    path = str(tmp_path / "chart.svg")
    line_chart(path, [(f"s{i}", [0, 1], [i, i + 1]) for i in range(count)], "strokes")
    svg = open(path).read()
    strokes = re.findall(r'<polyline [^>]*?stroke="([^"]+)"( stroke-dasharray="[^"]+")?', svg)
    assert len(strokes) == len(set(strokes)) == count


def test_report_records_its_seed(tmp_path):
    """`--seed` charts nothing, but stays accepted and recorded."""
    manifests = _report_inputs(tmp_path)[:1]
    outdir = str(tmp_path / "report")
    assert main(["report", "--manifests", *manifests, "--outdir", outdir, "--seed", "3"]) == 0
    assert load_manifest(os.path.join(outdir, "report.manifest.json"))["seed"] == 3


def test_report_manifest_is_reproducible_without_timestamps(tmp_path):
    """A kc manifest given as input is hashed without its timestamps, so two
    identical passes write report manifests that differ only in theirs."""
    roll = str(tmp_path / "roll.csv")
    outdir = str(tmp_path / "report")
    raw, reports = [], []
    for _ in range(2):
        assert main(["gen", "swiss-roll", "--n", "25", "--output", roll]) == 0
        assert main(["report", "--manifests", roll + ".manifest.json",
                     "--outdir", outdir]) == 0
        raw.append(open(roll + ".manifest.json", "rb").read())
        reports.append(load_manifest(os.path.join(outdir, "report.manifest.json")))
        del reports[-1]["timestamps"]
    assert raw[0] != raw[1]
    assert reports[0] == reports[1]
    gen = load_manifest(roll + ".manifest.json")
    del gen["timestamps"]
    canon = json.dumps(gen, sort_keys=True, indent=2) + "\n"
    digest = reports[0]["inputs"][roll + ".manifest.json"]
    assert digest == hashlib.sha256(canon.encode()).hexdigest()

    gen["metrics"]["rows"] += 1
    with open(roll + ".manifest.json", "w") as fh:
        fh.write(json.dumps(dict(gen, timestamps={}), sort_keys=True, indent=2) + "\n")
    assert main(["report", "--manifests", roll + ".manifest.json", "--outdir", outdir]) == 0
    changed = load_manifest(os.path.join(outdir, "report.manifest.json"))
    assert changed["inputs"][roll + ".manifest.json"] != digest


def test_non_manifest_inputs_keep_their_file_digest(tmp_path):
    proc = _write_process(tmp_path / "p.json", **TWO_STATE)
    roll = str(tmp_path / "roll.csv")
    assert main(["gen", "swiss-roll", "--n", "25", "--output", roll]) == 0
    out = str(tmp_path / "emb.csv")
    assert main(["reduce", "--method", "pca", "--input", roll, "--output", out]) == 0
    assert main(["analyze", "conductance", "--process", proc, "--subset", "0",
                 "--output", str(tmp_path / "cond.json")]) == 0
    for manifest, path in ((out, roll), (str(tmp_path / "cond.json"), proc)):
        digest = load_manifest(manifest + ".manifest.json")["inputs"][path]
        assert digest == hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_digests_equal_hashlib(tmp_path):
    """The built-in SHA-256 the manifests use gives hashlib's digests: on
    an empty file, a file of several read chunks, a flag set, and a kc
    manifest, which is hashed as its canonical JSON without timestamps."""
    empty, big = tmp_path / "empty", tmp_path / "big"
    empty.write_bytes(b"")
    big.write_bytes(bytes(range(256)) * 700)
    for path in (empty, big):
        want = hashlib.sha256(path.read_bytes()).hexdigest()
        assert manifest.sha256_file(str(path)) == manifest._input_digest(str(path)) == want
    flags = {"seed": 3, "method": "pca", "dims": 2}
    canon = "dims=2\nmethod=pca\nseed=3"
    assert manifest.config_hash(flags) == hashlib.sha256(canon.encode()).hexdigest()
    roll = str(tmp_path / "roll.csv")
    assert main(["gen", "swiss-roll", "--n", "25", "--output", roll]) == 0
    gen = load_manifest(roll + ".manifest.json")
    del gen["timestamps"]
    canon = json.dumps(gen, sort_keys=True, indent=2) + "\n"
    assert manifest._input_digest(roll + ".manifest.json") == (
        hashlib.sha256(canon.encode()).hexdigest()
    )


def test_a_run_that_writes_a_manifest_loads_no_openssl(tmp_path):
    """In a fresh interpreter, `kc verify` writes its report and manifest
    without importing hashlib's OpenSSL module `_hashlib`."""
    script = (
        "import sys\n"
        "from kernelcontrast.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, '_hashlib' in sys.modules)\n"
    )
    out = str(tmp_path / "report.txt")
    src = os.path.dirname(os.path.dirname(kernelcontrast.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, "verify", "classification",
                           "--output", out], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr
    assert os.path.exists(out + ".manifest.json")



# ------------------------------------------------- resolved options, replay


def _run_reduce(tmp_path, name, extra, config_text=None):
    src = str(tmp_path / "pts.csv")
    save_matrix_csv(src, np.random.default_rng(0).normal(size=(12, 3)))
    out = str(tmp_path / name)
    argv = ["reduce", "--input", src, "--output", out] + extra
    if config_text is not None:
        cfg = tmp_path / "kc.ini"
        cfg.write_text(config_text)
        argv = ["--config", str(cfg)] + argv
    return main(argv), out


@pytest.mark.parametrize("method", ["isomap", "lle", "le"])
def test_reduce_knn_from_config_runs_and_is_recorded(tmp_path, method):
    code, out = _run_reduce(tmp_path, "cfg.csv", ["--method", method],
                            config_text="[reduce]\nknn = 4\n")
    assert code == 0
    assert load_manifest(out + ".manifest.json")["flags"]["knn"] == 4
    code, flagged = _run_reduce(tmp_path, "flag.csv", ["--method", method, "--knn", "4"])
    assert code == 0
    assert open(out, "rb").read() == open(flagged, "rb").read()


@pytest.mark.parametrize("method", ["isomap", "le"])
def test_reduce_graph_methods_without_eps_or_knn_are_usage_errors(tmp_path, capsys, method):
    code, _ = _run_reduce(tmp_path, "o.csv", ["--method", method])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_reduce_le_records_its_default_bandwidth(tmp_path):
    manifests = []
    for extra in ([], ["--t", "1.0"]):
        code, out = _run_reduce(tmp_path, "le.csv", ["--method", "le", "--knn", "4"] + extra)
        assert code == 0
        manifests.append(load_manifest(out + ".manifest.json"))
    assert manifests[0]["flags"]["t"] == 1.0
    assert manifests[0]["config_digest"] == manifests[1]["config_digest"]


def test_reduce_takes_no_seed(tmp_path, capsys):
    """No reduction draws a random number, so reduce has no seed to set:
    its manifest records seed 0, as analyze's does."""
    code, out = _run_reduce(tmp_path, "pca.csv", ["--method", "pca"])
    assert code == 0
    assert load_manifest(out + ".manifest.json")["seed"] == 0
    with pytest.raises(SystemExit) as exc:
        _run_reduce(tmp_path, "s.csv", ["--method", "pca", "--seed", "5"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, _ = _run_reduce(tmp_path, "c.csv", ["--method", "pca"],
                          config_text="[reduce]\nseed = 5\n")
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_kernel_approx_manifest_records_kernel_settings(tmp_path):
    roll = str(tmp_path / "roll.csv")
    assert main(["gen", "swiss-roll", "--n", "30", "--output", roll]) == 0
    out, rep = str(tmp_path / "ny.csv"), str(tmp_path / "ny.json")
    assert main(["kernel-approx", "--method", "nystrom", "--sigma2", "2.5", "--landmarks", "10",
                 "--rank", "4", "--input", roll, "--columns", "0,1,2", "--output", out,
                 "--report", rep]) == 0
    flags = load_manifest(out + ".manifest.json")["flags"]
    assert (flags["sigma2"], flags["degree"], flags["columns"], flags["report"]) == (
        2.5, None, "0,1,2", rep)
    assert main(["kernel-approx", "--method", "nystrom", "--kernel", "polynomial",
                 "--degree", "3", "--landmarks", "10", "--rank", "4", "--input", roll,
                 "--output", out]) == 0
    flags = load_manifest(out + ".manifest.json")["flags"]
    assert (flags["sigma2"], flags["degree"], flags["kernel"]) == (None, 3, "polynomial")


def test_optimizer_settings_enter_the_manifest_and_digest(tmp_path):
    proc = _write_process(tmp_path / "p.json", **TWO_STATE)
    digests = []
    for max_iter in (50, 60):
        cfg = tmp_path / "kc.ini"
        cfg.write_text(f"[optimizer]\nmax_iter = {max_iter}\n")
        out = str(tmp_path / "s.csv")
        assert main(["--config", str(cfg), "contrast", "spectral", "--process", proc,
                     "--output", out]) == 0
        manifest = load_manifest(out + ".manifest.json")
        assert manifest["flags"]["optimizer"]["max_iter"] == max_iter
        assert manifest["flags"]["optimizer"]["tol"] == 1e-10
        digests.append(manifest["config_digest"])
    assert digests[0] != digests[1]


def test_unknown_config_keys_are_usage_errors(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b a b\n")
    cfg = tmp_path / "kc.ini"
    sgns = ["--config", str(cfg), "contrast", "sgns", "--corpus", str(corpus),
            "--output", str(tmp_path / "o.csv")]
    for text, key in (("[optimizer]\nmaxiter = 50\n", "maxiter"),
                      ("[optimizer]\nmin_step = 1e-9\n", "min_step"),
                      ("[contrast]\nwindows = 2\n", "windows")):
        cfg.write_text(text)
        assert main(sgns) == 2
        assert key in capsys.readouterr().err
    # [kc] and other subcommands' sections are not checked, nor is
    # [optimizer] for a command that trains nothing
    cfg.write_text("[kc]\nwindow = 2\n\n[reduce]\nknn = 4\n\n[optimizer]\nmaxiter = 50\n")
    assert main(["--config", str(cfg), "gen", "swiss-roll", "--n", "5",
                 "--output", str(tmp_path / "g.csv")]) == 0


def test_config_value_outside_the_choices_is_usage_error(tmp_path, capsys):
    roll = str(tmp_path / "roll.csv")
    assert main(["gen", "swiss-roll", "--n", "20", "--output", roll]) == 0
    cfg = tmp_path / "kc.ini"
    cfg.write_text("[kernel-approx]\nkernel = laplacian\n")
    assert main(["--config", str(cfg), "kernel-approx", "--method", "nystrom", "--landmarks",
                 "5", "--rank", "2", "--input", roll, "--output", str(tmp_path / "f.csv")]) == 2
    assert "laplacian" in capsys.readouterr().err


_POSITIONAL = ("shape", "algo", "quantity", "suite")


def _replay_argv(manifest, tmp_path):
    """The command line a manifest describes, plus its [optimizer] config."""
    flags = dict(manifest["flags"])
    settings = flags.pop("optimizer", None)
    argv = [manifest["subcommand"]] + [flags.pop(k) for k in _POSITIONAL if k in flags]
    for key, value in sorted(flags.items()):
        if value is not None:
            argv += ["--" + key.replace("_", "-")]
            argv += [str(v) for v in value] if isinstance(value, list) else [str(value)]
    if manifest["subcommand"] not in ("analyze", "reduce"):
        argv += ["--seed", str(manifest["seed"])]
    if settings is not None:
        cfg = tmp_path / "replay.ini"
        cfg.write_text("[optimizer]\n" + "".join(f"{k} = {v!r}\n" for k, v in settings.items()))
        argv = ["--config", str(cfg)] + argv
    return argv


def _files(root):
    return {os.path.join(d, n) for d, _, names in os.walk(root) for n in names}


def _contents(paths):
    out = {}
    for path in paths:
        if path.endswith(".manifest.json"):
            manifest = load_manifest(path)
            del manifest["timestamps"]
            out[path] = manifest
        else:
            out[path] = open(path, "rb").read()
    return out


def test_every_run_replays_from_its_manifest(tmp_path):
    """Each run, some configured by file, is rerun from the flags (and
    [optimizer] settings) its manifest records, with its outputs moved
    aside: the outputs come back byte for byte and the manifests, config
    digest included, are equal minus their timestamps."""
    ins = tmp_path / "in"
    ins.mkdir()
    corpus = ins / "c.txt"
    corpus.write_text("a b a c b a b c c a b a\n")
    proc = _write_process(
        ins / "p.json", items=["a", "b", "c"], p=[0.5, 0.3, 0.2],
        augment=[[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
    )
    kern, weights, dist = str(ins / "k.csv"), ins / "w.csv", str(ins / "d.csv")
    save_sym_csv(kern, np.array([[2.0, 0.5, 0.2], [0.5, 1.5, 0.3], [0.2, 0.3, 1.0]]))
    weights.write_text("0.25,0.5,0.25\n")
    pts = np.random.default_rng(1).normal(size=(6, 2))
    save_sym_csv(dist, np.sqrt(np.square(pts[:, None] - pts[None]).sum(axis=2)))
    out = tmp_path / "out"
    roll, o = str(out / "roll.csv"), lambda name: str(out / name)
    red = ["reduce", "--input", roll, "--columns", "0,1,2"]
    runs = [
        ("[gen]\nn = 60\nnoise = 0.05\n", ["gen", "swiss-roll", "--seed", "2", "--output", roll]),
        (None, red + ["--method", "pca", "--output", o("pca.csv")]),
        (None, red + ["--method", "mds", "--dim", "3", "--output", o("mds.csv")]),
        (None, ["reduce", "--method", "mds", "--distances", dist, "--output", o("mdsd.csv")]),
        ("[reduce]\nknn = 8\n", red + ["--method", "isomap", "--output", o("iso.csv")]),
        (None, red + ["--method", "lle", "--knn", "8", "--output", o("lle.csv")]),
        ("[kc]\nknn = 8\n", red + ["--method", "le", "--output", o("le.csv")]),
        (None, ["kernel-approx", "--method", "nystrom", "--sigma2", "2.5", "--landmarks", "20",
                "--rank", "8", "--input", roll, "--seed", "1", "--output", o("ny.csv"),
                "--report", o("rep/ny.json")]),
        ("[kernel-approx]\nkernel = polynomial\ndegree = 3\n",
         ["kernel-approx", "--method", "nystrom", "--landmarks", "20", "--rank", "4",
          "--input", roll, "--columns", "0,1,2", "--output", o("nyp.csv")]),
        (None, ["kernel-approx", "--method", "rff", "--sigma2", "0.5", "--features", "16",
                "--input", roll, "--seed", "4", "--output", o("rff.csv"), "--report",
                o("rff.json")]),
        ("[contrast]\nwindow = 2\nk = 2\n\n[optimizer]\nmax_iter = 50\n",
         ["contrast", "sgns", "--corpus", str(corpus), "--dim", "3", "--output", o("sg.csv"),
          "--context-output", o("ctx/sg.csv")]),
        (None, ["contrast", "infonce", "--process", proc, "--dim", "3", "--output",
                o("inf.csv")]),
        ("[contrast]\nmode = tied\ntau = 0.5\n",
         ["contrast", "infonce", "--process", proc, "--dim", "3", "--output", o("inft.csv")]),
        (None, ["contrast", "spectral", "--process", proc, "--dim", "2", "--output",
                o("spec.csv")]),
        ("[optimizer]\ntol = 1e-9\n",
         ["eigenfun", "--kernel", kern, "--p", str(weights), "--output", o("ef.csv"),
          "--report", o("ef.json")]),
        (None, ["analyze", "conductance", "--process", proc, "--subset", "0,1", "--output",
                o("an.json")]),
        ("[analyze]\nparts = 2\n", ["analyze", "conductance", "--process", proc, "--output",
                                    o("an2.json")]),
        ("[kc]\nseed = 3\n", ["verify", "classification", "--output", o("v.json")]),
        (None, ["report", "--manifests", roll + ".manifest.json", o("ny.csv.manifest.json"),
                "--outdir", o("report")]),
    ]
    for config_text, argv in runs:
        if config_text is not None:
            cfg = ins / "run.ini"
            cfg.write_text(config_text)
            argv = ["--config", str(cfg)] + argv
        before = _files(out)
        assert main(argv) == 0, argv
        written = sorted(_files(out) - before)
        original = _contents(written)
        (sidecar,) = [p for p in written if p.endswith(".manifest.json")]
        replay = _replay_argv(original[sidecar], tmp_path)
        aside = tmp_path / "aside"
        aside.mkdir(exist_ok=True)
        for i, path in enumerate(written):
            os.replace(path, aside / str(i))
        assert main(replay) == 0, replay
        assert sorted(_files(out) - before) == written, replay
        assert _contents(written) == original, replay


def test_forked_csv_writes_match_one_worker_byte_for_byte(tmp_path, force_csv_workers):
    """kernel-approx rff and reduce isomap with the CSV writer forced onto
    three workers write the same CSV, JSON and manifest (minus timestamps)
    as on one."""
    roll = str(tmp_path / "roll.csv")
    assert main(["gen", "swiss-roll", "--n", "40", "--output", roll]) == 0
    out = tmp_path / "out"
    runs = [
        ["kernel-approx", "--method", "rff", "--features", "32", "--input", roll,
         "--columns", "0,1,2", "--output", str(out / "rff.csv"),
         "--report", str(out / "rff.json")],
        ["reduce", "--method", "isomap", "--knn", "8", "--input", roll, "--columns", "0,1,2",
         "--output", str(out / "iso.csv")],
    ]

    def outputs():
        for argv in runs:
            assert main(argv) == 0
        return _contents(_files(out))

    one = outputs()
    forks = force_csv_workers(3)
    assert outputs() == one
    assert len(one) == 5 and len(forks) == 4
