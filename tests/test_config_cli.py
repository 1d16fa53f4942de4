import json

import pytest

from sparseloc import experiments
from sparseloc.cli import main
from sparseloc.config import validate_config
from sparseloc.errors import ConfigError, NumericalError
from sparseloc.experiments import run_experiment
from sparseloc.lattice import sparse_set_from_sites


def _moments_raw(**overrides):
    raw = {
        "kind": "moments",
        "seed": 3,
        "symbol": {"delta": 1},
        "volume": {"center": [0], "half_side": 20},
        "sparse_set": {"generator": "full_cube", "alpha": 0.5},
        "disorder": {"law": "uniform", "params": [-1.0, 1.0], "lambda": 20.0},
        "query": {"energy": 5.0, "epsilon": 1e-3, "s": 0.5, "source": [0], "realizations": 8},
    }
    raw.update(overrides)
    return raw


def test_validate_rejects_s_out_of_range():
    raw = _moments_raw()
    raw["query"]["s"] = 1.2
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert any("query.s" in f for f, _ in err.value.violations)


def test_validate_rejects_low_dimension_sparseness():
    raw = {
        "kind": "sparseness",
        "symbol": {"delta": 3},
        "sparse_set": {"generator": "deterministic_powers", "alpha": 0.1, "half_side": 8},
        "phi": [{"site": [0, 0, 0], "re": 1.0}],
        "t_max": 16.0,
    }
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert any("2*(1/3 - 1/nu)" in reason for _, reason in err.value.violations)


def test_validate_rejects_edge_scan_volume_above_the_dense_cap():
    raw = {
        "kind": "edge_scan",
        "symbol": {"delta": 1},
        "volume": {"center": [0], "half_side": 2048},
        "sparse_set": {"generator": "full_cube", "alpha": 0.5},
        "disorder": {"law": "uniform", "params": [-1.0, 1.0], "lambda": 1.0},
        "realizations": 20,
        "s": 0.5,
    }
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert ("volume", "volume 4097 exceeds the dense-diagonalization cap 4096") in \
        err.value.violations
    raw["volume"]["half_side"] = 2047  # 4095 sites: under the cap
    validate_config(raw)


def test_validate_rejects_alpha_outside_window():
    raw = {
        "kind": "sparseness",
        "symbol": {"delta": 5},
        "sparse_set": {"generator": "deterministic_powers", "alpha": 0.5, "half_side": 8},
        "phi": [{"site": [0] * 5, "re": 1.0}],
        "t_max": 16.0,
    }
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert any("admissible window" in reason for _, reason in err.value.violations)


def test_validate_collects_multiple_violations():
    raw = _moments_raw()
    raw["query"]["s"] = 1.2
    raw["query"]["epsilon"] = -1.0
    raw["mystery"] = True
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    fields = [f for f, _ in err.value.violations]
    assert "query.s" in fields
    assert "query.epsilon" in fields
    assert "mystery" in fields


def test_validate_unknown_keys_rejected_in_blocks():
    raw = _moments_raw()
    raw["disorder"]["lambdaa"] = 3.0
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert any("lambdaa" in f for f, _ in err.value.violations)


def test_validate_echoes_derived_quantities():
    cfg = validate_config(_moments_raw())
    assert cfg.derived["h0_norm_s"] == pytest.approx(4.0)


def test_validate_injects_top_seed_into_blocks():
    raw = _moments_raw(seed=77)
    cfg = validate_config(raw)
    assert cfg.objects["model"].seed == 77
    raw2 = _moments_raw(seed=77)
    raw2["disorder"]["seed"] = 5
    cfg2 = validate_config(raw2)
    assert cfg2.objects["model"].seed == 5


def test_validate_kind_mismatch():
    with pytest.raises(ConfigError):
        validate_config(_moments_raw(), kind="norms")


def test_norms_pipeline_matches_closed_form(tmp_path):
    cfg = validate_config(
        {"kind": "norms", "symbol": {"delta": 2}, "s_grid": [0.3, 0.5, 0.9]}
    )
    manifest = run_experiment(cfg, out_dir=str(tmp_path / "norms"))
    assert manifest.status == "ok"
    lines = (tmp_path / "norms" / "norms.csv").read_text().strip().splitlines()
    assert lines[0] == "s,norm"
    for line in lines[1:]:
        s, norm = (float(tok) for tok in line.split(","))
        assert norm == pytest.approx(4.0 ** (1.0 / s), rel=1e-14)


def test_rerun_is_byte_identical(tmp_path):
    raw = _moments_raw()
    m1 = run_experiment(validate_config(raw), out_dir=str(tmp_path / "a"))
    m2 = run_experiment(validate_config(raw), out_dir=str(tmp_path / "b"))
    assert (tmp_path / "a" / "moments.csv").read_bytes() == (
        tmp_path / "b" / "moments.csv"
    ).read_bytes()
    assert m1.config_hash == m2.config_hash
    sums1 = {name: digest for name, digest, _ in m1.files}
    sums2 = {name: digest for name, digest, _ in m2.files}
    assert sums1["moments.csv"] == sums2["moments.csv"]


def _explicit_sparseness_raw(sites, alpha):
    return {
        "kind": "sparseness",
        "symbol": {"delta": 5},
        "sparse_set": {"generator": "explicit_list", "alpha": alpha, "sites": sites},
        "phi": [{"site": [0] * 5, "re": 1.0}],
        "t_max": 16.0,
    }


def test_failed_run_retains_artifacts(tmp_path):
    # a set that violates its cap but got past validation (which now refuses
    # such lists): sparseness refuses it at run time
    bad = validate_config(_explicit_sparseness_raw([[0] * 5], 0.01))
    dense = [(i, 0, 0, 0, 0) for i in range(-6, 7)]
    bad.objects["sparse"] = sparse_set_from_sites(dense, 0.01, 5)
    with pytest.raises(ValueError, match="too dense"):
        run_experiment(bad, out_dir=str(tmp_path / "bad"))
    manifest = json.loads((tmp_path / "bad" / "failed" / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "too dense" in manifest["failure"]


def _too_dense_raw():
    # 10 sites of the 3^5 cube at alpha = 0.05: the cap there is 2
    sites = [[a, b, c, 0, 0] for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (0, 1)][:10]
    return _explicit_sparseness_raw(sites, 0.05)


def test_validate_rejects_too_dense_explicit_list():
    with pytest.raises(ConfigError) as err:
        validate_config(_too_dense_raw())
    assert err.value.violations == [
        ("sparse_set", "set too dense for alpha=0.05: |S n Lambda|=10 > cap 2 at volume 243")
    ]


def test_cli_too_dense_explicit_list_exits_two_before_running(tmp_path, capsys):
    path = _write_config(tmp_path, _too_dense_raw())
    code = main(["sparseness", "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "sparse_set: set too dense" in err
    assert not (tmp_path / "out").exists()


def _sparseness_cli_config(tmp_path):
    return _write_config(tmp_path, {
        "kind": "sparseness",
        "symbol": {"delta": 5},
        "sparse_set": {"generator": "deterministic_powers", "alpha": 0.25, "half_side": 8},
        "phi": [{"site": [0] * 5, "re": 1.0}],
        "t_max": 16.0,
    })


def _fail_mid_run(cfg, stage, threads):
    (stage / "partial.csv").write_text("t,c_t\n")
    raise NumericalError("window quadrature did not settle")


def test_cli_failed_rerun_removes_the_previous_manifest_and_its_files(tmp_path, monkeypatch):
    path, out = _sparseness_cli_config(tmp_path), tmp_path / "out"
    assert main(["sparseness", "--config", path, "--out", str(out)]) == 0
    listed = [name for name, _, _ in json.loads((out / "manifest.json").read_text())["files"]]
    assert "sparseness.csv" in listed
    (out / "notes.txt").write_text("kept\n")  # not the run's: a rerun leaves it
    monkeypatch.setitem(experiments._RUNNERS, "sparseness", _fail_mid_run)
    assert main(["sparseness", "--config", path, "--out", str(out)]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["failed", "notes.txt"]
    assert sorted(p.name for p in (out / "failed").iterdir()) == ["manifest.json", "partial.csv"]
    assert json.loads((out / "failed" / "manifest.json").read_text())["status"] == "failed"


def test_cli_ok_rerun_removes_a_stale_failed_dir(tmp_path, monkeypatch):
    path, out = _sparseness_cli_config(tmp_path), tmp_path / "out"
    with monkeypatch.context() as patch:
        patch.setitem(experiments._RUNNERS, "sparseness", _fail_mid_run)
        assert main(["sparseness", "--config", path, "--out", str(out)]) == 3
    assert (out / "failed" / "partial.csv").exists()
    assert main(["sparseness", "--config", path, "--out", str(out)]) == 0
    assert not (out / "failed").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [name for name, _, _ in manifest["files"]] + ["manifest.json"])


def test_propagator_csv_layout(tmp_path):
    cfg = validate_config(
        {
            "kind": "propagator",
            "symbol": {"delta": 2},
            "times": [0.5, 1.0],
            "offsets": [[0, 0], [1, 0]],
        }
    )
    run_experiment(cfg, out_dir=str(tmp_path / "prop"))
    lines = (tmp_path / "prop" / "propagator.csv").read_text().strip().splitlines()
    assert lines[0] == "t,d1,d2,re,im,abs"
    assert len(lines) == 1 + 2 * 2


def test_sparse_set_text_artifact(tmp_path):
    cfg = validate_config(
        {
            "kind": "sparseness",
            "symbol": {"delta": 5},
            "sparse_set": {"generator": "deterministic_powers", "alpha": 0.25, "half_side": 8},
            "phi": [{"site": [0] * 5, "re": 1.0}],
            "t_max": 16.0,
        }
    )
    run_experiment(cfg, out_dir=str(tmp_path / "sp"))
    text = (tmp_path / "sp" / "sparse_set.txt").read_text()
    assert text.startswith("# alpha=0.25 generator=deterministic_powers seed=0 nu=5")
    profile = (tmp_path / "sp" / "profile.csv").read_text().splitlines()
    assert profile[0] == "volume,count,cap,passed"
    assert all(row.endswith("true") for row in profile[1:])


def _write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_norms_exit_zero(tmp_path, capsys):
    path = _write_config(
        tmp_path, {"kind": "norms", "symbol": {"delta": 1}, "s_grid": [0.5]}
    )
    code = main(["norms", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "norms.csv").exists()


def test_cli_rejects_bad_config(tmp_path, capsys):
    path = _write_config(tmp_path, {"kind": "norms", "symbol": {"delta": 1}, "s_grid": [2.0]})
    code = main(["norms", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "s_grid" in capsys.readouterr().err


def test_cli_kind_mismatch_rejected(tmp_path, capsys):
    path = _write_config(tmp_path, {"kind": "norms", "symbol": {"delta": 1}, "s_grid": [0.5]})
    assert main(["kernel", "--config", path, "--out", str(tmp_path / "out")]) == 2


def test_cli_verdict_failure_exit_one(tmp_path, capsys):
    raw = {
        "kind": "simon_wolff",
        "seed": 11,
        "symbol": {"delta": 1},
        "volume": {"center": [0], "half_side": 30},
        "sparse_set": {"generator": "full_cube", "alpha": 0.5},
        "disorder": {"law": "uniform", "params": [-1.0, 1.0], "lambda": 30.0},
        "query": {"energy": 5.0, "epsilon": 0.1, "s": 0.5, "source": [0], "realizations": 10},
        "eps_ladder": [1e-1, 1e-2, 1e-3],
        "expect": "ac",  # localized run cannot sustain a.c. growth
    }
    path = _write_config(tmp_path, raw)
    code = main(["simon_wolff", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_seed_override_changes_artifacts(tmp_path):
    raw = _moments_raw()
    raw.pop("seed")
    path = _write_config(tmp_path, raw)
    assert main(["moments", "--config", path, "--seed", "1", "--out", str(tmp_path / "s1")]) == 0
    assert main(["moments", "--config", path, "--seed", "2", "--out", str(tmp_path / "s2")]) == 0
    assert main(["moments", "--config", path, "--seed", "1", "--out", str(tmp_path / "s1b")]) == 0
    a = (tmp_path / "s1" / "moments.csv").read_bytes()
    b = (tmp_path / "s2" / "moments.csv").read_bytes()
    c = (tmp_path / "s1b" / "moments.csv").read_bytes()
    assert a != b
    assert a == c


def test_cli_verify_subset(tmp_path, capsys):
    code = main(["verify", "--criteria", "1,2,3", "--out", str(tmp_path / "verify")])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS criterion  1" in out
    assert "PASS criterion  2" in out
    assert "PASS criterion  3" in out


def test_theorem2_pipeline_summary(tmp_path):
    raw = {
        "kind": "theorem2_cube",
        "symbol": {"delta": 1},
        "sparse_set": {
            "generator": "explicit_list",
            "alpha": 0.5,
            "sites": [[i] for i in range(-10, 11)],
        },
        "center": [0],
        "s": 0.5,
        "gamma": 1.0,
        "kappa_hat": 1.0,
    }
    cfg = validate_config(raw)
    run_experiment(cfg, out_dir=str(tmp_path / "t2"))
    summary = json.loads((tmp_path / "t2" / "summary.json").read_text())
    assert summary["radius"] == 3
    assert summary["threshold"] == pytest.approx(2.0)


def test_thresholds_pipeline(tmp_path):
    raw = {
        "kind": "thresholds",
        "symbol": {"delta": 1},
        "disorder": {"law": "uniform", "params": [-1.0, 1.0], "lambda": 30.0},
        "s_grid": [0.5],
        "energies": [5.0],
    }
    cfg = validate_config(raw)
    manifest = run_experiment(cfg, out_dir=str(tmp_path / "thr"))
    assert manifest.verdicts["interior_minimizer"]
    rows = (tmp_path / "thr" / "thresholds.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    values = dict(zip(header, rows[1].split(",")))
    assert float(values["h0_norm_s"]) == pytest.approx(4.0)
    assert float(values["lambda_threshold"]) == pytest.approx(
        (2.0 / float(values["kappa_hat"])) ** 2, rel=1e-12
    )


def test_thresholds_zero_coupling_writes_infinite_k_s(tmp_path):
    # C_on = 0 at lambda = 0 and C_off = 0 at E = 0: k_s is inf there, not an error
    raw = {
        "kind": "thresholds",
        "symbol": {"delta": 1},
        "disorder": {"law": "uniform", "params": [-1.0, 1.0], "lambda": 0.0},
        "s_grid": [0.5],
        "energies": [0.0, 4.0],
    }
    run_experiment(validate_config(raw), out_dir=str(tmp_path / "thr"))
    lines = (tmp_path / "thr" / "ks.csv").read_text().splitlines()
    assert lines == [
        "s,E,C_on,C_off,k_s_on,k_s_off,k_s_mixed",
        "0.5,0,0,0,inf,inf,inf",
        "0.5,4,0,2,inf,1,inf",  # ||H0||_s^s = 2 for the 1D Laplacian at s = 1/2
    ]


def test_validate_is_total_on_malformed_input():
    for garbage in ("{not json", "[1,2,3]", '"just a string"'):
        with pytest.raises(ConfigError):
            validate_config(garbage)
    with pytest.raises(ConfigError):
        validate_config({"kind": "no_such_kind"})
    with pytest.raises(ConfigError):
        validate_config({})


def test_moments_validation_echoes_threshold(tmp_path):
    cfg = validate_config(_moments_raw())
    # the Neumann-series energy threshold ||H0||_s, and no decoupling estimate
    assert cfg.derived["h0_norm_s"] == pytest.approx(4.0)
    assert set(cfg.derived) == {"h0_norm_s"}


def test_simon_wolff_verdict_recomputable_from_csv(tmp_path):
    raw = {
        "kind": "simon_wolff",
        "seed": 11,
        "symbol": {"delta": 1},
        "volume": {"center": [0], "half_side": 30},
        "sparse_set": {"generator": "full_cube", "alpha": 0.5},
        "disorder": {"law": "uniform", "params": [-1.0, 1.0], "lambda": 30.0},
        "query": {"energy": 5.0, "epsilon": 0.1, "s": 0.5, "source": [0], "realizations": 10},
        "eps_ladder": [1e-1, 1e-2, 1e-3],
        "expect": "pp",
    }
    manifest = run_experiment(validate_config(raw), out_dir=str(tmp_path / "sw"))
    lines = (tmp_path / "sw" / "simon_wolff.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    cols = {name: i for i, name in enumerate(header)}
    means = [float(row.split(",")[cols["mean_sum_G2"]]) for row in lines[1:]]
    ratios = [b / a for a, b in zip(means, means[1:])]
    stored = [float(row.split(",")[cols["trend_ratio"]]) for row in lines[2:]]
    for got, expect in zip(stored, ratios):
        assert got == pytest.approx(expect, rel=1e-12)
    assert manifest.verdicts["pp_trend"] == (ratios[-1] <= 1.2)


def test_kernel_pipeline_exports_hoppings(tmp_path):
    cfg = validate_config(
        {"kind": "kernel", "symbol": {"axes": [[{"k": 1, "c": 1.0}, {"k": 2, "c": 0.5}]]},
         "s_grid": [0.5]}
    )
    run_experiment(cfg, out_dir=str(tmp_path / "k"))
    lines = (tmp_path / "k" / "kernel.csv").read_text().strip().splitlines()
    assert lines[0] == "d1,amplitude"
    entries = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert entries == {-2: 0.5, -1: 1.0, 1: 1.0, 2: 0.5}
    norm_line = (tmp_path / "k" / "norms.csv").read_text().strip().splitlines()[1]
    assert float(norm_line.split(",")[1]) == pytest.approx((2 + 2 * 0.5 ** 0.5) ** 2)
    # 2D, harmonics out of order and a zero coefficient (no hopping): the
    # rows are the symbol's hopping, sorted by offset
    cfg = validate_config(
        {"kind": "kernel", "s_grid": [0.5, 1.0],
         "symbol": {"axes": [[{"k": 2, "c": -0.25}, {"k": 1, "c": 1.0}, {"k": 3, "c": 0.0}],
                             [{"k": 1, "c": 0.5}]]}}
    )
    run_experiment(cfg, out_dir=str(tmp_path / "k2"))
    assert (tmp_path / "k2" / "kernel.csv").read_bytes() == (
        b"d1,d2,amplitude\n-2,0,-0.25\n-1,0,1\n0,-1,0.5\n0,1,0.5\n1,0,1\n2,0,-0.25\n"
    )
    assert (tmp_path / "k2" / "norms.csv").read_bytes() == b"s,norm\n0.5,19.485281374238568\n1,3.5\n"


def test_decay_check_pipeline_cosine_and_sampled(tmp_path):
    cfg = validate_config(
        {"kind": "decay_check", "symbol": {"delta": 1}, "offsets": [0, 1, 2, 3]}
    )
    manifest = run_experiment(cfg, out_dir=str(tmp_path / "dc"))
    assert manifest.verdicts["coefficient_bound"]
    cfg2 = validate_config(
        {"kind": "decay_check",
         "sampled_symbol": {"name": "periodized_gaussian", "width": 0.6},
         "offsets": list(range(0, 9))}
    )
    manifest2 = run_experiment(cfg2, out_dir=str(tmp_path / "dc2"))
    assert manifest2.verdicts["coefficient_bound"]


def test_cook_pipeline_median_below_bound(tmp_path):
    cfg = validate_config(
        {
            "kind": "cook",
            "seed": 3,
            "symbol": {"delta": 1},
            "sparse_set": {
                "generator": "explicit_list", "alpha": 0.5,
                "sites": [[i] for i in range(-8, 9, 2)],
            },
            "disorder": {"law": "uniform", "params": [-1.0, 1.0], "lambda": 2.0},
            "phi": [{"site": [0], "re": 1.0}],
            "t_grid": [0.5, 1.0, 2.0],
            "n_samples": 60,
        }
    )
    manifest = run_experiment(cfg, out_dir=str(tmp_path / "cook"))
    assert manifest.verdicts["median_below_bound"]
    lines = (tmp_path / "cook" / "cook.csv").read_text().strip().splitlines()
    assert lines[0] == "t,bound,q10,q50,q90,mc_mean_sq"
    assert len(lines) == 4


def test_moments_am_bound_checks_only_the_sites_of_s(tmp_path):
    # inside the band the free sites carry E|G|^s above the AM bound; the
    # verdict must look at the random sites of S alone
    raw = _moments_raw(
        sparse_set={"generator": "explicit_list", "alpha": 0.5, "sites": [[15], [-12], [18]]},
        disorder={"law": "uniform", "params": [-1.0, 1.0], "lambda": 30.0},
        query={"energy": 0.5, "epsilon": 1e-3, "s": 0.5, "source": [0], "realizations": 20},
        check_am_bound=True,
    )
    cfg = validate_config(raw)
    manifest = run_experiment(cfg, out_dir=str(tmp_path / "am"))
    assert manifest.verdicts["am_bound"]
    bound = json.loads((tmp_path / "am" / "summary.json").read_text())["am_bound"]
    rows = (tmp_path / "am" / "moments.csv").read_text().strip().splitlines()[1:]
    assert max(float(r.split(",")[5]) for r in rows) > bound  # off S the bound fails


def _outside_site_raw():
    return _moments_raw(
        sparse_set={"generator": "explicit_list", "alpha": 0.5, "sites": [[3], [25], [-21]]}
    )


def test_validate_rejects_explicit_sites_outside_the_volume():
    with pytest.raises(ConfigError) as err:
        validate_config(_outside_site_raw())
    fields = [f for f, _ in err.value.violations]
    assert fields == ["sparse_set.sites[1]", "sparse_set.sites[2]"]


def test_cli_outside_site_exits_two_without_traceback(tmp_path, capsys):
    path = _write_config(tmp_path, _outside_site_raw())
    code = main(["moments", "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "sparse_set.sites[1]" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _degenerate_gaussian_raw():
    return _moments_raw(
        kind="decay_fit", disorder={"law": "gaussian", "params": [0, 0], "lambda": 20.0}
    )


def test_validate_rejects_degenerate_gaussian():
    with pytest.raises(ConfigError) as err:
        validate_config(_degenerate_gaussian_raw())
    assert [f for f, _ in err.value.violations] == ["disorder"]
    assert "sd > 0" in err.value.violations[0][1]


def test_cli_degenerate_gaussian_exits_two_before_running(tmp_path, capsys):
    path = _write_config(tmp_path, _degenerate_gaussian_raw())
    code = main(["decay_fit", "--config", path, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "disorder: gaussian law requires sd > 0" in captured.err
    assert "derived" not in captured.out
    assert not (tmp_path / "out").exists()


def _raise_key_error(cfg, stage, threads):
    raise KeyError("no such column")


def test_cli_unexpected_exception_exits_four(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(experiments._RUNNERS, "norms", _raise_key_error)
    path = _write_config(tmp_path, {"kind": "norms", "symbol": {"delta": 1}, "s_grid": [0.5]})
    code = main(["norms", "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 4
    assert err == "internal error: KeyError: 'no such column'\n"
    manifest = json.loads((tmp_path / "out" / "failed" / "manifest.json").read_text())
    assert manifest["failure"].startswith("KeyError")


def test_cli_verify_unexpected_exception_exits_four(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(experiments._RUNNERS, "moments", _raise_key_error)
    code = main(["verify", "--criteria", "8", "--out", str(tmp_path / "verify")])
    err = capsys.readouterr().err
    assert code == 4
    assert "internal error: KeyError" in err
    assert "Traceback" not in err
    manifest = json.loads((tmp_path / "verify" / "moments_E3" / "failed" / "manifest.json")
                          .read_text())
    assert manifest["failure"].startswith("KeyError")


@pytest.mark.parametrize("sparse_set, site", [
    ({"generator": "full_cube", "alpha": 0.5, "half_side": 9}, "[-9]"),
    ({"generator": "full_cube", "alpha": 0.5, "center": [100]}, "[96]"),
    ({"generator": "deterministic_powers", "alpha": 0.5, "half_side": 50}, "[-16]"),
    ({"generator": "bernoulli_thinned", "alpha": 0.5, "half_side": 50}, "[-50]"),
])
def test_cli_generated_set_outside_the_volume_exits_two(tmp_path, capsys, sparse_set, site):
    raw = _moments_raw(volume={"center": [0], "half_side": 4}, sparse_set=sparse_set)
    path = _write_config(tmp_path, raw)
    code = main(["moments", "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"sparse_set: site {site} lies outside the volume" in err
    assert not (tmp_path / "out").exists()


def test_cli_oversized_full_cube_is_a_config_error(tmp_path, capsys):
    # 141^3 = 2,803,221 sites: over the enumeration guard, refused before enumerating
    raw = _moments_raw(symbol={"delta": 3}, volume={"center": [0, 0, 0], "half_side": 70})
    raw["query"]["source"] = [0, 0, 0]
    path = _write_config(tmp_path, raw)
    code = main(["moments", "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "sparse_set: refusing to enumerate 2803221 sites" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_am_check_at_lambda_zero_is_rejected_before_running(tmp_path, capsys):
    # the AM bound diverges at lambda = 0: nothing to check, so nothing is run
    raw = _moments_raw(check_am_bound=True)
    raw["disorder"]["lambda"] = 0.0
    raw["query"]["realizations"] = 4
    path = _write_config(tmp_path, raw)
    code = main(["moments", "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "config rejected:" in err
    assert "disorder.lambda: must be > 0 when check_am_bound is true" in err
    assert not (tmp_path / "out").exists()
    raw["check_am_bound"] = False  # the moments alone are well defined at lambda = 0
    validate_config(raw)


def test_cli_edge_scan_without_a_measurable_contrast_fails_its_verdict(tmp_path, capsys):
    # every eigenvalue lies in [3, 8]: no populated bin contains E = 0
    raw = {
        "kind": "edge_scan",
        "symbol": {"delta": 1},
        "volume": {"center": [0], "half_side": 30},
        "sparse_set": {"generator": "full_cube", "alpha": 0.5},
        "disorder": {"law": "uniform", "params": [5.0, 6.0], "lambda": 1.0},
        "realizations": 20,
        "s": 0.5,
        "contrast": {"offset": 1.0, "min_ratio": 2.0},
    }
    path = _write_config(tmp_path, raw)
    code = main(["edge_scan", "--config", path, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert "verdict ipr_contrast: FAIL" in captured.out
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["verdicts"] == {"ipr_contrast": False}
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["center_median"] is None and summary["contrast"] is None
    assert summary["outer_median"] > 0
    assert not (tmp_path / "out" / "failed").exists()


def test_full_cube_sets_carry_their_generator(tmp_path):
    raw = {
        "kind": "sparseness",
        "symbol": {"delta": 5},
        "sparse_set": {"generator": "full_cube", "alpha": 0.25, "half_side": 0},
        "phi": [{"site": [0] * 5, "re": 1.0}],
        "t_max": 16.0,
    }
    run_experiment(validate_config(raw), out_dir=str(tmp_path / "one"))
    head = (tmp_path / "one" / "sparse_set.txt").read_text().splitlines()[0]
    assert head == "# alpha=0.25 generator=full_cube seed=0 nu=5"
    raw["sparse_set"]["half_side"] = 1  # all 3^5 sites: far over the cap 4 at alpha 0.25
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.violations == [
        ("sparse_set", "set too dense for alpha=0.25: |S n Lambda|=243 > cap 4 at volume 243")
    ]


@pytest.mark.parametrize("offsets", ["abc", True, {}])
def test_validate_rejects_non_list_propagator_offsets(offsets):
    raw = {"kind": "propagator", "symbol": {"delta": 1}, "times": [1.0], "offsets": offsets}
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.violations == [("offsets", "missing offsets list")]


def _fail_with(name):
    def runner(cfg, stage, threads):
        (stage / name).write_text("t,c_t\n")
        raise NumericalError("window quadrature did not settle")
    return runner


def test_second_failed_run_replaces_the_failed_dir(tmp_path, monkeypatch):
    path, out = _sparseness_cli_config(tmp_path), tmp_path / "out"
    monkeypatch.setitem(experiments._RUNNERS, "sparseness", _fail_with("first_partial.csv"))
    assert main(["sparseness", "--config", path, "--out", str(out)]) == 3
    monkeypatch.setitem(experiments._RUNNERS, "sparseness", _fail_with("second_partial.csv"))
    assert main(["sparseness", "--config", path, "--out", str(out)]) == 3
    assert sorted(p.name for p in (out / "failed").iterdir()) == [
        "manifest.json", "second_partial.csv"]


def test_validate_rejects_non_finite_numbers():
    raw = _moments_raw()
    raw["query"]["s"] = float("nan")  # used to escape validation as a ValueError
    raw["query"]["epsilon"] = float("inf")
    raw["disorder"]["params"] = [float("-inf"), 1.0]
    with pytest.raises(ConfigError) as err:
        validate_config(json.dumps(raw))
    assert sorted(err.value.violations) == [
        ("disorder.params", "must be a list of two numbers"),
        ("query.epsilon", "must be a number"),
        ("query.s", "must be a number"),
    ]


def _theorem2_raw(sparse_set):
    return {"kind": "theorem2_cube", "symbol": {"delta": 1}, "sparse_set": sparse_set,
            "center": [0], "s": 0.5, "gamma": 1.0, "kappa_hat": 0.5}


@pytest.mark.parametrize("raw, violation", [
    # a coordinate JSON holds and int64 does not
    (_theorem2_raw({"generator": "explicit_list", "alpha": 0.5,
                    "sites": [[1180591620717411303424]]}),
     "sparse_set.sites[0]: coordinates must lie strictly between -2^62 and 2^62"),
    (_theorem2_raw({"generator": "bernoulli_thinned", "alpha": 0.5,
                    "center": [2 ** 63 - 2], "half_side": 3}),
     "sparse_set.center: coordinates must lie strictly between -2^62 and 2^62"),
    # a center in range whose cube reaches past it
    (_theorem2_raw({"generator": "bernoulli_thinned", "alpha": 0.5,
                    "center": [2 ** 62 - 2], "half_side": 3}),
     "sparse_set: cube [4611686018427387902] +/- 3 reaches |coordinate| >= 2^62"),
    (_moments_raw(volume={"center": [0], "half_side": 2 ** 62}),
     "volume: cube [0] +/- 4611686018427387904 reaches |coordinate| >= 2^62"),
])
def test_cli_coordinates_past_int64_exit_two(tmp_path, capsys, raw, violation):
    path = _write_config(tmp_path, raw)
    code = main([raw["kind"], "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert violation in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_validate_keeps_the_largest_cube_below_the_coordinate_limit():
    cfg = validate_config(_theorem2_raw({"generator": "full_cube", "alpha": 0.5,
                                         "center": [2 ** 62 - 4], "half_side": 3}))
    assert cfg.objects["sparse"].coords.ravel().tolist() == list(range(2 ** 62 - 7, 2 ** 62))


@pytest.mark.parametrize("criteria, named", [("14", "14"), ("7,14,0", "0, 14")])
def test_cli_verify_rejects_unknown_criteria(tmp_path, capsys, criteria, named):
    code = main(["verify", "--criteria", criteria, "--out", str(tmp_path / "verify")])
    captured = capsys.readouterr()
    assert code == 2
    assert f"unknown criteria {named}" in captured.err
    assert captured.out == ""  # nothing ran, criterion 7 included
    assert not (tmp_path / "verify").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_verify_rejects_a_thread_count_below_one(tmp_path, capsys, threads):
    code = main(["verify", "--criteria", "7", "--threads", threads,
                 "--out", str(tmp_path / "verify")])
    captured = capsys.readouterr()
    assert code == 2
    assert f"verify: --threads: must be >= 1, got {threads}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "verify").exists()


@pytest.mark.parametrize("value", ["abc", "0"])
def test_cli_verify_rejects_a_bad_threads_environment(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("SPARSELOC_THREADS", value)
    code = main(["verify", "--criteria", "7", "--out", str(tmp_path / "verify")])
    captured = capsys.readouterr()
    assert code == 2
    assert f"verify: SPARSELOC_THREADS: must be an integer >= 1, got '{value}'" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "verify").exists()


@pytest.mark.parametrize("value", ["abc", "0"])
def test_cli_kind_rejects_a_bad_threads_environment(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("SPARSELOC_THREADS", value)
    path = _write_config(tmp_path, {"kind": "norms", "symbol": {"delta": 1}, "s_grid": [0.5]})
    code = main(["norms", "--config", path, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert f"SPARSELOC_THREADS: must be an integer >= 1, got '{value}'" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fail", [False, True], ids=["passed", "failed"])
def test_cli_verify_without_out_leaves_no_temp_dir(tmp_path, monkeypatch, fail):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr("tempfile.tempdir", str(scratch))
    if fail:
        monkeypatch.setitem(experiments._RUNNERS, "sparseness", _raise_key_error)
    assert main(["verify", "--criteria", "7"]) == (4 if fail else 0)
    assert list(scratch.iterdir()) == []


def _decay_fit_raw(**overrides):
    return _moments_raw(kind="decay_fit", kappa_hat=0.61, **overrides)


@pytest.mark.parametrize("raw, field", [
    (_decay_fit_raw(disorder={"law": "uniform", "params": [-1.0, 1.0], "lambda": 0.0},
                    volume={"center": [0], "half_side": 20}), "disorder.lambda"),
    (_decay_fit_raw(query={"energy": 0.0, "epsilon": 1e-3, "s": 0.5, "source": [0],
                           "realizations": 2},
                    sparse_set={"generator": "bernoulli_thinned", "alpha": 0.5}),
     "query.energy"),
], ids=["zero-lambda-on-S", "zero-energy-off-S"])
def test_cli_decay_fit_without_finite_k_s_exits_two_before_running(tmp_path, capsys, raw, field):
    path = _write_config(tmp_path, raw)
    code = main(["decay_fit", "--config", path, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert f"{field}: must be" in captured.err
    assert "derived" not in captured.out
    assert not (tmp_path / "out").exists()


def test_decay_fit_zero_lambda_or_energy_where_k_s_does_not_read_it_is_valid():
    # an empty S needs no lambda; an S filling the volume needs no energy
    empty = {"generator": "explicit_list", "alpha": 0.5, "sites": []}
    validate_config(_decay_fit_raw(
        sparse_set=empty, disorder={"law": "uniform", "params": [-1.0, 1.0], "lambda": 0.0}))
    validate_config(_decay_fit_raw(
        query={"energy": 0.0, "epsilon": 1e-3, "s": 0.5, "source": [0], "realizations": 2}))
