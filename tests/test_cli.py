"""Command-line interface: exit codes, reports, determinism, config."""

import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import bonnesen
from bonnesen import (AngleVector, PolygonKind, PolygonModel, cli, errors, evaluate, extremal_search,
                      reporting, verification)


def run(argv):
    return cli.main(argv)


def run_module(*argv):
    """``python -m bonnesen.cli`` in a child that imports this checkout's package."""
    src = str(Path(bonnesen.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "bonnesen.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


class TestCatalogCommand:
    def test_default_listing(self, capsys):
        assert run(["catalog"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("20 entries")
        assert out.count("\n") == 21

    def test_cyclic_filter(self, capsys):
        assert run(["catalog", "--kinds", "cyclic"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("4 entries")
        for entry_id in ("BASIC", "ZHANG97", "T52", "T53"):
            assert entry_id in out

    def test_tangential_filter(self, capsys):
        assert run(["catalog", "--kinds", "tangential"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("17 entries")
        assert "BASIC" in out and "ZHANG97" not in out

    def test_json_listing(self, capsys):
        assert run(["catalog", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["entries"]) == 20
        assert data["entries"][0]["id"] == "BASIC"

    @pytest.mark.parametrize("fmt", ["yaml", 5])
    def test_config_format_it_cannot_write_is_usage_error(self, fmt, tmp_path, capsys):
        """No subcommand writes it."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"format": fmt}))
        assert run(["catalog", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert "config key 'format'" in captured.err and not captured.out

    def test_config_format_of_another_subcommand_is_ignored(self, tmp_path, capsys):
        """The sweeps write csv and catalog does not: it writes its default, text."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"format": "csv"}))
        assert run(["catalog", "--config", str(path)]) == 0
        from_file = capsys.readouterr().out
        assert run(["catalog"]) == 0
        assert from_file == capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_config_format_json_or_text(self, fmt, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"format": fmt}))
        assert run(["catalog", "--config", str(path)]) == 0
        from_file = capsys.readouterr().out
        assert run(["catalog", "--format", fmt]) == 0
        assert from_file == capsys.readouterr().out

    def test_config_out_is_written(self, tmp_path, capsys):
        path, listing = tmp_path / "cfg.json", tmp_path / "catalog.txt"
        path.write_text(json.dumps({"out": str(listing)}))
        assert run(["catalog", "--config", str(path)]) == 0
        assert not capsys.readouterr().out
        assert listing.read_text().startswith("20 entries")


class TestVerifyCommand:
    def test_small_sweep_passes(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = run(["verify", "--n", "3", "4", "--samples", "200",
                    "--seed", "11", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "bonnesen-report/1"
        assert doc["provenance"]["seed"] == 11
        assert doc["provenance"]["determinism_hash"]
        assert all(row["violations"] == 0 for row in doc["results"])

    def test_determinism_hash_stable_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["verify", "--n", "3", "--samples", "150", "--seed", "5",
             "--out", str(a)])
        run(["verify", "--n", "3", "--samples", "150", "--seed", "5",
             "--out", str(b)])
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        assert (da["provenance"]["determinism_hash"]
                == db["provenance"]["determinism_hash"])
        da["provenance"].pop("timestamp")
        db["provenance"].pop("timestamp")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    def test_different_seed_changes_hash(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["verify", "--n", "3", "--samples", "100", "--seed", "1", "--out", str(a)])
        run(["verify", "--n", "3", "--samples", "100", "--seed", "2", "--out", str(b)])
        ha = json.loads(a.read_text())["provenance"]["determinism_hash"]
        hb = json.loads(b.read_text())["provenance"]["determinism_hash"]
        assert ha != hb

    def test_fault_injection_exits_one(self, capsys):
        code = run(["verify", "--n", "3", "--samples", "200", "--inject-fault"])
        assert code == 1

    def test_high_precision_mode(self, capsys):
        assert run(["verify", "--n", "3", "--samples", "100",
                    "--precision", "high"]) == 0

    def test_high_precision_confirms_real_violations(self, capsys):
        # exact re-adjudication must drop cancellation noise, not real faults
        code = run(["verify", "--n", "3", "--samples", "200",
                    "--precision", "high", "--inject-fault"])
        assert code == 1

    def test_empty_n_is_usage_error(self, capsys):
        assert run(["verify", "--n"]) == 2

    def test_zero_samples_is_usage_error(self, capsys):
        assert run(["verify", "--samples", "0"]) == 2

    def test_bad_n_is_usage_error(self, capsys):
        assert run(["verify", "--n", "2"]) == 2

    @pytest.mark.parametrize("command", [
        ["verify", "--samples", "10"],
        ["search", "--kinds", "cyclic", "--starts", "1"],
    ])
    def test_infeasible_margin_is_usage_error(self, command, capsys):
        assert run(command + ["--n", "8", "--margin", "0.45"]) == 2
        assert "margin infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("powers", [["--alpha", "35", "--k", "3"],
                                        ["--alpha", "60", "--k", "10"]])
    def test_overflowing_cell_is_usage_error(self, powers, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert run(["verify", "--n", "3", "--samples", "20000", "--kinds", "tangential",
                    "--out", str(out)] + powers) == 2
        err = capsys.readouterr().err
        assert f"(tangential, n=3, alpha={powers[1]}, k=" in err
        assert "overflow" in err and not out.exists()

    def test_overflowing_cell_prints_only_the_error(self, tmp_path):
        """numpy's overflow warning does not reach the terminal."""
        out = tmp_path / "rep.json"
        proc = run_module("verify", "--n", "3", "--alpha", "35", "--k", "3",
                          "--samples", "20000", "--kinds", "tangential", "--out", str(out))
        assert proc.returncode == 2 and not out.exists()
        assert proc.stderr.splitlines() == [
            "error: T31A (tangential, n=3, alpha=35, k=None): "
            "the sides overflow the float range"]

    def test_csv_output_columns(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        run(["verify", "--n", "3", "--samples", "100", "--format", "csv",
             "--out", str(out)])
        header, *rows = out.read_text().splitlines()
        assert header == "entry_id,kind,n,R,alpha,k,lhs,rhs,slack,equality"
        # BASIC is a tangential and a cyclic entry; the kind tells its rows apart.
        assert sorted(r.split(",")[1] for r in rows if r.startswith("BASIC,")) == [
            "cyclic", "tangential"]

    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "3", "--samples", "120"],
        ["certify", "--n", "3", "--alpha", "1", "--k", "2", "--samples", "300"],
        ["search", "--n", "3"],
    ])
    def test_reports_validate_against_published_schema(self, argv, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert run(argv + ["--out", str(out)]) == 0
        reporting.validate_report(json.loads(out.read_text()))


class TestCertifyCommand:
    def test_small_grid_passes(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = run(["certify", "--n", "3", "4", "--alpha", "1", "--k", "2",
                    "--samples", "400", "--seed", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        rows = doc["results"]
        assert any(r["function"] == "power_gap" and r["verdict"] == "schur_convex"
                   for r in rows)
        assert any(r["function"] == "power_gap_reverse"
                   and r["verdict"] == "schur_concave" for r in rows)
        probe = [r for r in rows if r["function"] == "probe"]
        assert probe and probe[0]["verdict"] == "indeterminate"
        assert probe[0]["informational"]

    @pytest.mark.parametrize("alpha", ["10", "15", "20", "30"])
    def test_large_alpha_at_k_2_passes(self, alpha, tmp_path, capsys):
        """The reverse gap stays Schur-concave above its noise floor."""
        out = tmp_path / "cert.json"
        assert run(["certify", "--n", "3", "--alpha", alpha, "--k", "2",
                    "--samples", "200", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["results"]
        assert len(rows) == 5 and all(r["matches"] for r in rows)
        assert "5 classifications, 0 mismatch(es)" in capsys.readouterr().out

    def test_zero_samples_usage_error(self, capsys):
        assert run(["certify", "--samples", "0"]) == 2

    @pytest.mark.parametrize("flag", ["--margin", "--tolerance"])
    def test_unused_flag_is_usage_error(self, flag, capsys):
        assert run(["certify", "--n", "3", "--samples", "50", flag, "0.1"]) == 2
        assert flag in capsys.readouterr().err

    def test_precision_flag_is_usage_error(self, capsys):
        assert run(["certify", "--n", "3", "--samples", "50", "--precision", "high"]) == 2
        assert "--precision" in capsys.readouterr().err

    def test_kinds_flag_is_usage_error(self, capsys):
        """certify classifies power gaps, which take no polygon kind."""
        assert run(["certify", "--n", "3", "--samples", "50", "--kinds", "cyclic"]) == 2
        assert "--kinds" in capsys.readouterr().err

    def test_overflow_prints_only_the_error(self, tmp_path):
        """No numpy warnings, and no mismatches counted from overflowed values."""
        out = tmp_path / "cert.json"
        proc = run_module("certify", "--n", "3", "--alpha", "60", "--k", "2",
                          "--samples", "500", "--out", str(out))
        assert proc.returncode == 2 and not out.exists()
        assert proc.stderr.splitlines() == ["error: power_gap[tan, alpha=60, n=3]: "
                                            "the Schur condition values leave the float range"]


class TestSearchCommand:
    def test_zero_starts_usage_error(self, capsys):
        assert run(["search", "--starts", "0"]) == 2

    def test_starts_past_the_cap_is_usage_error(self):
        proc = run_module("search", "--n", "3", "--starts",
                          str(extremal_search.MAX_STARTS + 1))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"error: config key 'starts': {extremal_search.MAX_STARTS + 1} "
            f"is greater than the maximum of {extremal_search.MAX_STARTS}"]

    def test_records_the_one_alpha_and_k_it_runs(self, tmp_path, capsys):
        out = tmp_path / "search.json"
        assert run(["search", "--n", "3", "--kinds", "cyclic", "--starts", "1",
                    "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert (config["alpha"], config["k"]) == ([1], [2])

    @pytest.mark.parametrize("argv, file_cfg, key", [
        (["--alpha", "1", "2", "3"], None, "alpha"),
        (["--k", "2", "3"], None, "k"),
        ([], {"alpha": [1, 2]}, "alpha"),
        ([], {"k": [2, 3]}, "k"),
    ])
    def test_more_than_one_alpha_or_k_is_usage_error(self, argv, file_cfg, key,
                                                      tmp_path, capsys):
        if file_cfg is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(file_cfg))
            argv = argv + ["--config", str(path)]
        out = tmp_path / "search.json"
        argv = ["search", "--n", "3", "--kinds", "tangential", "--starts", "2",
                "--out", str(out)] + argv
        assert run(argv) == 2 and not out.exists()
        assert f"config key {key!r}: search runs one value" in capsys.readouterr().err

    def test_unused_flag_is_usage_error(self, capsys):
        argv = ["search", "--n", "3", "--kinds", "cyclic", "--starts", "1"]
        assert run(argv + ["--tolerance", "1e-9"]) == 2
        assert "--tolerance" in capsys.readouterr().err

    def test_precision_flag_is_usage_error(self, capsys):
        argv = ["search", "--n", "3", "--kinds", "cyclic", "--starts", "1"]
        assert run(argv + ["--precision", "high"]) == 2
        assert "--precision" in capsys.readouterr().err

    @pytest.mark.parametrize("powers", [["--alpha", "200"], ["--alpha", "120", "--k", "9"]])
    def test_overflowing_case_prints_only_the_error(self, powers, tmp_path):
        """No descent of T31A ends at a finite slack: exit 2, not a traceback."""
        out = tmp_path / "search.json"
        proc = run_module("search", "--n", "3", "--starts", "2", "--out", str(out), *powers)
        assert proc.returncode == 2 and not out.exists()
        assert proc.stderr.splitlines() == [
            f"error: T31A (tangential, n=3, alpha={powers[1]}, k=None): "
            "the sides overflow the float range"]

    def test_margin_reaches_the_search(self, tmp_path, capsys):
        out = tmp_path / "search.json"
        code = run(["search", "--n", "3", "--kinds", "cyclic", "--starts", "1",
                    "--margin", "0.1", "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())["results"]
        assert rows and all(r["grid_step"] == pytest.approx((math.pi - 0.3) / 100)
                            for r in rows)

    def test_small_search_passes(self, tmp_path, capsys):
        out = tmp_path / "search.json"
        code = run(["search", "--n", "3", "--seed", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(not row["anomaly"] for row in doc["results"])
        grid_rows = [r for r in doc["results"] if "grid_min_slack" in r]
        assert grid_rows and all(r["grid_min_slack"] >= -1e-10 for r in grid_rows)


    def test_cancellation_at_large_powers_is_no_anomaly(self, tmp_path, capsys, monkeypatch):
        """T41A and T42A at k = 9 end a few 1e-15 of their term scale below zero.

        Next to the regular triangle these slacks are rounding noise of
        either sign, so both searches are handed such a point as their best:
        one angle 6e-16 below pi / 3.
        """
        near = AngleVector(values=(math.pi / 3, math.pi / 3 - 6e-16, math.pi / 3),
                           total=math.pi)
        real = extremal_search.minimize_slack

        def patched(entry, n, alpha=None, k=None, kind=None, **kwargs):
            res = real(entry, n, alpha=alpha, k=k, kind=kind, **kwargs)
            if entry.id not in ("T41A", "T42A") or kind != PolygonKind.TANGENTIAL:
                return res
            slack = evaluate(entry, PolygonModel(kind, 1.0, near), alpha, k).slack
            return replace(res, best_angles=near, best_slack=slack, distance_to_regular=6e-16)

        monkeypatch.setattr(extremal_search, "minimize_slack", patched)
        out = tmp_path / "search.json"
        assert run(["search", "--n", "3", "--k", "9", "--starts", "2", "--out", str(out)]) == 0
        rows = {r["entry_id"]: r for r in json.loads(out.read_text())["results"]
                if r["kind"] == "tangential"}
        # Both lie below the absolute slack tolerance 1e-8 and still pass.
        assert rows["T41A"]["best_slack"] < -1e-8 and not rows["T41A"]["anomaly"]
        assert rows["T42A"]["best_slack"] < -1e-8 and not rows["T42A"]["anomaly"]

    @pytest.mark.parametrize("relative", [-1e-6, 1e-5])
    def test_relative_miss_is_still_an_anomaly(self, relative, monkeypatch):
        """A best slack of -1e-6 (or +1e-5) times the term scale is an anomaly."""
        real = extremal_search.minimize_slack

        def patched(entry, n, alpha=None, k=None, kind=None, **kwargs):
            res = real(entry, n, alpha=alpha, k=k, kind=kind, **kwargs)
            poly = PolygonModel(kind, 1.0, res.best_angles)
            scale = evaluate(entry, poly, alpha, k).scale
            return replace(res, best_slack=relative * scale)

        monkeypatch.setattr(extremal_search, "minimize_slack", patched)
        monkeypatch.setattr(verification, "GRID_N_MAX", 0)
        rows, anomalies = verification.search_sweep(n_set=(3,), alpha=1, k=9, starts=2)
        assert anomalies == len(rows) and all(r["anomaly"] for r in rows)


class TestReportCommand:
    def test_summary_consistent(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        run(["verify", "--n", "3", "--samples", "100", "--out", str(rep)])
        capsys.readouterr()
        assert run(["report", str(rep)]) == 0
        out = capsys.readouterr().out
        assert "consistent" in out

    def test_csv_conversion(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        conv = tmp_path / "rep.csv"
        run(["verify", "--n", "3", "--samples", "100", "--out", str(rep)])
        assert run(["report", str(rep), "--format", "csv", "--out", str(conv)]) == 0
        assert conv.read_text().startswith("entry_id,kind,n,R,alpha,k,lhs,rhs,slack,equality")

    def test_missing_report_is_usage_error(self, capsys):
        assert run(["report", "/nonexistent/rep.json"]) == 2

    def test_malformed_report_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert run(["report", str(bad)]) == 2

    @pytest.mark.parametrize("doc", [[1, 2], {"results": 5}])
    def test_report_breaking_schema_is_usage_error(self, doc, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["report", str(bad)]) == 2
        assert "bonnesen-report/1" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"results": 5},
        {"schema_version": "bonnesen-report/1", "command": "verify", "config": {},
         "results": [], "provenance": {"seed": 7, "samples": 1.5,
                                       "precision_mode": "standard",
                                       "timestamp": "t", "determinism_hash": "ab"}},
    ])
    def test_schema_error_is_that_of_jsonschema_validate(self, doc, tmp_path, capsys):
        """The validator built once raises what jsonschema.validate raises."""
        import jsonschema

        with pytest.raises(jsonschema.ValidationError) as ours:
            reporting.validate_report(doc)
        with pytest.raises(jsonschema.ValidationError) as reference:
            jsonschema.validate(doc, reporting.REPORT_SCHEMA)
        assert str(ours.value) == str(reference.value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["report", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: report {str(bad)!r} is not a valid bonnesen-report/1 document: "
            f"{reference.value.message}\n")

    @pytest.mark.parametrize("argmin", [5, "ab"])
    def test_csv_refuses_argmin_that_is_not_an_object(self, argmin, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        run(["verify", "--n", "3", "--samples", "100", "--out", str(rep)])
        doc = json.loads(rep.read_text())
        doc["results"] = [{"argmin": argmin}]
        rep.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["report", str(rep), "--format", "csv"]) == 2
        assert capsys.readouterr().err == (
            f"error: results[0]: argmin must be an object, got {argmin!r}\n")

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        run(["verify", "--n", "3", "--samples", "100", "--out", str(rep)])
        capsys.readouterr()
        assert run(["report", str(rep), "--config", str(tmp_path / "missing.json")]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_config_format_csv(self, tmp_path, capsys):
        rep, path = tmp_path / "rep.json", tmp_path / "cfg.json"
        run(["verify", "--n", "3", "--samples", "100", "--out", str(rep)])
        path.write_text(json.dumps({"format": "csv"}))
        capsys.readouterr()
        assert run(["report", str(rep), "--config", str(path)]) == 0
        assert capsys.readouterr().out.startswith(
            "entry_id,kind,n,R,alpha,k,lhs,rhs,slack,equality\n")

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_out_over_the_report_read_is_usage_error(self, via, tmp_path, capsys):
        rep, path = tmp_path / "rep.json", tmp_path / "cfg.json"
        run(["verify", "--n", "3", "--samples", "100", "--out", str(rep)])
        before = rep.read_text()
        path.write_text(json.dumps({"out": str(rep)}))
        argv = ["--out", str(rep)] if via == "flag" else ["--config", str(path)]
        capsys.readouterr()
        assert run(["report", str(rep)] + argv) == 2
        assert "would overwrite the report it reads" in capsys.readouterr().err
        assert rep.read_text() == before

    def test_json_conversion_refuses_non_finite(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        run(["verify", "--n", "3", "--samples", "100", "--out", str(rep)])
        capsys.readouterr()
        assert run(["report", str(rep), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(rep.read_text())
        doc = json.loads(rep.read_text())
        doc["results"][0]["min_slack"] = math.nan
        rep.write_text(json.dumps(doc))
        assert run(["report", str(rep), "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert not captured.out and "not JSON compliant" in captured.err


class TestConfigFile:
    def test_file_then_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 120, "seed": 9, "n": [3]}))
        out = tmp_path / "rep.json"
        run(["verify", "--config", str(cfg), "--samples", "80", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["config"]["samples"] == 80   # flag wins
        assert doc["config"]["seed"] == 9       # file fills the gap
        assert doc["config"]["n"] == [3]

    def test_env_var_supplies_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": [3], "samples": 90}))
        monkeypatch.setenv(cli.ENV_CONFIG, str(cfg))
        out = tmp_path / "rep.json"
        run(["verify", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["config"]["samples"] == 90

    @pytest.mark.parametrize("argv, file_cfg", [
        (["certify", "--n", "3", "--alpha", "1", "--k", "2", "--samples", "200"],
         {"kinds": ["cyclic"], "margin": 0.3, "precision": "high", "tolerance": 0.5,
          "starts": 3, "grid_resolution": 7, "inject_fault": True}),
        (["search", "--n", "3", "--kinds", "cyclic", "--starts", "1"],
         {"samples": 5, "precision": "high", "tolerance": 0.5, "inject_fault": True}),
        (["verify", "--n", "3", "--samples", "100"], {"starts": 3, "grid_resolution": 7}),
    ], ids=["certify", "search", "verify"])
    def test_unused_file_keys_keep_defaults(self, argv, file_cfg, tmp_path, capsys):
        """The report records no config-file value the subcommand ignores."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(file_cfg))
        plain, with_file = tmp_path / "plain.json", tmp_path / "file.json"
        assert run(argv + ["--out", str(plain)]) == 0
        assert run(argv + ["--config", str(path), "--out", str(with_file)]) == 0
        a, b = (json.loads(p.read_text()) for p in (plain, with_file))
        assert b["config"] == a["config"]
        assert b["config"]["precision"] == b["provenance"]["precision_mode"]
        assert (b["provenance"]["determinism_hash"]
                == a["provenance"]["determinism_hash"])

    def test_unreadable_config_is_usage_error(self, capsys):
        assert run(["verify", "--config", "/nonexistent/cfg.json"]) == 2

    @pytest.mark.parametrize("cfg, key", [
        ({"n": "34"}, "n"),
        ({"samples": 1e3}, "samples"),
        ({"kinds": ["square"]}, "kinds"),
        ({"seed": 1.5}, "seed"),
    ])
    def test_bad_config_value_is_usage_error(self, cfg, key, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["verify", "--config", str(path)]) == 2
        assert f"config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, line", [
    (["verify", "--n", "3", "3", "--kinds", "cyclic", "cyclic", "--samples", "10"],
     "error: config key 'n': [3, 3] has non-unique elements"),
    (["certify", "--n", "3", "--alpha", "1", "1", "--k", "2"],
     "error: config key 'alpha': [1, 1] has non-unique elements"),
    (["search", "--n", "3", "--kinds", "cyclic", "cyclic"],
     "error: config key 'kinds': ['cyclic', 'cyclic'] has non-unique elements"),
    (["catalog", "--kinds", "cyclic", "cyclic"],
     "error: config key 'kinds': ['cyclic', 'cyclic'] has non-unique elements"),
], ids=["verify", "certify", "search", "catalog"])
def test_repeated_list_value_is_usage_error(argv, line, tmp_path, capsys):
    """A repeated value would repeat its rows in the report."""
    out = tmp_path / "rep.json"
    assert run(argv + ["--out", str(out)]) == 2 and not out.exists()
    assert capsys.readouterr().err.splitlines() == [line]


def test_repeated_seed_list_is_valid(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": [7, 7]}))
    assert run(["verify", "--n", "3", "--samples", "10", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("argv", [
    ["report", "{bad}"],
    ["verify", "--config", "{bad}"],
    ["catalog", "--config", "{bad}"],
])
def test_non_utf8_input_is_usage_error(argv, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert run([arg.format(bad=bad) for arg in argv]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: cannot read") and "utf-8" in line


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "3", "--samples", "50"],
    ["certify", "--n", "3", "--alpha", "1", "--k", "2", "--samples", "50"],
    ["search", "--n", "3", "--kinds", "cyclic", "--starts", "1"],
    ["catalog"],
    ["report", "{report}"],
], ids=lambda argv: argv[0])
def test_unwritable_out_is_usage_error(argv, tmp_path, capsys):
    report = tmp_path / "rep.json"
    run(["verify", "--n", "3", "--samples", "50", "--out", str(report)])
    capsys.readouterr()
    out = tmp_path / "missing" / "out.txt"
    assert run([arg.format(report=report) for arg in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write {str(out)!r}: [Errno 2] No such file or directory: {str(out)!r}"]


#: The flags each subcommand takes besides --help.
SUBCOMMAND_FLAGS = {
    "verify": {"--n", "--alpha", "--k", "--kinds", "--samples", "--seed", "--margin",
               "--tolerance", "--precision", "--inject-fault", "--format", "--out",
               "--config"},
    "certify": {"--n", "--alpha", "--k", "--samples", "--seed", "--format", "--out",
                "--config"},
    "search": {"--n", "--alpha", "--k", "--kinds", "--seed", "--margin", "--starts",
               "--format", "--out", "--config"},
    "catalog": {"--kinds", "--format", "--out", "--config"},
    "report": {"--format", "--out", "--config"},
}


@pytest.mark.parametrize("name", list(SUBCOMMAND_FLAGS))
def test_subcommand_takes_the_flags_of_its_table_entry(name):
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    parser = subparsers.choices[name]
    flags = {flag for action in parser._actions for flag in action.option_strings}
    command = cli._SUBCOMMANDS[name]
    table = {"--" + key.replace("_", "-") for key in command.keys if key in cli._FLAGS}
    assert flags - {"-h", "--help"} == table | {"--format", "--out", "--config"}
    assert flags - {"-h", "--help"} == SUBCOMMAND_FLAGS[name]
    positionals = [action.dest for action in parser._actions if not action.option_strings]
    assert positionals == (["path"] if name == "report" else [])


@pytest.mark.parametrize("power", [["--alpha", "400"], ["--k", "400"]],
                         ids=["alpha", "k"])
@pytest.mark.parametrize("command", [
    ["verify", "--samples", "100"],
    ["certify", "--samples", "100"],
    ["search", "--starts", "1", "--kinds", "tangential"],
], ids=lambda argv: argv[0])
def test_power_out_of_float_range_exits_2_with_one_error_line(command, power):
    proc = run_module(*command, "--n", "3", *power)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


class TestDeterminismHashHelper:
    def test_hash_ignores_timestamp(self):
        doc = {"schema_version": reporting.SCHEMA_VERSION, "command": "verify",
               "config": {}, "results": [],
               "provenance": {"seed": 1, "timestamp": "A",
                              "determinism_hash": "x"}}
        other = json.loads(json.dumps(doc))
        other["provenance"]["timestamp"] = "B"
        assert reporting.determinism_hash(doc) == reporting.determinism_hash(other)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_render_json_refuses_non_finite(value):
    doc = reporting.ReportDocument(command="search", config={}, seed=1, samples=None,
                                   precision_mode="standard",
                                   results=[{"best_slack": value}])
    with pytest.raises(errors.NonFiniteValue):
        reporting.render_json(doc)


def test_console_script_installed():
    proc = run_module("catalog")
    assert proc.returncode == 0
    assert proc.stdout.startswith("20 entries")
    for name in SUBCOMMAND_FLAGS:
        proc = run_module(name, "--help")
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stdout.startswith(f"usage: bonnesen {name}")
