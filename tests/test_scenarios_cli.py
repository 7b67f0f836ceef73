import csv
import importlib.util
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy

import mclab
from mclab import (
    KernelSequence,
    ProbMeasure,
    StateSpace,
    StochasticKernel,
    envelope_summary_csv,
    ratio_envelope,
    run_scenario,
    small_example,
)
from mclab.chain_core import kernel_from_json, load_json, sequence_from_json, sequence_to_json
from mclab.cli import main as cli_main
from mclab import merging, scenarios
from mclab.merging import first_passage, merging_time
from mclab.scenarios import ResultSet, builtin_scenario_names, emit, load_scenario
from mclab.spectral import srw_spectrum
from mclab.zoo import WeightedGraph, graph_kernel, lazy_stick

from conftest import random_kernel


def strip_volatile(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("# timestamp:"))


def drifted_sample(tmp_path, n_max: int) -> Path:
    """``drifted-bd-scaling`` at N = 16, 32 with 9 replicas, ``n_max`` and the check's ``hi`` 2.6.

    Four of the nine N = 32 points merge after step 522, at 523 to 538.
    """
    cfg, _ = load_scenario("drifted-bd-scaling")
    cfg = dict(cfg, grid={"N": [16, 32]}, replicas=9,
               analysis=dict(cfg["analysis"], n_max=n_max),
               checks=[dict(cfg["checks"][0], hi=2.6)])
    path = tmp_path / f"drifted-{n_max}.json"
    path.write_text(json.dumps(cfg))
    return path


class TestScenarioRunner:
    def test_builtins_are_discoverable(self):
        names = builtin_scenario_names()
        assert {"drifted-bd-scaling", "mirrored-pair", "uniform-bd-probe"} <= set(names)

    def test_schema_rejects_bad_config(self, tmp_path):
        bad = {"name": "x", "seed": 1, "generator": {"family": "bd_ratio_set"},
               "analysis": {"kind": "merging_time"}, "grid": {"N": []}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(jsonschema.ValidationError):
            load_scenario(path)

    @pytest.mark.parametrize("bad", [
        {"name": "x"},
        {"name": "", "seed": -1, "generator": {"family": 3}, "analysis": {}, "grid": {}},
        {"name": "x", "seed": 1, "generator": {"family": "bd_ratio_set"},
         "analysis": {"kind": "merging_time"}, "grid": {"N": []}, "extra": 1},
        [],
    ])
    def test_schema_error_is_the_one_validate_raises(self, tmp_path, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(bad, scenarios.SCENARIO_SCHEMA)
        for _ in range(2):  # the first load builds the validator, the second reuses it
            with pytest.raises(jsonschema.ValidationError) as got:
                load_scenario(path)
            assert (got.value.message, list(got.value.absolute_path), got.value.validator) == \
                (expected.value.message, list(expected.value.absolute_path),
                 expected.value.validator)

    def test_unknown_family_rejected(self, tmp_path):
        cfg = {"name": "x", "seed": 1, "generator": {"family": "nope"},
               "analysis": {"kind": "merging_time"}, "grid": {"N": [2]}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ValueError):
            load_scenario(path)

    def test_mirrored_pair_runs_and_passes(self):
        result = run_scenario("mirrored-pair")
        assert result.passed and not result.violations
        times = {row["N"]: row["t_merge"] for row in result.rows}
        assert times[32] / times[16] >= 3.2

    def test_parallel_equals_serial(self):
        serial = run_scenario("uniform-bd-probe")
        parallel = run_scenario("uniform-bd-probe", threads=4)
        assert serial.rows == parallel.rows
        assert serial.summary == parallel.summary

    def test_seed_override_changes_rows(self):
        base = run_scenario("uniform-bd-probe")
        other = run_scenario("uniform-bd-probe", seed=123)
        assert base.rows != other.rows

    def test_custom_inline_scenario(self, tmp_path, rng):
        kernels = [random_kernel(rng, 3) for _ in range(2)]
        seq_obj = sequence_to_json(KernelSequence.cyclic(kernels))
        cfg = {
            "name": "inline-demo",
            "seed": 5,
            "generator": {"family": "inline_sequence", "params": {"sequence": seq_obj}},
            "analysis": {"kind": "merging_time", "metric": "tv",
                         "epsilon": 0.01, "n_max": 200},
            "grid": {"case": [0]},
        }
        path = tmp_path / "inline.json"
        path.write_text(json.dumps(cfg))
        result = run_scenario(path)
        assert result.rows[0]["t_merge"] >= 1

    def test_singular_scenario_reports_violations_field(self, tmp_path):
        cfg = {
            "name": "stick-bounds",
            "seed": 2,
            "generator": {"family": "stick_pair",
                          "params": {"p": 0.6, "q": 0.4, "r": 0.0}},
            "analysis": {"kind": "singular_domination", "n": 40},
            "grid": {"N": [5, 7]},
        }
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps(cfg))
        result = run_scenario(path)
        assert result.passed
        assert all(row["max_violation"] <= 1e-12 for row in result.rows)

    def test_spectral_scenario(self, tmp_path):
        cfg = {
            "name": "stick-spectral",
            "seed": 3,
            "generator": {"family": "lazy_stick_weights",
                          "params": {"b": 2.0, "set_size": 2}},
            "analysis": {"kind": "spectral_comparison", "n_max": 50},
            "grid": {"N": [8, 12]},
        }
        path = tmp_path / "spectral.json"
        path.write_text(json.dumps(cfg))
        result = run_scenario(path)
        assert result.passed
        assert all(row["gap_margin"] >= -1e-12 for row in result.rows)

    @pytest.mark.parametrize("generator, analysis", [
        ({"family": "mirrored_bd_pair", "params": {"p": 0.54, "q": 0.36, "r": 0.1}},
         {"kind": "merging_time", "n_max": 50}),
        ({"family": "stick_pair", "params": {"p": 0.6, "q": 0.4}},
         {"kind": "singular_domination", "n": 10}),
        ({"family": "lazy_stick_weights", "params": {"set_size": 2}},
         {"kind": "spectral_comparison", "n_max": 10}),
    ])
    def test_rows_carry_the_declared_columns(self, tmp_path, generator, analysis):
        cfg = {"name": "columns", "seed": 4, "generator": generator, "analysis": analysis,
               "grid": {"N": [5, 7], "tag": ["a"]}, "replicas": 2}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        result = run_scenario(path)
        expected = ["N", "tag", "replica", *mclab.scenarios.COLUMNS[analysis["kind"]]]
        assert len(result.rows) == 4
        assert all(list(row) == expected for row in result.rows)
        assert result.columns == expected

    def test_hash_is_of_effective_config(self, tmp_path):
        cfg = {
            "name": "hash-demo",
            "seed": 5,
            "generator": {"family": "mirrored_bd_pair",
                          "params": {"p": 0.54, "q": 0.36, "r": 0.1}},
            "analysis": {"kind": "merging_time", "metric": "tv",
                         "epsilon": 0.25, "n_max": 50},
            "grid": {"N": [4]},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        reordered = tmp_path / "reordered.json"
        reordered.write_text(json.dumps(dict(reversed(list(cfg.items()))), indent=4))
        reseeded = tmp_path / "reseeded.json"
        reseeded.write_text(json.dumps(dict(cfg, seed=6)))
        base = run_scenario(path).scenario_hash
        assert run_scenario(path).scenario_hash == base
        assert run_scenario(reordered).scenario_hash == base
        assert run_scenario(path, seed=5).scenario_hash == base
        assert run_scenario(reseeded).scenario_hash != base
        assert run_scenario(path, seed=6).scenario_hash == run_scenario(reseeded).scenario_hash

    def test_sequence_file_resolves_against_scenario_dir(self, tmp_path, rng, monkeypatch):
        scenario_dir = tmp_path / "scenario"
        scenario_dir.mkdir()
        seq = KernelSequence.cyclic([random_kernel(rng, 3) for _ in range(2)])
        (scenario_dir / "seq.json").write_text(json.dumps(sequence_to_json(seq)))
        cfg = {
            "name": "file-demo",
            "seed": 1,
            "generator": {"family": "sequence_file", "params": {"path": "seq.json"}},
            "analysis": {"kind": "merging_time", "metric": "tv",
                         "epsilon": 0.01, "n_max": 200},
            "grid": {"case": [0]},
        }
        (scenario_dir / "cfg.json").write_text(json.dumps(cfg))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        row = run_scenario(scenario_dir / "cfg.json").rows[0]
        t, _, _ = first_passage(seq, 0.01, "tv", 200)
        assert row["t_merge"] == t
        monkeypatch.chdir(tmp_path)
        assert run_scenario("scenario/cfg.json").rows[0] == row

    def test_hash_covers_sequence_file_data(self, tmp_path):
        cfg = {
            "name": "data-hash",
            "seed": 1,
            "generator": {"family": "sequence_file", "params": {"path": "seq.json"}},
            "analysis": {"kind": "merging_time", "metric": "tv",
                         "epsilon": 0.01, "n_max": 50},
            "grid": {"case": [0]},
        }
        results = {}
        for name, a in (("first", 0.3), ("same", 0.3), ("other", 0.45)):
            directory = tmp_path / name
            directory.mkdir()
            kernel = np.array([[1 - a, a], [a, 1 - a]])
            seq = KernelSequence.constant(StochasticKernel(StateSpace(2), kernel))
            (directory / "seq.json").write_text(json.dumps(sequence_to_json(seq)))
            (directory / "cfg.json").write_text(json.dumps(cfg))
            results[name] = run_scenario(directory / "cfg.json")
        assert results["first"].rows != results["other"].rows
        assert results["first"].scenario_hash != results["other"].scenario_hash
        assert results["first"].scenario_hash == results["same"].scenario_hash

    def test_provenance_in_outputs(self, tmp_path):
        result = run_scenario("mirrored-pair", seed=7)
        expected = {"seed": 7, "numpy": np.__version__, "scipy": scipy.__version__}
        assert result.provenance == expected
        emit("json", result, tmp_path / "r.json")
        assert json.loads((tmp_path / "r.json").read_text())["provenance"] == expected
        emit("csv", result, tmp_path / "r.csv")
        comments = [line for line in (tmp_path / "r.csv").read_text().splitlines()
                    if line.startswith("#")]
        assert comments[3:6] == ["# seed: 7", f"# numpy: {np.__version__}",
                                 f"# scipy: {scipy.__version__}"]
        assert comments[-1].startswith("# timestamp:")

    def test_blas_in_outputs(self, tmp_path):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        expected = f"{blas['name']} {blas['version']}"
        result = run_scenario("mirrored-pair", seed=7)
        assert result.blas == expected
        emit("json", result, tmp_path / "r.json")
        assert json.loads((tmp_path / "r.json").read_text())["blas"] == expected
        emit("csv", result, tmp_path / "r.csv")
        comments = [line for line in (tmp_path / "r.csv").read_text().splitlines()
                    if line.startswith("#")]
        assert comments[-2:-1] == [f"# blas: {expected}"]
        assert comments[-1].startswith("# timestamp:")

    def test_an_unreached_point_ranks_after_every_reached_time(self, tmp_path):
        short = run_scenario(drifted_sample(tmp_path, 522))
        full = run_scenario(drifted_sample(tmp_path, 4000))
        # the rows keep the sentinel
        assert [row["N"] for row in short.rows if row["t_merge"] == -1] == [32] * 4
        assert sorted(row["t_merge"] for row in full.rows if row["N"] == 32)[-4:] == \
            [523, 526, 535, 538]
        # ranked last, the four leave the median at its true value, not at -1
        assert short.summary == full.summary
        assert short.summary["medians"] == {"t_merge|N": {16: 188.0, 32: 519.0}}
        assert short.violations == ["t_merge doubling ratio 2.761 outside [1.4, 2.6]"]
        assert short.passed is False
        assert short.summary["checks"][0]["pass"] is False

    def test_an_unreached_median_is_a_violation_not_a_ratio(self, tmp_path):
        # seven of the nine N = 32 points are unreached by n_max = 480
        result = run_scenario(drifted_sample(tmp_path, 480))
        assert result.summary["medians"]["t_merge|N"] == {16: 188.0, 32: math.inf}
        assert result.summary["checks"][0]["ratios"] == []
        assert result.violations == [
            "median t_merge at N=32 is not reached within n_max; ratio undefined"]
        assert result.passed is False
        emit("json", result, tmp_path / "out.json")
        emit("plotdata", result, tmp_path / "out.plotdata")
        saved = json.loads((tmp_path / "out.json").read_text())
        assert saved["summary"]["medians"]["t_merge|N"] == {"16": 188.0, "32": None}
        assert (tmp_path / "out.plotdata").read_text() == "# series: median t_merge|N\n16.0 188.0\n"

    def test_no_point_of_the_next_state_count_is_made_early(self, tmp_path, monkeypatch):
        # the last stack of one N returns before the first point of the next N is generated
        events = []
        generate = scenarios.GENERATORS["bd_ratio_set"]
        walk = merging._passage_batch

        def logged_generate(params, point, rng):
            seq, meta = generate(params, point, rng)
            events.append(("made", seq.space.size))
            return seq, meta

        def logged_walk(seqs, *args):
            results = walk(seqs, *args)
            events.append(("walked", seqs[0].space.size))
            return results

        monkeypatch.setitem(scenarios.GENERATORS, "bd_ratio_set", logged_generate)
        monkeypatch.setattr(merging, "_passage_batch", logged_walk)
        cfg = {"name": "look-ahead", "seed": 41,
               "generator": {"family": "bd_ratio_set", "params": {"set_size": 4}},
               "analysis": {"kind": "merging_time", "metric": "relsup", "n_max": 2000},
               "grid": {"N": [8, 12, 16]}, "replicas": 3}
        path = tmp_path / "look-ahead.json"
        path.write_text(json.dumps(cfg))
        assert len(run_scenario(path).rows) == 9
        sizes = [size for _, size in events]
        assert sizes == sorted(sizes)
        assert [size for kind, size in events if kind == "walked"] == [9, 13, 17]

    def test_schema_rejects_block_option(self, tmp_path):
        cfg = {"name": "x", "seed": 1, "generator": {"family": "bd_ratio_set"},
               "analysis": {"kind": "merging_time", "block": 2}, "grid": {"N": [4]}}
        path = tmp_path / "block.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(jsonschema.ValidationError):
            load_scenario(path)


class TestEmit:
    def test_csv_deterministic_modulo_timestamp(self, tmp_path):
        a = run_scenario("mirrored-pair")
        b = run_scenario("mirrored-pair")
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        emit("csv", a, pa)
        emit("csv", b, pb)
        assert strip_volatile(pa.read_text()) == strip_volatile(pb.read_text())

    def test_empty_result_gives_header_only(self, tmp_path):
        empty = ResultSet("empty", "00", "0.0", ["a", "b"], [], {}, [])
        path = tmp_path / "empty.csv"
        emit("csv", empty, path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines == ["a,b"]

    def test_json_round_trip_preserves_summary(self, tmp_path):
        result = run_scenario("uniform-bd-probe")
        path = tmp_path / "result.json"
        emit("json", result, path)
        back = json.loads(path.read_text())
        assert back["summary"] == json.loads(json.dumps(result.summary))
        assert back["rows"] == json.loads(json.dumps(result.rows))

    def test_one_dialect_per_format(self, tmp_path):
        # a grid value with a comma, and a relative-sup that never becomes finite
        kernels = small_example("two_point", a=0.4, b=0.6)
        cfg = {"name": "dialect", "seed": 1,
               "generator": {"family": "inline_sequence",
                             "params": {"sequence": sequence_to_json(KernelSequence.cyclic(kernels))}},
               "analysis": {"kind": "merging_time", "metric": "tv", "epsilon": 0.25, "n_max": 20},
               "grid": {"N": [2], "tag": ["a,b"]}}
        (tmp_path / "dialect.json").write_text(json.dumps(cfg))
        result = run_scenario(tmp_path / "dialect.json")
        assert math.isinf(result.rows[0]["relsup_final"])

        emit("csv", result, tmp_path / "r.csv")
        text = (tmp_path / "r.csv").read_bytes().decode()
        assert text.count("\n") == text.count("\r\n")
        rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
        assert rows[0] == result.columns and len(rows) == 2
        assert all(len(row) == len(rows[0]) for row in rows)
        assert rows[1][rows[0].index("tag")] == "a,b"

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        emit("json", result, tmp_path / "r.json")
        obj = json.loads((tmp_path / "r.json").read_text(), parse_constant=reject)
        assert obj["rows"][0]["relsup_final"] is None

        uniform = ProbMeasure.uniform(kernels[0].space)
        envelope_summary_csv([ratio_envelope(kernels, uniform, uniform, depth=2)],
                             tmp_path / "summary.csv")
        summary = (tmp_path / "summary.csv").read_bytes().decode()
        assert summary.startswith("depth,c_estimate\r\n") and summary.endswith("\r\n")
        assert summary.count("\n") == summary.count("\r\n") == 2

    def test_unknown_format(self, tmp_path):
        empty = ResultSet("x", "00", "0.0", [], [], {}, [])
        with pytest.raises(ValueError):
            emit("yaml", empty, tmp_path / "x.yaml")


class TestCli:
    def test_zoo_emit_and_merge(self, tmp_path, capsys):
        seq_path = tmp_path / "pair.json"
        assert cli_main(["zoo", "emit", "two_point", "-P", "a=0.4", "-P", "b=0.6",
                         "--out", str(seq_path)]) == 0
        seq = sequence_from_json(load_json(seq_path))
        assert seq.space.size == 2
        out_stem = tmp_path / "merge"
        code = cli_main(["merge", "--sequence", str(seq_path), "--metric", "tv",
                         "--epsilon", "0.25", "--n-max", "50", "--plotdata",
                         "--out", str(out_stem)])
        assert code == 0
        csv_lines = (tmp_path / "merge.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "n,tv,relsup,doeblin_bound,block_bound"
        assert len(csv_lines) == 52
        plot = (tmp_path / "merge.plotdata").read_text()
        blocks = [b for b in plot.strip().split("\n\n") if b]
        tv_block = [b for b in blocks if b.startswith("# series: tv")][0]
        assert len(tv_block.splitlines()) - 1 == 51  # horizon + 1 rows

    def test_merge_plotdata_matches_report(self, tmp_path):
        seq_path = tmp_path / "pair.json"
        cli_main(["zoo", "emit", "perturbed_stick_pair", "-P", "N=5", "-P", "p=0.6",
                  "-P", "q=0.4", "--out", str(seq_path)])
        assert cli_main(["merge", "--sequence", str(seq_path), "--n-max", "60", "--plotdata",
                         "--out", str(tmp_path / "m")]) == 0
        report = merging_time(sequence_from_json(load_json(seq_path)), 0.25, "tv", 60)
        blocks = (tmp_path / "m.plotdata").read_text().split("\n\n")
        assert [b.splitlines()[0] for b in blocks] == ["# series: tv", "# series: relsup"]
        tv = [f"{float(i)!r} {float(v)!r}" for i, v in enumerate(report.tv_trajectory)]
        relsup = [f"{float(i)!r} {float(v)!r}" for i, v in enumerate(report.relsup_trajectory)
                  if np.isfinite(v)]
        assert blocks[0].splitlines()[1:] == tv
        assert blocks[1].splitlines()[1:] == relsup
        # the infinite head of the relsup trajectory is left out
        assert 0 < len(relsup) < len(tv)

    def test_csv_cells_are_plain_numbers(self, tmp_path):
        seq_path = tmp_path / "pair.json"
        cli_main(["zoo", "emit", "two_point", "-P", "a=0.4", "-P", "b=0.6",
                  "--out", str(seq_path)])
        cli_main(["merge", "--sequence", str(seq_path), "--n-max", "5",
                  "--out", str(tmp_path / "m")])
        text = (tmp_path / "m.csv").read_text()
        assert "np.float64" not in text and "float64" not in text

    def test_zoo_emit_constant_rate(self, tmp_path):
        path = tmp_path / "bd.json"
        assert cli_main(["zoo", "emit", "constant_rate_bd", "-P", "N=4", "-P", "p=0.4",
                         "-P", "q=0.3", "-P", "r=0.3", "--out", str(path)]) == 0
        k = kernel_from_json(load_json(path))
        assert k.entries[0, 0] == pytest.approx(0.6)

    def test_bound_command(self, tmp_path):
        seq_path = tmp_path / "pair.json"
        cli_main(["zoo", "emit", "perturbed_stick_pair", "-P", "N=5", "-P", "p=0.6",
                  "-P", "q=0.4", "--out", str(seq_path)])
        out = tmp_path / "bounds.csv"
        assert cli_main(["bound", "--sequence", str(seq_path), "--n", "30",
                         "--out", str(out)]) == 0
        assert out.read_text().startswith("n,sigma_n")

    def test_stability_command(self, tmp_path):
        seq_path = tmp_path / "pair.json"
        cli_main(["zoo", "emit", "perturbed_stick_pair", "-P", "N=5", "-P", "p=0.6",
                  "-P", "q=0.4", "-P", "eta1=0.4", "-P", "eta2=0.6",
                  "--out", str(seq_path)])
        out = tmp_path / "stab.json"
        assert cli_main(["stability", "--kernels", str(seq_path), "--depth", "4",
                         "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["depth"] == 4 and report["c_estimate"] >= 1.0

    def test_stability_command_writes_the_csv_summary(self, tmp_path):
        seq_path = tmp_path / "pair.json"
        cli_main(["zoo", "emit", "perturbed_stick_pair", "-P", "N=5", "-P", "p=0.6",
                  "-P", "q=0.4", "--out", str(seq_path)])
        out, summary = tmp_path / "stab.json", tmp_path / "summary.csv"
        assert cli_main(["stability", "--kernels", str(seq_path), "--depth", "4",
                         "--csv-summary", str(summary), "--out", str(out)]) == 0
        c = json.loads(out.read_text())["c_estimate"]
        assert summary.read_bytes() == f"depth,c_estimate\r\n4,{c!r}\r\n".encode()

    def test_zoo_emit_lazy_stick_kernel(self, tmp_path):
        path = tmp_path / "kernel.json"
        assert cli_main(["zoo", "emit", "lazy_stick_kernel", "-P", "N=6",
                         "--out", str(path)]) == 0
        obj = load_json(path)
        kernel, pi = graph_kernel(lazy_stick(6))
        assert np.array_equal(kernel_from_json(obj).entries, kernel.entries)
        assert obj["reversible_measure"] == pi.weights.tolist()

    def test_spectral_command(self, tmp_path):
        graph_path = tmp_path / "stick.json"
        cli_main(["zoo", "emit", "lazy_stick", "-P", "N=6", "--out", str(graph_path)])
        out = tmp_path / "spec"
        assert cli_main(["spectral", "--graph", str(graph_path), "--weights", "random:3",
                         "--b", "2.0", "--n-max", "20", "--out", str(out)]) == 0
        report = json.loads((tmp_path / "spec.json").read_text())
        assert report["gap_holds"] is True

    def test_spectral_command_writes_the_unit_spectrum(self, tmp_path):
        graph_path = tmp_path / "stick.json"
        cli_main(["zoo", "emit", "lazy_stick", "-P", "N=6", "--out", str(graph_path)])
        out = tmp_path / "spec"
        assert cli_main(["spectral", "--graph", str(graph_path), "--weights", "random:3",
                         "--b", "2.0", "--n-max", "20", "--out", str(out)]) == 0
        report = json.loads((tmp_path / "spec.json").read_text())
        graph = WeightedGraph.from_json(load_json(graph_path))
        assert report["srw"] == srw_spectrum(graph).to_json()

    def test_spectral_command_rejects_negative_n_max(self, tmp_path, capsys):
        # a library ValueError becomes a usage error with exit status 2
        graph_path = tmp_path / "stick.json"
        seq_path = tmp_path / "pair.json"
        cli_main(["zoo", "emit", "lazy_stick", "-P", "N=6", "--out", str(graph_path)])
        cli_main(["zoo", "emit", "two_point", "-P", "a=0.4", "-P", "b=0.6",
                  "--out", str(seq_path)])
        cases = [
            (["spectral", "--graph", str(graph_path), "--n-max", "-5",
              "--out", str(tmp_path / "spec")], "n_max must be >= 0"),
            (["bound", "--sequence", str(seq_path), "--n", "-1",
              "--out", str(tmp_path / "b.csv")], "n must be >= 0"),
            (["merge", "--sequence", str(seq_path), "--block", "0",
              "--out", str(tmp_path / "m")], "block must be >= 1"),
        ]
        capsys.readouterr()
        for argv, message in cases:
            with pytest.raises(SystemExit) as exc:
                cli_main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: mclab") and f"error: {message}" in err
            assert err.startswith(f"usage: mclab {argv[0]} ")

    def test_run_command_exits_1_on_a_failed_check(self, tmp_path, capsys):
        code = cli_main(["run", str(drifted_sample(tmp_path, 522)), "--out", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "violation: t_merge doubling ratio 2.761 outside [1.4, 2.6]\n"
        assert captured.out == "drifted-bd-scaling: 18 rows, FAILED\n"

    def test_run_command_writes_outputs(self, tmp_path):
        code = cli_main(["run", "uniform-bd-probe", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "uniform-bd-probe.csv").exists()
        assert (tmp_path / "uniform-bd-probe.json").exists()


def test_benchmark_tracer_sites_resolve():
    # perfbench/tracer.py wraps mclab names where callers look them up; a
    # refactor that drops one must fail here, not in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    original = mclab.merging.tv_between_rows
    try:
        tracer.install(mclab)
        assert mclab.merging.tv_between_rows is not original
    finally:
        tracer.uninstall()
    assert mclab.merging.tv_between_rows is original
