"""Every bad command line exits with status 2 and the subcommand's usage."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mclab
from mclab import scenarios
from mclab.cli import main as cli_main


def run_failing(argv, capsys):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("name, params, message", [
    ("constant_rate_bd", ["-P", "N=5"], "missing parameter 'p'"),
    ("constant_rate_bd", ["-P", "N=5", "-P", "p=0.3", "-P", "q=0.2"], "missing parameter 'r'"),
    ("perturbed_stick_pair", ["-P", "N=5", "-P", "p=0.6"], "missing parameter 'q'"),
    ("lazy_stick", [], "missing parameter 'N'"),
    ("constant_rate_bd", ["-P", "N5"], "bad parameter 'N5'; expected key=value"),
    ("no_such_kernel", [], "unknown zoo name 'no_such_kernel'"),
    # every -P value goes through chain_core.number: no traceback, no silent truncation
    ("constant_rate_bd", ["-P", "N=4", "-P", "p={}", "-P", "q=0.3", "-P", "r=0.1"],
     "not a number in -P p"),
    ("lazy_stick", ["-P", "N=4.5"], "not an integer in -P N: 4.5"),
    ("perturbed_stick_pair", ["-P", "N=5", "-P", "p=0.6", "-P", "q=0.4", "-P", "eta1=x"],
     "not a number in -P eta1"),
    ("two_point", ["-P", "a=0.5", "-P", "b=NaN"], "-P b must be a finite number"),
])
def test_zoo_emit_usage_errors(tmp_path, capsys, name, params, message):
    out = tmp_path / "x.json"
    err = run_failing(["zoo", "emit", name, *params, "--out", str(out)], capsys)
    assert err.startswith("usage: mclab zoo emit ")
    assert f"error: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["spectral", "--graph", "{missing}", "--out", "{tmp}/s"],
    ["merge", "--sequence", "{missing}", "--out", "{tmp}/m"],
    ["bound", "--sequence", "{missing}", "--out", "{tmp}/b.csv"],
    ["stability", "--kernels", "{missing}", "--depth", "2", "--out", "{tmp}/s.json"],
])
def test_unreadable_input_file(tmp_path, capsys, argv):
    missing = tmp_path / "missing.json"
    argv = [a.format(missing=missing, tmp=tmp_path) for a in argv]
    err = run_failing(argv, capsys)
    assert err.startswith(f"usage: mclab {argv[0]} ")
    assert "No such file or directory" in err and "missing.json" in err


KERNEL = {"space": {"labels": ["0", "1"]}, "matrix": [[0.5, 0.5], [0.5, 0.5]]}
SEQUENCE = {"kind": "cyclic", "kernels": [KERNEL]}
GRAPH = {"space": {"labels": ["0", "1"]}, "edges": [[0, 1]], "weights": [1.0]}


@pytest.mark.parametrize("argv, files, key", [
    (["spectral", "--graph", "{a}"], {"a": {"space": {"labels": ["0"]}}}, "edges"),
    (["spectral", "--graph", "{a}"], {"a": {"edges": [[0, 1]], "weights": [1.0]}}, "space"),
    (["spectral", "--graph", "{a}"], {"a": [GRAPH]}, "space"),
    (["spectral", "--graph", "{a}"], {"a": dict(GRAPH, space={})}, "labels"),
    (["spectral", "--graph", "{a}", "--weights", "{b}"], {"a": GRAPH, "b": {}}, "weights"),
    (["merge", "--sequence", "{a}"], {"a": {"kind": "cyclic"}}, "kernels"),
    (["merge", "--sequence", "{a}"], {"a": {"kernels": [KERNEL]}}, "kind"),
    (["bound", "--sequence", "{a}"],
     {"a": dict(SEQUENCE, kernels=[{"space": KERNEL["space"]}])}, "matrix"),
    (["stability", "--kernels", "{a}", "--depth", "2", "--pi", "{b}"],
     {"a": SEQUENCE, "b": {"space": KERNEL["space"]}}, "weights"),
])
def test_json_input_missing_a_required_key(tmp_path, capsys, argv, files, key):
    paths = {}
    for name, obj in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    out = tmp_path / "out"
    err = run_failing([a.format(**paths) for a in argv] + ["--out", str(out)], capsys)
    assert err.startswith(f"usage: mclab {argv[0]} ")
    assert f"error: missing required key {key!r}" in err
    assert not out.exists()


SCENARIO = {"name": "x", "seed": 1, "analysis": {"kind": "merging_time"}, "grid": {"N": [4]}}
MIRRORED_GENERATOR = {"family": "mirrored_bd_pair", "params": {"p": 0.54, "q": 0.36, "r": 0.1}}
DOUBLING_CHECK = {"kind": "doubling_ratio_min", "column": "t_merge", "by": "N", "lo": 3.2}


@pytest.mark.parametrize("config, message", [
    # which missing property is named first is up to jsonschema
    ({"name": "x"}, "scenario fails the schema (top level): '"),
    (dict(SCENARIO, generator={"family": 3}),
     "scenario fails the schema (generator.family): 3 is not of type 'string'"),
    (dict(SCENARIO, generator={"family": "sequence_file", "params": {}}),
     "missing required key 'path'"),
    (dict(SCENARIO, generator={"family": "inline_sequence", "params": {}}),
     "missing required key 'sequence'"),
    (dict(SCENARIO, generator=MIRRORED_GENERATOR, checks=[dict(DOUBLING_CHECK, by="M")]),
     "missing required key 'M'"),
    (dict(SCENARIO, generator=MIRRORED_GENERATOR, checks=[dict(DOUBLING_CHECK, column="nope")]),
     "missing required key 'nope'"),
    (dict(SCENARIO, generator=dict(MIRRORED_GENERATOR, params={"p": {}, "q": 0.36, "r": 0.1})),
     "not a number in 'p': "),
    (dict(SCENARIO, generator=MIRRORED_GENERATOR, grid={"N": [[4]]}),
     "'N' must be a number, got [4]"),
    (dict(SCENARIO, generator={"family": "bd_ratio_set", "params": {"hold_max": float("nan")}}),
     "'hold_max' must be a finite number, got nan"),
    # the schema's exclusiveMinimum lets NaN through; json writes it as NaN
    (dict(SCENARIO, generator=MIRRORED_GENERATOR,
          analysis={"kind": "merging_time", "epsilon": float("nan")}),
     "epsilon must be a number >= 0, got nan"),
    # the schema bounds a seed below only; substream would fold it onto 0
    (dict(SCENARIO, generator=MIRRORED_GENERATOR, seed=2 ** 64),
     f"seed must lie in [0, 2^64), got {2 ** 64}"),
])
def test_run_usage_errors(tmp_path, capsys, config, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    err = run_failing(["run", str(path), "--out", str(tmp_path / "results")], capsys)
    assert err.startswith("usage: mclab run ")
    assert f"error: {message}" in err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("seed", [-1, 2 ** 64, -(2 ** 64) + 3])
def test_run_rejects_a_seed_override_outside_64_bits(tmp_path, capsys, seed):
    # a negative seed once ran with a RuntimeWarning, on the stream of seed mod 2^64
    err = run_failing(["run", "mirrored-pair", "--seed", str(seed), "--out",
                       str(tmp_path / "r")], capsys)
    assert err.startswith("usage: mclab run ")
    assert f"error: seed must lie in [0, 2^64), got {seed}" in err
    assert not (tmp_path / "r").exists()
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
        scenarios.run_scenario("mirrored-pair", seed=seed)


def test_run_has_no_threads_option(tmp_path, capsys):
    err = run_failing(["run", "mirrored-pair", "--threads", "2", "--out", str(tmp_path / "r")],
                      capsys)
    # an unknown option is reported with the subcommand's usage line
    assert "error: unrecognized arguments: --threads 2" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv", [
    ["run", "mirrored-pair", "--threads", "2", "--out", "{tmp}/r"],
    ["merge", "--sequence", "{tmp}/s.json", "--threads", "2", "--out", "{tmp}/m"],
    ["zoo", "emit", "lazy_stick", "-P", "N=4", "--threads", "2", "--out", "{tmp}/z.json"],
])
def test_unknown_option_gets_the_subcommand_usage(tmp_path, capsys, argv):
    argv = [a.format(tmp=tmp_path) for a in argv]
    err = run_failing(argv, capsys)
    sub = "zoo emit" if argv[0] == "zoo" else argv[0]
    assert err.startswith(f"usage: mclab {sub} ")
    assert "error: unrecognized arguments: --threads 2" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("check, key", [
    (dict(DOUBLING_CHECK, by="M"), "M"),
    (dict(DOUBLING_CHECK, column="nope"), "nope"),
    (dict(DOUBLING_CHECK, by="M", column="nope"), "M"),  # by is checked first
    (dict(DOUBLING_CHECK, column="max_violation"), "max_violation"),  # another analysis's column
])
def test_a_check_naming_no_key_generates_no_point(tmp_path, monkeypatch, check, key):
    calls = []
    generate = scenarios.GENERATORS["mirrored_bd_pair"]

    def spy(*args):
        calls.append(args)
        return generate(*args)

    monkeypatch.setitem(scenarios.GENERATORS, "mirrored_bd_pair", spy)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(SCENARIO, generator=MIRRORED_GENERATOR, checks=[check])))
    with pytest.raises(ValueError, match=f"missing required key '{key}'"):
        scenarios.run_scenario(path)
    assert calls == []
    path.write_text(json.dumps(dict(SCENARIO, generator=MIRRORED_GENERATOR,
                                    checks=[DOUBLING_CHECK])))
    scenarios.run_scenario(path)
    assert len(calls) == 1


def test_import_leaves_heavy_dependencies_unloaded():
    # scipy.sparse, mpmath and jsonschema load on first use, not with the package
    src = Path(mclab.__file__).resolve().parents[1]
    code = ("import sys, mclab; "
            "print(sorted(m for m in ('scipy.sparse', 'mpmath', 'jsonschema') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert done.stdout.strip() == "[]"


def test_import_leaves_scipy_unloaded_until_a_scenario_records_it():
    # scipy's version goes into a scenario's provenance; the import waits for it
    src = Path(mclab.__file__).resolve().parents[1]
    code = ("import sys, mclab; print('scipy' in sys.modules); "
            "r = mclab.run_scenario('mirrored-pair'); "
            "print('scipy' in sys.modules, r.provenance['scipy'] == sys.modules['scipy'].__version__)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert done.stdout.split() == ["False", "True", "True"]


MIRRORED_PAIR = json.loads(
    (Path(mclab.__file__).parent / "scenario_configs" / "mirrored-pair.json").read_text())
SIZED = {"bd_ratio_set": {}, "mirrored_bd_pair": {"p": 0.54, "q": 0.36, "r": 0.1},
         "uniform_bd_set": {}, "stick_pair": {"p": 0.6, "q": 0.4}, "lazy_stick_weights": {}}


@pytest.mark.parametrize("generator, grid, key", [
    ({"family": "mirrored_bd_pair", "params": {}}, None, "p"),
    ({"family": "mirrored_bd_pair", "params": {"p": 0.54, "q": 0.36}}, None, "r"),
    ({"family": "stick_pair", "params": {}}, None, "p"),
    ({"family": "stick_pair", "params": {"p": 0.6}}, None, "q"),
    *(({"family": family, "params": params}, {"M": [4]}, "N")
      for family, params in SIZED.items()),
])
def test_run_generator_missing_param_or_grid_key(tmp_path, capsys, generator, grid, key):
    config = dict(MIRRORED_PAIR, generator=generator, grid=grid or MIRRORED_PAIR["grid"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    err = run_failing(["run", str(path), "--out", str(tmp_path / "results")], capsys)
    assert err.startswith("usage: mclab run ")
    assert f"error: missing required key {key!r}" in err
    assert not (tmp_path / "results").exists()



NAN_SEQUENCE = {"kind": "cyclic", "kernels": [
    dict(KERNEL, matrix=[[float("nan"), 0.5], [0.5, 0.5]])]}  # json writes it as NaN
# input files that break one rule of a sequence or a measure each
BAD_FILES = {
    "kind": dict(SEQUENCE, kind="markov"),
    "empty": dict(SEQUENCE, kernels=[]),
    "word": dict(SEQUENCE, word=[0, 1]),
    "probs": {"kind": "iid", "kernels": [KERNEL], "probs": [0.5, 0.5]},
    "shape": dict(SEQUENCE, kernels=[dict(KERNEL, matrix=[[1.0]])]),
    "short": {"space": KERNEL["space"], "weights": [1.0]},
    "object_weight": {"space": KERNEL["space"], "weights": [{}, 0.5]},
    "object_weights_file": {"weights": [{}]},
    "object_graph_weight": dict(GRAPH, weights=[{}]),
    "object_edge": dict(GRAPH, edges=[[0, {}]]),
    "fractional_edge": dict(GRAPH, edges=[[0, 1.5]]),
    "object_word": dict(SEQUENCE, word=[{}]),
    "object_probs": {"kind": "iid", "kernels": [KERNEL], "probs": [{}]},
    "object_seed": {"kind": "iid", "kernels": [KERNEL], "seed": {}},
}


@pytest.mark.parametrize("argv, message", [
    (["spectral", "--graph", "{graph}", "--weights", "random:3"],
     "--weights random:<seed> needs --b"),
    (["stability", "--kernels", "{pair}", "--depth", "30"],
     "word tree has 2147483647 nodes, budget is 1048576"),
    (["stability", "--kernels", "{pair}", "--depth", "4", "--budget-nodes", "30"],
     "word tree has 31 nodes, budget is 30"),
    (["stability", "--kernels", "{pair}", "--depth", "4", "--criterion-c", "nan"],
     "c_threshold must be a number >= 1, got nan"),
    (["spectral", "--graph", "{graph}", "--b", "nan"], "b must be a number >= 1, got nan"),
    (["spectral", "--graph", "{graph}", "--weights", "random:1", "--b", "nan"],
     "b must be a number >= 1, got nan"),
    (["merge", "--sequence", "{nan}"], "entries must be finite and non-negative, found nan"),
    (["bound", "--sequence", "{nan}"], "entries must be finite and non-negative, found nan"),
    (["stability", "--kernels", "{nan}", "--depth", "2"],
     "entries must be finite and non-negative, found nan"),
    (["spectral", "--graph", "{graph}", "--b", "inf", "--n-max", "3"],
     "b must be a number >= 1, got inf"),
    (["spectral", "--graph", "{graph}", "--weights", "random:1", "--b", "inf", "--n-max", "3"],
     "b must be a number >= 1, got inf"),
    (["merge", "--sequence", "{pair}", "--metric", "relsup", "--epsilon", "nan"],
     "relsup epsilon must be positive"),
    (["merge", "--sequence", "{kind}"], "unknown sequence kind 'markov'"),
    (["merge", "--sequence", "{empty}"], "kernel set must be non-empty"),
    (["merge", "--sequence", "{word}"], "cyclic word indexes outside the kernel set"),
    (["merge", "--sequence", "{probs}"], "probs length must match kernel set"),
    (["bound", "--sequence", "{shape}"], "matrix shape (1, 1) does not match space size 2"),
    (["bound", "--sequence", "{pair}", "--mu0", "{short}"],
     "weights shape (1,) does not match space size 2"),
    (["bound", "--sequence", "{pair}", "--mu0", "{object_weight}"], "not a number in weights: "),
    (["stability", "--kernels", "{pair}", "--depth", "2", "--pi", "{object_weight}"],
     "not a number in weights: "),
    (["stability", "--kernels", "{pair}", "--depth", "2", "--mu0", "{object_weight}"],
     "not a number in weights: "),
    (["spectral", "--graph", "{graph}", "--weights", "{object_weights_file}"],
     "not a number in weights: "),
    (["spectral", "--graph", "{object_graph_weight}"], "not a number in weights: "),
    (["spectral", "--graph", "{object_edge}"], "not a number in edges: "),
    (["spectral", "--graph", "{fractional_edge}"], "not an integer in edges: 1.5"),
    (["merge", "--sequence", "{object_word}"], "not a number in word: "),
    (["merge", "--sequence", "{object_probs}"], "not a number in probs: "),
    (["merge", "--sequence", "{object_seed}"], "not a number in seed: "),
])
def test_rejected_value_gets_the_subcommand_usage(tmp_path, capsys, argv, message):
    files = {"graph": GRAPH, "nan": NAN_SEQUENCE, **BAD_FILES}
    paths = {name: tmp_path / f"{name}.json" for name in ("pair", *files)}
    for name, obj in files.items():
        paths[name].write_text(json.dumps(obj))
    assert cli_main(["zoo", "emit", "perturbed_stick_pair", "-P", "N=5", "-P", "p=0.6",
                     "-P", "q=0.4", "--out", str(paths["pair"])]) == 0
    err = run_failing([a.format(**paths) for a in argv] + ["--out", str(tmp_path / "out")],
                      capsys)
    assert err.startswith(f"usage: mclab {argv[0]} ")
    assert f"error: {message}" in err
    assert not any(tmp_path.glob("out*"))


# a JSON true or false is not a number: numpy would read it as 1 or 0, and a
# whole-number rule would take True for the integer 1
BOOL_FILES = {
    "matrix": dict(SEQUENCE, kernels=[dict(KERNEL, matrix=[[0.5, 0.5], [True, 0.0]])]),
    "diagonals": dict(SEQUENCE, kernels=[{"space": {"labels": ["0", "1", "2"]}, "band": 0,
                                          "diagonals": [[1.0, True, 1.0]]}]),
    "word": dict(SEQUENCE, word=[False]),
    "probs": {"kind": "iid", "kernels": [KERNEL], "probs": [True]},
    "seed": {"kind": "iid", "kernels": [KERNEL], "seed": True},
    "weights": {"space": KERNEL["space"], "weights": [True, False]},
}


@pytest.mark.parametrize("argv, message", [
    (["zoo", "emit", "lazy_stick", "-P", "N=true"], "not a number in -P N: a boolean"),
    (["zoo", "emit", "constant_rate_bd", "-P", "N=4", "-P", "p=0.3", "-P", "q=0.3",
      "-P", "r=false"], "not a number in -P r: a boolean"),
    (["merge", "--sequence", "{matrix}"], "not a number in matrix: a boolean"),
    (["merge", "--sequence", "{diagonals}"], "not a number in diagonal 0: a boolean"),
    (["merge", "--sequence", "{word}"], "not a number in word: a boolean"),
    (["merge", "--sequence", "{probs}"], "not a number in probs: a boolean"),
    (["merge", "--sequence", "{seed}"], "not a number in seed: a boolean"),
    (["bound", "--sequence", "{pair}", "--mu0", "{weights}"], "not a number in weights: a boolean"),
])
def test_a_boolean_is_not_a_number(tmp_path, capsys, argv, message):
    paths = {name: tmp_path / f"{name}.json" for name in ("pair", *BOOL_FILES)}
    for name, obj in BOOL_FILES.items():
        paths[name].write_text(json.dumps(obj))
    assert cli_main(["zoo", "emit", "perturbed_stick_pair", "-P", "N=5", "-P", "p=0.6",
                     "-P", "q=0.4", "--out", str(paths["pair"])]) == 0
    out = tmp_path / "out"
    err = run_failing([a.format(**paths) for a in argv] + ["--out", str(out)], capsys)
    command = " ".join(argv[:2]) if argv[0] == "zoo" else argv[0]
    assert err.startswith(f"usage: mclab {command} ")
    assert f"error: {message}" in err
    assert not any(tmp_path.glob("out*"))


@pytest.mark.parametrize("grid, params, message", [
    ({"N": [True]}, {}, "not a number in 'N': a boolean"),
    ({"N": [4]}, {"set_size": True}, "not a number in 'set_size': a boolean"),
    ({"N": [4]}, {"hold_max": False}, "not a number in 'hold_max': a boolean"),
])
def test_a_boolean_scenario_value_is_not_a_number(tmp_path, capsys, grid, params, message):
    config = dict(SCENARIO, generator={"family": "bd_ratio_set", "params": params}, grid=grid)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    err = run_failing(["run", str(path), "--out", str(tmp_path / "results")], capsys)
    assert err.startswith("usage: mclab run ")
    assert f"error: {message}" in err
    assert not (tmp_path / "results").exists()
