"""Every bad command line exits with status 2 and the subcommand's usage."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mclab
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


def test_import_leaves_heavy_dependencies_unloaded():
    # scipy.sparse, mpmath and jsonschema load on first use, not with the package
    src = Path(mclab.__file__).resolve().parents[1]
    code = ("import sys, mclab; "
            "print(sorted(m for m in ('scipy.sparse', 'mpmath', 'jsonschema') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert done.stdout.strip() == "[]"
