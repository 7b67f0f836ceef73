"""Kernel files: the banded form, the dense form, and outputs identical across the two.

``kernel_to_json`` writes a kernel of bandwidth ``w`` as its diagonals
``-w..w`` when ``2w + 1 < N`` and as a dense matrix otherwise;
``kernel_from_json`` reads both. A kernel loads with the same bits from
either form, so every report computed from it is byte-identical.
"""

import json
import math

import numpy as np
import pytest

from mclab import (
    KernelSequence,
    StateSpace,
    StochasticKernel,
    constant_rate_bd,
    general_bd,
    perturbed_stick_pair,
    scenarios,
    small_example,
)
from mclab.chain_core import (
    dump_json,
    kernel_from_json,
    kernel_to_json,
    sequence_from_json,
    sequence_to_json,
)
from mclab.cli import main as cli_main
from mclab.rng import fold_path, substream
from mclab.zoo import graph_kernel, lazy_stick


def dense_json(k: StochasticKernel) -> dict:
    """``k`` in the dense form, the only one written before the banded form existed."""
    return {"space": {"labels": list(k.space.labels)}, "matrix": k.entries.tolist()}


def dense_sequence_json(seq: KernelSequence) -> dict:
    obj = sequence_to_json(seq)
    obj["kernels"] = [dense_json(k) for k in seq.kernels]
    return obj


def general_bd_kernel():
    n = 40
    x = np.arange(n + 1)
    up = np.where(x < n, 0.3 + 0.2 * np.sin(x), 0.0)
    down = np.where(x > 0, 0.25 + 0.1 * np.cos(x), 0.0)
    return general_bd(n, up, down).kernel


KERNELS = {
    "constant_rate_bd": lambda: [constant_rate_bd(256, 0.54, 0.36, 0.1)],
    "general_bd": lambda: [general_bd_kernel()],
    "perturbed_stick_pair": lambda: list(perturbed_stick_pair(11, 0.45, 0.35, 0.2, 0.3, 0.4)),
    "lazy_stick_kernel": lambda: [graph_kernel(lazy_stick(64))[0]],
    "seven_point": lambda: list(small_example("seven_point")),
}


@pytest.mark.parametrize("name", KERNELS)
def test_round_trip_is_bit_equal(name):
    for k in KERNELS[name]():
        obj = json.loads(json.dumps(kernel_to_json(k)))  # through the text of a file
        w = k.bandwidth
        assert ("band" in obj) == (2 * w + 1 < k.size) and ("matrix" in obj) != ("band" in obj)
        back = kernel_from_json(obj)
        assert back.space == k.space
        assert back.entries.tobytes() == kernel_from_json(dense_json(k)).entries.tobytes()
        assert np.array_equal(back.entries, k.entries)


def test_banded_form_holds_the_diagonals():
    k = constant_rate_bd(256, 0.54, 0.36, 0.1)
    obj = kernel_to_json(k)
    assert obj["band"] == 1 and len(obj["diagonals"]) == 3
    assert [len(d) for d in obj["diagonals"]] == [256, 257, 256]
    assert obj["diagonals"][0] == np.diagonal(k.entries, -1).tolist()
    assert sum(map(len, obj["diagonals"])) == 257 * 3 - 2


@pytest.mark.parametrize("k", [
    StochasticKernel.identity(StateSpace(1)),
    small_example("two_point", a=0.4, b=0.6)[0],
    constant_rate_bd(1, 0.4, 0.3, 0.3),
    constant_rate_bd(2, 0.4, 0.3, 0.3),
    small_example("adjoint_pair")[0],
], ids=["identity-1", "two_point", "bd-2", "bd-3", "adjoint-3"])
def test_kernels_with_2w_plus_1_at_least_n_are_written_dense(k):
    assert 2 * k.bandwidth + 1 >= k.size <= 3
    obj = kernel_to_json(k)
    assert set(obj) == {"space", "matrix"} and obj["matrix"] == k.entries.tolist()


def test_a_diagonal_kernel_of_three_states_is_banded():
    obj = kernel_to_json(StochasticKernel.identity(StateSpace(3)))
    assert obj["band"] == 0 and obj["diagonals"] == [[1.0, 1.0, 1.0]]


def test_a_legacy_matrix_file_loads_unchanged(tmp_path):
    seq = KernelSequence.cyclic(list(perturbed_stick_pair(9, 0.6, 0.4, 0.0, 0.0, 0.0)))
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(dense_sequence_json(seq)))
    back = sequence_from_json(json.loads(path.read_text()))
    for got, k in zip(back.kernels, seq.kernels):
        expected = StochasticKernel(k.space, np.asarray(k.entries.tolist(), dtype=float))
        assert got.entries.tobytes() == expected.entries.tobytes()


LABELS = {"labels": ["0", "1", "2", "3"]}
BD4 = kernel_to_json(constant_rate_bd(3, 0.4, 0.3, 0.3))

MALFORMED = {
    "negative band": dict(BD4, band=-1),
    "band at N": dict(BD4, band=4, diagonals=[[0.25]] * 9),
    "float band": dict(BD4, band=1.0),
    "string band": dict(BD4, band="1"),
    "boolean band": dict(BD4, band=True),
    "too few diagonals": dict(BD4, diagonals=BD4["diagonals"][:2]),
    "too many diagonals": dict(BD4, diagonals=BD4["diagonals"] + [[0.0, 0.0]]),
    "diagonals not a list": dict(BD4, diagonals=3),
    "short diagonal": dict(BD4, diagonals=[BD4["diagonals"][0][:2]] + BD4["diagonals"][1:]),
    "long main diagonal": dict(BD4, diagonals=[BD4["diagonals"][0], [0.3] * 5,
                                               BD4["diagonals"][2]]),
    "nested diagonal": dict(BD4, diagonals=[[[0.3]] * 3] + BD4["diagonals"][1:]),
    "NaN entry": dict(BD4, diagonals=[[math.nan] + BD4["diagonals"][0][1:]]
                      + BD4["diagonals"][1:]),
    "object entry": dict(BD4, diagonals=[[{}] * 3] + BD4["diagonals"][1:]),
    "no diagonals": {"space": LABELS, "band": 1},
    "dense object entry": {"space": LABELS, "matrix": [[{}] * 4] * 4},
}


def test_the_malformed_cases_start_from_a_valid_band_object():
    # so that each case fails for the one fault it names
    assert BD4["band"] == 1 and BD4["space"] == LABELS
    kernel_from_json(BD4)


@pytest.mark.parametrize("obj", MALFORMED.values(), ids=MALFORMED)
def test_malformed_kernel_object_raises_value_error(obj):
    with pytest.raises(ValueError):
        kernel_from_json(obj)


@pytest.mark.parametrize("obj", MALFORMED.values(), ids=MALFORMED)
def test_malformed_kernel_object_exits_2_from_merge(tmp_path, capsys, obj):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"kind": "cyclic", "kernels": [obj]}))  # NaN is written as NaN
    out = tmp_path / "m"
    with pytest.raises(SystemExit) as exc:
        cli_main(["merge", "--sequence", str(path), "--n-max", "5", "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: mclab merge ")
    assert not any(tmp_path.glob("m.*"))


def test_sequence_fields_load_exactly():
    # generator seeds are drawn below 2**62, where float64 no longer holds every integer
    kernels = [constant_rate_bd(4, 0.5, 0.3, 0.2), constant_rate_bd(4, 0.3, 0.5, 0.2)]
    for seq in (KernelSequence.iid(kernels, [0.1, 0.9], seed=2 ** 62 + 1),
                KernelSequence.cyclic(kernels, [1, 0, 0])):
        back = sequence_from_json(json.loads(json.dumps(sequence_to_json(seq))))
        assert (back.word, back.probs, back.seed) == (seq.word, seq.probs, seq.seed)
        assert type(back.seed) is int and all(type(i) is int for i in back.word)
        assert np.array_equal(back.indices(0, 2000), seq.indices(0, 2000))


def test_a_kernel_with_neither_form_names_the_matrix():
    with pytest.raises(ValueError, match="missing required key 'matrix'"):
        kernel_from_json({"space": LABELS})


# ---------------------------------------------------------------------------
# the same reports from either encoding


def write_both(seq: KernelSequence, directory):
    dense, banded = directory / "dense.json", directory / "banded.json"
    dump_json(dense_sequence_json(seq), dense)
    dump_json(sequence_to_json(seq), banded)
    assert all("band" in k for k in json.loads(banded.read_text())["kernels"])
    return dense, banded


def test_merge_is_byte_identical_across_encodings(tmp_path):
    seq = KernelSequence.cyclic([constant_rate_bd(256, 0.54, 0.36, 0.1),
                                 constant_rate_bd(256, 0.36, 0.54, 0.1)])
    dense, banded = write_both(seq, tmp_path)
    assert banded.stat().st_size < 64 * 1024 < dense.stat().st_size
    for path in (dense, banded):
        assert cli_main(["merge", "--sequence", str(path), "--n-max", "200",
                         "--out", str(tmp_path / path.stem)]) == 0
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"dense{suffix}").read_bytes() == \
            (tmp_path / f"banded{suffix}").read_bytes()


def test_bound_is_byte_identical_across_encodings(tmp_path):
    params = {"ratio_min": 1.2, "ratio_max": 2.0, "hold_max": 0.3, "set_size": 8}
    seq, _ = scenarios.GENERATORS["bd_ratio_set"](params, {"N": 128}, substream(3, fold_path(0)))
    assert seq.space.size == 129 and len(seq.kernels) == 8
    dense, banded = write_both(seq, tmp_path)
    for path in (dense, banded):
        assert cli_main(["bound", "--sequence", str(path), "--n", "50",
                         "--out", str(tmp_path / f"{path.stem}.csv")]) == 0
    assert (tmp_path / "dense.csv").read_bytes() == (tmp_path / "banded.csv").read_bytes()
