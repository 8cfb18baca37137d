import json

import pytest

from cofrig.cli import main
from cofrig.graphs import format_edge_text, complete_graph, double_banana
from cofrig.matroids import clique_truncation_matroid


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.txt"
    path.write_text(format_edge_text(complete_graph(5)))
    return str(path)


@pytest.fixture
def banana_file(tmp_path):
    path = tmp_path / "banana.txt"
    path.write_text(format_edge_text(double_banana()))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rank_k5(capsys, k5_file):
    code, out, _ = _run(capsys, ["rank", k5_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 9
    assert payload["k5_sequence"] == [[0, 1, 2, 3, 4]]


def test_rank_is_byte_deterministic(capsys, k5_file):
    _, first, _ = _run(capsys, ["rank", k5_file])
    _, second, _ = _run(capsys, ["rank", k5_file])
    assert first == second


def test_rank_empty_graph(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("n=4\n")
    code, out, _ = _run(capsys, ["rank", str(path)])
    assert code == 0
    assert json.loads(out)["rank"] == 0


def test_rank_banana(capsys, banana_file):
    code, out, _ = _run(capsys, ["rank", banana_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 17
    assert len(payload["k5_sequence"]) == 2


def test_rank_other_dimension(capsys, k5_file):
    code, out, _ = _run(capsys, ["rank", "--dim", "2", k5_file])
    assert code == 0
    assert json.loads(out)["rank"] == 2 * 5 - 3


def test_rank_pool_cap(capsys, tmp_path):
    path = tmp_path / "k10.txt"
    path.write_text(format_edge_text(complete_graph(10)))
    code, out, _ = _run(capsys, ["rank", "--pool", "all", str(path)])
    assert code == 3
    code, out, _ = _run(capsys, ["rank", str(path)])  # support pool is fine
    assert code == 0
    assert json.loads(out)["rank"] == 24


def test_independent_exit_codes(capsys, k5_file, tmp_path):
    code, out, _ = _run(capsys, ["independent", k5_file])
    assert code == 1
    assert json.loads(out)["independent"] is False
    path = tmp_path / "k5e.txt"
    path.write_text(format_edge_text(complete_graph(5).remove(0, 1)))
    code, out, _ = _run(capsys, ["independent", str(path)])
    assert code == 0
    assert json.loads(out)["independent"] is True


def test_rigid_exit_codes(capsys, k5_file, banana_file):
    code, out, _ = _run(capsys, ["rigid", k5_file])
    assert code == 0
    assert json.loads(out)["rigid"] is True
    code, out, _ = _run(capsys, ["rigid", banana_file])
    assert code == 1
    payload = json.loads(out)
    assert payload["rigid"] is False
    assert payload["rank"] == 17 and payload["target"] == 18


def test_closure_adds_the_missing_banana_edge(capsys, banana_file):
    code, out, _ = _run(capsys, ["closure", banana_file])
    assert code == 0
    payload = json.loads(out)
    assert [0, 1] in payload["closure"]
    assert len(payload["closure"]) == 19


def test_elevate(capsys, tmp_path):
    path = tmp_path / "r6.matroid"
    path.write_text(clique_truncation_matroid(6, 5).to_text())
    code, out, _ = _run(capsys, ["elevate", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["start_rank"] == 10
    assert payload["step_ranks"] == [11, 12]
    assert payload["nontrivial_steps"] == 2
    assert payload["final_rank"] == 12


def test_dress(capsys, banana_file):
    code, out, err = _run(capsys, ["dress", banana_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 17
    assert payload["val_d"] == 17
    assert len(payload["members"]) == 2
    assert payload["hinges"] == [{"pair": [0, 1], "degree": 2}]
    assert "closure" in err  # the input was not a flat


def test_covers(capsys, tmp_path):
    # the closed double banana: two honest 5-cliques glued on one edge
    path = tmp_path / "flat.txt"
    path.write_text(format_edge_text(double_banana().add(0, 1)))
    code, out, _ = _run(capsys, ["covers", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["members"]) == 2
    assert payload["covers_input"] is True
    assert payload["m_degenerate"] is True
    assert payload["upper_bound"] == 17


def test_covers_without_cliques(capsys, banana_file):
    # the open banana has no 5-cliques, so no cover-based bound applies
    code, out, _ = _run(capsys, ["covers", banana_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["members"] == []
    assert payload["upper_bound"] is None


def test_verify_single_suite(capsys):
    code, out, err = _run(capsys, ["verify", "connectivity"])
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "connectivity"
    assert payload["passed"] is True
    assert "connectivity" in err


def test_out_flag_writes_file(capsys, k5_file, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = _run(capsys, ["rank", "--out", str(target), k5_file])
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(out)


def test_input_errors(capsys, tmp_path):
    code, _, err = _run(capsys, ["rank", str(tmp_path / "missing.txt")])
    assert code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2\n")
    code, _, err = _run(capsys, ["rank", str(bad)])
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("modulus", ["1", "4", "9"])
def test_bad_modulus_is_an_input_error(capsys, k5_file, modulus):
    code, out, err = _run(capsys, ["rank", "--modulus", modulus, k5_file])
    assert code == 2
    assert out == ""
    assert "input error" in err


def test_modulus_2_31_minus_1_is_accepted(capsys, k5_file):
    code, out, _ = _run(capsys, ["rank", "--modulus", str(2**31 - 1), k5_file])
    assert code == 0
    assert json.loads(out)["rank"] == 9


def test_dimension_flag_conflict(capsys, k5_file):
    code, _, err = _run(capsys, ["rank", "--s", "1", "--dim", "3", k5_file])
    assert code == 2


def test_bad_seed_list(capsys, k5_file):
    with pytest.raises(SystemExit):
        main(["rank", "--seeds", "a,b", k5_file])
