import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cofrig import cli, verify
from cofrig.cli import main
from cofrig.cofactor import CofactorOracle
from cofrig.graphs import EdgeSet, format_edge_text, complete_graph, double_banana
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


@pytest.fixture
def k5_chain_file(tmp_path):
    # 14 K5s, each sharing one edge with the next: n = 5 + 13 * 3 = 44
    chain = EdgeSet.empty(44)
    for k in range(14):
        chain |= EdgeSet.complete(44, range(3 * k, 3 * k + 5))
    path = tmp_path / "k5chain.txt"
    path.write_text(format_edge_text(chain))
    return str(path)


@pytest.fixture
def glued_file(tmp_path):
    # K6, K5 and K7 glued on the hinges {4, 5} and {7, 8}; vertex 14 is bare
    glued = (EdgeSet.complete(15, range(6)) | EdgeSet.complete(15, range(4, 9))
             | EdgeSet.complete(15, range(7, 14)))
    path = tmp_path / "glued.txt"
    path.write_text(format_edge_text(glued))
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


@pytest.mark.parametrize("text", [
    "ground_size=10\noracle:cofactor s=2\n",
    "ground_size=3\nrank=8\nbases\nff\n",
    "ground_size=4\nrank=2\nbases\n3\nc\n",
    "ground_size=10\noracle:cofactor n=5 s=2\n",
    "ground_size=-1\nbases\n0\n",
    "ground_size=2\nrank=1\nground_size=3\nbases\n1\n2\n",
], ids=["oracle-line-without-n", "base-outside-the-ground-set", "no-basis-exchange",
        "oracle-line", "negative-ground-size", "repeated-header-key"])
def test_elevate_rejects_a_bad_matroid_file(capsys, tmp_path, text):
    path = tmp_path / "bad.matroid"
    path.write_text(text)
    code, out, err = _run(capsys, ["elevate", str(path)])
    assert code == 2
    assert out == ""
    assert "input error" in err


# sha256 of the elevate stdout (step ranks, family sizes, final basis list)
# for the clique truncations on E(K_n) with circuits K_t
@pytest.mark.parametrize("n, t, digest", [
    (6, 5, "c14c799bf91950aa7afc1ec78096628107e7a2fac6842fea65eaed3bd1c94d58"),
    (6, 4, "8b743fdad06b00c83925cc206bd7d40b25736cc420bf181f37ab4da8fa2952ee"),
    (5, 3, "c790555a9087c3be0b9830a53c461e218f78a3eb543e965f14760b0cf852f404"),
], ids=["K6-5", "K6-4", "K5-3"])
def test_elevate_output_is_pinned(capsys, tmp_path, n, t, digest):
    path = tmp_path / "trunc.matroid"
    path.write_text(clique_truncation_matroid(n, t).to_text())
    code, out, _ = _run(capsys, ["elevate", str(path)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the rank, dress and closure stdout, pinned so that a change to
# closure, to the maximal cliques or to their shelling order cannot alter a
# certificate or a closure unnoticed
@pytest.mark.parametrize("command, graph, digest", [
    ("rank", "k5_file",
     "a560ad3cc52c08e943f98cd33cf57a4c2ecec561ef531572c6e386b0ce95b4ca"),
    ("rank", "banana_file",
     "a673fa48dcf440460f223dd40272119f66ed7fad25ac9c3b2befee97d6cca960"),
    ("rank", "k5_chain_file",
     "61adf9adeb3a57929d74f26223837edb9a8d51449fda81dfc191e06e2d08a207"),
    ("dress", "k5_file",
     "f4ac0823f8185285800e17fee09b992cbc375903d4ae1a31356529d71a41c92c"),
    ("dress", "banana_file",
     "a3258315469e686e9617497b9d4caf188bac2c679493057ef9edd1f7e312cdce"),
    ("dress", "k5_chain_file",
     "35e31a7113aa7b9957884b0e030e0e9cb81cf55fe221d814824dc55288712fcf"),
    ("closure", "banana_file",
     "fd761514037b391b60d53a1f54ff723b91f05f3c9d465e9da853cf19ecba249d"),
    ("closure", "k5_chain_file",
     "38be5b273d30d1da0d827371e8fd8b881bb71a291f25f8b300b9d2277aff519b"),
], ids=["rank-K5", "rank-banana", "rank-K5-chain",
        "dress-K5", "dress-banana", "dress-K5-chain",
        "closure-banana", "closure-K5-chain"])
def test_certificate_output_is_pinned(capsys, request, command, graph, digest):
    code, out, _ = _run(capsys, [command, request.getfixturevalue(graph)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("graph", ["banana_file", "k5_chain_file", "glued_file"])
@pytest.mark.parametrize("command", ["rank", "dress"])
def test_certificates_are_proven_by_seed_0_alone(capsys, monkeypatch, request,
                                                 command, graph):
    # seed 0's base meets its sequence, so no voted query runs and no later
    # seed is built
    def voted(*args):
        raise AssertionError("a certificate asked a voted query")

    for name in ("rank", "closure", "basis_of", "cyc", "extend_basis"):
        monkeypatch.setattr(CofactorOracle, name, voted)
    built, real = [], cli._oracle_from
    monkeypatch.setattr(cli, "_oracle_from",
                        lambda args, n: built.append(real(args, n)) or built[-1])
    code, out, _ = _run(capsys, [command, request.getfixturevalue(graph)])
    assert code == 0
    assert json.loads(out)["rank"] > 0
    [oracle] = built
    assert oracle._configs[0] is not None
    assert oracle._configs[1:] == [None, None]


# sha256 of the verify stdout of every suite, so that a change to how the
# rank tables or the single-mask ranks are built cannot alter a verdict
# unnoticed
@pytest.mark.parametrize("suite, digest", [
    ("elevation",
     "58afc868f86d9d131767b8b26ea601faabebd65fc65249d4f50b4b1116042824"),
    ("axioms",
     "4e883949fd1067554787465a85f0ccbc1e448a8772851bf16683ee67f5e1d108"),
    ("sequence-sweep",
     "cdb682acaf1c0efaf4df7e3e78d7c1c9b03deac32ff0f0ad0b6721b3421b57d5"),
    ("dress",
     "6af3cfcdfbf4be7fc311b78de2a4ad035555c703ad69f92b508f9377cd52e0ad"),
    ("connectivity",
     "41817393dac1a671be736e6d35a399fc020cc1b67a67c4ae8df9f93d7c32d0d4"),
    ("extensions",
     "b873488ac0c52089337c710824d41384c355a0435439985918455bc680cb8edc"),
], ids=["elevation", "axioms", "sequence-sweep", "dress", "connectivity",
        "extensions"])
def test_verify_output_is_pinned(capsys, suite, digest):
    code, out, _ = _run(capsys, ["verify", suite, "--seed", "13"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_reports_a_rank_table_no_seed_proves(capsys, monkeypatch):
    # every seed loses the row of edge bit 0, a loop within its cap, so no
    # seed proves the K6 table that the elevation suite compares against
    real = CofactorOracle._row
    monkeypatch.setattr(CofactorOracle, "_row",
                        lambda self, b, idx, at: {} if b == 0 else real(self, b, idx, at))
    verify._oracle.cache_clear()
    try:
        code, out, err = _run(capsys, ["verify", "elevation"])
    finally:
        verify._oracle.cache_clear()
    assert code == cli.EXIT_FAIL
    detail = json.loads(out)
    assert (detail["n"], detail["s"], detail["circuits"]) == (6, 2, [1, 1, 1])
    assert "every seed has a circuit within its count cap" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("text", ["n=-2\n", "n=3\nn=5\n0 4\n"],
                         ids=["negative", "repeated"])
def test_bad_ambient_header_is_an_input_error(capsys, tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = _run(capsys, ["rank", str(path)])
    assert code == 2
    assert out == ""
    assert "bad ambient header" in err


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


@pytest.mark.parametrize("command", ["dress", "covers"])
def test_covers_of_more_than_twelve_members(capsys, k5_chain_file, command):
    code, out, _ = _run(capsys, [command, k5_chain_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 113 == 14 * 9 - 13
    assert len(payload["members"]) == 14
    assert payload["val_d"] == 113
    if command == "covers":
        assert payload["upper_bound"] == 113


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


def test_repeated_seeds_are_an_input_error(capsys, k5_file):
    code, out, err = _run(capsys, ["rank", "--seeds", "1,1,2", k5_file])
    assert code == 2
    assert out == ""
    assert "seeds must be distinct" in err


def test_reused_parser_leaks_no_flag_values(capsys, k5_file, banana_file, tmp_path):
    target = tmp_path / "result.json"
    calls = [["rank", "--seeds", "5,6,7", "--out", str(target), k5_file],
             ["rank", k5_file], ["dress", banana_file]]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(_run(capsys, argv))
    target.unlink()
    cli._build_parser.cache_clear()
    for argv, expected in zip(calls, fresh):
        assert _run(capsys, argv) == expected
        if argv is calls[0]:
            assert json.loads(target.read_text()) == json.loads(expected[1])
            target.unlink()
    assert not target.exists()
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [
    ["verify", "connectivity", "--modulus", "4", "--seeds", "1", "--s", "7"],
    ["verify", "connectivity", "--dim", "2"],
    ["verify", "connectivity", "--force"],
    ["closure", "--force", "GRAPH"],
    ["covers", "--force", "GRAPH"],
    ["rank", "--pool", "all", "GRAPH"],
    ["rank", "--force", "GRAPH"],
    ["rank", "--cap-n", "12", "GRAPH"],
])
def test_flags_a_command_ignores_are_input_errors(capsys, k5_file, argv):
    argv = [k5_file if a == "GRAPH" else a for a in argv]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


def test_the_package_runs_as_a_module_without_an_install():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "cofrig", "--help"], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.startswith("usage: cofrig")
