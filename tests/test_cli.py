import argparse
import contextlib
import functools
import hashlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import binary_llex, rebuilt
from formula_battery import all_texts
from wob import automata as au
from wob import cli, corpus
from wob.cli import main
from wob.errors import LoadError, WobError
from wob.logic import Structure, eval_sentence, load_structure, parse_formula, save_structure


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_ord_cmp(capsys):
    code, out = run_cli(["ord", "cmp", "w^2*3+w", "w^2*3+5"], capsys)
    assert code == 0
    assert out == "greater\n"


def test_ord_add_mul_pow_fs(capsys):
    assert run_cli(["ord", "add", "1", "w"], capsys) == (0, "w\n")
    assert run_cli(["ord", "add", "w", "1"], capsys) == (0, "w+1\n")
    assert run_cli(["ord", "mul", "w+1", "w"], capsys) == (0, "w^2\n")
    assert run_cli(["ord", "pow", "w"], capsys) == (0, "w^w\n")
    assert run_cli(["ord", "fs", "w^w", "2"], capsys) == (0, "w^3\n")


def test_ord_malformed(capsys):
    code, _ = run_cli(["ord", "cmp", "wot", "1"], capsys)
    assert code == 4


def test_fgh_eval(capsys):
    code, out = run_cli(["fgh", "eval", "--system", "std", "--alpha", "w", "--x", "2"], capsys)
    assert code == 0
    assert out == "2048\n"


def test_fgh_eval_exceeded(capsys):
    code, out = run_cli(
        ["fgh", "eval", "--alpha", "w^2", "--x", "9", "--max-steps", "1000"], capsys
    )
    assert code == 3
    assert out.startswith("exceeded")


def test_fgh_compare_table(capsys):
    code, out = run_cli(
        ["fgh", "compare", "--alpha", "2", "--beta", "3", "--xs", "2,3"], capsys
    )
    assert code == 0
    assert "x=2: lt" in out and "x=3: lt" in out
    assert "asymptotic" in out  # the disclaimer is part of the output


def test_query_and_recognize(tmp_path, capsys):
    p = corpus.omega_unary()
    manifest = save_structure(p.structure, tmp_path)
    code, out = run_cli(["query", manifest, "(exists x (forall y (not (rel < y x))))"], capsys)
    assert (code, out) == (0, "true\n")
    code, out = run_cli(["query", manifest, "(exists x (forall y (not (rel < x y))))"], capsys)
    assert (code, out) == (1, "false\n")
    code, out = run_cli(["recognize", manifest], capsys)
    assert (code, out) == (0, "well-order w\n")


def test_recognize_negative_exit(tmp_path, capsys):
    p = corpus.integer_line()
    manifest = save_structure(p.structure, tmp_path)
    code, out = run_cli(["recognize", manifest], capsys)
    assert code == 1
    assert out.startswith("not-well-order")


def test_recognize_trace_dumps_levels(tmp_path, capsys):
    p = corpus.omega_times_2()
    manifest = save_structure(p.structure, tmp_path)
    code, out = run_cli(["recognize", manifest, "--trace"], capsys)
    assert code == 0
    assert "; condensation level 0" in out
    assert "; condensation level 1" in out
    assert "automaton level0_order" in out
    assert out.rstrip().endswith("well-order w*2")


def test_recognize_json(tmp_path, capsys):
    p = corpus.omega_times_2()
    manifest = save_structure(p.structure, tmp_path)
    code, out = run_cli(["recognize", manifest, "--json"], capsys)
    assert code == 0
    assert json.loads(out) == {"verdict": "well-order", "cnf": "w*2"}


def test_recognize_counts_a_large_finite_order(tmp_path, capsys):
    # 2^17 - 1 words are counted on the domain's minimal DFA, not listed
    p = corpus.block_sum("bin16", [binary_llex(("0", "1"), 0, 16)])
    manifest = save_structure(p.structure, tmp_path)
    code, out = run_cli(["recognize", manifest, "--json"], capsys)
    assert code == 0
    assert json.loads(out) == {"verdict": "well-order", "cnf": "131071"}


OMEGA_SQ_MANIFEST = str(Path(__file__).resolve().parent.parent / "corpus" / "omega_sq" / "omega_sq.manifest")


def test_chain_prints_the_initial_segment(capsys):
    # one element a line, or one JSON object; b separates the digit word's
    # blocks, so these are (0, 0, k) for k = 0..5
    want = ["bb", "bba", "bbaa", "bbaaa", "bbaaaa", "bbaaaaa"]
    code, out = run_cli(["chain", OMEGA_SQ_MANIFEST, "6"], capsys)
    assert code == 0
    assert out.splitlines() == want
    code, out = run_cli(["chain", OMEGA_SQ_MANIFEST, "6", "--json"], capsys)
    assert code == 0
    assert json.loads(out) == {"chain": want}


def test_chain_of_no_elements(capsys):
    assert run_cli(["chain", OMEGA_SQ_MANIFEST, "0"], capsys) == (0, "")
    code, out = run_cli(["chain", OMEGA_SQ_MANIFEST, "0", "--json"], capsys)
    assert code == 0
    assert json.loads(out) == {"chain": []}


ZLINE_MANIFEST = str(Path(__file__).resolve().parent.parent / "corpus" / "zline" / "zline.manifest")


def test_chain_of_an_order_with_no_least_element(capsys):
    # the integer line has no least element: a negative verdict, never the
    # empty chain that N = 0 prints
    code = main(["chain", ZLINE_MANIFEST, "3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "not-well-order: no least element\n"
    code, out = run_cli(["chain", ZLINE_MANIFEST, "3", "--json"], capsys)
    assert code == 1
    assert json.loads(out) == {"chain": [], "evidence": "no-least-element", "verdict": "not-well-order"}
    assert run_cli(["chain", ZLINE_MANIFEST, "0"], capsys) == (0, "")
    code, out = run_cli(["chain", ZLINE_MANIFEST, "0", "--json"], capsys)
    assert code == 0
    assert json.loads(out) == {"chain": []}


def test_chain_budget_exit_prints_json(capsys):
    code, out = run_cli(["chain", OMEGA_SQ_MANIFEST, "3", "--budget", "2", "--json"], capsys)
    assert code == 3
    assert json.loads(out) == {"verdict": "budget-exceeded", "states": 3, "budget": 2}


def test_chain_of_an_order_with_two_covers_is_malformed(tmp_path, capsys):
    # in the strict-prefix order the empty word is least and both
    # one-letter words cover it
    ab = ("0", "1")

    def prefix(v, letter):  # 1 once x has ended inside y
        if letter[0] == au.PAD:
            return 1
        return 0 if v == 0 and letter[0] == letter[1] else None

    order = au.letter_dfa(ab, 2, 0, prefix, lambda v: v == 1)
    manifest = save_structure(Structure(name="prefix", domain=au.universe(ab, 1), relations={"<": order}), tmp_path)
    code = main(["chain", manifest, "5"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "element '' has two covers, '0' and '1'; order is not linear" in captured.err


def test_query_compiled_out(tmp_path, capsys):
    p = corpus.omega_unary()
    manifest = save_structure(p.structure, tmp_path)
    out_file = tmp_path / "preds.aut"
    code, _ = run_cli(["query", manifest, "(exists y (rel < y x))", "--out", str(out_file)], capsys)
    assert code == 0
    text = out_file.read_text(encoding="utf-8")
    assert text.startswith("automaton query")


def test_pathology_kreisel_compare(capsys):
    code, out = run_cli(
        ["pathology", "kreisel", "--pi0", "builtin:except=2", "compare", "3", "5"], capsys
    )
    assert (code, out) == (0, "greater\n")


def test_pathology_kreisel_descend(capsys):
    code, out = run_cli(
        ["pathology", "kreisel", "--pi0", "builtin:except=2", "descend", "10", "5"], capsys
    )
    assert (code, out) == (0, "10 11 12 13 14\n")
    code, out = run_cli(
        ["pathology", "kreisel", "--pi0", "builtin:true", "descend", "10", "5"], capsys
    )
    assert (code, out) == (1, "none\n")


def test_pathology_kreisel_to_structure(tmp_path, capsys):
    code, out = run_cli(
        ["pathology", "kreisel", "--pi0", "builtin:true", "to-structure", str(tmp_path)], capsys
    )
    assert code == 0
    manifest = out.split()[-1]
    code, out = run_cli(["recognize", manifest], capsys)
    assert (code, out) == (0, "well-order w\n")


@pytest.mark.parametrize("action", [["compare", "2", "3"], ["descend", "3", "4"], ["to-structure", "{tmp}"]])
def test_pathology_kreisel_pi0_file_must_be_over_binary(action, tmp_path, capsys):
    # omega_domain.aut is over `a`, so it would reject every binary word;
    # it is refused as malformed, not read as a pi_0 false everywhere
    write_pi0_query(tmp_path)
    for pi0, exits in PI0_EXITS.items():
        argv = ["pathology", "kreisel", "--pi0", pi0] + action
        code = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
        assert code in exits, argv
    err = capsys.readouterr().err
    assert "over the alphabet 0 1" in err


def test_pathology_omega1(capsys):
    code, out = run_cli(["pathology", "omega1", "--f", "2^n", "fgh", "--x", "3"], capsys)
    assert code == 0
    assert ">= 8" in out


def test_omega1_fgh_evaluates_once(monkeypatch, capsys):
    # one bounded evaluation answers: no exact run to the step cap first
    calls = []
    original = cli.fgh.eval_F
    monkeypatch.setattr(cli.fgh, "eval_F", lambda *a: calls.append(a) or original(*a))
    code, out = run_cli(["pathology", "omega1", "fgh", "--x", "3"], capsys)
    assert (code, out) == (0, "F_w(3) >= 8 = f(3)   (value cap certificate)\n")
    assert len(calls) == 1


def test_tm_check_reversible(capsys):
    code, out = run_cli(["tm", "check-reversible", "builtin:comparator"], capsys)
    assert (code, out) == (0, "reversible\n")


def test_tm_wf_check(capsys):
    code, out = run_cli(
        ["tm", "wf-check", "builtin:comparator", "--word-len", "2", "--run-len", "1"], capsys
    )
    assert code == 0
    assert out.startswith("wf-check ok")


@pytest.mark.parametrize("lengths, digest", [
    ([], "0b1d1ad31f80734256ea7a9d86e15e3d237e821c66a73e97c0addc50033c515e"),
    (["--word-len", "5", "--run-len", "3"], "215fd7ae8fb1a16c6244c21af20512083fc413829ff48455be47087021ca8798"),
], ids=["3-2", "5-3"])
def test_tm_wf_check_dot_is_pinned(lengths, digest, tmp_path, capsys):
    # the fragment a user sees, at the default lengths and at the rpi
    # benchmark's, byte for byte
    dot = tmp_path / "fragment.dot"
    code, _ = run_cli(["tm", "wf-check", "builtin:comparator", "--dot", str(dot), *lengths], capsys)
    assert code == 0
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == digest


def test_tm_wf_check_of_a_machine_that_never_halts_exits_at_the_budget(tmp_path, capsys):
    # both heads walk right forever, so the run on two empty inputs adds a
    # column a step; its words are counted against the 10^6 state budget,
    # sum(k + 3 for k in range(1412)) = 1,000,402 tokens, and wf-check
    # exits 3, not out of memory
    cells = ["0", "1", "_"]
    trans = ["trans go (>,>) -> go (>,R)(>,R)"]
    trans += [f"trans go ({a},{b}) -> go ({a},R)({b},R)" for a in cells for b in cells]
    path = tmp_path / "walk.tm"
    path.write_text("\n".join(["tm walk", "tapes 2", "blank _", "state go", *trans]) + "\n", encoding="utf-8")
    assert main(["tm", "wf-check", str(path), "--json"]) == 3
    out, err = capsys.readouterr()
    assert json.loads(out) == {"verdict": "budget-exceeded", "states": 1000402, "budget": 1000000}
    assert err == "budget-exceeded: grew to 1000402 configuration tokens, budget 1000000\n"


def test_tm_wf_check_of_a_machine_that_loops_in_bounded_space_exits_at_the_budget(tmp_path, capsys):
    # a valid reversible machine whose heads bounce between columns 0 and
    # 1 on two empty inputs: its words stay 4 tokens long, and the run ends
    # at the state budget like any other that does not halt, as a budget
    # exit and not as malformed input
    trans = ["go (>,>) -> a (>,R)(>,R)", "a (_,_) -> go (_,L)(_,L)", "a (0,0) -> h (0,R)(0,R)", "a (1,1) -> h (1,R)(1,R)"]
    path = tmp_path / "bounce.tm"
    path.write_text("\n".join(["tm bounce", "tapes 2", "blank _", "state go", "state a", "state h accept",
                               *(f"trans {t}" for t in trans)]) + "\n", encoding="utf-8")
    start = time.monotonic()
    assert main(["tm", "wf-check", str(path), "--json"]) == 3
    assert time.monotonic() - start < 5
    out, err = capsys.readouterr()
    assert json.loads(out) == {"budget": 1000000, "states": 1000003, "verdict": "budget-exceeded"}
    assert err == "budget-exceeded: grew to 1000003 configuration tokens, budget 1000000\n"


@pytest.mark.parametrize("flag", ["--word-len", "--run-len"])
def test_tm_negative_length_is_usage_error(flag, capsys):
    assert main(["tm", "wf-check", "builtin:comparator", flag, "-1"]) == 2
    assert f"argument {flag}: must be at least 0" in capsys.readouterr().err


OMEGA_MANIFEST = str(Path(__file__).resolve().parent.parent / "corpus" / "omega" / "omega.manifest")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["recognize", OMEGA_MANIFEST, "--budget", "-5"], "argument --budget: must be at least 1"),
        (["recognize", OMEGA_MANIFEST, "--budget", "0"], "argument --budget: must be at least 1"),
        (["recognize", OMEGA_MANIFEST, "--max-levels", "-1"], "argument --max-levels: must be at least 0"),
        (["query", OMEGA_MANIFEST, "(exists x (= x x))", "--budget", "-5"], "argument --budget: must be at least 1"),
        (["fgh", "eval", "--alpha", "2", "--x", "-3"], "argument --x: must be at least 0"),
        (["fgh", "compare", "--alpha", "2", "--beta", "3", "--xs", "-1"], "argument --xs: must be at least 0"),
        (["ord", "fs", "w", "-1"], "argument index: must be at least 0"),
        (["pathology", "kreisel", "--pi0", "builtin:except=-2", "compare", "1", "2"], "argument --pi0: must be at least 0"),
        (["pathology", "omega1", "fgh", "--x", "-1"], "argument --x: must be at least 0"),
        (["pathology", "kreisel", "compare", "-1", "2"], "argument X: must be at least 0"),
        (["pathology", "kreisel", "descend", "3", "-5"], "argument LEN: must be at least 1"),
        (["pathology", "kreisel", "descend", "3", "0"], "argument LEN: must be at least 1"),
        (["hopda", "graph", "builtin:omega", "--budget", "-1"], "argument --budget: must be at least 1"),
        (["hopda", "unfold", "builtin:omega", "--depth", "-1"], "argument --depth: must be at least 0"),
    ],
    ids=[
        "recognize-budget-negative", "recognize-budget-zero", "recognize-max-levels-negative", "query-budget-negative",
        "fgh-eval-x-negative", "fgh-compare-xs-negative", "ord-fs-index-negative", "kreisel-except-negative",
        "omega1-x-negative", "kreisel-compare-negative", "kreisel-descend-len-negative", "kreisel-descend-len-zero",
        "hopda-budget-negative", "hopda-depth-negative",
    ],
)
def test_non_positive_budget_is_usage_error(argv, message, capsys):
    # a budget that admits no state, or a negative natural, is a bad
    # argument: neither a verdict nor an internal error
    assert main(argv) == 2
    assert message in capsys.readouterr().err


MIXED_MANIFEST = str(Path(__file__).resolve().parent.parent / "corpus" / "mixed" / "mixed.manifest")


@pytest.mark.parametrize(
    "argv, states, budget",
    [
        (["recognize", MIXED_MANIFEST, "--budget", "20"], 21, 20),
        (["query", MIXED_MANIFEST, "(forall x (exists y (rel < x y)))", "--budget", "3"], 4, 3),
    ],
    ids=["recognize", "query"],
)
def test_state_budget_exit_prints_json(argv, states, budget, capsys):
    # a state-budget exit is one JSON object like every other --json answer
    code, out = run_cli(argv + ["--json"], capsys)
    assert code == 3
    assert json.loads(out) == {"verdict": "budget-exceeded", "states": states, "budget": budget}


@pytest.mark.parametrize(
    "argv, err",
    [
        (["recognize", MIXED_MANIFEST, "--budget", "20"], "grew to 21 states, budget 20"),
        (["tm", "wf-check", "builtin:comparator", "--word-len", "40"],
         "grew to 2199023255600 fragment elements, budget 1000000"),
        (["hopda", "run", "builtin:omega", "aaaa", "--budget", "2"], "grew to 3 configurations, budget 2"),
    ],
    ids=["states", "fragment-elements", "configurations"],
)
def test_a_budget_exit_names_what_it_counted(argv, err, capsys):
    # stderr names the unit counted; the --json object keeps its `states` key
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"budget-exceeded: {err}\n")


def test_recognize_max_levels_stops_one_level_short(capsys):
    # omega_cube condenses three times: --max-levels 3 gives the verdict,
    # and 2 stops at level 3 with the budget exit code
    manifest = str(Path(__file__).resolve().parent.parent / "corpus" / "omega_cube" / "omega_cube.manifest")
    assert run_cli(["recognize", manifest, "--max-levels", "2"], capsys) == (3, "budget-exceeded level=3\n")
    assert run_cli(["recognize", manifest, "--max-levels", "3"], capsys) == (0, "well-order w^3\n")


@pytest.mark.parametrize("name, level", [("dense", 0), ("binlex", 1)])
def test_recognize_json_names_the_dense_fixpoint_level(name, level, capsys):
    # the --json evidence of a dense order is the level where in_class is
    # first empty: dense at level 0, binlex after one quotient
    manifest = str(Path(__file__).resolve().parent.parent / "corpus" / name / f"{name}.manifest")
    code, out = run_cli(["recognize", manifest, "--json"], capsys)
    assert code == 1
    assert json.loads(out) == {"evidence": f"dense-fixpoint level={level}", "verdict": "not-well-order"}


def test_tm_build_rpi_on_non_binary_tapes_is_malformed_input(capsys):
    assert main(["tm", "build-rpi", "builtin:copy"]) == 4
    assert "binary symbols 0 and 1" in capsys.readouterr().err


def test_tm_build_rpi_counts_the_transition_index(monkeypatch, capsys):
    # the count is read from the relation's index: the frozenset of its
    # triples is never built
    built = []
    build = cli.tmmod.build_rpi
    monkeypatch.setattr(cli.tmmod, "build_rpi", lambda *args, **kw: built.append(build(*args, **kw)) or built[-1])
    code, out = run_cli(["tm", "build-rpi", "builtin:comparator", "--json"], capsys)
    assert code == 0
    assert json.loads(out) == {"states": 1746, "transitions": 106037}
    assert "transitions" not in built[0].relation.__dict__


def test_tm_step_automaton_counts_its_transitions(capsys):
    aut = cli.tmmod.step_relation_automaton(cli.tmmod.increment_machine())
    code, out = run_cli(["tm", "step-automaton", "builtin:increment"], capsys)
    assert code == 0
    assert out == f"step automaton: {aut.n_states} states, {len(aut.transitions)} transitions\n"


def test_hopda_run(capsys):
    assert run_cli(["hopda", "run", "builtin:anbn", "aabb"], capsys)[0] == 0
    assert run_cli(["hopda", "run", "builtin:anbn", "aab"], capsys)[0] == 1


def test_hopda_graph_and_dot(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    code, out = run_cli(
        ["hopda", "contract", "builtin:omega2", "--budget", "50", "--dot", str(dot)], capsys
    )
    assert code == 0
    assert dot.read_text(encoding="utf-8").startswith("digraph")


def test_hopda_contract_without_eps_edges(capsys):
    # the omega machine has no eps rules, so its contraction is its graph
    want = (0, "contract: 1000 vertices, 999 edges (partial)\n")
    assert run_cli(["hopda", "contract", "builtin:omega"], capsys) == want
    assert run_cli(["hopda", "graph", "builtin:omega"], capsys) == (0, want[1].replace("contract", "graph"))


def test_hopda_unfold_holds_at_most_budget_vertices(capsys):
    # the omega2 tree doubles every two levels: 28,642 paths at depth 24
    assert run_cli(["hopda", "unfold", "builtin:omega2", "--depth", "24"], capsys) == (
        0, "unfold: 1000 vertices, 999 edges (partial)\n")


def test_hopda_unfold_of_a_whole_tree_is_not_partial(capsys):
    # the 1000-vertex graph is partial, but the 4 paths of length up to 3 are all there
    assert run_cli(["hopda", "unfold", "builtin:omega", "--depth", "3"], capsys) == (
        0, "unfold: 4 vertices, 3 edges\n")


def test_hopda_unfold_of_a_partial_graph_is_partial(capsys):
    # the graph stops at 5 vertices, so its unfolding to depth 10 does too
    assert run_cli(["hopda", "unfold", "builtin:omega", "--budget", "5", "--depth", "10"], capsys) == (
        0, "unfold: 5 vertices, 4 edges (partial)\n")


def test_unknown_subcommand_exit_2():
    assert main(["frobnicate"]) == 2


def test_saved_automata_byte_identical_across_hash_seeds(tmp_path):
    # state numbering must not depend on the per-process string hash seed
    p = corpus.omega_times_2()
    manifest = save_structure(p.structure, tmp_path)
    env_base = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
                "PATH": "/usr/bin:/bin"}
    outputs = []
    for seed in ("1", "31337"):
        out_file = tmp_path / f"q_{seed}.aut"
        got = subprocess.run(
            [sys.executable, "-m", "wob.cli", "query", manifest,
             "(exists y (rel < y x))", "--out", str(out_file)],
            capture_output=True, env={**env_base, "PYTHONHASHSEED": seed},
        )
        assert got.returncode == 0, got.stderr
        outputs.append(out_file.read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_entrypoint_subprocess(tmp_path):
    env = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    got = subprocess.run(
        [sys.executable, "-m", "wob.cli", "ord", "cmp", "w", "5"],
        capture_output=True, text=True, env={**env, "PATH": "/usr/bin:/bin"},
    )
    assert got.returncode == 0
    assert got.stdout == "greater\n"


# SHA-256 of `wob recognize MANIFEST --trace` stdout (verdict plus every
# condensation level's saved domain and order automata) for each corpus
# manifest; any change to the recognizer's output shows here.
RECOGNIZE_TRACE_SHA256 = {
    "binlex": "6cf8cd6487d0c69f23f931303d1b8cede76ebfa866ca304465bd74506b86fcae",
    "dense": "6342de212c2855f30e105a41e27e0692c5756c3c01818d72dd9b9a42d187f522",
    "mixed": "74cb74c160570572a7cad59b37e053768d85d3950bec354d13943bd97b6b79fe",
    "omega": "23d874c326244d951dd6d77b351995fb33ab5a250178dfc958c40f463a431c1b",
    "omega2p3": "dc933e757fb05032c5c1a87f8bc77ca72367c395e9702b7dd8bfcad01caa4153",
    "omega_bin": "7cb7e6828b022183d46c36f77849e9254e616b7eb33cfae55692903d08145a65",
    "omega_cube": "3f12a5aa811e752f153a6419918a99014792ea6d1322dc56941fffcd9872086f",
    "omega_plus_one": "fbbf85a5964e3f518d1248d60c2df752fa08bdfea26925f071b7f96f10d06616",
    "omega_plus_rev": "8f48085fe67009f183a3fbcaeeb9113b0ab63362951d0b7f5084fbfc609e21db",
    "omega_sq": "367fecc87ea250a5bcabf338c3121c67f1ee5deeb0bda67632f67eb420ebfc94",
    "omega_times_2": "63a6cbd48b39ab9f938b3ad39c68e1bcbeb72f14dcd29331339158d03087e206",
    "twelve": "80c5d9a677f3462770352489be47bdbba2e5cc315bb7d7a00c0ba68ebfbeb22f",
    "w4p2": "49f7ae92e2093b796d0a034efd81d4daf343246016bfc8fcbfcf3020d73ebe59",
    "wsq_p1": "b967e9982df3eaec1f12c928904c85e9c3da80fa11d2f701f3cd66a2745de201",
    "zline": "3c2c7ffcb9ac46fa1ee329aa7ed68c35e73bdc4f08253682c2b2d04a437d9c2e",
}


@pytest.mark.parametrize("name", sorted(RECOGNIZE_TRACE_SHA256))
def test_recognize_trace_output_pinned(name, capsys):
    manifest = Path(__file__).resolve().parent.parent / "corpus" / name / f"{name}.manifest"
    main(["recognize", str(manifest), "--trace"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == RECOGNIZE_TRACE_SHA256[name]


def test_recognize_trace_output_pinned_at_the_level_cap(capsys):
    # the cap's exit dumps the levels it condensed, 0 to 2, and names the next
    manifest = Path(__file__).resolve().parent.parent / "corpus" / "omega_cube" / "omega_cube.manifest"
    assert main(["recognize", str(manifest), "--trace", "--max-levels", "2"]) == 3
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith(";")] == [f"; condensation level {i}" for i in range(3)]
    assert out.endswith("\nbudget-exceeded level=3\n")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == "ec8e8b9309d9fc817be519dbf39edff0e87a3cc3216117a256b8043fc565d8d7"


def test_internal_error_is_not_a_verdict(tmp_path, capsys, monkeypatch):
    # an exception that is not a WobError must map to the internal-error
    # code, not to 1 ("false")
    def broken(text):
        raise RuntimeError("parser bug")

    monkeypatch.setattr(cli, "parse_formula", broken)
    manifest = save_structure(corpus.omega_unary().structure, tmp_path)
    code, out = run_cli(["query", manifest, "(exists x (rel < x x))"], capsys)
    assert code == 5
    assert out == ""


def test_deep_formula_is_malformed_input(tmp_path, capsys):
    manifest = save_structure(corpus.omega_unary().structure, tmp_path)
    formula = "(not " * 1200 + "(rel < x x)" + ")" * 1200
    assert main(["query", manifest, formula]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nest deeper than 100" in captured.err


@pytest.mark.parametrize("op, last, verdict", [
    ("and", "(= x x)", (0, "true\n")),
    ("and", "(not (= x x))", (1, "false\n")),
    ("or", "(not (= x x))", (0, "true\n")),
])
def test_long_flat_connective_evaluates(op, last, verdict, capsys):
    # 1,200 operands at one parenthesis level: the formula is a balanced
    # tree, so neither free_vars nor the compiler recurse 1,200 deep
    manifest = str(Path(__file__).resolve().parent.parent / "corpus" / "omega" / "omega.manifest")
    formula = f"(exists x ({op} {'(= x x) ' * 1199}{last}))"
    assert run_cli(["query", manifest, formula], capsys) == verdict


@pytest.mark.parametrize("head", ["not", "forall x"])
def test_hundred_deep_formula_still_evaluates(head, tmp_path, capsys):
    # 99 nested operators around an atom: 100 levels of parentheses
    manifest = save_structure(corpus.omega_unary().structure, tmp_path)
    formula = f"(exists x {f'({head} ' * 98}(rel < x x){')' * 98})"
    assert run_cli(["query", manifest, formula], capsys) == (1, "false\n")


def test_tm_missing_file_is_malformed_input(tmp_path, capsys):
    code = main(["tm", "build-rpi", str(tmp_path / "missing.tm")])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: ")


def test_query_missing_manifest_is_malformed_input(tmp_path, capsys):
    code = main(["query", str(tmp_path / "missing.manifest"), "(exists x (rel < x x))"])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("formula", ["(eq (x) y)", "(llex x (y))"])
def test_query_non_symbol_argument_is_malformed_input(formula, capsys):
    manifest = Path(__file__).resolve().parent.parent / "corpus" / "omega" / "omega.manifest"
    assert main(["query", str(manifest), formula]) == 4
    assert capsys.readouterr().err.startswith("error: ")


def test_kreisel_compare_non_integer_is_usage_error(capsys):
    assert main(["pathology", "kreisel", "compare", "x", "3"]) == 2
    assert "'x'" in capsys.readouterr().err


def test_kreisel_pi0_except_non_integer_is_usage_error(capsys):
    assert main(["pathology", "kreisel", "--pi0", "builtin:except=z", "compare", "1", "2"]) == 2
    assert "'z'" in capsys.readouterr().err


def test_ord_fs_non_integer_is_usage_error(capsys):
    assert main(["ord", "fs", "w", "x"]) == 2
    assert "'x'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fgh", "eval", "--alpha", "w", "--x", "2", "--max-value", "inf"],
    ["fgh", "eval", "--alpha", "w", "--x", "2", "--max-steps", "nan"],
    ["fgh", "compare", "--alpha", "1", "--beta", "2", "--max-steps", "inf"],
])
def test_fgh_non_finite_budget_is_usage_error(argv, capsys):
    assert main(argv) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ord", "cmp", "w^" * 1000 + "2", "w"],
    ["ord", "cmp", "w^{" * 330 + "2" + "}" * 330, "w"],
    ["fgh", "eval", "--alpha", "w^" * 1000 + "2", "--x", "2"],
])
def test_deep_ordinal_is_malformed_input(argv, capsys):
    assert main(argv) == 4
    assert "nest deeper than 100" in capsys.readouterr().err


@pytest.mark.parametrize("tower", ["w^" * 100 + "2", "w^{" * 100 + "2" + "}" * 100])
def test_hundred_level_tower_still_compares(tower, capsys):
    assert run_cli(["ord", "cmp", tower, "w"], capsys) == (0, "greater\n")


def test_deep_hopda_level_is_malformed_input(tmp_path, capsys):
    anbn = Path(__file__).resolve().parent.parent / "corpus" / "machines" / "anbn.hopda"
    deep = tmp_path / "deep.hopda"
    deep.write_text(anbn.read_text().replace("level 1\n", "level 1500\n"))
    assert main(["hopda", "run", str(deep), "aabb"]) == 4
    assert "between 1 and 100" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, message",
    [("pds Z A\nbottom Z\n", "pds ZZ A\nbottom ZZ\n", "pds letter 'ZZ' is not a single character"),
     ("input a b\n", "input ab a b\n", "input letter 'ab' is not a single character")],
    ids=["pds", "input"],
)
def test_hopda_letter_of_two_characters_is_malformed_input(tmp_path, capsys, old, new, message):
    # WORD is read one character at a time, and a 0-pds is one letter, so a
    # longer letter is refused on load, never answered with a verdict
    anbn = Path(__file__).resolve().parent.parent / "corpus" / "machines" / "anbn.hopda"
    text = anbn.read_text()
    assert old in text
    machine = tmp_path / "long.hopda"
    machine.write_text(text.replace(old, new))
    assert main(["hopda", "run", str(machine), "ab"]) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("push", ["push1(A", "push1(A)))"], ids=["unclosed", "overclosed"])
def test_hopda_push_must_be_written_exactly(tmp_path, capsys, push):
    # a push is push<k>(<letter>) and nothing near it: a parenthesis short
    # or over is refused on load, not read as push1(A)
    anbn = Path(__file__).resolve().parent.parent / "corpus" / "machines" / "anbn.hopda"
    text = anbn.read_text()
    assert "rule p a Z -> p push1(A)\n" in text
    machine = tmp_path / "push.hopda"
    machine.write_text(text.replace("rule p a Z -> p push1(A)\n", f"rule p a Z -> p {push}\n"))
    assert main(["hopda", "run", str(machine), "ab"]) == 4
    assert f"unknown operation {push!r}" in capsys.readouterr().err


def test_hopda_dot_escapes_quotes_in_labels(tmp_path, capsys):
    machine = tmp_path / "q.hopda"
    machine.write_text('hopda q\nlevel 1\ninput a "\npds Z "\nbottom Z\nstate s\n'
                       'rule s a Z -> s push1(")\nrule s " Z -> s noop\n')
    dot = tmp_path / "q.dot"
    assert main(["hopda", "graph", str(machine), "--budget", "3", "--dot", str(dot)]) == 0
    assert dot.read_text(encoding="utf-8") == (
        'digraph g {\n  n0 [label="s:[Z]" shape="box"];\n  n1 [label="s:[Z\\"]"];\n'
        '  n0 -> n0 [label="\\""];\n  n0 -> n1 [label="a"];\n}\n')


def test_manifest_relation_outside_the_domain_is_malformed_input(tmp_path, capsys):
    # a manifest is checked where it is parsed: llex on {a,b}* relates words
    # outside the domain a*
    alphabet = ("a", "b")
    files = {"bad_domain": corpus.run_block(alphabet, "a").domain, "bad_lt": au.llex_automaton(alphabet)}
    for name, aut in files.items():
        (tmp_path / f"{name}.aut").write_text(au.save_automaton(aut, name), encoding="utf-8")
    manifest = tmp_path / "bad.manifest"
    manifest.write_text("structure bad\ndomain bad_domain\nrelation < 2 bad_lt\n", encoding="utf-8")
    with pytest.raises(WobError, match="outside the domain"):
        load_structure(manifest)
    assert main(["recognize", str(manifest)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "outside the domain" in captured.err


def omega_declaring_arity_3(directory) -> Path:
    """A copy of corpus/omega in `directory` whose relation line reads
    `relation < 3 omega_lt`; returns its manifest."""
    directory.mkdir(exist_ok=True)
    for src in (CORPUS_DIR / "omega").iterdir():
        text = src.read_text(encoding="utf-8")
        (directory / src.name).write_text(text.replace("relation < 2 ", "relation < 3 "), encoding="utf-8")
    return directory / "omega.manifest"


def test_manifest_arity_must_be_the_automatons(tmp_path, capsys):
    # ARITY is checked against the automaton the line names, where the
    # manifest is parsed, and the error names the line
    manifest = omega_declaring_arity_3(tmp_path)
    assert manifest.read_text(encoding="utf-8").splitlines()[2] == "relation < 3 omega_lt"
    with pytest.raises(LoadError, match="line 3: relation '<' declared arity 3, automaton has 2"):
        load_structure(manifest)
    assert main(["recognize", str(manifest)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "line 3:" in captured.err


@pytest.mark.parametrize("argv", [
    ["ord", "pow", "w", "2"],
    ["fgh", "compare", "--alpha", "1", "--beta", "2", "--xs", ","],
    ["fgh", "compare", "--alpha", "1", "--beta", "2", "--xs", "3,,4"],
    ["fgh", "compare", "--alpha", "1", "--beta", "2", "--xs", ""],
    ["recognize", OMEGA_MANIFEST, "--trace", "--json"],
    ["tm", "check-reversible", "builtin:copy", "--out", "x"],
    ["tm", "build-rpi", "builtin:copy", "--word-len", "2"],
    ["hopda", "run", "builtin:omega", "a", "--dot", "x"],
    ["hopda", "graph", "builtin:omega", "a"],
    ["hopda", "contract", "builtin:omega", "--depth", "2"],
    ["pathology", "kreisel", "to-structure", "out", "--g-from-f", "2^n"],
    ["pathology", "omega1", "contract", "--x", "3"],
    ["pathology", "omega1", "--f", "3^n", "contract"],
    ["fgh"],
    ["pathology", "kreisel"],
])
def test_argument_the_action_does_not_read_is_usage_error(argv, capsys):
    # an argument no code reads, or a value that does not parse, would make
    # the answer mean something else; the parser refuses it
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: " in captured.err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["tm", "wf-check", "--help"]) == 0
    assert "--word-len" in capsys.readouterr().out


def test_omega1_contract_checks_the_system(monkeypatch, capsys):
    assert run_cli(["pathology", "omega1", "contract"], capsys) == (
        0, "contract ok: fs below limit and strictly increasing on 0..7\n")
    real = cli.pa.omega_plus_one_system

    def broken(spec):  # fs(w, n) stops increasing at n = 5
        ns = real(spec)
        return rebuilt(ns, fs=lambda lam, n: ns.fs(lam, min(n, 4)))

    monkeypatch.setattr(cli.pa, "omega_plus_one_system", broken)
    code, out = run_cli(["pathology", "omega1", "contract"], capsys)
    assert code == 1 and "n=5" in out


def test_hopda_run_honors_the_budget(capsys):
    assert main(["hopda", "run", "builtin:omega", "aaaa"]) == 1
    assert main(["hopda", "run", "builtin:omega", "aaaa", "--budget", "2"]) == 3
    assert "budget-exceeded: grew to 3 configurations, budget 2" in capsys.readouterr().err


def test_hopda_run_without_end_is_a_budget_exit(tmp_path, capsys):
    machine = tmp_path / "loop.hopda"
    machine.write_text("hopda loop\nlevel 1\ninput a\npds Z\nbottom Z\nstate s\nrule s eps Z -> s push1(Z)\n")
    assert main(["hopda", "run", str(machine), "a", "--budget", "50"]) == 3
    assert "budget 50" in capsys.readouterr().err


def test_tm_wf_check_dot_draws_the_fragment(tmp_path, capsys):
    dot = tmp_path / "fragment.dot"
    code, out = run_cli(["tm", "wf-check", "builtin:comparator", "--word-len", "2", "--run-len", "1",
                         "--dot", str(dot)], capsys)
    assert (code, out) == (0, "wf-check ok (38 elements, 34 edges)\n")
    lines = dot.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "digraph fragment {" and lines[-1] == "}"
    assert sum("[label=" in line for line in lines) == 38
    assert sum(" -> " in line for line in lines) == 34


@pytest.mark.parametrize("flag", ["--word-len", "--run-len"])
def test_tm_wf_check_past_the_state_budget_exits_3(flag, capsys):
    # 2^41 - 1 words, or as many run inputs, are counted against the
    # default budget before any is listed
    start = time.monotonic()
    code, out = run_cli(["tm", "wf-check", "builtin:comparator", flag, "40", "--json"], capsys)
    assert time.monotonic() - start < 5
    got = json.loads(out)
    assert (code, got["verdict"], got["budget"]) == (3, "budget-exceeded", 1000000)
    assert got["states"] >= 2 ** 41 - 1


@pytest.mark.parametrize("flag, length", [("--word-len", "14300"), ("--run-len", "100000000")])
def test_tm_wf_check_far_past_the_state_budget_exits_3_at_once(flag, length, capsys):
    # a fragment of 2^14301 - 1 words, or 4^100000001 run-input pairs, is
    # decided by bit length: no such int is built, and its count, past the
    # digits an int prints, is reported as budget + 1
    start = time.monotonic()
    code, out = run_cli(["tm", "wf-check", "builtin:comparator", flag, length, "--json"], capsys)
    assert time.monotonic() - start < 1
    assert code == 3 and len(out.splitlines()) == 1
    assert json.loads(out) == {"verdict": "budget-exceeded", "states": 1000001, "budget": 1000000}


def test_tm_wf_check_refuses_the_fragment_before_building_the_relation(monkeypatch, capsys):
    # the fragment's size is read from the two options alone, so the
    # relation is never built for a fragment past the budget
    def refuse(*args, **kw):
        raise AssertionError("build_rpi ran")

    monkeypatch.setattr(cli.tmmod, "build_rpi", refuse)
    code, out = run_cli(["tm", "wf-check", "builtin:comparator", "--word-len", "40", "--json"], capsys)
    assert code == 3
    assert json.loads(out) == {"verdict": "budget-exceeded", "states": 2199023255600, "budget": 1000000}


class ReadRecorder(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def leaf_actions(parser, path=(), dests=()):
    """(path, destinations) for each action that runs a handler; an option
    of a group belongs to every action below it."""
    subs = None
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            subs = action
        elif not isinstance(action, argparse._HelpAction):
            dests += (action.dest,)
    if subs is None:
        yield path, set(dests)
        return
    for name, child in subs.choices.items():
        yield from leaf_actions(child, path + (name,), dests)


# one run of each action that passes through its handler to a 0 exit
LEAF_RUNS = {
    ("query",): ["query", OMEGA_MANIFEST, "(exists x (= x x))"],
    ("recognize",): ["recognize", OMEGA_MANIFEST],
    ("chain",): ["chain", OMEGA_MANIFEST, "3"],
    ("ord", "add"): ["ord", "add", "1", "w"],
    ("ord", "mul"): ["ord", "mul", "2", "w"],
    ("ord", "cmp"): ["ord", "cmp", "2", "w"],
    ("ord", "fs"): ["ord", "fs", "w", "2"],
    ("ord", "pow"): ["ord", "pow", "2"],
    ("fgh", "eval"): ["fgh", "eval", "--alpha", "2", "--x", "2"],
    ("fgh", "compare"): ["fgh", "compare", "--alpha", "1", "--beta", "2"],
    ("pathology", "kreisel", "compare"): ["pathology", "kreisel", "compare", "1", "2"],
    ("pathology", "kreisel", "descend"): ["pathology", "kreisel", "--pi0", "builtin:except=2", "descend", "3", "2"],
    ("pathology", "kreisel", "to-structure"): ["pathology", "kreisel", "to-structure", "{tmp}"],
    ("pathology", "omega1", "fgh"): ["pathology", "omega1", "fgh"],
    ("pathology", "omega1", "contract"): ["pathology", "omega1", "contract"],
    ("tm", "step-automaton"): ["tm", "step-automaton", "builtin:increment"],
    ("tm", "check-reversible"): ["tm", "check-reversible", "builtin:increment"],
    ("tm", "build-rpi"): ["tm", "build-rpi", "builtin:comparator"],
    ("tm", "wf-check"): ["tm", "wf-check", "builtin:comparator", "--word-len", "1", "--run-len", "1"],
    ("hopda", "run"): ["hopda", "run", "builtin:anbn", "ab"],
    ("hopda", "graph"): ["hopda", "graph", "builtin:omega", "--budget", "5"],
    ("hopda", "contract"): ["hopda", "contract", "builtin:omega", "--budget", "5"],
    ("hopda", "unfold"): ["hopda", "unfold", "builtin:omega", "--budget", "5"],
    ("corpus",): ["corpus"],
}


def test_every_argument_of_an_action_is_read_by_its_handler(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_corpus", lambda seed: 0)
    leaves = dict(leaf_actions(cli.build_parser()))
    assert set(leaves) == set(LEAF_RUNS)
    unread = {}
    for path, argv in LEAF_RUNS.items():
        args = cli.build_parser().parse_args([a.format(tmp=tmp_path) for a in argv], namespace=ReadRecorder())
        reads = object.__getattribute__(args, "_reads")
        reads.clear()
        assert args.handler(args) == 0, argv
        if leaves[path] - reads:
            unread[path] = leaves[path] - reads
    capsys.readouterr()
    assert unread == {}


CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
MACHINES = CORPUS_DIR / "machines"
EDGE = ["-1", "", "x", "inf"]
SMALL = ["0", "1", "2", "3"]
ORDINALS = ["0", "3", "w", "w^2*2+1", "w^w", "e0", ""]
GROWTH = ["2^n", "n^2", "n", "2*n+1", "n+3", "0*n+0", "3^n", "", "x*n+1"]
BUDGETS = st.one_of(st.integers(1, 50).map(str), st.sampled_from(EDGE + ["0"]))
STEPS = ["1", "50", "1e3", "0", "nan"] + EDGE
# the --pi0 files the fuzz gives, with the exits each may give once the
# arguments parse: only an arity-1 automaton over 0 1 gets to a verdict
PI0_EXITS = {
    str(CORPUS_DIR / "omega_bin" / "omega_bin_domain.aut"): {0, 1},
    "{tmp}/pi0.aut": {0, 1},  # written by PI0_QUERY
    str(CORPUS_DIR / "omega" / "omega_domain.aut"): {4},
    str(CORPUS_DIR / "omega" / "omega_lt.aut"): {4},
    "{tmp}/missing.aut": {4},
}
# the query whose --out writes the fuzz's {tmp}/pi0.aut, an arity-1
# automaton over 0 1: the elements of omega_bin with a predecessor
PI0_QUERY = ["query", str(CORPUS_DIR / "omega_bin" / "omega_bin.manifest"), "(exists y (rel < y x))",
             "--out", "{tmp}/pi0.aut"]


def write_pi0_query(tmp):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([a.replace("{tmp}", str(tmp)) for a in PI0_QUERY]) == 0


# the manifests the fuzz gives as often as the corpus ones, with the exit
# each must give once the arguments parse: {tmp}/arity3 is made by
# `omega_declaring_arity_3`
MANIFEST_EXITS = {
    "{tmp}/arity3/omega.manifest": {4},
    "{tmp}/missing.manifest": {4},
}
FILE_EXITS = {**PI0_EXITS, **MANIFEST_EXITS}
CORPUS_MANIFESTS = sorted(str(p) for p in CORPUS_DIR.glob("*/*.manifest"))
# the formula files the fuzz gives `query`, one per battery text, the one
# drawn written where it is named; a sentence is drawn twice as often as
# a formula with free variables
FORMULA_FILES = {f"{{tmp}}/formulas/{i}.fo": text for i, text in enumerate(all_texts())}
SENTENCE_FILES = sorted(name for name, text in FORMULA_FILES.items() if not parse_formula(text).free_vars())
# the actions that read those files; at each level one of them is drawn
# half the time, so that a fixed share of the examples reaches a file
READS_FILES = {"query", "recognize", "chain", "pathology", "kreisel"}
# the values the fuzz gives each argument, by destination, or where one
# action takes values of its own by "COMMAND destination" (an option) or
# the action's path (its machine); {tmp} is a scratch directory, and the
# Turing machines are the small ones, because building the comparators'
# relation takes most of a second: only `tm wf-check`, which reads the
# relation without building it, is also given a comparator
SMALL_TMS = ["builtin:increment", "builtin:copy", str(MACHINES / "increment.tm"), str(MACHINES / "copy.tm"),
             "{tmp}/missing.tm"]
VALUES = {
    "manifest": st.one_of(st.sampled_from(CORPUS_MANIFESTS), st.sampled_from(sorted(MANIFEST_EXITS))),
    "formula": st.one_of(
        st.sampled_from(["(exists x (= x x))", "(forall x (exists y (rel < x y)))", "(exists y (rel < y x))",
                         "(rel < x", "(exists x (rel P x))", ""]),
        st.sampled_from(SENTENCE_FILES),
        st.sampled_from(SENTENCE_FILES),
        st.sampled_from(sorted(set(FORMULA_FILES) - set(SENTENCE_FILES))),
    ),
    # a budget that admits the verdict of every battery sentence on the corpus
    "query budget": st.one_of(BUDGETS, st.just("1000")),
    "left": ORDINALS, "right": ORDINALS, "alpha": ORDINALS, "beta": ORDINALS,
    "index": SMALL + EDGE, "x": SMALL + EDGE, "y": SMALL + EDGE, "start": SMALL + EDGE,
    "length": SMALL + EDGE, "depth": SMALL + EDGE, "max_levels": SMALL + EDGE, "count": SMALL + EDGE,
    # 40 puts a wf-check fragment past the state budget, refused before
    # the relation is read; 14300 puts its count past the digits an int prints
    "word_len": ["0", "1", "2", "40", "14300"] + EDGE, "run_len": ["0", "1", "2", "40", "14300"] + EDGE,
    "budget": BUDGETS, "max_steps": STEPS, "max_value": STEPS,
    "xs": ["3", "2,3", ",", "3,,4", "-1", "x", ""],
    "system": ["std", "shifted", "x"], "system2": ["std", "shifted", "x"],
    "pi0": ["builtin:true", "builtin:empty", "builtin:except=2", "builtin:except=-1", "builtin:except="]
    + sorted(PI0_EXITS),
    "f": GROWTH, "g_from_f": GROWTH,
    "out": ["{tmp}/out", "{tmp}", ""], "dot": ["{tmp}/out", "{tmp}", ""], "outdir": ["{tmp}/kreisel"],
    "word": ["", "a", "ab", "aabb", "ba", "c"],
    "tm": SMALL_TMS,
    "tm wf-check": st.one_of(st.sampled_from(SMALL_TMS), st.just("builtin:comparator")),
    "hopda": sorted(cli.HOPDA_BUILTINS) + sorted(str(p) for p in MACHINES.glob("*.hopda")),
}
# cost bounds the fuzz always sets, so that every run is small, and the
# --pi0 file of a kreisel action
ALWAYS = {"budget", "max_steps", "max_value", "pi0"}
# the action a quarter of the draws go to, whatever the drawn names: drawn
# uniformly, `tm wf-check` is 2% of the examples, and with it the one
# comparator the fuzz reads; this way it is about one in eight
FAVOURED = ["tm", "wf-check"]


@st.composite
def cli_argv(draw):
    """An argv for one action, `corpus` apart: each level's options, then
    an action name, down to a leaf's positionals; sometimes a flag of
    another action."""
    parser, argv = cli.build_parser(), []
    route = iter(FAVOURED if draw(st.integers(0, 3)) == 0 else ())
    while True:
        sub = None
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                sub = action
            elif isinstance(action, argparse._HelpAction):
                continue
            elif not action.option_strings:
                key = action.dest
                if key == "machine":  # tm or hopda, or an action with machines of its own
                    key = " ".join(argv) if " ".join(argv) in VALUES else argv[0]
                if action.nargs != "?" or draw(st.booleans()):
                    argv.append(draw(_values(key)))
            elif action.dest in ALWAYS or draw(st.booleans()):
                argv += _option(draw, action, argv[0] if argv else "")
        if sub is None:
            break
        names = sorted(set(sub.choices) - {"corpus"})
        readers = [n for n in names if n in READS_FILES]
        name = next(route, None) or draw(st.sampled_from(readers if readers and draw(st.booleans()) else names))
        argv.append(name)
        parser = sub.choices[name]
    if draw(st.integers(0, 4)) == 0:
        argv += _option(draw, ALL_OPTIONS[draw(st.sampled_from(sorted(ALL_OPTIONS)))])
    return argv


def _option(draw, action, command="") -> list:
    if action.nargs == 0:
        return [action.option_strings[0]]
    key = f"{command} {action.dest}"
    return [action.option_strings[0], draw(_values(key if key in VALUES else action.dest))]


def _values(key):
    pool = VALUES[key]
    return pool if isinstance(pool, st.SearchStrategy) else st.sampled_from(pool)


def parsers(parser):
    """The parser and every parser below it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from parsers(child)


# every option of every action but `corpus --seed`
ALL_OPTIONS = {
    action.option_strings[0]: action
    for parser in parsers(cli.build_parser())
    for action in parser._actions
    if action.option_strings and not isinstance(action, argparse._HelpAction) and action.dest != "seed"
}


@functools.lru_cache(maxsize=None)
def query_exits(manifest, text):
    """The exits `query MANIFEST FILE` without --out may give: 2 when the
    formula has free variables, else the sentence's verdict (0 true,
    1 false) or 3 when the budget is too small for it."""
    f = parse_formula(text)
    if f.free_vars():
        return {2}
    return {0 if eval_sentence(load_structure(manifest), f) else 1, 3}


def parsed(argv):
    """The namespace of an argv that parses, else None."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit:
            return None


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_cli_fuzz_exits_with_a_code_that_means_what_it_says(tmp_path_factory, data):
    # any argv: a documented exit code, never a traceback, and under
    # --json one JSON object for every exit that is not a usage error
    tmp = tmp_path_factory.mktemp("fuzz")
    omega_declaring_arity_3(tmp / "arity3")
    drawn = data.draw(cli_argv())
    argv = [a.replace("{tmp}", str(tmp)) for a in drawn]
    formulas = set(drawn) & set(FORMULA_FILES)
    for name in formulas:
        (tmp / "formulas").mkdir(exist_ok=True)
        Path(name.format(tmp=tmp)).write_text(FORMULA_FILES[name], encoding="utf-8")
    if PI0_QUERY[-1] in drawn:
        write_pi0_query(tmp)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(5), (argv, err.getvalue())
    if code != 2:
        for name in set(drawn) & set(FILE_EXITS):
            assert code in FILE_EXITS[name], (argv, err.getvalue())
    args = parsed(argv) if formulas or "wf-check" in argv else None
    if args is not None and args.command == "query" and not args.out and args.manifest in CORPUS_MANIFESTS:
        text = FORMULA_FILES.get(args.formula.replace(str(tmp), "{tmp}"))
        if text is not None:
            assert code in query_exits(args.manifest, text), (argv, err.getvalue())
    if args is not None and args.command == "tm" and args.action == "wf-check" and max(args.word_len, args.run_len) >= 40:
        # a fragment of 2^41 - 1 words or more: past the state budget once
        # the machine loads, whatever the machine
        assert code == (4 if args.machine.endswith("missing.tm") else 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue() and "internal-error" not in err.getvalue(), argv
    if "--json" in argv and code != 2:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict), (argv, out.getvalue())
