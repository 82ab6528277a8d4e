import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from wob import automata as au
from wob import cli, corpus
from wob.cli import main
from wob.errors import WobError
from wob.logic import load_structure, save_structure


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


def test_pathology_omega1(capsys):
    code, out = run_cli(["pathology", "omega1", "--f", "2^n", "fgh", "--x", "3"], capsys)
    assert code == 0
    assert ">= 8" in out


def test_tm_check_reversible(capsys):
    code, out = run_cli(["tm", "check-reversible", "builtin:comparator"], capsys)
    assert (code, out) == (0, "reversible\n")


def test_tm_wf_check(capsys):
    code, out = run_cli(
        ["tm", "wf-check", "builtin:comparator", "--word-len", "2", "--run-len", "1"], capsys
    )
    assert code == 0
    assert out.startswith("wf-check ok")


@pytest.mark.parametrize("flag", ["--word-len", "--run-len"])
def test_tm_negative_length_is_usage_error(flag, capsys):
    assert main(["tm", "wf-check", "builtin:comparator", flag, "-1"]) == 2
    assert f"{flag} must not be negative" in capsys.readouterr().err


OMEGA_MANIFEST = str(Path(__file__).resolve().parent.parent / "corpus" / "omega" / "omega.manifest")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["recognize", OMEGA_MANIFEST, "--budget", "-5"], "--budget must be at least 1"),
        (["recognize", OMEGA_MANIFEST, "--budget", "0"], "--budget must be at least 1"),
        (["recognize", OMEGA_MANIFEST, "--max-levels", "-1"], "--max-levels must be at least 0"),
        (["query", OMEGA_MANIFEST, "(exists x (= x x))", "--budget", "-5"], "--budget must be at least 1"),
        (["fgh", "eval", "--alpha", "2", "--x", "-3"], "--x must be at least 0"),
        (["fgh", "compare", "--alpha", "2", "--beta", "3", "--xs", "-1"], "--xs must be at least 0"),
        (["ord", "fs", "w", "-1"], "the fs index must be at least 0"),
        (["pathology", "kreisel", "--pi0", "builtin:except=-2", "compare", "1", "2"], "builtin:except=N must be at least 0"),
        (["pathology", "omega1", "fgh", "--x", "-1"], "--x must be at least 0"),
        (["pathology", "kreisel", "compare", "-1", "2"], "X must be at least 0"),
        (["pathology", "kreisel", "descend", "3", "-5"], "LEN must be at least 0"),
        (["pathology", "kreisel", "descend", "3", "0"], "LEN must be at least 1"),
        (["hopda", "graph", "builtin:omega", "--budget", "-1"], "--budget must be at least 1"),
        (["hopda", "graph", "builtin:omega", "--depth", "-1"], "--depth must be at least 0"),
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


def test_tm_build_rpi_on_non_binary_tapes_is_malformed_input(capsys):
    assert main(["tm", "build-rpi", "builtin:copy"]) == 4
    assert "binary symbols 0 and 1" in capsys.readouterr().err


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


def test_unknown_subcommand_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


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


def test_manifest_relation_outside_the_domain_is_malformed_input(tmp_path, capsys):
    # a manifest is checked where it is parsed: llex on {a,b}* relates words
    # outside the domain a*
    alphabet = ("a", "b")
    files = {"bad_domain": corpus.star_lang(alphabet, "a"), "bad_lt": au.llex_automaton(alphabet)}
    for name, aut in files.items():
        (tmp_path / f"{name}.aut").write_text(au.save_automaton(aut, name), encoding="utf-8")
    manifest = tmp_path / "bad.manifest"
    manifest.write_text("structure bad\ndomain bad_domain\nrelation < 2 bad_lt\n", encoding="utf-8")
    with pytest.raises(WobError, match="outside the domain"):
        load_structure(manifest)
    assert main(["recognize", str(manifest)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "outside the domain" in captured.err
