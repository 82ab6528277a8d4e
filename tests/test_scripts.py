import ast
import importlib.util
import re
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_build_corpus_reproduces_committed_corpus(tmp_path):
    spec = importlib.util.spec_from_file_location("build_corpus", ROOT / "scripts" / "build_corpus.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main(tmp_path)
    committed = ROOT / "corpus"
    want = sorted(p.relative_to(committed) for p in committed.rglob("*") if p.is_file())
    got = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    assert got == want
    for rel in want:
        assert (tmp_path / rel).read_bytes() == (committed / rel).read_bytes(), rel


def test_domination_report_lines(capsys):
    load_script("domination_report").main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["bachmann[standard] on w^2: ok", "bachmann[shifted] on w^2: ok"]
    rows = lines[2:-1]
    assert len(rows) == 9  # alpha in {1, 2} against every larger listed beta
    for row in rows:
        head, points = row.split(": ", 1)
        assert re.fullmatch(r"F\[std\]_\S+ vs F\[shifted\]_\S+", head), row
        assert points == "x=3:lt x=4:lt x=5:lt x=6:lt", row
    assert lines[-1].startswith("note: pointwise samples only")


def test_line_counts_split_each_line_once(tmp_path, capsys):
    sample = tmp_path / "sample.py"
    sample.write_text('"""Module doc\nover two lines."""\n\n# a comment\nx = 1  # trailing\n\n\n'
                      'def f():\n    """One line."""\n    s = """not a\ndoc"""\n    return s\n')
    script = load_script("line_counts")
    assert script.split(sample) == {"code": 5, "docstring": 3, "comment": 1, "blank": 3}
    sources = sorted(str(p) for p in (ROOT / "src" / "wob").glob("*.py"))
    assert script.main(sources) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == len(sources) + 1
    for path, line in zip(sources, rows):
        n = len(Path(path).read_text().splitlines())
        assert line.startswith(f"{path}: {n} lines, code "), line
        assert sum(map(int, re.findall(r" (\d+)(?:,|$)", line.split("lines, ")[1]))) == n, line


def test_the_workflow_runs_each_gate_once():
    # a gate lives in scripts/gates.py alone, and CI runs each by name
    gates = load_script("gates")
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert "<<'PY'" not in workflow
    assert sorted(re.findall(r"python scripts/gates\.py (\w+)", workflow)) == sorted(gates.GATES)


def test_gates_parse_as_python_3_10():
    # CI runs the gates on Python 3.10 to 3.13
    ast.parse((ROOT / "scripts" / "gates.py").read_text(), feature_version=(3, 10))


def _gate_passes():
    print("passed")


def _gate_fails():
    raise AssertionError("bound exceeded")


def _gate_hangs():
    time.sleep(60)


def test_gate_runner_names_the_first_gate_that_fails(monkeypatch, capfd):
    gates = load_script("gates")
    monkeypatch.setattr(gates, "GATES", {"passes": (_gate_passes, 30), "fails": (_gate_fails, 30),
                                         "hangs": (_gate_hangs, 1)})
    assert gates.main([]) == 1
    out, err = capfd.readouterr()
    assert re.fullmatch(r"passed\ngate passes: \d+\.\d s of 30 s\n", out)
    assert "AssertionError: bound exceeded" in err
    assert re.search(r"^gate fails failed: exit 1 after \d+\.\d s$", err, re.M)
    assert "hangs" not in out + err
    start = time.perf_counter()
    assert gates.main(["hangs", "passes"]) == 1
    assert time.perf_counter() - start < 30
    out, err = capfd.readouterr()
    assert (out, err) == ("", "gate hangs failed: timed out at 1 s\n")
    assert gates.main(["passes", "nope"]) == 2
    assert capfd.readouterr().err == "no gate named nope; the gates are passes, fails, hangs\n"
