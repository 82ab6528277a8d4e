import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
