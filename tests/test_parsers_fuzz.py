"""The text parsers at the trust boundary.  The four file formats read
their lines through one reader, which takes each header directive exactly
once.  Mutation fuzzing: whatever a file or argument holds, a parser
returns a value or raises a WobError, never anything else."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formula_battery import all_texts
from wob import automata as au
from wob import hopda as ho
from wob import logic
from wob import ordinals as o
from wob import tm as tmmod
from wob.errors import LoadError, WobError

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
MACHINES = CORPUS_DIR / "machines"

# pieces a mutation splices in: the syntax of every format, numbers that
# are negative, huge or not decimal, and characters that look like digits
PIECES = (
    "(", ")", "{", "}", ",", "#", "->", ";", "^", "*", "+", "w", "_", "a", "0", "1", "-1", "00",
    "99999999999999999999", "1e9", "²", "٣", "é", "\t", " ", "\n", "\x00",
    "trans", "state", "accept", "rule", "push1(A)", "pop2", "relation", "domain", "rel", "exists", "existsinf",
)


@st.composite
def mutated(draw, seeds):
    """One of `seeds` after one to four deletions, insertions or duplications."""
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        kind = draw(st.sampled_from(["delete", "insert", "duplicate"]))
        if kind == "delete":
            text = text[:i] + text[j:]
        elif kind == "insert":
            text = text[:i] + draw(st.sampled_from(PIECES)) + text[i:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


def _texts(pattern):
    return [path.read_text(encoding="utf-8") for path in sorted(CORPUS_DIR.glob(pattern))]


# every corpus automaton by name, so a mutated manifest may mix presentations
AUTOMATA = {path.stem: au.load_automaton(path)[1] for path in sorted(CORPUS_DIR.glob("*/*.aut"))}


def _lookup(name):
    if name not in AUTOMATA:
        raise LoadError(f"no automaton {name!r}")
    return AUTOMATA[name]


ORDINALS = ["0", "7", "w", "w+1", "w*2+3", "w^2*2+w*3+4", "w^w", "w^{w+1}*2+w^3", "w^w^2+5", "w^{w^{w}}"]

PARSERS = {
    "automaton": (au.parse_automaton, _texts("*/*_domain.aut")[:4] + _texts("omega/*_lt.aut")),
    "manifest": (lambda text: logic.parse_manifest(text, _lookup), _texts("*/*.manifest")[:4]),
    "tm": (tmmod.parse_tm, [(MACHINES / name).read_text(encoding="utf-8") for name in ("increment.tm", "copy.tm")]),
    "hopda": (ho.parse_hopda, _texts("machines/*.hopda")),
    "formula": (logic.parse_formula, all_texts()),
    "ordinal": (o.parse, ORDINALS),
}


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_parsers_raise_only_wob_errors(name):
    parse, seeds = PARSERS[name]
    for seed in seeds:
        parse(seed)  # every seed is valid

    @settings(max_examples=120, deadline=None, database=None)
    @given(mutated(seeds))
    def check(text):
        try:
            parse(text)
        except WobError:
            pass

    check()


def test_decimal_digits_only_in_ordinals():
    # "²" passes str.isdigit but not int(): it is a malformed ordinal, not a crash
    for text in ("²", "w^²", "w*2²", "1²"):
        with pytest.raises(LoadError):
            o.parse(text)
    assert o.parse("w*٣") == o.parse("w*3")


# a corpus file of each format and its header directives
HEADERS = {
    "automaton": ("omega/omega_lt.aut", ("automaton", "arity", "alphabet", "states", "initial", "accepting")),
    "manifest": ("omega/omega.manifest", ("structure", "domain")),
    "tm": ("machines/increment.tm", ("tm", "tapes", "blank")),
    "hopda": ("machines/anbn.hopda", ("hopda", "level", "input", "pds", "bottom")),
}


@pytest.mark.parametrize("name", sorted(HEADERS))
def test_header_directives_appear_exactly_once(name):
    parse = PARSERS[name][0]
    path, directives = HEADERS[name]
    lines = (CORPUS_DIR / path).read_text(encoding="utf-8").splitlines(keepends=True)
    parse("".join(lines))
    for directive in directives:
        i = next(i for i, line in enumerate(lines) if line.split()[0] == directive)
        repeated = lines[: i + 1] + lines[i:]
        with pytest.raises(LoadError, match=rf"^line {i + 2}: repeated header directive '{directive}'"):
            parse("".join(repeated))
        with pytest.raises(LoadError, match=rf"^missing header directive {directive}$"):
            parse("".join(lines[:i] + lines[i + 1 :]))


def test_manifest_relation_declared_once():
    parse = PARSERS["manifest"][0]
    text = (CORPUS_DIR / "omega" / "omega.manifest").read_text(encoding="utf-8")
    with pytest.raises(LoadError, match=r"^line 4: relation '<' declared twice"):
        parse(text + "relation < 2 omega_lt\n")


def test_fault_in_a_referenced_file_keeps_its_own_line(tmp_path):
    for path in (CORPUS_DIR / "omega").iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    lt = tmp_path / "omega_lt.aut"
    lt.write_text(lt.read_text(encoding="utf-8").replace("arity 2", "arity two"), encoding="utf-8")
    with pytest.raises(LoadError, match=r"^line 2: cannot parse 'arity two'"):
        logic.load_structure(tmp_path / "omega.manifest")


def test_one_function_splits_lines():
    # the line syntax and its error policy live in one reader
    root = Path(__file__).resolve().parent.parent / "src" / "wob"
    splitters = [
        f"{path.stem}.{fn.name}"
        for path in sorted(root.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "splitlines"
    ]
    assert splitters == ["errors.read_directives"]


def test_corpus_files_are_saved_forms_of_what_they_parse_to(tmp_path):
    # parsing a committed file and saving the result gives the file back
    for path in sorted(CORPUS_DIR.glob("*/*.aut")):
        text = path.read_text(encoding="utf-8")
        name, aut = au.parse_automaton(text)
        assert au.save_automaton(aut, name) == text, path
    for path in sorted(MACHINES.glob("*.tm")):
        text = path.read_text(encoding="utf-8")
        assert tmmod.save_tm(tmmod.parse_tm(text)) == text, path
    for path in sorted(MACHINES.glob("*.hopda")):
        text = path.read_text(encoding="utf-8")
        assert ho.save_hopda(ho.parse_hopda(text)) == text, path
    manifests = sorted(CORPUS_DIR.glob("*/*.manifest"))
    assert len(manifests) == 15
    for path in manifests:
        saved = Path(logic.save_structure(logic.load_structure(path), tmp_path / path.parent.name)).parent
        files = sorted(p.name for p in saved.iterdir())
        assert files == sorted(p.name for p in path.parent.iterdir()), path
        for file in files:
            assert (saved / file).read_bytes() == (path.parent / file).read_bytes(), file


# the directives whose line has a fixed number of words, by format
FIXED_WORDS = {
    ".aut": {"automaton", "arity", "states", "initial"},
    ".manifest": {"structure", "domain", "relation"},
    ".tm": {"tm", "tapes", "blank", "state"},
    ".hopda": {"hopda", "level", "bottom", "state"},
}


def _parse_file(path, text):
    return {
        ".aut": au.parse_automaton,
        ".manifest": PARSERS["manifest"][0],
        ".tm": tmmod.parse_tm,
        ".hopda": ho.parse_hopda,
    }[path.suffix](text)


def test_a_word_too_many_is_a_load_error():
    # `tapes 1 9`, `level 1 2`, `state done acept` and `relation < 2 lt x`
    # are malformed lines, not the line without its last word
    checked = set()
    for path in sorted(CORPUS_DIR.glob("*/*")):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        _parse_file(path, "".join(lines))
        for i, line in enumerate(lines):
            if line.split()[0] in FIXED_WORDS[path.suffix]:
                checked.add((path.suffix, line.split()[0], len(line.split())))
                longer = lines[:i] + [line.rstrip("\n") + " extra\n"] + lines[i + 1 :]
                with pytest.raises(LoadError, match=rf"^line {i + 1}: "):
                    _parse_file(path, "".join(longer))
    # every directive of the table, and both forms of a state line, were met
    assert {(suffix, kind) for suffix, kind, _n in checked} == {(s, k) for s, kinds in FIXED_WORDS.items() for k in kinds}
    assert {(".tm", "state", 2), (".tm", "state", 3), (".hopda", "state", 2), (".hopda", "state", 3)} <= checked


def test_a_state_line_is_a_name_and_perhaps_accept():
    text = (MACHINES / "increment.tm").read_text(encoding="utf-8")
    accepting = next(line for line in text.splitlines() if line.startswith("state") and line.endswith(" accept"))
    with pytest.raises(LoadError, match=r"expected NAME or NAME accept"):
        tmmod.parse_tm(text.replace(accepting, accepting[: -len("accept")] + "acept"))
