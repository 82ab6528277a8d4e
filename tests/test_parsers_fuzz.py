"""Mutation fuzzing of the text parsers: whatever a file or argument holds,
a parser returns a value or raises a WobError, never anything else."""

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
