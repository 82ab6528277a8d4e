"""Turing-machine configuration graphs as automatic relations, the
reversibility check, and the well-founded relation built from a reversible
comparator for the Kreisel reordering.

A configuration is serialized as a single word: one state token followed by
one packed token per tape column.  A column token of a K-tape machine is
2K characters: the K cell symbols, then K head-flag bits.  Tapes are
right-infinite with a left end-marker in column 0; transitions reading the
marker must rewrite it and move right, so the serialization never grows on
the left and a machine step only edits a bounded window, which is what
makes the one-step relation synchronous-automaton recognizable.

A set of tapes, such as the heads on a column, is an int mask, bit i for
tape i.  Each column token is read from one mask table, `TmSpec._token_of`,
keyed by (cells, head mask); a run re-tokenises the columns a step touched.
While every head is on one column and the transition moves them all one
way, the step is read from one step table, `TmSpec._joint_steps`, keyed
by the state and the column's cells (never by its token, which a foreign
cell can make ambiguous); any other step is made by `_move`.
A run has no step cap: the tokens of the configuration words it lists
count against the state budget (`automata.state_budget`), so a machine
that does not halt ends in StateBudgetExceeded.

Every automaton here is a graph, a (start, accepting, moves) triple that
`automata.build` numbers, trims and validates in one pass.  The relation
and the domain of the RPI structure are each a tagged sum of such graphs
(`_tagged`): binary words carry the tag W and configurations the tag C,
and the sum's start state reads the tag letters.  The relation is read
through `automata.reader` over its sum, which fills only the rows the
reads reach; the relation and the domain are each one build of their
sum, made when something reads their bytes or their counts.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property
from typing import Optional, Sequence

from . import automata as au
from .automata import PAD, Automaton
from .errors import (
    InvalidTm,
    LoadError,
    NotReversible,
    StateBudgetExceeded,
    WobError,
    one_word,
    read_directives,
    state_line,
)
from .records import record

MARKER = ">"
WORD_TAG = "W"
CONF_TAG = "C"
_TAPES = tuple(tuple(i for i in range(3) if m >> i & 1) for m in range(8))  # tape mask -> its tapes, of at most 3


@record
class TmSpec:
    name: str
    tapes: int
    blank: str
    states: tuple  # declaration order; first is initial
    accepting: frozenset
    transitions: dict  # (state, reads) -> (state, ((write, move), ...))

    def __post_init__(self):
        if not (1 <= self.tapes <= 3):
            raise InvalidTm("tape count must be between 1 and 3")
        if len(self.blank) != 1 or self.blank == MARKER:
            raise InvalidTm("blank must be a single non-marker character")
        if not self.states:
            raise InvalidTm("need at least one state")
        if len(set(self.states)) != len(self.states):
            raise InvalidTm("duplicate state names")
        for st in self.states:
            if st in (WORD_TAG, CONF_TAG):
                raise InvalidTm(f"state name {st!r} is reserved")
        if not self.accepting <= set(self.states):
            raise InvalidTm("accepting states must be declared")
        for (q, reads), (q2, actions) in self.transitions.items():
            if q not in self.states or q2 not in self.states:
                raise InvalidTm(f"unknown state in transition {q}->{q2}")
            if len(reads) != self.tapes or len(actions) != self.tapes:
                raise InvalidTm(f"transition {q}{reads} has wrong tape count")
            for r, (w, m) in zip(reads, actions):
                if len(r) != 1 or len(w) != 1:
                    raise InvalidTm("tape symbols must be single characters")
                if m not in ("L", "R"):
                    raise InvalidTm(f"bad move {m!r}")
                if r == MARKER and (w != MARKER or m != "R"):
                    raise InvalidTm("reading the end marker must rewrite it and move R")
                if w == MARKER and r != MARKER:
                    raise InvalidTm("the end marker can not be written elsewhere")

    @property
    def initial(self) -> str:
        return self.states[0]

    @cached_property
    def tape_cells(self) -> tuple:
        """Per-tape cell alphabets (marker, blank, anything read or written)."""
        cells = [{MARKER, self.blank} for _ in range(self.tapes)]
        for (q, reads), (q2, actions) in self.transitions.items():
            for i in range(self.tapes):
                cells[i].add(reads[i])
                cells[i].add(actions[i][0])
        return tuple(tuple(sorted(c)) for c in cells)

    @cached_property
    def _token_of(self) -> dict:
        """The mask table: (cells, head mask) -> column token, every column."""
        return _TokenTable(
            ((cells, fx), column_token(cells, [fx >> i & 1 for i in range(self.tapes)]))
            for cells in itertools.product(*self.tape_cells)
            for fx in _subsets((1 << self.tapes) - 1)
        )

    @cached_property
    def _joint_steps(self) -> dict:
        """The step table: (state, reads) -> (state, written column, its
        headless token, +1 or -1) for each transition whose heads all move
        one way.  With every head on one column, its cells are the reads,
        and `_move` writes the writes over all of them in tape order."""
        table = {}
        for key, (q2, actions) in self.transitions.items():
            writes, moves = zip(*actions)
            if len(set(moves)) == 1:
                table[key] = (q2, writes, self._token_of[writes, 0], 1 if moves[0] == "R" else -1)
        return table

    @cached_property
    def config_alphabet(self) -> tuple:
        toks = set(self.states) | set(self._token_of.values())
        if len(toks) != len(self.states) + len(self._token_of):
            raise InvalidTm("state names collide with column tokens")
        return tuple(sorted(toks, key=lambda t: (len(t), t)))

    @cached_property
    def _column_index(self) -> dict:
        """(first, head mask, cells under the heads in tape order) ->
        [(token, cells, content), ...] over the columns a configuration word
        can hold: the all-marker column first, marker-free ones after it.
        Content is whether the column carries a head or a non-blank cell."""
        index = {}
        for (cells, fx), tok in self._token_of.items():
            if MARKER not in cells or set(cells) == {MARKER}:
                key = (MARKER in cells, fx, tuple(cells[i] for i in _TAPES[fx]))
                content = bool(fx) or any(c != self.blank for c in cells)
                index.setdefault(key, []).append((tok, cells, content))
        return index


def column_token(cells, flags) -> str:
    return "".join(cells) + "".join("1" if f else "0" for f in flags)


class _TokenTable(dict):
    """The mask table; a column with a cell outside the machine's cell
    alphabets is joined by `column_token`, and not kept."""

    def __missing__(self, key):
        return column_token(key[0], [key[1] >> i & 1 for i in range(len(key[0]))])


# -- configurations -----------------------------------------------------------


@record
class Configuration:
    state: str
    columns: tuple  # tuple of per-tape cell tuples
    heads: tuple  # head column per tape

    def serialize(self, tm: TmSpec) -> tuple:
        """The state token, then each column's token from tm's mask table."""
        masks = [0] * len(self.columns)
        for i, h in enumerate(self.heads):
            masks[h] |= 1 << i
        return (self.state, *map(tm._token_of.__getitem__, zip(self.columns, masks)))


def is_canonical(tm: TmSpec, c: Configuration) -> bool:
    """No redundant trailing column: the last column carries a head or a
    non-blank cell.  Without this, a configuration and its padded twin would
    share a successor and the step graph would not be backward deterministic."""
    last = len(c.columns) - 1
    return any(h == last for h in c.heads) or any(cell != tm.blank for cell in c.columns[last])


def initial_configuration(tm: TmSpec, inputs: Sequence) -> Configuration:
    """Heads start on the end marker in column 0."""
    if len(inputs) != tm.tapes:
        raise InvalidTm(f"expected {tm.tapes} input words")
    columns = ((MARKER,) * tm.tapes, *itertools.zip_longest(*inputs, fillvalue=tm.blank))
    return Configuration(tm.initial, columns, (0,) * tm.tapes)


def _move(tm: TmSpec, columns: list, heads: list, actions) -> dict:
    """A transition's moves, made in place on a configuration's column
    list and head list.  Only a column whose cell under a head changes is
    rebuilt, one write at a time in tape order, so two heads on one column
    both write it; a head past the last column appends a blank one.
    Returns the head mask, its mask-table key, of each column touched:
    the old and new head columns and an appended one."""
    touched = dict.fromkeys(heads, 0)
    for i, (w, m) in enumerate(actions):
        h = heads[i]
        cells = columns[h]
        if cells[i] != w:
            columns[h] = cells[:i] + (w,) + cells[i + 1 :]
        h += 1 if m == "R" else -1
        if h < 0:
            raise InvalidTm("head fell off the left end")
        heads[i] = h
        touched[h] = touched.get(h, 0) | 1 << i
    if max(heads) >= len(columns):
        columns.append((tm.blank,) * tm.tapes)
    return touched


def step(tm: TmSpec, c: Configuration) -> Optional[Configuration]:
    """The successor of `c`, or None when no transition applies; the
    columns no head is on are the same tuples as in `c` (`_move`)."""
    hit = tm.transitions.get((c.state, tuple(c.columns[h][i] for i, h in enumerate(c.heads))))
    if hit is None:
        return None
    columns, heads = list(c.columns), list(c.heads)
    _move(tm, columns, heads, hit[1])
    return Configuration(hit[0], tuple(columns), tuple(heads))


def run_words(tm: TmSpec, inputs: Sequence) -> tuple:
    """Run to halt; returns (the `tag_config` word of each configuration,
    accepted).  One column list is stepped in place.  The first word is
    serialized whole; each later one is its predecessor's with the state
    and the columns the step touched re-tokenised.  While every head is on
    one column, those cells are the transition's key, and a transition in
    the step table (`TmSpec._joint_steps`) is one lookup: the written
    column and its token come from the table, and the column the heads
    move onto takes one mask-table lookup.  Any other step, with the heads
    apart or moving apart, moves a head list by `_move`, as `step` moves,
    and re-tokenises the columns it touched.  The tokens listed are
    counted against the state budget, the run's one cap: a word holds at
    least 3 tokens, so a run that does not halt, in bounded space or
    adding a column a step, raises StateBudgetExceeded within budget / 3
    steps."""
    c = initial_configuration(tm, inputs)
    state, columns, heads, transitions, token_of = c.state, list(c.columns), list(c.heads), tm.transitions, tm._token_of
    joint, K, ALL, blanks = tm._joint_steps, tm.tapes, (1 << tm.tapes) - 1, (tm.blank,) * tm.tapes
    word = list(tag_config(c, tm))
    words, listed, budget = [tuple(word)], len(word), au.STATE_BUDGET.get()
    at = 0  # the column every head is on, or None while they are apart
    while True:
        hit = None if at is None else joint.get((state, columns[at]))
        if hit is not None:
            state, columns[at], word[at + 2], move = hit
            at += move  # never off the tape: column 0 holds markers, read only by R moves
            if at == len(columns):
                columns.append(blanks)
                word.append(None)
            word[at + 2] = token_of[columns[at], ALL]
        else:
            if at is not None:
                heads = [at] * K
            hit = transitions.get((state, tuple([columns[h][i] for i, h in enumerate(heads)])))
            if hit is None:
                return words, state in tm.accepting
            state, actions = hit
            touched = _move(tm, columns, heads, actions)
            if len(word) < len(columns) + 2:
                word.append(None)
            for j, mask in touched.items():
                word[j + 2] = token_of[columns[j], mask]
            at = heads[0] if heads.count(heads[0]) == K else None
        word[1] = state
        words.append(tuple(word))
        if (listed := listed + len(word)) > budget:
            raise StateBudgetExceeded(listed, budget, "configuration tokens")


# -- reversibility ------------------------------------------------------------


def check_reversible(tm: TmSpec):
    """None, or a pair of transitions with the same (target, writes, moves)
    signature; distinct signatures force in-degree <= 1 on the step graph."""
    seen = {}
    for (q, reads), (q2, actions) in sorted(tm.transitions.items()):
        sig = (q2, tuple(actions))
        if sig in seen:
            return (seen[sig], ((q, reads), (q2, actions)))
        seen[sig] = ((q, reads), (q2, actions))
    return None


# -- the one-step relation as a synchronous automaton -------------------------


def step_relation_automaton(tm: TmSpec) -> Automaton:
    """Accepts conv(c, c') iff c' is the one-step successor of c."""
    return au.build(2, tm.config_alphabet, *_step_graph(tm))


def _step_graph(tm: TmSpec) -> tuple:
    """The one-step relation as (start, accepting, moves) for `au.build`.

    For each machine transition the graph verifies the state tokens and
    then processes columns left to right, checking that each output column
    equals the input column with head cells rewritten and head flags moved
    one column left or right.  Flags arriving from the right (an L-move)
    are guessed one column ahead and checked on arrival; a flag moving
    right past the last column forces one appended blank column.

    A column's letter and content bits depend only on (first, head tapes,
    cells read and written under the heads, outgoing flags), so each such
    letter tuple is made once per build, kept in `shared` and handed to
    every transition that fits, as the letter groups `au.build` reads:
    without that table every row would hold letter tuples of its own, and
    the build's traced peak would rise by about 60%, its time by half or
    more.  A state is its key (t, seen, carry, guessed, first, content),
    numbered by the search that reads the graph.
    """
    K = tm.tapes
    ALL = (1 << K) - 1
    index, token_of = tm._column_index, tm._token_of
    blanks = (tm.blank,) * K
    START, DONE = ("start",), ("done",)
    start = []
    for (q, reads), (q2, actions) in tm.transitions.items():
        l_movers = sum(1 << i for i in range(K) if actions[i][1] == "L")
        t = (reads, actions, l_movers)
        for g0 in _subsets(l_movers):
            start.append((((q, q2),), (t, 0, 0, g0, True, (False, False))))
    shared = {}  # (first, head mask, reads, writes, out flags) -> [(content, letters), ...]

    def column_letters(first, fx, reads, writes, out_flags):
        by_content = {}
        heads = _TAPES[fx]
        for tok, cells, in_content in index.get((first, fx, reads), ()):
            out_cells = list(cells)
            for i, w in zip(heads, writes):
                out_cells[i] = w
            out_cells = tuple(out_cells)
            content = (in_content, bool(out_flags) or out_cells != blanks)
            by_content.setdefault(content, []).append((tok, token_of[out_cells, out_flags]))
        return [(content, tuple(letters)) for content, letters in by_content.items()]

    def moves(key):
        if key == START:
            yield from start
            return
        if key == DONE:
            return
        t, seen, carry, guessed, first, content = key
        reads, actions, l_movers = t
        for r_heads in _subsets(ALL & ~(l_movers | seen)):
            fx = guessed | r_heads
            new_seen = seen | fx
            heads = _TAPES[fx]
            at_heads = (first, fx, tuple(reads[i] for i in heads), tuple(actions[i][0] for i in heads))
            for g in _subsets(l_movers & ~new_seen):
                group = at_heads + (carry | g,)
                letters = shared.get(group)
                if letters is None:
                    letters = shared[group] = column_letters(*group)
                for out_content, column in letters:
                    yield column, (t, new_seen, r_heads, g, False, out_content)
        # input exhausted while a head still moves right past the end; the
        # appended column carries a head, so the output stays canonical
        if seen == ALL and not guessed and carry and not first and content[0]:
            yield ((PAD, token_of[blanks, carry]),), DONE

    def accepting(key):
        if len(key) == 1:
            return key == DONE
        t, seen, carry, guessed, first, content = key
        # both sides must end in a contentful column (canonical configurations)
        return seen == ALL and not carry and not guessed and not first and all(content)

    return START, accepting, moves


@cache
def _subsets(mask: int) -> tuple:
    """The submasks of a tape mask, made once per mask, smallest first and
    then in `itertools.combinations` order."""
    items = _TAPES[mask]
    return tuple(sum(1 << i for i in c) for r in range(len(items) + 1) for c in itertools.combinations(items, r))


def _config_graph(tm: TmSpec) -> tuple:
    """Syntactically valid configuration words."""
    ALL = (1 << tm.tapes) - 1

    def moves(key):
        if key == ("start",):
            for q in tm.states:
                yield ((q,),), (0, True, False)
            return
        seen, first, _content = key
        for (marker, fx, _heads), cols in tm._column_index.items():
            if marker == first and not fx & seen:
                for tok, _cells, content in cols:
                    yield ((tok,),), (seen | fx, False, content)

    def accepting(key):
        return key != ("start",) and key[0] == ALL and not key[1] and key[2]

    return ("start",), accepting, moves


# -- bundled machines ----------------------------------------------------------


def increment_machine() -> TmSpec:
    """Unary increment: scan right over a's, turn the first blank into an a."""
    trans = {
        ("go", (MARKER,)): ("go", ((MARKER, "R"),)),
        ("go", ("a",)): ("go", (("a", "R"),)),
        ("go", ("_",)): ("done", (("a", "R"),)),
    }
    return TmSpec(
        name="increment", tapes=1, blank="_",
        states=("go", "done"), accepting=frozenset({"done"}), transitions=trans,
    )


def copy_machine() -> TmSpec:
    """Copy tape 1 to tape 2; naturally reversible (writes determine reads)."""
    trans = {
        ("go", (MARKER, MARKER)): ("go", ((MARKER, "R"), (MARKER, "R"))),
        ("go", ("a", "_")): ("go", (("a", "R"), ("a", "R"))),
        ("go", ("b", "_")): ("go", (("b", "R"), ("b", "R"))),
        ("go", ("_", "_")): ("done", (("_", "R"), ("_", "R"))),
    }
    return TmSpec(
        name="copy", tapes=2, blank="_",
        states=("go", "done"), accepting=frozenset({"done"}), transitions=trans,
    )


def collision_machine() -> TmSpec:
    """Two transitions with the same reverse signature (planted defect)."""
    trans = {
        ("s", ("a",)): ("q", (("x", "R"),)),
        ("t", ("b",)): ("q", (("x", "R"),)),
    }
    return TmSpec(
        name="collision", tapes=1, blank="_",
        states=("s", "t", "q"), accepting=frozenset(), transitions=trans,
    )


def kreisel_comparator(false_pi: bool) -> TmSpec:
    """One-pass reversible comparator for the Kreisel reordering on binary
    strings.

    Three tapes: x and y (both written back; y is what the accept edges read
    off) and a trail tape recording the source state of each step, which
    makes reverse signatures distinct.  With a true pi_0 it accepts iff x is
    llex-below y.  With pi_0 empty (least witness at rank 0, the empty
    string) the defining disjunction reduces to: x empty and y not, or y
    nonempty and llex-below x.
    """
    B = "_"
    marks = {"go": "i", "first": "f", "eq": "e", "lt": "l", "gt": "g"}
    trans = {}

    def add(q, a, b, q2):
        if q == "go":
            trans[(q, (a, b, MARKER))] = (q2, ((a, "R"), (b, "R"), (MARKER, "R")))
        else:
            trans[(q, (a, b, B))] = (q2, ((a, "R"), (b, "R"), (marks[q], "R")))

    def llex_next(status, a, b):
        if status != "eq":
            return status
        return "eq" if a == b else ("lt" if a < b else "gt")

    add("go", MARKER, MARKER, "first")
    if not false_pi:
        # accept iff x <llex y
        for q in ("first", "eq", "lt", "gt"):
            status = "eq" if q == "first" else q
            for a in ("0", "1"):
                for b in ("0", "1"):
                    add(q, a, b, llex_next(status, a, b))
                add(q, a, B, "rej")  # y ended first: |y| < |x|
            for b in ("0", "1"):
                add(q, B, b, "acc")  # x ended first: |x| < |y|
            add(q, B, B, "acc" if status == "lt" else "rej")
    else:
        # accept iff (x empty and y not) or (y nonempty and y <llex x)
        add("first", B, B, "rej")
        for b in ("0", "1"):
            add("first", B, b, "acc")
        for a in ("0", "1"):
            add("first", a, B, "rej")
            for b in ("0", "1"):
                add("first", a, b, llex_next("eq", a, b))
        for q in ("eq", "lt", "gt"):
            for a in ("0", "1"):
                for b in ("0", "1"):
                    add(q, a, b, llex_next(q, a, b))
                add(q, a, B, "acc")  # y ended first: y < x
            for b in ("0", "1"):
                add(q, B, b, "rej")  # x ended first
            add(q, B, B, "acc" if q == "gt" else "rej")
    name = "kreisel_false" if false_pi else "kreisel_true"
    return TmSpec(
        name=name, tapes=3, blank=B,
        states=("go", "first", "eq", "lt", "gt", "acc", "rej"),
        accepting=frozenset({"acc"}),
        transitions=trans,
    )


# -- the automatic well-founded relation ---------------------------------------


@record
class RpiStructure:
    """The well-founded relation of a reversible comparator.  Reads go
    through `reader`, which fills a row of the relation's move graph the
    first time a read reaches it (`automata.reader`), counting its states
    against the state budget in effect when `build_rpi` ran.  `relation`
    and `domain` are built, numbered, trimmed and validated, on their
    first read, for what needs their bytes or their counts.  The relation
    is not checked to relate only domain words: each edge joins two domain
    words by construction, the configuration side of an accept edge read
    by the domain's own configuration moves, and the tests run that check
    on the built relation."""

    tm: TmSpec
    pi_tag: str
    reader: Automaton

    @cached_property
    def relation(self) -> Automaton:
        # every edge joins two domain words by construction, so no cube check
        return au.build(2, self.reader.alphabet, *_relation_graph(self.tm))

    @cached_property
    def domain(self) -> Automaton:
        return au.build(1, self.reader.alphabet, *_tagged([
            ((WORD_TAG,), _bits_graph()),
            ((CONF_TAG,), _config_graph(self.tm)),
        ]))


def _rpi_alphabet(tm: TmSpec) -> tuple:
    toks = set(tm.config_alphabet) | {WORD_TAG, CONF_TAG, "0", "1"}
    return tuple(sorted(toks, key=lambda t: (len(t), t)))


def _bits_graph() -> tuple:
    """Binary words."""

    def moves(_key):
        for b in ("0", "1"):
            yield ((b,),), "bits"

    return "bits", lambda _key: True, moves


def _tagged(parts) -> tuple:
    """The disjoint sum of (tag letter, graph) parts as one graph: its start
    state reads each part's tag letter into that part's start state."""

    def moves(key):
        if key is None:
            for i, (tag, (start, _accepting, _moves)) in enumerate(parts):
                yield (tag,), (i, start)
            return
        i, sub = key
        _start, _accepting, part_moves = parts[i][1]
        for letters, target in part_moves(sub):
            yield letters, (i, target)

    def accepting(key):
        if key is None:
            return False
        i, sub = key
        _start, part_accepting, _moves = parts[i][1]
        return part_accepting(sub)

    return None, accepting, moves


def _input_edge_graph(tm: TmSpec) -> tuple:
    """Pairs (W x, C z) with z the initial configuration on input (x, y) for
    some binary y: state q0, all heads on the marker column.

    The x characters inside the configuration lag two positions behind the
    word side, so a two-character buffer carries them across.
    """
    K = tm.tapes
    q0 = tm.initial
    col0 = tm._token_of[(MARKER,) * K, (1 << K) - 1]

    def moves(key):
        if key == ("q",):
            for xc in ("0", "1", PAD):
                yield ((xc, q0),), ("col0", (xc,))
            return
        if key[0] == "col0":
            (x1,) = key[1]
            for xc in ("0", "1", PAD):
                if x1 == PAD and xc != PAD:
                    continue
                # the marker column carries all the head flags
                yield ((xc, col0),), ("cols", (x1, xc), False, True)
            return
        _, buf, ydone, content = key
        x_cell = tm.blank if buf[0] == PAD else buf[0]
        y_opts = (tm.blank,) if ydone else ("0", "1", tm.blank)
        for y_cell in y_opts:
            tok = tm._token_of[(x_cell, y_cell, tm.blank)[:K], 0]
            new_ydone = ydone or y_cell == tm.blank
            new_content = x_cell != tm.blank or y_cell != tm.blank
            for xc in ("0", "1", PAD):
                if buf[1] == PAD and xc != PAD:
                    continue
                yield ((xc, tok),), ("cols", (buf[1], xc), new_ydone, new_content)

    def acc(key):
        # all x characters emitted, and the final column is contentful
        return key[0] == "cols" and key[1] == (PAD, PAD) and key[3]

    return ("q",), acc, moves


def _accept_edge_graph(tm: TmSpec) -> tuple:
    """Pairs (C z, W y): z is a configuration word (a word of
    `_config_graph`) in an accepting state whose second tape reads `> y`
    (blanks beyond).

    The y characters inside z run two positions ahead of the word side, so
    the pattern buffers the word characters and compares on arrival.  The
    machine's columns are listed once by the cell of y they hold; a state
    reads those that hold its wanted cell, keeps the moves `_config_graph`
    makes through them and groups them by their target: its letters with
    one configuration target and one buffered character are one letter
    group.  Reading every configuration move at each state instead takes
    half again as long to fill the accept rows that reads reach.
    """
    config_start, config_accepting, config_moves = _config_graph(tm)
    by_cell: dict = {}  # (first, y cell) -> [(head mask, column token, content), ...]
    for (first, fx, _heads), cols in tm._column_index.items():
        for tok, cells, content in cols:
            by_cell.setdefault((first, cells[1]), []).append((fx, tok, content))

    def moves(key):
        ckey, buf = key
        if ckey == config_start:
            for ((q,),), target in config_moves(ckey):
                if q in tm.accepting:
                    for yc in ("0", "1", PAD):
                        yield ((q, yc),), (target, (yc,))
            return
        seen, is_first, _content = ckey
        # the first column is the all-marker one; past it, y's cell must be
        # the buffered character
        want = MARKER if is_first else tm.blank if buf[0] == PAD else buf[0]
        ycs = (PAD,) if buf[-1] == PAD else ("0", "1", PAD)
        by_target: dict = {}  # configuration target -> its column tokens
        for fx, tok, content in by_cell.get((is_first, want), ()):
            if not fx & seen:  # as `_config_graph` moves
                by_target.setdefault((seen | fx, False, content), []).append(tok)
        for target, toks in by_target.items():
            for yc in ycs:
                yield tuple((tok, yc) for tok in toks), (target, buf + (yc,) if is_first else buf[1:] + (yc,))

    def acc(key):
        ckey, buf = key
        return config_accepting(ckey) and all(c == PAD for c in buf)

    return (config_start, None), acc, moves


def _relation_graph(tm: TmSpec) -> tuple:
    """The relation's move graph: machine steps on configurations, input
    edges into initial configurations, accept edges out of accepting
    ones."""
    return _tagged([
        ((CONF_TAG, CONF_TAG), _step_graph(tm)),
        ((WORD_TAG, CONF_TAG), _input_edge_graph(tm)),
        ((CONF_TAG, WORD_TAG), _accept_edge_graph(tm)),
    ])


def build_rpi(tm: TmSpec, pi_tag: str) -> RpiStructure:
    """Check the machine and make the relation's reader; the relation and
    the domain are built on their first read (see `RpiStructure`)."""
    if tm.tapes < 2:
        raise InvalidTm("the construction needs an input tape for x and one for y")
    collision = check_reversible(tm)
    if collision is not None:
        raise NotReversible(collision)
    if not all({"0", "1"} <= set(cells) for cells in tm.tape_cells[:2]):
        raise InvalidTm("the input tapes for x and y must hold the binary symbols 0 and 1")
    return RpiStructure(tm=tm, pi_tag=pi_tag, reader=au.reader(2, _rpi_alphabet(tm), *_relation_graph(tm)))


def tag_word(x) -> tuple:
    return (WORD_TAG,) + tuple(x)


def tag_config(c: Configuration, tm: TmSpec) -> tuple:
    return (CONF_TAG,) + c.serialize(tm)


def emb_path(rpi: RpiStructure, x, y):
    """The witness path x R I(x,y) R ... R F(x,y) R y when the comparator
    accepts (x, y); every hop is verified against the relation automaton,
    in one pass (`Automaton.rejected_hop`)."""
    tm = rpi.tm
    words, accepted = run_words(tm, [tuple(x), tuple(y)] + [()] * (tm.tapes - 2))
    if not accepted:
        return None
    path = [tag_word(x), *words, tag_word(y)]
    bad = rpi.reader.rejected_hop(path)
    if bad is not None:
        raise WobError(f"edge not in the relation: {path[bad]!r} -> {path[bad + 1]!r}")
    return path


# -- bounded verification -------------------------------------------------------


@record
class ExploredFragment:
    elements: list  # words (tuples of tokens)
    edges: list  # (u, v) pairs, all automaton-verified

    def to_dot(self) -> str:
        lines = ["digraph fragment {"]
        index = {w: i for i, w in enumerate(self.elements)}
        for w, i in index.items():
            lines.append(f'  n{i} [label={au.dot_label(au.show_word(w))}];')
        for u, v in self.edges:
            lines.append(f"  n{index[u]} -> n{index[v]};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def check_fragment_budget(word_len: int, run_input_len: int) -> None:
    """StateBudgetExceeded when the fragment `explore_fragment` would list
    for these lengths can not fit the state budget: its binary words up to
    max(word_len, run_input_len) and one initial configuration per pair of
    run inputs are counted, from the two lengths alone.

    The words alone pass the budget once the longer length reaches its bit
    length, so the count is decided by bit length and no huge int is
    built.  The error's count is the fragment's size while both lengths
    are below 64; past that it is budget + 1, as the size is then only
    known to pass the budget (and may have more digits than an int
    prints)."""
    budget = au.STATE_BUDGET.get()
    top = max(word_len, run_input_len)
    if top >= max(budget.bit_length(), 64):  # 2 ** (top + 1) - 1 words: past the budget and 2^64
        raise StateBudgetExceeded(budget + 1, budget, "fragment elements")
    least = 2 ** (top + 1) - 1 + (2 ** (run_input_len + 1) - 1) ** 2
    if least > budget:
        raise StateBudgetExceeded(least if top < 64 else budget + 1, budget, "fragment elements")


def explore_fragment(rpi: RpiStructure, word_len: int, run_input_len: int) -> ExploredFragment:
    """Collect binary words up to max(word_len, run_input_len) and every
    configuration arising from runs on inputs up to run_input_len; compute
    the edge set structurally and verify it against the relation's
    reader, including a sample of non-edges.  Each run's path, its input
    edge, its steps and its accept edge, is read in one pass
    (`Automaton.rejected_hop`); each sampled non-edge is read on its own.

    The fragment must fit the state budget `au.STATE_BUDGET`: it is sized
    by `check_fragment_budget` before anything is listed, and the elements
    are counted again as each run adds its configurations;
    StateBudgetExceeded past the budget."""
    check_fragment_budget(word_len, run_input_len)
    tm = rpi.tm
    rel = rpi.reader
    budget = au.STATE_BUDGET.get()
    top = max(word_len, run_input_len)
    words = []
    for n in range(top + 1):
        words.extend(tuple(bits) for bits in itertools.product("01", repeat=n))
    elements = [tag_word(w) for w in words]
    configs = set()
    # structural edges: the input edge, the run's steps, the accept edge
    edges = set()
    short = [w for w in words if len(w) <= run_input_len]
    for x in short:
        for y in short:
            confs, accepted = run_words(tm, [x, y] + [()] * (tm.tapes - 2))
            configs.update(confs)
            if len(elements) + len(configs) > budget:
                raise StateBudgetExceeded(len(elements) + len(configs), budget, "fragment elements")
            path = [tag_word(x), *confs, *([tag_word(y)] if accepted else [])]
            bad = rel.rejected_hop(path)
            if bad is not None:
                raise WobError(f"structural edge missing from the automaton: {path[bad]!r} -> {path[bad + 1]!r}")
            edges.update(zip(path, path[1:]))
    configs = sorted(configs)
    # non-edges among the first 25 words and the first 25 configurations
    # must be rejected too; the words come first among the elements, so a
    # sample of the first elements alone would hold no configuration
    sample = elements[:25] + configs[:25]
    elements.extend(configs)
    edges = sorted(edges)
    edge_set = set(edges)
    for u in sample:
        for v in sample:
            if (u, v) not in edge_set and rel.accepts(u, v):
                raise WobError(f"automaton accepts a non-edge: {u!r} -> {v!r}")
    return ExploredFragment(elements=elements, edges=edges)


def bounded_wf_check(rpi: RpiStructure, fragment: ExploredFragment):
    """Acyclicity of the explored fragment; on a finite acyclic fragment
    every nonempty subset has a minimal element, so None means ok.
    Otherwise a cycle, as a closed walk (its first element repeated at the
    end).  `rpi` is not read; the fragment carries its edges."""
    on_cycle_paths = au._reaching_cycles(frozenset(fragment.elements), fragment.edges)
    if not on_cycle_paths:
        return None
    succs = {}
    for u, v in fragment.edges:
        if v in on_cycle_paths:
            succs.setdefault(u, v)
    # every element left has a successor left, so the walk repeats one
    v = next(u for u in fragment.elements if u in on_cycle_paths)
    at = {}  # element -> its position on the walk
    while v not in at:
        at[v] = len(at)
        v = succs[v]
    walk = list(at)
    return tuple(walk[at[v]:] + [v])


def descent_witness(rpi: RpiStructure, ranks: Sequence[int]):
    """A descending chain through the relation, built by concatenating the
    embedding paths along a descending chain of the comparator order.

    ranks is a base-order descending-in-the-reordering chain r_0 > r_1 ...
    (each r_{i+1} preceding r_i); the result lists elements v_0, v_1, ...
    with every consecutive pair (v_{i+1}, v_i) an automaton-verified edge.
    """
    from .pathology import word_of_rank

    chain = []
    for hi, lo in zip(ranks, ranks[1:]):
        x, y = word_of_rank(lo), word_of_rank(hi)
        path = emb_path(rpi, x, y)
        if path is None:
            raise WobError(f"comparator does not accept ({lo}, {hi})")
        # path runs x -> ... -> y; descending means walking it backwards
        seg = list(reversed(path))
        if chain:
            seg = seg[1:]
        chain.extend(seg)
    return chain


# -- text format ---------------------------------------------------------------


def save_tm(tm: TmSpec) -> str:
    lines = [f"tm {tm.name}", f"tapes {tm.tapes}", f"blank {tm.blank}"]
    for q in tm.states:
        lines.append(f"state {q} accept" if q in tm.accepting else f"state {q}")
    for (q, reads), (q2, actions) in sorted(tm.transitions.items()):
        acts = "".join(f"({w},{m})" for w, m in actions)
        lines.append(f"trans {q} ({','.join(reads)}) -> {q2} {acts}")
    return "\n".join(lines) + "\n"


def parse_tm(text: str) -> TmSpec:
    states = []
    accepting = set()
    transitions = {}

    def state(words):
        name, accepts = state_line(words)
        states.append(name)
        if accepts:
            accepting.add(name)

    def trans(words):
        if len(words) != 5 or words[2] != "->":
            raise LoadError("malformed trans line")
        q, reads_text, _, q2, acts_text = words
        if not (reads_text.startswith("(") and reads_text.endswith(")")):
            raise LoadError("malformed reads")
        reads = tuple(reads_text[1:-1].split(","))
        if not (acts_text.startswith("(") and acts_text.endswith(")")):
            raise LoadError("malformed actions")
        actions = []
        for chunk in acts_text[1:-1].split(")("):
            w, m = chunk.split(",")  # not two parts: a ValueError on this line, not in TmSpec
            actions.append((w, m))
        if (q, reads) in transitions:
            raise LoadError(f"duplicate transition for {q} {reads}")
        transitions[(q, reads)] = (q2, tuple(actions))

    head = read_directives(
        text,
        {"tm": one_word, "tapes": lambda w: int(one_word(w)), "blank": one_word},
        {"state": state, "trans": trans},
    )
    return TmSpec(
        name=head["tm"], tapes=head["tapes"], blank=head["blank"],
        states=tuple(states), accepting=frozenset(accepting), transitions=transitions,
    )
