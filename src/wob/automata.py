"""Synchronous multi-tape finite automata over padded convolutions.

Tuples of words are encoded as a single word over letter tuples: tape i
carries word i, right-padded with the reserved pad symbol ``#`` up to the
length of the longest word.  An automaton of arity k reads such letter
tuples, and stores its moves once, as the transition index `_delta`.
Every automaton from outside the kernel (`automaton()`, the loader,
`build`) is validated by `Automaton.__post_init__` in one pass over that
index: state numbers in range, each distinct letter checked once (arity,
symbols of the alphabet or pad, not all-pad), and the padding invariant
(once a tape reads pad it reads pad forever) on the states reachable from
the initial one, so each accepting path spells a valid convolution.
Kernel operations only recombine letters of checked operands, so their
results are not checked again.

Every construction numbers its states by one search (`_explored`): it
fills each state's row by one row fill (`_numbering`) in BFS order, then
drops the states that cannot reach acceptance and renumbers the rest in
order.  A state's moves are letter groups, (letters, target) with each
letter of the tuple leading to target.  `_canonical` hands them over
sorted by least letter, so the numbering is that of the same moves read
one letter at a time, and `join_graph` in the order a product yields them.
`reader` gives membership reads of a graph that is never built: it fills a
state's row by the same row fill when a read first reaches the state.
Tapes are mapped by two constructions.  `join` runs two automata side by
side on one convolution and maps each side's tapes to result tapes;
`intersect`, a cylinder (a side with a tape the other lacks) and a tape
equality (a join with `diagonal`) are joins.  `join_graph` searches the
same product and, given a tape, drops that tape as it goes, so a product
that is only projected, minimized or joined again is never built.
`_relabel` maps the letters of one automaton and reads the ones that
become all-pad as empty moves, in one scan of its edges that gives an
unnumbered graph; `project` and `permute_tapes` are that graph numbered by
`_canonical`.  `minimize`, `is_subset` and `difference` also take a
projection's graph unnumbered (`projection_graph`), so a projection that
is only minimized or searched is never built, and `count_or_enumerate`
reads a section's graph (`section_graph`) the same way, so a section that
is only enumerated is never numbered.  Inclusion is one subset product,
`_difference_graph`: `difference` builds it, and `is_subset` and
`is_subset_of_cube` search it up to the first counterexample;
`is_irreflexive` and `is_total` search graphs of their own the same way
(`_reaches_acceptance`), so a relation's linearity builds nothing.  The
row fill and that search alone read the state budget, `STATE_BUDGET`, and
raise StateBudgetExceeded at budget + 1 keys; it is set for a block by
`with state_budget(n):` and is otherwise DEFAULT_STATE_BUDGET.

There is one subset step: a set of states is a sorted tuple, and its row,
letter -> sorted tuple of targets, is merged from its states' rows by
`_merged` alone.  Reads and the subset product take a set's row from
`_row`, which an automaton keeps in `_subset_steps`; enumeration and
Brzozowski's reversal merge theirs where they step.

Symbols are arbitrary non-reserved tokens; `show_word` prints a word as a
plain string when every symbol is a single character.
"""

from __future__ import annotations

import itertools
import operator
from contextlib import contextmanager
from contextvars import ContextVar
from functools import cache, cached_property
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    ArityMismatch,
    CannotProject,
    InvalidAutomaton,
    InvalidSymbol,
    LoadError,
    StateBudgetExceeded,
    one_word,
    read_directives,
)
from .records import record

PAD = "#"

DEFAULT_STATE_BUDGET = 10 ** 6
STATE_BUDGET: ContextVar = ContextVar("state_budget", default=DEFAULT_STATE_BUDGET)


@contextmanager
def state_budget(n: int):
    """Every construction inside the block raises at n + 1 states."""
    token = STATE_BUDGET.set(n)
    try:
        yield
    finally:
        STATE_BUDGET.reset(token)

Letter = tuple  # tuple of symbol tokens, length = arity
Word = tuple  # tuple of symbol tokens
WordTuple = tuple  # tuple of Words, length = arity


def show_word(w: Word) -> str:
    """A word as text: its symbols joined plainly when each is one
    character, else separated by spaces."""
    return "".join(w) if all(len(s) == 1 for s in w) else " ".join(w)


def dot_label(text: str) -> str:
    """`text` as a quoted graphviz string, its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def check_symbol(sym: str) -> str:
    if not isinstance(sym, str) or not sym:
        raise InvalidSymbol(f"symbol must be a nonempty string, got {sym!r}")
    if sym == PAD:
        raise InvalidSymbol(f"the pad symbol {PAD!r} is reserved")
    if any(c.isspace() for c in sym) or any(c in "(),'" for c in sym):
        raise InvalidSymbol(f"symbol {sym!r} contains a reserved character")
    return sym


def convolve(words: Sequence) -> list[Letter]:
    """Encode k words as a sequence of k-letter tuples, right-padded with PAD."""
    ws = [tuple(w) for w in words]
    if not ws:
        raise ArityMismatch("convolution of zero words")
    for w in ws:
        if PAD in w:
            raise InvalidSymbol(f"word {w!r} contains the pad symbol")
    return list(itertools.zip_longest(*ws, fillvalue=PAD))


def deconvolve(letters: Iterable[Letter]) -> WordTuple:
    """Inverse of convolve: strip per-tape pad suffixes."""
    letters = list(letters)
    if not letters:
        return ()
    k = len(letters[0])
    return tuple(tuple(l[i] for l in letters if l[i] != PAD) for i in range(k))


@record
class Automaton:
    """A (possibly nondeterministic) synchronous k-tape automaton.

    States are integers 0..n_states-1; the moves are stored once, as
    `_delta`: state -> {letter: sorted tuple of targets}, all in sorted
    order, no empty entries.  `transitions`, their frozenset of
    (state, letter, state) triples, is derived on its first read.
    Instances are immutable, apart from the table `_subset_steps` of
    the rows of sets of states, which reads and subset products fill in
    (see `_row`), and the table `_subset_loops` beside it, which path
    reads fill in (see `_loops`); both are this automaton's own, never
    shared.  Constructing
    one directly validates it,
    including the suffix-padding invariant along every path reachable
    from the initial state; kernel operations build their results without
    this check (see `_canonical`).
    """

    arity: int
    alphabet: tuple
    n_states: int
    initial: int
    accepting: frozenset
    _delta: dict

    def __hash__(self):  # equal automata agree on the other fields
        return hash((self.arity, self.alphabet, self.n_states, self.initial, self.accepting))

    def __post_init__(self):
        if self.arity < 1:
            raise InvalidAutomaton("arity must be >= 1")
        if not isinstance(self.alphabet, tuple):
            object.__setattr__(self, "alphabet", tuple(self.alphabet))
        _check_alphabet(self.alphabet)
        if self.n_states < 1:
            raise InvalidAutomaton("need at least one state")
        if not (0 <= self.initial < self.n_states):
            raise InvalidAutomaton("initial state out of range")
        if not isinstance(self.accepting, frozenset):
            object.__setattr__(self, "accepting", frozenset(self.accepting))
        if not all(0 <= q < self.n_states for q in self.accepting):
            raise InvalidAutomaton("accepting state out of range")
        # One pass over `_delta`: states per move, each distinct letter once,
        # and the padding invariant: each letter leaving a state pads every
        # tape that a letter entering it from a reachable state pads
        # (`leaving`: their AND).
        symbols, n, full = set(self.alphabet) | {PAD}, self.n_states, (1 << self.arity) - 1
        reach, masks, entering, leaving = self._reachable, {}, {}, {}
        for q, row in self._delta.items():
            for letter, targets in row.items():
                for r in targets:
                    if not (0 <= q < n and 0 <= r < n):
                        raise InvalidAutomaton(f"transition state out of range: {(q, letter, r)}")
                mask = masks.get(letter)
                if mask is None:
                    if len(letter) != self.arity:
                        raise InvalidAutomaton(f"letter {letter!r} has wrong arity")
                    if not symbols.issuperset(letter):
                        raise InvalidAutomaton(f"letter {letter!r} uses symbols outside the alphabet")
                    mask = masks[letter] = _pad_mask(letter)
                    if mask == full:
                        raise InvalidAutomaton("all-pad letter is forbidden")
                if mask and q in reach:
                    for r in targets:
                        entering[r] = entering.get(r, 0) | mask
                leaving[q] = leaving.get(q, full) & mask
        bad = [q for q, padded in entering.items() if padded & ~leaving.get(q, full)]
        if bad:
            q = min(bad)
            letter = min(l for l in self._delta[q] if entering[q] & ~masks[l])
            raise InvalidAutomaton(f"padding invariant violated at state {q} on letter {letter!r}")

    # -- cached structure ------------------------------------------------

    @cached_property
    def transitions(self) -> frozenset:
        return frozenset((q, l, r) for q, row in self._delta.items() for l, rs in row.items() for r in rs)

    @property
    def n_transitions(self) -> int:
        return sum(len(rs) for row in self._delta.values() for rs in row.values())

    def _edges(self):
        """Each (state, successor) pair, once per letter between them."""
        return ((q, r) for q, row in self._delta.items() for rs in row.values() for r in rs)

    @cached_property
    def _reachable(self) -> frozenset:
        succ = {q: {r for rs in row.values() for r in rs} for q, row in self._delta.items()}
        return _search({self.initial}, succ)

    @cached_property
    def _coreachable(self) -> frozenset:
        back: dict = {}
        for q, r in self._edges():
            back.setdefault(r, set()).add(q)
        return _search(self.accepting, back)

    @cached_property
    def useful_states(self) -> frozenset:
        return self._reachable & self._coreachable

    # -- running ----------------------------------------------------------

    @cached_property
    def _subset_steps(self) -> dict:
        """Sorted tuple of states (any number but one) -> the row of that
        set, as `_merged` gives it: the states of the determinised
        automaton that reads and subset products have stepped from (see
        `_row`)."""
        return {}

    @cached_property
    def _subset_loops(self) -> dict:
        """Sorted tuple of states -> the symbols that loop on it (see
        `_loops`), for the sets `rejected_hop` settles a tail on."""
        return {}

    @cached_property
    def _section_splits(self) -> dict:
        """tape -> `_split_tape(self, tape)`, made by the first section on
        that tape (see `section_graph`)."""
        return {}

    def _row(self, states: tuple) -> dict:
        """The row of a sorted tuple of states, letter -> sorted tuple of
        targets: a single state's `_delta` row (`_missing_row`'s when
        `_delta` holds none), or a set's rows merged once and kept in
        `_subset_steps`."""
        if len(states) == 1:
            row = self._delta.get(states[0])
            return self._missing_row(states[0]) if row is None else row
        row = self._subset_steps.get(states)
        if row is None:
            row = self._subset_steps[states] = _merged(self._row((q,)) for q in states)
        return row

    def _loops(self, states: tuple) -> frozenset:
        """The symbols a whose letter (a, a) steps the sorted tuple of
        states `states` to itself, read off its `_row` once and kept in
        `_subset_loops`: a tail of such letters leaves the set as it is."""
        loops = self._subset_loops.get(states)
        if loops is None:
            loops = self._subset_loops[states] = frozenset(
                a for (a, b), targets in self._row(states).items() if a == b and targets == states
            )
        return loops

    def _run(self, letters: Iterable[Letter], trail: list) -> tuple:
        """Run the lazily determinised automaton from the state set
        trail[-1], appending the set reached after each letter to `trail`;
        the set reached at the end, or () as soon as a step is empty.  A
        step is one lookup of the set's row, in `_delta` for one state and
        in `_subset_steps` for more, and one of the letter in it; `_row` is
        called only when the row is missing.  Letters must be tuples, as
        `convolve` gives them; they are not converted."""
        delta, rows, push, current = self._delta, self._subset_steps, trail.append, trail[-1]
        for letter in letters:
            row = delta.get(current[0]) if len(current) == 1 else rows.get(current)
            if row is None:
                row = self._row(current)
            current = row.get(letter, ())
            if not current:
                return current
            push(current)
        return current

    def _missing_row(self, q) -> dict:
        """The moves of state q, which `_delta` holds no row for: none, as
        a built automaton stores every row it has.  A reader fills the row
        here (see `reader`)."""
        return {}

    def accepts_letters(self, letters: Iterable[Letter]) -> bool:
        """Membership of a convolution, read by `_run` from the initial state."""
        return not self.accepting.isdisjoint(self._run(letters, [(self.initial,)]))

    def rejected_hop(self, words: Sequence) -> Optional[int]:
        """The least i whose pair (words[i], words[i + 1]) this binary
        relation rejects, or None; each answer is that of `accepts`.  A
        pair's letters that begin as the previous pair's do are not read
        again: its run resumes from the state set the previous run stored
        after them (`trail[k]`, the set after k letters).  Two pairs share
        their first k letters when their three words agree on their first k
        symbols, so the shared prefix is the lesser of the positions where
        each pair's two words first differ (a C-level compare).

        The compare of a pair of two words of one length also finds where
        they last differ.  Its letters are stepped only up to there; the
        tail after it is letters (a, a), and when each of its symbols loops
        on the set reached (`_loops`), the set after the tail is that set,
        settled by one set test.  The trail then stops where the tail
        begins, so the next pair resumes at most there."""
        if self.arity != 2:
            raise ArityMismatch(f"a path is read by a binary relation, not one of arity {self.arity}")
        trail, prev_diff, accepting, run = [(self.initial,)], 0, self.accepting, self._run
        for i in range(len(words) - 1):
            u, v = words[i], words[i + 1]
            if PAD in v or (not i and PAD in u):  # a word holding the pad symbol is no member
                return i
            n = len(u)
            if n == len(v):  # the positions where they differ, the first and the last
                diffs = list(itertools.compress(itertools.count(), map(operator.ne, u, v)))
                first_diff, tail = (diffs[0], diffs[-1] + 1) if diffs else (n, n)
            else:
                first_diff = next(itertools.compress(itertools.count(), map(operator.ne, u, v)), min(n, len(v)))
            shared = min(prev_diff, first_diff)
            del trail[shared + 1 :]  # each earlier pair was accepted, and its trail is whole up to prev_diff
            prev_diff = first_diff
            if n != len(v):
                current = run(itertools.zip_longest(itertools.islice(u, shared, None), itertools.islice(v, shared, None),
                                                    fillvalue=PAD), trail)
            else:
                tail = max(shared, tail)
                current = run(zip(u[shared:tail], v[shared:tail]), trail)
                if current and tail < n:
                    if self._loops(current).issuperset(itertools.islice(u, tail, None)):
                        prev_diff = min(first_diff, tail)
                    else:
                        current = run(zip(u[tail:], v[tail:]), trail)
            if accepting.isdisjoint(current):
                return i
        return None

    def accepts(self, *words) -> bool:
        """Membership of a word tuple (one word per tape)."""
        if len(words) != self.arity:
            raise ArityMismatch(f"expected {self.arity} words, got {len(words)}")
        try:
            return self.accepts_letters(convolve(words))
        except InvalidSymbol:  # a word holding the pad symbol is no member
            return False


def _check_alphabet(alphabet: tuple) -> None:
    for s in alphabet:
        check_symbol(s)
    if len(set(alphabet)) != len(alphabet):
        raise InvalidAutomaton("duplicate symbols in alphabet")


def _pad_mask(letter) -> int:
    """The tapes a letter pads, as a bit set."""
    return sum(1 << i for i, s in enumerate(letter) if s == PAD)


def _letter_key(alphabet) -> Callable:
    """The sort key of letters over `alphabet`: each symbol's index in it,
    PAD first."""
    index = {s: i for i, s in enumerate(alphabet)}
    index[PAD] = -1

    def key(letter):
        return tuple(map(index.__getitem__, letter))

    return key


def _search(seeds, succs: dict) -> frozenset:
    """The states reachable from `seeds` along `succs`."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        q = stack.pop()
        for r in succs.get(q, ()):
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return frozenset(seen)


def _merged(rows) -> dict:
    """The row of a set of states, from their rows: letter -> the sorted
    tuple of the targets any of them has on it.  The only place where a
    set's rows are merged."""
    merged: dict = {}
    for row in rows:
        for letter, targets in row.items():
            merged.setdefault(letter, set()).update(targets)
    return {letter: tuple(sorted(targets)) for letter, targets in merged.items()}


def automaton(arity, alphabet, n_states, initial, accepting, transitions) -> Automaton:
    """The validated Automaton of (state, letter, state) triples."""
    # indexed in sorted order, as `_canonical` fills `_delta`, so downstream
    # constructions number their states the same in every process (string
    # hashes vary per interpreter run)
    delta: dict = {}
    for (q, letter, r) in sorted({(q, tuple(l), r) for (q, l, r) in transitions}):
        delta.setdefault(q, {}).setdefault(letter, []).append(r)
    return Automaton(
        arity=arity,
        alphabet=tuple(alphabet),
        n_states=n_states,
        initial=initial,
        accepting=frozenset(accepting),
        _delta={q: {l: tuple(rs) for l, rs in row.items()} for q, row in delta.items()},
    )


def _canonical(arity, alphabet, initial_key, accepting_pred, moves) -> Automaton:
    """Build the trimmed Automaton of an implicit graph over hashable state keys.

    moves(key) yields (letters, target_key) groups: `letters` is a tuple of
    letters that all lead to `target_key`.  A graph whose letters share
    targets hands over each shared letter tuple whole; any other yields
    one-letter groups.  The states and rows are `_explored`'s, each
    state's groups handed over sorted by their least letter under
    `_letter_key` (PAD first), ties in yield order: the numbering of the
    same moves yielded one letter at a time, letters visited in sorted
    order, which makes every kernel operation deterministic down to the
    byte level.  Each distinct letter tuple's least sort key is computed
    once per call.  The rows, letters sorted, are the result's `_delta`
    and the only copy of its moves kept.  A letter with a symbol outside
    the alphabet raises before any target of its state is numbered.  The
    result is not validated, so moves written outside the kernel go
    through `build`.
    """
    alphabet = tuple(alphabet)
    letter_key = _letter_key(alphabet)
    ranks: dict = {}  # a group's letters -> the sort key of its least letter

    def rank(group):
        letters = group[0]
        indices = ranks.get(letters)
        if indices is None:
            indices = ranks[letters] = min(map(letter_key, letters))
        return indices

    def ranked(key):
        try:
            return sorted(moves(key), key=rank)  # stable: a tie keeps the yield order
        except KeyError:  # only a move graph given to `build` can hold a foreign symbol
            symbols = {*alphabet, PAD}
            bad = next(letter for letters, _ in moves(key) for letter in letters if not symbols.issuperset(letter))
            raise InvalidAutomaton(f"letter {bad!r} uses symbols outside the alphabet") from None

    rows, accepting, *_ = _explored(initial_key, accepting_pred, ranked)
    for q, row in enumerate(rows):  # in place: each row is freed as its sorted copy is made
        rows[q] = dict(sorted(row.items()))
    a = _unchecked(arity, alphabet, len(rows), 0, accepting, {q: row for q, row in enumerate(rows) if row})
    every = frozenset(range(len(rows)))  # each state kept is reachable, and useful if any accepts
    a.__dict__.update(_reachable=every, _coreachable=every if accepting else frozenset())
    return a


def _explored(initial_key, accepting_pred, moves) -> tuple:
    """The one search of an implicit graph in `_canonical`'s form, as
    (rows, accepting, eps, silent): every row filled by `_numbering` in BFS
    order, then the states that reach acceptance renumbered in order.  A
    useless state has only useless successors, so each useful state is
    first reached from a useful one: the numbering is that of a search of
    the useful states alone.  A group with no letters is an ε-move,
    numbered and followed back by the trim but held by no row; `eps` maps
    each target of ε-moves to their sources, and `silent` holds the states
    past the first that ε-moves alone enter.
    """
    order, back, eps, fill = _numbering(initial_key)
    rows = []
    for q, key in enumerate(order):  # grows while it is read
        rows.append(fill(q, moves(key)))
    accepting = frozenset(itertools.compress(range(len(order)), map(accepting_pred, order)))
    useful = _search(accepting, dict(enumerate(back)))
    if not useful:  # the initial state alone, with no moves
        return [{}], frozenset(), {}, frozenset()
    silent = frozenset(r for r, qs in eps.items() if r and len(qs) == len(back[r]))
    if len(useful) < len(rows):  # renumber the useful states, in order
        kept = sorted(useful)
        new = dict(zip(kept, range(len(kept))))
        image: dict = {}  # a target tuple -> its useful targets renumbered, shared by equal tuples
        for i, old in enumerate([rows[q] for q in kept]):
            rows[i] = row = {}
            for letter, rs in old.items():
                to = image.get(rs)
                if to is None:
                    to = image[rs] = tuple([new[r] for r in rs if r in new])
                if to:
                    row[letter] = to
        del rows[len(kept):]
        accepting = frozenset(new[q] for q in accepting)
        eps = {new[r]: [new[q] for q in qs] for r, qs in eps.items() if r in new}
        silent = frozenset(new[r] for r in silent if r in new)
    return rows, accepting, eps, silent


def _numbering(initial_key) -> tuple:
    """The numbering and row fill of a search over an implicit graph, as
    (order, back, eps, fill): `order` lists the state keys by number, the
    initial key first; `back[r]` lists the states with a move into r, and
    `eps[r]` those with an ε-move into r (see `_explored`); `fill(q,
    groups)` numbers the targets of state q's groups in the order given
    and returns its row, letter -> sorted distinct target numbers.
    `_explored` fills every row, and `reader` a row when a read needs it.
    Numbering a key past the budget in effect when the numbering is made
    raises StateBudgetExceeded, tested on new keys alone.  A group of
    several letters new to the row enters it in one `dict.update`, a
    target set of one state is one tuple shared by every row, and a target
    above an entry's last is appended without a sort.
    """
    budget = STATE_BUDGET.get()
    numbering = {initial_key: 0}
    order = [initial_key]
    back = [[]]
    eps: dict = {}
    single = [(0,)]  # single[r]: the target tuple (r,)

    def fill(q, groups):
        row: dict = {}
        for letters, target in groups:
            r = numbering.get(target)
            if r is None:
                r = numbering[target] = len(order)
                order.append(target)
                back.append([q])
                single.append((r,))
                if len(order) > budget:
                    raise StateBudgetExceeded(len(order), budget)
            else:
                back[r].append(q)
            if not letters:  # an ε-move
                eps.setdefault(r, []).append(q)
            elif len(letters) > 1 and row.keys().isdisjoint(letters):
                row.update(dict.fromkeys(letters, single[r]))
            else:  # one letter, or letters of which some have targets
                for letter in letters:
                    rs = row.get(letter)
                    if rs is None:
                        row[letter] = single[r]
                    elif r > rs[-1]:
                        row[letter] = rs + single[r]
                    elif r not in rs:
                        row[letter] = tuple(sorted(rs + single[r]))
        return row

    return order, back, eps, fill


def _unchecked(*values, cls=Automaton) -> Automaton:
    """An Automaton from field values known to be valid, skipping __post_init__."""
    a = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(a, name, value)
    return a


def build(arity, alphabet, initial_key, accepting_pred, moves) -> Automaton:
    """`_canonical` for moves written outside the kernel: the result is
    validated.  moves(key) yields (letters, target_key) groups, `letters` a
    tuple of letters (tuples of symbols) that all lead to target_key; the
    states are numbered as if each group's letters were read one at a time
    (see `_canonical`)."""
    a = _canonical(arity, alphabet, initial_key, accepting_pred, moves)
    a.__post_init__()
    return a


def reader(arity, alphabet, initial_key, accepting_pred, moves) -> Automaton:
    """The automaton of moves written outside the kernel, as `build` takes
    them, for membership reads only (`accepts`, `accepts_letters`,
    `rejected_hop`): a state's row is filled, by `_canonical`'s numbering
    and row fill (`_numbering`), the first time a read needs it, and kept
    in `_delta`.  Nothing is trimmed, and an untrimmed graph accepts the
    words its trimmed numbering accepts, so every read answers as the
    built automaton's; its states are numbered in the order reads reach
    them, not in BFS order.  The state keys are counted against the state
    budget in effect when the reader is made.  `n_states` and `accepting`
    grow with the states numbered, and `_delta` holds only the rows
    filled, so the reader is no operand of a construction.

    The alphabet is checked here, and each letter of a filled row, once,
    for its arity and its symbols, as `build` checks them.  The padding
    invariant is not checked: a read presents a convolution of words,
    padded by construction, so it follows only paths that spell one,
    whatever other paths the graph has, and its answer can not depend on
    the invariant.  `build` checks it on the same moves."""
    alphabet = tuple(alphabet)
    _check_alphabet(alphabet)
    order, _back, _eps, fill = _numbering(initial_key)
    a = _unchecked(arity, alphabet, 1, 0, {0} if accepting_pred(initial_key) else set(), {}, cls=_Reader)
    a.__dict__.update(_fill=fill, _order=order, _moves=moves, _accepting_pred=accepting_pred,
                      _checked=set(), _symbols=set(alphabet) | {PAD})
    return a


class _Reader(Automaton):
    """An automaton whose rows are filled as reads reach them; see `reader`."""

    def _missing_row(self, q) -> dict:
        order, checked = self._order, self._checked
        row = self._fill(q, self._moves(order[q]))
        for letter in row.keys() - checked:
            if len(letter) != self.arity:
                raise InvalidAutomaton(f"letter {letter!r} has wrong arity")
            if not self._symbols.issuperset(letter):
                raise InvalidAutomaton(f"letter {letter!r} uses symbols outside the alphabet")
            checked.add(letter)
        accepting = self._accepting_pred
        self.accepting.update(n for n in range(self.n_states, len(order)) if accepting(order[n]))
        object.__setattr__(self, "n_states", len(order))
        self._delta[q] = row
        return row


def empty(alphabet, arity) -> Automaton:
    return automaton(arity, alphabet, 1, 0, (), ())


def universe(alphabet, arity) -> Automaton:
    """All valid padded convolutions of the given arity (the pad-mask automaton)."""
    return letter_dfa(alphabet, arity, 0, lambda v, l: 0, lambda v: True)


def _valid_letters(alphabet, arity):
    """All letter tuples over alphabet+PAD except the all-pad one."""
    pool = tuple(alphabet) + (PAD,)
    return (letter for letter in itertools.product(pool, repeat=arity) if any(s != PAD for s in letter))


# -- boolean operations -------------------------------------------------


def _require_compatible(a: Automaton, b: Automaton):
    if a.arity != b.arity:
        raise ArityMismatch(f"arity {a.arity} vs {b.arity}")
    if a.alphabet != b.alphabet:
        raise ArityMismatch(f"alphabet mismatch: {a.alphabet} vs {b.alphabet}")


def intersect(a: Automaton, b: Automaton) -> Automaton:
    _require_compatible(a, b)
    tapes = range(a.arity)
    return join(a, tapes, b, tapes)


def join(a: Automaton, a_tapes: Sequence[int], b: Automaton, b_tapes: Sequence[int]) -> Automaton:
    """The lockstep product: tape i of `a` becomes result tape `a_tapes[i]`,
    likewise for `b`, and a tuple is accepted when each side accepts its own
    tapes of it.  The maps are injective and together cover the result
    tapes; a tape both sides map to carries one word for both.  The
    product's graph is `_join_graph`'s, numbered by `_canonical`; a product
    that is only projected, minimized or joined again is `join_graph`.
    `_numbered(join_graph(...))` saves the same bytes, but its second pass
    made the battery compile slower (405 → 428 ms, least of 15 on 2
    vCPUs), so `join` keeps its one pass."""
    arity, *graph = _join_graph(a, a_tapes, b, b_tapes)
    return _canonical(arity, a.alphabet, *graph)


def _join_graph(a, a_tapes: Sequence[int], b, b_tapes: Sequence[int], drop: Optional[int] = None) -> tuple:
    """The product `join` describes as (arity, start, accepting, moves), the
    last three in the form `_canonical` takes, over (state of `a`, state of
    `b`) keys; `join` numbers it and `join_graph` searches it.  With
    `drop`, letters lose that tape, and one that pads every other tape is
    an ε-move, a group with no letters.

    A side's words may end before the convolution does, so each side runs
    with a virtual drain state, entered from acceptance on all-pad input on
    its own tapes.  A side whose tapes the other side covers never needs
    it: the whole letter would be all-pad.  A key's moves are groups of
    one letter or none, its targets in `a`'s `_delta` order, then `b`'s.
    """
    a_tapes, b_tapes = tuple(a_tapes), tuple(b_tapes)
    tapes = set(a_tapes) | set(b_tapes)
    arity = len(tapes)
    if a.alphabet != b.alphabet:
        raise ArityMismatch(f"alphabet mismatch: {a.alphabet} vs {b.alphabet}")
    if not (len(set(a_tapes)) == len(a_tapes) == a.arity and len(set(b_tapes)) == len(b_tapes) == b.arity):
        raise ArityMismatch(f"tape maps {a_tapes} and {b_tapes} do not fit arities {a.arity} and {b.arity}")
    if tapes != set(range(arity)):
        raise ArityMismatch(f"tape maps {a_tapes} and {b_tapes} do not cover 0..{arity - 1}")
    shared = sorted(set(a_tapes) & set(b_tapes))
    a_key = _picker([a_tapes.index(t) for t in shared], a.arity)
    b_key = _picker([b_tapes.index(t) for t in shared], b.arity)
    kept = [t for t in range(arity) if t != drop]
    pads = (PAD,) * len(kept) if drop is not None else None  # the ε-letter
    pick = _picker([a_tapes.index(t) if t in a_tapes else a.arity + b_tapes.index(t) for t in kept], a.arity)
    a_side, b_side = _side(a, arity > a.arity), _side(b, arity > b.arity)
    b_index: dict = {}  # b's state -> its moves by their symbols on the shared tapes
    groups: dict = {}  # (a's letter, b's letter) -> their one-letter group

    def moves(pair):
        qa, qb = pair
        index = b_index.get(qb)
        if index is None:
            index = b_index[qb] = {}
            for lb, targets in b_side(qb):
                index.setdefault(lb if b_key is None else b_key(lb), []).append((lb, targets))
        for la, a_targets in a_side(qa):
            for lb, b_targets in index.get(la if a_key is None else a_key(la), ()):
                if a_targets is _DRAINED and b_targets is _DRAINED:
                    continue
                letters = groups.get((la, lb))
                if letters is None:  # one group object per pair of letters, so equal letters are one object
                    letter = la if pick is None else pick(la + lb)
                    letters = groups[la, lb] = () if letter == pads else (letter,)
                for ra in a_targets:
                    for rb in b_targets:
                        yield letters, (ra, rb)

    a_acc, b_acc = a.accepting | {_DRAIN}, b.accepting | {_DRAIN}
    return arity, (a.initial, b.initial), lambda pair: pair[0] in a_acc and pair[1] in b_acc, moves


def join_graph(a, a_tapes: Sequence[int], b, b_tapes: Sequence[int], tape: Optional[int] = None):
    """The product `join` builds, as the `_Graph` of `_explored`'s search
    of `_join_graph`'s moves in the order they are yielded: `join`'s result
    up to the names of its states, as both keep the same keys, so each set
    of states a reversal or a subset product forms over it is one over
    that result.  It is an operand of `minimize`, `difference`, `is_subset`,
    and of `join` or `join_graph` again.

    With `tape`, the search drops that tape as it goes and gives the pair
    of projection graphs (∃, ∃^∞) that `projection_graph` gives over
    `join`'s result, without a second scan of its edges: a letter that
    pads every other tape is an ε-move, and the accepting keys are
    `_relabel`'s (`_projected`), less the silent ones.
    """
    arity, start, accepting, moves = _join_graph(a, a_tapes, b, b_tapes, tape)
    if tape is not None and not (arity > 1 and 0 <= tape < arity):
        raise CannotProject(f"cannot drop tape {tape} of a product of arity {arity}")
    rows, final, eps, silent = _explored(start, accepting, moves)
    delta = {q: row for q, row in enumerate(rows) if row}
    if tape is None:
        return _Graph(arity, a.alphabet, 0, final, delta)
    return tuple(_Graph(arity - 1, a.alphabet, 0, _projected(final, eps, inf) - silent, delta) for inf in (False, True))


_DRAIN, _DRAINED = -1, (-1,)


def _side(aut: Automaton, drains: bool = True) -> Callable:
    """The moves of `aut` as one side of a product, state -> its
    (letter, targets) pairs: its own, and, when `drains`, the all-pad
    letter from acceptance into the drain state `_DRAIN`, whose one move
    is that letter again.  A side needs the drain when its words may end
    before the convolution does."""
    drain = [((PAD,) * aut.arity, _DRAINED)]

    def moves(q):
        if q == _DRAIN:
            return drain
        out = aut._delta.get(q, {}).items()
        return itertools.chain(out, drain) if drains and q in aut.accepting else out

    return moves


def _picker(positions: list, arity: int) -> Optional[Callable]:
    """The symbols of an `arity`-letter letter at `positions`, as a tuple;
    None when that is the letter itself."""
    if positions == list(range(arity)):
        return None
    if len(positions) == 1:
        i = positions[0]
        return lambda letter: (letter[i],)
    if not positions:
        return lambda letter: ()
    return operator.itemgetter(*positions)


def union(a: Automaton, b: Automaton) -> Automaton:
    _require_compatible(a, b)

    # Fresh initial state that mimics both initial states; no epsilon moves needed.
    def moves(key):
        tag, q = key
        if tag == 2:
            for side, aut in ((0, a), (1, b)):
                for letter, targets in aut._delta.get(aut.initial, {}).items():
                    for r in targets:
                        yield (letter,), (side, r)
            return
        aut = a if tag == 0 else b
        for letter, targets in aut._delta.get(q, {}).items():
            for r in targets:
                yield (letter,), (tag, r)

    def acc(key):
        tag, q = key
        if tag == 2:
            return a.initial in a.accepting or b.initial in b.accepting
        return q in (a.accepting if tag == 0 else b.accepting)

    return _canonical(a.arity, a.alphabet, (2, None), acc, moves)


def _difference_graph(a: Automaton, b: Automaton, tape: Optional[int] = None):
    """L(a) minus L(b) as an implicit graph, in the (start, accepting, moves)
    form `_canonical` takes.

    A key pairs a state of `a` with the sorted tuple of states `b` can be in
    after the same letters, so `b` is determinized only along the letters
    `a` uses and no complement of it is built.  Each key reads the set's
    row once (`b._row`).  With `tape`, `b` is unary and reads that tape
    alone, as the letter (symbol on `tape`,), entering a drain state from
    acceptance once the tape pads: the accepting keys are then those of the
    tuples of L(a) whose word on `tape` is not in L(b).
    """
    DRAIN = -1
    done = b.accepting if tape is None else b.accepting | {DRAIN}

    def moves(pair):
        p, subset = pair
        row = b._row(subset)
        if tape is not None and not done.isdisjoint(subset):  # the tape may pad: into the drain
            row = {**row, (PAD,): (DRAIN,)}
        for letter, targets in a._delta.get(p, {}).items():
            after = row.get(letter if tape is None else (letter[tape],), ())
            for r in targets:
                yield (letter,), (r, after)

    return (a.initial, (b.initial,)), lambda pair: pair[0] in a.accepting and done.isdisjoint(pair[1]), moves


def _reaches_acceptance(start, accepting, moves) -> bool:
    """Whether an implicit graph in `_canonical`'s form reaches an accepting
    key.  The search stops at the first one and builds no automaton; like
    every construction it raises at budget + 1 keys."""
    budget = STATE_BUDGET.get()
    if accepting(start):
        return True
    seen, stack = {start}, [start]
    while stack:
        for _letters, key in moves(stack.pop()):
            if key not in seen:
                seen.add(key)
                if len(seen) > budget:
                    raise StateBudgetExceeded(len(seen), budget)
                if accepting(key):
                    return True
                stack.append(key)
    return False


def difference(a: Automaton, b: Automaton) -> Automaton:
    """L(a) minus L(b): the difference graph, built.  `b` may be a
    projection graph (see `projection_graph`)."""
    _require_compatible(a, b)
    return _canonical(a.arity, a.alphabet, *_difference_graph(a, b))


def is_subset(small: Automaton, big: Automaton) -> bool:
    """L(small) subseteq L(big): the difference graph, searched until its
    first accepting key.  Either operand may be a projection graph."""
    _require_compatible(small, big)
    return not _reaches_acceptance(*_difference_graph(small, big))


def is_subset_of_cube(rel: Automaton, domain: Automaton) -> bool:
    """L(rel) subseteq { conv(w_1..w_k) : each w_i in L(domain) }: one
    inclusion search per tape, with the domain read on that tape.  No cube
    is built, and only the letters rel uses are probed."""
    if domain.arity != 1:
        raise ArityMismatch("domain must have arity 1")
    if rel.alphabet != domain.alphabet:
        raise ArityMismatch("alphabet mismatch")
    return not any(_reaches_acceptance(*_difference_graph(rel, domain, tape)) for tape in range(rel.arity))


def is_irreflexive(rel: Automaton) -> bool:
    """No pair (w, w) is in the binary relation: `rel`'s own states,
    searched along its letters (a, a) alone from the initial state, reach
    no accepting one, so the pair (ε, ε) counts too.  No diagonal is built."""
    if rel.arity != 2:
        raise ArityMismatch(f"a relation of arity {rel.arity} is not binary")

    def moves(q):
        for letter, targets in rel._delta.get(q, {}).items():
            if letter[0] == letter[1]:
                for r in targets:
                    yield (letter,), r

    return not _reaches_acceptance(rel.initial, rel.accepting.__contains__, moves)


def is_total(rel: Automaton, domain: Automaton) -> bool:
    """Any two distinct words of L(domain) are related by the binary
    relation one way or the other: one search for a counterexample pair
    (x, y), with no cube, union or transpose built.

    A key is (domain state on x, the same on y, the set of `rel`'s states
    after (x, y), the set after (y, x), x and y equal so far).  Each
    domain side moves as a side of `join` does (`_side`), into a drain
    from acceptance on the pad; the two sets step by `rel._row`, the
    second on the swapped letter.  A key is a counterexample when both
    sides accept or are drained, neither set meets `rel`'s accepting
    states, and the words differ."""
    if rel.arity != 2 or domain.arity != 1:
        raise ArityMismatch(f"a relation of arity {rel.arity} over a domain of arity {domain.arity}")
    if rel.alphabet != domain.alphabet:
        raise ArityMismatch("alphabet mismatch")
    side, done = _side(domain), domain.accepting | {_DRAIN}

    def moves(key):
        qx, qy, ahead, behind, equal = key
        row, swapped, y_moves = rel._row(ahead), rel._row(behind), list(side(qy))
        for (a,), xs in side(qx):
            for (b,), ys in y_moves:
                if xs is not _DRAINED or ys is not _DRAINED:
                    letter = (a, b)
                    after, before = row.get(letter, ()), swapped.get((b, a), ())
                    for rx in xs:
                        for ry in ys:
                            yield (letter,), (rx, ry, after, before, equal and a == b)

    def accepting(key):
        qx, qy, ahead, behind, equal = key
        return not equal and qx in done and qy in done and rel.accepting.isdisjoint(ahead + behind)

    start = (domain.initial,) * 2 + ((rel.initial,),) * 2 + (True,)
    return not _reaches_acceptance(start, accepting, moves)


def is_empty(a: Automaton) -> bool:
    return not (a._reachable & a.accepting)


def is_infinite(a: Automaton) -> bool:
    """True iff the language is infinite (a useful cycle exists)."""
    return bool(_reaching_cycles(a.useful_states, a._edges()))


def _reaching_cycles(live: frozenset, edges) -> frozenset:
    """The states of `live` that can reach a cycle inside `live`, given the
    edges as (state, successor) pairs.

    Sinks are peeled off until none is left: a state whose successors in
    `live` have all been peeled starts no infinite path there, and every
    state left does.
    """
    outdeg = dict.fromkeys(live, 0)
    preds: dict = {}
    for q, r in edges:
        if q in live and r in live:
            outdeg[q] += 1
            preds.setdefault(r, []).append(q)
    sinks = [q for q, n in outdeg.items() if n == 0]
    for q in sinks:  # grows while it is read
        for p in preds.get(q, ()):
            outdeg[p] -= 1
            if outdeg[p] == 0:
                sinks.append(p)
    return live.difference(sinks)


def count_or_enumerate(a: Automaton, limit: int) -> list[WordTuple]:
    """Up to `limit` accepted word tuples in length-lexicographic order.

    Length here is convolution length; ties are broken letter-wise using the
    declared symbol order with PAD sorting first.  This order restricted to
    arity 1 is the built-in llex relation.

    `a` is read through `arity`, `alphabet`, `initial`, `accepting` and
    `_delta` alone, so it may be a section graph (`section_graph`), read
    without being numbered.  The words do not depend on a numbering, and
    the enumeration keeps to the states reachable from `a.initial`: one
    forward search gives them and their back edges, and acceptance is
    searched back along those edges only.  A graph built by a forward
    search holds only reachable keys, so the states its trimmed numbering
    keeps are its coreachable ones, and the layers below end exactly where
    they end on that numbering.
    """
    out: list[WordTuple] = []
    if limit <= 0:
        return out
    delta = a._delta
    back: dict = {}  # the back edges of the reachable states
    seen, stack = {a.initial}, [a.initial]
    while stack:
        q = stack.pop()
        for targets in delta.get(q, {}).values():
            for r in targets:
                back.setdefault(r, []).append(q)
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
    if a.initial in a.accepting:
        out.append(((),) * a.arity)
    # layers[m]: the reachable states that reach acceptance in exactly m
    # steps.  A word longer than m passes through layer m, so once a layer is
    # empty no longer word exists; in an infinite language no layer is empty.
    layers = [a.accepting & seen]
    while len(out) < limit:
        layer = {p for q in layers[-1] for p in back.get(q, ())}
        if not layer:
            break
        layers.append(layer)
        if a.initial in layer:
            out.extend(_enumerate_length(a, layers, len(layers) - 1, limit - len(out)))
    return out


def _enumerate_length(a, layers, length, want):
    # DFS over state subsets, so each letter sequence is visited exactly once
    # even when the automaton is nondeterministic.  The stack holds one
    # letter iterator per position of `path`, so long words need no recursion.
    results = []
    path = []
    delta, lkey = a._delta, _letter_key(a.alphabet)

    def branches(subset, remaining):
        # one state's row is read bare, a set's merged; the order of targets
        # does not matter here, as they only form the next set
        row = delta.get(subset[0], {}) if len(subset) == 1 else _merged(delta.get(q, {}) for q in subset)
        inside = layers[remaining - 1].__contains__
        for letter in sorted(row, key=lkey):
            targets = tuple(filter(inside, row[letter]))
            if targets:
                yield letter, targets

    stack = [branches((a.initial,), length)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if path:
                path.pop()
            continue
        letter, subset = step
        path.append(letter)
        if len(path) < length:
            stack.append(branches(subset, length - len(path)))
            continue
        if not a.accepting.isdisjoint(subset):
            results.append(deconvolve(path))
            if len(results) >= want:
                break
        path.pop()
    return results


def minimize(a: Automaton) -> Automaton:
    """Language-equivalent minimal (partial, trimmed) DFA, by double
    reversal (Brzozowski 1962).

    The first reverse subset construction gives an accessible DFA of the
    reversed language: `_canonical`'s BFS reaches every state and its trim
    keeps it accessible.  Reversing such a DFA and determinizing gives the
    minimal DFA of the language read forwards.  `_canonical` numbers that
    as it numbers any DFA, so the result depends on L(a) alone.  Each pass
    raises at budget + 1 states.  The first pass reads reversed words,
    which are not padded convolutions, so it never leaves this function.
    It reads `a` only through its edges, so `a` may be a projection graph.
    """
    return _reverse_subsets(_reverse_subsets(a))


def _reverse_subsets(a: Automaton) -> Automaton:
    """The subset construction over `a`'s edges read backwards, from its
    accepting set: a set is a sorted tuple, its row the merge (`_merged`)
    of its states' back edges, and it accepts when it holds `a.initial`."""
    back: dict = {}
    for q, out in a._delta.items():
        for letter, targets in out.items():
            for r in targets:
                back.setdefault(r, {}).setdefault(letter, []).append(q)

    def moves(subset):
        for letter, sources in _merged(back.get(r, {}) for r in subset).items():
            yield (letter,), sources

    return _canonical(a.arity, a.alphabet, tuple(sorted(a.accepting)), lambda s: a.initial in s, moves)


# -- tape surgery -------------------------------------------------------


def _require_tape(a: Automaton, tape: int):
    if a.arity < 2:
        raise CannotProject("cannot project an arity-1 automaton")
    if not (0 <= tape < a.arity):
        raise CannotProject(f"tape {tape} out of range for arity {a.arity}")


def project(a: Automaton, tape: int, infinite: bool = False) -> Automaton:
    """Existential projection: drop the given tape and re-normalize padding.

    With `infinite`, a tuple is kept only when infinitely many words on the
    dropped tape complete it (the ∃^∞ quantifier).  This is the projection
    graph, numbered; see `projection_graph` and `_relabel`.
    """
    return _numbered(projection_graph(a, tape, infinite))


def projection_graph(a: Automaton, tape: int, infinite: bool = False) -> _Graph:
    """The projection of `a` (see `project`), unnumbered: an operand of
    `minimize`, `is_subset` and `difference` only, never an Automaton.
    A product that is only projected is not built for it either:
    `join_graph` gives the same graphs from its own search.

    Those three read an operand through `arity`, `alphabet`, `initial`,
    `accepting` and `_delta` alone, so they take the graph that `project`
    numbers and skip its BFS.  `minimize` and `is_subset` depend on the
    language alone, so their results are those over the built projection.
    The bytes of `difference`, and the state counts the budget reads, also
    need each set of states that a reversal or a subset product forms to
    match one over the projection.  They do when `a` is trimmed, as every
    kernel result is.  By the padding invariant, a state reached only by
    ε-letters has only ε-letters out, so it enters no such set: the graph
    accepts only at the initial state and at states a non-ε letter enters.
    Each state a non-ε letter enters reaches a live one, so the
    projection's trim drops none of them.  With `infinite` that last step
    fails, since a state may reach acceptance by finite ε-runs alone: a
    forward subset product keeps such a state where the projection drops
    it, so `difference` gives the same language in other bytes.  A
    reversal's sets hold only states that reach a live one, so the first
    pass of `minimize` matches with either value.
    """
    _require_tape(a, tape)
    return _relabel(a, a.arity - 1, lambda letter: letter[:tape] + letter[tape + 1 :], infinite)


def permute_tapes(a: Automaton, perm: Sequence[int]) -> Automaton:
    """Reorder tapes: new tape i carries old tape perm[i]."""
    if sorted(perm) != list(range(a.arity)):
        raise ArityMismatch(f"{perm} is not a permutation of 0..{a.arity - 1}")
    return _numbered(_relabel(a, a.arity, lambda letter: tuple(letter[p] for p in perm)))


@record
class _Graph:
    """An automaton before numbering: a relabelling (`_relabel`), whose
    `_delta` maps each of the operand's own states to its non-ε letters and
    their targets, a section (`section_graph`), over the (state, position)
    keys its search reached, or a product (`join_graph`), over the ints
    `_explored` gave its keys.  A product's targets are `_numbering`'s
    sorted distinct tuples; a relabelling's or a section's keep the
    operand's order and may repeat, as `_numbered` numbers them, and none
    of their states is trimmed."""

    arity: int
    alphabet: tuple
    initial: int
    accepting: frozenset
    _delta: dict

    def _row(self, states: tuple) -> dict:
        """The row of a sorted tuple of states, as `Automaton._row` gives
        it; a single state's row is merged too, as a relabelling's or a
        section's targets keep the operand's order.  A graph is read by one
        construction, whose sets of states seldom repeat, so no row is
        kept."""
        return _merged(self._delta.get(q, {}) for q in states)


def _relabel(a: Automaton, arity: int, relabel: Callable, infinite: bool = False) -> _Graph:
    """`a` with each letter mapped by `relabel` to an `arity`-letter, and
    the letters mapped to all-pad (ε-letters) read as empty moves.  Each
    distinct letter is mapped once.

    An ε-letter can only be followed by such letters, by the padding
    invariant, so on every run the ε-letters form the tail.  A state's
    moves are therefore just its own non-ε letters, and the result accepts
    at a state when its ε-edges reach acceptance, found by one backward
    search from the accepting states.  With `infinite` the state must also
    reach, along ε-edges, a cycle that can still reach acceptance: pumping
    the cycle gives witnesses of every greater length, and a witness more
    than n_states letters past the other tapes repeats a state in its tail.
    A relabelling that keeps every tape, such as a permutation, has no
    ε-letters, so its accepting states are `a`'s.  Only the initial state
    and the states a non-ε letter enters are marked accepting: no other
    state is reached.

    Numbered by `_numbered`, the result is byte-identical to the textbook
    construction in which each state takes the moves and the acceptance of
    its ε-closure: the closure of a reachable state adds only states that
    read ε-letters alone, so the move graph, hence the BFS numbering, is
    unchanged, and "the closure meets the accepting states" is the
    backward search.  Letters that map to one letter keep their targets in
    the sorted full-letter order of `_delta`, as there.  With `infinite`,
    the language (not the bytes) is that of the pumping-bound
    construction, which intersects the minimal DFA with a counter of the
    final ε-run and so also splits states by pad mask.
    """
    images: dict = {}  # letter -> its image, or () for an ε-letter
    real: dict = {}
    back: dict = {}  # the ε-edges, target -> sources
    entered = {a.initial}  # the initial state and every target of a non-ε letter
    for q, out in a._delta.items():
        row: dict = {}
        for letter, targets in out.items():
            rest = images.get(letter)
            if rest is None:
                rest = relabel(letter)
                rest = images[letter] = rest if any(s != PAD for s in rest) else ()
            if rest:
                row.setdefault(rest, []).extend(targets)
                entered.update(targets)
            else:
                for r in targets:
                    back.setdefault(r, []).append(q)
        if row:
            real[q] = row
    return _Graph(arity, a.alphabet, a.initial, _projected(a.accepting, back, infinite) & entered, real)


def _projected(accepting, eps: dict, infinite: bool) -> frozenset:
    """The states of a relabelling (`_relabel`, or `join_graph` given a
    tape) whose ε-edges, kept backwards in `eps` (target -> sources), reach
    `accepting`, and with `infinite` also reach a cycle that can still
    reach acceptance; each caller keeps those that are reached."""
    live = _search(accepting, eps)
    if infinite:
        live = _reaching_cycles(live, ((q, r) for r, qs in eps.items() for q in qs))
    return live


def _numbered(g: _Graph) -> Automaton:
    """The automaton of a relabelling or a section: `_canonical`'s BFS
    over its graph."""

    def moves(q):
        for rest, targets in g._delta.get(q, {}).items():
            for r in targets:
                yield (rest,), r

    return _canonical(g.arity, g.alphabet, g.initial, g.accepting.__contains__, moves)


# -- common relation automata -------------------------------------------


def letter_dfa(alphabet, arity, start, step, accepting_pred) -> Automaton:
    """Automaton from a letter classifier.

    step(state, letter) returns the next classifier state or None to reject;
    the pad-mask product is composed in, so the classifier only ever sees
    valid convolutions and the result satisfies the padding invariant.
    """
    alphabet = tuple(alphabet)
    letters = list(_valid_letters(alphabet, arity))

    def moves(key):
        mask, v = key
        for letter in letters:
            if any(m and s != PAD for m, s in zip(mask, letter)):
                continue
            v2 = step(v, letter)
            if v2 is None:
                continue
            yield (letter,), (tuple(s == PAD for s in letter), v2)

    start_key = ((False,) * arity, start)
    return build(arity, alphabet, start_key, lambda key: accepting_pred(key[1]), moves)


def diagonal(alphabet) -> Automaton:
    """Pairs of equal words."""
    return letter_dfa(alphabet, 2, 0, lambda v, l: v if l[0] == l[1] else None, lambda v: True)


def llex_automaton(alphabet) -> Automaton:
    """Strict length-lexicographic order on tape 0 vs tape 1.

    Shorter words come first; equal lengths compare by the declared symbol
    order.  This is the built-in `llex` relation.  Every condensation level
    asks for it, so it is built once per alphabet.  Its BFS numbers at
    most five keys, one per classifier value, so a budget of five or more
    never stops it; under a smaller one it is built afresh, to raise
    where its BFS does.
    """
    alphabet = tuple(alphabet)
    return _llex_automaton(alphabet) if STATE_BUDGET.get() >= 5 else _llex_automaton.__wrapped__(alphabet)


@cache
def _llex_automaton(alphabet: tuple) -> Automaton:
    idx = {s: i for i, s in enumerate(alphabet)}
    EQ, LT, GT, XS, YS = range(5)  # XS, YS: tape 0 or tape 1 has ended

    def step(v, letter):
        x, y = letter
        if x == PAD:
            return XS
        if y == PAD:
            return YS
        if v == EQ and x != y:
            return LT if idx[x] < idx[y] else GT
        return v

    return letter_dfa(alphabet, 2, EQ, step, lambda v: v in (LT, XS))


def shorter_automaton(alphabet) -> Automaton:
    """|x| < |y| on tape 0 vs tape 1."""
    # state 1 once tape 0 has ended; tape 1 may not end first
    return letter_dfa(alphabet, 2, 0, lambda v, l: 1 if l[0] == PAD else (None if l[1] == PAD else 0), lambda v: v == 1)


def fixed_word(alphabet, word) -> Automaton:
    """The singleton language {word} (arity 1)."""
    w = tuple(word)
    n = len(w)

    def moves(i):
        if i < n:
            yield ((w[i],),), i + 1

    return build(1, alphabet, 0, lambda i: i == n, moves)


def section(rel: Automaton, tape: int, word) -> Automaton:
    """Fix one tape of a relation to a constant word and project it away:
    the section graph (see `section_graph`), numbered."""
    return _numbered(section_graph(rel, tape, word))


def section_graph(rel: Automaton, tape: int, word) -> _Graph:
    """The section of `rel` at `word` on `tape` (see `section`), unnumbered:
    a `_Graph` over (state, position in word) keys, holding the keys a
    forward search from (rel.initial, 0) reaches.

    A letter whose other tapes all read pad can only be followed by such
    letters, so those letters are not moves: whether the rest of the word
    can be read that way is looked up in `tail[i]`, the states that accept
    `word[i:]` on `tape` with every other tape padded.  The split of
    `rel`'s letters into moves and tape-only tail edges is made once per
    tape (`Automaton._section_splits`); only `tail` is made per word.  For
    one (state, symbol), distinct letters have distinct rests, so a key's
    row lists its moves in `rel`'s letter order, as `_numbered` reads them.
    The keys are at most `rel`'s states times the word's positions, so,
    like a projection's graph, the search reads no state budget; `section`
    reads it in its BFS.
    """
    _require_tape(rel, tape)
    w = tuple(word)
    symbols = set(rel.alphabet)
    for s in w:
        if s not in symbols:
            raise InvalidSymbol(f"symbol {s!r} of the section word is not in the alphabet")
    n = len(w)
    splits = rel._section_splits
    real, tail_sources = splits[tape] if tape in splits else splits.setdefault(tape, _split_tape(rel, tape))
    tail = [frozenset()] * n + [rel.accepting]
    for i in range(n - 1, -1, -1):
        if not tail[i + 1]:  # then no earlier tail holds a state either
            break
        tail[i] = frozenset(q for r in tail[i + 1] for q in tail_sources.get((w[i], r), ()))

    start = (rel.initial, 0)
    delta: dict = {}
    seen, stack = {start}, [start]
    while stack:
        q, i = key = stack.pop()
        sym, nxt = (w[i], i + 1) if i < n else (PAD, n)
        for rest, targets in real.get((q, sym), ()):
            out = delta.setdefault(key, {})[rest] = [(r, nxt) for r in targets]
            fresh = [k for k in out if k not in seen]
            seen.update(fresh)
            stack.extend(fresh)
    accepting = frozenset(k for k in seen if k[0] in tail[k[1]])
    return _Graph(rel.arity - 1, rel.alphabet, start, accepting, delta)


def _split_tape(rel: Automaton, tape: int) -> tuple:
    """`rel`'s letters split by their symbol on `tape`, as (real,
    tail_sources): real[(q, sym)] lists (rest, targets), the letters of q
    that read sym on `tape` and something on another tape, with `tape`
    dropped; tail_sources[(sym, r)] lists the states q with an edge into r
    that reads sym on `tape` alone."""
    real: dict = {}
    tail_sources: dict = {}
    for q, out in rel._delta.items():
        for letter, targets in out.items():
            rest = letter[:tape] + letter[tape + 1 :]
            if all(s == PAD for s in rest):
                for r in targets:
                    tail_sources.setdefault((letter[tape], r), []).append(q)
            else:
                real.setdefault((q, letter[tape]), []).append((rest, targets))
    return real, tail_sources


# -- text format ---------------------------------------------------------


def save_automaton(a: Automaton, name: str) -> str:
    lines = [f"automaton {name}", f"arity {a.arity}", "alphabet " + " ".join(a.alphabet), f"states {a.n_states}", f"initial {a.initial}", "accepting " + " ".join(str(q) for q in sorted(a.accepting))]
    key = _letter_key(a.alphabet)
    for q, row in a._delta.items():
        for letter in sorted(row, key=key):
            lines.extend(f"trans {q} ({','.join(letter)}) {r}" for r in row[letter])
    return "\n".join(lines) + "\n"


def parse_automaton(text: str, expect_name: Optional[str] = None) -> tuple[str, Automaton]:
    transitions = []

    def trans(words):
        if len(words) != 3 or not (words[1].startswith("(") and words[1].endswith(")")):
            raise LoadError("malformed trans line")
        transitions.append((int(words[0]), tuple(words[1][1:-1].split(",")), int(words[2])))

    head = read_directives(
        text,
        {
            "automaton": one_word,
            "arity": lambda w: int(one_word(w)),
            "alphabet": tuple,
            "states": lambda w: int(one_word(w)),
            "initial": lambda w: int(one_word(w)),
            "accepting": lambda w: frozenset(int(p) for p in w),
        },
        {"trans": trans},
    )
    name = head["automaton"]
    if expect_name is not None and name != expect_name:
        raise LoadError(f"expected automaton named {expect_name!r}, file declares {name!r}")
    try:
        a = automaton(head["arity"], head["alphabet"], head["states"], head["initial"], head["accepting"], transitions)
    except InvalidAutomaton as exc:
        raise LoadError(str(exc)) from exc
    return name, a


def load_automaton(path, expect_name=None) -> tuple[str, Automaton]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_automaton(fh.read(), expect_name=expect_name)
