"""Operational semantics of higher-order pushdown stores and automata:
level-indexed push/pop, configuration graphs with epsilon edges, the
epsilon-contraction convention, and the unfolding of colored graphs.

A 0-pds is a letter; an (n+1)-pds is a nonempty sequence of n-pds.  push^k
copies the topmost (k-1)-pds onto its k-pds and overwrites the topmost
letter; pop^k removes the topmost (k-1)-pds and may never empty a store.

The `.hopda` text format is read by `errors.read_directives`, the line
reader that all four text formats share: `hopda`, `level`, `input`, `pds`
and `bottom` appear once each, `state` and `rule` lines repeat.
HopdaSpec checks the machine itself, as TmSpec does for `.tm` files.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable, Optional, Union

from . import ordinals as o
from .automata import _search, dot_label
from .errors import BadLevel, EmptyPds, LoadError, StateBudgetExceeded, WobError, one_word, read_directives, state_line
from .records import record

EPSILON = "eps"
MAX_LEVEL = 100


@record
class Npds:
    level: int
    content: Union[str, tuple]  # a letter at level 0, a tuple of Npds above

    def __post_init__(self):
        if self.level == 0:
            if not isinstance(self.content, str) or len(self.content) != 1:
                raise BadLevel("a 0-pds is a single letter")
        else:
            if not isinstance(self.content, tuple) or not self.content:
                raise BadLevel("an (n+1)-pds is a nonempty tuple")
            for child in self.content:
                if child.level != self.level - 1:
                    raise BadLevel("pds levels must be homogeneous")

    def serialize(self) -> str:
        if self.level == 0:
            return self.content
        return "[" + "".join(c.serialize() for c in self.content) + "]"


def letter(a: str) -> Npds:
    return Npds(0, a)


def init_pds(level: int, bottom: str) -> Npds:
    p = letter(bottom)
    for _ in range(level):
        p = Npds(p.level + 1, (p,))
    return p


def top_letter(p: Npds) -> str:
    while p.level > 0:
        p = p.content[-1]
    return p.content


def _set_top_letter(p: Npds, a: str) -> Npds:
    if p.level == 0:
        return letter(a)
    return Npds(p.level, p.content[:-1] + (_set_top_letter(p.content[-1], a),))


def push_k(p: Npds, k: int, a: str) -> Npds:
    """Copy the topmost (k-1)-pds onto its k-pds, then overwrite the topmost
    letter with `a`."""
    if not (1 <= k <= p.level):
        raise BadLevel(f"push^{k} on a level-{p.level} pds")
    if p.level == k:
        copy = _set_top_letter(p.content[-1], a)
        return Npds(k, p.content + (copy,))
    return Npds(p.level, p.content[:-1] + (push_k(p.content[-1], k, a),))


def pop_k(p: Npds, k: int) -> Npds:
    """Remove the topmost (k-1)-pds; popping may never empty a store."""
    if not (1 <= k <= p.level):
        raise BadLevel(f"pop^{k} on a level-{p.level} pds")
    if p.level == k:
        if len(p.content) <= 1:
            raise EmptyPds(f"pop^{k} would empty the store")
        return Npds(k, p.content[:-1])
    return Npds(p.level, p.content[:-1] + (pop_k(p.content[-1], k),))


def apply_op(p: Npds, op: tuple) -> Npds:
    if op[0] == "push":
        return push_k(p, op[1], op[2])
    if op[0] == "pop":
        return pop_k(p, op[1])
    if op[0] == "noop":
        return p
    raise WobError(f"unknown operation {op!r}")


# -- automata -------------------------------------------------------------------


@record
class Rule:
    state: str
    letter: Optional[str]  # None is an epsilon move
    guard: str  # topmost letter
    new_state: str
    op: tuple  # ("push", k, a) | ("pop", k) | ("noop",)


@record
class HopdaSpec:
    name: str
    level: int
    input_alphabet: tuple
    pds_alphabet: tuple
    states: tuple  # first is initial
    rules: tuple[Rule, ...]
    bottom: str
    accepting: frozenset = frozenset()

    def __post_init__(self):
        # the recursive pds operations take a few frames per level
        if not 1 <= self.level <= MAX_LEVEL:
            raise BadLevel(f"automaton level must be between 1 and {MAX_LEVEL}")
        if not self.states:
            raise WobError("need at least one state")
        if len(set(self.states)) != len(self.states):
            raise WobError("duplicate state names")
        for kind, letters in (("input", self.input_alphabet), ("pds", self.pds_alphabet)):
            if len(set(letters)) != len(letters):
                raise WobError(f"duplicate {kind} letters")
        if EPSILON in self.input_alphabet:
            raise WobError(f"input letter {EPSILON!r} is reserved")
        for kind, letters in (("input", self.input_alphabet), ("pds", self.pds_alphabet)):
            for a in letters:
                if not (isinstance(a, str) and len(a) == 1):
                    raise WobError(f"{kind} letter {a!r} is not a single character")
        if "[" in self.pds_alphabet or "]" in self.pds_alphabet:
            raise WobError("a pds letter may not be '[' or ']', which delimit a serialized store")
        if self.bottom not in self.pds_alphabet:
            raise WobError("bottom letter must be in the pds alphabet")
        for r in self.rules:
            if r.state not in self.states or r.new_state not in self.states:
                raise WobError(f"unknown state in rule {r}")
            if r.letter is not None and r.letter not in self.input_alphabet:
                raise WobError(f"unknown input letter in rule {r}")
            if r.guard not in self.pds_alphabet:
                raise WobError(f"unknown guard letter in rule {r}")
            if r.op[0] == "push":
                if not (1 <= r.op[1] <= self.level) or r.op[2] not in self.pds_alphabet:
                    raise WobError(f"bad push in rule {r}")
            elif r.op[0] == "pop":
                if not (1 <= r.op[1] <= self.level):
                    raise WobError(f"bad pop in rule {r}")
            elif r.op[0] != "noop":
                raise WobError(f"bad op in rule {r}")

    @property
    def initial_state(self) -> str:
        return self.states[0]

    def initial_pds(self) -> Npds:
        return init_pds(self.level, self.bottom)

    def moves_from(self, state: str, pds: Npds):
        top = top_letter(pds)
        for r in self.rules:
            if r.state != state or r.guard != top:
                continue
            try:
                yield r.letter, r.new_state, apply_op(pds, r.op)
            except EmptyPds:
                continue


# -- colored graphs ---------------------------------------------------------------


@record
class ColoredGraph:
    """A graph whose search stopped at a budget lists in `cut` the vertices
    some of whose edges it dropped; it is partial when it has any."""

    vertices: tuple
    edges: dict  # color -> frozenset of (u, v)
    root: Optional[object] = None
    cut: frozenset = frozenset()

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise WobError("duplicate vertices")
        for pairs in self.edges.values():
            for (u, v) in pairs:
                if u not in vset or v not in vset:
                    raise WobError(f"edge endpoint missing: {(u, v)}")
        if self.root is not None and self.root not in vset:
            raise WobError("root is not a vertex")
        if not self.cut <= vset:
            raise WobError("a cut vertex is not a vertex")

    @property
    def partial(self) -> bool:
        return bool(self.cut)

    @property
    def colors(self) -> tuple:
        return tuple(sorted(self.edges))

    def to_dot(self) -> str:
        index = {v: i for i, v in enumerate(self.vertices)}
        lines = ["digraph g {"]
        for v, i in index.items():
            shape = ' shape="box"' if v == self.root else ""
            lines.append(f'  n{i} [label={dot_label(_vlabel(v))}{shape}];')
        for color in self.colors:
            for (u, v) in sorted(self.edges.get(color, ()), key=lambda p: (index[p[0]], index[p[1]])):
                lines.append(f'  n{index[u]} -> n{index[v]} [label={dot_label(color)}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _vlabel(v) -> str:
    if isinstance(v, tuple) and len(v) == 2 and isinstance(v[0], str):
        return f"{v[0]}:{v[1]}"
    return str(v)


def graph_from_edges(vertices, edges, root=None, cut=frozenset()) -> ColoredGraph:
    """edges: iterable of (u, color, v)."""
    by_color: dict = {}
    for (u, c, v) in edges:
        by_color.setdefault(c, set()).add((u, v))
    return ColoredGraph(
        vertices=tuple(vertices),
        edges={c: frozenset(ps) for c, ps in by_color.items()},
        root=root,
        cut=frozenset(cut),
    )


def config_graph(h: HopdaSpec, budget: int = 1000) -> ColoredGraph:
    """BFS over configurations (state, pds) from the initial one; edges are
    labeled with input letters or the epsilon color.  Past `budget` vertices
    no new one is added, and a vertex with a move to one is cut.  Each
    configuration is keyed once, as its vertex (state, serialized pds)."""
    pds = h.initial_pds()
    root = (h.initial_state, pds.serialize())
    pds_of = {root: pds}  # vertex -> its pds, in BFS order
    frontier, edges, cut = [root], [], set()
    while frontier:
        next_frontier = []
        for u in sorted(frontier):
            for letter_, new_state, new_pds in h.moves_from(u[0], pds_of[u]):
                v = (new_state, new_pds.serialize())
                if v not in pds_of:
                    if len(pds_of) >= budget:
                        cut.add(u)
                        continue
                    pds_of[v] = new_pds
                    next_frontier.append(v)
                edges.append((u, EPSILON if letter_ is None else letter_, v))
        frontier = next_frontier
    return graph_from_edges(pds_of, edges, root=root, cut=cut)


def _runs(h: HopdaSpec, word: tuple):
    """The configurations that runs on `word` reach, depth first, in the
    order they are popped: each as its key (state, serialized pds, position
    in word) and its pds."""
    pds = h.initial_pds()
    start = (h.initial_state, pds.serialize(), 0)
    seen = {start}
    stack_ = [(start, pds)]
    while stack_:
        key, pds = stack_.pop()
        yield key, pds
        state, _, pos = key
        for letter_, new_state, new_pds in h.moves_from(state, pds):
            if letter_ is None:
                nxt = (new_state, new_pds.serialize(), pos)
            elif pos < len(word) and word[pos] == letter_:
                nxt = (new_state, new_pds.serialize(), pos + 1)
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                stack_.append((nxt, new_pds))


def run_word(h: HopdaSpec, word, budget: int = 10 ** 4) -> bool:
    """Does some run consume the word and end in an accepting state?  A run
    search that explores more than `budget` configurations raises
    StateBudgetExceeded."""
    word = tuple(word)
    for explored, ((state, _, pos), _pds) in enumerate(_runs(h, word), start=1):
        if explored > budget:
            raise StateBudgetExceeded(explored, budget, "configurations")
        if pos == len(word) and state in h.accepting:
            return True
    return False


def reachable_configs(h: HopdaSpec, words: Iterable) -> list:
    """All configurations reached while consuming each of the given words."""
    out = {}
    for word in words:
        for (state, serialized, _), pds in _runs(h, tuple(word)):
            out[(state, serialized)] = (state, pds)
    return [out[k] for k in sorted(out)]


def epsilon_contract(g: ColoredGraph) -> ColoredGraph:
    """Keep the epsilon-normal vertices plus the root; draw an a-edge u -> v
    whenever the graph has a path eps^* a eps^* from u to v with v normal.
    A graph without eps edges is its own contraction.  A kept vertex is cut
    when a cut vertex lies on such a path from it: in its eps-closure, or
    after the letter with eps-edges of its own (a normal one there is a
    kept vertex, cut itself)."""
    succ: dict = {}  # color -> vertex -> successors
    for color, pairs in g.edges.items():
        for (u, v) in pairs:
            succ.setdefault(color, {}).setdefault(u, []).append(v)
    eps_succ = succ.pop(EPSILON, {})

    closure = functools.cache(lambda u: _search({u}, eps_succ))
    normal = [v for v in g.vertices if not eps_succ.get(v)]
    normal_set = set(normal)
    kept = list(normal)
    if g.root is not None and g.root not in normal_set:
        kept = [g.root] + kept

    edges, cut, eps_cut = set(), set(), g.cut - normal_set
    for u in kept:
        for w in closure(u):
            if w in g.cut:
                cut.add(u)
            for color, out in succ.items():
                for b in out.get(w, ()):
                    after = closure(b)
                    edges.update((u, color, v) for v in after if v in normal_set)
                    if not eps_cut.isdisjoint(after):
                        cut.add(u)
    return graph_from_edges(kept, sorted(edges), root=g.root, cut=cut)


def unfold(g: ColoredGraph, root, depth: int, budget: int = 1000) -> ColoredGraph:
    """The tree of paths from the root, truncated after `depth` edges; a path
    extends along an i-edge of the graph into an i-edge of the unfolding.
    Paths are added breadth first until the tree holds `budget` vertices.
    A path shorter than `depth` is cut when some of its extensions are
    missing: the tree stopped at the budget before adding them, or the path
    ends on a cut vertex of the graph."""
    if root not in g.vertices:
        raise WobError("root is not a vertex of the graph")
    succ = {}
    for color, pairs in g.edges.items():
        for (u, v) in pairs:
            succ.setdefault(u, []).append((color, v))
    paths = [(root,)]
    edges = []
    cut = set()
    frontier = [(root,)]
    for _ in range(depth):
        if not frontier:
            break
        nxt = []
        for path in frontier:
            if path[-1] in g.cut:
                cut.add(path)
            for color, v in sorted(succ.get(path[-1], [])):
                if len(paths) >= budget:
                    cut.add(path)
                    break
                ext = path + (v,)
                paths.append(ext)
                edges.append((path, color, ext))
                nxt.append(ext)
        frontier = nxt
    return graph_from_edges(paths, edges, root=(root,), cut=cut)


# -- bundled machines -------------------------------------------------------------


def anbn_pda() -> HopdaSpec:
    """The classic level-1 automaton for { a^n b^n }."""
    rules = (
        Rule("p", "a", "Z", "p", ("push", 1, "A")),
        Rule("p", "a", "A", "p", ("push", 1, "A")),
        Rule("p", "b", "A", "q", ("pop", 1)),
        Rule("q", "b", "A", "q", ("pop", 1)),
        Rule("p", None, "Z", "acc", ("noop",)),
        Rule("q", None, "Z", "acc", ("noop",)),
    )
    return HopdaSpec(
        name="anbn", level=1, input_alphabet=("a", "b"), pds_alphabet=("Z", "A"),
        states=("p", "q", "acc"), rules=rules, bottom="Z", accepting=frozenset({"acc"}),
    )


def omega_machine() -> HopdaSpec:
    """Level 1; reachable stacks Z A^j enumerate omega."""
    rules = (
        Rule("s", "a", "Z", "s", ("push", 1, "A")),
        Rule("s", "a", "A", "s", ("push", 1, "A")),
    )
    return HopdaSpec(
        name="omega", level=1, input_alphabet=("a",), pds_alphabet=("Z", "A"),
        states=("s",), rules=rules, bottom="Z",
    )


def omega_squared_machine() -> HopdaSpec:
    """Level 1; stacks Z B^i A^j enumerate w*i + j, with an epsilon clearing
    phase between majors, so the contracted graph lives on the s-states."""
    rules = (
        Rule("s", "a", "Z", "s", ("push", 1, "A")),
        Rule("s", "a", "A", "s", ("push", 1, "A")),
        Rule("s", "a", "B", "s", ("push", 1, "A")),
        Rule("s", "b", "Z", "c", ("noop",)),
        Rule("s", "b", "A", "c", ("noop",)),
        Rule("s", "b", "B", "c", ("noop",)),
        Rule("c", None, "A", "c", ("pop", 1)),
        Rule("c", None, "Z", "s", ("push", 1, "B")),
        Rule("c", None, "B", "s", ("push", 1, "B")),
    )
    return HopdaSpec(
        name="omega_sq", level=1, input_alphabet=("a", "b"), pds_alphabet=("Z", "A", "B"),
        states=("s", "c"), rules=rules, bottom="Z",
    )


def omega_squared_value(pds: Npds):
    s = pds.serialize()
    return o.OMEGA * o.from_int(s.count("B")) + o.from_int(s.count("A"))


def omega_omega_machine() -> HopdaSpec:
    """Level 2; each 1-pds Z A^k contributes w^k and the 2-pds sums them,
    so reachable stores realize every ordinal below w^w.

    '1' appends a fresh unit (exponent 0); 'w' bumps the exponent of the
    topmost 1-pds.  Appending onto a nonzero exponent goes through a marked
    copy that an epsilon phase clears back down to a unit.
    """
    rules = (
        Rule("s", "1", "Z", "s", ("push", 2, "Z")),
        Rule("s", "1", "A", "u", ("push", 2, "T")),
        Rule("u", None, "T", "u", ("pop", 1)),
        Rule("u", None, "A", "u", ("pop", 1)),
        Rule("u", None, "Z", "s", ("noop",)),
        Rule("s", "w", "Z", "s", ("push", 1, "A")),
        Rule("s", "w", "A", "s", ("push", 1, "A")),
    )
    return HopdaSpec(
        name="omega_omega", level=2, input_alphabet=("1", "w"), pds_alphabet=("Z", "A", "T"),
        states=("s", "u"), rules=rules, bottom="Z",
    )


def omega_omega_value(pds: Npds):
    total = o.ZERO
    for sub in pds.content[1:]:
        k = sub.serialize().count("A")
        total = total + o.omega_power(o.from_int(k))
    return total


# -- text format --------------------------------------------------------------------


def save_hopda(h: HopdaSpec) -> str:
    lines = [
        f"hopda {h.name}",
        f"level {h.level}",
        "input " + " ".join(h.input_alphabet),
        "pds " + " ".join(h.pds_alphabet),
        f"bottom {h.bottom}",
    ]
    for q in h.states:
        lines.append(f"state {q} accept" if q in h.accepting else f"state {q}")
    for r in h.rules:
        op = {
            "push": lambda: f"push{r.op[1]}({r.op[2]})",
            "pop": lambda: f"pop{r.op[1]}",
            "noop": lambda: "noop",
        }[r.op[0]]()
        lines.append(f"rule {r.state} {r.letter or EPSILON} {r.guard} -> {r.new_state} {op}")
    return "\n".join(lines) + "\n"


def parse_hopda(text: str) -> HopdaSpec:
    states = []
    accepting = set()
    rules = []

    def state(words):
        name, accepts = state_line(words)
        states.append(name)
        if accepts:
            accepting.add(name)

    def rule(words):
        if len(words) != 6 or words[3] != "->":
            raise LoadError("malformed rule")
        q, letter_, guard, _, new_state, op_text = words
        # exactly the forms save_hopda writes
        form = re.fullmatch(r"(noop)|pop([0-9]+)|push([0-9]+)\((.)\)", op_text)
        if form is None:
            raise LoadError(f"unknown operation {op_text!r}: expected noop, pop<k> or push<k>(<letter>)")
        noop, pop, push, letter = form.groups()
        op = ("noop",) if noop else ("pop", int(pop)) if pop else ("push", int(push), letter)
        rules.append(Rule(q, None if letter_ == EPSILON else letter_, guard, new_state, op))

    head = read_directives(
        text,
        {"hopda": one_word, "level": lambda w: int(one_word(w)), "input": tuple, "pds": tuple, "bottom": one_word},
        {"state": state, "rule": rule},
    )
    return HopdaSpec(
        name=head["hopda"], level=head["level"], input_alphabet=head["input"], pds_alphabet=head["pds"],
        states=tuple(states), rules=tuple(rules), bottom=head["bottom"], accepting=frozenset(accepting),
    )
