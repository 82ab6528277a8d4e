import itertools
import sys
import weakref
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wob import automata as au  # noqa: E402
from wob import corpus  # noqa: E402
from wob import hopda as H  # noqa: E402
from wob import logic  # noqa: E402
from wob import ordinals as o  # noqa: E402
from wob import pathology as pa  # noqa: E402
from wob import tm as T  # noqa: E402
from wob.errors import (  # noqa: E402
    ArityMismatch,
    InvalidAutomaton,
    InvalidSymbol,
    NotLinear,
    StateBudgetExceeded,
    WobError,
)
from wob.logic import EQ, LLEX, And, Exists, ExistsInf, Forall, Not, Or, Rel, implies  # noqa: E402


def rebuilt(value, **changes):
    """A record built anew by its class's constructor from its fields, with
    `changes` made: the constructor's checks run again on the result."""
    return type(value)(**{**{name: getattr(value, name) for name in type(value)._fields}, **changes})


# -- structures, machines and ordinals only the tests build ----------------


def successor_structure():
    """Unary naturals with the append-one-a successor relation."""
    alphabet = ("a",)
    dom = corpus.run_block(alphabet, "a").domain
    succ = au.automaton(2, alphabet, 2, 0, {1}, [(0, ("a", "a"), 0), (0, (au.PAD, "a"), 1)])
    return logic.Structure(name="succ", domain=dom, relations={"S": succ})


def epsilon_chain_machine():
    """One state, one epsilon push loop; its configuration graph is a chain."""
    rules = (
        H.Rule("s", None, "Z", "s", ("push", 1, "A")),
        H.Rule("s", None, "A", "s", ("push", 1, "A")),
    )
    return H.HopdaSpec(
        name="eps_chain", level=1, input_alphabet=("a",), pds_alphabet=("Z", "A"),
        states=("s",), rules=rules, bottom="Z",
    )


def empty_machine():
    return T.TmSpec(name="void", tapes=1, blank="_", states=("s",), accepting=frozenset(), transitions={})


def split_column(tok, tapes):
    """The cells and head flags of a column token, the inverse of
    `tm.column_token`."""
    return tuple(tok[:tapes]), tuple(c == "1" for c in tok[tapes:])


def parse_configuration(tm, word):
    """The configuration a word of the step automaton spells."""
    word = tuple(word)
    if len(word) < 2 or word[0] not in tm.states:
        raise WobError(f"not a configuration word: {word!r}")
    columns = []
    heads = [None] * tm.tapes
    for j, tok in enumerate(word[1:]):
        cells, flags = split_column(tok, tm.tapes)
        columns.append(cells)
        for i, f in enumerate(flags):
            if f:
                if heads[i] is not None:
                    raise WobError("two head flags on one tape")
                heads[i] = j
    if any(h is None for h in heads):
        raise WobError("missing head flag")
    return T.Configuration(word[0], tuple(columns), tuple(heads))


def stack(*children):
    """The (n+1)-pds of the given n-pds, bottom first."""
    return H.Npds(children[0].level + 1, tuple(children))


def position(spec, a):
    """Order position of a pair of the omega+1 system; (x,0) sits at
    x + sum_{y<=x} f(y)."""
    if a == pa.TOP:
        raise ValueError("top has no finite position")
    n, m = a
    below = sum(spec.f(k) + 1 for k in range(n))
    return below + (spec.f(n) - m)


def omega_tower(k):
    """w_0 = 1 and w_{k+1} = w^{w_k}."""
    t = o.ONE
    for _ in range(k):
        t = o.omega_power(t)
    return t


# -- oracles ------------------------------------------------------------------


_NFA_MOVES = weakref.WeakKeyDictionary()  # automaton -> its (state, letter) -> targets table


def run_nfa(aut, letters):
    """Independent membership check: plain subset simulation, no package
    code.  The (state, letter) table is built once per automaton, from its
    triples."""
    trans = _NFA_MOVES.get(aut)
    if trans is None:
        trans = _NFA_MOVES[aut] = {}
        for (q, letter, r) in aut.transitions:
            trans.setdefault((q, letter), set()).add(r)
    current = {aut.initial}
    for letter in letters:
        nxt = set()
        for q in current:
            nxt |= trans.get((q, tuple(letter)), set())
        current = nxt
        if not current:
            return False
    return bool(current & aut.accepting)


def convolve(words):
    """Encode k words as a sequence of k-letter tuples, right-padded with
    PAD; a word holding the pad symbol is refused."""
    ws = [tuple(w) for w in words]
    if not ws:
        raise ArityMismatch("convolution of zero words")
    for w in ws:
        if au.PAD in w:
            raise InvalidSymbol(f"word {w!r} contains the pad symbol")
    return list(itertools.zip_longest(*ws, fillvalue=au.PAD))


def conv(*words):
    """Independent convolution for the oracle side."""
    ws = [tuple(w) for w in words]
    n = max((len(w) for w in ws), default=0)
    return [tuple(w[i] if i < len(w) else "#" for w in ws) for i in range(n)]


def binary_llex(alphabet, shortest, longest):
    """The words over 0 and 1 with `shortest` to `longest` letters, ordered
    by llex, as a corpus block: 2^(longest+1) - 2^shortest elements, far too
    many to list past a few dozen letters."""
    ab = ("0", "1")
    dom = au.automaton(1, alphabet, longest + 1, 0, range(shortest, longest + 1),
                       [(i, (s,), i + 1) for i in range(longest) for s in ab])
    order = au.intersect(au.llex_automaton(alphabet), au.join(dom, [0], dom, [1]))
    return corpus.Block(dom, order, lambda w: shortest <= len(w) <= longest and set(w) <= set(ab),
                        lambda x, y: (len(x), x) < (len(y), y), o.from_int(2 ** (longest + 1) - 2 ** shortest))


def ladder(k):
    """The presentation of w^k*2+w^(k-1)*3+1: the corpus stops at w^3, and
    these rungs are where the cost per power of w shows."""
    return corpus.digit_presentation(o.parse(f"w^{k}*2+w^{k - 1}*3+1"), f"ladder{k}")


def words_upto(alphabet, max_len):
    for n in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=n):
            yield tup


def tuples_upto(alphabet, arity, max_len):
    pool = list(words_upto(alphabet, max_len))
    return itertools.product(pool, repeat=arity)


def language(aut, max_len):
    """All accepted word tuples with every component of length <= max_len."""
    out = set()
    for tup in tuples_upto(aut.alphabet, aut.arity, max_len):
        letters = conv(*tup)
        if not letters:
            if aut.initial in aut.accepting:
                out.add(tup)
            continue
        if run_nfa(aut, letters):
            out.add(tup)
    return out


def complement(a):
    """Valid padded convolutions of a.arity not accepted by a: the
    difference from the pad-mask automaton."""
    return au.difference(au.universe(a.alphabet, a.arity), a)


def trim(a):
    """Restrict to useful states (reachable and co-reachable), numbered as
    a kernel construction numbers them."""

    def moves(q):
        for letter, targets in a._delta.get(q, {}).items():
            for r in targets:
                yield (letter,), r

    return au.build(a.arity, a.alphabet, a.initial, a.accepting.__contains__, moves)


def same_language(a, b):
    return au.is_subset(a, b) and au.is_subset(b, a)


def rename_symbols(a, mapping):
    """Apply a symbol bijection (unmapped symbols stay)."""
    new_alphabet = tuple(mapping.get(s, s) for s in a.alphabet)

    def m(s):
        return "#" if s == "#" else mapping.get(s, s)

    transitions = [(q, tuple(m(s) for s in letter), r) for (q, letter, r) in a.transitions]
    return au.automaton(a.arity, new_alphabet, a.n_states, a.initial, a.accepting, transitions)


def reference_complement(aut):
    """Complement within valid convolutions by the plain construction: a
    complete subset construction over every letter except the all-pad one,
    in product with the pad mask (which tapes have ended).  Built through
    `au.build`, so states are numbered the way kernel results are."""
    trans = {}
    for (q, letter, r) in aut.transitions:
        trans.setdefault((q, letter), set()).add(r)
    pool = tuple(aut.alphabet) + ("#",)
    letters = [l for l in itertools.product(pool, repeat=aut.arity) if any(s != "#" for s in l)]

    def moves(key):
        subset, mask = key
        for letter in letters:
            if any(m and s != "#" for m, s in zip(mask, letter)):
                continue
            after = frozenset(r for q in subset for r in trans.get((q, letter), ()))
            yield (letter,), (after, tuple(s == "#" for s in letter))

    start = (frozenset({aut.initial}), (False,) * aut.arity)
    return au.build(aut.arity, aut.alphabet, start, lambda key: not (key[0] & aut.accepting), moves)


def reference_check_padding(arity, initial, transitions):
    """The padding invariant by the product with the pad mask: walk the
    (state, tapes padded so far) pairs reachable from the initial state;
    False when a letter reads a symbol on a tape that has already padded."""
    delta = {}
    for (q, letter, r) in transitions:
        delta.setdefault(q, []).append((tuple(letter), r))
    start = (initial, (False,) * arity)
    seen, stack = {start}, [start]
    while stack:
        q, mask = stack.pop()
        for letter, r in delta.get(q, ()):
            if any(m and s != "#" for m, s in zip(mask, letter)):
                return False
            key = (r, tuple(s == "#" for s in letter))
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return True


def reference_delta(transitions):
    """`Automaton._delta` as it was built before `_canonical` filled it:
    one sort of every transition, then grouping by state and letter."""
    d = {}
    for (q, letter, r) in sorted(transitions):
        d.setdefault(q, {}).setdefault(letter, []).append(r)
    return {q: {l: tuple(rs) for l, rs in m.items()} for q, m in d.items()}


def unchecked(arity, alphabet, n_states, initial, accepting, transitions):
    """The Automaton of (state, letter, state) triples, not validated."""
    return au._unchecked(arity, tuple(alphabet), n_states, initial, frozenset(accepting), reference_delta(transitions))


def assert_delta_is_reference(a):
    """`a._delta` equals `reference_delta` and iterates in its order, over
    states and over each state's letters."""
    want = reference_delta(a.transitions)
    assert a._delta == want
    assert list(a._delta) == list(want)
    assert all(list(a._delta[q]) == list(want[q]) for q in want)


def reference_validate(a):
    """The validator as it was before the one-pass check: the header
    checks, then every transition's states, arity, symbols and all-pad
    test, then the padding invariant over `reference_delta` from the
    states reachable along it.  Raises what the validator raised."""
    if a.arity < 1:
        raise InvalidAutomaton("arity must be >= 1")
    for s in a.alphabet:
        au.check_symbol(s)
    if len(set(a.alphabet)) != len(a.alphabet):
        raise InvalidAutomaton("duplicate symbols in alphabet")
    if a.n_states < 1:
        raise InvalidAutomaton("need at least one state")
    if not (0 <= a.initial < a.n_states):
        raise InvalidAutomaton("initial state out of range")
    if not all(0 <= q < a.n_states for q in a.accepting):
        raise InvalidAutomaton("accepting state out of range")
    symbols = set(a.alphabet) | {"#"}
    for (q, letter, r) in a.transitions:
        if not (0 <= q < a.n_states and 0 <= r < a.n_states):
            raise InvalidAutomaton(f"transition state out of range: {(q, letter, r)}")
        if len(letter) != a.arity:
            raise InvalidAutomaton(f"letter {letter!r} has wrong arity")
        if any(s not in symbols for s in letter):
            raise InvalidAutomaton(f"letter {letter!r} uses symbols outside the alphabet")
        if all(s == "#" for s in letter):
            raise InvalidAutomaton("all-pad letter is forbidden")
    delta = reference_delta(a.transitions)
    reachable, stack = {a.initial}, [a.initial]
    while stack:
        for targets in delta.get(stack.pop(), {}).values():
            for r in targets:
                if r not in reachable:
                    reachable.add(r)
                    stack.append(r)

    def pad_mask(letter):
        return sum(1 << i for i, s in enumerate(letter) if s == "#")

    entering = {}
    for q in sorted(reachable):
        for letter, targets in delta.get(q, {}).items():
            if "#" in letter:
                for r in targets:
                    entering[r] = entering.get(r, 0) | pad_mask(letter)
    for q, padded in entering.items():
        for letter in delta.get(q, ()):
            if padded & ~pad_mask(letter):
                raise InvalidAutomaton(f"padding invariant violated at state {q} on letter {letter!r}")


def reference_section(rel, tape, word):
    """`section` by the plain construction: intersect the relation with the
    cylinder of `fixed_word` (`fixed_word` on `tape` joined with the free
    universe on every other tape) and project the fixed tape away."""
    others = [t for t in range(rel.arity) if t != tape]
    cyl = au.join(au.fixed_word(rel.alphabet, word), [tape], au.universe(rel.alphabet, len(others)), others)
    return au.project(au.intersect(rel, cyl), tape)


def reference_project_inf(a, tape):
    """`project(a, tape, infinite=True)` by the pumping bound: intersect the
    minimal DFA (m states) with a counter of the final run of letters that
    read only `tape`, and keep the tuples whose run can exceed m."""
    aut = au.minimize(a)
    m = aut.n_states

    def step(count, letter):
        solo = letter[tape] != "#" and all(s == "#" for i, s in enumerate(letter) if i != tape)
        return min(count + 1, m + 1) if solo else 0

    longer = au.letter_dfa(a.alphabet, a.arity, 0, step, lambda c: c > m)
    return au.project(au.intersect(aut, longer), tape)


def reference_project(a, tape, infinite=False):
    """`project` by the textbook construction, numbered by
    `reference_canonical`: each state of `a` takes its own letters that read
    some tape but `tape`, with `tape` dropped, in `a`'s letter order, and
    accepts when its ε-closure (along the letters that read `tape` alone)
    meets acceptance; with `infinite`, when the closure reaches an ε-cycle
    that can still reach acceptance."""

    def rest(letter):
        return letter[:tape] + letter[tape + 1 :]

    def eps_successors(q):
        return [r for letter, rs in a._delta.get(q, {}).items() if set(rest(letter)) == {au.PAD} for r in rs]

    def closure(q):
        seen, stack = {q}, [q]
        while stack:
            for r in eps_successors(stack.pop()):
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        return seen

    def on_cycle(c):
        return any(c in closure(r) for r in eps_successors(c))

    def accepting(q):
        return any(a.accepting & closure(c) for c in closure(q) if not infinite or on_cycle(c))

    def moves(q):
        for letter, rs in a._delta.get(q, {}).items():
            if set(rest(letter)) != {au.PAD}:
                for r in rs:
                    yield rest(letter), r

    return reference_canonical(a.arity - 1, a.alphabet, a.initial, accepting, moves)


def minimal_elements(order, subset):
    """Members of a regular subset with no order-smaller member (unminimized):
    the subset minus the ∃ graph of the dominated ones."""
    dominated, _ = au.join_graph(order, [0, 1], subset, [0], tape=0)
    return au.difference(subset, dominated)


def least_of(p, subset):
    """The minimal elements of a regular subset of the order (at most 2
    returned): the subset minus the elements with one of its members below."""
    return [w[0] for w in au.count_or_enumerate(minimal_elements(p.order, subset), 2)]


def reference_initial_chain(p, count):
    """`initial_chain` as the least-of-remaining loop: each element is the
    one minimal element of everything above its predecessor."""
    out = []
    remaining = p.domain
    for _ in range(count):
        found = least_of(p, remaining)
        if not found:
            break
        if len(found) > 1:
            raise NotLinear("two minimal elements; order is not linear")
        out.append(found[0])
        remaining = au.minimize(reference_section(p.order, 0, found[0]))
    return out


def reference_determinize(a):
    """Subset construction; the result is a partial DFA over reachable subsets."""

    def moves(subset):
        out = {}
        for q in subset:
            for letter, targets in a._delta.get(q, {}).items():
                out.setdefault(letter, set()).update(targets)
        for letter, targets in out.items():
            yield (letter,), frozenset(targets)

    return au._canonical(a.arity, a.alphabet, frozenset({a.initial}), lambda s: bool(s & a.accepting), moves)


def reference_minimize(a):
    """`minimize` by subset construction and Moore refinement over the
    (state, letter) table: each round a state's signature is its block and
    the block of its target under every letter any state reads, -1 for
    none."""
    d = reference_determinize(a)
    delta = {(q, letter): r for q, out in d._delta.items() for letter, (r,) in out.items()}
    letters = sorted({letter for _q, letter in delta}, key=au._letter_key(d.alphabet))
    block = {q: int(q in d.accepting) for q in range(d.n_states)}
    while True:
        signatures = {}
        for q in range(d.n_states):
            sig = (block[q],) + tuple(block.get(delta.get((q, letter), -1), -1) for letter in letters)
            signatures.setdefault(sig, []).append(q)
        new_block = {q: i for i, qs in enumerate(signatures.values()) for q in qs}
        done = len(signatures) == len(set(block.values()))
        block = new_block
        if done:
            break
    reps = {}
    for q in range(d.n_states):
        reps.setdefault(block[q], q)

    def moves(b):
        for letter in letters:
            r = delta.get((reps[b], letter))
            if r is not None:
                yield (letter,), block[r]

    return au.build(d.arity, d.alphabet, block[d.initial], lambda b: reps[b] in d.accepting, moves)


def reference_intersect(a, b):
    """`intersect` by the plain pair product, iterating the state with fewer
    letters first."""

    def moves(pair):
        p, q = pair
        da = a._delta.get(p, {})
        db = b._delta.get(q, {})
        small, other, flip = (da, db, False) if len(da) <= len(db) else (db, da, True)
        for letter, targets in small.items():
            targets2 = other.get(letter)
            if not targets2:
                continue
            for r1 in targets:
                for r2 in targets2:
                    yield (letter,), ((r2, r1) if flip else (r1, r2))

    return au.build(a.arity, a.alphabet, (a.initial, b.initial), lambda pr: pr[0] in a.accepting and pr[1] in b.accepting, moves)


def reference_insert_tape(a, position):
    """The cylinder `join(a, tapes, universe, [position])`, with `a` on the
    other tapes in order, by its own construction: both sides run with a
    virtual drain state entered from acceptance on all-pad input."""
    track = au.universe(a.alphabet, 1)
    DRAIN = -1
    pad_a = ("#",) * a.arity

    def side_moves(aut, q):
        # (letter-or-None, target); None letter means the all-pad move
        if q == DRAIN:
            yield None, DRAIN
            return
        for letter, targets in aut._delta.get(q, {}).items():
            for r in targets:
                yield letter, r
        if q in aut.accepting:
            yield None, DRAIN

    def moves(key):
        qa, qt = key
        for la, ra in side_moves(a, qa):
            for lt, rt in side_moves(track, qt):
                if la is None and lt is None:
                    continue
                base = la if la is not None else pad_a
                sym = lt[0] if lt is not None else "#"
                yield (base[:position] + (sym,) + base[position:],), (ra, rt)

    def acc(key):
        qa, qt = key
        return (qa == DRAIN or qa in a.accepting) and (qt == DRAIN or qt in track.accepting)

    return au.build(a.arity + 1, a.alphabet, (a.initial, track.initial), acc, moves)


REFERENCE_LAWS = (
    ("irreflexivity", Forall("x", Not(Rel("<", ("x", "x"))))),
    (
        "transitivity",
        Forall("x", Forall("y", Forall("z", implies(
            And(Rel("<", ("x", "y")), Rel("<", ("y", "z"))), Rel("<", ("x", "z")))))),
    ),
    ("totality", Forall("x", Forall("y", Or(Rel("<", ("x", "y")), Or(Rel("<", ("y", "x")), Rel(EQ, ("x", "y"))))))),
)


def reference_check_linear(p):
    """`check_linear` by the universal laws: the first law whose sentence is
    false."""
    for law, sentence in REFERENCE_LAWS:
        if not logic.eval_sentence(p.structure, sentence):
            return law
    return None


# x lies in a condensation class with no least element: no m ~ x has no
# z ~ x below it
REFERENCE_NO_LEAST = Not(Exists("m", And(
    Rel("~", ("m", "x")),
    Not(Exists("z", And(Rel("~", ("z", "x")), Rel("<", ("z", "m"))))),
)))


def define_set(s, f, var):
    """The elements satisfying a formula whose one free variable is `var`,
    compiled and minimized."""
    assert f.free_vars() == {var}
    return au.minimize(logic.compile_formula(s, f))


def with_sim(p):
    """p's structure plus the condensation equivalence ~, built through the
    public constructor, so the full structure check runs on it."""
    s = p.structure
    relations = {**s.relations, "~": reference_sim(p)}
    return logic.Structure(name=s.name, domain=s.domain, relations=relations)


def reference_representatives(p):
    """`finite_condensation`'s new domain as the compiled formula "no y ~ x
    is llex-below x"."""
    return define_set(with_sim(p), Not(Exists("y", And(Rel(LLEX, ("y", "x")), Rel("~", ("y", "x"))))), "x")


def reference_top_class(p):
    """`_top_class_size`'s set as the compiled formula "not infinitely many
    y above x"."""
    return define_set(p.structure, Not(ExistsInf("y", Rel("<", ("x", "y")))), "x")


def reference_sim(p):
    """The condensation equivalence ~ as the compiled formula "not
    infinitely many z between x and y", the betweenness taken in both
    orientations at once."""
    between = Or(
        And(Rel("<", ("x", "z")), Rel("<", ("z", "y"))),
        And(Rel("<", ("y", "z")), Rel("<", ("z", "x"))),
    )
    return au.minimize(logic.compile_formula(p.structure, Not(ExistsInf("z", between))))


def reference_successor(p):
    """`OrderPresentation.successor` as the compiled formula
    "x < y and no z lies between"."""
    succ = And(Rel("<", ("x", "y")), Not(Exists("z", And(Rel("<", ("x", "z")), Rel("<", ("z", "y"))))))
    return au.minimize(logic.compile_formula(p.structure, succ))


def reference_top_class_size(p):
    """`_top_class_size` by the condensation: the class of the elements
    with nothing above them outside their own class, counted when it is
    nonempty and finite."""
    in_top = Not(Exists("y", And(Rel("<", ("x", "y")), Not(Rel("~", ("x", "y"))))))
    top = define_set(with_sim(p), in_top, "x")
    if au.is_empty(top) or au.is_infinite(top):
        return 0
    return len(au.count_or_enumerate(top, 10 ** 5))


def reference_initial_configuration(tm, inputs):
    """`tm.initial_configuration` before it zipped the inputs: each cell
    through three branches, the marker, an input symbol or the blank."""
    if len(inputs) != tm.tapes:
        raise T.InvalidTm(f"expected {tm.tapes} input words")
    inputs = [tuple(w) for w in inputs]
    ncols = max(len(w) for w in inputs) + 1
    columns = []
    for j in range(ncols):
        cells = []
        for w in inputs:
            if j == 0:
                cells.append(T.MARKER)
            elif j - 1 < len(w):
                cells.append(w[j - 1])
            else:
                cells.append(tm.blank)
        columns.append(tuple(cells))
    return T.Configuration(tm.initial, tuple(columns), (0,) * tm.tapes)


def built_projection_sets(p):
    """The sets of one condensation level with each projection built by
    `au.project`, as the recognizer built them before it read projection
    graphs: I, the bad-class set, the top-class set, the representatives,
    the quotient order and succ.  The interval product is built here by
    `au.join`, so no set shares the recognizer's search of it."""
    between = au.join(p.order, [0, 1], p.order, [1, 2])
    i = au.minimize(au.project(between, 1, infinite=True))
    in_class = au.difference(p.order, i)
    same_class = au.union(in_class, au.permute_tapes(in_class, [1, 0]))
    outranked = au.project(au.intersect(au.llex_automaton(p.domain.alphabet), same_class), 0)
    reps = au.minimize(au.difference(p.domain, outranked))
    below = au.join(p.order, [0, 1], reps, [0])
    return {
        "I": i,
        "bad": au.minimize(au.project(in_class, 0, infinite=True)),
        "top": au.minimize(au.difference(p.domain, au.project(p.order, 1, infinite=True))),
        "reps": reps,
        "quotient": au.minimize(au.join(below, [0, 1], reps, [1])),
        "succ": au.minimize(au.difference(p.order, au.project(between, 1))),
    }


def run(tm, inputs):
    """The reference run over `tm.step`: (the trace of configurations,
    accepted).  As `run_words` counts them, the tokens of the words it
    lists (the tag, the state and a token per column) count against the
    state budget, tested after each step: StateBudgetExceeded past it."""
    c = T.initial_configuration(tm, inputs)
    trace = [c]
    listed, budget = len(c.columns) + 2, au.STATE_BUDGET.get()
    while True:
        nxt = T.step(tm, c)
        if nxt is None:
            return trace, c.state in tm.accepting
        c = nxt
        trace.append(c)
        listed += len(c.columns) + 2
        if listed > budget:
            raise StateBudgetExceeded(listed, budget, "configuration tokens")


def reference_serialize(tm, c):
    """`Configuration.serialize` read from no table: each column's token
    joined by `tm.column_token` from its cells and its head flags."""
    return (c.state, *(T.column_token(cells, [h == j for h in c.heads]) for j, cells in enumerate(c.columns)))


def reference_config_graph(h, budget=1000):
    """`hopda.config_graph` before each configuration was keyed once: a
    `seen` set and an `order` list of (state, Npds) pairs, each lookup
    hashing the nested records, and every vertex and both ends of every
    edge serialized after the search."""
    start = (h.initial_state, h.initial_pds())

    def key(cfg):
        return (cfg[0], cfg[1].serialize())

    seen = {start}
    frontier = [start]
    order = [start]
    edges = []
    cut = set()
    while frontier:
        frontier.sort(key=key)
        next_frontier = []
        for cfg in frontier:
            state, pds = cfg
            for letter_, new_state, new_pds in h.moves_from(state, pds):
                target = (new_state, new_pds)
                color = H.EPSILON if letter_ is None else letter_
                if target not in seen:
                    if len(seen) >= budget:
                        cut.add(key(cfg))
                        continue
                    seen.add(target)
                    order.append(target)
                    next_frontier.append(target)
                if target in seen:
                    edges.append((cfg, color, target))
        frontier = next_frontier
    verts = [(s, p.serialize()) for (s, p) in order]
    vedges = [((u[0], u[1].serialize()), c, (v[0], v[1].serialize())) for (u, c, v) in edges]
    return H.graph_from_edges(verts, sorted(set(vedges)), root=verts[0], cut=cut)


def reference_runs(h, word):
    """`hopda._runs` over Npds records: the configurations (state, pds,
    position in word) that runs on `word` reach, depth first, in the order
    they are popped."""
    start = (h.initial_state, h.initial_pds(), 0)
    seen = {start}
    stack_ = [start]
    while stack_:
        state, pds, pos = cfg = stack_.pop()
        yield cfg
        for letter_, new_state, new_pds in h.moves_from(state, pds):
            if letter_ is None:
                nxt = (new_state, new_pds, pos)
            elif pos < len(word) and word[pos] == letter_:
                nxt = (new_state, new_pds, pos + 1)
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                stack_.append(nxt)


def reference_step(tm, c):
    """`tm.step` before it copied only the head columns: every column is
    rebuilt as a list, each head writes its cell in tape order, and the
    columns are frozen back into tuples."""
    reads = tuple(c.columns[c.heads[i]][i] for i in range(tm.tapes))
    hit = tm.transitions.get((c.state, reads))
    if hit is None:
        return None
    q2, actions = hit
    columns = [list(cells) for cells in c.columns]
    heads = list(c.heads)
    grow = False
    for i, (w, m) in enumerate(actions):
        columns[c.heads[i]][i] = w
        heads[i] += 1 if m == "R" else -1
        if heads[i] < 0:
            raise T.InvalidTm("head fell off the left end")
        if heads[i] >= len(columns):
            grow = True
    if grow:
        columns.append([tm.blank] * tm.tapes)
    return T.Configuration(q2, tuple(tuple(col) for col in columns), tuple(heads))


def reference_step_graph(tm):
    """`tm._step_graph` before the column index: each state rescans every
    column token, re-enumerates the guessed subsets and joins each output
    token.  `_next_columns` reads a column table built here, as
    `TmSpec.columns` built it."""
    K = tm.tapes
    ALL = frozenset(range(K))
    PAD = au.PAD
    columns = []
    for tok in sorted(set(tm.config_alphabet) - set(tm.states)):
        cells, flags = split_column(tok, K)
        fx = frozenset(i for i in range(K) if flags[i])
        marker = True if set(cells) == {T.MARKER} else (None if T.MARKER in cells else False)
        content = bool(fx) or any(c != tm.blank for c in cells)
        columns.append((tok, cells, fx, marker, content))

    def _next_columns(tm, seen, first):
        for tok, cells, fx, marker, content in columns:
            if marker == first and not fx & seen:
                yield tok, cells, fx, content

    def _subsets(s):
        items = sorted(s)
        for r in range(len(items) + 1):
            for combo in itertools.combinations(items, r):
                yield frozenset(combo)

    def moves(key):
        if key == ("start",):
            for (q, reads), (q2, actions) in tm.transitions.items():
                l_movers = frozenset(i for i in range(K) if actions[i][1] == "L")
                t = (reads, actions, l_movers)
                for g0 in _subsets(l_movers):
                    yield ((q, q2),), (t, frozenset(), frozenset(), g0, True, (False, False))
            return
        if key == ("done",):
            return
        t, seen, carry, guessed, first, _content = key
        reads, actions, l_movers = t
        for tok, cells, fx, in_content in _next_columns(tm, seen, first):
            if guessed != frozenset(i for i in fx if actions[i][1] == "L"):
                continue
            if any(cells[i] != reads[i] for i in fx):
                continue
            out_cells = tuple(actions[i][0] if i in fx else cells[i] for i in range(K))
            new_seen = seen | fx
            new_carry = frozenset(i for i in fx if actions[i][1] == "R")
            for g in _subsets(l_movers - new_seen):
                out_flags = carry | g
                out_content = bool(out_flags) or any(c != tm.blank for c in out_cells)
                ytok = T.column_token(out_cells, [i in out_flags for i in range(K)])
                yield ((tok, ytok),), (t, new_seen, new_carry, g, False, (in_content, out_content))
        # input exhausted while a head still moves right past the end; the
        # appended column carries a head, so the output stays canonical
        if seen == ALL and not guessed and carry and not first and _content[0]:
            extra = T.column_token((tm.blank,) * K, [i in carry for i in range(K)])
            yield ((PAD, extra),), ("done",)

    def accepting(key):
        if key == ("done",):
            return True
        if key == ("start",):
            return False
        t, seen, carry, guessed, first, content = key
        # both sides must end in a contentful column (canonical configurations)
        return seen == ALL and not carry and not guessed and not first and all(content)

    return ("start",), accepting, moves


def reference_canonical(arity, alphabet, initial_key, accepting_pred, moves, max_states=None):
    """`automata._canonical` before each target was hashed once: a target is
    looked up by `in`, then `[]`, then again when its row is built, and each
    letter's sort key is computed at every sort."""
    alphabet = tuple(alphabet)
    index = {s: i for i, s in enumerate(alphabet)}
    index[au.PAD] = -1

    def lkey(letter):
        return tuple(map(index.__getitem__, letter))

    numbering = {initial_key: 0}
    order = [initial_key]
    rows = []  # rows[q]: letter -> its sorted distinct target numbers, letters sorted
    back = [[]]  # back[r]: the states with a move into r
    for q, key in enumerate(order):  # grows while it is read
        out = {}
        for letter, target in moves(key):
            out.setdefault(tuple(letter), []).append(target)
        try:
            letters = sorted(out, key=lkey)
        except KeyError:  # only a move graph given to `build` can hold a foreign symbol
            bad = next(letter for letter in out if not index.keys() >= set(letter))
            raise InvalidAutomaton(f"letter {bad!r} uses symbols outside the alphabet") from None
        for letter in letters:
            for target in out[letter]:
                if target not in numbering:
                    numbering[target] = len(order)
                    order.append(target)
                    back.append([])
                    if max_states is not None and len(order) > max_states:
                        raise StateBudgetExceeded(len(order), max_states, "states")
                back[numbering[target]].append(q)
        row = {}
        for letter in sorted(out):
            rs = tuple(map(numbering.__getitem__, out[letter]))
            row[letter] = rs if len(rs) == 1 else tuple(sorted(set(rs)))
        rows.append(row)
    accepting = frozenset(i for i, k in enumerate(order) if accepting_pred(k))
    useful = au._search(accepting, dict(enumerate(back)))
    if 0 not in useful:
        return au._unchecked(arity, alphabet, 1, 0, frozenset(), {})
    if len(useful) < len(rows):  # renumber the useful states, in order
        new = {q: i for i, q in enumerate(sorted(useful))}
        accepting = frozenset(new[q] for q in accepting)
        kept: dict = {}  # targets -> the useful ones renumbered, shared by equal targets
        for i, q in enumerate(sorted(useful)):
            row, rows[i] = rows[q], {}  # i <= q: slot i is read or useless
            for letter, rs in row.items():
                if rs not in kept:
                    kept[rs] = tuple(new[r] for r in rs if r in new)
                if kept[rs]:
                    rows[i][letter] = kept[rs]
        del rows[len(new):]
    delta = {q: row for q, row in enumerate(rows) if row}
    a = au._unchecked(arity, alphabet, len(rows), 0, accepting, delta)
    every = frozenset(range(len(rows)))  # each state kept is useful
    transitions = frozenset((q, l, r) for q, row in delta.items() for l, rs in row.items() for r in rs)
    a.__dict__.update(transitions=transitions, _reachable=every, _coreachable=every)
    return a


def reference_difference_graph(a, b, tape=None):
    """The subset product of `difference` and `is_subset_of_cube` keyed by
    frozensets: a key pairs a state of `a` with the frozenset of `b`'s
    states, and each image is computed per letter, with no row merged or
    kept.  In the (start, accepting, moves) form, with moves yielding
    (letter, target) pairs as `reference_canonical` reads them."""
    DRAIN = -1
    done = b.accepting if tape is None else b.accepting | {DRAIN}

    def image(subset, letter):
        if tape is not None:
            if letter[tape] == au.PAD:
                return frozenset({DRAIN} if subset & done else ())
            letter = (letter[tape],)
        return frozenset(r for q in subset for r in b._delta.get(q, {}).get(letter, ()))

    def moves(pair):
        p, subset = pair
        for letter, targets in a._delta.get(p, {}).items():
            after = image(subset, letter)
            for r in targets:
                yield letter, (r, after)

    return (a.initial, frozenset({b.initial})), lambda pair: pair[0] in a.accepting and not pair[1] & done, moves


def reference_difference(a, b):
    """L(a) minus L(b): the frozenset-keyed subset product, numbered."""
    return reference_canonical(a.arity, a.alphabet, *reference_difference_graph(a, b))


def reference_is_subset_of_cube(rel, domain):
    """Whether no tape's frozenset-keyed subset product, searched whole,
    holds an accepting key."""
    for tape in range(rel.arity):
        start, accepting, moves = reference_difference_graph(rel, domain, tape)
        seen, stack = {start}, [start]
        while stack:
            key = stack.pop()
            if accepting(key):
                return False
            for _letter, target in moves(key):
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
    return True


def reference_reverse_subsets(a):
    """`_reverse_subsets` with frozenset keys, each set's moves merged over
    the back edges per call, numbered."""
    back = {}
    for q, out in a._delta.items():
        for letter, targets in out.items():
            for r in targets:
                back.setdefault(r, {}).setdefault(letter, set()).add(q)

    def moves(subset):
        out = {}
        for r in subset:
            for letter, sources in back.get(r, {}).items():
                out.setdefault(letter, set()).update(sources)
        for letter, sources in out.items():
            yield letter, frozenset(sources)

    return reference_canonical(a.arity, a.alphabet, frozenset(a.accepting), lambda s: a.initial in s, moves)


def reference_check_bachmann(table, bound, samples):
    """`ordinals.check_bachmann` with the Bachmann property tested for every
    grid limit against every interval of every limit."""
    grid = set()
    fs = {}
    frontier = [bound]
    while frontier:
        x = frontier.pop()
        if x in grid or x.is_zero():
            continue
        grid.add(x)
        if x.is_limit():
            fs[x] = [table(x, n) for n in range(samples)]
            frontier.extend(fs[x])
    limits = sorted(fs)
    for lam in limits:
        values = fs[lam]
        for n, v in enumerate(values):
            if not v < lam:
                return o.FsViolation("not-below", lam, n)
        for n in range(samples - 1):
            if not values[n] < values[n + 1]:
                return o.FsViolation("monotonicity", lam, n)
    for lam in limits:
        values = fs[lam]
        for alpha in limits:
            for n in range(samples - 1):
                if values[n] < alpha <= values[n + 1]:
                    if fs[alpha][0] < values[n]:
                        return o.FsViolation("bachmann", lam, n, alpha)
    return None
