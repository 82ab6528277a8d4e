"""The `wob` command line tool.

Exit codes: 0 ok, 1 negative verdict, 2 usage error, 3 budget exceeded,
4 malformed or unreadable input, 5 internal error.  All output is
deterministic for fixed inputs and seed.

`wob chain MANIFEST N` prints the first N elements of the order `<`, one
per line: the least element, then each one's one cover.  Two minimal
elements or two covers mean the order is not linear (exit 4), and an
element with no cover ends the chain early.  For N > 0, an order with no
least element exits 1 (`not-well-order: no least element`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import automata as au
from . import fgh
from . import hopda as ho
from . import ordinals as o
from . import pathology as pa
from . import recognition as rec
from . import tm as tmmod
from .corpusrun import DEFAULT_SEED, run_corpus
from .errors import StateBudgetExceeded, WobError
from .logic import compile_formula, eval_sentence, load_structure, parse_formula, save_structure

OK, NEGATIVE, USAGE, BUDGET, MALFORMED, INTERNAL = 0, 1, 2, 3, 4, 5


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error, or --help
        return exc.code
    try:
        return args.handler(args)
    except StateBudgetExceeded as exc:
        payload = {"verdict": "budget-exceeded", "states": exc.n_states, "budget": exc.budget}
        return _fail(args, BUDGET, f"budget-exceeded: {exc}", payload)
    except (WobError, OSError) as exc:
        return _fail(args, MALFORMED, f"error: {exc}", {"verdict": "malformed-input", "error": str(exc)})
    except Exception as exc:
        traceback.print_exc(limit=-5)
        return _fail(args, INTERNAL, f"internal-error: {type(exc).__name__}: {exc}", {"verdict": "internal-error"})


def _fail(args, code: int, message: str, payload: dict) -> int:
    print(message, file=sys.stderr)
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    return code


# -- argument types: a value they reject is a usage error from the parser --------


def _integer(least: int):
    def parse(text) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n

    return parse


_natural, _positive = _integer(0), _integer(1)


def _whole(text: str) -> int:
    """A finite float (so that 1e9 parses) read as a positive int."""
    try:
        return _positive(int(float(text)))
    except (OverflowError, ValueError):  # inf, nan, or not a number
        raise argparse.ArgumentTypeError(f"must be finite, such as 1e9, got {text!r}") from None


def _naturals(text: str) -> list:
    """A comma-separated list of naturals; an empty item is rejected."""
    return [_natural(item) for item in text.split(",")]


def _parse_monotone(expr: str):
    """Tiny whitelist of growth functions: 2^n, n^2, n, k*n+b, n+b."""
    expr = expr.replace(" ", "")
    if expr == "2^n":
        return lambda n: 2 ** n
    if expr == "n^2":
        return lambda n: n * n
    if expr == "n":
        return lambda n: n
    if "*n+" in expr:
        k, b = expr.split("*n+")
        return lambda n, k=_natural(k), b=_natural(b): k * n + b
    if expr.startswith("n+"):
        b = _natural(expr[2:])
        return lambda n, b=b: n + b
    raise argparse.ArgumentTypeError(f"unsupported function expression {expr!r} (try 2^n, n^2, k*n+b)")


def _pi0(spec: str):
    """A builtin predicate or an automaton file, as a function that builds the
    predicate; the handler reads the file, so an unreadable one is malformed input."""
    if spec == "builtin:true":
        return pa.regular_true
    if spec == "builtin:empty":
        return pa.regular_empty
    if spec.startswith("builtin:except="):
        word = pa.word_of_rank(_natural(spec.split("=", 1)[1]))
        return lambda: pa.regular_except_word(word)
    return lambda: pa.PiPredicate(aut=au.load_automaton(spec)[1])


TM_BUILTINS = {
    "builtin:increment": tmmod.increment_machine,
    "builtin:copy": tmmod.copy_machine,
    "builtin:comparator": lambda: tmmod.kreisel_comparator(False),
    "builtin:comparator-false": lambda: tmmod.kreisel_comparator(True),
}
HOPDA_BUILTINS = {
    "builtin:anbn": ho.anbn_pda,
    "builtin:omega": ho.omega_machine,
    "builtin:omega2": ho.omega_squared_machine,
    "builtin:omegaomega": ho.omega_omega_machine,
}


def _load(spec: str, builtins: dict, parse):
    """A builtin machine by name, or the machine that `parse` reads from the file `spec`."""
    if spec in builtins:
        return builtins[spec]()
    with open(spec, "r", encoding="utf-8") as fh:
        return parse(fh.read())


# -- the parser: each action takes exactly the arguments its handler reads -------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wob", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _action(sub, "query", cmd_query, json=True, help="evaluate a first-order formula on a structure")
    p.add_argument("manifest")
    p.add_argument("formula", help="formula file or inline s-expression")
    p.add_argument("--out", help="write the compiled automaton here")
    p.add_argument("--budget", type=_positive, default=au.DEFAULT_STATE_BUDGET)

    p = _action(sub, "recognize", cmd_recognize, help="decide well-orderedness, print the CNF")
    p.add_argument("manifest")
    p.add_argument("--max-levels", type=_natural, default=None)
    p.add_argument("--budget", type=_positive, default=au.DEFAULT_STATE_BUDGET)
    shown = p.add_mutually_exclusive_group()
    shown.add_argument("--trace", action="store_true")
    shown.add_argument("--json", action="store_true")

    p = _action(sub, "chain", cmd_chain, json=True, help="print the first N elements of the order, each certified")
    p.add_argument("manifest")
    p.add_argument("count", metavar="N", type=_natural)
    p.add_argument("--budget", type=_positive, default=au.DEFAULT_STATE_BUDGET)

    osub = _group(sub, "ord", "op", help="ordinal arithmetic in Cantor normal form")
    for op in ("add", "mul", "cmp", "fs", "pow"):
        p = _action(osub, op, cmd_ord, json=True)
        p.add_argument("left")
        if op == "fs":
            p.add_argument("index", type=_natural)
        elif op != "pow":
            p.add_argument("right")

    fsub = _group(sub, "fgh", "fgh_command", help="fast-growing hierarchy")
    p = _action(fsub, "eval", cmd_fgh_eval, json=True)
    p.add_argument("--system", default="std", choices=["std", "shifted"])
    p.add_argument("--alpha", required=True)
    p.add_argument("--x", type=_natural, required=True)
    p.add_argument("--max-steps", type=_whole, default=10 ** 7)
    p.add_argument("--max-value", type=_whole, default=10 ** 9)
    p = _action(fsub, "compare", cmd_fgh_compare)
    p.add_argument("--system", default="std", choices=["std", "shifted"])
    p.add_argument("--system2", default="std", choices=["std", "shifted"])
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--xs", type=_naturals, default=[3, 4, 5, 6])
    p.add_argument("--max-steps", type=_whole, default=10 ** 7)

    psub = _group(sub, "pathology", "pathology_command", help="Kreisel orderings and the omega+1 system")
    p = psub.add_parser("kreisel")
    p.add_argument("--pi0", type=_pi0, default="builtin:true",
                   help="arity-1 automaton file over 0 1, builtin:true, builtin:empty or builtin:except=N")
    ksub = p.add_subparsers(dest="action", required=True)
    p = _action(ksub, "compare", cmd_kreisel_compare)
    p.add_argument("x", metavar="X", type=_natural)
    p.add_argument("y", metavar="Y", type=_natural)
    _g_from_f(p)
    p = _action(ksub, "descend", cmd_kreisel_descend)
    p.add_argument("start", metavar="START", type=_natural)
    p.add_argument("length", metavar="LEN", type=_positive)
    _g_from_f(p)
    p = _action(ksub, "to-structure", cmd_kreisel_to_structure)
    p.add_argument("outdir", metavar="OUTDIR")
    p = psub.add_parser("omega1")
    p.add_argument("--f", type=_parse_monotone, default="2^n")
    wsub = p.add_subparsers(dest="action", required=True)
    p = _action(wsub, "fgh", cmd_omega1_fgh)
    p.add_argument("--x", type=_natural, default=3)
    _action(wsub, "contract", cmd_omega1_contract)

    tsub = _group(sub, "tm", "action", help="Turing machine configuration relations")
    p = _action(tsub, "step-automaton", cmd_tm_step, machine=TM_BUILTINS)
    p.add_argument("--out", help="write the automaton here")
    _action(tsub, "check-reversible", cmd_tm_reversible, machine=TM_BUILTINS, json=True)
    _action(tsub, "build-rpi", cmd_tm_rpi, machine=TM_BUILTINS, json=True)
    p = _action(tsub, "wf-check", cmd_tm_wf, machine=TM_BUILTINS, json=True)
    p.add_argument("--dot", help="write the explored fragment as graphviz")
    p.add_argument("--word-len", type=_natural, default=3)
    p.add_argument("--run-len", type=_natural, default=2)

    hsub = _group(sub, "hopda", "action", help="higher-order pushdown simulation")
    p = _action(hsub, "run", cmd_hopda_run, machine=HOPDA_BUILTINS)
    p.add_argument("word", nargs="?", default="")
    p.add_argument("--budget", type=_positive, default=10 ** 4, help="configurations to explore")
    for action in ("graph", "contract", "unfold"):
        p = _action(hsub, action, cmd_hopda_graph, machine=HOPDA_BUILTINS)
        p.add_argument("--budget", type=_positive, default=1000, help="vertices to explore")
        p.add_argument("--dot", help="write the graph as graphviz")
        if action == "unfold":
            p.add_argument("--depth", type=_natural, default=3)

    p = _action(sub, "corpus", cmd_corpus, help="run the bundled example corpus")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def _action(sub, name: str, handler, json: bool = False, help=None, machine=None) -> argparse.ArgumentParser:
    """A leaf action; `machine` names the builtins its machine argument may be."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(handler=handler)
    if machine:
        p.add_argument("machine", help="file or " + "|".join(machine))
    if json:
        p.add_argument("--json", action="store_true")
    return p


def _group(sub, name: str, dest: str, help=None):
    return sub.add_parser(name, help=help).add_subparsers(dest=dest, required=True)


def _g_from_f(p):
    p.add_argument("--g-from-f", type=_parse_monotone, default=None,
                   help="use the slow inverse of this function (e.g. 2^n)")


# -- handlers -------------------------------------------------------------------


def _emit(args, text, payload):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def cmd_query(args) -> int:
    s = load_structure(args.manifest)
    text = args.formula
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    f = parse_formula(text)
    if args.out:
        with au.state_budget(args.budget):
            aut = compile_formula(s, f)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(au.save_automaton(aut, "query"))
        _emit(args, f"wrote {args.out}", {"written": args.out, "states": aut.n_states})
        return OK
    if f.free_vars():
        print("error: formula has free variables; use --out", file=sys.stderr)
        return USAGE
    with au.state_budget(args.budget):
        verdict = eval_sentence(s, f)
    _emit(args, "true" if verdict else "false", {"verdict": verdict})
    return OK if verdict else NEGATIVE


def cmd_recognize(args) -> int:
    p = rec.OrderPresentation(load_structure(args.manifest))
    with au.state_budget(args.budget):
        levels, got = rec.condense(p, max_levels=args.max_levels)
    level: rec.Level
    for i, level in enumerate(levels if args.trace else []):
        print(f"; condensation level {i}")
        print(au.save_automaton(level.structure.domain, f"level{i}_domain"), end="")
        print(au.save_automaton(level.structure.relations[rec.LESS], f"level{i}_order"), end="")
    if isinstance(got, rec.WellOrder):
        _emit(args, f"well-order {o.show(got.cnf)}", {"verdict": "well-order", "cnf": o.show(got.cnf)})
        return OK
    if isinstance(got, rec.NotWellOrder):
        _emit(args, f"not-well-order {got.evidence}", {"verdict": "not-well-order", "evidence": str(got.evidence)})
        return NEGATIVE
    _emit(args, f"budget-exceeded level={got.level}", {"verdict": "budget-exceeded", "level": got.level})
    return BUDGET


def cmd_chain(args) -> int:
    p = rec.OrderPresentation(load_structure(args.manifest))
    with au.state_budget(args.budget):
        chain = [au.show_word(w) for w in rec.initial_chain(p, args.count)]
    if args.count and not chain:  # a domain is never empty, so the order has no least element
        payload = {"chain": [], "evidence": "no-least-element", "verdict": "not-well-order"}
        return _fail(args, NEGATIVE, "not-well-order: no least element", payload)
    if args.json:
        print(json.dumps({"chain": chain}, sort_keys=True))
    else:
        for word in chain:
            print(word)
    return OK


def cmd_ord(args) -> int:
    left = o.parse(args.left)
    if args.op == "pow":
        result = o.show(o.omega_power(left))
    elif args.op == "fs":
        result = o.show(o.standard_fs(left, args.index))
    elif args.op == "cmp":
        result = o.compare(left, o.parse(args.right))
    else:
        right = o.parse(args.right)
        result = o.show(left + right if args.op == "add" else left * right)
    _emit(args, result, {"result": result})
    return OK


def _system(name: str) -> fgh.NotationSystem:
    return fgh.standard_system() if name == "std" else fgh.shifted_system()


def cmd_fgh_eval(args) -> int:
    ns = _system(args.system)
    got = fgh.eval_F(ns, o.parse(args.alpha), args.x, fgh.Budget(max_value=args.max_value, max_steps=args.max_steps))
    if isinstance(got, int):
        _emit(args, str(got), {"value": got})
        return OK
    _emit(
        args,
        f"exceeded {got.reason}: value>={got.value_reached} steps={got.steps_done}",
        {"exceeded": got.reason, "value_reached": got.value_reached},
    )
    return BUDGET


def cmd_fgh_compare(args) -> int:
    ns1, ns2 = _system(args.system), _system(args.system2)
    alpha, beta = o.parse(args.alpha), o.parse(args.beta)
    budget = fgh.Budget(max_value=10 ** 9, max_steps=args.max_steps)
    report = fgh.dominates_at(ns1, alpha, ns2, beta, args.xs, budget)
    print(f"F[{args.system}]_{args.alpha} vs F[{args.system2}]_{args.beta}")
    for pt in report.points:
        left = "?" if pt.left is None else str(pt.left)
        right = "?" if pt.right is None else str(pt.right)
        print(f"x={pt.x}: {pt.verdict} (left={left} right={right})")
    print(f"note: {report.disclaimer}")
    return OK


def _kreisel_order(args) -> pa.KreiselOrder:
    g = pa.slow_inverse(args.g_from_f) if args.g_from_f else None
    return pa.KreiselOrder(pi0=args.pi0(), g=g)


def cmd_kreisel_compare(args) -> int:
    print(pa.kreisel_compare(_kreisel_order(args), args.x, args.y))
    return OK


def cmd_kreisel_descend(args) -> int:
    chain = pa.find_descent(_kreisel_order(args), args.start, args.length)
    if chain is None:
        print("none")
        return NEGATIVE
    print(" ".join(str(v) for v in chain))
    return OK


def cmd_kreisel_to_structure(args) -> int:
    manifest = save_structure(pa.kreisel_as_automatic(args.pi0()), args.outdir)
    print(f"wrote {manifest}")
    return OK


def _omega1_system(f) -> fgh.NotationSystem:
    return pa.omega_plus_one_system(pa.OmegaPlusOneSpec(f=f, cost=f, step_bound=lambda m: m + 1))


def cmd_omega1_fgh(args) -> int:
    x = args.x
    want = args.f(x)
    verdict, got = fgh.eval_at_least(_omega1_system(args.f), pa.TOP, x, want)
    if verdict is None:
        print("undetermined within budget")
        return BUDGET
    if got is None:
        print(f"F_w({x}) >= {want} = f({x})   (value cap certificate)")
        return OK
    print(f"F_w({x}) = {got} {'>=' if verdict else '<'} f({x}) = {want}")
    return OK if verdict else NEGATIVE


def cmd_omega1_contract(args) -> int:
    ns = _omega1_system(args.f)
    fs = [ns.fs(pa.TOP, n) for n in range(pa.CHECKED_RANGE)]
    for n, value in enumerate(fs):
        if ns.compare(value, pa.TOP) >= 0:
            print(f"contract fails at n={n}: fs(w, {n}) is not below w")
            return NEGATIVE
        if n and ns.compare(fs[n - 1], value) >= 0:
            print(f"contract fails at n={n}: fs(w, {n}) is not above fs(w, {n - 1})")
            return NEGATIVE
    print(f"contract ok: fs below limit and strictly increasing on 0..{len(fs) - 1}")
    return OK


def cmd_tm_step(args) -> int:
    tm = _load(args.machine, TM_BUILTINS, tmmod.parse_tm)
    aut = tmmod.step_relation_automaton(tm)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(au.save_automaton(aut, f"{tm.name}_step"))
        print(f"wrote {args.out} ({aut.n_states} states)")
    else:
        print(f"step automaton: {aut.n_states} states, {aut.n_transitions} transitions")
    return OK


def cmd_tm_reversible(args) -> int:
    got = tmmod.check_reversible(_load(args.machine, TM_BUILTINS, tmmod.parse_tm))
    if got is None:
        _emit(args, "reversible", {"verdict": "reversible"})
        return OK
    _emit(args, f"colliding pair: {got[0]} / {got[1]}", {"verdict": "colliding", "pair": str(got)})
    return NEGATIVE


def cmd_tm_rpi(args) -> int:
    rel = tmmod.build_rpi(_load(args.machine, TM_BUILTINS, tmmod.parse_tm), pi_tag=args.machine).relation
    _emit(
        args,
        f"rpi relation: {rel.n_states} states, {rel.n_transitions} transitions",
        {"states": rel.n_states, "transitions": rel.n_transitions},
    )
    return OK


def cmd_tm_wf(args) -> int:
    machine = _load(args.machine, TM_BUILTINS, tmmod.parse_tm)
    tmmod.check_fragment_budget(args.word_len, args.run_len)  # before build_rpi checks the machine or a row is read
    rpi = tmmod.build_rpi(machine, pi_tag=args.machine)
    fragment = tmmod.explore_fragment(rpi, word_len=args.word_len, run_input_len=args.run_len)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(fragment.to_dot())
    witness = tmmod.bounded_wf_check(rpi, fragment)
    if witness is None:
        _emit(args, f"wf-check ok ({len(fragment.elements)} elements, {len(fragment.edges)} edges)",
              {"verdict": "ok", "elements": len(fragment.elements), "edges": len(fragment.edges)})
        return OK
    _emit(args, f"wf-check cycle: {witness}", {"verdict": "cycle"})
    return NEGATIVE


def cmd_hopda_run(args) -> int:
    accepted = ho.run_word(_load(args.machine, HOPDA_BUILTINS, ho.parse_hopda), args.word, budget=args.budget)
    print("accept" if accepted else "reject")
    return OK if accepted else NEGATIVE


def cmd_hopda_graph(args) -> int:
    g = ho.config_graph(_load(args.machine, HOPDA_BUILTINS, ho.parse_hopda), budget=args.budget)
    if args.action == "graph":
        out = g
    elif args.action == "contract":
        out = ho.epsilon_contract(g)
    else:
        out = ho.unfold(g, g.root, args.depth, budget=args.budget)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(out.to_dot())
        print(f"wrote {args.dot}")
    else:
        n_edges = sum(len(ps) for ps in out.edges.values())
        partial = " (partial)" if out.partial else ""
        print(f"{args.action}: {len(out.vertices)} vertices, {n_edges} edges{partial}")
    return OK


def cmd_corpus(args) -> int:
    return OK if run_corpus(seed=args.seed) == 0 else NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
