"""The `wob` command line tool.

Exit codes: 0 ok, 1 negative verdict, 2 usage error, 3 budget exceeded,
4 malformed or unreadable input, 5 internal error.  All output is
deterministic for fixed inputs and seed.
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
from .errors import LoadError, StateBudgetExceeded, WobError
from .logic import compile_formula, eval_sentence, load_structure, parse_formula

OK, NEGATIVE, USAGE, BUDGET, MALFORMED, INTERNAL = 0, 1, 2, 3, 4, 5


class UsageError(Exception):
    """A command-line argument that does not parse; exits with USAGE."""


def _natural(text: str, what: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None
    _at_least(n, 0, what)
    return n


def _whole(value: float, what: str) -> int:
    """A float option (so that 1e9 parses) as an int; inf and nan are usage errors."""
    try:
        return int(value)
    except (OverflowError, ValueError):
        raise UsageError(f"{what} must be finite, got {value!r}") from None


def _at_least(value: int, least: int, flag: str):
    if value < least:
        raise UsageError(f"{flag} must be at least {least}, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return USAGE
    try:
        return args.handler(args)
    except StateBudgetExceeded as exc:
        print(f"budget-exceeded: {exc}", file=sys.stderr)
        if getattr(args, "json", False):
            print(json.dumps({"verdict": "budget-exceeded", "states": exc.n_states, "budget": exc.budget}, sort_keys=True))
        return BUDGET
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE
    except (WobError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MALFORMED
    except Exception as exc:
        traceback.print_exc(limit=-5)
        print(f"internal-error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wob", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("query", help="evaluate a first-order formula on a structure")
    p.add_argument("manifest")
    p.add_argument("formula", help="formula file or inline s-expression")
    p.add_argument("--out", help="write the compiled automaton here")
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_query)

    p = sub.add_parser("recognize", help="decide well-orderedness, print the CNF")
    p.add_argument("manifest")
    p.add_argument("--max-levels", type=int, default=None)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_recognize)

    p = sub.add_parser("ord", help="ordinal arithmetic in Cantor normal form")
    p.add_argument("op", choices=["add", "mul", "cmp", "pow", "fs"])
    p.add_argument("left")
    p.add_argument("right", nargs="?")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_ord)

    p = sub.add_parser("fgh", help="fast-growing hierarchy")
    fsub = p.add_subparsers(dest="fgh_command")
    pe = fsub.add_parser("eval")
    pe.add_argument("--system", default="std", choices=["std", "shifted"])
    pe.add_argument("--alpha", required=True)
    pe.add_argument("--x", type=int, required=True)
    pe.add_argument("--max-steps", type=float, default=1e7)
    pe.add_argument("--max-value", type=float, default=1e9)
    pe.add_argument("--json", action="store_true")
    pe.set_defaults(handler=cmd_fgh_eval)
    pc = fsub.add_parser("compare")
    pc.add_argument("--system", default="std", choices=["std", "shifted"])
    pc.add_argument("--system2", default="std", choices=["std", "shifted"])
    pc.add_argument("--alpha", required=True)
    pc.add_argument("--beta", required=True)
    pc.add_argument("--xs", default="3,4,5,6")
    pc.add_argument("--max-steps", type=float, default=1e7)
    pc.set_defaults(handler=cmd_fgh_compare)

    p = sub.add_parser("pathology", help="Kreisel orderings and the omega+1 system")
    psub = p.add_subparsers(dest="pathology_command")
    pk = psub.add_parser("kreisel")
    pk.add_argument("--pi0", default="builtin:true",
                    help="automaton file, builtin:true, builtin:empty or builtin:except=N")
    pk.add_argument("--g-from-f", dest="g_expr", default=None,
                    help="use the slow inverse of this function (e.g. 2^n)")
    pk.add_argument("action", choices=["compare", "descend", "to-structure"])
    pk.add_argument("args", nargs="*")
    pk.set_defaults(handler=cmd_kreisel)
    po = psub.add_parser("omega1")
    po.add_argument("--f", default="2^n")
    po.add_argument("action", choices=["fgh", "contract"])
    po.add_argument("--x", type=int, default=3)
    po.set_defaults(handler=cmd_omega1)

    p = sub.add_parser("tm", help="Turing machine configuration relations")
    p.add_argument("action", choices=["step-automaton", "check-reversible", "build-rpi", "wf-check"])
    p.add_argument("machine", help="file or builtin:increment|copy|comparator|comparator-false")
    p.add_argument("--out", help="output file for automata")
    p.add_argument("--dot", help="write the explored fragment as graphviz")
    p.add_argument("--word-len", type=int, default=3)
    p.add_argument("--run-len", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_tm)

    p = sub.add_parser("hopda", help="higher-order pushdown simulation")
    p.add_argument("action", choices=["run", "graph", "contract", "unfold"])
    p.add_argument("machine", help="file or builtin:anbn|omega|omega2|omegaomega")
    p.add_argument("word", nargs="?", default="")
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--dot", help="write the graph as graphviz")
    p.set_defaults(handler=cmd_hopda)

    p = sub.add_parser("corpus", help="run the bundled example corpus")
    p.add_argument("--seed", type=int, default=20240817)
    p.set_defaults(handler=cmd_corpus)
    return parser


# -- handlers -------------------------------------------------------------------


def _emit(args, text, payload):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def cmd_query(args) -> int:
    _at_least(args.budget, 1, "--budget")
    s = load_structure(args.manifest)
    if os.path.exists(args.formula):
        with open(args.formula, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = args.formula
    f = parse_formula(text)
    if args.out:
        aut = compile_formula(s, f, state_budget=args.budget)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(au.save_automaton(aut, "query"))
        _emit(args, f"wrote {args.out}", {"written": args.out, "states": aut.n_states})
        return OK
    if f.free_vars():
        print("error: formula has free variables; use --out", file=sys.stderr)
        return USAGE
    verdict = eval_sentence(s, f, state_budget=args.budget)
    _emit(args, "true" if verdict else "false", {"verdict": verdict})
    return OK if verdict else NEGATIVE


def cmd_recognize(args) -> int:
    _at_least(args.budget, 1, "--budget")
    if args.max_levels is not None:
        _at_least(args.max_levels, 0, "--max-levels")
    s = load_structure(args.manifest)
    p = rec.OrderPresentation(s)
    trace = [] if args.trace else None
    got = rec.recognize(p, max_levels=args.max_levels, budget=args.budget, trace=trace)
    if args.trace and trace:
        for level, pres in trace:
            print(f"; condensation level {level}")
            print(au.save_automaton(pres.domain, f"level{level}_domain"), end="")
            print(au.save_automaton(pres.order, f"level{level}_order"), end="")
    if isinstance(got, rec.WellOrder):
        _emit(args, f"well-order {o.show(got.cnf)}", {"verdict": "well-order", "cnf": o.show(got.cnf)})
        return OK
    if isinstance(got, rec.NotWellOrder):
        _emit(args, f"not-well-order {got.evidence}", {"verdict": "not-well-order", "evidence": str(got.evidence)})
        return NEGATIVE
    _emit(args, f"budget-exceeded level={got.level}", {"verdict": "budget-exceeded", "level": got.level})
    return BUDGET


def cmd_ord(args) -> int:
    left = o.parse(args.left)
    if args.op == "pow":
        result = o.omega_power(left)
        _emit(args, o.show(result), {"result": o.show(result)})
        return OK
    if args.right is None:
        print("error: this operation needs a second argument", file=sys.stderr)
        return USAGE
    if args.op == "fs":
        result = o.standard_fs(left, _natural(args.right, "the fs index"))
        _emit(args, o.show(result), {"result": o.show(result)})
        return OK
    right = o.parse(args.right)
    if args.op == "cmp":
        verdict = o.compare(left, right)
        _emit(args, verdict, {"result": verdict})
        return OK
    result = left + right if args.op == "add" else left * right
    _emit(args, o.show(result), {"result": o.show(result)})
    return OK


def _system(name: str) -> fgh.NotationSystem:
    return fgh.standard_system() if name == "std" else fgh.shifted_system()


def cmd_fgh_eval(args) -> int:
    _at_least(args.x, 0, "--x")
    ns = _system(args.system)
    alpha = o.parse(args.alpha)
    budget = fgh.Budget(
        max_value=_whole(args.max_value, "--max-value"),
        max_steps=_whole(args.max_steps, "--max-steps"),
    )
    got = fgh.eval_F(ns, alpha, args.x, budget)
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
    xs = [_natural(x, "--xs") for x in args.xs.split(",") if x]
    budget = fgh.Budget(max_value=10 ** 9, max_steps=_whole(args.max_steps, "--max-steps"))
    report = fgh.dominates_at(ns1, alpha, ns2, beta, xs, budget)
    print(f"F[{args.system}]_{args.alpha} vs F[{args.system2}]_{args.beta}")
    for pt in report.points:
        left = "?" if pt.left is None else str(pt.left)
        right = "?" if pt.right is None else str(pt.right)
        print(f"x={pt.x}: {pt.verdict} (left={left} right={right})")
    print(f"note: {report.disclaimer}")
    return OK


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
        return lambda n, k=_natural(k, "k"), b=_natural(b, "b"): k * n + b
    if expr.startswith("n+"):
        b = _natural(expr[2:], "b")
        return lambda n, b=b: n + b
    raise LoadError(f"unsupported function expression {expr!r} (try 2^n, n^2, k*n+b)")


def _pi0_from_spec(spec: str) -> pa.PiPredicate:
    if spec == "builtin:true":
        return pa.regular_true()
    if spec == "builtin:empty":
        return pa.regular_empty()
    if spec.startswith("builtin:except="):
        n = _natural(spec.split("=", 1)[1], "builtin:except=N")
        return pa.regular_except_word(pa.word_of_rank(n))
    _, aut = au.load_automaton(spec)
    return pa.PiPredicate(aut=aut)


def cmd_kreisel(args) -> int:
    pi0 = _pi0_from_spec(args.pi0)
    g = None
    if args.g_expr:
        g = pa.slow_inverse(_parse_monotone(args.g_expr))
    k = pa.KreiselOrder(pi0=pi0, g=g)
    if args.action == "compare":
        if len(args.args) != 2:
            print("usage: wob pathology kreisel compare X Y", file=sys.stderr)
            return USAGE
        x, y = _natural(args.args[0], "X"), _natural(args.args[1], "Y")
        print(pa.kreisel_compare(k, x, y))
        return OK
    if args.action == "descend":
        if len(args.args) != 2:
            print("usage: wob pathology kreisel descend START LEN", file=sys.stderr)
            return USAGE
        start, length = _natural(args.args[0], "START"), _natural(args.args[1], "LEN")
        _at_least(length, 1, "LEN")
        chain = pa.find_descent(k, start, length)
        if chain is None:
            print("none")
            return NEGATIVE
        print(" ".join(str(v) for v in chain))
        return OK
    # to-structure
    if len(args.args) != 1:
        print("usage: wob pathology kreisel to-structure OUTDIR", file=sys.stderr)
        return USAGE
    s = pa.kreisel_as_automatic(pi0)
    from .logic import save_structure

    manifest = save_structure(s, args.args[0])
    print(f"wrote {manifest}")
    return OK


def cmd_omega1(args) -> int:
    _at_least(args.x, 0, "--x")
    f = _parse_monotone(args.f)
    spec = pa.OmegaPlusOneSpec(f=f, cost=f, step_bound=lambda m: m + 1)
    ns = pa.omega_plus_one_system(spec)
    if args.action == "contract":
        print("contract ok: fs below limit and strictly increasing on 0..7")
        return OK
    x = args.x
    want = f(x)
    got = fgh.eval_F(ns, pa.TOP, x, fgh.Budget(max_value=10 ** 6, max_steps=10 ** 6))
    if isinstance(got, int):
        verdict = got >= want
        print(f"F_w({x}) = {got} {'>=' if verdict else '<'} f({x}) = {want}")
        return OK if verdict else NEGATIVE
    ok, _ = fgh.eval_at_least(ns, pa.TOP, x, want)
    if ok:
        print(f"F_w({x}) >= {want} = f({x})   (value cap certificate)")
        return OK
    print(f"undetermined within budget")
    return BUDGET


def _load_machine(spec: str) -> tmmod.TmSpec:
    builtin = {
        "builtin:increment": tmmod.increment_machine,
        "builtin:copy": tmmod.copy_machine,
        "builtin:comparator": lambda: tmmod.kreisel_comparator(False),
        "builtin:comparator-false": lambda: tmmod.kreisel_comparator(True),
    }
    if spec in builtin:
        return builtin[spec]()
    with open(spec, "r", encoding="utf-8") as fh:
        return tmmod.parse_tm(fh.read())


def cmd_tm(args) -> int:
    for flag, value in (("--word-len", args.word_len), ("--run-len", args.run_len)):
        if value < 0:
            raise UsageError(f"{flag} must not be negative, got {value}")
    tm = _load_machine(args.machine)
    if args.action == "check-reversible":
        got = tmmod.check_reversible(tm)
        if got is None:
            _emit(args, "reversible", {"verdict": "reversible"})
            return OK
        _emit(args, f"colliding pair: {got[0]} / {got[1]}", {"verdict": "colliding", "pair": str(got)})
        return NEGATIVE
    if args.action == "step-automaton":
        aut = tmmod.step_relation_automaton(tm)
        text = au.save_automaton(aut, f"{tm.name}_step")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {args.out} ({aut.n_states} states)")
        else:
            print(f"step automaton: {aut.n_states} states, {len(aut.transitions)} transitions")
        return OK
    rpi = tmmod.build_rpi(tm, pi_tag=args.machine)
    if args.action == "build-rpi":
        rel = rpi.relation
        _emit(
            args,
            f"rpi relation: {rel.n_states} states, {len(rel.transitions)} transitions",
            {"states": rel.n_states, "transitions": len(rel.transitions)},
        )
        return OK
    fragment = tmmod.explore_fragment(rpi, word_len=args.word_len, run_input_len=args.run_len)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(fragment.to_dot())
    witness = tmmod.bounded_wf_check(rpi, fragment)
    if witness is None:
        _emit(args, f"wf-check ok ({len(fragment.elements)} elements, {len(fragment.edges)} edges)",
              {"verdict": "ok", "elements": len(fragment.elements), "edges": len(fragment.edges)})
        return OK
    _emit(args, f"wf-check {witness.kind}: {witness.chain}", {"verdict": witness.kind})
    return NEGATIVE


def _load_hopda(spec: str) -> ho.HopdaSpec:
    builtin = {
        "builtin:anbn": ho.anbn_pda,
        "builtin:omega": ho.omega_machine,
        "builtin:omega2": ho.omega_squared_machine,
        "builtin:omegaomega": ho.omega_omega_machine,
    }
    if spec in builtin:
        return builtin[spec]()
    with open(spec, "r", encoding="utf-8") as fh:
        return ho.parse_hopda(fh.read())


def cmd_hopda(args) -> int:
    _at_least(args.budget, 1, "--budget")
    _at_least(args.depth, 0, "--depth")
    h = _load_hopda(args.machine)
    if args.action == "run":
        accepted = ho.run_word(h, args.word, budget=max(args.budget, 10 ** 4))
        print("accept" if accepted else "reject")
        return OK if accepted else NEGATIVE
    g = ho.config_graph(h, budget=args.budget)
    if args.action == "graph":
        out = g
    elif args.action == "contract":
        out = ho.epsilon_contract(g)
    else:
        out = ho.unfold(g, g.root, args.depth)
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
    from .corpusrun import run_corpus

    failures = run_corpus(seed=args.seed)
    return OK if failures == 0 else NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
