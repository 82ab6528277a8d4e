"""The timed gates of the CI workflow, each one function with its bound and
timeout written once beside it.  The benchmark's workloads stop at small
inputs, so a cost that grows with the height of an order, the length of a
chain or the size of the RPI relation shows only here.

    PYTHONPATH=src python scripts/gates.py [NAME ...]

runs the named gates, or all of them, one at a time, each in a fresh child
process that is killed at the gate's timeout.  It prints each gate's time
against its timeout and exits 1 naming the first gate that fails or times
out, or 2 on a name that is no gate.
"""
import contextlib
import io
import json
import multiprocessing
import random
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from conftest import binary_llex, ladder  # noqa: E402  (it puts src/ on the path)
from wob import automata as au  # noqa: E402
from wob import cli, corpus, logic, tm  # noqa: E402
from wob import ordinals as o  # noqa: E402
from wob import recognition as rec  # noqa: E402

GATES = {}  # name -> (gate function, timeout in seconds)


def counted_sets():
    """The last level and a finite top class are counted on their minimal
    DFA, not listed: 2^41 - 1 elements, and w followed by 2^31 - 2, come
    back exact in well under a second."""
    for name, blocks, want in [
        ("bin40", [binary_llex(("0", "1"), 0, 40)], "2199023255551"),
        ("w_bin30", [corpus.run_block(("a", "0", "1"), "a"), binary_llex(("a", "0", "1"), 1, 30)], "w+2147483646"),
    ]:
        got = rec.recognize(rec.OrderPresentation(corpus.block_sum(name, blocks).structure))
        assert isinstance(got, rec.WellOrder) and got.cnf == o.parse(want), (name, got)
        print(name + ":", o.show(got.cnf))


GATES["counted_sets"] = (counted_sets, 5)


def ladder_recognized(k):
    """The benchmark's recognize workload stops at w^3, so a slowdown that
    grows with the power of w shows only on a taller order.  Each level
    searches its interval product once, so the cost grows with the height
    of the order; k=20 has 21 levels."""
    p = ladder(k)
    got = rec.recognize(rec.OrderPresentation(p.structure))
    assert isinstance(got, rec.WellOrder) and got.cnf == p.expected_cnf, got
    print(f"ladder{k}:", o.show(got.cnf))


for k, timeout in [(14, 30), (20, 60)]:
    GATES[f"ladder{k}"] = (partial(ladder_recognized, k), timeout)


def trace14():
    """`recognize --trace` prints each level's domain and order from the
    level records, which keep a level's structure and not its presentation,
    so the levels' interval products go as the loop leaves them: ladder k=14
    traced peaked at 28.2 MB when the dump kept the presentations, and at
    9.0 MB, as without `--trace`, with the records (2-vCPU host).  Stdout
    goes to a file, whose text tracemalloc does not count."""
    bound = 12  # MB traced
    with tempfile.TemporaryDirectory() as out:
        manifest = logic.save_structure(ladder(14).structure, out)
        dump = Path(out) / "trace.txt"
        with open(dump, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            tracemalloc.start()
            code = cli.main(["recognize", manifest, "--trace"])
            peak = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
        last = dump.read_text(encoding="utf-8").splitlines()[-1]
    print(f"ladder14 --trace: {last}, traced peak {peak:.2f} MB of {bound} MB")
    assert code == 0, code
    assert last == "well-order w^14*2+w^13*3+1", last
    assert peak < bound, peak


GATES["trace14"] = (trace14, 60)


def chains(names, length):
    """The benchmark's chain workload stops at 40 elements, so a cost that
    grows with the length of a chain shows only on a longer one.  Each
    cover is read by memoized set steps, a lookup a letter in each pass,
    so the chain's cost grows with the sum of its elements' lengths; a
    read that builds a graph per element again shows on a longer chain.
    omega's n-th element has n - 1 letters, so its first 1,000 read about
    500,000 cover positions.  Each chain is checked to rise by its
    presentation's own reference order."""
    less = {p.name: p.ref_less for p in corpus.well_order_corpus()}
    for name in names:
        p = rec.OrderPresentation(logic.load_structure(ROOT / "corpus" / name / f"{name}.manifest"))
        chain = rec.initial_chain(p, length)
        assert len(chain) == length, (name, len(chain))
        assert all(less[name](x, y) for x, y in zip(chain, chain[1:])), name
        print(f"{name}: {length} elements, the last of length {len(chain[-1])}")


GATES["chains"] = (partial(chains, ["omega", "omega_sq", "mixed", "omega_cube"], 200), 20)
GATES["chain1000"] = (partial(chains, ["omega_cube", "omega"], 1000), 15)


def rpi_memory():
    """Reads go through the RPI relation's reader, which fills only the rows
    they reach: 200 reads leave the relation unbuilt, fill fewer than 400
    of its rows and keep a bounded step table: fewer than 1,000 sets of
    states, whose merged rows hold fewer than 2,000 letters, so a merge
    that keeps too much shows.  A 200/201-bit read settles each step's
    unchanged tail by one set test, whose per-set loop table must stay
    under 1,000 sets too.  Built on request, the relation keeps one copy
    of its moves, its transition index; an eager second copy (its
    triples, or pre-expanded edge lists) shows in the build's peak."""
    bound = 12  # MB traced, for the reads and for the build
    machine = tm.kreisel_comparator(False)  # builtin:comparator
    tracemalloc.start()
    rpi = tm.build_rpi(machine, pi_tag="builtin:comparator")
    # 200 reads of pairs x <llex y of lengths 16-40, each accepted
    rng = random.Random(1)
    for _ in range(200):
        x, y = ("".join(rng.choice("01") for _ in range(rng.randint(16, 40))) for _ in range(2))
        small, big = sorted((x, y), key=lambda w: (len(w), w))
        if small != big:
            assert tm.emb_path(rpi, small, big) is not None, (small, big)
    x, y = ("".join(rng.choice("01") for _ in range(n)) for n in (200, 201))
    assert tm.emb_path(rpi, x, y) is not None
    peak = tracemalloc.get_traced_memory()[1] / 1e6
    table = rpi.reader._subset_steps  # each set of states reached -> its merged row
    rows, steps, letters = len(rpi.reader._delta), len(table), sum(map(len, table.values()))
    loops = len(rpi.reader._subset_loops)  # each set a tail was settled on -> its looping symbols
    print(f"200 emb_path reads and a 200/201-bit one traced peak: {peak:.2f} MB of {bound} MB, rows filled: {rows}, "
          f"step table: {steps} sets holding {letters} row letters, loop table: {loops} sets")
    assert "relation" not in rpi.__dict__
    assert rows < 400, rows
    assert steps < 1000, steps
    assert letters < 2000, letters
    assert loops < 1000, loops
    assert peak < bound, peak
    tracemalloc.reset_peak()
    relation = rpi.relation
    peak = tracemalloc.get_traced_memory()[1] / 1e6
    assert relation.n_states == 1746, relation.n_states
    print(f"relation build traced peak: {peak:.2f} MB of {bound} MB")
    assert peak < bound, peak


GATES["rpi_memory"] = (rpi_memory, 60)


def _cli(argv) -> tuple:
    """`wob ARGV`'s exit code and its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def rpi_build():
    """`build_rpi` is most of the benchmark's rpi workload, on the same
    machine; a large slowdown or a different relation shows here."""
    code, out = _cli(["tm", "build-rpi", str(ROOT / "corpus" / "machines" / "kreisel_true.tm")])
    print(f"tm build-rpi kreisel_true.tm: exit {code}, {out.strip()}")
    assert (code, out) == (0, "rpi relation: 1746 states, 106037 transitions\n"), (code, out)


GATES["rpi_build"] = (rpi_build, 60)


def wf_check():
    """The benchmark's rpi workload checks a fragment of the comparator's
    relation at word length 5 and run length 3 (1,142 elements); at 8 and
    6 it lists 120,406 elements and runs 127^2 machine runs, so a cost
    that grows with the fragment, in `run_words` or in the reads, shows
    here."""
    code, out = _cli(["tm", "wf-check", "builtin:comparator", "--word-len", "8", "--run-len", "6", "--json"])
    got = json.loads(out)
    print(f"wf-check --word-len 8 --run-len 6: exit {code}, {got}")
    assert code == 0, code
    assert got == {"edges": 127896, "elements": 120406, "verdict": "ok"}, got


GATES["wf_check"] = (wf_check, 30)


def hopda_graph():
    """Each configuration is keyed once, so 20,000 level-2 configurations
    of the omega^omega machine take well under the timeout."""
    code, out = _cli(["hopda", "graph", "builtin:omegaomega", "--budget", "20000"])
    print(f"hopda graph builtin:omegaomega --budget 20000: exit {code}, {out.strip()}")
    assert (code, out) == (0, "graph: 20000 vertices, 19999 edges (partial)\n"), (code, out)


GATES["hopda_graph"] = (hopda_graph, 10)


def bachmann():
    """The Bachmann scan reads each interval's own slice of the grid's
    limits; testing every limit against every interval took 10 s."""
    assert o.check_bachmann(o.STANDARD_FS, o.parse("w^w"), 5) is None
    print("bachmann on w^w, 5 samples: ok")


GATES["bachmann"] = (bachmann, 3)


def nonlinear():
    """Linearity is checked first: a reflexive pair (llex plus the diagonal)
    and an unordered pair (the strict-prefix order) each stop recognition
    with exit 4 and the failing law named."""
    ab = ("0", "1")

    def prefix(v, letter):  # 1 once x has ended inside y
        if letter[0] == au.PAD:
            return 1
        return 0 if v == 0 and letter[0] == letter[1] else None

    orders = {"reflexive": (au.union(au.llex_automaton(ab), au.diagonal(ab)), "irreflexivity"),
              "prefix": (au.letter_dfa(ab, 2, 0, prefix, lambda v: v == 1), "totality")}
    with tempfile.TemporaryDirectory() as out:
        for name, (order, law) in orders.items():
            manifest = logic.save_structure(logic.Structure(name=name, domain=au.universe(ab, 1), relations={"<": order}), out)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["recognize", str(manifest)])
            assert code == 4, (name, code)
            assert f"{law} fails" in err.getvalue(), err.getvalue()
            print(f"{name}: exit 4, {law} fails")


GATES["nonlinear"] = (nonlinear, 10)


def run(names) -> int:
    """Run each named gate in a fresh process under its timeout, stopping
    at the first that fails."""
    spawn = multiprocessing.get_context("spawn")
    for name in names:
        target, timeout = GATES[name]
        child = spawn.Process(target=target, name=name)
        start = time.perf_counter()
        child.start()
        child.join(timeout)
        took = time.perf_counter() - start
        if child.is_alive():
            child.kill()
            child.join()
            print(f"gate {name} failed: timed out at {timeout} s", file=sys.stderr)
            return 1
        if child.exitcode:
            print(f"gate {name} failed: exit {child.exitcode} after {took:.1f} s", file=sys.stderr)
            return 1
        print(f"gate {name}: {took:.1f} s of {timeout} s", flush=True)
    return 0


def main(names) -> int:
    unknown = [name for name in names if name not in GATES]
    if unknown:
        print(f"no gate named {', '.join(unknown)}; the gates are {', '.join(GATES)}", file=sys.stderr)
        return 2
    return run(names or list(GATES))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
