"""Span tracing for the traced benchmark run.

The tracer wraps the public functions of wob's `automata`, `logic`,
`recognition`, `tm` and `pathology` modules from outside the package: each
wrapper records a span (job id, parent span, name, start, end) and, for
constructions, the automaton sizes in and out.  Nothing under `src/` is
changed; `uninstall` puts every original back.

Names re-imported into other wob modules (`recognition.compile_formula`,
`pathology.compile_formula`, ...) are patched too, so calls through either
name are seen.  Three methods get spans of their own: `Automaton.__post_init__`
(`automata.validate`), `Automaton.accepts` (`automata.accepts`) and
`Structure.__post_init__` (`logic.structure`).

Leaf helpers that run once per symbol, letter or machine step are left
unwrapped: a span there would cost more than the work it measures, and
their time shows as self time of the caller.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

MODULES = ("automata", "logic", "recognition", "tm", "pathology")

LEAVES = {
    "automata": {"as_word", "check_symbol", "convolve", "deconvolve"},
    "logic": {"implies", "conj", "disj"},
    "tm": {"column_token", "split_column", "is_canonical", "step", "tag_word", "tag_config"},
    "pathology": {"word_of_rank", "rank_of_word"},
}

METHODS = (
    ("automata", "Automaton", "__post_init__", "automata.validate"),
    ("automata", "Automaton", "accepts", "automata.accepts"),
    ("logic", "Structure", "__post_init__", "logic.structure"),
)

COMPILES = {"logic.compile_formula", "logic.define_set", "logic.eval_sentence"}

# span record fields
ID, PARENT, JOB, NAME, START, END, CHILD_NS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.job = "setup"
        self.sizes: dict = {}  # span name -> [states_in, states_out, transitions_out]
        self.compile_keys: set = set()
        self.rpi = (0, 0, 0)
        self._patches: list = []

    # -- patching --------------------------------------------------------

    def install(self):
        mods = {name: sys.modules[f"wob.{name}"] for name in MODULES}
        originals = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in LEAVES.get(short, ())
                ):
                    originals[fn] = self._wrap(f"{short}.{attr}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "wob" or mod_name.startswith("wob."):
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in originals:
                        self._patch(mod, attr, originals[value])
        for short, cls_name, attr, span in METHODS:
            cls = getattr(mods[short], cls_name)
            self._patch(cls, attr, self._wrap(span, getattr(cls, attr)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        is_build_rpi = name == "tm.build_rpi"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            record = [sid, stack[-1] if stack else -1, self.job, name, 0, 0, 0]
            spans.append(record)
            stack.append(sid)
            record[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
                if record[PARENT] >= 0:
                    spans[record[PARENT]][CHILD_NS] += record[END] - record[START]
            self._count(name, args, out)
            if is_build_rpi:
                rel = out.relation
                self.rpi = (rel.n_states, len(rel.transitions), len(rel.alphabet))
            return out

        return traced

    def _count(self, name, args, out):
        if name in COMPILES:
            s, f = args[0], args[1]
            rels = tuple(sorted(s.relations.items()))
            self.compile_keys.add((name, s.name, s.domain, rels, f) + args[2:3])
        if not hasattr(out, "transitions") or not hasattr(out, "n_states"):
            return
        size = self.sizes.setdefault(name, [0, 0, 0])
        if args and hasattr(args[0], "n_states"):
            size[0] += args[0].n_states
        size[1] += out.n_states
        size[2] += len(out.transitions)

    # -- results ---------------------------------------------------------

    def aggregate(self) -> dict:
        """span name -> {calls, self_s, states_in, states_out, transitions_out}."""
        out: dict = {}
        for record in self.spans:
            agg = out.setdefault(record[NAME], {"calls": 0, "self_ns": 0})
            agg["calls"] += 1
            agg["self_ns"] += record[END] - record[START] - record[CHILD_NS]
        for name, agg in out.items():
            agg["self_s"] = agg.pop("self_ns") / 1e9
            size = self.sizes.get(name, (0, 0, 0))
            agg["states_in"], agg["states_out"], agg["transitions_out"] = size
        return out

    def write(self, path):
        """One JSON list per span: id, parent, job, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record[:END + 1]) + "\n")


STATS = ("calls", "self_s", "states_in", "states_out", "transitions_out")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, names, overhead_s: float) -> dict:
    """Value of every named per-layer metric for one traced pass."""
    agg = tracer.aggregate()

    def stat(span, key):
        return agg.get(span, {}).get(key, 0)

    compiles = sum(stat(name, "calls") for name in COMPILES)
    levels = stat("recognition.classify_classes", "calls")
    special = {
        "automata.trim.keep_ratio": _ratio(
            stat("automata.trim", "states_out"), stat("automata.trim", "states_in")
        ),
        "automata.minimize.keep_ratio": _ratio(
            stat("automata.minimize", "states_out"), stat("automata.minimize", "states_in")
        ),
        "logic.compile.unique_ratio": _ratio(len(tracer.compile_keys), compiles),
        "recognition.levels": levels,
        "recognition.sim_per_level": _ratio(stat("recognition.sim_automaton", "calls"), levels),
        "tm.rpi.states": tracer.rpi[0],
        "tm.rpi.transitions": tracer.rpi[1],
        "tm.rpi.alphabet": tracer.rpi[2],
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name in names:
        span, _, key = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif key in STATS:
            out[name] = stat(span, key)
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return out
