import ast
import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import successor_structure
from wob import automata as au
from wob import corpus, corpusrun, fgh, logic, pathology, recognition, records, tm
from wob import hopda as H
from wob import ordinals as o

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = (au, corpus, corpusrun, fgh, H, logic, o, pathology, recognition, tm)
AB = ("a", "b")


def _comparator():
    return tm.kreisel_comparator(False)


# one or two instances of each record class, made by the package where it
# makes them; the test rebuilds each from its field values
SAMPLES = {
    "automata.Automaton": lambda: [au.shorter_automaton(AB), au.llex_automaton(AB)],
    "automata._Graph": lambda: [au.projection_graph(au.llex_automaton(AB), 0)],
    "corpus.Presentation": lambda: [corpus.omega_times_2(), corpus.integer_line()],
    "corpus.Block": lambda: [corpus.run_block(AB, "a"), corpus.chain_block(AB, "b", 3)],
    "fgh.NotationSystem": lambda: [fgh.standard_system(), fgh.shifted_system()],
    "fgh.Budget": lambda: [fgh.Budget(), fgh.Budget(5, 7)],
    "fgh.Exceeded": lambda: [fgh.Exceeded("value", 3, 4), fgh.Exceeded("steps", 3, 4)],
    "fgh.ComparisonPoint": lambda: [fgh.ComparisonPoint(1, "lt", 2, 3), fgh.ComparisonPoint(2, "exceeded", None, 5)],
    "fgh.DominationReport": lambda: [fgh.DominationReport((fgh.ComparisonPoint(1, "lt", 2, 3),))],
    "hopda.Npds": lambda: [H.init_pds(2, "Z"), H.letter("a")],
    "hopda.Rule": lambda: list(H.anbn_pda().rules[:2]),
    "hopda.HopdaSpec": lambda: [H.anbn_pda(), H.omega_machine()],
    "hopda.ColoredGraph": lambda: [H.config_graph(H.omega_machine(), budget=5),
                                   H.graph_from_edges(["u", "v"], [("u", "a", "v")], root="u")],
    "logic.Formula": lambda: [logic.Formula()],
    "logic.Rel": lambda: [logic.Rel("<", ("x", "y")), logic.Rel("<", ("y", "x"))],
    "logic.Not": lambda: [logic.Not(logic.Rel("<", ("x", "y")))],
    "logic.And": lambda: [logic.parse_formula("(and (rel < x y) (rel = y z))")],
    "logic.Or": lambda: [logic.parse_formula("(or (rel < x y) (rel = y z))")],
    "logic.Exists": lambda: [logic.parse_formula("(exists y (rel < x y))")],
    "logic.Forall": lambda: [logic.parse_formula("(forall y (rel < x y))")],
    "logic.ExistsInf": lambda: [logic.parse_formula("(existsinf y (rel < x y))")],
    "logic.Structure": lambda: [successor_structure(), corpus.omega_times_2().structure],
    "logic._Result": lambda: [logic.Compiler(successor_structure()).compile(logic.Rel("S", ("x", "y"))),
                              logic._Result((), None, True)],
    "ordinals.CnfOrdinal": lambda: [o.parse("w^2+w*3+1"), o.ZERO],
    "ordinals.FsViolation": lambda: [o.FsViolation("monotonicity", o.OMEGA, 3), o.FsViolation("bachmann", o.OMEGA, 3, o.ONE)],
    "ordinals.FundamentalSequenceTable": lambda: [o.STANDARD_FS, o.SHIFTED_FS],
    "pathology.PiPredicate": lambda: [pathology.always_true(), pathology.regular_true()],
    "pathology.KreiselOrder": lambda: [pathology.KreiselOrder(pathology.always_true())],
    "pathology.OmegaPlusOneSpec": lambda: [pathology.power_of_two_spec()],
    "recognition.OrderPresentation": lambda: [recognition.OrderPresentation(corpus.omega_times_2().structure)],
    "recognition.BadCondensationClass": lambda: [recognition.BadCondensationClass(("a",))],
    "recognition.DenseFixpoint": lambda: [recognition.DenseFixpoint(1), recognition.DenseFixpoint(2)],
    "recognition.WellOrder": lambda: [recognition.WellOrder(o.OMEGA)],
    "recognition.NotWellOrder": lambda: [recognition.NotWellOrder(recognition.DenseFixpoint(1))],
    "recognition.BudgetExceeded": lambda: [recognition.BudgetExceeded(3)],
    "recognition.Level": lambda: recognition.condense(recognition.OrderPresentation(corpus.omega_times_2().structure))[0],
    "tm.TmSpec": lambda: [tm.increment_machine(), _comparator()],
    "tm.Configuration": lambda: [tm.initial_configuration(_comparator(), ["01", "1", ""]),
                                 tm.initial_configuration(_comparator(), ["1", "1", ""])],
    "tm.RpiStructure": lambda: [tm.build_rpi(_comparator(), "pi")],
    "tm.ExploredFragment": lambda: [tm.ExploredFragment([("0",)], [])],
}

# fields that a class's own __hash__ leaves out
UNHASHED = {"automata.Automaton": {"_delta"}}


def record_classes():
    """{module.Class: class} for every record class of the package."""
    return {
        f"{module.__name__.removeprefix('wob.')}.{name}": value
        for module in MODULES
        for name, value in vars(module).items()
        if isinstance(value, type) and "_fields" in vars(value) and value.__module__ == module.__name__
    }


def twin_of(key, cls):
    """A frozen dataclass over `cls`'s annotations and defaults, subclassing
    `cls` for its other methods: `dataclass` writes its own constructor,
    repr (unless `cls` writes one), equality, hash and frozen assignment."""
    namespace = {"__annotations__": dict(cls.__annotations__), "__qualname__": cls.__qualname__,
                 "__module__": cls.__module__}
    if vars(cls)["__repr__"].__module__ == cls.__module__:
        namespace["__repr__"] = vars(cls)["__repr__"]
    for name in cls._fields:
        default = vars(cls).get(name, dataclasses.MISSING)
        if isinstance(default, records.factory):
            namespace[name] = dataclasses.field(default_factory=default.make)
        elif name in UNHASHED.get(key, ()):
            namespace[name] = dataclasses.field(default=default, hash=False)
        elif default is not dataclasses.MISSING:
            namespace[name] = default
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (cls,), namespace))


def outcome(make):
    """What calling `make` gives: the repr of its value, or its exception."""
    try:
        return "value", repr(make())
    except Exception as exc:
        return "raises", type(exc), str(exc)


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def test_every_record_class_has_samples():
    assert set(record_classes()) == set(SAMPLES)
    assert len(SAMPLES) == 40


@pytest.mark.parametrize("key", sorted(SAMPLES))
def test_record_behaves_as_its_dataclass_twin(key):
    cls = record_classes()[key]
    twin = twin_of(key, cls)
    assert cls._fields == tuple(f.name for f in dataclasses.fields(twin))
    samples = SAMPLES[key]()
    assert all(type(s) is cls for s in samples)
    rows = [tuple(getattr(s, name) for name in cls._fields) for s in samples]
    for values in rows:
        mine, theirs = cls(*values), twin(*values)
        assert repr(mine) == repr(theirs)
        assert hash_or_error(mine) == hash_or_error(theirs)
        assert mine == cls(*values) and theirs == twin(*values)
        assert mine == cls(**dict(zip(cls._fields, values)))
        assert mine != theirs and (mine == values) is False
        for name in cls._fields[:1] or ("anything",):
            with pytest.raises(AttributeError):
                setattr(mine, name, None)
            with pytest.raises(AttributeError):
                delattr(mine, name)
    for first, second in zip(rows, rows[1:]):
        assert (cls(*first) == cls(*second)) == (twin(*first) == twin(*second))
    # defaults: the required fields alone, as both build them (or fail to)
    required = [name for name in cls._fields if name not in vars(cls)]
    values = rows[0][:len(required)]
    assert outcome(lambda: cls(*values)) == outcome(lambda: twin(*values))


@pytest.mark.parametrize("key", sorted(k for k, cls in record_classes().items() if hasattr(cls, "__post_init__")))
def test_post_init_is_looked_up_at_each_construction(key, monkeypatch):
    # perfbench patches Automaton.__post_init__ and Structure.__post_init__
    # on the class after import; the patched method is the one called
    cls = record_classes()[key]
    values = tuple(getattr(SAMPLES[key]()[0], name) for name in cls._fields)
    calls = []
    original = cls.__post_init__

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    built = cls(*values)
    assert calls == [built]


def test_a_post_init_error_is_the_twins():
    cls = H.ColoredGraph
    twin = twin_of("hopda.ColoredGraph", cls)
    for args in [((("u",), {}, "v")), ((("u", "u"), {})), ((("u",), {}, None, frozenset({"x"})))]:
        assert outcome(lambda: cls(*args)) == outcome(lambda: twin(*args))
        assert outcome(lambda: cls(*args))[0] == "raises"


def test_a_factory_default_is_made_for_each_record():
    dom = successor_structure().domain
    first, second = logic.Structure("a", dom), logic.Structure("b", dom)
    assert first.relations == {} and first.relations is not second.relations


@pytest.mark.parametrize("call", [
    lambda cls: cls("value"),
    lambda cls: cls("value", 1, 2, 3),
    lambda cls: cls("value", 1, step_done=2),
    lambda cls: cls("value", 1, 2, reason="steps"),
])
def test_a_bad_call_raises_type_error_as_the_twin_does(call):
    cls = fgh.Exceeded
    twin = twin_of("fgh.Exceeded", cls)
    with pytest.raises(TypeError):
        call(cls)
    with pytest.raises(TypeError):
        call(twin)


def test_a_field_without_default_may_not_follow_one_with_it():
    with pytest.raises(TypeError, match="'b' without a default"):
        @records.record
        class Bad:
            a: int = 1
            b: int


def test_a_class_keeps_its_own_methods():
    @records.record
    class Pair:
        a: int
        b: dict

        def __hash__(self):
            return hash(self.a)

        def __repr__(self):
            return "pair"

    p = Pair(1, {})
    assert hash(p) == hash(1) and repr(p) == "pair" and p == Pair(1, {}) and p != Pair(1, {"x": 1})


def test_no_module_of_the_package_imports_dataclasses():
    for path in sorted((SRC / "wob").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert all(alias.name != "dataclasses" for alias in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = "import sys; from wob import cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, check=True,
                         cwd=SRC, timeout=60).stdout
    assert out == "[]\n"
