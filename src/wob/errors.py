"""Exception types shared across the workbench, and the one reader of the
line format that its four text formats (`.aut`, `.manifest`, `.tm` and
`.hopda`) share, with the word checks of their one-word and `state` lines.
The module imports nothing, so every module may use it.
"""


class WobError(Exception):
    """Base class for all workbench errors."""


class InvalidSymbol(WobError):
    pass


class InvalidAutomaton(WobError):
    pass


class ArityMismatch(WobError):
    pass


class CannotProject(WobError):
    pass


class StateBudgetExceeded(WobError):
    """A count, `n_states` whatever its `unit`, passed the budget."""

    def __init__(self, n_states, budget, unit):
        super().__init__(f"grew to {n_states} {unit}, budget {budget}")
        self.n_states = n_states
        self.budget = budget


class LoadError(WobError):
    """Malformed input file; carries a line number when available."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def read_directives(text: str, header: dict, body: dict) -> dict:
    """Read the shared line format and return the converted header values.

    A line is blank, a `;` comment, or a directive word and its argument
    words.  `header` maps each directive that must appear exactly once to a
    converter of its words; `body` maps each repeatable directive to a
    handler of its words.  An unknown or repeated directive, and a line its
    converter or handler cannot take (IndexError, ValueError or LoadError),
    raise LoadError with the line number; missing header directives raise
    LoadError naming each of them.
    """
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        words = line.split()
        if not words or words[0].startswith(";"):
            continue
        kind, args = words[0], words[1:]
        try:
            if kind in header:
                if kind in values:
                    raise LoadError(f"repeated header directive {kind!r}")
                values[kind] = header[kind](args)
            elif kind in body:
                body[kind](args)
            else:
                raise LoadError(f"unknown directive {kind!r}")
        except LoadError as exc:
            if exc.line is not None:  # a fault in a file the line refers to
                raise
            raise LoadError(f"{exc} in {line.strip()!r}", lineno) from exc
        except (IndexError, ValueError) as exc:
            raise LoadError(f"cannot parse {line.strip()!r}: {exc}", lineno) from exc
    missing = [kind for kind in header if kind not in values]
    if missing:
        raise LoadError("missing header directive " + ", ".join(missing))
    return values


def one_word(words) -> str:
    """The argument of a directive that takes exactly one word."""
    if len(words) != 1:
        raise LoadError(f"expected one word, got {len(words)}")
    return words[0]


def state_line(words) -> tuple:
    """A `state NAME` or `state NAME accept` line: the name, and whether
    the state accepts."""
    if words[1:] not in ([], ["accept"]):
        raise LoadError("expected NAME or NAME accept")
    return words[0], len(words) == 2


class UnknownRelation(WobError):
    pass


class NotASentence(WobError):
    pass


class NotALimit(WobError):
    pass


class MissingFs(WobError):
    pass


class NotLinear(WobError):
    pass


class NotComparable(WobError):
    pass


class IllFormedSystem(WobError):
    pass


class PredicateDiverged(WobError):
    pass


class InvalidTm(WobError):
    pass


class NotReversible(WobError):
    def __init__(self, pair):
        super().__init__(f"colliding transition pair: {pair[0]} / {pair[1]}")
        self.pair = pair


class BadLevel(WobError):
    pass


class EmptyPds(WobError):
    pass
