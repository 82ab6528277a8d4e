"""Exception types shared across the workbench."""


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
    def __init__(self, n_states, budget):
        super().__init__(f"automaton grew to {n_states} states, budget {budget}")
        self.n_states = n_states
        self.budget = budget


class LoadError(WobError):
    """Malformed input file; carries a line number when available."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


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
