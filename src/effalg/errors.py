"""Exception hierarchy shared across the package."""

from __future__ import annotations


class EffectAlgebraError(Exception):
    """Base class for every domain error raised by this package."""


class AxiomViolation(EffectAlgebraError):
    """A table failed validation.  Carries the axiom report.

    The message names the first three violations found and counts the
    rest from the report's per-axiom totals, kept witnesses or not.
    """

    def __init__(self, report):
        self.report = report
        head = "; ".join(f"{v.axiom}: {v.detail}" for v in report.violations[:3])
        rest = sum(report.totals.values()) - 3
        if rest > 0:
            head += f" (+{rest} more)"
        super().__init__(head or "axiom violations")


class DuplicateName(EffectAlgebraError, ValueError):
    """Two elements were given the same name.

    A ``ValueError`` too, so callers catching that keep working.
    """


class IndexOutOfRange(EffectAlgebraError, ValueError):
    """A sum table entry, its zero or its one is not an element index,
    or its size is not an int; or an element index given to
    ``EffectAlgebra.diff``, ``multiple``, ``atomic_decomposition`` or
    ``basic_decomposition``, or a key of ``verify_state``'s candidate, is
    not an int in ``range(E.size)``, a bool included.

    A ``ValueError`` too, so callers catching that keep working.
    """


class ParseError(EffectAlgebraError):
    """Malformed document text.  Keeps the offending line number."""

    def __init__(self, lineno: int | None, message: str):
        self.lineno = lineno
        prefix = f"line {lineno}: " if lineno is not None else ""
        super().__init__(prefix + message)


class MissingHeader(ParseError):
    """The document does not start with the expected format header."""


class UnknownName(EffectAlgebraError):
    """A referenced element name is not declared."""


class MissingElement(EffectAlgebraError):
    """A state document does not assign a value to every element."""


class NegativeDenominator(EffectAlgebraError):
    """A rational literal has a zero or negative denominator."""


class InvalidDecomposition(EffectAlgebraError):
    """A decomposition value violates its structural constraints."""


class PreconditionFailed(EffectAlgebraError):
    """The operation's structural precondition does not hold."""


class InvalidState(EffectAlgebraError):
    """A candidate state fails verification on its declared domain."""


class SizeLimit(EffectAlgebraError):
    """A generator parameter, the element count of a table or a file, the
    number of sum lines of a file, or the digit count of a numeral is
    outside its supported range."""


class DegenerateBlock(EffectAlgebraError):
    """A horizontal-sum block is too small to contribute an interior."""
