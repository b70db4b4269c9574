"""Check reports: per-identity pass/fail records with an overall verdict.

This module is the one place where a raised refutation or budget becomes a
record, through ``Report.attempt`` and ``Report.check_equal``.
``ShapeError`` (parts over different base points cannot be paired) and
``NotInvertible`` (an exact refutation of an inverse) fail the law with
their message as the witness; ``BudgetExceeded`` leaves it cannot-certify.
``check_equal`` takes a builder, not built maps, so every law is built
inside the report; the checking modules catch nothing, and the CLI ends a
command only when one of these escapes a construction that no law holds,
such as parsing.  ``Report.why`` names the records that did not pass, with
the witness of each cannot-certify one, so a summary of a report stopped
by the budget still names the budget.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Optional, TypeVar, Union

from .polycore import BudgetExceeded, NotInvertible, PolyMap, ShapeError, Value, first_difference, map_equal

T = TypeVar("T")

# What a construction raises when it refutes a law or exceeds the budget.
_RAISED = (ShapeError, NotInvertible, BudgetExceeded)

# What a law builds: the two maps it equates, or the comparison's witness.
Build = Callable[[], Union[tuple[PolyMap, PolyMap], Optional[str]]]


class Status(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    CANNOT_CERTIFY = "cannot-certify"


class CheckRecord(Value):
    """One law's outcome; ``premise`` is neither compared nor hashed."""

    _fields = ("name", "law", "status", "witness", "premise")
    _compared = _fields[:4]

    def __init__(
        self,
        name: str,
        law: str,  # the identity or axiom the record tests, e.g. "lambda K = 1"
        status: Status,
        witness: Optional[str] = None,
        # what decided a pass without its composites (``Report.decide``); not output
        premise: Optional[str] = None,
    ) -> None:
        self.__dict__.update(name=name, law=law, status=status, witness=witness, premise=premise)


class Report(Value):
    """An ordered list of check records about one subject; mutable and unhashable."""

    _fields = ("subject", "records")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, subject: str, records: Optional[list[CheckRecord]] = None) -> None:
        self.subject = subject
        self.records = [] if records is None else records

    def add(self, record: CheckRecord) -> None:
        self.records.append(record)

    def check_equal(self, name: str, law: str, build: Build) -> bool:
        """Record a law decided by ``build()``, which builds what it compares.

        ``build()`` returns either the two maps the law equates, compared
        exactly (on failure the witness is a monomial where they differ),
        or the comparison's witness (None when it holds).  A build that
        raises is recorded as ``attempt`` records it, so nothing a law
        builds escapes the report.
        """
        try:
            built = build()
        except _RAISED as exc:
            return self._raised(name, law, exc)
        if isinstance(built, tuple):
            built = None if map_equal(*built) else first_difference(*built)
        return self.check(name, law, built is None, built)

    def decide(self, name: str, law: str, premise: Optional[str], build: Optional[Build] = None) -> bool:
        """Record a law, passed by its ``premise`` or else decided by ``check_equal(name, law, build)``.

        A premise names what makes the law hold without its composites: a
        pass so decided keeps the premise in ``CheckRecord.premise``, which
        no output writes, so its bytes are those of a computed pass.
        """
        if premise is not None:
            self.add(CheckRecord(name, law, Status.PASS, premise=premise))
            return True
        return self.check_equal(name, law, build)

    def check(self, name: str, law: str, ok: bool, witness: Optional[str] = None) -> bool:
        self.add(CheckRecord(name, law, Status.PASS if ok else Status.FAIL, None if ok else witness))
        return ok

    def summary(self, name: str, law: str, sub: "Report") -> bool:
        """Record a sub-report as one check with its verdict, witnessed by ``sub.why()``."""
        self.add(CheckRecord(name, law, sub.verdict, sub.why() or None))
        return sub.passed

    def attempt(self, name: str, law: str, make: Callable[[], T]) -> Optional[T]:
        """Return ``make()``; if it raises, record the law and return None.

        Nothing is recorded when ``make`` returns: the caller records what
        it builds.  A ``ShapeError`` or ``NotInvertible`` fails the law with
        its message as the witness; a ``BudgetExceeded`` leaves it
        cannot-certify, naming the budget.
        """
        try:
            return make()
        except _RAISED as exc:
            self._raised(name, law, exc)
            return None

    def _raised(self, name: str, law: str, exc: Exception) -> bool:
        status = Status.CANNOT_CERTIFY if isinstance(exc, BudgetExceeded) else Status.FAIL
        self.add(CheckRecord(name, law, status, str(exc)))
        return False

    def extend(self, other: "Report", prefix: str = "") -> None:
        """Append a copy of each of ``other``'s records, its name prefixed by ``prefix``.

        The copies keep each record's status, witness and premise.
        """
        for r in other.records:
            self.add(CheckRecord(prefix + r.name, r.law, r.status, r.witness, r.premise))

    @property
    def verdict(self) -> Status:
        """Conjunction of the records, with cannot-certify propagating."""
        if any(r.status is Status.FAIL for r in self.records):
            return Status.FAIL
        if any(r.status is Status.CANNOT_CERTIFY for r in self.records):
            return Status.CANNOT_CERTIFY
        return Status.PASS

    @property
    def passed(self) -> bool:
        return self.verdict is Status.PASS

    def failing(self) -> list[CheckRecord]:
        return [r for r in self.records if r.status is not Status.PASS]

    def why(self) -> str:
        """The names of the records that did not pass, joined by "; ".

        A cannot-certify record carries its witness in parentheses, so that
        the budget that stopped it is named wherever the name is quoted.
        """
        return "; ".join(
            r.name if r.status is Status.FAIL else f"{r.name} ({r.witness})" for r in self.failing()
        )

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "verdict": self.verdict.value,
            "checks": [
                {
                    "name": r.name,
                    "law": r.law,
                    "status": r.status.value,
                    **({"witness": r.witness} if r.witness else {}),
                }
                for r in self.records
            ],
        }

    def render_text(self) -> str:
        lines = [f"subject: {self.subject}"]
        for r in self.records:
            line = f"  [{r.status.value:>14}] {r.name}  ({r.law})"
            if r.witness:
                line += f"  -- {r.witness}"
            lines.append(line)
        lines.append(f"verdict: {self.verdict.value}")
        return "\n".join(lines) + "\n"
