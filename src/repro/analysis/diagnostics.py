"""The shared diagnostic model of the static analyzer.

Every analysis pass reports findings as :class:`Diagnostic` records --
a rule id from the catalogue below, a severity, the kernel and PC it
anchors to, and a human-readable message.  Keeping one shared model (in
the spirit of compiler diagnostics) lets the CLI render text or JSON,
lets CI gate on error severity, and lets tests golden-match rule ids
instead of message strings.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so comparisons read naturally."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, name: str) -> "Severity":
        """Parse a severity from its lowercase name."""
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown severity {name!r}; "
                             f"have {[str(s) for s in cls]}") from None


@dataclass(frozen=True)
class Rule:
    """One catalogue entry: stable id, default severity, summary."""

    rule_id: str
    severity: Severity
    title: str


#: The rule catalogue.  Ids are stable API: tests and CI gate on them.
#: ``V*`` = verifier (structural/dataflow well-formedness), ``D*`` =
#: divergence, ``R*`` = shared-memory races, ``M*`` = memory lints,
#: ``U*`` = uninitialized-read lints, ``S*`` = runtime sanitizer
#: findings (:mod:`repro.sim.sanitizer` -- dynamic ground truth the
#: static rules are graded against).
RULES: Dict[str, Rule] = {r.rule_id: r for r in (
    # -- verifier -----------------------------------------------------------
    Rule("V001", Severity.ERROR,
         "register may be read before it is written"),
    Rule("V002", Severity.ERROR,
         "predicate may be read before it is written"),
    Rule("V003", Severity.ERROR,
         "operand arity or kind mismatch for opcode"),
    Rule("V004", Severity.ERROR,
         "branch target outside the program or unresolved"),
    Rule("V005", Severity.ERROR,
         "conditional branch reconvergence PC missing or wrong"),
    Rule("V006", Severity.ERROR,
         "no EXIT reachable from kernel entry"),
    Rule("V007", Severity.WARNING,
         "unreachable code"),
    Rule("V008", Severity.ERROR,
         "register index outside the kernel's declared register count"),
    # -- divergence --------------------------------------------------------
    Rule("D001", Severity.ERROR,
         "BAR reachable under divergent control flow (barrier deadlock)"),
    Rule("D002", Severity.WARNING,
         "divergent branch reconverges only at kernel exit"),
    # -- shared-memory races -----------------------------------------------
    Rule("R001", Severity.ERROR,
         "write-write shared-memory overlap within a barrier interval"),
    Rule("R002", Severity.ERROR,
         "read-write shared-memory overlap within a barrier interval"),
    Rule("R003", Severity.INFO,
         "shared-memory address not statically analyzable"),
    # -- memory lints ------------------------------------------------------
    Rule("M001", Severity.WARNING,
         "shared-memory access has static bank conflicts"),
    Rule("M002", Severity.WARNING,
         "poorly coalesced global-memory access"),
    Rule("M003", Severity.ERROR,
         "shared-memory access provably out of bounds"),
    # -- uninitialized reads -----------------------------------------------
    Rule("U001", Severity.WARNING,
         "read of provably-uninitialized shared memory"),
    # -- runtime sanitizer -------------------------------------------------
    Rule("S001", Severity.WARNING,
         "runtime read of uninitialized memory"),
    Rule("S002", Severity.ERROR,
         "runtime out-of-bounds memory access"),
    Rule("S003", Severity.ERROR,
         "dynamic shared-memory race within a barrier interval"),
    Rule("S004", Severity.ERROR,
         "barrier deadlock detected at runtime"),
)}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding.

    Attributes:
        rule: Rule id from :data:`RULES`.
        severity: Effective severity (defaults to the rule's).
        kernel: Kernel name the finding belongs to.
        message: Human-readable description.
        pc: Anchoring program counter, when the finding has one.
        data: Structured details (counts, operands, addresses) for
            machine consumers; values must be JSON-serializable.
    """

    rule: str
    severity: Severity
    kernel: str
    message: str
    pc: Optional[int] = None
    data: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown rule id {self.rule!r}")

    @property
    def title(self) -> str:
        """The catalogue title of this diagnostic's rule."""
        return RULES[self.rule].title

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        out: Dict[str, Any] = {
            "rule": self.rule,
            "severity": str(self.severity),
            "kernel": self.kernel,
            "message": self.message,
        }
        if self.pc is not None:
            out["pc"] = self.pc
        if self.data:
            out["data"] = dict(self.data)
        return out

    def format(self) -> str:
        """One-line rendering: ``kernel:pc: severity[rule] message``."""
        where = f"{self.kernel}:{self.pc}" if self.pc is not None \
            else self.kernel
        return f"{where}: {self.severity}[{self.rule}] {self.message}"


def diag(rule: str, kernel: str, message: str, pc: Optional[int] = None,
         severity: Optional[Severity] = None, **data: Any) -> Diagnostic:
    """Build a :class:`Diagnostic` with the rule's default severity."""
    return Diagnostic(rule=rule,
                      severity=severity or RULES[rule].severity,
                      kernel=kernel, message=message, pc=pc, data=data)


def max_severity(diagnostics: Sequence[Diagnostic]) -> Optional[Severity]:
    """Highest severity present, or None for a clean result."""
    if not diagnostics:
        return None
    return max(d.severity for d in diagnostics)


def has_errors(diagnostics: Sequence[Diagnostic]) -> bool:
    """True when any diagnostic is error-severity."""
    return any(d.severity >= Severity.ERROR for d in diagnostics)


def format_diagnostics(diagnostics: Sequence[Diagnostic]) -> str:
    """Multi-line text rendering, errors first within each kernel."""
    ordered = sorted(diagnostics,
                     key=lambda d: (d.kernel, -int(d.severity),
                                    d.pc if d.pc is not None else -1,
                                    d.rule))
    return "\n".join(d.format() for d in ordered)


def diagnostics_to_json(diagnostics: Sequence[Diagnostic],
                        indent: int = 2) -> str:
    """JSON array rendering (the ``--format json`` CLI output)."""
    return json.dumps([d.to_dict() for d in diagnostics], indent=indent)
