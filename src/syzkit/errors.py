"""Error types with machine-readable codes.

Every failure mode that can cross the CLI boundary carries a short stable
``code`` string so callers can branch without parsing prose.
"""


class SyzkitError(Exception):
    """Base class; ``code`` is the machine-readable identifier."""

    code = "error"

    def __init__(self, message, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    def payload(self):
        out = {"code": self.code, "message": self.message}
        if self.details:
            out["details"] = {k: str(v) for k, v in sorted(self.details.items())}
        return out


class VariantMismatchError(SyzkitError):
    """Mixed exact-scalar variants (rational vs mod-p) in one operation."""

    code = "variant-mismatch"


class UnsupportedFieldError(SyzkitError):
    code = "unsupported-field"


class RingMismatchError(SyzkitError):
    code = "ring-mismatch"


class HomogeneityError(SyzkitError):
    code = "inhomogeneous"


class ParseError(SyzkitError):
    code = "parse"


class NotSaturatedError(SyzkitError):
    code = "not-saturated"


class CodimensionError(SyzkitError):
    code = "codimension"


class SpecialityError(SyzkitError):
    code = "speciality-unknown"


class ThresholdError(SyzkitError):
    code = "threshold"


class GenericityError(SyzkitError):
    """Random draw failed a genericity certificate after the retry budget."""

    code = "genericity-failure"


class CoprimalityError(SyzkitError):
    code = "coprimality"


class HypothesisError(SyzkitError):
    code = "hypothesis-violation"


class NonMinimalError(SyzkitError):
    code = "non-minimal"


class DegenerateKernelError(SyzkitError):
    code = "degenerate-kernel"


class BudgetError(SyzkitError):
    code = "budget"


class InputError(SyzkitError):
    code = "input"


class CertificateError(SyzkitError):
    """An exact check that a computed result must pass did not hold."""

    code = "certificate-failed"
