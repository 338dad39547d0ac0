"""Exception hierarchy shared across the pipeline.

Exit-code mapping (see cli): I/O and parse problems -> 2, configuration
problems -> 3, data-model problems -> 4, stalled search -> 5.
"""


class SkelgrowError(Exception):
    """Base class for all package errors."""


class CloudFormatError(SkelgrowError):
    """Malformed or empty point-cloud file."""


class ConfigError(SkelgrowError):
    """Invalid configuration value or unknown config key."""


class DegenerateGeometryError(SkelgrowError):
    """Zero-length vector or too few points for a stable computation."""


class OverrideError(SkelgrowError):
    """Edge scores (an override table or a score cache) that are not one
    number in [0, 1] per dense edge."""


class ModelFormatError(SkelgrowError):
    """Scorer model file with inconsistent layer dimensions."""


class AttachmentError(SkelgrowError):
    """Edge-label attachment rejected; names the violated rule."""

    def __init__(self, rule: str, message: str):
        super().__init__(f"{rule}: {message}")
        self.rule = rule


class CorrectionError(SkelgrowError):
    """Edit-script step produced an invalid skeleton."""

    def __init__(self, step: int, message: str):
        super().__init__(f"correction step {step}: {message}")
        self.step = step


class NoTipsError(SkelgrowError):
    """No tip candidates survive filtering; search cannot start."""


class SearchStalledError(SkelgrowError):
    """Population search produced no proposals before any growth."""


class EvalError(SkelgrowError):
    """Skeleton comparison over mismatched node spaces or empty reference."""
