"""Exception hierarchy shared across the pipeline.

Each class names the exit code and message prefix of a command it ends:
2 for a malformed cloud, 3 for a bad configuration or model file, 5 for a
stalled search and 4, a data-model problem, for any other. A file that
cannot be read or is not JSON exits 2 too, and any other ValueError 4.
"""


class SkelgrowError(Exception):
    """Base class for all package errors."""
    exit_code, prefix = 4, ""


class CloudFormatError(SkelgrowError):
    """Malformed or empty point-cloud file."""
    exit_code, prefix = 2, "cannot read input: "


class ConfigError(SkelgrowError):
    """Invalid configuration value or unknown config key."""
    exit_code, prefix = 3, "invalid configuration: "


class DegenerateGeometryError(SkelgrowError):
    """Zero-length vector or too few points for a stable computation."""


class OverrideError(SkelgrowError):
    """Edge scores (an override table or a score cache) that are not one
    number in [0, 1] per dense edge."""


class ModelFormatError(SkelgrowError):
    """Scorer model file with inconsistent layer dimensions."""
    exit_code, prefix = ConfigError.exit_code, ConfigError.prefix


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
    exit_code, prefix = 5, "search stalled: "


class SearchStalledError(SkelgrowError):
    """Population search produced no proposals before any growth."""
    exit_code, prefix = NoTipsError.exit_code, NoTipsError.prefix


class EvalError(SkelgrowError):
    """Skeleton comparison over mismatched node spaces or empty reference."""
