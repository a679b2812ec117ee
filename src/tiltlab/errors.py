"""Exception taxonomy shared across the package.

Every failure mode named by a module contract maps to one class here, so
callers (and the CLI) can distinguish numerical failures from bad inputs.
"""


class TiltlabError(Exception):
    """Base class for all package-specific failures."""


class NotPositiveDefinite(TiltlabError):
    """A matrix required to be symmetric positive definite is not."""


class DivergentNormalizer(TiltlabError):
    """A tilted-measure normalizing constant does not exist (PD condition failed)."""


class NonFiniteGradient(TiltlabError):
    """A gradient contained NaN or infinity during optimization."""


class ZeroNormRow(TiltlabError):
    """Row normalization was requested for an exactly zero embedding row."""


class BadMagic(TiltlabError):
    """A binary file did not start with the expected magic number."""


class TruncatedFile(TiltlabError):
    """A binary file ended before the payload its header promised."""


class CountMismatch(TiltlabError):
    """Two files or arrays that must agree in item count do not."""


class ConfigError(TiltlabError):
    """An experiment configuration failed to parse or validate."""
