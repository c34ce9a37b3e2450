"""Exception hierarchy shared across the package."""


class CandlecastError(Exception):
    """Base class for all package errors."""


class DataError(CandlecastError):
    """Malformed or invariant-violating market data."""


class NonFiniteError(DataError):
    """NaN/Inf reached a layer; during training this means a blow-up."""


class ConfigError(CandlecastError):
    """Invalid configuration value or file."""


class ArtifactError(CandlecastError):
    """Missing, corrupt, or mismatched pipeline artifact."""


class TrainingDiverged(CandlecastError):
    """Loss became NaN/Inf during training."""


class UntrainedModelError(CandlecastError):
    """Inference requested from a model that was never trained."""


class UnderFitted(CandlecastError):
    """Training finished below the required quality bar."""
