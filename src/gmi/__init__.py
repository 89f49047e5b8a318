"""gmi: a deterministic Grant Maturity Index scoring engine."""

__version__ = "0.1.0"
