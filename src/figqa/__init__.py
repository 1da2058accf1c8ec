"""Generate-then-verify pipeline for multiple-choice QA about paper figures."""

__version__ = "0.1.0"
