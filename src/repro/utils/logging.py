"""Thin logging facade: a single namespaced logger hierarchy (``repro.*``)."""

from __future__ import annotations

import logging


def get_logger(name: str) -> logging.Logger:
    """Return a logger under the ``repro`` namespace."""
    if not name.startswith("repro"):
        name = f"repro.{name}"
    return logging.getLogger(name)
