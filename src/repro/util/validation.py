"""Argument-validation helpers with consistent error messages."""

from __future__ import annotations

import math
import numbers
from typing import Any


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` is a probability in ``[0, 1]`` and return it."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


def check_fraction(value: float, name: str) -> float:
    """Validate that ``value`` is a strict fraction in ``(0, 1)``."""
    check_probability(value, name)
    if value in (0.0, 1.0):
        raise ValueError(f"{name} must be strictly inside (0, 1), got {value!r}")
    return float(value)


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive and return it."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if math.isnan(value) or value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return float(value)


def check_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is a finite real number ``>= 0``; return it."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
    return float(value)


def check_non_negative_int(value: Any, name: str) -> int:
    """Validate that ``value`` is a non-negative integer and return it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_positive_int(value: Any, name: str) -> int:
    """Validate that ``value`` is a strictly positive integer and return it."""
    check_non_negative_int(value, name)
    if value == 0:
        raise ValueError(f"{name} must be positive, got 0")
    return value
