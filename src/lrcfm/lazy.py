"""Dataclass fields whose value is computed when first read.

A field declared as ``name: T = LazyField()`` (default None) takes a
plain value, or a `Deferred` whose function runs on the first read of the
field; the result then replaces it. The steady-state condition numbers
use this: the batched SVD behind them runs only for a result whose
condition numbers are read.
"""

from __future__ import annotations


class Deferred:
    """A value still to be computed, by calling `compute()`."""

    __slots__ = ("compute",)

    def __init__(self, compute):
        self.compute = compute


class LazyField:
    """Data descriptor for a (frozen) dataclass field that accepts a
    `Deferred`."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:  # the field's default, as dataclasses read it
            return None
        value = obj.__dict__[self.name]
        if isinstance(value, Deferred):
            value = obj.__dict__[self.name] = value.compute()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value
