"""Abstract interfaces, the equivalent of ``sc_interface``.

The paper's Figure 2 derives the TAM interface from the generic SystemC
interface; this module provides that generic base.  An interface is a plain
Python class whose abstract methods describe the services a channel offers;
:meth:`Interface.is_implemented_by` checks a channel against it, as
``TamChannel.bind_slave`` does for every slave it maps.
"""

from __future__ import annotations

import inspect
from typing import List, Tuple


class Interface:
    """Base class for all channel interfaces."""

    #: :meth:`required_methods`, computed once per class (checks run often).
    _required: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._required = tuple(sorted(
            name for name, _ in inspect.getmembers(cls, predicate=callable)
            if not name.startswith("_") and not hasattr(Interface, name)
        ))

    @classmethod
    def required_methods(cls) -> List[str]:
        """Names of the methods an implementation must provide.

        Every public method declared on the interface subclass (excluding the
        ones inherited from :class:`Interface` itself) is considered part of
        the contract.
        """
        return list(cls._required)

    @classmethod
    def is_implemented_by(cls, obj) -> bool:
        """Return ``True`` if *obj* provides every method of the interface."""
        if isinstance(obj, cls):
            return True
        return all(callable(getattr(obj, name, None)) for name in cls._required)
